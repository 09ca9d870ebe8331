"""Human-readable rectification reports."""

from __future__ import annotations

from typing import List, Optional

from repro.netlist.circuit import Circuit
from repro.eco.patch import RectificationResult


def format_patch_report(result: RectificationResult,
                        impl: Optional[Circuit] = None,
                        title: str = "rectification report") -> str:
    """Render one result as the report the CLI and examples print.

    Args:
        result: a finished rectification.
        impl: the pre-ECO implementation, for before/after size lines.
        title: heading line.
    """
    stats = result.stats()
    lines: List[str] = [title, "=" * len(title)]
    if impl is not None:
        lines.append(
            f"implementation : {impl.num_gates} gates -> "
            f"{result.patched.num_gates} gates")
    lines.append(f"verified outputs: {len(result.verified_outputs)}")
    lines.append(
        f"patch          : inputs={stats.inputs} outputs={stats.outputs} "
        f"gates={stats.gates} nets={stats.nets}")
    lines.append(f"runtime        : {result.runtime_seconds:.2f}s")
    if result.degraded:
        lines.append(f"DEGRADED       : {result.degrade_reason} "
                     "(partial search; remaining outputs completed via "
                     "guaranteed fallback, result fully verified)")

    if result.per_output:
        by_method: dict = {}
        for port, how in sorted(result.per_output.items()):
            by_method.setdefault(how, []).append(port)
        for how, ports in sorted(by_method.items()):
            lines.append(f"{how:<15}: {', '.join(ports)}")

    interesting = sorted(result.counters.nonzero().items())
    if interesting:
        lines.append("search effort  : " + ", ".join(
            f"{k}={v}" for k, v in interesting))

    if result.patch.ops:
        lines.append("rewire operations:")
        for op in result.patch.ops:
            lines.append(f"  {op.describe()}")
    else:
        lines.append("rewire operations: none (already equivalent)")

    if result.trace is not None and getattr(result.trace, "spans", None):
        from repro.obs.summary import brief_phase_lines
        lines.append("phase breakdown (hottest first; "
                     "full tree: repro trace <file>):")
        for phase_line in brief_phase_lines(result.trace.records()):
            lines.append(f"  {phase_line}")
    return "\n".join(lines)
