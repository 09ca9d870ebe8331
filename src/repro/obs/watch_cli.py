"""``repro watch``: a TTY dashboard over a recorded run (plain text).

``repro watch [REF]`` loads a run-store record (``last`` when omitted)
and renders its phase tree, the per-output resolution progress,
counter sparklines from the persisted ``obs.sample`` timeline, and
per-phase latency percentiles from the stored histogram snapshots.

No dependencies beyond the standard library and no curses — a frame is
plain text, so it renders anywhere a terminal does.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Iterable, List, Sequence

from repro.obs.store import RunRecord, RunStore

#: eight-level bar characters, lowest to highest
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: sample-timeline counters worth a sparkline, in display order
SPARK_KEYS = ("sat_conflicts_spent", "bdd_nodes", "sat_validations",
              "plan_evals", "mem_peak_kib")


# ----------------------------------------------------------------------
# pure renderers (unit-testable, no I/O)
# ----------------------------------------------------------------------
def sparkline(values: Sequence[float], width: int = 40) -> str:
    """``values`` as a fixed-width bar string (empty input -> '')."""
    points = [float(v) for v in values]
    if not points:
        return ""
    if len(points) > width:
        step = len(points) / width
        points = [points[int(i * step)] for i in range(width)]
    lo, hi = min(points), max(points)
    if hi <= lo:
        return SPARK_CHARS[0] * len(points)
    span = hi - lo
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - lo) / span * len(SPARK_CHARS)))]
        for v in points)


def progress_bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(width * min(1.0, done / total))
    return ("[" + "#" * filled + "-" * (width - filled)
            + f"] {done}/{total}")


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def render_phase_rows(phases: Iterable[Dict[str, Any]],
                      limit: int = 14) -> List[str]:
    """Stored per-phase rows as an indented tree with time/call/SAT."""
    rows = list(phases)
    total = max((r.get("seconds", 0.0) for r in rows), default=0.0)
    lines = []
    for row in rows[:limit]:
        path = str(row.get("phase", "?"))
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        seconds = float(row.get("seconds", 0.0))
        pct = (100.0 * seconds / total) if total else 0.0
        lines.append(
            f"  {'  ' * depth}{name:<24.24} "
            f"{_fmt_seconds(seconds):>9}  {pct:5.1f}%  "
            f"x{row.get('calls', 0):<5} "
            f"sat={row.get('sat_conflicts', 0)}")
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more phases")
    return lines


def render_sample_sparks(samples: Sequence[Dict[str, Any]],
                        keys: Sequence[str] = SPARK_KEYS) -> List[str]:
    lines = []
    for key in keys:
        series = [s.get(key, 0) for s in samples if isinstance(
            s.get(key, 0), (int, float))]
        if samples and any(series):
            lines.append(f"  {key:<22.22} {sparkline(series)} "
                         f"{series[-1]:g}")
    return lines


def render_histograms(histograms: Dict[str, Dict[str, Any]]) -> List[str]:
    """Stored histogram snapshots as a percentile table."""
    lines = []
    for family in sorted(histograms):
        snap = histograms[family]
        count = snap.get("count", 0)
        if not count:
            continue
        unit = (_fmt_seconds if family.endswith("_seconds")
                else lambda v: f"{v:g}")
        lines.append(
            f"  {family:<30.30} n={count:<6} "
            f"p50={unit(float(snap.get('p50', 0)))} "
            f"p95={unit(float(snap.get('p95', 0)))} "
            f"p99={unit(float(snap.get('p99', 0)))}")
    return lines


def render_record(record: RunRecord) -> str:
    """One full dashboard frame for a persisted run record."""
    out = [f"run {record.run_id}  [{record.kind}] {record.name}  "
           f"outcome={record.outcome}"
           + ("  DEGRADED" if record.degraded else ""),
           f"wall {record.wall_seconds:.3f}s  git {record.git_sha or '?'}"]
    total_outputs = sum(record.resolution.values())
    if total_outputs:
        fixed = sum(n for how, n in record.resolution.items()
                    if how != "unresolved")
        out.append("outputs  " + progress_bar(fixed, total_outputs)
                   + "   " + ", ".join(
                       f"{how}:{n}" for how, n
                       in sorted(record.resolution.items())))
    if record.phases:
        out.append("")
        out.append("phases:")
        out.extend(render_phase_rows(record.phases))
    sparks = render_sample_sparks(record.samples)
    if sparks:
        out.append("")
        out.append(f"timeline ({len(record.samples)} samples):")
        out.extend(sparks)
    hists = render_histograms(record.histograms)
    if hists:
        out.append("")
        out.append("latency percentiles:")
        out.extend(hists)
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def add_watch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "ref", nargs="?", default="last",
        help="run-store record to render (default: last)")
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="run-store directory (default: $REPRO_RUN_STORE or "
             ".repro/runs)")


def run_watch(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    record = store.resolve(args.ref)
    print(render_record(record), end="")
    return 0
