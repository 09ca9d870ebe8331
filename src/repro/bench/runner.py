"""Computation of the paper's table rows on the scaled suite.

Besides the table rows, this module is the benches' publication seam:
:func:`publish` persists a rendered table (plus its JSON twin) under
``benchmarks/results/`` and pushes any :class:`~repro.obs.store.RunRecord`
the bench produced into the persistent run store, and
:func:`traced_case_run` performs one traced, telemetry-sampled engine
run on a case and hands back both the result and its run record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.netlist.stats import circuit_stats
from repro.cec.equivalence import nonequivalent_outputs
from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco
from repro.eco.patch import PatchStats
from repro.baselines.conemap import ConeMap
from repro.baselines.deltasyn import DeltaSyn
from repro.timing.sta import analyze
from repro.workloads.suite import (
    EcoCase,
    build_suite,
    build_timing_case,
    build_timing_suite,
)


@dataclass
class Table1Row:
    """One row of Table 1: test-case characteristics."""

    case_id: int
    inputs: int
    outputs: int
    gates: int
    nets: int
    sinks: int
    revised_outputs: int
    revised_percent: float


@dataclass
class Table2Row:
    """One row of Table 2: patch attributes from all sources."""

    case_id: int
    designer_estimate: int
    commercial: PatchStats
    commercial_seconds: float
    deltasyn: PatchStats
    deltasyn_seconds: float
    syseco: PatchStats
    syseco_seconds: float


@dataclass
class Table3Row:
    """One row of Table 3: patch gates and post-patch worst slack."""

    case_id: int
    deltasyn_gates: int
    deltasyn_slack_ps: float
    syseco_gates: int
    syseco_slack_ps: float


# ----------------------------------------------------------------------
def table1_row(case: EcoCase) -> Table1Row:
    """Characteristics of one ECO case (Table 1 columns)."""
    stats = circuit_stats(case.impl)
    revised = nonequivalent_outputs(case.impl, case.spec)
    return Table1Row(
        case_id=case.case_id,
        inputs=stats.inputs,
        outputs=stats.outputs,
        gates=stats.gates,
        nets=stats.nets,
        sinks=stats.sinks,
        revised_outputs=len(revised),
        revised_percent=100.0 * len(revised) / max(1, stats.outputs),
    )


def run_table1(ids: Optional[Sequence[int]] = None) -> List[Table1Row]:
    """All Table 1 rows (or a subset of case ids)."""
    return [table1_row(case) for case in build_suite(ids)]


def traced_case_run(case: EcoCase,
                    config: Optional[EcoConfig] = None,
                    kind: str = "bench",
                    tags: Optional[dict] = None) -> Tuple[object, object]:
    """One traced syseco run on a case.

    Returns ``(result, record)`` where ``record`` is the
    :class:`~repro.obs.store.RunRecord` of the run — phase summary,
    event counts, histograms, final counters — ready for
    :func:`publish` to push into the run store.
    """
    from repro.obs import Trace, record_from_result

    cfg = config or EcoConfig()
    trace = Trace(name=f"case{case.case_id}")
    result = SysEco(cfg).rectify(case.impl, case.spec, trace=trace)
    record = record_from_result(
        result, trace=trace, kind=kind, name=f"case{case.case_id}",
        config=cfg, tags=dict(tags or {}))
    return result, record


def publish(name: str, text: str, data=None,
            results_dir: str = os.path.join("benchmarks", "results"),
            store=None, run_records: Sequence[object] = ()) -> str:
    """Persist a rendered bench table; returns the text file's path.

    Writes ``text`` to ``results_dir/name`` and, when ``data`` is
    given, a machine-readable JSON twin next to it (``table1.txt`` ->
    ``table1.json``).  Any ``run_records`` are published into the run
    store (``store`` may be a :class:`~repro.obs.store.RunStore`, a
    directory, or None for the default ``.repro/runs``).
    """
    from repro.obs import RunStore
    from repro.obs.atomicio import atomic_write_text

    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, name)
    atomic_write_text(path, text + "\n")
    if data is not None:
        json_path = os.path.splitext(path)[0] + ".json"
        atomic_write_text(json_path, json.dumps(
            data, indent=2, sort_keys=True) + "\n")
    if run_records:
        if not isinstance(store, RunStore):
            store = RunStore(store)
        for record in run_records:
            store.publish(record)
    return path


def lint_screen_stats(case: EcoCase,
                      config: Optional[EcoConfig] = None,
                      run_records: Optional[list] = None) -> dict:
    """Static-screen effectiveness of one syseco run on a case.

    Runs the engine and reports how the pre-SAT lint screen spent its
    checks: how many candidates it saw, how many it rejected before any
    solver work, and the SAT/sim screen counts for comparison (the
    benches' JSON twins record these per case).  When ``run_records``
    is a list, the run is traced and its run record appended for the
    caller to :func:`publish`.
    """
    if run_records is not None:
        result, record = traced_case_run(case, config)
        run_records.append(record)
    else:
        result = SysEco(config or EcoConfig()).rectify(
            case.impl, case.spec)
    counters = result.counters
    screens = counters.lint_screens
    rejects = counters.lint_rejects
    return {
        "case_id": case.case_id,
        "lint_screens": screens,
        "lint_rejects": rejects,
        "lint_reject_rate": rejects / screens if screens else 0.0,
        "sim_rejects": counters.sim_rejects,
        "sat_validations": counters.sat_validations,
    }


# ----------------------------------------------------------------------
def table2_row(case: EcoCase,
               config: Optional[EcoConfig] = None) -> Table2Row:
    """Patch attributes of the three engines on one case."""
    commercial = ConeMap().rectify(case.impl, case.spec)
    deltasyn = DeltaSyn().rectify(case.impl, case.spec)
    syseco = SysEco(config or EcoConfig()).rectify(case.impl, case.spec)
    return Table2Row(
        case_id=case.case_id,
        designer_estimate=case.designer_estimate,
        commercial=commercial.stats(),
        commercial_seconds=commercial.runtime_seconds,
        deltasyn=deltasyn.stats(),
        deltasyn_seconds=deltasyn.runtime_seconds,
        syseco=syseco.stats(),
        syseco_seconds=syseco.runtime_seconds,
    )


def run_table2(ids: Optional[Sequence[int]] = None,
               config: Optional[EcoConfig] = None) -> List[Table2Row]:
    """All Table 2 rows (or a subset of case ids)."""
    return [table2_row(case, config) for case in build_suite(ids)]


# ----------------------------------------------------------------------
#: extra delay charged per patch cell: ECO cells are placed into
#: leftover space after P&R and pay detour wiring (see DESIGN.md)
ECO_PLACEMENT_PENALTY_PS = 10.0


def table3_row(case: EcoCase) -> Table3Row:
    """Timing impact of the DeltaSyn and syseco patches on one case.

    The clock period is the unmodified implementation's worst arrival
    (the design was timing-closed before the ECO), and each tool's
    post-patch worst slack is measured against that same period, with
    every gate the patch instantiated charged the post-placement
    detour penalty.
    """
    period = analyze(case.impl).period
    deltasyn = DeltaSyn().rectify(case.impl, case.spec)
    syseco = SysEco(EcoConfig(level_aware=True)).rectify(
        case.impl, case.spec)
    d_report = analyze(deltasyn.patched, period=period,
                       eco_gates=deltasyn.patch.cloned_gates,
                       eco_penalty_ps=ECO_PLACEMENT_PENALTY_PS)
    s_report = analyze(syseco.patched, period=period,
                       eco_gates=syseco.patch.cloned_gates,
                       eco_penalty_ps=ECO_PLACEMENT_PENALTY_PS)
    return Table3Row(
        case_id=case.case_id,
        deltasyn_gates=deltasyn.stats().gates,
        deltasyn_slack_ps=d_report.worst_slack,
        syseco_gates=syseco.stats().gates,
        syseco_slack_ps=s_report.worst_slack,
    )


def run_table3(ids: Optional[Sequence[int]] = None) -> List[Table3Row]:
    """All Table 3 rows (timing cases 12-15)."""
    cases = build_timing_suite() if ids is None else \
        [build_timing_case(i) for i in ids]
    return [table3_row(case) for case in cases]
