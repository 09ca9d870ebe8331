"""The benchmark's workloads and one measured pass over each.

Every workload is a closed loop: one client issues ``SysEco.rectify``
calls back to back from a single process, each call starting when the
previous one returned.  A *pass* is one sweep over the workload's
calls.  Only the calls themselves are timed; building the designs is
set-up (``setup_s``) and the independent output check runs between
calls, outside the timed region.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ecobench.check import outcome_drift, simulation_mismatch

#: ``EcoConfig.seed``'s default; the golden outcomes are recorded at it
DEFAULT_SEED = 2019

#: Table-1 cases small enough to repeat: the observed workload's set
SMALL_CASES = (2, 4, 5, 8, 9, 10, 11)
OBSERVED_ROUNDS = 10
SCALES = (8, 16, 32)

#: how a failing output may close without the guaranteed fallback
REWIRED = ("rewire", "joint-rewire", "fixed-by-earlier")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")


@dataclass
class Design:
    label: str
    impl: object
    spec: object


def _table1_designs() -> List[Design]:
    from repro.workloads.suite import build_suite
    return [Design(c.name, c.impl, c.spec) for c in build_suite()]


def _small_designs() -> List[Design]:
    from repro.workloads.suite import build_suite
    return [Design(c.name, c.impl, c.spec)
            for c in build_suite(SMALL_CASES)]


def scale_instance(scale: int):
    """One member of the scalability family: word gating plus control
    logic grown with ``scale``, under a fixed gate-type revision.

    The same family as ``benchmarks/bench_scalability.py``, kept here so
    that edits there cannot change this benchmark's inputs.
    """
    from repro.synth import optimize_heavy, optimize_light
    from repro.workloads.generators import (
        control_design,
        mixed_design,
        word_mux_design,
    )
    from repro.workloads.revisions import apply_revision

    blocks = [
        ("wm", word_mux_design(n_words=2, width=4 * scale)),
        ("ctl", control_design(n_inputs=6 + 2 * scale,
                               n_outputs=4 * scale,
                               n_terms=6 * scale, seed=scale)),
    ]
    source = mixed_design(blocks, name=f"scale{scale}")
    impl = optimize_heavy(source, seed=scale + 100)
    revised = source.copy()
    apply_revision(revised, "gate-type", seed=3, bias="deep")
    return impl, optimize_light(revised)


def _scale_designs() -> List[Design]:
    designs = []
    for scale in SCALES:
        impl, spec = scale_instance(scale)
        designs.append(Design(f"scale{scale}", impl, spec))
    return designs


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and the
    README."""

    name: str
    build: Callable[[], List[Design]]
    jobs: int = 1
    rounds: int = 1
    observed: bool = False

    def config(self, seed: int):
        from repro.eco.config import EcoConfig
        return EcoConfig(seed=seed, jobs=self.jobs)

    def calls(self, designs: List[Design]) -> List[Design]:
        return [d for _ in range(self.rounds) for d in designs]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table1", _table1_designs),
    Workload("scale", _scale_designs),
    Workload("observed", _small_designs, rounds=OBSERVED_ROUNDS,
             observed=True),
    Workload("table1-jobs2", _table1_designs, jobs=2),
)}


# ----------------------------------------------------------------------
@dataclass
class CallRecord:
    """One rectify call of a pass."""

    label: str
    seconds: float
    #: ``seconds`` net of speed probes, at the reference speed (equal
    #: to ``seconds`` in a pass run without the probe)
    scaled_s: float = 0.0
    per_output: Dict[str, str] = field(default_factory=dict)
    patch_gates: int = 0
    degraded: bool = False
    error: Optional[str] = None
    worker_deaths: int = 0
    retries: int = 0
    #: per-layer self seconds and solver seconds per context of this
    #: call (traced passes only)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.degraded


@dataclass
class PassRecord:
    kind: str  # "untraced", "traced" or "bare"
    calls: List[CallRecord]
    #: per-layer metrics of a traced pass
    layers: Dict[str, float] = field(default_factory=dict)
    #: peak resident KB of the measuring process and its largest child
    #: process, read right after the pass
    rss_kb: int = 0

    @property
    def total_s(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def scaled_total_s(self) -> float:
        return sum(c.scaled_s for c in self.calls)

    @property
    def patch_gates(self) -> int:
        return sum(c.patch_gates for c in self.calls)

    @property
    def rewire_ratio(self) -> float:
        outcomes = [how for c in self.calls for how in c.per_output.values()]
        closed = sum(1 for how in outcomes if how in REWIRED)
        return closed / len(outcomes) if outcomes else 0.0

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c.failed)

    def drift(self, golden: Optional[Dict[str, dict]]) -> int:
        golden = golden or {}
        return sum(
            outcome_drift(c.per_output,
                          golden.get(c.label, {}).get("per_output"))
            for c in self.calls)


def load_golden() -> Dict[str, Dict[str, dict]]:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def record_golden(name: str, record: PassRecord) -> None:
    """Store one pass's per-call outcomes and patch stats as the golden
    ones of workload ``name``."""
    golden = load_golden()
    golden[name] = {c.label: {"per_output": dict(sorted(c.per_output.items())),
                              "patch_gates": c.patch_gates}
                    for c in record.calls}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
def _observed_call(engine, design: Design, store, run_id: str):
    """One run as ``repro eco`` makes it when recording (its default)."""
    from repro.eco.checkpoint import RunJournal
    from repro.obs import MetricsRegistry, Trace
    from repro.obs import store as obs_store

    trace = Trace(name=design.impl.name, metrics=MetricsRegistry())
    journal = RunJournal(run_id, store_root=store.root)
    result = engine.rectify(design.impl, design.spec, trace=trace,
                            journal=journal)
    # looked up at call time so a traced pass sees the wrapped function
    record = obs_store.record_from_result(
        result, trace=trace, kind="eco", name=design.impl.name,
        config=engine.config,
        outcome="degraded" if result.degraded else "ok",
        tags={"engine": "syseco"}, run_id=run_id)
    store.publish(record)
    return result


def run_pass(workload: Workload, designs: List[Design], seed: int,
             kind: str = "untraced", profiler=None,
             store_dir: Optional[str] = None, probe=None) -> PassRecord:
    """One closed-loop sweep over the workload's calls.

    ``kind="bare"`` runs an observed workload without its observability
    (the reference for ``obs.overhead_s``).  ``store_dir`` must be a
    fresh directory for an observed pass: its run store grows across
    the pass.  With a ``profiler`` installed by the caller, each call
    records its per-layer self time.  With a running
    :class:`~ecobench.speed.SpeedProbe`, each call's time is also
    scaled to the reference speed.
    """
    from repro.eco.engine import SysEco
    from repro.obs import RunStore

    engine = SysEco(workload.config(seed))
    observed = workload.observed and kind != "bare"
    store = RunStore(store_dir) if observed else None
    calls: List[CallRecord] = []
    for i, design in enumerate(workload.calls(designs)):
        before = profiler.snapshot() if profiler is not None else None
        result = None
        error = None
        mark = probe.mark() if probe is not None else 0
        started = time.perf_counter()
        try:
            if observed:
                result = _observed_call(engine, design, store,
                                        f"bench-{i:03d}")
            else:
                result = engine.rectify(design.impl, design.spec)
        except Exception as exc:  # a raising call is a failed call
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        call = CallRecord(design.label, seconds, error=error,
                          scaled_s=probe.scaled(seconds, mark)
                          if probe is not None else seconds)
        if result is not None:
            call.per_output = dict(result.per_output)
            call.patch_gates = result.stats().gates
            call.degraded = bool(result.degraded)
            call.worker_deaths = result.counters.worker_deaths
            call.retries = result.counters.tasks_retried
            call.error = simulation_mismatch(result.patched, design.spec,
                                             seed=seed + i)
        if before is not None:
            call.layers = {k: v - before.get(k, 0.0)
                           for k, v in profiler.snapshot().items()}
        calls.append(call)
    return PassRecord(kind, calls)


def median(values):
    return statistics.median(values) if values else 0.0
