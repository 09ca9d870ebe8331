"""Seeded schedule fuzzing of the threaded runtime (``lint --race``).

The static pass (:mod:`repro.lint.concur_rules`) proves the *shape* of
the concurrency code; this module attacks its *behaviour*.  A race
check runs a target workload N times, each time under a different
seeded preemption schedule, and verifies workload-specific invariants
afterwards — lost metric increments, leaked sampler threads, an
unreleasable endpoint port, a torn run-store index.

The schedule fuzzing rides two existing mechanisms rather than a
bespoke scheduler:

* the fault-injection site :data:`~repro.runtime.sync.SITE_SYNC` —
  every traced-lock acquisition observes it, so arming a
  :class:`~repro.runtime.faultinject.FaultInjector` with seeded
  (ordinal, sleep) pairs injects deterministic jitter exactly at
  sync-primitive boundaries, widening the race windows the GIL
  normally hides;
* ``sys.setswitchinterval`` — tightened from the 5 ms default to
  microseconds for the duration of each run (and always restored), so
  the interpreter preempts threads between nearly every bytecode
  burst.  This module is the one sanctioned caller (rule ``CC007``).

Runs happen with sync debugging enabled, so every run also doubles as
a lock-order audit: any order-inversion cycle the workload produces is
reported as a diagnostic, and the accumulated lock-order graph is
available for the CI artifact (``--sync-graph``).

Diagnostic codes (``RC...`` family, cataloged in
``docs/static-analysis.md``):

* ``RC000`` *info* — run summary (seeds, acquisitions fuzzed).
* ``RC001`` *error* — a workload invariant failed under some seed.
* ``RC002`` *error* — a lock-order inversion was detected in a target
  that must be inversion-free.
* ``RC003`` *error* — the target crashed or hung under fuzzing.
* ``RC004`` *error* — an ``expect-violation`` target (the built-in
  ``inversion`` demo) failed to reproduce its inversion — i.e. the
  detector itself regressed.
* ``RC005`` *info* — an expected inversion was reproduced, with both
  acquisition stacks.

Targets are either built-in scenario names (:data:`SCENARIOS`;
``all`` runs every invariant scenario) or a dotted path
``pkg.mod:callable`` / ``pkg.mod.callable`` to a zero-argument
callable returning ``None``/an iterable of failure strings.
"""

from __future__ import annotations

import faulthandler
import importlib
import random
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.lint.diag import LintReport, error, info
from repro.runtime.faultinject import FaultInjector
from repro.runtime.sync import (
    SITE_SYNC,
    disable_sync_debug,
    enable_sync_debug,
    make_lock,
    make_thread,
    sync_graph,
    sync_state,
    sync_violations,
)

DEFAULT_RUNS = 5
DEFAULT_SEED = 1337
DEFAULT_TIMEOUT_S = 120.0

#: switch interval while fuzzing — the CPython default is 5 ms, which
#: lets a thread run thousands of bytecodes between preemptions and
#: hides most races; microseconds forces a context switch per burst
FUZZ_SWITCH_INTERVAL_S = 1e-5

#: jitter faults armed at :data:`SITE_SYNC` per run
JITTER_FAULTS = 24
#: call-ordinal window the faults are scattered over
JITTER_WINDOW = 400
#: maximum per-fault sleep (seconds) — long enough to open a window,
#: short enough that a full run stays interactive
JITTER_MAX_SLEEP_S = 0.002

#: thread-join grace inside scenarios; a thread alive after this is a
#: hang, reported as an invariant failure rather than blocking the CLI
JOIN_TIMEOUT_S = 15.0

ScenarioFn = Callable[[random.Random], List[str]]


@dataclass
class Scenario:
    """One built-in race-check workload."""

    name: str
    doc: str
    fn: ScenarioFn
    #: the workload intentionally inverts a lock order; the harness
    #: *requires* a violation instead of forbidding one
    expect_violation: bool = False


@dataclass
class RaceCheckResult:
    """Everything one ``lint --race`` invocation produced.

    Attributes:
        target: the target spec that was run.
        runs: seeded executions per scenario.
        seed: base seed; run *i* uses ``seed + i``.
        report: the diagnostics (:class:`~repro.lint.diag.LintReport`
            with tool ``"race"``); ``report.ok`` is the pass verdict.
        graph: the cumulative lock-order graph across all runs
            (:func:`~repro.runtime.sync.sync_graph` schema) — the CI
            artifact payload.
        acquisitions: total traced acquisitions fuzzed.
    """

    target: str
    runs: int
    seed: int
    report: LintReport
    graph: Dict[str, Any] = field(default_factory=dict)
    acquisitions: int = 0

    @property
    def ok(self) -> bool:
        return self.report.ok


# ----------------------------------------------------------------------
# built-in scenarios
# ----------------------------------------------------------------------

def _join_all(threads: List[Any], failures: List[str]) -> None:
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
        if thread.is_alive():
            failures.append(f"thread {thread.name!r} hung "
                            f"(> {JOIN_TIMEOUT_S}s)")


def _scenario_metrics(rng: random.Random) -> List[str]:
    """Hammer one registry from several threads; nothing may be lost.

    Covers the double-checked-lock fast path in
    :meth:`~repro.obs.metrics.MetricsRegistry._get`: all threads share
    series, so a torn fast-path read or an unlocked ``+=`` shows up as
    a wrong total.  Also races a kind collision (counter vs. gauge
    under one name) to prove the fast path cannot bypass the kind
    check.
    """
    from repro.obs.metrics import Counter, MetricsRegistry

    registry = MetricsRegistry()
    workers = 4
    rounds = 250
    failures: List[str] = []

    def hammer(wid: int) -> None:
        counter = registry.counter("repro_race_total",
                                   labels={"half": str(wid % 2)})
        hist = registry.histogram("repro_race_seconds")
        for i in range(rounds):
            counter.inc()
            hist.observe((i % 7) * 1e-3)

    threads = [make_thread(hammer, name=f"race-metrics-{i}", args=(i,))
               for i in range(workers)]
    for thread in threads:
        thread.start()
    _join_all(threads, failures)

    total = sum(s.value for s in registry.series("repro_race_total"))
    if total != workers * rounds:
        failures.append(f"lost counter increments: {total} != "
                        f"{workers * rounds}")
    hist = registry.histogram("repro_race_seconds")
    if hist.count != workers * rounds:
        failures.append(f"lost histogram observations: {hist.count} "
                        f"!= {workers * rounds}")

    # racing kind collision: exactly one thread wins the name, the
    # other must get ValueError — never a silently re-kinded series
    outcomes: List[str] = []
    outcome_lock = make_lock("race.metrics.outcomes")

    def collide(kind: str) -> None:
        try:
            if kind == "counter":
                registry.counter("repro_race_kind")
            else:
                registry.gauge("repro_race_kind")
            verdict = "won:" + kind
        except ValueError:
            verdict = "raised:" + kind
        with outcome_lock:
            outcomes.append(verdict)

    pair = [make_thread(collide, name="race-kind-a", args=("counter",)),
            make_thread(collide, name="race-kind-b", args=("gauge",))]
    for thread in pair:
        thread.start()
    _join_all(pair, failures)
    raised = [o for o in outcomes if o.startswith("raised:")]
    if len(raised) != 1:
        failures.append("kind collision not detected exactly once: "
                        f"{sorted(outcomes)}")
    survivor = registry.series("repro_race_kind")
    if len(survivor) != 1:
        failures.append(f"kind collision left {len(survivor)} series")
    elif raised and raised[0] == "raised:counter" and isinstance(
            survivor[0], Counter):
        failures.append("gauge won the race but a Counter survived")
    return failures


def _scenario_sampler(rng: random.Random) -> List[str]:
    """Start/stop the telemetry sampler under jitter; no leaked thread."""
    from repro.obs.trace import Trace
    from repro.obs.sampler import RunSampler

    import threading

    failures: List[str] = []
    trace = Trace(name="racecheck-sampler")
    sampler = RunSampler(trace, interval_s=1e-3, stall_window_s=60.0)
    sampler.start()
    for i in range(5):
        with trace.span("race.work", i=i):
            time.sleep(rng.uniform(0.0, 1e-3))
    sampler.stop()
    sampler.stop()  # second stop must not raise or double-sample wildly
    leaked = [t.name for t in threading.enumerate()
              if t.name == "repro-obs-sampler" and t.is_alive()]
    if leaked:
        failures.append(f"sampler thread leaked after stop: {leaked}")
    samples = [e for e in trace.events if e.name == "obs.sample"]
    if len(samples) < 2:
        failures.append(f"only {len(samples)} samples recorded "
                        "(want the start and stop snapshots at least)")
    return failures


def _scenario_serve(rng: random.Random) -> List[str]:
    """Stop the metrics endpoint, then rebind the very same port.

    This is the leak check: an un-closed listening socket keeps the
    port in ``TIME_WAIT``/bound state and the second bind fails.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.serve import MetricsServer

    registry = MetricsRegistry()
    registry.counter("repro_race_serve_total").inc()
    try:
        first = MetricsServer(registry, port=0)
    except OSError:  # no loopback in this sandbox: nothing to check
        return []
    failures: List[str] = []
    port = first.port
    first.start()
    time.sleep(rng.uniform(0.0, 1e-3))
    first.stop()
    first.stop()  # idempotent
    try:
        second = MetricsServer(registry, port=port)
    except OSError as exc:
        return [f"port {port} not released after stop(): {exc}"]
    second.start()
    second.stop()
    return failures


def _scenario_store(rng: random.Random) -> List[str]:
    """Concurrent ``RunStore.publish`` keeps the index consistent."""
    from repro.obs.store import RunRecord, RunStore

    failures: List[str] = []
    workers = 4
    per_worker = 5
    with tempfile.TemporaryDirectory(prefix="repro-racecheck-") as root:
        store = RunStore(root=root)

        def publish(wid: int) -> None:
            for i in range(per_worker):
                store.publish(RunRecord(
                    run_id=f"race-{wid}-{i}", kind="race",
                    name="racecheck", started_at=float(i),
                    wall_seconds=0.0, outcome="ok"))

        threads = [make_thread(publish, name=f"race-store-{i}",
                               args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        _join_all(threads, failures)

        want = workers * per_worker
        rows = store.list()
        if len(rows) != want:
            failures.append(f"index lost rows: {len(rows)} != {want}")
        ids = {row.get("run_id") for row in rows}
        if len(ids) != len(rows):
            failures.append("index contains duplicate run ids")
        records = store.load_all()
        if len(records) != want:
            failures.append(f"records lost: {len(records)} != {want}")
    return failures


def _scenario_inversion(rng: random.Random) -> List[str]:
    """Deliberate lock-order inversion — the detector must fire.

    Acquires ``a`` then ``b``, later ``b`` then ``a``, sequentially on
    one thread: the order graph gains the cycle without any actual
    deadlock risk, so CI can assert the detection path (cycle plus
    both acquisition stacks) deterministically.
    """
    lock_a = make_lock("race.inversion.a")
    lock_b = make_lock("race.inversion.b")
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_a:
            pass
    return []


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("metrics", "registry hammer: no lost increments, "
                 "kind collisions still detected", _scenario_metrics),
        Scenario("sampler", "sampler start/stop leaves no thread "
                 "behind", _scenario_sampler),
        Scenario("serve", "endpoint shutdown releases its port for an "
                 "immediate rebind", _scenario_serve),
        Scenario("store", "concurrent publishes keep the run index "
                 "consistent", _scenario_store),
        Scenario("inversion", "intentional a->b / b->a inversion; the "
                 "lock-order detector must report the cycle",
                 _scenario_inversion, expect_violation=True),
    )
}

#: the ``all`` meta-target: every invariant scenario (the inversion
#: demo is opt-in — it intentionally pollutes the order graph)
ALL_TARGET = "all"


def _resolve(target: str) -> List[Scenario]:
    """Target spec → scenarios to run (raises ``ValueError`` if bad)."""
    if target == ALL_TARGET:
        return [s for s in SCENARIOS.values() if not s.expect_violation]
    if target in SCENARIOS:
        return [SCENARIOS[target]]
    if "." in target or ":" in target:
        return [_load_dotted(target)]
    raise ValueError(
        f"unknown race target {target!r}; expected one of "
        f"{', '.join(sorted(SCENARIOS))}, '{ALL_TARGET}', or a dotted "
        "path like 'pkg.mod:callable'")


def _load_dotted(target: str) -> Scenario:
    """``pkg.mod:fn`` / ``pkg.mod.fn`` → a wrapped user scenario."""
    if ":" in target:
        mod_name, _, attr = target.partition(":")
    else:
        mod_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"cannot load race target {target!r}: {exc}")
    if not callable(fn):
        raise ValueError(f"race target {target!r} is not callable")

    def run(rng: random.Random) -> List[str]:
        result = fn()
        if result is None:
            return []
        return [str(item) for item in result]

    return Scenario(target, f"user callable {target}", run)


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------

def run_racecheck(target: str,
                  runs: int = DEFAULT_RUNS,
                  seed: int = DEFAULT_SEED,
                  timeout_s: float = DEFAULT_TIMEOUT_S) -> RaceCheckResult:
    """Fuzz ``target`` across ``runs`` seeded schedules.

    Enables sync debugging for the duration (restoring the previous
    state afterwards), arms seeded preemption jitter at
    :data:`SITE_SYNC` before every run, tightens the interpreter
    switch interval, executes the scenario(s), and turns invariant
    failures / lock-order findings into ``RC...`` diagnostics.

    A ``faulthandler`` watchdog dumps all thread stacks to stderr if a
    run wedges for ``timeout_s`` — the dump is the diagnosis CI needs
    when a deadlock does slip through.
    """
    scenarios = _resolve(target)  # fail fast, before touching state
    report = LintReport(tool="race", subject=target)
    result = RaceCheckResult(target=target, runs=runs, seed=seed,
                             report=report)

    was_enabled = sync_state() is not None
    enable_sync_debug()
    state = sync_state()
    assert state is not None
    prev_interval = sys.getswitchinterval()
    watchdog = False
    try:
        if timeout_s > 0:
            try:
                faulthandler.dump_traceback_later(timeout_s,
                                                  exit=False)
                watchdog = True
            except (RuntimeError, OSError):  # no usable stderr
                watchdog = False
        state.reset()  # cumulative graph starts clean for the artifact
        for scenario in scenarios:
            _fuzz_scenario(scenario, state, report, runs, seed)
        result.acquisitions = int(
            sync_graph().get("acquisitions", 0))
        result.graph = sync_graph()
        report.add(info(
            "RC000",
            f"{len(scenarios)} scenario(s) x {runs} run(s), seeds "
            f"{seed}..{seed + runs - 1}, {result.acquisitions} traced "
            "acquisitions fuzzed"))
    finally:
        if watchdog:
            faulthandler.cancel_dump_traceback_later()
        state.set_jitter(None)
        sys.setswitchinterval(prev_interval)
        if not was_enabled:
            disable_sync_debug()
    return result


def _fuzz_scenario(scenario: Scenario, state: Any, report: LintReport,
                   runs: int, seed: int) -> None:
    reproduced = False
    for i in range(runs):
        run_seed = seed + i
        rng = random.Random(run_seed)
        where = f"{scenario.name} seed={run_seed}"
        injector = FaultInjector()
        for ordinal in rng.sample(range(1, JITTER_WINDOW + 1),
                                  JITTER_FAULTS):
            injector.arm(SITE_SYNC, ordinal,
                         payload=rng.uniform(0.0, JITTER_MAX_SLEEP_S))
        state.set_jitter(injector)
        known = len(sync_violations())
        sys.setswitchinterval(FUZZ_SWITCH_INTERVAL_S)
        try:
            failures = scenario.fn(rng)
        except Exception:
            report.add(error(
                "RC003",
                "scenario crashed: "
                + traceback.format_exc(limit=6).strip().replace(
                    "\n", " | "),
                where=where))
            failures = []
        finally:
            state.set_jitter(None)
        for failure in failures:
            report.add(error("RC001", failure, where=where,
                             hint="re-run with the printed seed to "
                             "reproduce the schedule"))
        fresh = sync_violations()[known:]
        for violation in fresh:
            if scenario.expect_violation:
                reproduced = True
                report.add(info(
                    "RC005",
                    "reproduced expected inversion: "
                    + " -> ".join(violation.cycle),
                    where=where,
                    hint=violation.render()))
            else:
                report.add(error(
                    "RC002",
                    "lock-order inversion: "
                    + " -> ".join(violation.cycle),
                    where=where,
                    hint=violation.render()))
    if scenario.expect_violation and not reproduced:
        report.add(error(
            "RC004",
            f"scenario {scenario.name!r} should produce a lock-order "
            "violation but the detector stayed silent — the runtime "
            "detection path has regressed",
            where=scenario.name))


def race_targets() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs for CLI help and docs."""
    pairs = [(s.name, s.doc) for s in SCENARIOS.values()]
    pairs.append((ALL_TARGET, "every invariant scenario above "
                  "(excludes the inversion demo)"))
    return pairs
