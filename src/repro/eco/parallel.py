"""Parallel per-output rectification search (``EcoConfig.jobs``).

With ``jobs > 1`` the non-equivalent outputs are partitioned into
groups and each group is searched by a separate worker process running
the same :meth:`SysEco._repair_outputs` loop the sequential engine
uses.  Every worker gets

* a pickled snapshot of the work-in-progress circuit and the spec
  (derived caches are stripped on pickling and rebuilt lazily),
* the **full** failing list — validation must know every currently
  failing output, or candidates that also touch another group's
  failing outputs would be wrongly rejected as damaging a "passing"
  output — plus its own ``targets`` subset to drive,
* a share of the run budget: SAT conflicts and BDD nodes are divided
  ``remaining // (jobs + 1)`` (one share held back for the main
  process); the wall-clock deadline is concurrent, so each dispatch
  passes the time left at that moment whole.

Telemetry is results-only: workers return their commit logs, counters
and trace records, and the main process absorbs them into the run
supervisor and its trace (whose registry sees every absorbed span
once).  It then *replays* each commit against its own evolving
circuit under the supervised validator — two workers can commit
patches that conflict (e.g. both rewire the same shared gate), so a
worker's verdict is never trusted across process boundaries.  Commits
that fail replay are dropped; their outputs simply stay failing and
the sequential loop that follows the parallel phase repairs them with
the reserve budget.

The pool is *supervised*: each partition runs in its own single-worker
executor, because one dying process breaks every in-flight future of a
shared pool and innocent partitions would pay for it.  A death (a
broken pool, or no result by the run deadline plus
:data:`RESULT_GRACE_S`) is recorded as a ``worker.died`` event and the
partition is re-dispatched once, immediately (``task.retried``); a
second death *quarantines* it — its outputs skip the search and
complete via the fallback, and the run is reported degraded
(``output.quarantined``).  Dispatching needs time left before the run
deadline: without it a retry is quarantined too, and a first round
dispatches nothing, leaving every output to the sequential loop.  The
:data:`~repro.runtime.faultinject.SITE_WORKER` fault site is observed
in the main process at every dispatch, so the chaos harness can kill
any Nth task deterministically.

``REPRO_ECO_JOBS_INLINE=1`` forces workers to run in-process (same
code path minus the pool, including injected deaths and retries),
which keeps multi-worker merge behavior deterministic for tests.
"""

from __future__ import annotations

import logging
import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ResourceBudgetExceeded, WorkerDiedError
from repro.netlist.circuit import Circuit
from repro.obs.trace import Trace
from repro.runtime.faultinject import FAULT_KILL, SITE_WORKER
from repro.runtime.supervisor import RunSupervisor

logger = logging.getLogger("repro.eco")

#: seconds past the run deadline the main process waits for a worker's
#: result before declaring the worker dead
RESULT_GRACE_S = 5.0


class _PoolUnavailable(Exception):
    """Process pools cannot run here; fall back to sequential search."""


def safe_mp_context():
    """An *explicit* multiprocessing context for the pools (CC005).

    ``fork`` after threads exist is undefined behavior (the child
    inherits locked locks whose owners never ran).  A run has one
    thread, but a host program may start others; while the process is
    single-threaded the fast ``fork`` method is safe and is kept, and
    once any other thread is alive the pool falls back to ``spawn``.
    """
    import multiprocessing
    import threading

    available = multiprocessing.get_all_start_methods()
    if "fork" in available and threading.active_count() == 1:
        method = "fork"
    elif "spawn" in available:
        method = "spawn"
    else:  # exotic platforms: trust the configured default
        method = multiprocessing.get_start_method()
    return multiprocessing.get_context(method)


@dataclass
class WorkerResult:
    """Everything a search worker ships back to the main process."""

    targets: Tuple[str, ...]
    #: ``(port, how, ops)`` per commit, in commit order
    commits: List[Tuple[str, str, list]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    records: List[dict] = field(default_factory=list)
    degraded: bool = False
    degrade_reason: Optional[str] = None
    #: budget exception message when the worker aborted in strict mode
    error: Optional[str] = None


def _run_worker(payload) -> WorkerResult:
    """One worker: repair ``targets`` on a private copy of the run.

    Module-level so it pickles for :class:`ProcessPoolExecutor`; also
    called directly in inline mode.  ``payload`` is the 6-tuple built
    by :func:`_run_partitions`: both circuits, the worker config, the
    full failing list, the targets and the dispatcher's kill verdict.
    """
    import random

    from repro.eco.engine import SysEco
    from repro.eco.patch import Patch

    work, spec, config, failing, targets, kill = payload
    if kill:
        # the dispatcher observed an armed SITE_WORKER fault for this
        # task: die the way a real crashed worker would.  Inline mode
        # has no process to kill, so it raises the unified death
        # signal the supervisor maps real deaths onto.
        if os.environ.get("REPRO_ECO_JOBS_INLINE") == "1":
            raise WorkerDiedError(
                f"fault injection: worker for {','.join(targets)} killed")
        os._exit(3)
    # commits edit the circuit in place, and an inline worker holds the
    # main process's circuit itself
    work = work.copy()
    engine = SysEco(config)
    trace = Trace(name=f"worker:{','.join(targets)}")
    run = RunSupervisor.from_config(config, trace=trace)
    trace.set_counters(run.counters)
    rng = random.Random(config.seed)
    patch = Patch()
    per_output: Dict[str, str] = {}
    result = WorkerResult(targets=tuple(targets))
    try:
        with trace.span("eco.worker", targets=",".join(targets),
                        failing=len(failing)):
            engine._repair_outputs(work, spec, list(failing), patch,
                                   per_output, rng, run,
                                   targets=set(targets),
                                   commit_log=result.commits)
    except ResourceBudgetExceeded as exc:
        # strict mode: ship telemetry and partial commits back, the
        # main process re-raises after absorbing them
        result.error = str(exc)
    result.counters = run.counters.as_dict()
    result.records = trace.records()
    result.degraded = run.degraded
    result.degrade_reason = run.degrade_reason
    return result


def partition_targets(failing: Sequence[str],
                      jobs: int) -> List[List[str]]:
    """Deal the failing outputs round-robin into ``jobs`` groups.

    ``failing`` arrives cone-size ordered (small first), so the deal
    balances expected work; empty groups are dropped.
    """
    groups: List[List[str]] = [[] for _ in range(jobs)]
    for i, port in enumerate(failing):
        groups[i % jobs].append(port)
    return [g for g in groups if g]


def _ops_applicable(work: Circuit, spec: Circuit, ops) -> bool:
    """All pins and sources of the ops exist in the replay circuits.

    A commit whose sources were cloned by an *earlier* worker commit
    that failed replay references nets the main circuit never grew;
    such commits cannot be replayed and are dropped.
    """
    for op in ops:
        if op.from_spec:
            if not (spec.has_net(op.source_net)
                    or op.source_net in spec.inputs):
                return False
        elif not work.has_net(op.source_net):
            return False
        if op.pin.is_output_port:
            if op.pin.owner not in work.outputs:
                return False
        elif op.pin.owner not in work.gates:
            return False
    return True


def _result_timeout(run: RunSupervisor) -> Optional[float]:
    """How long to wait for one worker's result, from the run budget.

    A worker that has not answered by the run deadline plus
    :data:`RESULT_GRACE_S` is presumed dead (hung child, lost pipe);
    ``None`` when the run has no deadline — the pool then waits, like
    the engine would.
    """
    left = run.budget.time_left()
    if left is None:
        return None
    return max(0.0, left) + RESULT_GRACE_S


def _dispatch_pool(payloads: Dict[int, tuple], run: RunSupervisor,
                   ) -> Tuple[Dict[int, WorkerResult], Dict[int, str]]:
    """Run one round of partitions in real processes.

    One single-worker executor per partition, so one worker's death
    breaks only its own future — innocent partitions keep their
    results.  Returns ``(outcomes, deaths)`` keyed by partition index;
    a partition appears in exactly one of the two.
    """
    import concurrent.futures as cf
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    outcomes: Dict[int, WorkerResult] = {}
    deaths: Dict[int, str] = {}
    executors: Dict[int, ProcessPoolExecutor] = {}
    futures: Dict[int, cf.Future] = {}
    try:
        try:
            mp_context = safe_mp_context()
            for i, payload in payloads.items():
                executors[i] = ProcessPoolExecutor(
                    max_workers=1, mp_context=mp_context)
                futures[i] = executors[i].submit(_run_worker, payload)
        except (OSError, ImportError) as exc:
            raise _PoolUnavailable(str(exc)) from exc
        for i, future in futures.items():
            try:
                outcomes[i] = future.result(timeout=_result_timeout(run))
            except BrokenProcessPool as exc:
                deaths[i] = f"worker process died: {exc or 'broken pool'}"
            except cf.TimeoutError:
                future.cancel()
                deaths[i] = "no result by the run deadline"
            except pickle.PicklingError as exc:
                raise _PoolUnavailable(str(exc)) from exc
            except OSError as exc:
                deaths[i] = f"worker I/O failure: {exc}"
    finally:
        # join every executor whose future finished: a management or
        # queue-feeder thread left running would make the next
        # safe_mp_context() pick spawn.  A worker still running after
        # its wait timed out is not waited for.
        for i, executor in executors.items():
            future = futures.get(i)
            executor.shutdown(wait=future is not None and future.done(),
                              cancel_futures=True)
    return outcomes, deaths


def _run_partitions(payloads: List[tuple], run: RunSupervisor,
                    inline: bool) -> List[Optional[WorkerResult]]:
    """Supervised execution of every partition, with retry/quarantine.

    ``payloads[i]`` is ``(work, spec, config, failing, targets)``; each
    dispatch sets the config's deadline to the time left and appends
    the kill verdict.  Returns one :class:`WorkerResult` per payload,
    or ``None`` where a partition returned nothing: it was quarantined,
    or the deadline passed before its first dispatch.  Raises
    :class:`_PoolUnavailable` when process pools cannot run at all.
    """
    results: List[Optional[WorkerResult]] = [None] * len(payloads)
    deaths_of = [0] * len(payloads)
    pending = list(range(len(payloads)))
    while pending:
        left = run.budget.time_left()
        if left is not None and left <= 0:
            # a worker config cannot carry a spent deadline: first
            # dispatches fall through to the caller's sequential loop,
            # which degrades them, and retries are refused
            for i in pending:
                if deaths_of[i]:
                    for port in payloads[i][4]:
                        run.quarantine(port, "retry refused: the run "
                                       "deadline passed")
            break
        dispatch: Dict[int, tuple] = {}
        for i in pending:
            work, spec, config, failing, targets = payloads[i]
            if deaths_of[i]:
                run.counters.tasks_retried += 1
                run.trace.event("task.retried", targets=",".join(targets),
                                attempt=deaths_of[i])
            # observe the fault site at dispatch time, in the main
            # process (the injector's counters cannot cross a process
            # boundary); the verdict rides into the worker payload
            fault = run.injector.observe(SITE_WORKER)
            kill = fault is not None and fault.payload == FAULT_KILL
            dispatch[i] = (work, spec, replace(config, deadline_s=left),
                           failing, targets, kill)
        deaths: Dict[int, str] = {}
        if inline:
            outcomes: Dict[int, WorkerResult] = {}
            for i, payload in dispatch.items():
                try:
                    outcomes[i] = _run_worker(payload)
                except WorkerDiedError as exc:
                    deaths[i] = str(exc)
        else:
            outcomes, deaths = _dispatch_pool(dispatch, run)
        pending = []
        for i in dispatch:
            if i not in deaths:
                results[i] = outcomes[i]
                continue
            deaths_of[i] += 1
            targets = payloads[i][4]
            run.counters.worker_deaths += 1
            run.trace.event("worker.died", targets=",".join(targets),
                            deaths=deaths_of[i], cause=deaths[i])
            logger.warning("worker for %s died (%d): %s",
                           ",".join(targets), deaths_of[i], deaths[i])
            if deaths_of[i] == 1:
                pending.append(i)
            else:
                for port in targets:
                    run.quarantine(port, "worker died twice")
    return results


def _verify_worker(payload):
    """Prove one output group of the final verification miter."""
    from repro.cec.equivalence import check_equivalence

    work, spec, group = payload
    return check_equivalence(work, spec, outputs=group)


def parallel_verify(work: Circuit, spec: Circuit, jobs: int):
    """Final full verification, fanned across output groups.

    Unlike search commits, verification verdicts need no replay: each
    worker proves its own output pairs on the same frozen circuits, so
    the conjunction of the group results *is* the whole-miter result.
    Returns the first failing group's result (counterexample included),
    ``EquivalenceResult(None)`` when any group went over budget, or
    ``EquivalenceResult(True)``.
    """
    from repro.cec.equivalence import EquivalenceResult, check_equivalence

    outputs = [p for p in work.outputs if p in spec.outputs]
    jobs = min(jobs, len(outputs))
    if jobs < 2:
        return check_equivalence(work, spec)
    groups = partition_targets(outputs, jobs)
    payloads = [(work, spec, group) for group in groups]
    if os.environ.get("REPRO_ECO_JOBS_INLINE") == "1":
        results = [_verify_worker(p) for p in payloads]
    else:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                    max_workers=len(groups),
                    mp_context=safe_mp_context()) as pool:
                results = list(pool.map(_verify_worker, payloads))
        except (OSError, pickle.PicklingError, ImportError) as exc:
            logger.warning("parallel verification unavailable (%s); "
                           "verifying sequentially", exc)
            return check_equivalence(work, spec)
    unknown = False
    for result in results:
        if result.equivalent is False:
            return result
        if result.equivalent is None:
            unknown = True
    return EquivalenceResult(None if unknown else True)


def parallel_repair(engine, work: Circuit, spec: Circuit,
                    failing: List[str], patch, per_output: Dict[str, str],
                    run: RunSupervisor, journal=None, rng=None,
                    ) -> List[str]:
    """Fan the failing outputs across supervised workers and merge.

    Commits the replayed worker commits to ``work`` in place and
    returns the outputs still failing (replay conflicts, worker misses,
    quarantined partitions and partitions the deadline left
    undispatched fall through to the caller's sequential loop).  In
    strict mode, raises :class:`ResourceBudgetExceeded` when a worker
    aborted (after absorbing all telemetry) or the budget runs out
    during the merge; otherwise the latter degrades the run and ends
    the merge, and the commits made so far stand.  Commits that survive
    replay are journaled when a checkpoint ``journal`` is given.
    """
    from repro.eco.validate import validate_rewire

    config = engine.config
    jobs = min(config.jobs, len(failing))
    groups = partition_targets(failing, jobs)
    shares, _reserve = run.partition_shares(len(groups))
    payloads = []
    for group, share in zip(groups, shares):
        worker_config = replace(config, jobs=1, resume_from=None, **share)
        payloads.append((work, spec, worker_config, list(failing), group))
    inline = os.environ.get("REPRO_ECO_JOBS_INLINE") == "1"
    try:
        supervised = _run_partitions(payloads, run, inline)
    except _PoolUnavailable as exc:
        # no process pool available (restricted environments):
        # leave everything to the caller's sequential loop
        logger.warning("parallel search unavailable (%s); "
                       "falling back to sequential", exc)
        run.trace.event("eco.parallel_fallback", reason=str(exc))
        return failing
    results = [r for r in supervised if r is not None]

    strict_error: Optional[str] = None
    for result in results:
        run.absorb_worker(result.counters, degraded=result.degraded,
                          degrade_reason=result.degrade_reason)
        run.trace.absorb(result.records)
        if result.error is not None and strict_error is None:
            strict_error = result.error
    if strict_error is not None and not config.degrade_on_budget:
        raise ResourceBudgetExceeded(
            f"parallel worker aborted: {strict_error}")

    # replay every worker commit against the main circuit, re-validated
    # under the supervised solver: worker verdicts were computed against
    # a snapshot and may conflict with another group's commits
    failing_now = list(failing)
    replayed = rejected = 0
    commits = [c for result in results for c in result.commits]
    try:
        for port, how, ops in commits:
            run.checkpoint()
            if not _ops_applicable(work, spec, ops):
                rejected += 1
                run.trace.event("eco.replay_skip", output=port)
                continue
            outcome = validate_rewire(work, spec, ops, failing_now, run=run)
            if not outcome.valid:
                rejected += 1
                run.trace.event("eco.replay_reject", output=port,
                                ops=len(ops))
                continue
            if journal is not None:
                journal.record_commit(
                    port, how, ops, outcome.fixed,
                    rng_state=rng.getstate() if rng is not None else None,
                    sat_spent=run.budget.sat_spent,
                    bdd_spent=run.budget.bdd_spent)
            failing_now = engine._commit(work, spec, port, how, ops,
                                         outcome.fixed, patch, per_output,
                                         failing_now)
            replayed += 1
    except ResourceBudgetExceeded as exc:
        if not config.degrade_on_budget:
            raise
        # ``work`` already holds the commits replayed so far; the
        # caller's loop force-completes only what is still failing
        run.mark_degraded(str(exc))
    run.trace.event("eco.parallel_merged", workers=len(results),
                    replayed=replayed, rejected=rejected,
                    remaining=len(failing_now))
    logger.info("parallel phase: %d workers, %d commits replayed, "
                "%d rejected, %d outputs remaining",
                len(results), replayed, rejected, len(failing_now))
    return failing_now
