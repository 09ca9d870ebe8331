"""The run supervisor: one object carrying a run's resource contract.

``SysEco.rectify`` creates one :class:`RunSupervisor` per run and
threads it through every resource-bounded step.  It bundles

* a :class:`~repro.runtime.budget.RunBudget` (deadline + aggregate SAT
  conflict / BDD node caps),
* one budgeted solve per SAT query, granted :data:`SAT_QUERY_BUDGET`
  conflicts capped by what is left of the aggregate budget,
* a :class:`~repro.runtime.faultinject.FaultInjector` (deterministic
  failure testing),
* the run's :class:`~repro.runtime.counters.RunCounters`,
* the degradation flag the engine consults when a budget blows,
* the run's telemetry sampler, ticked at every checkpoint.

All state of a run lives here — engine instances stay stateless and
can serve concurrent ``rectify`` calls.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

from repro.errors import BddNodeLimitError, SatBudgetExceeded
from repro.obs.trace import ensure_trace
from repro.runtime.budget import RunBudget
from repro.runtime.counters import RunCounters
from repro.runtime.faultinject import (
    FAULT_EXHAUST,
    FAULT_UNKNOWN,
    FaultInjector,
    InjectedClock,
    SITE_BDD,
    SITE_SAT,
)

logger = logging.getLogger("repro.runtime")

#: conflict budget of one supervised SAT query (the paper's
#: 'resource-constrained SAT solver'), further capped by what is left
#: of the run's aggregate budget
SAT_QUERY_BUDGET = 50_000


class RunSupervisor:
    """Supervises one rectification run end to end.

    Args:
        budget: the run-level budget contract.
        injector: fault injector consulted at every supervised site;
            ``None`` installs an inert one.
        trace: a :class:`~repro.obs.trace.Trace` receiving BDD-session
            and SAT-validation spans plus degradation events; ``None``
            installs the no-op trace.
    """

    def __init__(self, budget: RunBudget,
                 injector: Optional[FaultInjector] = None,
                 trace=None):
        self.budget = budget
        self.injector = injector or FaultInjector()
        self.trace = ensure_trace(trace)
        self.counters = RunCounters()
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        #: outputs whose parallel partition repeatedly killed workers,
        #: mapped to the reason; the engine skips searching them and
        #: completes them via the fallback (port -> reason)
        self.quarantined: Dict[str, str] = {}
        self._bdd_spans: List = []
        self._live_bdd: List = []
        #: the run's :class:`~repro.obs.sampler.RunSampler` (traced
        #: runs only); every checkpoint and node hook ticks it
        self.sampler = None

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config, injector: Optional[FaultInjector] = None,
                    clock=None, trace=None) -> "RunSupervisor":
        """Build a supervisor from an ``EcoConfig``-shaped object.

        When an injector is given the wall clock is routed through it so
        armed clock jumps are visible to deadline checks.
        """
        if injector is not None:
            clock = InjectedClock(clock, injector)
        budget = RunBudget(
            deadline_s=config.deadline_s,
            total_sat_conflicts=config.total_sat_budget,
            total_bdd_nodes=config.total_bdd_nodes,
            clock=clock)
        return cls(budget, injector=injector, trace=trace)

    # ------------------------------------------------------------------
    # checkpoints and degradation
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Deadline check; called at every loop boundary of the engine.

        Also ticks the telemetry sampler, which snapshots the run when
        its interval has passed.
        """
        if self.sampler is not None:
            self.sampler.tick()
        self.budget.check_deadline()

    def node_hook(self, _count: int) -> None:
        """Periodic callback from :class:`~repro.bdd.manager.BddManager`:
        keeps deadline enforcement and sampling responsive inside heavy
        symbolic computation."""
        self.checkpoint()

    def mark_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degrade_reason = reason
        self.trace.event("run.degraded", reason=reason)
        logger.warning("run degraded: %s", reason)

    def quarantine(self, port: str, reason: str) -> None:
        """Stop searching ``port``: its partition keeps killing workers.

        Unlike :meth:`mark_degraded` this is scoped to one output — the
        rest of the run proceeds at full strength, and the quarantined
        output is completed via the Sec. 3.3 fallback.  The result is
        still reported degraded (a fallback forced by infrastructure
        failure, not by the search).
        """
        if port in self.quarantined:
            return
        self.quarantined[port] = reason
        self.counters.outputs_quarantined += 1
        self.trace.event("output.quarantined", port=port, reason=reason)
        logger.warning("output %s quarantined: %s", port, reason)

    # ------------------------------------------------------------------
    # BDD sessions
    # ------------------------------------------------------------------
    def open_bdd(self, configured_limit: Optional[int]) -> Optional[int]:
        """Node limit for a new BDD session, under the aggregate cap.

        Observes the :data:`SITE_BDD` fault site; an armed fault raises
        :class:`BddNodeLimitError` as an immediate session blowup.
        """
        fault = self.injector.observe(SITE_BDD)
        if fault is not None:
            raise BddNodeLimitError(
                "fault injection: BDD node limit hit at session "
                f"{self.injector.calls(SITE_BDD)}")
        limit = self.budget.grant_bdd(configured_limit)
        self.counters.bdd_sessions += 1
        # the session span stays open until close_bdd; symbolic work
        # performed inside the session nests under it in the trace
        self._bdd_spans.append(
            self.trace.span("bdd.session", limit=limit))
        return limit

    def adopt_bdd(self, manager) -> None:
        """Register a live session manager so the telemetry sampler can
        observe node growth *while* the session runs."""
        self._live_bdd.append(manager)

    def live_bdd_stats(self) -> Dict[str, int]:
        """Cumulative BDD telemetry including live sessions.

        ``bdd_nodes`` = nodes charged by finished sessions plus the
        current node count of every open manager; node stores never
        shrink and close_bdd moves a session's count into
        ``bdd_nodes_spent``, so the sampled series is monotonically
        non-decreasing.
        """
        live = sum(m.num_nodes for m in self._live_bdd)
        return {
            "bdd_nodes": self.counters.bdd_nodes_spent + live,
            "bdd_sessions": self.counters.bdd_sessions,
        }

    def close_bdd(self, manager) -> None:
        """Charge a finished session's node count to the run budget."""
        nodes = manager.num_nodes
        self.budget.charge_bdd(nodes)
        self.counters.bdd_nodes_spent += nodes
        try:
            self._live_bdd.remove(manager)
        except ValueError:
            pass
        if self._bdd_spans:
            span = self._bdd_spans.pop()
            stats = getattr(manager, "stats", None)
            if stats is not None:
                span.tag(**stats())
            else:
                span.tag(nodes=nodes)
            span.finish()

    # ------------------------------------------------------------------
    # supervised SAT validation
    # ------------------------------------------------------------------
    def check_pair_supervised(self, checker, port: str):
        """One output-pair equivalence query under run supervision.

        Makes one solve, granted :data:`SAT_QUERY_BUDGET` capped by the
        run's remaining SAT budget, and charges the conflicts it spent.
        Observes :data:`SITE_SAT` once per query: an armed ``"unknown"``
        fault makes the query UNKNOWN without solving, an ``"exhaust"``
        fault raises :class:`SatBudgetExceeded`.
        """
        from repro.cec.equivalence import EquivalenceResult

        verdict = {True: "equivalent", False: "counterexample",
                   None: "unknown"}
        result = EquivalenceResult(None)
        conflicts = 0
        with self.trace.span("sat.validate", port=port) as span:
            try:
                granted = self.budget.grant_sat(SAT_QUERY_BUDGET)
                fault = self.injector.observe(SITE_SAT)
                if fault is not None and fault.payload == FAULT_EXHAUST:
                    raise SatBudgetExceeded(
                        "fault injection: total SAT conflict budget "
                        f"spent at call {self.injector.calls(SITE_SAT)}")
                if fault is None or fault.payload != FAULT_UNKNOWN:
                    before = checker.solver.conflicts
                    result = checker.check_pair(
                        port, conflict_budget=granted)
                    conflicts = checker.solver.conflicts - before
                    self.budget.charge_sat(conflicts)
                    self.counters.sat_conflicts_spent += conflicts
                if result.equivalent is None:
                    self.counters.sat_unknowns += 1
                    self.trace.event("sat.unknown", port=port,
                                     budget=granted)
            finally:
                span.tag(conflicts=conflicts,
                         result=verdict[result.equivalent])
        return result

    # ------------------------------------------------------------------
    # parallel workers
    # ------------------------------------------------------------------
    def partition_shares(self, jobs: int) -> tuple:
        """Exact budget partition across ``jobs`` workers + the main
        process.

        Returns ``(shares, reserve)`` where ``shares`` is one budget
        dict per worker (``total_sat_budget`` and ``total_bdd_nodes``,
        ``None`` when unlimited) and ``reserve`` is the main process's
        share.  SAT conflicts and BDD nodes are split evenly with one
        extra share held back for the main process (commit replay,
        fallbacks).  For each capped resource the worker shares plus
        the reserve sum *exactly* to the remaining budget — the
        division remainder goes to the reserve, so partitioning loses
        nothing and a retried task re-uses its partition's share
        instead of drawing a fresh one (no double-spend).  The one
        exception: every worker share has a floor of 1 (configs reject
        zero budgets), so a budget smaller than ``jobs + 1``
        over-allocates and the reserve clamps to 0 — the workers'
        aggregate spend is still charged against the real budget when
        their telemetry is absorbed.  Wall-clock time is concurrent,
        not divided: the dispatcher hands every worker the time left
        when it starts.
        """
        sat_left = self.budget.sat_remaining()
        bdd_left = self.budget.bdd_remaining()

        def split(total):
            if total is None:
                return [None] * jobs, None
            per = max(1, total // (jobs + 1))
            worker_shares = [per] * jobs
            return worker_shares, max(0, total - per * jobs)

        sat_shares, sat_reserve = split(sat_left)
        bdd_shares, bdd_reserve = split(bdd_left)
        shares = [{
            "total_sat_budget": sat_shares[i],
            "total_bdd_nodes": bdd_shares[i],
        } for i in range(jobs)]
        reserve = {
            "total_sat_budget": sat_reserve,
            "total_bdd_nodes": bdd_reserve,
        }
        return shares, reserve

    def absorb_worker(self, counters: Dict[str, int],
                      degraded: bool = False,
                      degrade_reason: Optional[str] = None) -> None:
        """Merge one worker's telemetry into this run.

        Adds every counter that names a ``RunCounters`` field and skips
        any other name, charges the worker's actual SAT/BDD spend to
        the aggregate budget, and propagates degradation.
        """
        known = self.counters.as_dict()
        for name, value in counters.items():
            if name in known and value:
                setattr(self.counters, name,
                        getattr(self.counters, name) + value)
        self.budget.charge_sat(counters.get("sat_conflicts_spent", 0))
        self.budget.charge_bdd(counters.get("bdd_nodes_spent", 0))
        self.counters.parallel_workers += 1
        if degraded:
            self.mark_degraded(degrade_reason or "worker degraded")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line budget summary for end-of-run logging."""
        c = self.counters
        parts = [f"elapsed={self.budget.elapsed():.2f}s",
                 f"sat_conflicts={self.budget.sat_spent}",
                 f"bdd_nodes={c.bdd_nodes_spent}",
                 f"bdd_sessions={c.bdd_sessions}",
                 f"fallbacks={c.fallbacks}"]
        if self.budget.total_sat_conflicts is not None:
            parts[1] += f"/{self.budget.total_sat_conflicts}"
        if self.budget.total_bdd_nodes is not None:
            parts[2] = (f"bdd_nodes={c.bdd_nodes_spent}"
                        f"/{self.budget.total_bdd_nodes}")
        if self.degraded:
            parts.append(f"DEGRADED({self.degrade_reason})")
        return " ".join(parts)
