"""The run supervisor: one object carrying a run's resource contract.

``SysEco.rectify`` creates one :class:`RunSupervisor` per run and
threads it through every resource-bounded step.  It bundles

* a :class:`~repro.runtime.budget.RunBudget` (deadline + aggregate SAT
  conflict / BDD node caps),
* an :class:`~repro.runtime.escalate.EscalationPolicy` (adaptive
  per-call SAT budgets),
* a :class:`~repro.runtime.faultinject.FaultInjector` (deterministic
  failure testing),
* the run's :class:`~repro.runtime.counters.RunCounters`,
* the degradation flag the engine consults when a budget blows.

All state of a run lives here — engine instances stay stateless and
can serve concurrent ``rectify`` calls.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Set

from repro.errors import BddNodeLimitError, SatBudgetExceeded
from repro.obs.trace import ensure_trace
from repro.runtime.budget import RunBudget
from repro.sat.cnfcache import CnfCache
from repro.runtime.counters import RunCounters
from repro.runtime.escalate import MIN_INITIAL, EscalationPolicy
from repro.runtime.faultinject import (
    FAULT_EXHAUST,
    FAULT_UNKNOWN,
    FaultInjector,
    InjectedClock,
    SITE_BDD,
    SITE_SAT,
)
from repro.runtime.sync import make_rlock

logger = logging.getLogger("repro.runtime")


class RunSupervisor:
    """Supervises one rectification run end to end.

    Args:
        budget: the run-level budget contract.
        escalation: per-call SAT budget schedule.
        max_output_attempts: symbolic-search attempts allowed per
            failing output before the engine stops searching it and
            falls back (``None`` = unlimited).
        injector: fault injector consulted at every supervised site;
            ``None`` installs an inert one.
        trace: a :class:`~repro.obs.trace.Trace` receiving BDD-session
            and SAT-validation spans plus degradation events; ``None``
            installs the no-op trace.
    """

    def __init__(self, budget: RunBudget, escalation: EscalationPolicy,
                 max_output_attempts: Optional[int] = None,
                 injector: Optional[FaultInjector] = None,
                 trace=None):
        self.budget = budget
        self.escalation = escalation
        self.max_output_attempts = max_output_attempts
        self.injector = injector or FaultInjector()
        self.trace = ensure_trace(trace)
        self.counters = RunCounters()
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        #: outputs whose parallel partition repeatedly killed workers,
        #: mapped to the reason; the engine skips searching them and
        #: completes them via the fallback (port -> reason)
        self.quarantined: Dict[str, str] = {}
        #: run-wide CNF template cache (spec cones, miter encodings)
        self.cnf_cache = CnfCache(counters=self.counters)
        #: per-run scratch for counterexample-guided refinement
        self.cegar_cex: List[Dict[str, bool]] = []
        self._attempts: Dict[str, int] = {}
        self._capped: Set[str] = set()
        self._bdd_spans: List = []
        self._live_bdd: List = []
        # escalation counts absorbed from parallel workers; the local
        # escalation policy's totals are reported on top of these
        self._merged_escalations = 0
        self._merged_deescalations = 0
        # guards the degradation/quarantine/absorb state, which the
        # main loop and aggregator-driven paths can reach concurrently;
        # reentrant because absorb_worker may call mark_degraded
        self._state_lock = make_rlock("supervisor.state")

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
        initial = config.sat_budget_initial
        if initial is None:
            initial = max(MIN_INITIAL, config.sat_budget // 8)
        escalation = EscalationPolicy(
            initial=min(initial, config.sat_budget),
            factor=config.sat_escalation_factor,
            ceiling=config.sat_budget,
            max_attempts=config.sat_escalation_attempts,
            deescalate_after=config.sat_deescalate_after)
        return cls(budget, escalation,
                   max_output_attempts=config.max_output_attempts,
                   injector=injector, trace=trace)

    # ------------------------------------------------------------------
    # checkpoints and degradation
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Deadline check; called at every loop boundary of the engine."""
        self.budget.check_deadline()

    def node_hook(self, _count: int) -> None:
        """Periodic callback from :class:`~repro.bdd.manager.BddManager`:
        keeps deadline enforcement responsive inside heavy symbolic
        computation."""
        self.budget.check_deadline()

    def mark_degraded(self, reason: str) -> None:
        with self._state_lock:
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
        with self._state_lock:
            if port in self.quarantined:
                return
            self.quarantined[port] = reason
            self.counters.outputs_quarantined += 1
        self.trace.event("output.quarantined", port=port, reason=reason)
        logger.warning("output %s quarantined: %s", port, reason)

    # ------------------------------------------------------------------
    # per-output attempt cap
    # ------------------------------------------------------------------
    def note_attempt(self, port: str) -> bool:
        """Register one symbolic-search attempt for ``port``.

        Returns False once the per-output cap is hit — the engine then
        abandons the search for this output and uses the fallback.
        """
        n = self._attempts.get(port, 0) + 1
        self._attempts[port] = n
        if self.max_output_attempts is not None \
                and n > self.max_output_attempts:
            if port not in self._capped:
                self._capped.add(port)
                self.counters.attempts_capped += 1
            return False
        return True

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
        non-decreasing.  Called from the sampler thread — it only reads
        a snapshot of the list.
        """
        live = sum(m.num_nodes for m in tuple(self._live_bdd))
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

        Attempts the query with the escalation policy's budgets (small
        first, geometrically larger on ``UNKNOWN``), charging actual
        conflicts spent to the run budget.  Observes :data:`SITE_SAT`
        once per attempt: an armed ``"unknown"`` fault forces that
        attempt to UNKNOWN without solving, an ``"exhaust"`` fault
        raises :class:`SatBudgetExceeded`.
        """
        from repro.cec.equivalence import EquivalenceResult

        verdict = {True: "equivalent", False: "counterexample",
                   None: "unknown"}
        result = EquivalenceResult(None)
        resolved = False
        attempts = 0
        conflicts = 0
        with self.trace.span("sat.validate", port=port) as span:
            try:
                for requested in self.escalation.attempt_budgets():
                    attempts += 1
                    granted = self.budget.grant_sat(requested)
                    fault = self.injector.observe(SITE_SAT)
                    if fault is not None and fault.payload == FAULT_EXHAUST:
                        self.escalation.record(False)
                        raise SatBudgetExceeded(
                            "fault injection: total SAT conflict budget "
                            f"spent at call {self.injector.calls(SITE_SAT)}")
                    if fault is not None and fault.payload == FAULT_UNKNOWN:
                        result = EquivalenceResult(None)
                    else:
                        before = checker.solver.conflicts
                        result = checker.check_pair(
                            port, conflict_budget=granted)
                        spent = checker.solver.conflicts - before
                        self.budget.charge_sat(spent)
                        self.counters.sat_conflicts_spent += spent
                        conflicts += spent
                    if result.equivalent is not None:
                        resolved = True
                        break
                    self.counters.sat_unknowns += 1
                    self.trace.event("sat.unknown", port=port,
                                     budget=granted, attempt=attempts)
            finally:
                span.tag(attempts=attempts, conflicts=conflicts,
                         result=verdict[result.equivalent])
        self.escalation.record(resolved)
        self.counters.sat_escalations = (
            self._merged_escalations + self.escalation.escalations)
        self.counters.sat_deescalations = (
            self._merged_deescalations + self.escalation.deescalations)
        return result

    # ------------------------------------------------------------------
    # parallel workers
    # ------------------------------------------------------------------
    def partition_budget(self, jobs: int) -> Dict[str, Optional[float]]:
        """Budget share of one of ``jobs`` parallel workers.

        SAT conflicts and BDD nodes are split evenly with one extra
        share held back for the main process (commit replay, fallbacks),
        so the aggregate caps hold across workers by construction.
        Wall-clock time is concurrent, not divided: every worker gets
        the remaining deadline.
        """
        time_left = self.budget.time_left()
        sat_left = self.budget.sat_remaining()
        bdd_left = self.budget.bdd_remaining()
        shares = jobs + 1
        return {
            "deadline_s": time_left,
            "total_sat_budget":
                None if sat_left is None else max(1, sat_left // shares),
            "total_bdd_nodes":
                None if bdd_left is None else max(1, bdd_left // shares),
        }

    def partition_shares(self, jobs: int) -> tuple:
        """Exact budget partition across ``jobs`` workers + the main
        process.

        Returns ``(shares, reserve)`` where ``shares`` is one budget
        dict per worker (same keys as :meth:`partition_budget`) and
        ``reserve`` is the main process's share.  For each capped
        resource the worker shares plus the reserve sum *exactly* to
        the remaining budget — the division remainder goes to the
        reserve, so partitioning loses nothing and a retried task
        re-uses its partition's share instead of drawing a fresh one
        (no double-spend).  The one exception: every worker share has
        a floor of 1 (configs reject zero budgets), so a budget
        smaller than ``jobs + 1`` over-allocates and the reserve
        clamps to 0 — the workers' aggregate spend is still charged
        against the real budget when their telemetry is absorbed.
        """
        time_left = self.budget.time_left()
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
            "deadline_s": time_left,
            "total_sat_budget": sat_shares[i],
            "total_bdd_nodes": bdd_shares[i],
        } for i in range(jobs)]
        reserve = {
            "deadline_s": time_left,
            "total_sat_budget": sat_reserve,
            "total_bdd_nodes": bdd_reserve,
        }
        return shares, reserve

    def absorb_worker(self, counters: Dict[str, int],
                      degraded: bool = False,
                      degrade_reason: Optional[str] = None) -> None:
        """Merge one worker's telemetry into this run.

        Adds every counter that names a ``RunCounters`` field and skips
        any other name (escalation totals go through the merged
        base so later local assignments do not clobber them), charges
        the worker's actual SAT/BDD spend to the aggregate budget, and
        propagates degradation.  Serialized under the supervisor state
        lock: two worker results absorbed concurrently must not tear
        the counter read-modify-writes.
        """
        with self._state_lock:
            known = self.counters.as_dict()
            for name, value in counters.items():
                if name not in known or not value:
                    continue
                if name == "sat_escalations":
                    self._merged_escalations += value
                elif name == "sat_deescalations":
                    self._merged_deescalations += value
                else:
                    setattr(self.counters, name,
                            getattr(self.counters, name) + value)
            self.counters.sat_escalations = (
                self._merged_escalations + self.escalation.escalations)
            self.counters.sat_deescalations = (
                self._merged_deescalations + self.escalation.deescalations)
            self.budget.charge_sat(counters.get("sat_conflicts_spent", 0))
            self.budget.charge_bdd(counters.get("bdd_nodes_spent", 0))
            self.counters.parallel_workers += 1
            if degraded:
                self.mark_degraded(degrade_reason or "worker degraded")

    # ------------------------------------------------------------------
    def publish_gauges(self, registry) -> None:
        """Heartbeat → gauge: budget and health state for ``/metrics``.

        Called by the sampler on every tick (and safe to call ad hoc);
        each gauge reads one already-maintained field, so the cost is a
        few dict lookups per tick.
        """
        if registry is None:
            return
        registry.gauge("repro_budget_elapsed_seconds",
                       help="supervised wall time of the current run"
                       ).set(self.budget.elapsed())
        registry.gauge("repro_sat_conflicts_spent",
                       help="aggregate SAT conflicts charged to the "
                       "run budget").set(self.budget.sat_spent)
        registry.gauge("repro_bdd_nodes_spent",
                       help="aggregate BDD nodes charged to the run "
                       "budget").set(self.budget.bdd_spent)
        registry.gauge("repro_outputs_quarantined",
                       help="outputs quarantined after repeated worker "
                       "deaths").set(len(self.quarantined))
        # "_live" suffix: the trace exporter's end-of-run snapshot
        # already owns the repro_run_degraded family
        registry.gauge("repro_run_degraded_live",
                       help="1 once the run degraded to the guaranteed "
                       "fallback (live view)").set(1 if self.degraded
                                                   else 0)

    def summary(self) -> str:
        """One-line budget summary for end-of-run logging."""
        c = self.counters
        parts = [f"elapsed={self.budget.elapsed():.2f}s",
                 f"sat_conflicts={self.budget.sat_spent}",
                 f"bdd_nodes={c.bdd_nodes_spent}",
                 f"bdd_sessions={c.bdd_sessions}",
                 f"escalations={c.sat_escalations}",
                 f"fallbacks={c.fallbacks}"]
        if self.budget.total_sat_conflicts is not None:
            parts[1] += f"/{self.budget.total_sat_conflicts}"
        if self.budget.total_bdd_nodes is not None:
            parts[2] = (f"bdd_nodes={c.bdd_nodes_spent}"
                        f"/{self.budget.total_bdd_nodes}")
        if self.degraded:
            parts.append(f"DEGRADED({self.degrade_reason})")
        return " ".join(parts)
