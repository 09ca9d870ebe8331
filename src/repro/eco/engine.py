"""The syseco rectification engine: overall flow of Section 5.2.

``RewireRectification`` iterates over the non-equivalent output pairs
of the current implementation ``C`` and revised specification ``C'``
(smallest cones first) and, per output:

1. builds an error-biased symbolic sampling domain;
2. enumerates feasible rectification point-sets via ``H(t)``;
3. ranks candidate rewiring nets per point (structural filter +
   rectification utility);
4. checks ``Xi(c)`` on the sample words for valid rewiring choices,
   cheapest first;
5. validates each choice on the full domain with a resource-constrained
   SAT solver, favoring choices that fix the most outputs and rejecting
   any that damage an already-correct output.

A guaranteed fallback (rewiring the output port itself to a clone of
the revised function — the completeness argument of Section 3.3)
handles outputs the search cannot fix within budget; it is valid by
construction (Proposition 1), so it makes no solve.  Each proven rewire
is applied once, in place, on the run's private copy of the
implementation (:meth:`SysEco._commit`).  Afterwards the patch inputs
are refined by sweeping against existing logic, and final verification
proves the whole circuit.

Every resource-bounded step runs under a per-run
:class:`~repro.runtime.supervisor.RunSupervisor`: a wall-clock deadline
and an aggregate SAT conflict budget, one budgeted solve per SAT query,
a node cap per BDD session, and —
unless strict mode is configured — *graceful degradation*: when a
run-level budget blows mid-search, the partial patch is kept and every
remaining failing output is force-completed via the Section 3.3
fallback, yielding a fully verified but ``degraded`` result instead of
an exception.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    BddNodeLimitError,
    EcoError,
    JournalError,
    ReproError,
    ResourceBudgetExceeded,
)
from repro.bdd.manager import BddManager
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import (
    input_support,
    levelize,
    nets_within_support,
    transitive_fanin,
)
from repro.cec.equivalence import (
    PairwiseChecker,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.eco.choices import (
    enumerate_rewiring_choices,
    make_clone_aware_cost,
)
from repro.eco.config import EcoConfig
from repro.eco.incremental import IncrementalValidator
from repro.eco.patch import Patch, RectificationResult, RewireOp
from repro.eco.points import feasible_point_sets
from repro.eco.rewiring import RewireCandidate, RewiringContext
from repro.eco.samples import collect_error_samples
from repro.eco.sampling import SamplingDomain
from repro.eco.sweep import refine_patch_inputs
from repro.eco.validate import (
    SimulationFilter,
    apply_rewires,
    assert_patch_structure,
    clones_needed,
    validate_rewire,
)
from repro.obs.trace import Trace, ensure_trace
from repro.runtime.clock import now
from repro.runtime.faultinject import FaultInjector
from repro.runtime.supervisor import RunSupervisor


logger = logging.getLogger("repro.eco")

#: cap ``M`` on the sink pins ranked as rectification points per
#: failing output; a BDD blowup halves it, down to 4
MAX_CANDIDATE_PINS = 20
#: node cap of each sampling-domain BDD session
BDD_NODE_LIMIT = 400_000


class SysEco:
    """Rewire-based ECO rectification engine.

    One engine instance carries a configuration and can rectify many
    designs; all state of a run lives in its
    :class:`~repro.runtime.supervisor.RunSupervisor`, so one engine can
    serve concurrent ``rectify`` calls.
    """

    def __init__(self, config: Optional[EcoConfig] = None):
        self.config = config or EcoConfig()

    # ------------------------------------------------------------------
    def rectify(self, impl: Circuit, spec: Circuit,
                injector: Optional[FaultInjector] = None,
                trace: Optional[Trace] = None,
                journal=None) -> RectificationResult:
        """Rectify ``impl`` to match ``spec``; returns the result record.

        Both circuits must share primary-input and output-port names.
        Raises :class:`EcoError` when the final verification cannot
        prove full equivalence.  When a run-level budget (deadline,
        aggregate SAT conflicts) is exhausted the run degrades
        gracefully — remaining failing outputs are
        force-completed via the guaranteed fallback and the result is
        marked ``degraded`` — unless ``config.degrade_on_budget`` is
        False, in which case :class:`ResourceBudgetExceeded` propagates.

        ``injector`` arms deterministic faults at the supervised call
        sites (tests of the degradation paths use this).  ``trace``
        receives the run's phase spans (see :mod:`repro.obs`); the
        finished trace is attached to the result.  ``journal`` (a
        :class:`~repro.eco.checkpoint.RunJournal`) makes the run
        durable: every commit is journaled write-ahead, and a journal
        opened for resume replays a dead run's commits before the
        search continues — see :mod:`repro.eco.checkpoint`.
        """
        started = now()
        trace = ensure_trace(trace)
        self._check_interfaces(impl, spec)
        config = self.config
        rng = random.Random(config.seed)
        run = RunSupervisor.from_config(config, injector=injector,
                                        trace=trace)
        trace.set_counters(run.counters)

        with trace.span("eco.rectify", impl=impl.name,
                        outputs=len(impl.outputs)):
            result = self._rectify_run(impl, spec, rng, run, started,
                                       journal=journal)
        trace.meta.update(
            impl=impl.name,
            counters=run.counters.as_dict(),
            degraded=result.degraded,
            degrade_reason=result.degrade_reason,
            wall_seconds=result.runtime_seconds,
            # the budget clock observes injected clock faults, so the
            # supervised elapsed time is the one regression checks trust
            supervised_elapsed_s=run.budget.elapsed(),
            # the budget's final spend: on a resumed run it includes the
            # dead run's journaled spend, which run.counters does not
            budget_sat_spent=run.budget.sat_spent,
        )
        if trace.enabled:
            result.trace = trace
        return result

    def _rectify_run(self, impl: Circuit, spec: Circuit,
                     rng: random.Random, run: RunSupervisor,
                     started: float, journal=None) -> RectificationResult:
        config = self.config
        trace = run.trace
        work = impl.copy()
        patch = Patch()
        per_output: Dict[str, str] = {}

        # the run's one equivalence context: diagnosis, patch-input
        # refinement and final verification share its encoding and sweep
        context = PairwiseChecker(work, spec)
        with trace.span("eco.diagnose") as dsp:
            failing = nonequivalent_outputs(work, spec, context=context)
            failing = self._order_by_cone(work, failing)
            dsp.tag(failing=len(failing))
        logger.info("rectifying %s: %d of %d outputs non-equivalent",
                    impl.name, len(failing), len(impl.outputs))

        if journal is not None:
            journal.bind(run.injector, trace)
            if journal.resuming:
                journal.check_resumable(impl.name, config, failing)
                with trace.span("eco.resume",
                                commits=len(journal.commits)) as rsp:
                    failing = self._replay_journal(
                        work, spec, failing, patch, per_output, rng,
                        run, journal)
                    rsp.tag(remaining=len(failing))
            else:
                journal.start(impl.name, config, failing)

        if config.jobs > 1 and len(failing) > 1:
            from repro.eco.parallel import parallel_repair
            with trace.span("eco.parallel", jobs=config.jobs,
                            failing=len(failing)) as psp:
                # degrades the run itself when the budget runs out
                failing = parallel_repair(self, work, spec, failing, patch,
                                          per_output, run, journal=journal,
                                          rng=rng)
                psp.tag(remaining=len(failing))
            failing = self._order_by_cone(work, failing)

        self._repair_outputs(work, spec, failing, patch, per_output, rng,
                             run, journal=journal)

        with trace.span("eco.refine") as fsp:
            solves = context.solves
            refine_patch_inputs(work, patch.cloned_gates,
                                seed=self.config.seed, context=context)
            fsp.tag(solves=context.solves - solves)
        if self.config.resynthesis:
            from repro.eco.resynth import resubstitute_patch
            with trace.span("eco.resynth") as rsp:
                resubs, patch_gates = resubstitute_patch(
                    work, patch.cloned_gates, seed=self.config.seed)
                rsp.tag(resubstitutions=resubs)
            patch.cloned_gates = patch_gates
            run.counters.resubstitutions = resubs

        with trace.span("cec.verify_final") as vsp:
            encoded, swept = context.encoded, len(context.seen)
            if config.jobs > 1:
                from repro.eco.parallel import parallel_verify
                verification = parallel_verify(work, spec, config.jobs)
            else:
                verification = check_equivalence(work, spec,
                                                 context=context)
            vsp.tag(equivalent=verification.equivalent,
                    encoded=context.encoded - encoded,
                    swept=len(context.seen) - swept)
        if verification.equivalent is not True:
            raise EcoError(
                "final verification failed; counterexample: "
                f"{verification.counterexample}")
        logger.info("run summary: %s", run.summary())
        # a quarantined output forced a fallback for infrastructure
        # reasons; the result is degraded even when no budget blew
        degraded = run.degraded or bool(run.quarantined)
        degrade_reason = run.degrade_reason
        if degrade_reason is None and run.quarantined:
            degrade_reason = "quarantined: " + ", ".join(
                sorted(run.quarantined))
        if journal is not None:
            journal.finish("degraded" if degraded else "ok")
        return RectificationResult(
            patched=work,
            patch=patch,
            verified_outputs=tuple(sorted(work.outputs)),
            runtime_seconds=now() - started,
            per_output=per_output,
            counters=run.counters,
            degraded=degraded,
            degrade_reason=degrade_reason,
        )

    # ------------------------------------------------------------------
    def _replay_journal(self, work: Circuit, spec: Circuit,
                        failing: List[str], patch: Patch,
                        per_output: Dict[str, str], rng: random.Random,
                        run: RunSupervisor, journal) -> List[str]:
        """Re-prove and re-apply a dead run's journaled commits.

        A journal is never trusted blindly: each commit's op set is
        re-validated under the supervised validator before it is
        committed (a commit that no longer validates means the inputs
        changed — :class:`JournalError`).  After the last commit the
        engine RNG is restored to the journaled stream position and the
        journaled cumulative SAT conflict spend is topped up, so the
        continued search is bit-identical to the uninterrupted run.
        Returns the outputs still failing.
        """
        config = self.config
        replayed = 0
        last = None
        for commit in journal.commits:
            try:
                outcome = validate_rewire(
                    work, spec, commit.ops, failing, run=run)
            except ResourceBudgetExceeded as exc:
                if not config.degrade_on_budget:
                    raise
                run.mark_degraded(str(exc))
                # the commit was proven once already; finish the replay
                # unsupervised rather than tear the patch in half
                outcome = validate_rewire(
                    work, spec, commit.ops, failing)
            except ReproError as exc:
                # an op that no longer even applies (missing gate or
                # pin) means the designs on disk are not the ones the
                # journal was recorded against
                raise JournalError(
                    f"journaled commit #{commit.seq} for output "
                    f"{commit.port!r} no longer applies to these "
                    f"designs ({exc}); the input netlists changed"
                ) from exc
            if not outcome.valid or commit.port not in outcome.fixed:
                raise JournalError(
                    f"journaled commit #{commit.seq} for output "
                    f"{commit.port!r} failed re-validation; the "
                    "journal does not match the input designs")
            failing = self._commit(work, spec, commit.port, commit.how,
                                   commit.ops, outcome.fixed, patch,
                                   per_output, failing)
            run.counters.replayed_commits += 1
            replayed += 1
            last = commit
        if last is not None:
            if last.rng_state is not None:
                from repro.eco.checkpoint import decode_rng_state
                rng.setstate(decode_rng_state(last.rng_state))
            # continue with the dead run's *remaining* budget: top the
            # journaled cumulative spend up over what replay charged
            run.budget.charge_sat(
                max(0, last.sat_spent - run.budget.sat_spent))
        run.trace.event("eco.resumed", replayed=replayed,
                        remaining=len(failing))
        logger.info("resumed run: %d commit(s) replayed, %d output(s) "
                    "remaining", replayed, len(failing))
        return failing

    # ------------------------------------------------------------------
    def _repair_outputs(self, work: Circuit, spec: Circuit,
                        failing: List[str], patch: Patch,
                        per_output: Dict[str, str], rng: random.Random,
                        run: RunSupervisor,
                        targets: Optional[Set[str]] = None,
                        commit_log: Optional[List] = None,
                        journal=None) -> List[str]:
        """Drive the per-output repair loop to completion.

        The workhorse of the run: picks the next failing output, runs
        its one symbolic search, falls back when the search comes up
        empty, commits the winning patch to ``work`` in place and
        repeats.  With ``targets`` only those outputs are driven (other
        failing outputs pass through untouched — parallel workers
        restrict their search this way while still validating against
        the full failing set).  ``commit_log`` receives one
        ``(port, how, ops)`` entry per commit so a parent process can
        replay the patch sequence.

        Returns the outputs still failing.
        """
        config = self.config
        trace = run.trace
        while True:
            port = next((p for p in failing
                         if targets is None or p in targets), None)
            if port is None:
                break
            with trace.span("eco.output", output=port) as osp:
                commit = None
                how = "rewire"
                quarantined = port in run.quarantined
                if not run.degraded and not quarantined:
                    try:
                        run.checkpoint()
                        commit = self._rectify_output(
                            work, spec, port, failing, patch, rng, run)
                    except ResourceBudgetExceeded as exc:
                        if not config.degrade_on_budget:
                            raise
                        run.mark_degraded(str(exc))
                        logger.warning(
                            "budget exhausted on output %s; degrading: "
                            "remaining outputs force-completed via "
                            "fallback", port)
                if commit is None:
                    forced = run.degraded or quarantined
                    how = "fallback-degraded" if forced else "fallback"
                    with trace.span("eco.fallback", output=port,
                                    degraded=forced):
                        commit = self._fallback(spec, port)
                    run.counters.fallbacks += 1
                    if forced:
                        run.counters.degraded_outputs += 1
                if journal is not None:
                    # write-ahead: the journal record lands before the
                    # in-memory commit, so a crash at any point either
                    # replays this commit or re-finds it — never loses
                    # it half-applied
                    journal.record_commit(
                        port, how, commit.ops, commit.fixed,
                        rng_state=rng.getstate(),
                        sat_spent=run.budget.sat_spent)
                failing = self._commit(work, spec, port, how, commit.ops,
                                       commit.fixed, patch, per_output,
                                       failing)
                if commit_log is not None:
                    commit_log.append((port, how, list(commit.ops)))
                osp.tag(how=how, ops=len(commit.ops),
                        fixed=len(commit.fixed))
        return failing

    @staticmethod
    def _commit(work: Circuit, spec: Circuit, port: str, how: str,
                ops: List[RewireOp], fixed: Sequence[str], patch: Patch,
                per_output: Dict[str, str],
                failing: Sequence[str]) -> List[str]:
        """Apply one proven rewire to ``work`` in place and record it.

        The one commit step of the search, the fallback, journal replay
        and the ``--jobs`` merge.  ``fixed`` are the failing outputs the
        rewire was proven to fix; ``port`` is labelled ``how`` and the
        others ``fixed-by-earlier``.  Editing in place is safe: ``work``
        is the run's private copy, the per-search objects that held it
        are gone by now, and every edit drops its derived caches.
        Returns the outputs still failing.
        """
        clone_map = dict(patch.clone_map)
        new_gates = apply_rewires(work, spec, ops, clone_map)
        # post-commit structural assertion: the lint screen should make
        # this unreachable
        assert_patch_structure(work, ops)
        patch.record(ops, clone_map, new_gates)
        for fixed_port in fixed:
            per_output[fixed_port] = (
                how if fixed_port == port else "fixed-by-earlier")
        logger.info("output %s: %s with %d op(s), %d cloned gate(s), "
                    "fixes %s", port, how, len(ops), len(new_gates),
                    ", ".join(fixed))
        logger.debug("ops: %s", "; ".join(op.describe() for op in ops))
        done = set(fixed)
        return [p for p in failing if p not in done]

    # ------------------------------------------------------------------
    def _check_interfaces(self, impl: Circuit, spec: Circuit) -> None:
        if set(spec.inputs) - set(impl.inputs):
            raise EcoError("specification reads inputs the implementation "
                           "does not have")
        if set(impl.outputs) != set(spec.outputs):
            raise EcoError("output ports of C and C' must correspond")

    def _order_by_cone(self, impl: Circuit,
                       ports: Sequence[str]) -> List[str]:
        """Failing outputs sorted by increasing logical complexity."""
        sizes = {
            p: len(transitive_fanin(impl, [impl.outputs[p]]))
            for p in ports
        }
        return sorted(ports, key=lambda p: (sizes[p], p))

    # ------------------------------------------------------------------
    def _rectify_output(self, work: Circuit, spec: Circuit, port: str,
                        failing: Sequence[str], patch: Patch,
                        rng: random.Random,
                        run: RunSupervisor) -> Optional["_Commit"]:
        """Steps 1-5 of the flow for one failing output."""
        config = self.config
        with run.trace.span("eco.samples", output=port) as sp:
            samples = collect_error_samples(
                work, spec, port, config.num_samples, rng,
                error_bias=config.error_bias)
            sp.tag(count=len(samples))
        if not samples:
            return None
        return self._search_at_scale(work, spec, port, failing, patch,
                                     samples, run)

    def _search_at_scale(self, work: Circuit, spec: Circuit, port: str,
                         failing: Sequence[str], patch: Patch,
                         samples: List[Dict[str, bool]],
                         run: RunSupervisor) -> Optional["_Commit"]:
        """Run the symbolic search, shrinking the pin set on BDD blowup.

        What no attempt changes is built once, before the first: the
        one simulation of the samples (the sampling domain, the screen,
        the flip credit, the utilities and ``Xi(c)`` all read its
        words), the ranked pins, the level maps and, per circuit, the
        nets within the failing output's spec support.
        """
        sim = SimulationFilter.for_samples(
            work, spec, samples, self.config.seed ^ 0x53C0,
            counters=run.counters)
        support = input_support(spec, spec.outputs[port])
        impl_levels = levelize(work)
        tables = (nets_within_support(work, support), impl_levels,
                  nets_within_support(spec, support), _spec_levels(spec))
        with run.trace.span("eco.rank_pins", output=port) as psp:
            ranked = self._select_candidate_pins(work, port, sim,
                                                 impl_levels)
            psp.tag(pins=len(ranked) + 1)
        max_pins = MAX_CANDIDATE_PINS
        while max_pins >= 4:
            # the output port pin is always a candidate (completeness)
            pins = ranked[:max_pins - 1] + [Pin.output(port)]
            try:
                with run.trace.span("eco.search", output=port,
                                    max_pins=max_pins):
                    run.open_bdd()
                    manager = BddManager(node_limit=BDD_NODE_LIMIT,
                                         node_hook=run.node_hook)
                    try:
                        return self._search_in_manager(
                            work, spec, port, failing, patch, pins, sim,
                            tables, run, manager)
                    finally:
                        run.close_bdd(manager)
            except BddNodeLimitError:
                run.trace.event("bdd.node_limit", output=port,
                                max_pins=max_pins)
                max_pins //= 2  # shrink the symbolic problem and retry
        return None

    def _search_in_manager(self, work: Circuit, spec: Circuit, port: str,
                           failing: Sequence[str], patch: Patch,
                           candidate_pins: List[Pin],
                           sim: SimulationFilter, tables: tuple,
                           run: RunSupervisor,
                           manager: BddManager) -> Optional["_Commit"]:
        config = self.config
        domain = SamplingDomain(manager, sim)
        impl_legal, impl_levels, spec_legal, spec_levels = tables
        ctx = RewiringContext(
            work, spec, port, sim, config,
            impl_legal, spec_legal, impl_levels, spec_levels,
            trace=run.trace)
        # H(t) is the search's one symbolic computation: the domain casts
        # only the spec output, for f'(g(z)), off its sample word
        spec_out = spec.outputs[port]
        spec_value = domain.cast_circuit(spec, roots=[spec_out])[spec_out]

        cost_fn = self._make_cost_fn(work, spec, port, impl_levels,
                                     patch.clone_map)
        # one persistent miter per search, cut at the candidate pins:
        # every candidate's pins are among them, and it re-checks
        # legality on the context's screen
        validator = IncrementalValidator(work, spec, candidate_pins,
                                         counters=run.counters,
                                         screen=ctx.screen)

        best: Optional[_Commit] = None
        validations = 0
        max_validations = 6 * config.max_points
        for m in range(1, config.max_points + 1):
            point_sets = feasible_point_sets(
                port, domain, candidate_pins, spec_value, m,
                checkpoint=run.checkpoint, trace=run.trace)
            run.counters.point_sets += len(point_sets)
            for pins in point_sets:
                run.checkpoint()
                cand_lists = [ctx.candidates_for_pin(p) for p in pins]
                choices = enumerate_rewiring_choices(
                    sim, port, pins, cand_lists, cost_fn=cost_fn,
                    trace=run.trace)
                run.counters.choices += len(choices)
                # choices are cost-ordered; the lint and simulation
                # screens drop sampling false positives cheaply, and only
                # the first few survivors per point-set get a SAT proof
                sat_tried = 0
                for choice in choices:
                    if sat_tried >= 3:
                        break
                    ops = [
                        RewireOp(pin, cand.net, cand.from_spec)
                        for pin, cand in zip(pins, choice)
                        if not cand.trivial
                    ]
                    if not ops:
                        continue
                    if not self._lint_screen(run, ctx, ops, port):
                        continue
                    with run.trace.span("sim.screen", output=port) as ssp:
                        sim_ok = sim.passes(ops, port, failing)
                        ssp.tag(passed=sim_ok)
                    if not sim_ok:
                        run.counters.sim_rejects += 1
                        continue
                    sat_tried += 1
                    run.counters.sat_validations += 1
                    with run.trace.span("eco.validate", output=port,
                                        ops=len(ops)) as vsp:
                        outcome = validator.validate(ops, failing, run=run)
                        vsp.tag(valid=outcome.valid,
                                fixed=len(outcome.fixed))
                    validations += 1
                    if outcome.valid and port in outcome.fixed:
                        commit = _Commit(ops, outcome.fixed, clones_needed(
                            spec, ops, patch.clone_map))
                        if best is None or commit.score > best.score:
                            best = commit
                        # a pure rewire (no new logic) cannot be beaten
                        # on patch size; commit it immediately
                        if commit.clones == 0:
                            return best
                    if validations >= max_validations:
                        return best
            # grow the point-set only while the best patch still clones
            # a noticeable amount of logic
            if best is not None and best.clones <= 2 * m:
                return best
        return best

    # ------------------------------------------------------------------
    @staticmethod
    def _lint_screen(run: RunSupervisor, ctx: RewiringContext,
                     ops: List[RewireOp], port: str) -> bool:
        """Static legality screen before any simulation or SAT spend.

        The context's :class:`~repro.lint.patch_rules.PatchScreen`
        proves the candidate cannot close a combinational cycle and
        that every pin/source is structurally sound — rejecting here
        costs a graph walk over already-built adjacency instead of a
        solver call.
        """
        with run.trace.span("lint.screen", output=port,
                            ops=len(ops)) as sp:
            report = ctx.screen.check_ops(ops)
            ok = report.ok
            sp.tag(passed=ok)
            if not ok:
                sp.tag(codes=",".join(sorted(report.codes())))
        run.counters.lint_screens += 1
        if not ok:
            run.counters.lint_rejects += 1
        return ok

    # ------------------------------------------------------------------
    def _make_cost_fn(self, work: Circuit, spec: Circuit, port: str,
                      impl_levels: Dict[str, int],
                      clone_map: Dict[str, str]):
        level_term = None
        if self.config.level_aware:
            out_level = impl_levels[work.outputs[port]]

            def level_term(pin: Pin, cand: RewireCandidate) -> float:
                if cand.trivial:
                    return 0.0
                pin_level = 0 if pin.is_output_port else \
                    impl_levels.get(pin.owner, out_level)
                # penalize sources deeper than the logic they feed
                return 0.5 * max(0, cand.level - max(pin_level - 1, 0))

        return make_clone_aware_cost(spec, clone_map,
                                     level_term=level_term)

    # ------------------------------------------------------------------
    @staticmethod
    def _select_candidate_pins(work: Circuit, port: str,
                               sim: SimulationFilter,
                               levels: Dict[str, int]) -> List[Pin]:
        """Rank the gate pins of the failing cone as candidate points.

        Nets are scored by *flip credit*: the number of error samples on
        which complementing the net corrects the output
        (:meth:`SimulationFilter.flip_credit`).  Pins inherit the score
        of their driving net.  Returns the best
        ``MAX_CANDIDATE_PINS - 1``; each search attempt appends the
        output port pin.  ``levels`` is ``work``'s :func:`levelize` map.
        """
        cone = transitive_fanin(work, [work.outputs[port]])
        # score only the nets closest to the output when cones are huge;
        # names break level ties, so the kept nets never follow set order
        scored_nets = [n for n in cone]
        if len(scored_nets) > 600:
            scored_nets.sort(key=lambda n: (-levels[n], n))
            scored_nets = scored_nets[:600]
        flip_credit = sim.flip_credit(port, scored_nets)

        # collect gate input pins of the cone, ranked by driver credit
        pins: List[Tuple[int, int, Pin]] = []
        for gname in cone:
            gate = work.gates.get(gname)
            if gate is None:
                continue
            for idx, fanin in enumerate(gate.fanins):
                credit = flip_credit.get(fanin, 0)
                if credit <= 0:
                    continue
                pins.append((-credit, levels[fanin], Pin.gate(gname, idx)))
        pins.sort(key=lambda item: (item[0], item[1], item[2]))
        return [p for _, _, p in pins[:MAX_CANDIDATE_PINS - 1]]

    # ------------------------------------------------------------------
    @staticmethod
    def _fallback(spec: Circuit, port: str) -> "_Commit":
        """Completeness fallback: drive the output port from a clone of
        the revised function.

        Valid by construction (Proposition 1), so it makes no solve: the
        clone computes the spec function of ``port`` over the shared
        primary inputs, and no output port reads another, so the rewire
        fixes ``port`` and changes no other output.  Final verification
        proves the whole circuit.  Degradation relies on this path, and
        it spends no budget.
        """
        ops = [RewireOp(Pin.output(port), spec.outputs[port],
                        from_spec=True)]
        # a fallback is never scored, so its clones go uncounted
        return _Commit(ops, (port,), 0)


def _spec_levels(spec: Circuit) -> Dict[str, int]:
    """The spec's levels.

    Kept in the spec's derived-data cache: the spec never changes
    during a run, so every search of the run shares one copy, and an
    edit of the spec would drop it.
    """
    cache = spec.derived_cache()
    levels = cache.get("eco.spec_levels")
    if levels is None:
        levels = cache["eco.spec_levels"] = levelize(spec)
    return levels


@dataclass(frozen=True)
class _Commit:
    """A proven rewire the engine has yet to apply."""

    ops: List[RewireOp]
    #: failing outputs the rewire was proven to fix
    fixed: Tuple[str, ...]
    #: gates its commit would clone from the spec
    clones: int

    @property
    def score(self) -> Tuple[int, int]:
        """Most outputs fixed first, then least new logic."""
        return (len(self.fixed), -self.clones)


def rectify(impl: Circuit, spec: Circuit,
            config: Optional[EcoConfig] = None,
            injector: Optional[FaultInjector] = None,
            trace: Optional[Trace] = None,
            journal=None) -> RectificationResult:
    """Convenience one-shot: ``SysEco(config).rectify(impl, spec)``."""
    return SysEco(config).rectify(impl, spec, injector=injector,
                                  trace=trace, journal=journal)
