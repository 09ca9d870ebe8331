"""Verdict parity of :class:`IncrementalValidator` with the reference
validator.

The incremental assumption-based validator is the engine's one
validator: on every candidate it must return exactly the verdict of the
copy-and-re-encode oracle ``tests/eco/reference.py::validate_rewire`` —
including rejections for topological-constraint and acyclicity
violations — and a valid verdict must hold on the circuit the ops
produce when applied.  The property tests below drive both validators
with the same randomized circuits, pins and rewire ops and compare them
check by check; the fault-injection tests confirm budgets, UNKNOWN
queries and strict mode behave identically when the supervised solver
runs through the incremental miter.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cec.equivalence import check_equivalence
from repro.errors import NetlistError, SatBudgetExceeded
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import evaluate_outputs
from repro.netlist.traverse import topological_order
from repro.runtime import (
    FAULT_EXHAUST,
    FAULT_UNKNOWN,
    FaultInjector,
    RunCounters,
    SITE_SAT,
)
from repro.runtime.supervisor import RunSupervisor
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.eco.incremental import IncrementalValidator
from repro.eco.patch import RewireOp
from repro.eco.validate import apply_rewires
from tests.conftest import make_random_circuit
from tests.eco import reference


def mutate(spec, seed):
    """An acyclic single-pin corruption of ``spec`` (or None)."""
    impl = spec.copy(name="impl")
    rng = random.Random(seed)
    names = topological_order(impl)
    k = rng.randrange(len(names))
    gate = impl.gates[names[k]]
    idx = rng.randrange(len(gate.fanins))
    # only upstream nets keep the mutated circuit acyclic
    pool = [n for n in list(impl.inputs) + names[:k]
            if n != gate.fanins[idx]]
    if not pool:
        return None
    impl.rewire_pin(Pin.gate(names[k], idx), rng.choice(pool))
    return impl


def failing_outputs(impl, spec):
    """Exhaustively compared failing ports (inputs are few by design)."""
    failing = []
    for bits in itertools.product([False, True], repeat=len(spec.inputs)):
        assignment = dict(zip(spec.inputs, bits))
        got = evaluate_outputs(impl, assignment)
        want = evaluate_outputs(spec, assignment)
        for port in spec.outputs:
            if got[port] != want[port] and port not in failing:
                failing.append(port)
    return failing


def random_pins(impl, rng, count=3):
    pins = []
    gate_names = list(impl.gates)
    for _ in range(count):
        gname = rng.choice(gate_names)
        pins.append(Pin.gate(gname, rng.randrange(
            len(impl.gates[gname].fanins))))
    return list(dict.fromkeys(pins))


def random_ops(impl, spec, pins, rng, count=2):
    ops = []
    impl_nets = list(impl.inputs) + list(impl.gates)
    spec_nets = list(spec.inputs) + list(spec.gates)
    for _ in range(count):
        from_spec = bool(rng.getrandbits(1))
        source = rng.choice(spec_nets if from_spec else impl_nets)
        ops.append(RewireOp(pin=rng.choice(pins), source_net=source,
                            from_spec=from_spec))
    return ops


def assert_verdict_holds(impl, spec, ops, failing, outcome):
    """A valid verdict, re-proven on the circuit the ops produce: every
    fixed output and every output that was passing match the spec."""
    if not outcome.valid:
        return
    patched = impl.copy()
    apply_rewires(patched, spec, ops, {})
    kept = [p for p in spec.outputs if p not in failing]
    result = check_equivalence(patched, spec,
                               outputs=list(outcome.fixed) + kept)
    assert result.equivalent is True


def assert_same_outcome(impl, spec, ops, failing, legacy, incremental):
    assert incremental.valid == legacy.valid
    assert incremental.fixed == legacy.fixed
    assert_verdict_holds(impl, spec, ops, failing, incremental)


class TestVerdictParity:
    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_random_candidates_match_legacy(self, seed):
        spec = make_random_circuit(seed, n_inputs=4, n_gates=15)
        impl = mutate(spec, seed + 1)
        if impl is None:
            return
        failing = failing_outputs(impl, spec)
        if not failing:
            return
        rng = random.Random(seed + 2)
        pins = random_pins(impl, rng) + [Pin.output(failing[0])]
        validator = IncrementalValidator(impl, spec, pins)
        for trial in range(4):
            ops = random_ops(impl, spec, pins, rng,
                             count=rng.randrange(1, 3))
            legacy = reference.validate_rewire(impl, spec, ops, failing)
            incremental = validator.validate(ops, failing)
            assert_same_outcome(impl, spec, ops, failing, legacy,
                                incremental)

    def test_known_fix_accepted_by_both(self):
        spec = Circuit("spec")
        a, b, c = spec.add_inputs(["a", "b", "c"])
        g1 = spec.and_(a, b, name="g1")
        spec.set_output("o", spec.xor(g1, c, name="g2"))
        impl = Circuit("impl")
        a, b, c = impl.add_inputs(["a", "b", "c"])
        h1 = impl.or_(a, b, name="h1")
        impl.set_output("o", impl.xor(h1, c, name="h2"))
        ops = [RewireOp(pin=Pin.gate("h2", 0), source_net="g1",
                        from_spec=True)]
        validator = IncrementalValidator(impl, spec,
                                         [Pin.gate("h2", 0)])
        legacy = reference.validate_rewire(impl, spec, ops, ["o"])
        incremental = validator.validate(ops, ["o"])
        assert legacy.valid and incremental.valid
        assert_same_outcome(impl, spec, ops, ["o"], legacy, incremental)
        patched = impl.copy()
        apply_rewires(patched, spec, ops, {})
        assert check_equivalence(patched, spec).equivalent is True

    def test_pin_outside_the_cut_is_refused(self):
        spec = make_random_circuit(21, n_inputs=4, n_gates=12)
        impl = mutate(spec, 22)
        gates = list(impl.gates)
        validator = IncrementalValidator(impl, spec, [Pin.gate(gates[0], 0)])
        ops = [RewireOp(pin=Pin.gate(gates[1], 0),
                        source_net=impl.inputs[0])]
        with pytest.raises(NetlistError, match="outside the cut"):
            validator.validate(ops, list(impl.outputs))

    def test_source_cone_holding_another_ops_pin(self):
        # op A's source g2 reads g1, whose pin op B rewires.  Ports are
        # queried in name order, so the query for "a_out" reaches g1's
        # pin only through A's source: the selectors must be built
        # until no new pin appears
        def build(name, g1_in, h_in):
            c = Circuit(name)
            a, b, cc = c.add_inputs(["a", "b", "c"])
            c.and_(g1_in, b, name="g1")
            c.xor("g1", cc, name="g2")
            c.set_output("z_out", c.xor("g2", a, name="g3"))
            c.set_output("a_out", c.or_(h_in, a, name="h"))
            return c

        impl = build("impl", "a", "b")
        spec = build("spec", "c", "g2")
        failing = failing_outputs(impl, spec)
        assert sorted(failing) == ["a_out", "z_out"]
        ops = [RewireOp(pin=Pin.gate("h", 0), source_net="g2"),
               RewireOp(pin=Pin.gate("g1", 0), source_net="c")]
        validator = IncrementalValidator(
            impl, spec, [Pin.gate("h", 0), Pin.gate("g1", 0)])
        incremental = validator.validate(ops, failing)
        legacy = reference.validate_rewire(impl, spec, ops, failing)
        assert incremental.fixed == ("a_out", "z_out")
        assert_same_outcome(impl, spec, ops, failing, legacy, incremental)

    def test_counts_incremental_solves(self):
        spec = make_random_circuit(0, n_inputs=4, n_gates=12)
        impl = mutate(spec, 1)
        failing = failing_outputs(impl, spec)
        assert failing  # seed chosen so the mutation is visible
        counters = RunCounters()
        pin = Pin.output(failing[0])
        validator = IncrementalValidator(impl, spec, [pin],
                                         counters=counters)
        validator.validate(
            [RewireOp(pin=pin, source_net=spec.outputs[failing[0]],
                      from_spec=True)],
            failing)
        assert counters.incremental_solves >= 1


class TestLazyEncoding:
    def test_untouched_block_is_never_encoded(self):
        """The solver holds the cones a search queries, not the design:
        a block that no candidate reaches stays unencoded."""
        def build(name, bug):
            c = Circuit(name)
            a, b, cc = c.add_inputs(["a", "b", "c"])
            g1 = c.and_(a, b, name="g1")
            c.set_output("o", c.xor(g1, cc, name="g2") if not bug
                         else c.xnor(g1, cc, name="g2"))
            acc = c.add_inputs(["w0", "w1"])[0]
            for k in range(200):
                acc = c.xor(acc, "w1" if k % 2 else "w0",
                            name=f"blk{k}")
            c.set_output("blk", acc)
            return c

        impl, spec = build("impl", bug=True), build("spec", bug=False)
        pin = Pin.output("o")
        validator = IncrementalValidator(impl, spec, [pin])
        assert validator.solver.num_vars == 0
        outcome = validator.validate(
            [RewireOp(pin=pin, source_net="g2", from_spec=True)], ["o"])
        assert outcome.valid and outcome.fixed == ("o",)
        assert validator.solver.num_vars < 200


class TestSupervisedIncremental:
    """Budget exhaustion and degradation through the incremental miter.

    The engine validates candidates incrementally, so these drive the
    whole engine: fault payloads land inside the persistent incremental
    solver exactly as they land in the per-candidate checkers.
    """

    def single_bug(self):
        spec = Circuit("spec")
        a, b, c = spec.add_inputs(["a", "b", "c"])
        g1 = spec.and_(a, b, name="g1")
        spec.set_output("o", spec.xor(g1, c, name="g2"))
        impl = Circuit("impl")
        a, b, c = impl.add_inputs(["a", "b", "c"])
        h1 = impl.or_(a, b, name="h1")
        impl.set_output("o", impl.xor(h1, c, name="h2"))
        return impl, spec

    def test_unknown_streak_degrades_but_verifies(self):
        impl, spec = self.single_bug()
        injector = FaultInjector().arm(
            SITE_SAT, range(1, 301), payload=FAULT_UNKNOWN)
        result = rectify(impl, spec, EcoConfig(num_samples=8),
                         injector=injector)
        # an all-UNKNOWN solver forces the degraded fallback path, so
        # the incremental miter must not be credited with any verdicts
        assert result.counters.sat_unknowns > 0
        assert result.counters.fallbacks >= 1
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_budget_exhaustion_strict_raises(self):
        impl, spec = self.single_bug()
        injector = FaultInjector().arm(SITE_SAT, 1, payload=FAULT_EXHAUST)
        with pytest.raises(SatBudgetExceeded):
            rectify(impl, spec,
                    EcoConfig(num_samples=8, degrade_on_budget=False),
                    injector=injector)

    def test_budget_exhaustion_degrades_gracefully(self):
        impl, spec = self.single_bug()
        injector = FaultInjector().arm(SITE_SAT, 1, payload=FAULT_EXHAUST)
        result = rectify(impl, spec, EcoConfig(num_samples=8),
                         injector=injector)
        assert result.degraded is True
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_supervisor_drives_validator_directly(self):
        impl, spec = self.single_bug()
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=10_000))
        validator = IncrementalValidator(impl, spec,
                                         [Pin.gate("h2", 0)],
                                         counters=run.counters)
        ops = [RewireOp(pin=Pin.gate("h2", 0), source_net="g1",
                        from_spec=True)]
        outcome = validator.validate(ops, ["o"], run=run)
        assert outcome.valid
        assert run.counters.sat_conflicts_spent >= 0
        assert run.counters.incremental_solves >= 1


class TestEngineParity:
    """Whole-engine results through the incremental validator vs
    through the reference validator for every candidate."""

    @pytest.mark.parametrize("seed", [4, 8])
    def test_rectify_matches_legacy_validator_path(self, seed,
                                                   monkeypatch):
        spec = make_random_circuit(seed, n_inputs=4, n_gates=14)
        impl = mutate(spec, seed + 100)
        assert impl is not None
        assert failing_outputs(impl, spec)  # seeds chosen to be visible
        fast = rectify(impl, spec, EcoConfig(num_samples=16, seed=9))

        def reference_path(self, ops, failing, sat_budget=None, run=None):
            return reference.validate_rewire(
                self.impl, self.spec, ops, failing,
                sat_budget=sat_budget, run=run)

        # every candidate goes through the reference validator instead
        monkeypatch.setattr(IncrementalValidator, "validate",
                            reference_path)
        slow = rectify(impl, spec, EcoConfig(num_samples=16, seed=9))
        assert check_equivalence(fast.patched, spec).equivalent is True
        assert check_equivalence(slow.patched, spec).equivalent is True
        # the same verdicts make the same decisions
        assert fast.per_output == slow.per_output
        assert [op.describe() for op in fast.patch.ops] == \
            [op.describe() for op in slow.patch.ops]
        assert fast.counters.incremental_solves > 0
        assert slow.counters.incremental_solves == 0
