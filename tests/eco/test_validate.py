"""Tests for full-domain validation of rewire candidates."""

import pytest

from repro.eco.patch import RewireOp
from repro.eco.validate import (
    SimulationFilter,
    apply_rewires,
    clone_spec_cone,
    rewire_acyclic,
    topological_constraint_ok,
    validate_rewire,
)
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import random_patterns
from repro.lint.netlist_rules import lint_netlist


def chain_circuit():
    c = Circuit("chain")
    c.add_inputs(["a", "b"])
    c.and_("a", "b", name="g1")
    c.or_("g1", "a", name="g2")
    c.xor("g2", "b", name="g3")
    c.set_output("o", "g3")
    return c


class TestTopologicalConstraint:
    def test_connected_pins_rejected(self):
        c = chain_circuit()
        # g1 feeds g2: a path connects the pins
        assert not topological_constraint_ok(
            c, [Pin.gate("g1", 0), Pin.gate("g2", 1)])

    def test_disconnected_pins_accepted(self):
        c = chain_circuit()
        c.and_("a", "b", name="h1")
        c.set_output("p", "h1")
        assert topological_constraint_ok(
            c, [Pin.gate("g1", 0), Pin.gate("h1", 0)])

    def test_output_port_pins_always_fine(self):
        c = chain_circuit()
        assert topological_constraint_ok(
            c, [Pin.output("o"), Pin.gate("g1", 0)])

    def test_single_pin_fine(self):
        c = chain_circuit()
        assert topological_constraint_ok(c, [Pin.gate("g2", 0)])


class TestAcyclicity:
    def test_downstream_source_rejected(self):
        c = chain_circuit()
        ops = [RewireOp(Pin.gate("g1", 0), "g3")]
        assert not rewire_acyclic(c, ops)

    def test_upstream_source_accepted(self):
        c = chain_circuit()
        ops = [RewireOp(Pin.gate("g3", 0), "g1")]
        assert rewire_acyclic(c, ops)

    def test_spec_sources_always_fine(self):
        c = chain_circuit()
        ops = [RewireOp(Pin.gate("g1", 0), "whatever", from_spec=True)]
        assert rewire_acyclic(c, ops)

    def test_joint_cycle_through_two_rewires(self):
        c = Circuit("j")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="x")
        c.or_("a", "b", name="y")
        c.set_output("o", c.xor("x", "y"))
        # x[0] <- y and y[0] <- x individually fine, together a cycle
        ops = [RewireOp(Pin.gate("x", 0), "y"),
               RewireOp(Pin.gate("y", 0), "x")]
        assert not rewire_acyclic(c, ops)
        assert rewire_acyclic(c, ops[:1])

    def test_edge_removed_by_rewire_ignored(self):
        c = chain_circuit()
        # rewiring g2[0] (currently g1) to 'a' removes the g1->g2 edge;
        # simultaneously rewiring g1[0] to g2 is then... still a cycle
        # via g2 -> g3? no: g1 feeds nothing else, g2's sinks: g3.
        ops = [RewireOp(Pin.gate("g2", 0), "a"),
               RewireOp(Pin.gate("g1", 0), "g2")]
        assert rewire_acyclic(c, ops)


class TestCloning:
    def spec(self):
        s = Circuit("spec")
        s.add_inputs(["a", "b"])
        s.and_("a", "b", name="h1")
        s.not_("h1", name="h2")
        s.set_output("o", "h2")
        return s

    def test_clone_cone(self):
        work = chain_circuit()
        clone_map = {}
        top = clone_spec_cone(work, self.spec(), "h2", clone_map)
        assert top in work.gates
        assert clone_map == {"h1": "eco$h1", "h2": "eco$h2"}
        assert lint_netlist(work, deep=False).ok

    def test_clone_reuse(self):
        work = chain_circuit()
        clone_map = {}
        spec = self.spec()
        clone_spec_cone(work, spec, "h1", clone_map)
        gates_before = work.num_gates
        top = clone_spec_cone(work, spec, "h2", clone_map)
        assert work.num_gates == gates_before + 1  # only h2 added
        assert top == "eco$h2"

    def test_clone_of_input_is_identity(self):
        work = chain_circuit()
        assert clone_spec_cone(work, self.spec(), "a", {}) == "a"

    def test_apply_rewires_reports_new_gates(self):
        work = chain_circuit()
        clone_map = {}
        ops = [RewireOp(Pin.output("o"), "h2", from_spec=True)]
        new = apply_rewires(work, self.spec(), ops, clone_map)
        assert new == {"eco$h1", "eco$h2"}
        assert work.outputs["o"] == "eco$h2"


class TestValidateRewire:
    def pair(self):
        impl = Circuit("impl")
        impl.add_inputs(["a", "b", "c"])
        impl.or_("a", "b", name="g1")          # should be AND
        impl.and_("g1", "c", name="g2")
        impl.set_output("o", "g2")
        impl.set_output("keep", impl.xor("a", "c", name="g3"))
        spec = Circuit("spec")
        spec.add_inputs(["a", "b", "c"])
        spec.and_("a", "b", name="h1")
        spec.and_("h1", "c", name="h2")
        spec.set_output("o", "h2")
        spec.set_output("keep", spec.xor("a", "c", name="h3"))
        return impl, spec

    def test_correct_rewire_accepted(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g2", 0), "h1", from_spec=True)]
        outcome = validate_rewire(impl, spec, ops, ["o"], {})
        assert outcome.valid
        assert outcome.fixed == ("o",)
        assert outcome.patched is not None
        assert lint_netlist(outcome.patched, deep=False).ok

    def test_wrong_rewire_rejected(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g2", 0), "a")]  # a is not a fix
        outcome = validate_rewire(impl, spec, ops, ["o"], {})
        assert not outcome.valid

    def test_damaging_rewire_rejected(self):
        impl, spec = self.pair()
        # fixes nothing and breaks the passing output 'keep'
        ops = [RewireOp(Pin.gate("g3", 0), "b")]
        outcome = validate_rewire(impl, spec, ops, ["o"], {})
        assert not outcome.valid

    def test_original_untouched(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g2", 0), "h1", from_spec=True)]
        validate_rewire(impl, spec, ops, ["o"], {})
        assert impl.gates["g2"].fanins[0] == "g1"

    def test_cyclic_candidate_rejected_early(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g1", 0), "g2")]
        outcome = validate_rewire(impl, spec, ops, ["o"], {})
        assert not outcome.valid


class TestSimulationFilter:
    def test_correct_candidate_passes(self):
        impl = Circuit("impl")
        impl.add_inputs(["a", "b"])
        impl.or_("a", "b", name="g1")
        impl.set_output("o", "g1")
        spec = Circuit("spec")
        spec.add_inputs(["a", "b"])
        spec.and_("a", "b", name="h1")
        spec.set_output("o", "h1")
        import random
        words = [random_patterns(impl.inputs, random.Random(0))]
        filt = SimulationFilter(impl, spec, words)
        good = [RewireOp(Pin.output("o"), "h1", from_spec=True)]
        bad = [RewireOp(Pin.gate("g1", 0), "b")]
        assert filt.passes(good, "o", ["o"])
        assert not filt.passes(bad, "o", ["o"])

    def test_other_failing_outputs_ignored(self):
        impl = Circuit("impl")
        impl.add_inputs(["a", "b"])
        impl.set_output("o1", impl.or_("a", "b"))
        impl.set_output("o2", impl.xor("a", "b"))
        spec = Circuit("spec")
        spec.add_inputs(["a", "b"])
        spec.set_output("o1", spec.and_("a", "b"))
        spec.set_output("o2", spec.nor("a", "b"))
        import random
        words = [random_patterns(impl.inputs, random.Random(0))]
        filt = SimulationFilter(impl, spec, words)
        fix_o1 = [RewireOp(Pin.output("o1"), spec.outputs["o1"],
                           from_spec=True)]
        # o2 is still wrong but is in the failing list: allowed
        assert filt.passes(fix_o1, "o1", ["o1", "o2"])
        # if o2 were considered passing, the same ops must be rejected
        assert not filt.passes(fix_o1, "o1", ["o1"])


class TestBatchScreenParity:
    """`passes_batch` must be result-identical to per-candidate
    `passes`, vectorized or not."""

    @staticmethod
    def _random_candidates(impl, spec, rng, count):
        from repro.netlist.traverse import topological_order

        gates = list(impl.gates)
        ports = list(impl.outputs)
        impl_nets = list(topological_order(impl)) + list(impl.inputs)
        spec_nets = list(topological_order(spec)) + list(spec.inputs)
        candidates = []
        for _ in range(count):
            ops = []
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                if rng.random() < 0.25:
                    pin = Pin.output(rng.choice(ports))
                else:
                    g = rng.choice(gates)
                    pin = Pin.gate(g, rng.randrange(
                        len(impl.gates[g].fanins)))
                if rng.random() < 0.5:
                    ops.append(RewireOp(pin, rng.choice(spec_nets),
                                        from_spec=True))
                else:
                    ops.append(RewireOp(pin, rng.choice(impl_nets)))
            candidates.append(ops)
        return candidates

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_batch_matches_scalar_oracle(self, backend):
        import random

        from repro.netlist import simd
        from tests.conftest import make_random_circuit

        if backend == "numpy" and not simd.HAVE_NUMPY:
            pytest.skip("numpy not installed")
        previous = simd.get_backend()
        try:
            for seed in range(12):
                impl = make_random_circuit(seed)
                spec = make_random_circuit(seed + 500)
                rng = random.Random(seed + 31)
                words = [random_patterns(impl.inputs, rng)
                         for _ in range(3)]
                filt = SimulationFilter(impl, spec, words)
                candidates = self._random_candidates(
                    impl, spec, rng, 12)
                target = "y0"
                failing = ["y0", "y1"]
                simd.set_backend("python")
                expected = [filt.passes(ops, target, failing)
                            for ops in candidates]
                simd.set_backend(backend)
                got = filt.passes_batch(candidates, target, failing)
                assert got == expected
        finally:
            simd.set_backend(previous)
