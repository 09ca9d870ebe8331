"""Tests for full-domain validation of rewire candidates."""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cec.equivalence import check_equivalence
from repro.eco.config import EcoConfig
from repro.eco.patch import RewireOp
from repro.eco.validate import (
    SimulationFilter,
    apply_rewires,
    clone_spec_cone,
    clones_needed,
    pins_unconnected,
    rewire_legal,
    validate_rewire,
)
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import random_patterns
from repro.runtime.supervisor import RunSupervisor
from repro.lint.netlist_rules import lint_netlist
from tests.conftest import make_random_circuit
from tests.eco import reference
from tests.eco.test_incremental import mutate, random_ops, random_pins


def chain_circuit():
    c = Circuit("chain")
    c.add_inputs(["a", "b"])
    c.and_("a", "b", name="g1")
    c.or_("g1", "a", name="g2")
    c.xor("g2", "b", name="g3")
    c.set_output("o", "g3")
    return c


def pins_ok(c, pins):
    return pins_unconnected(PatchScreen(c), pins)


def acyclic(c, ops):
    return PatchScreen(c).cycle_path(ops) is None


class TestTopologicalConstraint:
    def test_connected_pins_rejected(self):
        c = chain_circuit()
        # g1 feeds g2: a path connects the pins
        assert not pins_ok(c, [Pin.gate("g1", 0), Pin.gate("g2", 1)])

    def test_disconnected_pins_accepted(self):
        c = chain_circuit()
        c.and_("a", "b", name="h1")
        c.set_output("p", "h1")
        assert pins_ok(c, [Pin.gate("g1", 0), Pin.gate("h1", 0)])

    def test_output_port_pins_always_fine(self):
        c = chain_circuit()
        assert pins_ok(c, [Pin.output("o"), Pin.gate("g1", 0)])

    def test_single_pin_fine(self):
        c = chain_circuit()
        assert pins_ok(c, [Pin.gate("g2", 0)])


class TestAcyclicity:
    def test_downstream_source_rejected(self):
        c = chain_circuit()
        ops = [RewireOp(Pin.gate("g1", 0), "g3")]
        assert not acyclic(c, ops)

    def test_upstream_source_accepted(self):
        c = chain_circuit()
        ops = [RewireOp(Pin.gate("g3", 0), "g1")]
        assert acyclic(c, ops)

    def test_spec_sources_always_fine(self):
        c = chain_circuit()
        ops = [RewireOp(Pin.gate("g1", 0), "whatever", from_spec=True)]
        assert acyclic(c, ops)

    def test_joint_cycle_through_two_rewires(self):
        c = Circuit("j")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="x")
        c.or_("a", "b", name="y")
        c.set_output("o", c.xor("x", "y"))
        # x[0] <- y and y[0] <- x individually fine, together a cycle
        ops = [RewireOp(Pin.gate("x", 0), "y"),
               RewireOp(Pin.gate("y", 0), "x")]
        assert not acyclic(c, ops)
        assert acyclic(c, ops[:1])

    def test_edge_removed_by_rewire_ignored(self):
        c = chain_circuit()
        # rewiring g2[0] (currently g1) to 'a' removes the g1->g2 edge;
        # simultaneously rewiring g1[0] to g2 is then... still a cycle
        # via g2 -> g3? no: g1 feeds nothing else, g2's sinks: g3.
        ops = [RewireOp(Pin.gate("g2", 0), "a"),
               RewireOp(Pin.gate("g1", 0), "g2")]
        assert acyclic(c, ops)


def _cycle_if_nothing_removed(impl, ops):
    """Would the new edges close a cycle if the rewired pins kept
    their old edges too?"""
    edges = {}
    for g in impl.gates.values():
        for f in g.fanins:
            edges.setdefault(f, set()).add(g.name)
    new = [(op.source_net, op.pin.owner) for op in ops
           if not (op.from_spec or op.pin.is_output_port)]
    for src, dst in new:
        edges.setdefault(src, set()).add(dst)
    for src, dst in new:
        seen, stack = set(), [dst]
        while stack:
            n = stack.pop()
            if n == src:
                return True
            if n not in seen:
                seen.add(n)
                stack.extend(edges.get(n, ()))
    return False


class TestLegalityMatchesReference:
    """The screen-based checks give the whole-circuit walks' verdicts."""

    def candidates(self, impl, spec, rng):
        """Random 1-3 op candidates, plus two shapes random draws
        rarely hit: a swap of two unrelated gates (a cycle only
        through both new edges) and a rewire that drops an edge the
        other rewire's cycle would need."""
        screen = PatchScreen(impl)
        gate_pins = [Pin.gate(g, i) for g, gate in impl.gates.items()
                     for i in range(len(gate.fanins))]
        port_pins = [Pin.output(p) for p in impl.outputs]
        nets = list(impl.nets())
        for _ in range(30):
            ops = []
            for _ in range(rng.randint(1, 3)):
                pin = rng.choice(port_pins) if rng.random() < 0.2 \
                    else rng.choice(gate_pins)
                if rng.random() < 0.2:
                    ops.append(RewireOp(pin, rng.choice(list(spec.gates)),
                                        from_spec=True))
                else:
                    ops.append(RewireOp(pin, rng.choice(nets)))
            yield ops
        gates = list(impl.gates)
        for _ in range(10):
            a, b = rng.sample(gates, 2)
            if b in screen.fanout_cone(a) or a in screen.fanout_cone(b):
                continue
            yield [RewireOp(Pin.gate(a, 0), b), RewireOp(Pin.gate(b, 0), a)]
        for g in gates:
            for i, d in enumerate(impl.gates[g].fanins):
                if d in impl.gates:
                    yield [RewireOp(Pin.gate(g, i), impl.inputs[0]),
                           RewireOp(Pin.gate(d, 0), g)]

    def test_verdicts_match_on_random_candidates(self):
        rng = random.Random(2019)
        seen = Counter()
        for seed in range(40):
            impl = make_random_circuit(seed, n_inputs=5, n_gates=25)
            spec = make_random_circuit(seed + 500, n_inputs=5, n_gates=10)
            screen = PatchScreen(impl)
            for ops in self.candidates(impl, spec, rng):
                pins = [op.pin for op in ops]
                want_pins = reference.topological_constraint_ok(impl, pins)
                want_acyclic = reference.rewire_acyclic(impl, ops)
                assert pins_unconnected(screen, pins) == want_pins, ops
                assert (screen.cycle_path(ops) is None) == want_acyclic, ops
                assert rewire_legal(screen, ops) == \
                    (want_pins and want_acyclic), ops
                seen["acyclic" if want_acyclic else "cyclic"] += 1
                seen["pins ok" if want_pins else "pins connected"] += 1
                if not want_acyclic and all(
                        reference.rewire_acyclic(impl, [op]) for op in ops):
                    seen["cycle through two new edges"] += 1
                if want_acyclic and _cycle_if_nothing_removed(impl, ops):
                    seen["cycle broken by a removed edge"] += 1
                if any(p.is_output_port for p in pins) and \
                        any(not p.is_output_port for p in pins):
                    seen["gate and output pins"] += 1
                if any(op.from_spec for op in ops) and \
                        any(not op.from_spec for op in ops):
                    seen["impl and spec sources"] += 1
        assert len(seen) == 8, seen
        assert min(seen.values()) >= 10, seen


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

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_clones_needed_counts_what_apply_rewires_clones(self, seed):
        spec = make_random_circuit(seed, n_inputs=4, n_gates=15)
        impl = mutate(spec, seed + 1)
        if impl is None:
            return
        rng = random.Random(seed + 2)
        pins = random_pins(impl, rng) + [
            Pin.output(rng.choice(sorted(impl.outputs)))]
        ops = random_ops(impl, spec, pins, rng, count=rng.randrange(1, 4))
        # earlier clones: spec gates already stood in for by impl nets
        impl_nets = list(impl.inputs) + list(impl.gates)
        cloned = rng.sample(list(spec.gates), rng.randrange(1, 5))
        m = {g: rng.choice(impl_nets) for g in cloned}
        assert clones_needed(spec, ops, m) == len(
            apply_rewires(impl.copy(), spec, ops, dict(m)))


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
        outcome = validate_rewire(impl, spec, ops, ["o"])
        assert outcome.valid
        assert outcome.fixed == ("o",)
        patched = impl.copy()
        apply_rewires(patched, spec, ops, {})
        assert lint_netlist(patched, deep=False).ok
        assert check_equivalence(patched, spec).equivalent is True

    def test_wrong_rewire_rejected(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g2", 0), "a")]  # a is not a fix
        outcome = validate_rewire(impl, spec, ops, ["o"])
        assert not outcome.valid

    def test_damaging_rewire_rejected(self):
        impl, spec = self.pair()
        # fixes nothing and breaks the passing output 'keep'
        ops = [RewireOp(Pin.gate("g3", 0), "b")]
        outcome = validate_rewire(impl, spec, ops, ["o"])
        assert not outcome.valid

    def test_original_untouched(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g2", 0), "h1", from_spec=True)]
        validate_rewire(impl, spec, ops, ["o"])
        assert impl.gates["g2"].fanins[0] == "g1"

    def test_cyclic_candidate_rejected_early(self):
        impl, spec = self.pair()
        ops = [RewireOp(Pin.gate("g1", 0), "g2")]
        outcome = validate_rewire(impl, spec, ops, ["o"])
        assert not outcome.valid

    def test_supervised_verdicts_do_not_depend_on_history(self):
        # two patched copies that differ only in the wiring of g
        impl = Circuit("impl")
        impl.add_inputs(["x", "y", "z"])
        impl.set_output("o", impl.and_("x", "y", name="g"))
        spec = Circuit("spec")
        spec.add_inputs(["x", "y", "z"])
        spec.set_output("o", spec.and_("x", "z", name="s"))
        run = RunSupervisor.from_config(EcoConfig())
        verdicts = {}
        for source in ("x", "z"):
            ops = [RewireOp(Pin.gate("g", 1), source)]
            supervised = validate_rewire(impl, spec, ops, ["o"],
                                         run=run)
            alone = validate_rewire(impl, spec, ops, ["o"])
            assert supervised.valid == alone.valid
            assert supervised.fixed == alone.fixed
            verdicts[source] = supervised.valid
        assert verdicts == {"x": False, "z": True}


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
    """`passes` and `passes_batch` must be result-identical to the
    whole-plan walk of `tests/eco/reference.py`."""

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

    def test_batch_matches_scalar_oracle(self):
        for seed in range(12):
            impl = make_random_circuit(seed)
            spec = make_random_circuit(seed + 500)
            rng = random.Random(seed + 31)
            words = [random_patterns(impl.inputs, rng) for _ in range(3)]
            filt = SimulationFilter(impl, spec, words)
            candidates = self._random_candidates(impl, spec, rng, 12)
            target = "y0"
            failing = ["y0", "y1"]
            expected = [reference.whole_plan_passes(filt, ops, target,
                                                    failing)
                        for ops in candidates]
            assert filt.passes_batch(candidates, target, failing) \
                == expected
            assert [filt.passes(ops, target, failing)
                    for ops in candidates] == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_fanout_local_screen_matches_whole_plan_walk(self, seed):
        """Near-miss designs, so most outputs pass and a candidate's
        verdict turns on the outputs it reaches.  Covers port ops,
        multi-op candidates with implementation sources, and `failing`
        lists that omit an output the base circuit already gets
        wrong."""
        spec = make_random_circuit(seed, n_inputs=5, n_gates=30,
                                   n_outputs=4)
        impl = mutate(spec, seed + 1)
        if impl is None:
            return
        rng = random.Random(seed + 2)
        words = [random_patterns(impl.inputs, rng) for _ in range(2)]
        filt = SimulationFilter(impl, spec, words)
        ports = list(impl.outputs)
        candidates = self._random_candidates(impl, spec, rng, 16)
        for _ in range(4):
            target = rng.choice(ports)
            failing = [p for p in ports if rng.random() < 0.5]
            got = filt.passes_batch(candidates, target, failing)
            for ops, ok in zip(candidates, got):
                assert ok == reference.whole_plan_passes(
                    filt, ops, target, failing)
                assert filt.passes(ops, target, failing) == ok
