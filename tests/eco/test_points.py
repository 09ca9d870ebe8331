"""Tests for rectification point-set enumeration (H(t), Figure 2)."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.bdd.manager import FALSE, BddManager
from repro.eco.points import (
    PointSelector,
    compute_h_function,
    feasible_point_sets,
)
from repro.eco.sampling import SamplingDomain
from repro.eco.validate import SimulationFilter
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import transitive_fanin
from repro.workloads.figures import example1_circuits
from tests.conftest import make_random_circuit
from tests.eco import reference
from tests.eco.reference import evaluate_with_pin_overrides


class TestPointSelector:
    def test_variable_allocation(self):
        m = BddManager()
        sel = PointSelector(m, num_points=3, num_pins=4)
        assert sel.bits == 2
        assert [len(word) for word in sel.t_vars] == [2, 2, 2]
        assert len({v for word in sel.t_vars for v in word}) == 6

    def test_single_pin_uses_one_bit(self):
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=1)
        assert sel.bits == 1

    def test_minterm_is_big_endian(self):
        # Figure 2: t_i^2 == ~t_i0 & t_i1 for a 2-bit word... with big
        # endian bits, code 2 = '10' so t0=1, t1=0
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=4)
        t0, t1 = sel.t_vars[0]
        node = sel.minterm(0, 2)
        assert m.evaluate(node, {t0: True, t1: False})
        assert not m.evaluate(node, {t0: False, t1: True})

    def test_minterms_disjoint_and_cached(self):
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=4)
        assert sel.minterm(0, 1) == sel.minterm(0, 1)
        assert m.and_(sel.minterm(0, 1), sel.minterm(0, 2)) == FALSE

    def test_selection_is_or_of_points(self):
        m = BddManager()
        sel = PointSelector(m, num_points=2, num_pins=2)
        sel_j = sel.selection(0)
        expect = m.or_(sel.minterm(0, 0), sel.minterm(1, 0))
        assert sel_j == expect

    def test_validity_excludes_out_of_range_codes(self):
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=3)  # 2 bits, code 3 bad
        valid = sel.validity()
        t0, t1 = sel.t_vars[0]
        assert not m.evaluate(valid, {t0: True, t1: True})
        assert m.evaluate(valid, {t0: True, t1: False})

    def test_decode_cube_full_code(self):
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=4)
        t0, t1 = sel.t_vars[0]
        assert sel.decode_cube({t0: False, t1: True}, 0) == [1]

    def test_decode_cube_with_dont_cares(self):
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=4)
        t0, t1 = sel.t_vars[0]
        assert sel.decode_cube({t0: True}, 0) == [2, 3]
        assert sel.decode_cube({}, 0) == [0, 1, 2, 3]

    def test_decode_cube_respects_pin_range(self):
        m = BddManager()
        sel = PointSelector(m, num_points=1, num_pins=3)
        t0, t1 = sel.t_vars[0]
        assert sel.decode_cube({t0: True}, 0) == [2]


class TestPinOverrides:
    def test_override_replaces_operand(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.set_output("o", c.and_("a", "b", name="g"))
        m = BddManager(3)
        fns = {"a": m.var(0), "b": m.var(1)}
        y = m.var(2)

        def override(pin, node):
            if pin == Pin.gate("g", 0):
                return y
            return node

        out = evaluate_with_pin_overrides(c, m, fns, "g", override)
        assert out == m.and_(y, m.var(1))

    def test_identity_override(self, tiny_adder):
        m = BddManager(3)
        fns = {n: m.var(i) for i, n in enumerate(tiny_adder.inputs)}
        out = evaluate_with_pin_overrides(
            tiny_adder, m, fns, tiny_adder.outputs["sum"],
            lambda pin, node: node)
        # sum = a ^ b ^ cin
        expect = m.xor(m.xor(m.var(0), m.var(1)), m.var(2))
        assert out == expect


def full_domain(impl, spec):
    """A sampling domain enumerating the entire input space."""
    inputs = list(impl.inputs)
    samples = [dict(zip(inputs, bits))
               for bits in itertools.product([False, True],
                                             repeat=len(inputs))]
    sim = SimulationFilter.for_samples(impl, spec, samples, seed=0)
    return SamplingDomain(BddManager(), sim)


class TestExample1:
    """Example 1 of the paper: H_k = t1^k t2^{n+k} | t1^{n+k} t2^k."""

    def test_h_closed_form(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl, spec)
        m = domain.manager
        spec_values = domain.cast_circuit(spec)
        k, n = 0, 2
        # candidate pins: the select inputs of gates q0..q3 (pin 1 each)
        pins = [Pin.gate(f"q{j}", 1) for j in range(2 * n)]
        y_vars = [m.add_var() for _ in range(2)]
        y_nodes = [m.var(v) for v in y_vars]
        from repro.eco.points import PointSelector
        selector = PointSelector(m, 2, len(pins))
        h = compute_h_function(f"w_{k}", domain, pins, y_nodes,
                               selector=selector)
        eq = m.xnor(h, spec_values[spec.outputs[f"w_{k}"]])
        h_t = m.and_(m.forall(m.exists(eq, y_vars), domain.z_vars),
                     selector.validity())
        expect = m.or_(
            m.and_(selector.minterm(0, k), selector.minterm(1, n + k)),
            m.and_(selector.minterm(0, n + k), selector.minterm(1, k)),
        )
        assert h_t == expect

    def test_feasible_point_sets_recover_pair(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl, spec)
        spec_values = domain.cast_circuit(spec)
        n = 2
        pins = [Pin.gate(f"q{j}", 1) for j in range(2 * n)]
        sets = feasible_point_sets(
            "w_0", domain, pins,
            spec_values[spec.outputs["w_0"]], num_points=2)
        assert sets == [(Pin.gate("q0", 1), Pin.gate("q2", 1))]

    def test_no_point_set_when_insufficient(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl, spec)
        spec_values = domain.cast_circuit(spec)
        # only one selectable pin cannot fix w_0 (needs both selects)
        pins = [Pin.gate("q0", 1)]
        sets = feasible_point_sets(
            "w_0", domain, pins,
            spec_values[spec.outputs["w_0"]], num_points=1)
        assert sets == []

    def test_output_port_pin_always_feasible(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl, spec)
        spec_values = domain.cast_circuit(spec)
        pins = [Pin.output("w_0")]
        sets = feasible_point_sets(
            "w_0", domain, pins,
            spec_values[spec.outputs["w_0"]], num_points=1)
        assert sets == [(Pin.output("w_0"),)]


class TestHMatchesFullCone:
    """``h(z, y, t)`` over the wrapped pins' fanout and the sample
    words is the BDD of the whole cone evaluated over ``g(z)``
    (`tests/eco/reference.py`), node for node in one manager."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.sampled_from([1, 3, 16, 64, 100]),
           m=st.sampled_from([1, 2, 3]),
           with_port=st.booleans(), with_outside=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_h_equals_oracle(self, seed, n, m, with_port, with_outside):
        impl = make_random_circuit(seed, n_inputs=6, n_gates=30)
        spec = make_random_circuit(seed + 1, n_inputs=6, n_gates=30)
        rng = random.Random(seed)
        samples = [{x: bool(rng.getrandbits(1)) for x in impl.inputs}
                   for _ in range(n)]
        port = rng.choice(sorted(impl.outputs))
        cone = transitive_fanin(impl, [impl.outputs[port]])
        inside = [Pin.gate(g, i) for g in impl.gates if g in cone
                  for i in range(len(impl.gates[g].fanins))]
        outside = [Pin.gate(g, i) for g in impl.gates if g not in cone
                   for i in range(len(impl.gates[g].fanins))]
        pins = rng.sample(inside, min(m, len(inside)))
        if with_port:
            pins[-1:] = [Pin.output(port)]
        if with_outside and outside:
            pins[:1] = [rng.choice(outside)]
        manager = BddManager()
        sim = SimulationFilter.for_samples(impl, spec, samples, seed=seed)
        domain = SamplingDomain(manager, sim)
        cast = reference.NetlistCast(manager, samples, impl.inputs,
                                     z_vars=domain.z_vars)
        y_nodes = [manager.var(manager.add_var()) for _ in pins]
        selector = PointSelector(manager, len(pins), len(pins))
        assert compute_h_function(port, domain, pins, y_nodes,
                                  selector) == \
            reference.h_function(impl, port, cast, pins, y_nodes, selector)
