"""Tests for the symbolic sampling domain."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EcoError
from repro.bdd.manager import BddManager
from repro.eco.sampling import SamplingDomain
from repro.eco.validate import SimulationFilter
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from tests.conftest import make_random_circuit
from tests.eco.reference import NetlistCast, code_assignment, code_cube


def make_domain(samples, circuit, manager=None):
    sim = SimulationFilter.for_samples(circuit, circuit, samples, seed=0)
    return SamplingDomain(manager or BddManager(), sim)


def single_input(name="a"):
    c = Circuit()
    c.add_inputs([name])
    c.set_output("o", c.buf(name))
    return c


class TestConstruction:
    def test_empty_samples_rejected(self):
        with pytest.raises(EcoError):
            make_domain([], single_input())

    def test_z_variable_count(self):
        c = single_input()
        s = {"a": True}
        assert len(make_domain([s], c).z_vars) == 1
        assert len(make_domain([s] * 2, c).z_vars) == 1
        assert len(make_domain([s] * 3, c).z_vars) == 2
        assert len(make_domain([s] * 5, c).z_vars) == 3

    def test_missing_input_in_sample(self):
        # samples are packed into the filter's words, which need every
        # input of the circuit
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.set_output("o", c.and_("a", "b"))
        with pytest.raises(KeyError):
            make_domain([{"a": True}], c)

    def test_padding_repeats_last_sample(self):
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = make_domain(samples, single_input())
        m = d.manager
        assert d.num_samples == 3
        # code 3 repeats the last sample: a holds at codes 0, 2, 3
        want = m.or_(*(code_cube(m, d.z_vars, k) for k in (0, 2, 3)))
        assert d.cast_circuit(d.sim.impl, roots=["a"])["a"] == want
        assert d.function_of(0b101) == want

    def test_nodes_independent_of_input_count(self):
        made = []
        for n_inputs in (4, 64, 512):
            c = Circuit()
            c.add_inputs([f"x{i}" for i in range(n_inputs)])
            c.set_output("o", c.and_("x0", "x1"))
            rng = random.Random(n_inputs)
            samples = [{x: bool(rng.getrandbits(1)) for x in c.inputs}
                       for _ in range(16)]
            m = BddManager()
            before = m.num_nodes
            d = make_domain(samples, c, manager=m)
            made.append(m.num_nodes - before)
            assert made[-1] <= 2 ** (len(d.z_vars) + 1)
        assert len(set(made)) == 1


class TestSamplingFunction:
    def test_g_maps_codes_to_samples(self):
        samples = [
            {"a": True, "b": False},
            {"a": False, "b": False},
            {"a": True, "b": True},
        ]
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.set_output("o", c.or_("a", "b"))
        d = make_domain(samples, c)
        g = d.cast_circuit(c, roots=["a", "b"])
        for k, sample in enumerate(samples):
            # evaluate g_i at the assignment encoding sample k
            assignment = code_assignment(d.z_vars, k)
            for name in ("a", "b"):
                got = d.manager.evaluate(g[name], assignment)
                assert got == sample[name], (k, name)

    def test_function_of_reads_sample_bits(self):
        d = make_domain([{"a": False}] * 5, single_input())
        m = d.manager
        for word in range(32):
            fn = d.function_of(word | 1 << 40)  # bits past N are ignored
            for k in range(8):
                want = bool(word >> min(k, 4) & 1)
                assert m.evaluate(fn, code_assignment(d.z_vars, k)) == want


class TestCastCircuit:
    def test_cast_matches_per_sample_simulation(self):
        c = make_random_circuit(6, n_inputs=4, n_gates=15)
        rng = random.Random(1)
        samples = [{n: bool(rng.getrandbits(1)) for n in c.inputs}
                   for _ in range(6)]
        d = make_domain(samples, c)
        values = d.cast_circuit(c)
        m = d.manager
        for k, sample in enumerate(samples):
            assignment = code_assignment(d.z_vars, k)
            sim = evaluate_outputs(c, sample)
            for port, net in c.outputs.items():
                assert m.evaluate(values[net], assignment) == sim[port]

    def test_foreign_circuit_rejected(self):
        d = make_domain([{"a": True}], single_input())
        with pytest.raises(EcoError):
            d.cast_circuit(single_input())

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.sampled_from([1, 2, 3, 5, 16, 64, 65, 100]))
    @settings(max_examples=40, deadline=None)
    def test_words_match_netlist_cast(self, seed, n):
        """Every net of both circuits, read off its word, is the BDD the
        netlist cast over ``g(z)`` builds, node for node."""
        impl = make_random_circuit(seed, n_inputs=6, n_gates=30)
        spec = make_random_circuit(seed + 1, n_inputs=6, n_gates=30)
        rng = random.Random(seed)
        samples = [{x: bool(rng.getrandbits(1)) for x in impl.inputs}
                   for _ in range(n)]
        m = BddManager()
        sim = SimulationFilter.for_samples(impl, spec, samples, seed=seed)
        domain = SamplingDomain(m, sim)
        oracle = NetlistCast(m, samples, impl.inputs, z_vars=domain.z_vars)
        for circuit in (impl, spec):
            assert domain.cast_circuit(circuit) == \
                oracle.cast_circuit(circuit)
