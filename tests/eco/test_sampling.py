"""Tests for the symbolic sampling domain."""

import pytest

from repro.errors import EcoError
from repro.bdd.manager import BddManager
from repro.eco.sampling import SamplingDomain
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from tests.conftest import make_random_circuit


def make_domain(samples, inputs):
    return SamplingDomain(BddManager(), samples, inputs)


class TestConstruction:
    def test_empty_samples_rejected(self):
        with pytest.raises(EcoError):
            make_domain([], ["a"])

    def test_z_variable_count(self):
        inputs = ["a"]
        s = {"a": True}
        assert len(make_domain([s], inputs).z_vars) == 1
        assert len(make_domain([s] * 2, inputs).z_vars) == 1
        assert len(make_domain([s] * 3, inputs).z_vars) == 2
        assert len(make_domain([s] * 5, inputs).z_vars) == 3

    def test_missing_input_in_sample(self):
        with pytest.raises(EcoError):
            make_domain([{"a": True}], ["a", "b"])

    def test_padding_repeats_last_sample(self):
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = make_domain(samples, ["a"])
        assert len(d.samples) == 4
        assert d.samples[3] == samples[-1]


class TestSamplingFunction:
    def test_g_maps_codes_to_samples(self):
        samples = [
            {"a": True, "b": False},
            {"a": False, "b": False},
            {"a": True, "b": True},
        ]
        d = make_domain(samples, ["a", "b"])
        m = d.manager
        for k, sample in enumerate(samples):
            # evaluate g_i at the assignment encoding sample k
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            for name in ("a", "b"):
                got = m.evaluate(d.input_functions[name], assignment)
                assert got == sample[name], (k, name)

    def test_sample_of_assignment_roundtrip(self):
        samples = [{"a": bool(k & 1), "b": bool(k & 2)} for k in range(4)]
        d = make_domain(samples, ["a", "b"])
        m = d.manager
        for k in range(4):
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            assert d.sample_of_assignment(assignment) == samples[k]


class TestCastCircuit:
    def test_cast_matches_per_sample_simulation(self):
        c = make_random_circuit(6, n_inputs=4, n_gates=15)
        import random
        rng = random.Random(1)
        samples = [{n: bool(rng.getrandbits(1)) for n in c.inputs}
                   for _ in range(6)]
        d = make_domain(samples, c.inputs)
        values = d.cast_circuit(c)
        m = d.manager
        for k, sample in enumerate(samples):
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            sim = evaluate_outputs(c, sample)
            for port, net in c.outputs.items():
                assert m.evaluate(values[net], assignment) == sim[port]

    def test_extra_inputs_default_false(self):
        c = Circuit()
        c.add_inputs(["a", "extra"])
        c.set_output("o", c.or_("a", "extra"))
        d = make_domain([{"a": True}, {"a": False}], ["a"])
        values = d.cast_circuit(c)
        m = d.manager
        # with extra=False, o == a on the domain
        assert values[c.outputs["o"]] == d.input_functions["a"]
