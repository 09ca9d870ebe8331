"""Tests for rewiring-choice selection (Xi(c), Example 2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BddManager
from repro.eco import engine
from repro.eco.choices import (
    default_cost,
    enumerate_rewiring_choices,
    make_clone_aware_cost,
)
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.eco.rewiring import RewireCandidate
from repro.eco.sampling import SamplingDomain
from repro.eco.validate import SimulationFilter
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_BITS
from repro.netlist.traverse import transitive_fanin
from repro.workloads.figures import example1_circuits
from repro.workloads.suite import build_suite
from tests.conftest import make_random_circuit
from tests.eco import reference
from tests.eco.test_incremental import failing_outputs, mutate
from tests.eco.test_rewiring import all_samples, build_context


def example2_setup():
    """Pins {q_k select, q_{n+k} select} with S_i = (trivial, c, ~c),
    over the whole input space (128 samples, two sample words)."""
    impl, spec = example1_circuits(width=2)
    sim = SimulationFilter.for_samples(impl, spec, all_samples(impl),
                                       seed=0)
    pins = (Pin.gate("q0", 1), Pin.gate("q2", 1))
    c_word = sim.spec_value("c_new")

    def cand(net, word, trivial=False, from_spec=True):
        return RewireCandidate(net=net, from_spec=from_spec, utility=0.5,
                               word=word, trivial=trivial)

    s1 = [cand("s", sim.value("s"), trivial=True, from_spec=False),
          cand("c_new", c_word), cand("not_c", ~c_word & sim.mask)]
    s2 = [cand("v1", sim.value("v1"), trivial=True, from_spec=False),
          cand("c_new", c_word), cand("not_c", ~c_word & sim.mask)]
    return impl, spec, sim, pins, (s1, s2)


def example2_oracle(impl, spec, pins, cands, limit, cost_fn=None):
    """Example 2 through the BDD oracle, over the whole input space."""
    domain = SamplingDomain(BddManager(), all_samples(impl), impl.inputs)
    spec_z = domain.cast_circuit(spec)
    impl_z = domain.cast_circuit(impl)
    c_fn = spec_z["c_new"]
    not_c = domain.manager.not_(c_fn)
    functions = [[impl_z["s"], c_fn, not_c], [impl_z["v1"], c_fn, not_c]]
    functions = [fns[:len(cs)] for fns, cs in zip(functions, cands)]
    return reference.enumerate_choices(
        impl, "w_0", domain, pins, cands, functions,
        spec_z[spec.outputs["w_0"]], limit=limit, cost_fn=cost_fn)


class TestExample2:
    def test_xi_selects_c_and_not_c(self):
        impl, spec, sim, pins, cands = example2_setup()
        choices = enumerate_rewiring_choices(sim, "w_0", pins, cands,
                                             limit=16)
        # Xi_k = c1^1 & c2^2: the paper's R = q_k/c, q_{n+k}/~c is the
        # one valid choice
        assert [(c1.net, c2.net) for c1, c2 in choices] == \
            [("c_new", "not_c")]

    def test_all_trivial_excluded(self):
        impl, spec, sim, pins, cands = example2_setup()
        choices = enumerate_rewiring_choices(sim, "w_0", pins, cands,
                                             limit=32)
        for choice in choices:
            assert not all(c.trivial for c in choice)

    def test_limit_respected(self):
        impl, spec, sim, pins, cands = example2_setup()
        choices = enumerate_rewiring_choices(sim, "w_0", pins, cands,
                                             limit=1)
        assert len(choices) == 1

    def test_empty_when_no_candidate_fits(self):
        impl, spec, sim, pins, cands = example2_setup()
        # strip the useful candidates; only trivial ones remain
        trimmed = ([cands[0][0]], [cands[1][0]])
        choices = enumerate_rewiring_choices(sim, "w_0", pins, trimmed,
                                             limit=8)
        assert choices == []

    def test_cost_orders_choices(self):
        impl, spec, sim, pins, cands = example2_setup()

        def cost(pin, cand):
            return {"s": 0.0, "v1": 0.0, "c_new": 1.0,
                    "not_c": 5.0}[cand.net]

        choices = enumerate_rewiring_choices(sim, "w_0", pins, cands,
                                             limit=8, cost_fn=cost)
        totals = [sum(cost(p, c) for p, c in zip(pins, ch))
                  for ch in choices]
        assert totals == sorted(totals)

    @pytest.mark.parametrize("trim", [False, True])
    def test_words_match_bdd_oracle(self, trim):
        impl, spec, sim, pins, cands = example2_setup()
        if trim:
            cands = ([cands[0][0]], [cands[1][0]])
        want = example2_oracle(impl, spec, pins, cands, limit=16)
        assert enumerate_rewiring_choices(sim, "w_0", pins, cands,
                                          limit=16) == want
        assert [(c1.net, c2.net) for c1, c2 in want] == \
            ([] if trim else [("c_new", "not_c")])


def samples_of(sim):
    """The samples packed into ``sim``'s leading words, in order."""
    count = sim.sample_mask.bit_length()
    return [{name: bool(sim.words_list[k // WORD_BITS][name]
                        >> (k % WORD_BITS) & 1)
             for name in sim.impl.inputs}
            for k in range(count)]


def oracle_choices(sim, port, pins, candidates, limit=16, cost_fn=None):
    """:func:`reference.enumerate_choices` on a fresh domain over
    ``sim``'s samples."""
    impl, spec = sim.impl, sim.spec
    domain = SamplingDomain(BddManager(), samples_of(sim), impl.inputs)
    spec_out = spec.outputs[port]
    spec_value = domain.cast_circuit(spec, roots=[spec_out])[spec_out]
    functions = reference.candidate_functions(domain, impl, spec,
                                              candidates)
    return reference.enumerate_choices(
        impl, port, domain, pins, candidates, functions, spec_value,
        limit=limit, cost_fn=cost_fn)


class TestWordsMatchBddOracle:
    """Xi(c) on the sample words gives, per point-set, the choice list
    of the BDD construction (`tests/eco/reference.py`)."""

    # every case but 1 and 3, whose oracle runs take seconds each
    @pytest.mark.parametrize("case_id", [2, 4, 5, 6, 7, 8, 9, 10, 11])
    def test_table1_point_sets(self, case_id, monkeypatch):
        real = engine.enumerate_rewiring_choices
        compared = []

        def checked(sim, port, pins, candidates, **kwargs):
            got = real(sim, port, pins, candidates, **kwargs)
            kwargs.pop("trace", None)
            assert got == oracle_choices(sim, port, pins, candidates,
                                         **kwargs), (port, pins)
            compared.append(pins)
            return got

        monkeypatch.setattr(engine, "enumerate_rewiring_choices", checked)
        (case,) = build_suite([case_id])
        rectify(case.impl, case.spec, EcoConfig())
        assert compared

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.sampled_from([1, 6, 16, 23, 64, 100]),
           m=st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_near_miss_designs(self, seed, n, m):
        """The near-miss designs of the screen's differential test, at
        1-3 pins and N below, at and above one word."""
        spec = make_random_circuit(seed, n_inputs=6, n_gates=30,
                                   n_outputs=4)
        impl = mutate(spec, seed + 1)
        if impl is None:
            return
        failing = failing_outputs(impl, spec)
        if not failing:
            return
        rng = random.Random(seed + 2)
        samples = [{x: bool(rng.getrandbits(1)) for x in impl.inputs}
                   for _ in range(n)]
        port = failing[0]
        ctx = build_context(impl, spec, port, samples=samples)
        cone = transitive_fanin(impl, [impl.outputs[port]])
        pool = [Pin.output(port)] + [
            Pin.gate(g, i) for g in impl.gates if g in cone
            for i in range(len(impl.gates[g].fanins))]
        for _ in range(3):
            pins = rng.sample(pool, min(m, len(pool)))
            cands = [ctx.candidates_for_pin(p) for p in pins]
            assert enumerate_rewiring_choices(ctx.sim, port, pins, cands) \
                == oracle_choices(ctx.sim, port, pins, cands)


class TestCostFunctions:
    def test_default_cost_ordering(self):
        triv = RewireCandidate("x", False, 0.0, 0, trivial=True)
        impl_net = RewireCandidate("y", False, 0.5, 0)
        spec_net = RewireCandidate("z", True, 0.5, 0, level=3)
        p = Pin.gate("g", 0)
        assert default_cost(p, triv) < default_cost(p, impl_net)
        assert default_cost(p, impl_net) < default_cost(p, spec_net)

    def test_clone_aware_cost_charges_new_gates_only(self):
        spec = Circuit("s")
        spec.add_inputs(["a", "b"])
        g1 = spec.and_("a", "b", name="g1")
        g2 = spec.not_(g1, name="g2")
        spec.set_output("o", g2)
        p = Pin.gate("x", 0)
        fresh = make_clone_aware_cost(spec, {})
        cached = make_clone_aware_cost(spec, {"g1": "eco$g1"})
        cand = RewireCandidate("g2", True, 0.5, 0)
        assert fresh(p, cand) > cached(p, cand)

    def test_clone_aware_inputs_free(self):
        spec = Circuit("s")
        spec.add_inputs(["a"])
        spec.set_output("o", "a")
        cost = make_clone_aware_cost(spec, {})
        cand = RewireCandidate("a", True, 0.5, 0)
        assert cost(Pin.gate("x", 0), cand) == pytest.approx(1.2)

    def test_level_term_added(self):
        spec = Circuit("s")
        spec.add_inputs(["a"])
        spec.set_output("o", "a")
        cost = make_clone_aware_cost(spec, {},
                                     level_term=lambda p, c: 10.0)
        cand = RewireCandidate("a", False, 0.5, 0)
        assert cost(Pin.gate("x", 0), cand) == pytest.approx(11.0)
