"""Tests for candidate rewiring-net selection (Section 4.3)."""

import itertools
import random

import pytest

from repro.bdd.manager import BddManager
from repro.eco import rewiring
from repro.eco.config import EcoConfig
from repro.eco.rewiring import RewiringContext
from repro.eco.validate import SimulationFilter
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import (
    input_support,
    levelize,
    nets_within_support,
    transitive_fanin,
)
from tests.conftest import make_random_circuit
from tests.eco import reference
from tests.eco.test_incremental import failing_outputs, mutate


def all_samples(impl):
    inputs = list(impl.inputs)
    return [dict(zip(inputs, bits))
            for bits in itertools.product([False, True],
                                          repeat=len(inputs))]


def build_context(impl, spec, port, config=None, samples=None):
    if samples is None:
        samples = all_samples(impl)
    sim = SimulationFilter.for_samples(impl, spec, samples, seed=0)
    support = input_support(spec, spec.outputs[port])
    return RewiringContext(
        impl, spec, port, sim, config or EcoConfig(),
        nets_within_support(impl, support),
        nets_within_support(spec, support),
        levelize(impl), levelize(spec))


def build_domain(impl, samples=None):
    """The netlist-cast oracle of the sampling domain on a fresh
    manager over ``samples`` (default: the whole input space), as the
    context's samples."""
    return reference.NetlistCast(BddManager(), samples or all_samples(impl),
                                 impl.inputs)


def simple_pair():
    """impl o = (a|b)&c ; spec o = (a&b)&c."""
    impl = Circuit("impl")
    impl.add_inputs(["a", "b", "c", "d"])
    impl.or_("a", "b", name="g1")
    impl.and_("g1", "c", name="g2")
    impl.set_output("o", "g2")
    impl.set_output("keep", impl.and_("c", "d", name="g3"))
    spec = Circuit("spec")
    spec.add_inputs(["a", "b", "c", "d"])
    spec.and_("a", "b", name="h1")
    spec.and_("h1", "c", name="h2")
    spec.set_output("o", "h2")
    spec.set_output("keep", spec.and_("c", "d", name="h3"))
    return impl, spec


class TestCandidatesForPin:
    def test_trivial_candidate_first(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert cands[0].trivial
        assert cands[0].net == "g1"
        assert cands[0].utility == 0.0

    def test_structural_filter_excludes_foreign_support(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        # 'd' is outside the support of f'_o = (a&b)&c
        nets = {c.net for c in ctx.candidates_for_pin(Pin.gate("g2", 0))}
        assert "d" not in nets
        assert "g3" not in nets

    def test_cycle_creating_nets_excluded(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        nets = {c.net for c in ctx.candidates_for_pin(Pin.gate("g1", 0))
                if not c.from_spec}
        assert "g2" not in nets  # g2 is downstream of g1
        assert "g1" not in nets

    def test_spec_output_guaranteed_for_port_pin(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.output("o"))
        assert any(c.from_spec and c.net == "h2" for c in cands)

    def test_utility_values_match_definition(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        # error domain: (a|b)&c != (a&b)&c  <=>  c & (a xor b)
        # at pin g2[0] the driver is g1=a|b; candidate h1=a&b differs
        # from g1 exactly on a xor b, i.e. on ALL error assignments
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        h1 = next(c for c in cands if c.from_spec and c.net == "h1")
        assert h1.utility == pytest.approx(1.0)

    def test_utility_ordering_descending(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        utilities = [c.utility for c in cands[1:]]  # skip trivial
        assert utilities == sorted(utilities, reverse=True)

    def test_unordered_mode(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o",
                            config=EcoConfig(utility_ordering=False))
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert cands[0].trivial  # trivial stays first regardless

    def test_impl_only_source(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o",
                            config=EcoConfig(use_spec_nets=False,
                                             use_impl_nets=True))
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert all(not c.from_spec for c in cands)

    def test_spec_only_source(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o",
                            config=EcoConfig(use_spec_nets=True,
                                             use_impl_nets=False))
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert all(c.from_spec for c in cands[1:])  # trivial is impl

    def test_each_pin_scanned_once(self, monkeypatch):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        scans = []
        real = ctx._candidates_for_pin

        def scan(pin):
            scans.append(pin)
            return real(pin)

        monkeypatch.setattr(ctx, "_candidates_for_pin", scan)
        pin = Pin.gate("g2", 0)
        first = ctx.candidates_for_pin(pin)
        assert ctx.candidates_for_pin(pin) == first
        assert ctx.candidates_for_pin(Pin.output("o"))
        assert scans == [pin, Pin.output("o")]

    def test_max_candidates_respected(self, monkeypatch):
        monkeypatch.setattr(rewiring, "MAX_REWIRE_CANDIDATES", 2)
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert len(cands) <= 1 + 2 + 1  # trivial + cap + spec-output slot


class TestErrorRegion:
    def test_error_count_matches_truth_table(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        # |E| = |c & (a xor b)| over (a,b,c,d) = 2 * 2 = 4
        assert ctx.error_count == 4


class TestUtilityMatchesBddCount:
    """The utilities and the error count are popcounts of the sample
    words; they equal the BDD satisfy counts over the codes of the
    distinct samples, also when the padding codes repeat a sample and
    when the samples fill more than one word.  Bit ``k`` of each
    candidate's word is its cast function at code ``k``."""

    @pytest.mark.parametrize("n", [1, 5, 11, 64, 100])
    def test_popcounts_match_satcount(self, n):
        checked = 0
        for seed in range(12):
            spec = make_random_circuit(seed, n_inputs=8, n_gates=30,
                                       n_outputs=4)
            impl = mutate(spec, seed + 7)
            if impl is None:
                continue
            failing = failing_outputs(impl, spec)
            if not failing:
                continue
            rng = random.Random(seed)
            samples = [{x: bool(rng.getrandbits(1)) for x in impl.inputs}
                       for _ in range(n)]
            port = failing[0]
            ctx = build_context(impl, spec, port, samples=samples)
            domain = build_domain(impl, samples)
            impl_z = domain.cast_circuit(impl)
            spec_z = domain.cast_circuit(spec)
            _, count = reference.bdd_error_region(ctx, domain, impl_z,
                                                  spec_z)
            assert ctx.error_count == count
            fanin = transitive_fanin(impl, [impl.outputs[port]])
            pins = [Pin.output(port)] + [
                Pin.gate(g, i) for g in impl.gates if g in fanin
                for i in range(len(impl.gates[g].fanins))]
            manager = domain.manager
            codes = [reference.code_assignment(domain.z_vars, k)
                     for k in range(n)]
            for pin in pins:
                cands = ctx.candidates_for_pin(pin)
                assert cands == \
                    reference.whole_cast_candidates(ctx, domain, pin)
                for cand in cands:
                    fn = (spec_z if cand.from_spec else impl_z)[cand.net]
                    assert [bool(cand.word >> k & 1) for k in range(n)] \
                        == [manager.evaluate(fn, code) for code in codes]
                checked += 1
        assert checked > 20


class TestPoolMatchesWholeCircuitScan:
    """The per-output pool over cone-local casts gives each pin the
    candidates, utilities and order of the per-pin scan over whole-
    circuit casts (`tests/eco/reference.py`)."""

    @pytest.mark.parametrize("config, cap", [
        (EcoConfig(), None),
        (EcoConfig(utility_ordering=False), None),
        (EcoConfig(use_impl_nets=False), None),
        (EcoConfig(use_spec_nets=False), None),
        (EcoConfig(), 3),
    ], ids=["default", "unordered", "spec-only", "impl-only", "capped"])
    def test_candidates_match_reference(self, config, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(rewiring, "MAX_REWIRE_CANDIDATES", cap)
        checked = 0
        for seed in range(30):
            spec = make_random_circuit(seed, n_inputs=6, n_gates=30,
                                       n_outputs=4)
            impl = mutate(spec, seed + 7)
            if impl is None:
                continue
            failing = failing_outputs(impl, spec)
            if not failing:
                continue
            port = failing[0]
            ctx = build_context(impl, spec, port, config=config)
            domain = build_domain(impl)
            fanin = transitive_fanin(impl, [impl.outputs[port]])
            cone = [g for g in impl.gates if g in fanin]
            pins = [Pin.output(port)] + [
                Pin.gate(g, i) for g in cone
                for i in range(len(impl.gates[g].fanins))]
            for pin in pins:
                got = ctx.candidates_for_pin(pin)
                want = reference.whole_cast_candidates(ctx, domain, pin)
                assert got == want
                checked += 1
        assert checked > 50
