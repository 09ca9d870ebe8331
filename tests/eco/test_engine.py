"""End-to-end tests of the syseco engine."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.cec.equivalence import check_equivalence, nonequivalent_outputs
from repro.errors import EcoError
from repro.eco.config import EcoConfig
from repro.eco import engine
from repro.eco.engine import SysEco, rectify
from repro.eco.patch import RewireOp
from repro.eco.samples import collect_error_samples
from repro.eco.validate import SimulationFilter
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import CompiledPlan, compiled_plan
from repro.netlist.traverse import levelize, transitive_fanin
from repro.lint.netlist_rules import lint_netlist
from repro.obs.trace import Trace
from repro.sat import Solver
from repro.synth import optimize_heavy, optimize_light
from repro.workloads.figures import example1_circuits, figure1_circuits
from repro.workloads.generators import alu_design, control_design
from repro.workloads.revisions import apply_revision
from repro.workloads.suite import build_suite
from tests.conftest import make_random_circuit
from tests.eco import reference
from tests.eco.test_incremental import mutate


def assert_rectified(result, spec):
    assert lint_netlist(result.patched, deep=False).ok
    assert check_equivalence(result.patched, spec).equivalent is True


class TestSmallEcos:
    def test_single_gate_bug(self):
        spec = Circuit("spec")
        spec.add_inputs(["a", "b", "c"])
        g1 = spec.and_("a", "b", name="g1")
        spec.set_output("o", spec.xor(g1, "c"))
        impl = Circuit("impl")
        impl.add_inputs(["a", "b", "c"])
        h1 = impl.or_("a", "b", name="h1")
        impl.set_output("o", impl.xor(h1, "c"))
        result = rectify(impl, spec, EcoConfig(num_samples=4))
        assert_rectified(result, spec)
        assert len(result.patch.ops) >= 1

    def test_already_equivalent_yields_empty_patch(self, tiny_adder):
        result = rectify(tiny_adder, tiny_adder.copy())
        assert_rectified(result, tiny_adder)
        assert len(result.patch.ops) == 0
        assert result.stats().gates == 0

    def test_figure1_scenario(self):
        impl, spec = figure1_circuits(width=3)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert_rectified(result, spec)
        # the protected signal d keeps its original driver
        assert result.patched.outputs["d"] == impl.outputs["d"]

    def test_example1_scenario(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8,
                                               max_points=2))
        assert_rectified(result, spec)

    def test_multi_output_revision(self):
        spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=3)
        impl = optimize_heavy(spec, seed=7)
        revised = spec.copy()
        apply_revision(revised, "word-redefine", seed=5, max_bits=3)
        revised = optimize_light(revised)
        result = rectify(impl, revised)
        assert_rectified(result, revised)

    def test_two_sample_domain_still_verified(self):
        # two samples leave most candidates indistinguishable: the
        # simulation screen and SAT validation must reject the sampling
        # false positives
        impl, spec = figure1_circuits(width=3)
        result = rectify(impl, spec, EcoConfig(num_samples=2))
        assert_rectified(result, spec)
        assert result.counters.sim_rejects > 0

    def test_per_output_records(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert set(result.per_output)  # every fixed port recorded
        for how in result.per_output.values():
            assert how in ("rewire", "fallback", "fixed-by-earlier")


class TestRevisionKinds:
    @pytest.mark.parametrize("kind", ["gate-type", "wrong-input",
                                      "add-condition", "polarity"])
    def test_each_kind_rectifies(self, kind):
        spec = alu_design(width=3)
        impl = optimize_heavy(spec, seed=11)
        revised = spec.copy()
        apply_revision(revised, kind, seed=9)
        revised = optimize_light(revised)
        result = rectify(impl, revised, EcoConfig(num_samples=8))
        assert_rectified(result, revised)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            EcoConfig(num_samples=0)
        with pytest.raises(ValueError):
            EcoConfig(max_points=0)
        with pytest.raises(ValueError):
            EcoConfig(use_impl_nets=False, use_spec_nets=False)
        with pytest.raises(ValueError):
            EcoConfig(error_bias=1.5)

    def test_interface_mismatch_rejected(self, tiny_adder):
        other = Circuit("other")
        other.add_input("zzz")
        other.set_output("different", "zzz")
        with pytest.raises(EcoError):
            SysEco().rectify(tiny_adder, other)

    def test_spec_only_sources(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, use_impl_nets=False))
        assert_rectified(result, spec)

    def test_level_aware_mode_works(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, level_aware=True))
        assert_rectified(result, spec)

    def test_tiny_bdd_limit_falls_back_gracefully(self, monkeypatch):
        monkeypatch.setattr(engine, "BDD_NODE_LIMIT", 300)
        impl, spec = example1_circuits(width=2)
        trace = Trace(name=impl.name)
        result = rectify(impl, spec, EcoConfig(num_samples=4), trace=trace)
        assert_rectified(result, spec)
        # the cap bound: a search blew up and retried with fewer pins
        assert any(e.name == "bdd.node_limit" for e in trace.events)


class TestRuntimeBookkeeping:
    def test_runtime_recorded(self, tiny_adder):
        result = rectify(tiny_adder, tiny_adder.copy())
        assert result.runtime_seconds >= 0.0

    def test_original_inputs_untouched(self):
        impl, spec = example1_circuits(width=2)
        impl_gates = {k: g.copy() for k, g in impl.gates.items()}
        rectify(impl, spec, EcoConfig(num_samples=8))
        assert impl.gates == impl_gates

    def test_verified_outputs_complete(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert set(result.verified_outputs) == set(spec.outputs)

    def test_rectify_copies_the_implementation_once(self, monkeypatch):
        # validators return verdicts, and the one winning rewire per
        # output is committed in place on the run's private copy
        (case,) = build_suite([2])
        copies = []
        real_copy = Circuit.copy

        def counting_copy(self, *args, **kwargs):
            copies.append(self.name)
            return real_copy(self, *args, **kwargs)

        monkeypatch.setattr(Circuit, "copy", counting_copy)
        result = rectify(case.impl, case.spec)
        assert len(copies) == 1
        assert len(result.patch.ops) >= 1


class TestCandidateScreens:
    @pytest.mark.parametrize("case_id", [9, 10])
    def test_every_screened_candidate_is_used(self, case_id):
        # each candidate that passes the lint screen is either rejected
        # by the simulation screen or validated: the search screens no
        # candidate past the SAT cap of its point-set
        (case,) = build_suite([case_id])
        counters = rectify(case.impl, case.spec).counters
        assert counters.sat_validations > 0
        assert counters.lint_screens - counters.lint_rejects == \
            counters.sim_rejects + counters.sat_validations


class TestFallback:
    def test_fallback_fixes_its_port_without_a_solve(self, monkeypatch):
        # Proposition 1: a port rewired to a clone of its spec cone is
        # fixed by construction, and no other port reads it
        _impl, spec = example1_circuits(width=2)
        port = sorted(spec.outputs)[0]

        def no_solve(self, *args, **kwargs):
            raise AssertionError("the fallback made a solve")

        monkeypatch.setattr(Solver, "solve", no_solve)
        commit = SysEco()._fallback(spec, port)
        assert commit.fixed == (port,)
        assert commit.ops == [
            RewireOp(Pin.output(port), spec.outputs[port], from_spec=True)]


def xor_tree(name: str, width: int, top_xnor: bool) -> Circuit:
    """A balanced XOR tree over ``width`` inputs; gates g0, g1, ...
    level by level from the inputs up."""
    c = Circuit(name)
    level = c.add_inputs([f"x{i}" for i in range(width)])
    gid = 0
    while len(level) > 1:
        nxt = []
        for a, b in zip(level[::2], level[1::2]):
            top = len(level) == 2 and top_xnor
            nxt.append(c.xnor(a, b, name=f"g{gid}") if top
                       else c.xor(a, b, name=f"g{gid}"))
            gid += 1
        level = nxt
    c.set_output("o", level[0])
    return c


class TestCandidatePins:
    def test_selection_independent_of_cone_order(self, monkeypatch):
        # a 2,047-net cone: only the 600 nets nearest the output are
        # scored, and hundreds of them tie on level
        impl = xor_tree("impl", 1024, top_xnor=False)
        spec = xor_tree("spec", 1024, top_xnor=True)
        rng = random.Random(0)
        samples = [{n: bool(rng.getrandbits(1)) for n in impl.inputs}
                   for _ in range(8)]
        cone = sorted(transitive_fanin(impl, [impl.outputs["o"]]))
        assert len(cone) == 2047

        sim = SimulationFilter.for_samples(impl, spec, samples, seed=0)
        picks = []
        for order in (cone, cone[::-1]):
            monkeypatch.setattr(engine, "transitive_fanin",
                                lambda c, roots, order=order: list(order))
            picks.append(SysEco._select_candidate_pins(
                impl, "o", sim, levelize(impl)))
        assert len(picks[0]) == engine.MAX_CANDIDATE_PINS - 1
        assert picks[0] == picks[1]


def ranked_pins(impl, spec, port, samples):
    """The engine's candidate pins of ``port`` for a full pin cap."""
    sim = SimulationFilter.for_samples(impl, spec, samples, seed=0)
    return SysEco._select_candidate_pins(
        impl, port, sim, levelize(impl)) + [Pin.output(port)]


class TestOneSimulationPerOutput:
    """An output search simulates its samples once: the pin ranking,
    the rectification utilities and the screen read the same words."""

    @pytest.mark.parametrize("case_id", range(1, 12))
    def test_ranking_matches_reference_walk(self, case_id):
        (case,) = build_suite([case_id])
        impl, spec = case.impl, case.spec
        levels = levelize(impl)
        ports = nonequivalent_outputs(impl, spec)[:3]
        assert ports
        for port in ports:
            samples = collect_error_samples(impl, spec, port, 16,
                                            random.Random(case_id))
            assert ranked_pins(impl, spec, port, samples) == \
                reference.select_candidate_pins(
                    impl, spec, port, samples,
                    engine.MAX_CANDIDATE_PINS, levels)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.sampled_from([1, 7, 40, 64]))
    @settings(max_examples=40, deadline=None)
    def test_flip_credit_matches_reference_walk(self, seed, n):
        """The near-miss designs of the screen's differential test."""
        spec = make_random_circuit(seed, n_inputs=5, n_gates=30,
                                   n_outputs=4)
        impl = mutate(spec, seed + 1)
        if impl is None:
            return
        rng = random.Random(seed + 2)
        samples = [{x: bool(rng.getrandbits(1)) for x in impl.inputs}
                   for _ in range(n)]
        sim = SimulationFilter.for_samples(impl, spec, samples, seed=0)
        for port in impl.outputs:
            cone = transitive_fanin(impl, [impl.outputs[port]])
            assert sim.flip_credit(port, sorted(cone), cone) == \
                reference.flip_credits(impl, spec, port, samples,
                                       sorted(cone))
            assert ranked_pins(impl, spec, port, samples) == \
                reference.select_candidate_pins(
                    impl, spec, port, samples,
                    engine.MAX_CANDIDATE_PINS, levelize(impl))

    def test_each_plan_runs_once_per_output_search(self, monkeypatch):
        searches = []
        real_run = CompiledPlan.run
        real_search = SysEco._search_at_scale

        def run(self, *args, **kwargs):
            if searches and searches[-1]["open"]:
                searches[-1]["plans"].append(self)
            return real_run(self, *args, **kwargs)

        def search(self, work, spec, *args, **kwargs):
            searches.append({"open": True, "plans": []})
            try:
                return real_search(self, work, spec, *args, **kwargs)
            finally:
                searches[-1]["open"] = False
                searches[-1]["whole"] = (compiled_plan(work),
                                         compiled_plan(spec))

        monkeypatch.setattr(CompiledPlan, "run", run)
        monkeypatch.setattr(SysEco, "_search_at_scale", search)
        (case,) = build_suite([9])
        rectify(case.impl, case.spec)
        assert searches
        for record in searches:
            plans = record["plans"]
            assert [sum(p is whole for p in plans)
                    for whole in record["whole"]] == [1, 1]
            assert len(plans) == 2

    def test_filter_built_once_across_bdd_retries(self, monkeypatch):
        monkeypatch.setattr(engine, "BDD_NODE_LIMIT", 300)
        built = []
        real_init = SimulationFilter.__init__

        def init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SimulationFilter, "__init__", init)
        impl, spec = example1_circuits(width=2)
        trace = Trace(name=impl.name)
        rectify(impl, spec, EcoConfig(num_samples=4), trace=trace)
        searched = {s.tags["output"] for s in trace.spans
                    if s.name == "eco.search"}
        retries = [e for e in trace.events if e.name == "bdd.node_limit"]
        assert retries
        assert len(built) == len(searched)
