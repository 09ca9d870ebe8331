"""Bit-equivalence of :class:`CompiledPlan` against the reference walk.

The compiled simulation plan is a pure performance device: every test
here pins its results to the per-gate dictionary walk of
:mod:`tests.netlist.reference`, on whole circuits, output cones and
multi-word batches, plus the derived-cache lifecycle (plans recompile
after any mutation and never ship across pickling).
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_BITS, WORD_MASK
from repro.netlist.simulate import (
    batch_mask,
    compiled_plan,
    patterns_to_words,
    random_patterns,
    signature,
    simulate,
    words_to_patterns,
)
from repro.netlist.traverse import topological_order, transitive_fanin
from tests.conftest import make_random_circuit
from tests.netlist.reference import (
    reference_signature,
    reference_simulate_words,
)


class TestPlanEquivalence:
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_run_matches_reference_walk(self, seed):
        c = make_random_circuit(seed)
        words = random_patterns(c.inputs, random.Random(seed + 1))
        ref = reference_simulate_words(c, words)
        got = compiled_plan(c).run_dict(words)
        for net, value in ref.items():
            assert got[net] == value

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=20, deadline=None)
    def test_multiword_batch_matches_per_word_lanes(self, seed):
        c = make_random_circuit(seed)
        rng = random.Random(seed + 2)
        rounds = 3
        word_sets = [random_patterns(c.inputs, rng) for _ in range(rounds)]
        batched = {n: 0 for n in c.inputs}
        for r, words in enumerate(word_sets):
            for name, word in words.items():
                batched[name] |= word << (WORD_BITS * r)
        values = compiled_plan(c).run_dict(batched, mask=batch_mask(rounds))
        for r, words in enumerate(word_sets):
            ref = reference_simulate_words(c, words)
            for net, value in ref.items():
                lane = (values[net] >> (WORD_BITS * r)) & WORD_MASK
                assert lane == value

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_signature_batched_matches_reference(self, seed):
        c = make_random_circuit(seed)
        ref = reference_signature(c, rounds=4, seed=7)
        assert signature(c, rounds=4, seed=7) == ref

    def test_cone_plan_matches_full_simulation(self):
        c = make_random_circuit(11)
        root = c.outputs["y0"]
        plan = compiled_plan(c, roots=[root])
        cone = transitive_fanin(c, [root])
        assert set(plan.names) <= cone
        words = random_patterns(c.inputs, random.Random(3))
        full = reference_simulate_words(c, words)
        values = plan.run_dict(words)
        for net, value in values.items():
            assert value == full[net]

    def test_plan_counts_evals(self):
        c = make_random_circuit(12)
        plan = compiled_plan(c)
        assert plan.evals == 0
        words = random_patterns(c.inputs, random.Random(0))
        plan.run(words)
        plan.run(words)
        assert plan.evals == 2


class TestDerivedCacheLifecycle:
    def test_plan_and_topo_order_are_cached(self):
        c = make_random_circuit(13)
        assert compiled_plan(c) is compiled_plan(c)
        assert topological_order(c) is topological_order(c)

    def test_cone_plans_cached_separately(self):
        c = make_random_circuit(14)
        root = c.outputs["y1"]
        whole = compiled_plan(c)
        cone = compiled_plan(c, roots=[root])
        assert cone is not whole
        assert compiled_plan(c, roots=[root]) is cone

    def test_mutation_invalidates_and_recompiles(self):
        c = make_random_circuit(15)
        stale_plan = compiled_plan(c)
        stale_order = topological_order(c)
        gname = list(c.gates)[-1]
        # rewiring to a primary input can never create a cycle
        c.rewire_pin(Pin.gate(gname, 0), c.inputs[0])
        assert compiled_plan(c) is not stale_plan
        assert topological_order(c) is not stale_order
        words = random_patterns(c.inputs, random.Random(4))
        ref = reference_simulate_words(c, words)
        got = compiled_plan(c).run_dict(words)
        for net, value in ref.items():
            assert got[net] == value

    def test_pickling_strips_derived_cache(self):
        c = make_random_circuit(16)
        compiled_plan(c)
        topological_order(c)
        assert c.derived_cache()
        clone = pickle.loads(pickle.dumps(c))
        assert clone.derived_cache() == {}
        words = random_patterns(c.inputs, random.Random(5))
        assert (compiled_plan(clone).run_dict(words)
                == compiled_plan(c).run_dict(words))

    def test_plan_itself_pickles(self):
        c = make_random_circuit(17)
        plan = compiled_plan(c)
        clone = pickle.loads(pickle.dumps(plan))
        words = random_patterns(c.inputs, random.Random(6))
        assert clone.run(words) == plan.run(words)


class TestSimulationEntryPoints:
    def test_simulate_missing_input_raises(self):
        c = Circuit("c")
        a, b = c.add_inputs(["a", "b"])
        c.set_output("o", c.and_(a, b, name="g"))
        with pytest.raises(NetlistError):
            simulate(c, {"a": True})

    def test_simulate_single_assignment_matches_plan(self):
        c = make_random_circuit(18)
        assignment = {n: bool(i % 2) for i, n in enumerate(c.inputs)}
        values = simulate(c, assignment)
        words = {n: WORD_MASK if v else 0 for n, v in assignment.items()}
        ref = reference_simulate_words(c, words)
        for net, value in values.items():
            assert value == bool(ref[net] & 1)

    def test_patterns_to_words_roundtrip(self):
        c = make_random_circuit(19)
        rng = random.Random(7)
        patterns = [{n: bool(rng.getrandbits(1)) for n in c.inputs}
                    for _ in range(10)]
        words = patterns_to_words(c.inputs, patterns)
        assert words_to_patterns(c.inputs, words, len(patterns)) == patterns

    def test_patterns_to_words_rejects_overflow(self):
        c = make_random_circuit(20)
        patterns = [{n: False for n in c.inputs}] * (WORD_BITS + 1)
        with pytest.raises(NetlistError):
            patterns_to_words(c.inputs, patterns)
