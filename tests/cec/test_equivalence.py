"""Tests for SAT-based equivalence checking."""

import pytest

from repro.errors import NetlistError
from repro.cec.equivalence import (
    PairwiseChecker,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from repro.synth import optimize_heavy
from tests.conftest import make_random_circuit


def two_output_pair():
    left = Circuit("l")
    left.add_inputs(["a", "b", "c"])
    left.set_output("same", left.and_("a", "b"))
    left.set_output("diff", left.or_("a", "c"))
    right = Circuit("r")
    right.add_inputs(["a", "b", "c"])
    right.set_output("same", right.and_("b", "a"))
    right.set_output("diff", right.xor("a", "c"))
    return left, right


class TestCheckEquivalence:
    def test_equivalent_restructured(self):
        c = make_random_circuit(11)
        h = optimize_heavy(c, seed=5)
        result = check_equivalence(c, h)
        assert result.equivalent is True
        assert bool(result)

    def test_counterexample_is_real(self):
        left, right = two_output_pair()
        result = check_equivalence(left, right)
        assert result.equivalent is False
        assert not bool(result)
        cex = result.counterexample
        lv = evaluate_outputs(left, cex)
        rv = evaluate_outputs(right, cex)
        assert any(lv[p] != rv[p] for p in result.failing_outputs)

    def test_failing_outputs_identified(self):
        left, right = two_output_pair()
        result = check_equivalence(left, right)
        assert "diff" in result.failing_outputs
        assert "same" not in result.failing_outputs

    def test_output_subset(self):
        left, right = two_output_pair()
        assert check_equivalence(left, right, outputs=["same"]).equivalent

    def test_no_shared_outputs(self):
        left, _ = two_output_pair()
        right = Circuit("r")
        right.add_input("a")
        right.set_output("other", "a")
        with pytest.raises(NetlistError):
            check_equivalence(left, right)

    def test_missing_output_on_one_side(self):
        left, right = two_output_pair()
        right.set_output("extra", "a")
        with pytest.raises(NetlistError, match="missing on one side"):
            check_equivalence(left, right, outputs=["extra"])


class TestPairwiseChecker:
    def test_budget_unknown(self):
        # a hard miter: two different-looking but equivalent parity trees
        left = make_random_circuit(3, n_inputs=8, n_gates=60, n_outputs=1)
        right = optimize_heavy(left, seed=9)
        result = PairwiseChecker(left, right).check_pair(
            "y0", conflict_budget=1)
        assert result.equivalent in (True, None)

    def test_pairwise(self):
        # one fresh checker per query, as a one-shot caller would build it
        left, right = two_output_pair()
        assert PairwiseChecker(left, right).check_pair(
            "same").equivalent is True
        result = PairwiseChecker(left, right).check_pair("diff")
        assert result.equivalent is False
        assert result.failing_outputs == ("diff",)

    def test_incremental_reuse(self):
        left, right = two_output_pair()
        checker = PairwiseChecker(left, right)
        assert checker.check_pair("same").equivalent is True
        assert checker.check_pair("diff").equivalent is False
        assert checker.check_pair("same").equivalent is True

    def test_missing_port(self):
        left, right = two_output_pair()
        with pytest.raises(NetlistError):
            PairwiseChecker(left, right).check_pair("nope")


class TestNonequivalentOutputs:
    def test_lists_only_bad_ports(self):
        left, right = two_output_pair()
        assert nonequivalent_outputs(left, right) == ["diff"]

    def test_empty_when_equivalent(self):
        c = make_random_circuit(2)
        assert nonequivalent_outputs(c, c.copy()) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_simulation_prepass_is_exact(self, seed):
        """The sim pre-pass must never change the SAT-only verdict."""
        import random

        from repro.netlist.circuit import Pin
        from repro.netlist.traverse import topological_order

        left = make_random_circuit(seed)
        right = left.copy(name="right")
        rng = random.Random(seed + 50)
        names = topological_order(right)
        k = rng.randrange(len(names))
        gate = right.gates[names[k]]
        pool = [n for n in list(right.inputs) + names[:k]
                if n != gate.fanins[0]]
        if pool:
            right.rewire_pin(Pin.gate(names[k], 0), rng.choice(pool))
        assert (nonequivalent_outputs(left, right)
                == nonequivalent_outputs(left, right, sim_rounds=0))
