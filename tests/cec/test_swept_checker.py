"""The SAT-swept checker against the unswept reference queries."""

import random

import pytest

from repro.cec.equivalence import (
    PairwiseChecker,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import evaluate_outputs
from repro.netlist.traverse import topological_order
from repro.synth import optimize_heavy
from tests.cec.reference import (
    reference_check_equivalence,
    reference_nonequivalent_outputs,
)
from tests.conftest import make_random_circuit


def restructured_pair(seed):
    left = make_random_circuit(seed, n_inputs=7, n_gates=60, n_outputs=5)
    return left, optimize_heavy(left, seed=seed + 7)


def rewire_mutant(seed):
    """A restructured pair with one gate input pin of the right side
    moved to another earlier net (usually not equivalent)."""
    left, right = restructured_pair(seed)
    rng = random.Random(seed + 50)
    names = topological_order(right)
    k = rng.randrange(len(names))
    gate = right.gates[names[k]]
    pool = [n for n in list(right.inputs) + names[:k]
            if n != gate.fanins[0]]
    right.rewire_pin(Pin.gate(names[k], 0), rng.choice(pool))
    return left, right


def renamed(circuit, prefix="r_"):
    """A copy of ``circuit`` whose gate nets all carry new names."""
    copy = Circuit(circuit.name + "_renamed")
    copy.add_inputs(circuit.inputs)
    name = {n: n for n in circuit.inputs}
    for gate in topological_order(circuit):
        g = circuit.gates[gate]
        name[gate] = copy.add_gate(prefix + gate, g.gtype,
                                   [name[f] for f in g.fanins])
    for port, net in circuit.outputs.items():
        copy.set_output(port, name[net])
    return copy


def assert_counterexample(left, right, result):
    assert result.failing_outputs
    lv = evaluate_outputs(left, result.counterexample)
    rv = evaluate_outputs(right, result.counterexample)
    for port in result.failing_outputs:
        assert lv[port] != rv[port], port


def wide_and_against_const0(width=20):
    """Port ``y`` is a wide AND on one side and constant 0 on the other:
    random simulation almost never sets the AND, so the two collide.
    Port ``zero`` is a structural constant 0 on both sides; on the left
    it comes after the AND, which therefore represents their class."""
    left = Circuit("wide")
    xs = left.add_inputs([f"x{i}" for i in range(width)])
    left.set_output("y", left.and_(*xs))
    left.set_output("zero", left.and_("x0", left.not_("x0")))
    left.set_output("z", left.xor("x0", "x1"))
    right = Circuit("const")
    right.add_inputs([f"x{i}" for i in range(width)])
    right.set_output("y", right.const0())
    right.set_output("zero", right.and_(right.not_("x1"), "x1"))
    right.set_output("z", right.xor("x1", "x0"))
    return left, right


PAIRS = ([pytest.param(restructured_pair, s, id=f"heavy-{s}")
          for s in range(10)]
         + [pytest.param(rewire_mutant, s, id=f"mutant-{s}")
            for s in range(14)])


class TestAgainstReference:
    @pytest.mark.parametrize("make,seed", PAIRS)
    def test_verdict_matches_monolithic_miter(self, make, seed):
        left, right = make(seed)
        result = check_equivalence(left, right)
        expected = reference_check_equivalence(left, right)
        assert result.equivalent is expected.equivalent
        if result.equivalent is False:
            assert_counterexample(left, right, result)

    @pytest.mark.parametrize("make,seed", PAIRS)
    def test_failing_list_matches_per_port_loop(self, make, seed):
        left, right = make(seed)
        expected = reference_nonequivalent_outputs(left, right)
        assert nonequivalent_outputs(left, right) == expected
        assert nonequivalent_outputs(left, right, sim_rounds=0) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_output_subsets(self, seed):
        left, right = rewire_mutant(seed)
        ports = sorted(left.outputs)[1::2]
        result = check_equivalence(left, right, outputs=ports)
        expected = reference_check_equivalence(left, right, outputs=ports)
        assert result.equivalent is expected.equivalent
        if result.equivalent is False:
            assert set(result.failing_outputs) <= set(ports)
            assert_counterexample(left, right, result)
        assert (nonequivalent_outputs(left, right, outputs=ports)
                == reference_nonequivalent_outputs(left, right, ports))


class TestSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_restructured_cones_are_proven(self, seed):
        left, right = restructured_pair(seed)
        checker = PairwiseChecker(left, right)
        ports = sorted(left.outputs)
        assert checker.sweep(ports) == []
        assert checker.merged > 0
        # the tie clauses are implied: per-port verdicts are unchanged
        for port in ports:
            assert checker.check_pair(port).equivalent is True

    @pytest.mark.parametrize("seed", range(3))
    def test_every_net_of_a_renamed_copy_merges(self, seed):
        left = make_random_circuit(seed, n_inputs=7, n_gates=60,
                                   n_outputs=5)
        right = renamed(optimize_heavy(left, seed=seed))
        checker = PairwiseChecker(left, right)
        assert checker.sweep(sorted(left.outputs)) == []
        # one tie per right-side cone gate not already sharing a var
        # (buffers do); nothing refuted or left undecided
        assert checker.merged >= sum(
            1 for g in right.gates.values() if g.gtype.name != "BUF") // 2
        assert checker.undecided == 0

    def test_complemented_nets_merge(self):
        left = Circuit("l")
        left.add_inputs(["a", "b", "c"])
        left.set_output("y", left.or_(left.nand("a", "b"), "c"))
        right = Circuit("r")
        right.add_inputs(["a", "b", "c"])
        right.set_output("y", right.or_(right.not_(right.and_("a", "b")),
                                        "c"))
        checker = PairwiseChecker(left, right)
        assert checker.sweep(["y"]) == []
        assert checker.refuted == checker.undecided == 0

    def test_sweep_leaves_real_differences_open(self):
        left, right = restructured_pair(3)
        right.set_output("y0", right.not_(right.outputs["y0"]))
        checker = PairwiseChecker(left, right)
        assert "y0" in checker.sweep(sorted(left.outputs))
        assert checker.check_pair("y0").equivalent is False


class TestRefinement:
    def test_colliding_constant_is_refuted(self):
        left, right = wide_and_against_const0()
        checker = PairwiseChecker(left, right)
        # the refuting pattern splits the AND from the constants, so
        # both constants then merge with the left one
        assert checker.sweep(["y", "zero", "z"]) == ["y"]
        assert checker.refuted >= 1
        assert nonequivalent_outputs(left, right) == ["y"]
        assert nonequivalent_outputs(left, right, sim_rounds=0) == ["y"]
        result = check_equivalence(left, right)
        assert result.equivalent is False
        assert result.failing_outputs == ("y",)
        assert_counterexample(left, right, result)

    def test_sweep_visits_only_the_compared_cones(self):
        left, right = wide_and_against_const0()
        checker = PairwiseChecker(left, right)
        # the colliding AND and constants lie outside z's cone
        assert checker.sweep(["z"]) == []
        assert checker.merged == 1 and checker.refuted == 0
        assert check_equivalence(left, right, outputs=["z"]).equivalent


class TestBudget:
    @pytest.mark.parametrize("make,seed", PAIRS[::3])
    def test_tiny_budget_is_never_wrong(self, make, seed):
        left, right = make(seed)
        expected = reference_check_equivalence(left, right).equivalent
        result = check_equivalence(left, right, conflict_budget=1)
        assert result.equivalent in (expected, None)
        if result.equivalent is False:
            assert_counterexample(left, right, result)


class TestMissingPorts:
    def setup_method(self):
        self.left = make_random_circuit(4)
        self.right = self.left.copy()
        self.right.set_output("extra", self.right.outputs["y0"])

    @pytest.mark.parametrize("sim_rounds", [8, 0])
    def test_nonequivalent_outputs(self, sim_rounds):
        with pytest.raises(NetlistError, match="'extra' missing"):
            nonequivalent_outputs(self.left, self.right,
                                  outputs=["y0", "extra"],
                                  sim_rounds=sim_rounds)
        with pytest.raises(NetlistError, match="'extra' missing"):
            nonequivalent_outputs(self.right, self.left,
                                  outputs=["extra"],
                                  sim_rounds=sim_rounds)

    def test_check_equivalence(self):
        with pytest.raises(NetlistError, match="'extra' missing"):
            check_equivalence(self.left, self.right, outputs=["extra"])
        # the default compares the shared ports only
        assert check_equivalence(self.left, self.right).equivalent is True
