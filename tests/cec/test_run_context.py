"""One equivalence context reused across a run's checks.

The engine keeps diagnosis's checker alive through patch-input
refinement and final verification, rebinding its left side to each
new circuit.  These tests pin the reused checker to the unswept
reference queries, check that a reused net name never aliases another
function, and pin refinement through the run's context to the
refinement every candidate pair paid a fresh solver for.
"""

import pytest

from repro.cec.equivalence import (
    PairwiseChecker,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.cec.sweep import prune_dangling
from repro.eco import engine
from repro.eco.config import EcoConfig
from repro.eco.sweep import refine_patch_inputs
from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import Gate, GateType
from repro.netlist.simulate import compiled_plan, signature
from repro.netlist.traverse import topological_order, transitive_fanout
from repro.sat import Solver, UNSAT
from repro.sat.tseitin import CircuitEncoder
from repro.synth import optimize_heavy
from repro.workloads.suite import build_case
from tests.cec.reference import (
    reference_check_equivalence,
    reference_nonequivalent_outputs,
)
from tests.cec.test_swept_checker import (
    PAIRS,
    assert_counterexample,
    rewire_mutant,
    wide_and_against_const0,
)
from tests.conftest import make_random_circuit

SWAPS = {
    GateType.AND: GateType.OR, GateType.OR: GateType.AND,
    GateType.NAND: GateType.NOR, GateType.NOR: GateType.NAND,
    GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
}


def retyped(circuit, name, gtype):
    """A copy of ``circuit`` whose gate ``name`` computes ``gtype``."""
    copy = circuit.copy()
    copy.gates[name] = Gate(name, gtype, circuit.gates[name].fanins)
    return copy


def rewired(circuit, name, pin, net):
    """A copy of ``circuit`` with one gate input pin moved to ``net``."""
    copy = circuit.copy()
    copy.rewire_pin(Pin.gate(name, pin), net)
    return copy


def second_left(kind, left, right, seed):
    """Another left circuit to verify after diagnosing ``left``."""
    if kind == "restructured":
        return optimize_heavy(left, seed=seed + 11)
    if kind == "spec":
        return right.copy()
    # one more single-pin rewire of the diagnosed left side
    names = topological_order(left)
    gate = left.gates[names[len(names) // 2]]
    pool = [n for n in left.inputs if n != gate.fanins[0]]
    return rewired(left, gate.name, 0, pool[seed % len(pool)])


def assert_verdict_matches_reference(checker, left, right):
    result = check_equivalence(left, right, context=checker)
    expected = reference_check_equivalence(left, right)
    assert result.equivalent is expected.equivalent
    if result.equivalent is False:
        assert_counterexample(left, right, result)
    return result


class TestDifferential:
    @pytest.mark.parametrize("kind", ["restructured", "spec", "rewired"])
    @pytest.mark.parametrize("make,seed", PAIRS)
    def test_second_left_matches_reference(self, make, seed, kind):
        left, right = make(seed)
        checker = PairwiseChecker(left, right)
        assert (nonequivalent_outputs(left, right, context=checker)
                == reference_nonequivalent_outputs(left, right))
        other = second_left(kind, left, right, seed)
        assert_verdict_matches_reference(checker, other, right)
        assert (nonequivalent_outputs(other, right, sim_rounds=0,
                                      context=checker)
                == reference_nonequivalent_outputs(other, right))

    @pytest.mark.parametrize("make,seed", PAIRS[::4] + [
        pytest.param(lambda seed: wide_and_against_const0(), 0,
                     id="wide-and")])
    def test_signatures_follow_the_added_patterns(self, make, seed):
        """A refuting model extends every signature by one bit, equal
        to what simulating the new pattern gives."""
        left, right = make(seed)
        other = right.copy()
        checker = PairwiseChecker(left, right)
        check_equivalence(left, right, context=checker)
        check_equivalence(other, right, context=checker)
        mask = (1 << checker._width) - 1
        for circuit in (left, other, right):
            varmap = checker.rebind(circuit)
            plan = compiled_plan(circuit)
            values = plan.run(checker._words, mask)
            for name, value in zip(plan.names, values):
                assert checker._sig[varmap[name]] == value, name
        if left.name == "wide":
            assert checker.refuted >= 1

    def test_other_right_side_rejected(self):
        left, right = rewire_mutant(0)
        checker = PairwiseChecker(left, right)
        with pytest.raises(NetlistError, match="another right circuit"):
            check_equivalence(left, right.copy(), context=checker)


def three_gate_pair():
    left = Circuit("l")
    left.add_inputs(["a", "b", "c"])
    left.add_gate("g1", GateType.AND, ["a", "b"])
    left.add_gate("g2", GateType.OR, ["g1", "c"])
    left.add_gate("g3", GateType.XOR, ["g1", "c"])
    left.set_output("y", "g2")
    left.set_output("w", "g3")
    return left, left.copy()


class TestNameReuse:
    """A net name encoded before may now drive another function."""

    def test_changed_gate_under_same_name(self):
        left, right = three_gate_pair()
        checker = PairwiseChecker(left, right)
        assert nonequivalent_outputs(left, right, sim_rounds=0,
                                     context=checker) == []
        for copy in (retyped(left, "g1", GateType.OR),
                     rewired(left, "g1", 1, "c")):
            result = check_equivalence(copy, right, context=checker)
            assert result.equivalent is False
            assert_counterexample(copy, right, result)
        # and back: the original left is still proven equivalent
        assert check_equivalence(left, right, context=checker).equivalent

    @pytest.mark.parametrize("seed", range(6))
    def test_random_retyped_and_rewired_gates(self, seed):
        left = make_random_circuit(seed, n_inputs=7, n_gates=60,
                                   n_outputs=5)
        right = optimize_heavy(left, seed=seed + 7)
        checker = PairwiseChecker(left, right)
        assert nonequivalent_outputs(left, right, context=checker) == []
        names = [n for n in topological_order(left)
                 if left.gates[n].gtype in SWAPS]
        nonequivalent = 0
        for name in names[::4]:
            gate = left.gates[name]
            copies = [retyped(left, name, SWAPS[gate.gtype])]
            pool = [n for n in left.inputs if n not in gate.fanins]
            if pool:
                copies.append(rewired(left, name, 0, pool[0]))
            for copy in copies:
                result = assert_verdict_matches_reference(
                    checker, copy, right)
                nonequivalent += result.equivalent is False
        assert nonequivalent > 0


class TestStaleDiffLiteral:
    def test_port_literal_rebuilt_for_new_left(self):
        left = Circuit("l")
        left.add_inputs(["a", "b"])
        left.set_output("y", left.and_("a", "b"))
        right = left.copy()
        checker = PairwiseChecker(left, right)
        assert checker.check_pair("y").equivalent is True
        old = checker.diff_literal("y")
        other = Circuit("o")
        other.add_inputs(["a", "b"])
        other.set_output("y", other.or_("a", "b"))
        result = check_equivalence(other, right, context=checker)
        assert result.equivalent is False
        assert result.failing_outputs == ("y",)
        assert_counterexample(other, right, result)
        assert checker.diff_literal("y") != old
        assert checker.check_pair("y").equivalent is False


# ----------------------------------------------------------------------
# patch-input refinement through the run's context
# ----------------------------------------------------------------------
def reference_refine(patched, cloned_gates, queries, rounds=4, seed=97,
                     conflict_budget=20000):
    """Refinement with one budgeted query per candidate pair on a fresh
    solver over a plain encoding, as before refinement took a context;
    ``queries`` receives one entry per query."""
    alive = {g for g in cloned_gates if g in patched.gates}
    if not alive:
        return 0, set()
    sigs = signature(patched, rounds=rounds, seed=seed)
    by_sig = {}
    for net, sig in sigs.items():
        if net not in alive:
            by_sig.setdefault(sig, []).append(net)
    solver = Solver()
    encoder = CircuitEncoder(solver)
    varmap = encoder.encode(patched)
    replacements = 0
    for clone in sorted(alive, key=lambda g: -len(patched.gates[g].fanins)):
        if clone not in patched.gates or not patched.sinks(clone):
            continue
        for candidate in by_sig.get(sigs[clone], ()):
            if candidate in transitive_fanout(patched, [clone]):
                continue
            neq = encoder._encode_xor2(varmap[clone], varmap[candidate])
            queries.append((clone, candidate))
            if solver.solve(assumptions=[neq],
                            conflict_budget=conflict_budget) == UNSAT:
                patched.replace_net(clone, candidate)
                replacements += 1
                break
    if replacements:
        prune_dangling(patched)
    return replacements, {g for g in alive if g in patched.gates}


def netlist(circuit):
    return (list(circuit.inputs), dict(circuit.outputs),
            {n: (g.gtype, list(g.fanins)) for n, g in circuit.gates.items()})


class TestRefinement:
    #: the Table-1 cases whose refinement makes SAT queries
    @pytest.mark.parametrize("case_id", [1, 3, 6, 7, 8])
    def test_context_gives_the_same_refinement(self, case_id, monkeypatch):
        runs, queries = [], []

        def refine_three_ways(patched, cloned_gates, **kwargs):
            cloned = set(cloned_gates)
            fresh, reference = patched.copy(), patched.copy()
            solves = kwargs["context"].solves
            result = refine_patch_inputs(patched, cloned_gates, **kwargs)
            runs.append({
                "context": (result, netlist(patched)),
                "context_solves": kwargs["context"].solves - solves,
                "fresh": (refine_patch_inputs(fresh, cloned,
                                              seed=kwargs["seed"]),
                          netlist(fresh)),
                "reference": (reference_refine(reference, cloned, queries,
                                               seed=kwargs["seed"]),
                              netlist(reference)),
            })
            return result

        monkeypatch.setattr(engine, "refine_patch_inputs",
                            refine_three_ways)
        case = build_case(case_id)
        engine.SysEco(EcoConfig()).rectify(case.impl, case.spec)
        [run] = runs
        assert queries
        assert run["context"] == run["reference"]
        assert run["fresh"] == run["reference"]
        # tied pairs skip the solver; no pair needs more than one query
        assert run["context_solves"] <= len(queries)
