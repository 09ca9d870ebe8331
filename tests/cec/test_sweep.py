"""Tests for SAT sweeping."""


from repro.cec.equivalence import check_equivalence
from repro.cec.sweep import equivalence_classes, prune_dangling, \
    sweep_equivalent_nets
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import simulate_words
from repro.netlist.traverse import topological_order
from repro.sat import Solver
from repro.sat.tseitin import encode_circuit
from tests.conftest import exhaustive_equivalent, make_random_circuit


def redundant_circuit() -> Circuit:
    c = Circuit("red")
    c.add_inputs(["a", "b"])
    c.and_("a", "b", name="g1")
    c.and_("b", "a", name="g2")          # same function as g1
    c.not_(c.or_("a", "b"), name="g3")   # nor
    c.nor("a", "b", name="g4")           # same function as g3
    c.set_output("o1", c.or_("g1", "g3"))
    c.set_output("o2", c.or_("g2", "g4"))
    return c


class TestEquivalenceClasses:
    def test_finds_duplicate_functions(self):
        classes = equivalence_classes(redundant_circuit())
        grouped = {frozenset(cl) for cl in classes}
        assert any({"g1", "g2"} <= g for g in grouped)
        assert any({"g3", "g4"} <= g for g in grouped)

    def test_representative_is_topologically_first(self):
        for cl in equivalence_classes(redundant_circuit()):
            assert cl == sorted(
                cl, key=lambda n: cl.index(n))  # stable order returned

    def test_no_classes_in_irredundant_circuit(self, tiny_adder):
        assert equivalence_classes(tiny_adder) == []


class TestSweep:
    def test_merges_and_preserves_function(self):
        c = redundant_circuit()
        swept, merges = sweep_equivalent_nets(c)
        assert merges >= 2
        assert swept.num_gates < c.num_gates
        assert exhaustive_equivalent(c, swept)

    def test_original_untouched(self):
        c = redundant_circuit()
        before = c.num_gates
        sweep_equivalent_nets(c)
        assert c.num_gates == before

    def test_random_circuits_preserved(self):
        for seed in range(8):
            c = make_random_circuit(seed, n_inputs=5, n_gates=25)
            swept, _ = sweep_equivalent_nets(c)
            assert check_equivalence(c, swept).equivalent, seed

    def test_inputs_never_merged_away(self):
        c = redundant_circuit()
        swept, _ = sweep_equivalent_nets(c)
        assert swept.inputs == c.inputs


class TestPruneDangling:
    def test_removes_dead_logic(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="live")
        c.or_("a", "b", name="dead")
        c.not_("dead", name="dead2")
        c.set_output("o", "live")
        removed = prune_dangling(c)
        assert removed == 2
        assert set(c.gates) == {"live"}

    def test_keeps_everything_reachable(self, tiny_adder):
        assert prune_dangling(tiny_adder) == 0

    def test_drops_derived_data(self):
        # a cached topological order must not outlive the gates it lists
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.set_output("y", c.and_("a", "b", name="y"))
        c.or_("a", "b", name="dead")
        assert "dead" in topological_order(c)
        assert prune_dangling(c) == 1
        assert topological_order(c) == ["y"]
        assert "dead" not in simulate_words(c, {"a": 1, "b": 2})
        varmap = encode_circuit(Solver(), c)
        assert set(varmap) == {"a", "b", "y"}
