"""Unit and property tests for structural hashing."""


from repro.netlist.circuit import Circuit
from repro.netlist.hashing import strash, structural_hash
from tests.conftest import exhaustive_equivalent, make_random_circuit


class TestStructuralHash:
    def test_identical_cones_share_keys(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.and_("a", "b", name="g2")
        c.set_output("o", "g1")
        keys = structural_hash(c)
        assert keys["g1"] == keys["g2"]

    def test_symmetric_fanin_order_ignored(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.and_("b", "a", name="g2")
        keys = structural_hash(c)
        assert keys["g1"] == keys["g2"]

    def test_mux_operand_order_matters(self):
        c = Circuit()
        c.add_inputs(["s", "x", "y"])
        c.mux("s", "x", "y", name="m1")
        c.mux("s", "y", "x", name="m2")
        c.set_output("o", "m1")
        keys = structural_hash(c)
        assert keys["m1"] != keys["m2"]

    def test_different_types_different_keys(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.or_("a", "b", name="g2")
        keys = structural_hash(c)
        assert keys["g1"] != keys["g2"]


class TestStrash:
    def test_merges_duplicates(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.and_("b", "a", name="g2")
        c.or_("g1", "g2", name="g3")
        c.set_output("o", "g3")
        s = strash(c)
        # g2 merged into g1; g3 becomes a single-operand OR -> collapses
        assert "g2" not in s.gates
        assert exhaustive_equivalent(c, s)

    def test_buffer_collapse(self):
        c = Circuit()
        c.add_input("a")
        c.buf("a", name="b1")
        c.set_output("o", "b1")
        s = strash(c)
        assert s.outputs["o"] == "a"
        assert not s.gates

    def test_preserves_function_on_random_circuits(self):
        for seed in range(12):
            c = make_random_circuit(seed, n_inputs=5, n_gates=20)
            s = strash(c)
            assert exhaustive_equivalent(c, s), seed
            assert s.num_gates <= c.num_gates

    def test_idempotent(self):
        c = make_random_circuit(4)
        once = strash(c)
        twice = strash(once)
        assert once.num_gates == twice.num_gates

    def test_keeps_io_names(self):
        c = make_random_circuit(2)
        s = strash(c)
        assert s.inputs == c.inputs
        assert set(s.outputs) == set(c.outputs)
