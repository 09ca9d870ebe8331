"""Unit tests for the Circuit data model and Pin."""

import pytest

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import GateType


@pytest.fixture
def small() -> Circuit:
    c = Circuit("small")
    c.add_inputs(["a", "b"])
    c.and_("a", "b", name="g1")
    c.or_("g1", "a", name="g2")
    c.set_output("o", "g2")
    return c


class TestConstruction:
    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_input("a")

    def test_gate_name_collision_with_input(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_gate("a", GateType.NOT, ["a"])

    def test_gate_fanin_must_exist(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.and_("a", "ghost")

    def test_output_net_must_exist(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.set_output("o", "ghost")

    def test_output_can_observe_input(self):
        c = Circuit()
        c.add_input("a")
        c.set_output("o", "a")
        assert c.outputs["o"] == "a"

    def test_fresh_names_avoid_collisions(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("n0", GateType.NOT, ["a"])
        auto = c.not_("a")
        assert auto != "n0"
        assert auto in c.gates

    def test_builder_helpers_cover_all_types(self, small):
        c = small
        assert c.gates[c.xor("a", "b")].gtype is GateType.XOR
        assert c.gates[c.nand("a", "b")].gtype is GateType.NAND
        assert c.gates[c.nor("a", "b")].gtype is GateType.NOR
        assert c.gates[c.xnor("a", "b")].gtype is GateType.XNOR
        assert c.gates[c.mux("a", "b", "g1")].gtype is GateType.MUX
        assert c.gates[c.buf("a")].gtype is GateType.BUF
        assert c.gates[c.const0()].gtype is GateType.CONST0
        assert c.gates[c.const1()].gtype is GateType.CONST1


class TestQueries:
    def test_counts(self, small):
        assert small.num_gates == 2
        assert small.num_nets == 4  # 2 inputs + 2 gates
        # sinks: g1 has 2 fanins, g2 has 2 fanins, output port 1
        assert small.num_sinks == 5

    def test_sinks_of_input(self, small):
        sinks = small.sinks("a")
        assert Pin.gate("g1", 0) in sinks
        assert Pin.gate("g2", 1) in sinks
        assert len(sinks) == 2

    def test_sinks_includes_output_port(self, small):
        assert Pin.output("o") in small.sinks("g2")

    def test_sink_map_matches_sinks(self, small):
        sm = small.sink_map()
        for net in small.nets():
            assert sorted(sm[net]) == sorted(small.sinks(net))

    def test_all_pins_count(self, small):
        assert len(list(small.all_pins())) == small.num_sinks

    def test_pin_driver(self, small):
        assert small.pin_driver(Pin.gate("g2", 0)) == "g1"
        assert small.pin_driver(Pin.output("o")) == "g2"

    def test_pin_driver_errors(self, small):
        with pytest.raises(NetlistError):
            small.pin_driver(Pin.gate("ghost", 0))
        with pytest.raises(NetlistError):
            small.pin_driver(Pin.gate("g1", 9))
        with pytest.raises(NetlistError):
            small.pin_driver(Pin.output("ghost"))

    def test_nets_iterates_inputs_then_gates(self, small):
        nets = list(small.nets())
        assert nets[:2] == ["a", "b"]
        assert set(nets[2:]) == {"g1", "g2"}


class TestEdits:
    def test_rewire_gate_pin(self, small):
        old = small.rewire_pin(Pin.gate("g2", 0), "b")
        assert old == "g1"
        assert small.gates["g2"].fanins[0] == "b"

    def test_rewire_output_port(self, small):
        old = small.rewire_pin(Pin.output("o"), "g1")
        assert old == "g2"
        assert small.outputs["o"] == "g1"

    def test_rewire_to_missing_net(self, small):
        with pytest.raises(NetlistError):
            small.rewire_pin(Pin.output("o"), "ghost")

    def test_replace_net_redirects_all_sinks(self, small):
        count = small.replace_net("a", "b")
        assert count == 2
        assert small.gates["g1"].fanins == ["b", "b"]
        assert small.gates["g2"].fanins[1] == "b"

    def test_remove_gate_requires_no_sinks(self, small):
        with pytest.raises(NetlistError):
            small.remove_gate("g1")
        small.rewire_pin(Pin.gate("g2", 0), "a")
        small.remove_gate("g1")
        assert "g1" not in small.gates

    def test_remove_missing_gate(self, small):
        with pytest.raises(NetlistError):
            small.remove_gate("ghost")

    def test_remove_gates_in_bulk(self, small):
        small.add_gate("g3", GateType.NOT, ["g1"])
        small.derived_cache()["marker"] = 1
        with pytest.raises(NetlistError, match="still reads"):
            small.remove_gates(["g1"])  # g2 and g3 read it
        with pytest.raises(NetlistError, match="output"):
            small.remove_gates(["g1", "g2", "g3"])
        with pytest.raises(NetlistError, match="ghost"):
            small.remove_gates(["ghost"])
        assert list(small.gates) == ["g1", "g2", "g3"]
        small.remove_gates(["g3"])
        assert list(small.gates) == ["g1", "g2"]
        assert "marker" not in small.derived_cache()

    def test_replace_gate_keeps_place_and_drops_derived_data(self, small):
        small.derived_cache()["marker"] = 1
        small.replace_gate("g1", GateType.XOR, ["b", "a", "b"])
        assert list(small.gates) == ["g1", "g2"]
        assert small.gates["g1"].gtype is GateType.XOR
        assert small.gates["g1"].fanins == ["b", "a", "b"]
        assert "marker" not in small.derived_cache()
        with pytest.raises(NetlistError):
            small.replace_gate("ghost", GateType.AND, ["a", "b"])
        with pytest.raises(NetlistError):
            small.replace_gate("g1", GateType.AND, ["a", "ghost"])

    def test_copy_is_deep(self, small):
        dup = small.copy()
        dup.rewire_pin(Pin.gate("g2", 0), "a")
        dup.add_input("z")
        assert small.gates["g2"].fanins[0] == "g1"
        assert "z" not in small.inputs


class TestPin:
    def test_equality_and_hash(self):
        assert Pin.gate("g", 1) == Pin.gate("g", 1)
        assert Pin.gate("g", 1) != Pin.gate("g", 2)
        assert Pin.output("o") != Pin.gate("o", 0)
        assert len({Pin.gate("g", 1), Pin.gate("g", 1)}) == 1

    def test_bad_kind(self):
        with pytest.raises(NetlistError):
            Pin("bogus", "g")

    def test_ordering_is_total(self):
        pins = [Pin.output("z"), Pin.gate("a", 1), Pin.gate("a", 0)]
        assert sorted(pins) == [Pin.gate("a", 0), Pin.gate("a", 1),
                                Pin.output("z")]

    def test_repr(self):
        assert "output" in repr(Pin.output("o"))
        assert "gate" in repr(Pin.gate("g", 0))
