"""Tests for the patch data model and Table-2 statistics."""

import pytest

from repro.eco.patch import Patch, PatchStats, RewireOp
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import GateType


class TestRewireOp:
    def test_describe_gate_pin(self):
        op = RewireOp(Pin.gate("g", 1), "s", from_spec=True)
        text = op.describe()
        assert "g[1]" in text and "C'" in text

    def test_describe_output_pin(self):
        op = RewireOp(Pin.output("o"), "s")
        text = op.describe()
        assert "output o" in text and "(C)" in text

    def test_frozen(self):
        op = RewireOp(Pin.output("o"), "s")
        with pytest.raises(Exception):
            op.source_net = "t"


class TestPatchStats:
    def test_pure_rewire_stats(self):
        """Rewiring to an existing net: 0 gates, 1 net, 1 input."""
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.or_("a", "b", name="g2")
        c.set_output("o", "g2")
        patch = Patch()
        op = RewireOp(Pin.output("o"), "g1")
        c.rewire_pin(Pin.output("o"), "g1")
        patch.record([op], {}, set())
        stats = patch.stats(c)
        assert stats == PatchStats(inputs=1, outputs=1, gates=0, nets=1)

    def test_rewire_to_constant_has_zero_inputs(self):
        """The paper's case-5 shape: 0 inputs, 0 gates, 1 net."""
        c = Circuit("c")
        c.add_inputs(["a"])
        c.not_("a", name="g1")
        c.const0(name="k")
        c.set_output("o", "g1")
        patch = Patch()
        c.rewire_pin(Pin.output("o"), "k")
        patch.record([RewireOp(Pin.output("o"), "k")], {}, set())
        stats = patch.stats(c)
        assert stats == PatchStats(inputs=0, outputs=1, gates=0, nets=1)

    def test_cloned_logic_counted(self):
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.not_("a", name="g1")
        c.add_gate("eco$h1", GateType.AND, ["a", "b"])
        c.add_gate("eco$h2", GateType.NOT, ["eco$h1"])
        c.set_output("o", "eco$h2")
        patch = Patch()
        patch.record([RewireOp(Pin.output("o"), "h2", from_spec=True)],
                     {"h1": "eco$h1", "h2": "eco$h2"},
                     {"eco$h1", "eco$h2"})
        stats = patch.stats(c)
        assert stats.gates == 2
        assert stats.outputs == 1
        assert stats.inputs == 2        # a and b feed the clones
        assert stats.nets == 4          # 2 clones + boundary a, b

    def test_swept_clones_not_counted(self):
        """Gates removed after sweeping do not appear in stats."""
        c = Circuit("c")
        c.add_inputs(["a"])
        c.not_("a", name="g1")
        c.set_output("o", "g1")
        patch = Patch()
        # records a clone that no longer exists in the circuit
        patch.record([RewireOp(Pin.output("o"), "h", from_spec=True)],
                     {"h": "eco$gone"}, {"eco$gone"})
        stats = patch.stats(c)
        assert stats.gates == 0

    def test_duplicate_pins_counted_once(self):
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.set_output("o", "g1")
        patch = Patch()
        op = RewireOp(Pin.gate("g1", 0), "b")
        patch.record([op, op], {}, set())
        assert patch.stats(c).outputs == 1

    def test_len_and_describe(self):
        patch = Patch()
        patch.record([RewireOp(Pin.output("o"), "x")], {}, set())
        assert len(patch) == 1
        assert "output o" in patch.describe()


class TestRecord:
    def test_record_accumulates(self):
        patch = Patch()
        patch.record([RewireOp(Pin.output("o1"), "x")], {"a": "c1"},
                     {"c1"})
        patch.record([RewireOp(Pin.output("o2"), "y")], {"b": "c2"},
                     {"c2"})
        assert len(patch.ops) == 2
        assert patch.clone_map == {"a": "c1", "b": "c2"}
        assert patch.cloned_gates == {"c1", "c2"}


class TestExtractCircuit:
    def _rectified(self):
        from repro.eco.config import EcoConfig
        from repro.eco.engine import rectify
        from repro.workloads.figures import example1_circuits
        impl, spec = example1_circuits(width=2)
        return impl, spec, rectify(impl, spec, EcoConfig(num_samples=8))

    def test_patch_netlist_is_well_formed(self):
        from repro.lint.netlist_rules import lint_netlist
        impl, spec, result = self._rectified()
        patch_circuit, port_map = result.patch.extract_circuit(
            result.patched)
        assert lint_netlist(patch_circuit, deep=False).ok
        assert len(port_map) == len(set(result.patch.rewired_pins))

    def test_ports_drive_the_recorded_pins(self):
        impl, spec, result = self._rectified()
        patch_circuit, port_map = result.patch.extract_circuit(
            result.patched)
        for port, pin in port_map.items():
            # the port's net drives exactly that pin in the patched impl
            driven = result.patched.pin_driver(pin)
            assert patch_circuit.outputs[port] == driven or \
                driven in patch_circuit.inputs

    def test_patch_functions_match_patched_implementation(self):
        """Simulating the patch over implementation values reproduces
        the nets feeding the rewired pins."""
        import random
        from repro.netlist.simulate import simulate_words, random_patterns
        impl, spec, result = self._rectified()
        patched = result.patched
        patch_circuit, port_map = result.patch.extract_circuit(patched)
        rng = random.Random(9)
        words = random_patterns(patched.inputs, rng)
        impl_values = simulate_words(patched, words)
        patch_values = simulate_words(
            patch_circuit,
            {n: impl_values[n] for n in patch_circuit.inputs})
        for port, pin in port_map.items():
            driver = patched.pin_driver(pin)
            assert patch_values[patch_circuit.outputs[port]] == \
                impl_values[driver], port

    def test_empty_patch_extracts_empty_circuit(self, tiny_adder):
        from repro.eco.engine import rectify
        result = rectify(tiny_adder, tiny_adder.copy())
        patch_circuit, port_map = result.patch.extract_circuit(
            result.patched)
        assert patch_circuit.num_gates == 0
        assert port_map == {}
