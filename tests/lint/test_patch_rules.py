"""Unit tests of the patch analyzer (PatchScreen, PA codes)."""

import pytest

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import nets_within_support, transitive_fanout
from repro.lint.patch_rules import (
    PatchScreen,
    ScreenOp,
    lint_patch_ops,
    parse_ops,
)


def chain() -> Circuit:
    """a -> g1 -> g2 -> g3 -> o, plus a side net s."""
    c = Circuit("chain")
    c.add_inputs(["a", "b"])
    c.not_("a", name="g1")
    c.and_("g1", "b", name="g2")
    c.or_("g2", "a", name="g3")
    c.xor("a", "b", name="s")
    c.set_output("o", "g3")
    c.set_output("os", "s")
    return c


class TestFanoutCone:
    def test_matches_traverse(self):
        c = chain()
        screen = PatchScreen(c)
        for net in c.nets():
            assert screen.fanout_cone(net) == \
                transitive_fanout(c, [net])

    def test_memoized(self):
        screen = PatchScreen(chain())
        first = screen.fanout_cone("g1")
        assert screen.fanout_cone("g1") is first


class TestCyclePath:
    def test_legal_rewire_has_no_cycle(self):
        screen = PatchScreen(chain())
        ops = [ScreenOp(Pin.gate("g3", 0), "s")]
        assert screen.cycle_path(ops) is None

    def test_direct_cycle(self):
        # drive g1's pin from g3: g3 is in g1's fanout cone
        screen = PatchScreen(chain())
        ops = [ScreenOp(Pin.gate("g1", 0), "g3")]
        path = screen.cycle_path(ops)
        assert path is not None
        assert path[0] == "g3"       # the new edge's source
        assert path[-1] == "g3"      # ... reached again: closed cycle
        assert "g1" in path

    def test_self_loop(self):
        screen = PatchScreen(chain())
        path = screen.cycle_path([ScreenOp(Pin.gate("g2", 0), "g2")])
        assert path == ["g2", "g2"]

    def test_masked_edge_prevents_false_rejection(self):
        # rewiring g2's g1-pin to 'a' removes the g1->g2 edge; wiring
        # g1 from g2 is then legal exactly because of that removal
        screen = PatchScreen(chain())
        ops = [
            ScreenOp(Pin.gate("g2", 0), "a"),
            ScreenOp(Pin.gate("g1", 0), "g2"),
        ]
        assert screen.cycle_path(ops) is None

    def test_joint_cycle_through_two_new_edges(self):
        # individually acyclic, jointly cyclic:
        #   s <- g2 (new) and g2's side pin <- s (new)
        c = chain()
        screen = PatchScreen(c)
        ops = [
            ScreenOp(Pin.gate("s", 0), "g2"),
            ScreenOp(Pin.gate("g2", 1), "s"),
        ]
        for op in ops:
            assert screen.cycle_path([op]) is None
        assert screen.cycle_path(ops) is not None

    def test_spec_sourced_ops_never_cycle(self):
        screen = PatchScreen(chain())
        ops = [ScreenOp(Pin.gate("g1", 0), "g3", from_spec=True)]
        assert screen.cycle_path(ops) is None

    def test_output_port_rewire_never_cycles(self):
        screen = PatchScreen(chain())
        ops = [ScreenOp(Pin.output("o"), "g1")]
        assert screen.cycle_path(ops) is None


class TestRules:
    def test_clean_op_passes(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.gate("g3", 0), "s")])
        assert report.ok
        assert report.tool == "patch"

    def test_pa001_cycle(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.gate("g1", 0), "g3")])
        assert "PA001" in report.codes()
        [diag] = report.errors
        assert "->" in diag.message

    def test_pa002_unknown_gate(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.gate("ghost", 0), "s")])
        assert "PA002" in report.codes()

    def test_pa002_bad_index(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.gate("g1", 7), "s")])
        assert "PA002" in report.codes()

    def test_pa002_unknown_output_port(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.output("ghost"), "s")])
        assert "PA002" in report.codes()

    def test_pa003_support_containment(self):
        c = chain()
        # pretend the revised output reads only a: s reads a and b
        legal = nets_within_support(c, {"a"})
        assert legal == {"a", "g1"}
        report = lint_patch_ops(
            c, [ScreenOp(Pin.gate("g3", 0), "s")], legal_sources=legal)
        assert "PA003" in report.codes()
        # a source within the support is fine
        report = lint_patch_ops(
            c, [ScreenOp(Pin.gate("g3", 0), "g1")], legal_sources=legal)
        assert report.ok
        # spec sources are cloned, so only their existence is checked
        report = lint_patch_ops(
            c, [ScreenOp(Pin.gate("g3", 0), "s", from_spec=True)],
            spec=c, legal_sources=legal)
        assert report.ok

    def test_pa004_missing_source(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.gate("g1", 0), "ghost")])
        assert "PA004" in report.codes()

    def test_pa004_missing_spec_source(self):
        spec = Circuit("spec")
        spec.add_inputs(["a", "b"])
        spec.and_("a", "b", name="f")
        spec.set_output("o", "f")
        report = lint_patch_ops(
            chain(),
            [ScreenOp(Pin.gate("g1", 0), "ghost", from_spec=True)],
            spec=spec)
        assert "PA004" in report.codes()

    def test_pa005_noop_rewire_is_warning(self):
        report = lint_patch_ops(chain(),
                                [ScreenOp(Pin.gate("g2", 0), "g1")])
        assert "PA005" in report.codes()
        assert report.ok  # warning only

    def test_unsound_ops_skip_cycle_check(self):
        # a dangling pin plus a cyclic op: only PA002 is reported (the
        # cycle walk needs sound pins to be meaningful)
        report = lint_patch_ops(chain(), [
            ScreenOp(Pin.gate("ghost", 0), "s"),
            ScreenOp(Pin.gate("g1", 0), "g3"),
        ])
        assert "PA002" in report.codes()
        assert "PA001" not in report.codes()


class TestParseOps:
    def test_round_trip(self):
        ops = parse_ops([
            {"pin": "gate:g1:0", "source": "s"},
            {"pin": "output:o", "source": "f", "from_spec": True},
        ])
        assert ops[0] == ScreenOp(Pin.gate("g1", 0), "s")
        assert ops[1] == ScreenOp(Pin.output("o"), "f", from_spec=True)

    def test_bad_pin_spec(self):
        with pytest.raises(NetlistError):
            parse_ops([{"pin": "bogus", "source": "s"}])
