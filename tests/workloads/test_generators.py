"""Tests for the specification generators."""

import itertools

import pytest

from repro.netlist.simulate import evaluate_outputs
from repro.lint.netlist_rules import lint_netlist
from repro.workloads.generators import (
    alu_design,
    comparator_design,
    control_design,
    mixed_design,
    parity_design,
    priority_encoder,
    random_dag,
    word_mux_design,
)


ALL_FAMILIES = [
    lambda: word_mux_design(2, 4),
    lambda: alu_design(3),
    lambda: control_design(6, 4, 8, seed=1),
    lambda: priority_encoder(4),
    lambda: comparator_design(3),
    lambda: parity_design(6, 2),
    lambda: random_dag(5, 20, 3, seed=2),
]


@pytest.mark.parametrize("builder", ALL_FAMILIES)
def test_families_are_well_formed(builder):
    assert lint_netlist(builder(), deep=False).ok


@pytest.mark.parametrize("builder", ALL_FAMILIES)
def test_families_deterministic(builder):
    a, b = builder(), builder()
    assert a.inputs == b.inputs
    assert a.outputs == b.outputs
    assert {k: (g.gtype, tuple(g.fanins)) for k, g in a.gates.items()} == \
        {k: (g.gtype, tuple(g.fanins)) for k, g in b.gates.items()}


class TestAluFunction:
    @pytest.mark.parametrize("op,fn", [
        ((False, False), lambda a, b: a + b),
        ((True, False), lambda a, b: a & b),
        ((False, True), lambda a, b: a | b),
        ((True, True), lambda a, b: a ^ b),
    ])
    def test_ops(self, op, fn):
        width = 3
        alu = alu_design(width)
        for a_val, b_val in itertools.product(range(1 << width), repeat=2):
            inputs = {"op0": op[0], "op1": op[1]}
            for k in range(width):
                inputs[f"a{k}"] = bool(a_val >> k & 1)
                inputs[f"b{k}"] = bool(b_val >> k & 1)
            out = evaluate_outputs(alu, inputs)
            got = sum(out[f"r{k}"] << k for k in range(width))
            assert got == fn(a_val, b_val) & ((1 << width) - 1)

    def test_carry_out(self):
        alu = alu_design(2)
        inputs = {"a0": True, "a1": True, "b0": True, "b1": True,
                  "op0": False, "op1": False}
        assert evaluate_outputs(alu, inputs)["cout"] is True


class TestPriorityEncoder:
    def test_single_grant(self):
        pe = priority_encoder(4)
        for req_bits in range(1, 16):
            inputs = {f"req{k}": bool(req_bits >> k & 1) for k in range(4)}
            out = evaluate_outputs(pe, inputs)
            grants = [out[f"gnt{k}"] for k in range(4)]
            assert sum(grants) == 1
            assert grants.index(True) == (req_bits & -req_bits).bit_length() - 1
            assert out["any"] is True

    def test_no_request_no_grant(self):
        pe = priority_encoder(3)
        out = evaluate_outputs(pe, {f"req{k}": False for k in range(3)})
        assert not any(out[f"gnt{k}"] for k in range(3))
        assert out["any"] is False


class TestComparator:
    def test_eq_and_gt(self):
        cmp3 = comparator_design(3)
        for a_val, b_val in itertools.product(range(8), repeat=2):
            inputs = {}
            for k in range(3):
                inputs[f"a{k}"] = bool(a_val >> k & 1)
                inputs[f"b{k}"] = bool(b_val >> k & 1)
            out = evaluate_outputs(cmp3, inputs)
            assert out["eq"] == (a_val == b_val)
            assert out["gt"] == (a_val > b_val)


class TestParity:
    def test_total_parity(self):
        p = parity_design(6, 2)
        for bits in range(64):
            inputs = {f"d{k}": bool(bits >> k & 1) for k in range(6)}
            out = evaluate_outputs(p, inputs)
            assert out["p_all"] == (bin(bits).count("1") % 2 == 1)


class TestWordMux:
    def test_select_routes_word(self):
        wm = word_mux_design(2, 3)
        inputs = {"sel0": True, "sel1": False}
        for k in range(3):
            inputs[f"w0_{k}"] = bool(k % 2)
            inputs[f"w1_{k}"] = True
        out = evaluate_outputs(wm, inputs)
        for k in range(3):
            assert out[f"out_{k}"] == bool(k % 2)


class TestMixedDesign:
    def test_blocks_isolated(self):
        blocks = [("x", parity_design(4, 2)), ("y", comparator_design(2))]
        mix = mixed_design(blocks)
        assert lint_netlist(mix, deep=False).ok
        assert any(p.startswith("x_") for p in mix.outputs)
        assert any(p.startswith("y_") for p in mix.outputs)

    def test_glue_adds_outputs(self):
        blocks = [("x", parity_design(8, 2)), ("y", comparator_design(4))]
        plain = mixed_design(blocks)
        glued = mixed_design(blocks, glue_seed=3)
        assert len(glued.outputs) > len(plain.outputs)
        assert lint_netlist(glued, deep=False).ok


class TestDecoder:
    def test_one_hot(self):
        from repro.workloads.generators import decoder_design
        d = decoder_design(3)
        for k in range(8):
            ins = {f"s{i}": bool(k >> i & 1) for i in range(3)}
            ins["en"] = True
            out = evaluate_outputs(d, ins)
            assert sum(out[f"d{j}"] for j in range(8)) == 1
            assert out[f"d{k}"] is True

    def test_enable_gates_everything(self):
        from repro.workloads.generators import decoder_design
        d = decoder_design(2)
        ins = {"s0": True, "s1": False, "en": False}
        out = evaluate_outputs(d, ins)
        assert not any(out[f"d{j}"] for j in range(4))

    def test_without_enable(self):
        from repro.workloads.generators import decoder_design
        d = decoder_design(2, enable=False)
        assert "en" not in d.inputs
        assert lint_netlist(d, deep=False).ok


class TestMultiplier:
    def test_exhaustive_products(self):
        from repro.workloads.generators import multiplier_design
        w = 3
        m = multiplier_design(w)
        assert lint_netlist(m, deep=False).ok
        for a in range(1 << w):
            for b in range(1 << w):
                ins = {}
                for k in range(w):
                    ins[f"a{k}"] = bool(a >> k & 1)
                    ins[f"b{k}"] = bool(b >> k & 1)
                out = evaluate_outputs(m, ins)
                got = sum(out[f"p{j}"] << j for j in range(2 * w))
                assert got == a * b, (a, b)

    def test_is_deep(self):
        from repro.netlist.traverse import levelize
        from repro.workloads.generators import multiplier_design
        m = multiplier_design(4)
        assert max(levelize(m).values()) >= 10
