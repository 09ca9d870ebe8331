"""Unit and property tests for BLIF and Verilog I/O."""

import pytest

from repro.errors import ParseError
from repro.netlist.circuit import Circuit
from repro.netlist.io_blif import dumps_blif, loads_blif, read_blif, \
    write_blif
from repro.netlist.io_verilog import dumps_verilog, write_verilog
from repro.lint.netlist_rules import lint_netlist
from tests.conftest import exhaustive_equivalent, make_random_circuit


class TestBlifRoundTrip:
    def test_small_circuit(self, tiny_adder):
        text = dumps_blif(tiny_adder)
        back = loads_blif(text)
        assert lint_netlist(back, deep=False).ok
        assert exhaustive_equivalent(tiny_adder, back)

    def test_random_circuits(self):
        for seed in range(10):
            c = make_random_circuit(seed, n_inputs=5, n_gates=15)
            back = loads_blif(dumps_blif(c))
            assert lint_netlist(back, deep=False).ok, seed
            assert exhaustive_equivalent(c, back), seed

    def test_every_gate_type_round_trips(self):
        c = Circuit("types")
        c.add_inputs(["a", "b", "c"])
        c.set_output("o_and", c.and_("a", "b", "c"))
        c.set_output("o_or", c.or_("a", "b"))
        c.set_output("o_nand", c.nand("a", "b"))
        c.set_output("o_nor", c.nor("a", "b", "c"))
        c.set_output("o_xor", c.xor("a", "b", "c"))
        c.set_output("o_xnor", c.xnor("a", "b"))
        c.set_output("o_not", c.not_("a"))
        c.set_output("o_buf", c.buf("b"))
        c.set_output("o_mux", c.mux("a", "b", "c"))
        c.set_output("o_c0", c.const0())
        c.set_output("o_c1", c.const1())
        back = loads_blif(dumps_blif(c))
        assert exhaustive_equivalent(c, back)

    def test_file_round_trip(self, tmp_path, tiny_adder):
        path = str(tmp_path / "fa.blif")
        write_blif(tiny_adder, path)
        back = read_blif(path)
        assert exhaustive_equivalent(tiny_adder, back)

    def test_port_net_collision_round_trips(self):
        # port 'o' observes 'g' while an unrelated net 'o' exists
        # (NL004) — the engine's output-port fallback leaves exactly
        # this shape behind; the writer must mangle, not double-define
        c = Circuit("collide")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="o")
        c.or_("a", "b", name="g")
        c.not_("o", name="keep")        # the colliding net stays live
        c.set_output("o", "g")
        c.set_output("k", "keep")
        back = loads_blif(dumps_blif(c))
        assert lint_netlist(back, deep=False).ok
        assert exhaustive_equivalent(c, back)

    def test_input_port_collision_round_trips(self):
        # the colliding net is a primary input: 'a' feeds logic while
        # output port 'a' observes a different net
        c = Circuit("collide_in")
        c.add_inputs(["a", "b"])
        c.or_("a", "b", name="g")
        c.set_output("a", "g")
        back = loads_blif(dumps_blif(c))
        assert lint_netlist(back, deep=False).ok


class TestBlifParsing:
    def test_model_name(self):
        c = loads_blif(".model demo\n.inputs a\n.outputs a\n.end\n")
        assert c.name == "demo"

    def test_line_continuation(self):
        text = (".model m\n.inputs a \\\nb\n.outputs o\n"
                ".names a b o\n11 1\n.end\n")
        c = loads_blif(text)
        assert c.inputs == ["a", "b"]

    def test_comments_stripped(self):
        text = ("# header\n.model m\n.inputs a # trailing\n.outputs o\n"
                ".names a o\n1 1\n.end\n")
        c = loads_blif(text)
        assert c.inputs == ["a"]

    def test_offset_cover(self):
        text = (".model m\n.inputs a b\n.outputs o\n"
                ".names a b o\n11 0\n.end\n")
        c = loads_blif(text)
        # off-set row: o = ~(a & b)
        from repro.netlist.simulate import evaluate_outputs
        assert evaluate_outputs(c, {"a": True, "b": True})["o"] is False
        assert evaluate_outputs(c, {"a": False, "b": True})["o"] is True

    def test_empty_cover_is_const0(self):
        text = ".model m\n.inputs a\n.outputs o\n.names o\n.end\n"
        c = loads_blif(text)
        from repro.netlist.simulate import evaluate_outputs
        assert evaluate_outputs(c, {"a": True})["o"] is False

    def test_out_of_order_blocks(self):
        text = (".model m\n.inputs a\n.outputs o\n"
                ".names t o\n1 1\n.names a t\n0 1\n.end\n")
        c = loads_blif(text)
        from repro.netlist.simulate import evaluate_outputs
        assert evaluate_outputs(c, {"a": False})["o"] is True

    @pytest.mark.parametrize("text,fragment", [
        (".model m\n.inputs a\n.outputs o\n.names a o\n2 1\n.end\n",
         "characters"),
        (".model m\n.inputs a\n.outputs o\n.names a o\n11 1\n.end\n",
         "width"),
        (".model m\n.inputs a\n.outputs o\n1 1\n.end\n", "outside"),
        (".model m\n.inputs a\n.outputs o\n.end\n", "undefined output"),
        (".model m\n.inputs a\n.outputs o\n.gate x\n.end\n", "unsupported"),
        (".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n"
         ".names a o\n0 1\n.end\n", "twice"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            loads_blif(text)
        assert fragment in str(err.value)

    def test_cyclic_definition_rejected(self):
        text = (".model m\n.inputs a\n.outputs o\n"
                ".names o t\n1 1\n.names t o\n1 1\n.end\n")
        with pytest.raises(ParseError):
            loads_blif(text)


class TestVerilogWriter:
    def test_contains_module_and_ports(self, tiny_adder):
        text = dumps_verilog(tiny_adder)
        assert text.startswith("module fa (")
        assert "input a;" in text
        assert "output sum;" in text
        assert "endmodule" in text

    def test_primitives_emitted(self, tiny_adder):
        text = dumps_verilog(tiny_adder)
        assert "xor" in text
        assert "and" in text
        assert "or" in text

    def test_mux_and_constants_as_assigns(self):
        c = Circuit("m")
        c.add_inputs(["s", "x", "y"])
        c.set_output("o", c.mux("s", "x", "y"))
        c.set_output("k", c.const1())
        text = dumps_verilog(c)
        assert "? " in text
        assert "1'b1" in text

    def test_escaped_identifiers(self):
        c = Circuit("esc")
        c.add_input("a$b%c")
        c.set_output("o", c.not_("a$b%c"))
        text = dumps_verilog(c)
        assert "\\a$b%c " in text

    def test_write_to_file(self, tmp_path, tiny_adder):
        path = str(tmp_path / "fa.v")
        write_verilog(tiny_adder, path)
        with open(path) as fh:
            assert "module" in fh.read()


class TestVerilogReader:
    def test_round_trip_random_circuits(self):
        from repro.netlist.io_verilog import loads_verilog
        for seed in range(8):
            c = make_random_circuit(seed, n_inputs=5, n_gates=15)
            back = loads_verilog(dumps_verilog(c))
            assert lint_netlist(back, deep=False).ok, seed
            assert exhaustive_equivalent(c, back), seed

    def test_round_trip_all_gate_types(self):
        from repro.netlist.io_verilog import loads_verilog
        c = Circuit("types")
        c.add_inputs(["a", "b", "c"])
        c.set_output("o_and", c.and_("a", "b", "c"))
        c.set_output("o_nor", c.nor("a", "b"))
        c.set_output("o_xnor", c.xnor("a", "b"))
        c.set_output("o_not", c.not_("a"))
        c.set_output("o_mux", c.mux("a", "b", "c"))
        c.set_output("o_c0", c.const0())
        c.set_output("o_c1", c.const1())
        back = loads_verilog(dumps_verilog(c))
        assert exhaustive_equivalent(c, back)

    def test_comments_ignored(self):
        from repro.netlist.io_verilog import loads_verilog
        text = """
        // line comment
        module m (a, o);
          input a; /* block
          comment */ output o;
          assign o = ~a;  // tail
        endmodule
        """
        c = loads_verilog(text)
        from repro.netlist.simulate import evaluate_outputs
        assert evaluate_outputs(c, {"a": False})["o"] is True

    def test_out_of_order_statements(self):
        from repro.netlist.io_verilog import loads_verilog
        text = ("module m (a, o);\ninput a;\noutput o;\nwire t;\n"
                "assign o = t;\nnot g0 (t, a);\nendmodule\n")
        c = loads_verilog(text)
        from repro.netlist.simulate import evaluate_outputs
        assert evaluate_outputs(c, {"a": True})["o"] is False

    def test_assign_binary_operators(self):
        from repro.netlist.io_verilog import loads_verilog
        text = ("module m (a, b, x, y, z);\ninput a; input b;\n"
                "output x; output y; output z;\n"
                "assign x = a & b;\nassign y = a | b;\n"
                "assign z = a ^ b;\nendmodule\n")
        c = loads_verilog(text)
        from repro.netlist.simulate import evaluate_outputs
        out = evaluate_outputs(c, {"a": True, "b": False})
        assert out == {"x": False, "y": True, "z": True}

    def test_escaped_identifier_round_trip(self):
        from repro.netlist.io_verilog import loads_verilog
        c = Circuit("esc")
        c.add_input("a$b%c")
        c.set_output("o", c.not_("a$b%c"))
        back = loads_verilog(dumps_verilog(c))
        assert "a$b%c" in back.inputs

    @pytest.mark.parametrize("text,fragment", [
        ("module m (a);\ninput a;\nbogus x;\nendmodule", "unsupported"),
        ("module m (o);\noutput o;\nendmodule", "undriven"),
        ("module m (a, o);\ninput a;\noutput o;\n"
         "assign o = a + a;\nendmodule", "unexpected"),
        ("module m (a, o);\ninput a;\noutput o;\nwire t;\n"
         "assign o = t;\nassign t = o;\nendmodule", "cycle"),
        ("module m (a, o);\ninput a;\noutput o;\n"
         "assign o = a;\nassign o = a;\nendmodule", "twice"),
    ])
    def test_reader_errors(self, text, fragment):
        from repro.errors import ParseError
        from repro.netlist.io_verilog import loads_verilog
        with pytest.raises(ParseError) as err:
            loads_verilog(text)
        assert fragment in str(err.value)

    def test_read_from_file(self, tmp_path, tiny_adder):
        from repro.netlist.io_verilog import read_verilog
        path = str(tmp_path / "fa.v")
        write_verilog(tiny_adder, path)
        back = read_verilog(path)
        assert exhaustive_equivalent(tiny_adder, back)


class TestAiger:
    def test_round_trip_random_circuits(self):
        from repro.netlist.io_aiger import dumps_aiger, loads_aiger
        for seed in range(8):
            c = make_random_circuit(seed, n_inputs=5, n_gates=15)
            back = loads_aiger(dumps_aiger(c))
            assert lint_netlist(back, deep=False).ok, seed
            assert exhaustive_equivalent(c, back), seed

    def test_round_trip_all_gate_types(self):
        from repro.netlist.io_aiger import dumps_aiger, loads_aiger
        c = Circuit("types")
        c.add_inputs(["a", "b", "c"])
        c.set_output("o_and", c.and_("a", "b", "c"))
        c.set_output("o_nor", c.nor("a", "b"))
        c.set_output("o_xnor", c.xnor("a", "b"))
        c.set_output("o_mux", c.mux("a", "b", "c"))
        c.set_output("o_c0", c.const0())
        c.set_output("o_c1", c.const1())
        back = loads_aiger(dumps_aiger(c))
        assert exhaustive_equivalent(c, back)

    def test_port_names_preserved(self, tiny_adder):
        from repro.netlist.io_aiger import dumps_aiger, loads_aiger
        back = loads_aiger(dumps_aiger(tiny_adder))
        assert back.inputs == tiny_adder.inputs
        assert set(back.outputs) == set(tiny_adder.outputs)

    def test_header_counts_consistent(self, tiny_adder):
        from repro.netlist.io_aiger import dumps_aiger
        header = dumps_aiger(tiny_adder).splitlines()[0].split()
        m, i, l, o, a = (int(x) for x in header[1:])
        assert i == 3 and l == 0 and o == 2
        assert m >= i + a

    def test_structural_sharing_in_writer(self):
        from repro.netlist.io_aiger import dumps_aiger
        c = Circuit("share")
        c.add_inputs(["a", "b"])
        c.set_output("o1", c.and_("a", "b"))
        c.set_output("o2", c.and_("b", "a"))
        header = dumps_aiger(c).splitlines()[0].split()
        assert int(header[5]) == 1  # one shared AND row

    def test_missing_symbols_get_defaults(self):
        from repro.netlist.io_aiger import loads_aiger
        text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
        c = loads_aiger(text)
        assert c.inputs == ["x0", "x1"]
        assert list(c.outputs) == ["y0"]

    def test_complemented_output(self):
        from repro.netlist.io_aiger import loads_aiger
        from repro.netlist.simulate import evaluate_outputs
        text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n"
        c = loads_aiger(text)
        out = evaluate_outputs(c, {"x0": True, "x1": True})
        assert out["y0"] is False  # ~(x0 & x1)

    @pytest.mark.parametrize("text,fragment", [
        ("nope\n", "header"),
        ("aag 1 x 0 0 0\n", "malformed"),
        ("aag 3 1 1 1 0\n2\n4\n2\n", "latches"),
        ("aag 2 1 0 1 1\n2\n4\n", "truncated"),
        ("aag 2 1 0 0 1\n2\n5 2 2\n", "even"),
        ("aag 1 1 0 0 0\n3\n", "even"),
    ])
    def test_aiger_errors(self, text, fragment):
        from repro.errors import ParseError
        from repro.netlist.io_aiger import loads_aiger
        with pytest.raises(ParseError) as err:
            loads_aiger(text)
        assert fragment in str(err.value)
