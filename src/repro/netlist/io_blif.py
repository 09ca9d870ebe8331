"""BLIF reader / writer.

Supports the combinational subset of Berkeley BLIF: ``.model``,
``.inputs``, ``.outputs``, ``.names`` with single-output cover rows, and
``.end``.  Covers are converted to the gate vocabulary on read (constant
/ buffer / inverter / AND-of-literals rows, OR of multiple rows); on
write every gate type maps to an equivalent cover.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order


def _tokenize(text: str, filename: str) -> List[Tuple[int, List[str]]]:
    """Logical lines with continuations resolved and comments stripped."""
    lines: List[Tuple[int, List[str]]] = []
    pending: List[str] = []
    pending_lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        cont = body.endswith("\\")
        if cont:
            body = body[:-1]
        if not pending:
            pending_lineno = lineno
        pending.extend(body.split())
        if not cont:
            if pending:
                lines.append((pending_lineno, pending))
            pending = []
    if pending:
        raise ParseError("dangling line continuation", filename, pending_lineno)
    return lines


class _NamesBlock:
    def __init__(self, lineno: int, signals: List[str]):
        self.lineno = lineno
        self.inputs = signals[:-1]
        self.output = signals[-1]
        self.rows: List[Tuple[str, str]] = []  # (input pattern, output value)


def loads_blif(text: str, filename: str = "<string>") -> Circuit:
    """Parse BLIF text into a :class:`Circuit`."""
    model_name = "top"
    inputs: List[str] = []
    outputs: List[str] = []
    blocks: List[_NamesBlock] = []
    current: Optional[_NamesBlock] = None

    for lineno, toks in _tokenize(text, filename):
        head = toks[0]
        if head == ".model":
            model_name = toks[1] if len(toks) > 1 else "top"
            current = None
        elif head == ".inputs":
            inputs.extend(toks[1:])
            current = None
        elif head == ".outputs":
            outputs.extend(toks[1:])
            current = None
        elif head == ".names":
            if len(toks) < 2:
                raise ParseError(".names needs at least an output", filename, lineno)
            current = _NamesBlock(lineno, toks[1:])
            blocks.append(current)
        elif head == ".end":
            current = None
        elif head.startswith("."):
            raise ParseError(f"unsupported construct {head!r}", filename, lineno)
        else:
            if current is None:
                raise ParseError(f"cover row outside .names: {toks!r}", filename, lineno)
            if len(current.inputs) == 0:
                if len(toks) != 1 or toks[0] not in ("0", "1"):
                    raise ParseError("bad constant row", filename, lineno)
                current.rows.append(("", toks[0]))
            else:
                if len(toks) != 2:
                    raise ParseError("cover row needs pattern and value", filename, lineno)
                pattern, value = toks
                if len(pattern) != len(current.inputs):
                    raise ParseError(
                        f"pattern width {len(pattern)} != fanin count "
                        f"{len(current.inputs)}", filename, lineno)
                if any(ch not in "01-" for ch in pattern) or value not in ("0", "1"):
                    raise ParseError("bad cover row characters", filename, lineno)
                current.rows.append((pattern, value))

    circuit = Circuit(model_name)
    circuit.add_inputs(inputs)

    # Build gates block by block.  Blocks may be out of topological
    # order in the file, so add in dependency order.
    by_output = {}
    for b in blocks:
        if b.output in by_output:
            raise ParseError(f"net {b.output!r} defined twice", filename, b.lineno)
        by_output[b.output] = b

    emitted: set = set(inputs)

    def emit(b: _NamesBlock, chain: Tuple[str, ...]) -> None:
        if b.output in emitted:
            return
        if b.output in chain:
            raise ParseError(f"cyclic definition of {b.output!r}", filename, b.lineno)
        for f in b.inputs:
            if f in by_output:
                emit(by_output[f], chain + (b.output,))
            elif f not in emitted:
                raise ParseError(f"undefined net {f!r}", filename, b.lineno)
        _emit_block(circuit, b, filename)
        emitted.add(b.output)

    for b in blocks:
        emit(b, ())
    for o in outputs:
        if not circuit.has_net(o):
            raise ParseError(f"undefined output {o!r}", filename, 0)
        circuit.set_output(o, o)
    return circuit


def _emit_block(circuit: Circuit, b: _NamesBlock, filename: str) -> None:
    """Convert one .names cover into gates whose final net is b.output."""
    if not b.rows:
        # Empty cover is constant 0 by BLIF convention.
        circuit.add_gate(b.output, GateType.CONST0, [])
        return
    out_values = {v for _, v in b.rows}
    if len(out_values) != 1:
        raise ParseError(
            f"mixed on/off rows in cover of {b.output!r}", filename, b.lineno)
    onset = out_values == {"1"}
    if not b.inputs:
        const_one = (b.rows[0][1] == "1")
        circuit.add_gate(
            b.output, GateType.CONST1 if const_one else GateType.CONST0, [])
        return

    inverters: dict = {}

    def inverted(sig: str) -> str:
        """NOT of a block input, shared across the block's rows."""
        if sig not in inverters:
            name = f"{b.output}__inv{len(inverters)}"
            while circuit.has_net(name):
                name += "_"
            inverters[sig] = circuit.not_(sig, name=name)
        return inverters[sig]

    def term_net(pattern: str, idx: int) -> str:
        """AND of the literals of one row; returns net name."""
        lits: List[str] = []
        for ch, sig in zip(pattern, b.inputs):
            if ch == "-":
                continue
            lits.append(sig if ch == "1" else inverted(sig))
        name = f"{b.output}__t{idx}"
        while circuit.has_net(name):
            name += "_"
        if not lits:
            return circuit.const1(name)
        if len(lits) == 1:
            return lits[0]
        return circuit.and_(*lits, name=name)

    terms = [term_net(p, i) for i, (p, _) in enumerate(b.rows)]
    if onset:
        if len(terms) == 1:
            circuit.add_gate(b.output, GateType.BUF, [terms[0]])
        else:
            circuit.add_gate(b.output, GateType.OR, terms)
    else:
        # off-set cover: output = NOT(OR of terms)
        if len(terms) == 1:
            circuit.add_gate(b.output, GateType.NOT, [terms[0]])
        else:
            circuit.add_gate(b.output, GateType.NOR, terms)


def read_blif(path: str) -> Circuit:
    """Read a BLIF file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_blif(fh.read(), filename=path)


def _gate_cover(gtype: GateType, n: int) -> str:
    """BLIF cover rows for one gate type with n fanins."""
    if gtype is GateType.CONST0:
        return ""  # empty cover == constant 0
    if gtype is GateType.CONST1:
        return "1\n"
    if gtype is GateType.BUF:
        return "1 1\n"
    if gtype is GateType.NOT:
        return "0 1\n"
    if gtype is GateType.AND:
        return "1" * n + " 1\n"
    if gtype is GateType.NAND:
        return "1" * n + " 0\n"
    if gtype is GateType.OR:
        return "".join("-" * i + "1" + "-" * (n - i - 1) + " 1\n" for i in range(n))
    if gtype is GateType.NOR:
        return "0" * n + " 1\n"
    if gtype in (GateType.XOR, GateType.XNOR):
        rows = []
        for bits in range(1 << n):
            ones = bin(bits).count("1")
            parity = ones % 2 == 1
            if (parity and gtype is GateType.XOR) or (not parity and gtype is GateType.XNOR):
                pattern = "".join("1" if (bits >> i) & 1 else "0" for i in range(n))
                rows.append(pattern + " 1\n")
        return "".join(rows)
    if gtype is GateType.MUX:
        # fanins: (s, d0, d1); output 1 when (!s & d0) | (s & d1)
        return "01- 1\n1-1 1\n"
    raise ValueError(f"cannot write gate type {gtype!r}")


def dumps_blif(circuit: Circuit) -> str:
    """Serialize a circuit to BLIF text.

    Output ports observe nets; BLIF outputs are nets themselves, so a
    port whose name differs from its net needs an alias buffer.  An
    internal net that shares its name with such a port (lint code
    ``NL004``, common after an output-port rewire) would then be
    defined twice, so it is written under a mangled name instead.
    """
    rename: dict = {}
    taken = set(circuit.inputs) | set(circuit.gates) | set(circuit.outputs)
    for port, net in circuit.outputs.items():
        if port != net and circuit.has_net(port):
            fresh = f"{port}__shadow"
            while fresh in taken:
                fresh += "_"
            taken.add(fresh)
            rename[port] = fresh

    def nm(net: str) -> str:
        return rename.get(net, net)

    parts: List[str] = [f".model {circuit.name}\n"]
    if circuit.inputs:
        parts.append(".inputs " + " ".join(nm(n) for n in circuit.inputs)
                     + "\n")
    out_ports = list(circuit.outputs)
    if out_ports:
        parts.append(".outputs " + " ".join(out_ports) + "\n")
    for name in topological_order(circuit):
        gate = circuit.gates[name]
        parts.append(".names " + " ".join(
            [nm(f) for f in gate.fanins] + [nm(name)]) + "\n")
        parts.append(_gate_cover(gate.gtype, len(gate.fanins)))
    for port, net in circuit.outputs.items():
        if port != net:
            parts.append(f".names {nm(net)} {port}\n1 1\n")
    parts.append(".end\n")
    return "".join(parts)


def write_blif(circuit: Circuit, path: str) -> None:
    """Write a circuit to a BLIF file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_blif(circuit))
