"""Netlist analyzer: structural diagnostics for :class:`Circuit`.

The single home of well-formedness checking.  Two tiers of rules:

* **well-formedness** (``NL001``–``NL010``, errors except the ``NL004``
  port/net-collision warning) — the invariants every circuit must
  satisfy before any engine touches it: name consistency, arity, no
  dangling nets, acyclicity (reported with the actual cycle path);
* **hygiene** (``NL020``–``NL030``, warnings/infos) — findings that do
  not make a circuit invalid but indicate wasted or suspicious logic:
  floating nets, dead logic, constant-foldable gates, structurally
  duplicate gates (via :mod:`repro.netlist.hashing`), and word-level
  width gaps in bit-indexed port groups.

``lint_netlist`` runs both tiers; ``well_formedness`` only the first
(that is what ``validate()`` raises on).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.diag import Diagnostic, LintReport, error, info, warning
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType, eval_gate_bool
from repro.netlist.hashing import structural_hash
from repro.netlist.traverse import topological_order, transitive_fanin


def find_cycle(circuit: Circuit) -> Optional[List[str]]:
    """One combinational cycle as an explicit net path, or ``None``.

    The returned list starts and ends on the same net:
    ``['g1', 'g4', 'g2', 'g1']``.  Iterative DFS over the fanin
    relation; the first back edge found is expanded into its path.
    """
    state: Dict[str, int] = {}  # 0 = on stack, 1 = done
    for root in circuit.gates:
        if state.get(root) == 1:
            continue
        # stack of (net, fanin iterator); parallel path of nets on stack
        path: List[str] = []
        stack: List[Tuple[str, Iterable[str]]] = []

        def push(net: str) -> None:
            state[net] = 0
            path.append(net)
            stack.append((net, iter(circuit.gates[net].fanins)))

        push(root)
        while stack:
            net, fanins = stack[-1]
            advanced = False
            for nxt in fanins:
                if nxt not in circuit.gates:
                    continue  # primary input: never part of a cycle
                st = state.get(nxt)
                if st == 0:
                    # back edge: nxt is on the current path
                    start = path.index(nxt)
                    cycle = path[start:] + [nxt]
                    cycle.reverse()  # report in signal-flow direction
                    return cycle
                if st is None:
                    push(nxt)
                    advanced = True
                    break
            if not advanced:
                state[net] = 1
                stack.pop()
                path.pop()
    return None


# ----------------------------------------------------------------------
# tier 1: well-formedness (errors)
# ----------------------------------------------------------------------
def well_formedness(circuit: Circuit) -> List[Diagnostic]:
    """The error-tier structural rules (``NL001``–``NL010``)."""
    diags: List[Diagnostic] = []
    input_set = set(circuit.inputs)
    if len(input_set) != len(circuit.inputs):
        seen: Set[str] = set()
        dups: List[str] = []
        for n in circuit.inputs:
            if n in seen and n not in dups:
                dups.append(n)
            seen.add(n)
        diags.append(error(
            "NL001", "duplicate primary input names: " + ", ".join(dups),
            where="inputs",
            hint="every primary input must be declared exactly once"))
    for name, gate in circuit.gates.items():
        if name != gate.name:
            diags.append(error(
                "NL002",
                f"gate key {name!r} != gate name {gate.name!r}",
                where=f"gate {name!r}"))
        if name in input_set:
            diags.append(error(
                "NL003", f"net name {name!r} is both input and gate",
                where=f"net {name!r}"))
        if not gate.gtype.arity_ok(len(gate.fanins)):
            diags.append(error(
                "NL005",
                f"gate {name!r}: arity {len(gate.fanins)} invalid for "
                f"{gate.gtype.value}",
                where=f"gate {name!r}"))
        for i, f in enumerate(gate.fanins):
            if not circuit.has_net(f):
                diags.append(error(
                    "NL006", f"gate {name!r} pin {i}: dangling net {f!r}",
                    where=f"gate {name!r} pin {i}"))
    for port, net in circuit.outputs.items():
        if not circuit.has_net(net):
            diags.append(error(
                "NL007", f"output {port!r}: dangling net {net!r}",
                where=f"output {port!r}"))
        if net != port and circuit.has_net(port):
            # a gate or input named like the port but driving a
            # different net confuses readers of the netlist; writers
            # must (and do) mangle the colliding net on serialization
            diags.append(warning(
                "NL004",
                f"output port {port!r} collides with an unrelated net "
                f"of the same name (port observes {net!r})",
                where=f"output {port!r}",
                hint="rename the port or the net; the BLIF writer "
                     "emits the colliding net under a mangled name"))
    if not circuit.outputs:
        diags.append(error("NL008", "circuit has no outputs",
                           where="outputs"))
    cycle = find_cycle(circuit)
    if cycle is not None:
        diags.append(error(
            "NL010",
            "combinational cycle: " + " -> ".join(cycle),
            where=f"net {cycle[0]!r}",
            hint="a rewire drove a pin from a net inside its own "
                 "fanout cone"))
    return diags


# ----------------------------------------------------------------------
# tier 2: hygiene (warnings / infos)
# ----------------------------------------------------------------------
def _hygiene(circuit: Circuit) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    observed = set(circuit.outputs.values())
    sink_map = circuit.sink_map()
    live = transitive_fanin(circuit, circuit.outputs.values())

    for name in circuit.inputs:
        if not sink_map[name] and name not in observed:
            diags.append(info(
                "NL025", f"primary input {name!r} is never read",
                where=f"input {name!r}"))
    for name in circuit.gates:
        if name in live:
            continue
        if not sink_map[name] and name not in observed:
            diags.append(warning(
                "NL020",
                f"floating net {name!r}: no sinks and not observed by "
                "any output",
                where=f"net {name!r}",
                hint="remove the gate or wire it somewhere"))
        else:
            diags.append(warning(
                "NL023",
                f"dead logic: gate {name!r} is unreachable from every "
                "output",
                where=f"gate {name!r}",
                hint="its whole fanout cone is dead; sweep it"))

    diags.extend(_constant_folding(circuit))
    diags.extend(_duplicate_structure(circuit))
    diags.extend(_width_gaps(circuit))
    return diags


def _constant_folding(circuit: Circuit) -> List[Diagnostic]:
    """``NL021``: gates whose output is constant for every input."""
    diags: List[Diagnostic] = []
    const: Dict[str, bool] = {}
    for name in topological_order(circuit):
        gate = circuit.gates[name]
        value: Optional[bool] = None
        if gate.gtype is GateType.CONST0:
            const[name] = False
            continue
        if gate.gtype is GateType.CONST1:
            const[name] = True
            continue
        operands = [const.get(f) for f in gate.fanins]
        if all(v is not None for v in operands):
            value = eval_gate_bool(
                gate.gtype, [bool(v) for v in operands])
        elif gate.gtype in (GateType.AND, GateType.NAND) \
                and any(v is False for v in operands):
            value = gate.gtype is GateType.NAND
        elif gate.gtype in (GateType.OR, GateType.NOR) \
                and any(v is True for v in operands):
            value = gate.gtype is GateType.OR
        elif gate.gtype in (GateType.XOR, GateType.XNOR) \
                and len(gate.fanins) == 2 \
                and gate.fanins[0] == gate.fanins[1]:
            value = gate.gtype is GateType.XNOR
        if value is not None:
            const[name] = value
            diags.append(warning(
                "NL021",
                f"gate {name!r} ({gate.gtype.value}) always evaluates "
                f"to {int(value)}",
                where=f"gate {name!r}",
                hint="fold it into a constant"))
    return diags


def _duplicate_structure(circuit: Circuit) -> List[Diagnostic]:
    """``NL022``: gates computing structurally identical functions."""
    diags: List[Diagnostic] = []
    groups: Dict[int, List[str]] = {}
    keys = structural_hash(circuit)
    for name in circuit.gates:
        groups.setdefault(keys[name], []).append(name)
    for names in groups.values():
        if len(names) < 2:
            continue
        names = sorted(names)
        diags.append(info(
            "NL022",
            "structurally duplicate gates: " + ", ".join(
                repr(n) for n in names),
            where=f"gate {names[0]!r}",
            hint="strash would merge these"))
    return diags


_BIT_NAME = re.compile(r"^(?P<prefix>.*?)(?P<index>\d+)$")


def _width_gaps(circuit: Circuit) -> List[Diagnostic]:
    """``NL030``: bit-indexed port groups with missing indices.

    Ports named ``sum0, sum1, sum3`` declare a word with a hole at
    bit 2 — almost always a mis-declared width rather than intent.
    """
    diags: List[Diagnostic] = []
    for kind, names in (("input", circuit.inputs),
                        ("output", list(circuit.outputs))):
        words: Dict[str, List[int]] = {}
        for name in names:
            m = _BIT_NAME.match(name)
            if m and m.group("prefix"):
                words.setdefault(m.group("prefix"), []).append(
                    int(m.group("index")))
        for prefix, indices in sorted(words.items()):
            if len(indices) < 2:
                continue
            present = set(indices)
            expected = range(min(present), max(present) + 1)
            missing = [i for i in expected if i not in present]
            if missing:
                diags.append(warning(
                    "NL030",
                    f"{kind} word {prefix!r} has width gap(s): missing "
                    + ", ".join(f"{prefix}{i}" for i in missing),
                    where=f"{kind} word {prefix!r}",
                    hint="bit-indexed ports should form a contiguous "
                         "0-based range"))
    return diags


# ----------------------------------------------------------------------
def lint_netlist(circuit: Circuit, deep: bool = True) -> LintReport:
    """Run the netlist analyzer on one circuit.

    ``deep=False`` restricts the run to the well-formedness tier — the
    cheap subset the engine asserts after every patch commit.  The
    hygiene tier is skipped automatically while well-formedness errors
    are present (its passes assume a sane, acyclic circuit).
    """
    report = LintReport(tool="netlist", subject=circuit.name)
    report.extend(well_formedness(circuit))
    if deep and report.ok:
        report.extend(_hygiene(circuit))
    return report
