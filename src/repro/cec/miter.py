"""Miter construction.

A miter of two circuits shares their primary inputs by name, XORs every
corresponding output pair and ORs the differences into a single output
``diff`` that is satisfiable iff the circuits disagree somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cec.equivalence import compared_ports
from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order


@dataclass
class MiterInfo:
    """The miter circuit plus bookkeeping for its internals."""

    circuit: Circuit
    #: net (in the miter) computing ``out_A xor out_B`` per output port
    diff_nets: Dict[str, str] = field(default_factory=dict)
    #: original net name -> miter net name, per side
    left_map: Dict[str, str] = field(default_factory=dict)
    right_map: Dict[str, str] = field(default_factory=dict)


def _import_side(miter: Circuit, side: Circuit, tag: str) -> Dict[str, str]:
    """Copy the gates of one side into the miter with renamed nets."""
    mapping: Dict[str, str] = {}
    for name in side.inputs:
        if not miter.has_net(name):
            raise NetlistError(f"miter input {name!r} missing")
        mapping[name] = name
    for gname in topological_order(side):
        gate = side.gates[gname]
        new_name = f"{tag}${gname}"
        miter.add_gate(new_name, gate.gtype,
                       [mapping[f] for f in gate.fanins])
        mapping[gname] = new_name
    return mapping


def build_miter(left: Circuit, right: Circuit,
                outputs: Optional[Sequence[str]] = None,
                name: str = "miter") -> MiterInfo:
    """Build a miter over the shared outputs of two circuits.

    Args:
        left: typically the current implementation ``C``.
        right: typically the revised specification ``C'``.
        outputs: output ports to compare; defaults to the ports present
            in both circuits (which must be non-empty).
        name: name for the miter circuit.

    Returns:
        :class:`MiterInfo` whose circuit has a single output ``diff``.
    """
    outputs = compared_ports(left, right, outputs)
    if not outputs:
        raise NetlistError("no shared outputs to compare")

    miter = Circuit(name)
    seen = set()
    for n in list(left.inputs) + [i for i in right.inputs]:
        if n not in seen:
            miter.add_input(n)
            seen.add(n)

    left_map = _import_side(miter, left, "l")
    right_map = _import_side(miter, right, "r")

    diff_nets: Dict[str, str] = {}
    for p in outputs:
        ln = left_map[left.outputs[p]]
        rn = right_map[right.outputs[p]]
        diff_nets[p] = miter.add_gate(f"diff${p}", GateType.XOR, [ln, rn])
    if len(diff_nets) == 1:
        top = next(iter(diff_nets.values()))
    else:
        top = miter.add_gate("diff$any", GateType.OR, list(diff_nets.values()))
    miter.set_output("diff", top)
    return MiterInfo(circuit=miter, diff_nets=diff_nets,
                     left_map=left_map, right_map=right_map)
