"""Whole-circuit legality checks of rewire candidates (test oracle).

The Section 3.3 pin constraint and the joint acyclicity check exactly
as candidate validation made them before it re-checked legality on a
:class:`~repro.lint.patch_rules.PatchScreen`: every call rebuilds the
circuit's fanout map (once per pin for the pin constraint) before
walking it.  The differential tests pin
:func:`repro.eco.validate.pins_unconnected` and
:meth:`PatchScreen.cycle_path` to these verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.eco.patch import RewireOp
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import transitive_fanout


def topological_constraint_ok(impl: Circuit, pins: Sequence[Pin]) -> bool:
    """The Section 3.3 restriction: no path connects any pair of pins."""
    gate_pins = [p for p in pins if not p.is_output_port]
    owners = {p.owner for p in gate_pins}
    for pin in gate_pins:
        downstream = transitive_fanout(impl, [pin.owner])
        downstream.discard(pin.owner)
        if downstream & owners:
            return False
    return True


def rewire_acyclic(impl: Circuit, ops: Sequence[RewireOp]) -> bool:
    """No implementation-sourced rewire may close a combinational cycle.

    Checked jointly: with several simultaneous rewires a cycle can pass
    through more than one new edge, so the test walks the fanout
    relation augmented with all proposed edges at once.
    """
    extra_edges: Dict[str, Set[str]] = {}
    for op in ops:
        if op.from_spec or op.pin.is_output_port:
            continue
        extra_edges.setdefault(op.source_net, set()).add(op.pin.owner)

    if not extra_edges:
        return True

    fanout: Dict[str, List[str]] = {}
    for g in impl.gates.values():
        for i, f in enumerate(g.fanins):
            # skip edges that the rewires remove
            if any(op.pin == Pin.gate(g.name, i) for op in ops):
                continue
            fanout.setdefault(f, []).append(g.name)
    for src, dsts in extra_edges.items():
        fanout.setdefault(src, []).extend(dsts)

    # cycle check via DFS from the new edges' sources
    state: Dict[str, int] = {}

    def dfs(net: str) -> bool:
        stack = [(net, iter(fanout.get(net, ())))]
        state[net] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                st = state.get(nxt)
                if st == 0:
                    return False  # back edge: cycle
                if st is None:
                    state[nxt] = 0
                    stack.append((nxt, iter(fanout.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
        return True

    for src in extra_edges:
        if state.get(src) is None:
            if not dfs(src):
                return False
    return True
