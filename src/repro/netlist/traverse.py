"""Traversal utilities: topological order, cones, supports, levels."""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Set

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit


#: key of the cached whole-circuit order in ``Circuit.derived_cache()``
_TOPO_KEY = "topo_order"


def topological_order(circuit: Circuit,
                      roots: Optional[Iterable[str]] = None) -> List[str]:
    """Gate names in topological (fanin-before-fanout) order.

    When ``roots`` is given, only gates in the transitive fanin of those
    nets are returned.  Raises :class:`NetlistError` on a combinational
    cycle.

    The whole-circuit order (``roots=None``) is cached on the circuit
    and invalidated by any mutating edit; callers must treat the
    returned list as read-only.
    """
    cache = None
    if roots is None:
        cache = circuit.derived_cache()
        cached = cache.get(_TOPO_KEY)
        if cached is not None:
            return cached
        targets: List[str] = list(circuit.gates)
    else:
        targets = [r for r in roots if r in circuit.gates]

    order: List[str] = []
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done
    for root in targets:
        if state.get(root) == 1:
            continue
        stack: List[tuple] = [(root, 0)]
        while stack:
            net, phase = stack.pop()
            if phase == 0:
                if net not in circuit.gates:
                    continue  # primary input
                st = state.get(net)
                if st == 1:
                    continue
                if st == 0:
                    raise NetlistError(f"combinational cycle through {net!r}")
                state[net] = 0
                stack.append((net, 1))
                for f in circuit.gates[net].fanins:
                    if state.get(f) != 1:
                        stack.append((f, 0))
            else:
                if state.get(net) != 1:
                    state[net] = 1
                    order.append(net)
    if cache is not None:
        cache[_TOPO_KEY] = order
    return order


def transitive_fanin(circuit: Circuit, nets: Iterable[str],
                     include_inputs: bool = True) -> Set[str]:
    """All nets in the transitive fanin of ``nets`` (inclusive)."""
    seen: Set[str] = set()
    stack = [n for n in nets]
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        if net in circuit.gates:
            stack.extend(circuit.gates[net].fanins)
    if not include_inputs:
        seen -= set(circuit.inputs)
    return seen


def transitive_fanout(circuit: Circuit, nets: Iterable[str]) -> Set[str]:
    """All nets in the transitive fanout of ``nets`` (inclusive)."""
    fanout: Dict[str, List[str]] = {}
    for g in circuit.gates.values():
        for f in g.fanins:
            fanout.setdefault(f, []).append(g.name)
    seen: Set[str] = set()
    stack = [n for n in nets]
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        stack.extend(fanout.get(net, ()))
    return seen


def support_masks(circuit: Circuit,
                  input_index: Optional[Dict[str, int]] = None
                  ) -> Dict[str, int]:
    """Structural input support of every net, as bitmasks.

    Bit ``k`` of a net's mask is set when the net depends on the input
    at position ``k`` (``input_index`` allows sharing one numbering
    across circuits with the same inputs, e.g. C and C').  One linear
    pass; much faster than per-net :func:`input_support` calls.
    """
    if input_index is None:
        input_index = {n: i for i, n in enumerate(circuit.inputs)}
    masks: Dict[str, int] = {}
    for n in circuit.inputs:
        masks[n] = 1 << input_index[n]
    for name in topological_order(circuit):
        acc = 0
        for f in circuit.gates[name].fanins:
            acc |= masks[f]
        masks[name] = acc
    return masks


def nets_within_support(circuit: Circuit,
                        inputs: AbstractSet[str]) -> Set[str]:
    """Nets whose structural input support lies within ``inputs``.

    One topological pass: a gate is within when all its fanins are, so
    a constant gate always is.  Answers the containment that
    :func:`support_masks` answers, with no per-net mask.
    """
    within = {n for n in circuit.inputs if n in inputs}
    for name in topological_order(circuit):
        if all(f in within for f in circuit.gates[name].fanins):
            within.add(name)
    return within


def input_support(circuit: Circuit, net: str) -> Set[str]:
    """Primary inputs that the function of ``net`` structurally depends on."""
    return {n for n in transitive_fanin(circuit, [net]) if circuit.is_input(n)}


def dependent_outputs(circuit: Circuit, nets: Iterable[str]) -> List[str]:
    """Output ports whose cones contain any of ``nets``."""
    tfo = transitive_fanout(circuit, nets)
    return [p for p, n in circuit.outputs.items() if n in tfo]


def levelize(circuit: Circuit) -> Dict[str, int]:
    """Logic level of every net: inputs at 0, gate = 1 + max(fanins).

    Constants sit at level 0.  This is the unit-delay backbone of the
    timing substrate and of the paper's level-driven rewire selection.
    """
    levels: Dict[str, int] = {n: 0 for n in circuit.inputs}
    for name in topological_order(circuit):
        gate = circuit.gates[name]
        if not gate.fanins:
            levels[name] = 0
        else:
            levels[name] = 1 + max(levels[f] for f in gate.fanins)
    return levels
