"""Patch-input refinement by sweeping (Section 5.2, post-processing).

After all rewires are committed, each gate cloned from the
specification is compared against the pre-existing implementation
logic: when an original net is SAT-proven equivalent to a cloned net
(and wiring it in is acyclic), the clone's sinks are redirected to the
original and the clone is removed.  This 'reuses already existing
current implementation logic, thereby reducing the patch size'.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cec.equivalence import PairwiseChecker
from repro.cec.sweep import prune_dangling
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import signature


def refine_patch_inputs(patched: Circuit, cloned_gates: Set[str],
                        rounds: int = 4, seed: int = 97,
                        conflict_budget: Optional[int] = 20000,
                        context: Optional[PairwiseChecker] = None
                        ) -> Tuple[int, Set[str]]:
    """Replace cloned patch logic with equivalent existing nets.

    Args:
        patched: the rectified implementation (modified in place).
        cloned_gates: names of gates the patch instantiated.
        rounds: random-simulation rounds for candidate pairing.
        seed: simulation seed.
        conflict_budget: SAT budget per equivalence proof.
        context: the run's equivalence context, rebound to ``patched``:
            a pair it already tied is replaced without a solve, and a
            pair its sweep patterns tell apart is skipped.  By default
            a checker of its own.

    Returns:
        ``(replacements, remaining_clones)`` — the number of cloned
        nets eliminated and the cloned gates still present afterwards.
    """
    alive = {g for g in cloned_gates if g in patched.gates}
    if not alive:
        return 0, set()

    sigs = signature(patched, rounds=rounds, seed=seed)
    by_sig: Dict[int, List[str]] = {}
    for net, sig in sigs.items():
        if net not in alive:
            by_sig.setdefault(sig, []).append(net)

    if context is None:
        # only the left side of a checker of its own is ever encoded
        context = PairwiseChecker(patched, patched)
    varmap = context.rebind(patched)

    replacements = 0
    # one sink map for the whole pass, kept in step with every rewire
    sinks = patched.sink_map()
    # deepest clones first so upstream replacements cascade; names
    # break depth ties, so the order never follows set iteration
    for clone in sorted(alive, key=lambda g: (-_depth(patched, g), g)):
        if not sinks[clone]:
            continue
        originals = by_sig.get(sigs[clone], ())
        if not originals:
            continue
        # wiring in a net downstream of the clone would close a cycle;
        # nothing edits the circuit until the loop below breaks
        downstream = _fanout_cone(sinks, clone)
        for candidate in originals:
            if candidate not in downstream and context.nets_equal(
                    varmap[clone], varmap[candidate], conflict_budget):
                for pin in sinks[clone]:
                    patched.rewire_pin(pin, candidate)
                sinks[candidate].extend(sinks[clone])
                sinks[clone] = []
                replacements += 1
                break
    if replacements:
        prune_dangling(patched)
    remaining = {g for g in alive if g in patched.gates}
    return replacements, remaining


def _fanout_cone(sinks: Dict[str, List[Pin]], net: str) -> Set[str]:
    """Inclusive transitive fanout of ``net`` over a sink map."""
    seen = {net}
    stack = [net]
    while stack:
        for pin in sinks[stack.pop()]:
            if not pin.is_output_port and pin.owner not in seen:
                seen.add(pin.owner)
                stack.append(pin.owner)
    return seen


def _depth(circuit: Circuit, net: str) -> int:
    """Cheap depth proxy: fanin count of the driving gate."""
    gate = circuit.gates.get(net)
    return len(gate.fanins) if gate else 0
