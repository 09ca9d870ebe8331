"""Canned optimization scripts: heavy (implementation) and light (spec)."""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.netlist.circuit import Circuit
from repro.netlist.hashing import strash
from repro.cec.sweep import sweep_equivalent_nets, prune_dangling
from repro.synth.simplify import simplify_constants
from repro.synth.restructure import decompose_two_input, demorgan_restructure


def run_script(circuit: Circuit,
               passes: Sequence[Callable[[Circuit], Circuit]]) -> Circuit:
    """Apply passes left to right; each must be function-preserving."""
    current = circuit
    for p in passes:
        current = p(current)
    return current


def optimize_light(circuit: Circuit) -> Circuit:
    """Lightweight synthesis: what the revised spec ``C'`` receives.

    Structural hashing plus constant propagation — enough to remove
    obvious redundancy without disturbing the source structure, mirroring
    the 'technology-independent representation' the paper synthesizes
    from the revised VHDL.
    """
    return run_script(circuit, [strash, simplify_constants, strash])


def optimize_heavy(circuit: Circuit, seed: int = 1,
                   sweep: bool = True) -> Circuit:
    """Aggressive synthesis: what the implementation ``C`` went through.

    Randomized 2-input decomposition, De Morgan re-expression, constant
    propagation, structural hashing and (optionally) SAT sweeping.  The
    output is functionally equivalent to the input but structurally
    remote from it — the regime in which structural ECO approaches
    degrade and the paper's functional search shines.
    """
    passes: List[Callable[[Circuit], Circuit]] = [
        strash,
        simplify_constants,
        lambda c: decompose_two_input(c, seed=seed),
        lambda c: demorgan_restructure(c, seed=seed + 1, probability=0.45),
        strash,
        simplify_constants,
    ]
    result = run_script(circuit, passes)
    if sweep:
        result, _ = sweep_equivalent_nets(result)
        result = strash(result)
    prune_dangling(result)
    return result
