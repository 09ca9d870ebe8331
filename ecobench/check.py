"""Output checks that do not trust the engine.

:func:`simulation_mismatch` re-checks a patched netlist against its
spec by random multi-word simulation with its own gate evaluator and
its own topological order, so a defect shared by the engine's SAT
verdict and its compiled simulation plans cannot hide here.
:func:`outcome_drift` compares per-output outcomes with the golden
ones recorded for the default seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional

#: 64-pattern words per input in one check (4096 random patterns)
CHECK_WORDS = 64


def _topological(circuit) -> List[str]:
    """Gate names in fanin-first order; raises on a combinational cycle."""
    gates = circuit.gates
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 = on the DFS path, 2 = done
    for root in gates:
        if state.get(root):
            continue
        stack = [(root, iter(gates[root].fanins))]
        state[root] = 1
        while stack:
            name, fanins = stack[-1]
            for net in fanins:
                if net not in gates:
                    continue
                mark = state.get(net)
                if mark == 1:
                    raise ValueError(f"combinational cycle through {net!r}")
                if mark is None:
                    state[net] = 1
                    stack.append((net, iter(gates[net].fanins)))
                    break
            else:
                stack.pop()
                state[name] = 2
                order.append(name)
    return order


def _evaluate(kind: str, operands: List[int], mask: int) -> int:
    if kind == "const0":
        return 0
    if kind == "const1":
        return mask
    if kind == "buf":
        return operands[0]
    if kind == "not":
        return ~operands[0] & mask
    if kind == "mux":
        sel, d0, d1 = operands
        return (d0 & ~sel | d1 & sel) & mask
    acc = operands[0]
    if kind in ("and", "nand"):
        for v in operands[1:]:
            acc &= v
    elif kind in ("or", "nor"):
        for v in operands[1:]:
            acc |= v
    elif kind in ("xor", "xnor"):
        for v in operands[1:]:
            acc ^= v
    else:
        raise ValueError(f"unknown gate type {kind!r}")
    return ~acc & mask if kind in ("nand", "nor", "xnor") else acc


def simulate_outputs(circuit, words: Mapping[str, int],
                     mask: int) -> Dict[str, int]:
    """Output-port values of ``circuit`` under one bit-parallel batch."""
    values = {name: words[name] & mask for name in circuit.inputs}
    for name in _topological(circuit):
        gate = circuit.gates[name]
        values[name] = _evaluate(gate.gtype.value,
                                 [values[f] for f in gate.fanins], mask)
    return {port: values[net] for port, net in circuit.outputs.items()}


def simulation_mismatch(patched, spec, seed: int) -> Optional[str]:
    """None when ``patched`` matches ``spec`` on every random pattern,
    else a one-line reason."""
    if set(patched.outputs) != set(spec.outputs):
        return "output ports differ from the spec"
    missing = set(spec.inputs) - set(patched.inputs)
    if missing:
        return f"spec inputs missing from the patch: {sorted(missing)[:3]}"
    rng = random.Random(seed)
    mask = (1 << (64 * CHECK_WORDS)) - 1
    words = {name: rng.getrandbits(64 * CHECK_WORDS)
             for name in sorted(set(patched.inputs) | set(spec.inputs))}
    try:
        got = simulate_outputs(patched, words, mask)
    except ValueError as exc:
        return str(exc)
    except KeyError as exc:
        return f"undriven net {exc} in the patched netlist"
    want = simulate_outputs(spec, words, mask)
    bad = sorted(p for p in spec.outputs if got[p] != want[p])
    if bad:
        return f"{len(bad)} output(s) differ from the spec, e.g. {bad[0]}"
    return None


def outcome_drift(per_output: Mapping[str, str],
                  golden: Optional[Mapping[str, str]]) -> int:
    """Outputs whose outcome differs from the golden one (every output
    counts when no golden outcome exists for the call)."""
    if golden is None:
        return len(per_output)
    ports = set(per_output) | set(golden)
    return sum(1 for p in ports if per_output.get(p) != golden.get(p))
