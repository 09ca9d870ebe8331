"""Reference per-gate simulation (test oracle).

The dictionary walk that evaluates one gate at a time in topological
order with :func:`repro.netlist.gate.eval_gate`, and the per-round
signature loop built on it -- exactly what ``simulate_words`` and
``signature`` computed before they went through the compiled plan.
The plan and vector-kernel parity tests and ``benchmarks/bench_perf.py``
compare the production paths against these.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import WORD_BITS, WORD_MASK, eval_gate
from repro.netlist.simulate import random_patterns
from repro.netlist.traverse import topological_order


def reference_simulate_words(circuit: Circuit,
                             input_words: Mapping[str, int]
                             ) -> Dict[str, int]:
    """Every net's 64-bit word, one ``eval_gate`` call per gate."""
    values: Dict[str, int] = {}
    for name in circuit.inputs:
        try:
            values[name] = input_words[name] & WORD_MASK
        except KeyError:
            raise NetlistError(f"missing value for input {name!r}")
    gates = circuit.gates
    for name in topological_order(circuit):
        gate = gates[name]
        values[name] = eval_gate(gate.gtype, [values[f] for f in gate.fanins])
    return values


def reference_signature(circuit: Circuit, rounds: int,
                        seed: int = 2019) -> Dict[str, int]:
    """``rounds`` single-word walks, each shifted in after the last."""
    rng = random.Random(seed)
    sigs: Dict[str, int] = {n: 0 for n in circuit.nets()}
    for _ in range(rounds):
        values = reference_simulate_words(
            circuit, random_patterns(circuit.inputs, rng))
        for net in sigs:
            sigs[net] = (sigs[net] << WORD_BITS) | values[net]
    return sigs
