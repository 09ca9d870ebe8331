"""Error-domain sample collection (Section 5.1).

The sampling domain should be drawn from the error domain
``E = {x | f(x) != f'(x)}`` to minimize false-positive candidates.
Samples come from two sources, cheapest first:

1. random simulation of both circuits, keeping patterns on which the
   target output differs;
2. SAT enumeration on the miter of the target output pair, with
   blocking clauses for diversity, when simulation finds too few.

A configurable fraction of uniform (non-error) samples can be mixed in
for the sampling ablation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.netlist.circuit import Circuit
from repro.netlist.simulate import compiled_plan, random_patterns
from repro.sat import Solver, SAT
from repro.sat.tseitin import CircuitEncoder

Assignment = Dict[str, bool]


def _pattern_at(words: Dict[str, int], inputs: Sequence[str],
                bit: int) -> Assignment:
    return {n: bool((words[n] >> bit) & 1) for n in inputs}


def simulation_error_samples(impl: Circuit, spec: Circuit, port: str,
                             want: int, rng: random.Random,
                             max_rounds: int = 24) -> List[Assignment]:
    """Harvest error-domain assignments by random simulation."""
    inputs = impl.inputs
    impl_net = impl.outputs[port]
    spec_net = spec.outputs[port]
    # cached cone plans: only the target output's fanin is evaluated
    impl_plan = compiled_plan(impl, roots=[impl_net])
    spec_plan = compiled_plan(spec, roots=[spec_net])
    impl_slot = impl_plan.index[impl_net]
    spec_slot = spec_plan.index[spec_net]
    found: List[Assignment] = []
    seen = set()
    for _ in range(max_rounds):
        words = random_patterns(inputs, rng)
        spec_words = {n: words.get(n, 0) for n in spec.inputs}
        iv = impl_plan.run(words)[impl_slot]
        sv = spec_plan.run(spec_words)[spec_slot]
        diff = iv ^ sv
        bit = 0
        while diff and len(found) < want:
            if diff & 1:
                pat = _pattern_at(words, inputs, bit)
                key = tuple(pat[n] for n in inputs)
                if key not in seen:
                    seen.add(key)
                    found.append(pat)
            diff >>= 1
            bit += 1
        if len(found) >= want:
            break
    return found


def sat_error_samples(impl: Circuit, spec: Circuit, port: str,
                      want: int,
                      known: Optional[List[Assignment]] = None
                      ) -> List[Assignment]:
    """Enumerate distinct error-domain assignments with SAT.

    Each found model is blocked on the primary inputs before re-solving,
    so successive samples differ on at least one input.
    """
    solver = Solver()
    encoder = CircuitEncoder(solver)
    impl_map = encoder.encode(impl)
    shared = {n: impl_map[n] for n in impl.inputs}
    spec_map = encoder.encode(spec, input_vars=shared)
    for n in spec.inputs:
        shared.setdefault(n, spec_map[n])
    diff = encoder._encode_xor2(impl_map[impl.outputs[port]],
                                spec_map[spec.outputs[port]])
    solver.add_clause([diff])

    found: List[Assignment] = []
    block_keys = set()
    if known:
        for pat in known:
            key = tuple(sorted(pat.items()))
            block_keys.add(key)
            solver.add_clause([
                -shared[n] if v else shared[n]
                for n, v in pat.items() if n in shared
            ])
    while len(found) < want:
        if solver.solve() != SAT:
            break
        model = solver.model()
        pat = {n: model.get(v, False) for n, v in shared.items()}
        found.append(pat)
        solver.add_clause([
            -shared[n] if v else shared[n] for n, v in pat.items()
        ])
    return found


def uniform_samples(inputs: Sequence[str], want: int,
                    rng: random.Random) -> List[Assignment]:
    """Uniform random assignments (non-error-biased domain)."""
    out = []
    seen = set()
    for _ in range(want * 8):
        if len(out) >= want:
            break
        pat = {n: bool(rng.getrandbits(1)) for n in inputs}
        key = tuple(pat[n] for n in inputs)
        if key not in seen:
            seen.add(key)
            out.append(pat)
    return out


def collect_error_samples(impl: Circuit, spec: Circuit, port: str,
                          count: int, rng: random.Random,
                          error_bias: float = 1.0) -> List[Assignment]:
    """The sampling domain for one failing output.

    ``error_bias`` controls the fraction of samples drawn from the
    error domain (the paper's recommendation is all of them); the rest
    are uniform.  Falls back to SAT enumeration when simulation finds
    too few error patterns, and pads with uniform samples when the
    error domain itself is smaller than requested.
    """
    n_error = max(1, round(count * error_bias)) if error_bias > 0 else 0
    n_uniform = count - n_error
    samples = simulation_error_samples(impl, spec, port, n_error, rng)
    if len(samples) < n_error:
        samples += sat_error_samples(impl, spec, port,
                                     n_error - len(samples), known=samples)
    existing = {tuple(sorted(p.items())) for p in samples}
    for pat in uniform_samples(impl.inputs, n_uniform + count, rng):
        if len(samples) >= count:
            break
        key = tuple(sorted(pat.items()))
        if key not in existing:
            existing.add(key)
            samples.append(pat)
    return samples[:count]
