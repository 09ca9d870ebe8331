"""The symbolic sampling domain (Section 5.1).

Given ``N`` input assignments, ``ceil(log2 N)`` fresh ``z`` variables
encode them and the sampling function ``g = (g_1 ... g_n)`` maps codes
to assignments — the matrix product of the one-hot code vector with the
0/1 sample matrix from the paper.  Overloading circuit inputs with
``g(z)`` casts any computation from the exact ``x`` domain into the
sampling ``z`` domain, where BDDs stay small regardless of design size.

Reasoning in the domain over-approximates (a super-set of candidates),
so every candidate found here is later validated by SAT on the full
domain.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import EcoError
from repro.bdd.manager import BddManager, FALSE
from repro.bdd.netbridge import net_functions
from repro.netlist.circuit import Circuit

Assignment = Mapping[str, bool]


def exhaustive_assignments(inputs: Sequence[str],
                           fixed: Optional[Mapping[str, bool]] = None
                           ) -> List[Dict[str, bool]]:
    """All assignments over ``inputs``, each extended with ``fixed``.

    Used by the engine's exact-domain mode: when a failing cone's
    support is small, the 'sampling' domain can enumerate it completely
    and the Section 4 computations become exact (no validation
    false positives possible from domain abstraction).
    """
    base = dict(fixed) if fixed else {}
    out: List[Dict[str, bool]] = []
    names = list(inputs)
    for code in range(1 << len(names)):
        assignment = dict(base)
        for i, n in enumerate(names):
            assignment[n] = bool(code >> i & 1)
        out.append(assignment)
    return out


class SamplingDomain:
    """Encodes a set of input samples with ``z`` variables.

    Args:
        manager: target BDD manager; ``z`` variables are allocated here.
        samples: the sampled assignments; each must cover ``inputs``.
        inputs: input names the domain provides functions for.
        checkpoint: optional callable invoked once per encoded input
            while the ``g_i(z)`` functions are built; the run
            supervisor passes its deadline check here.

    Attributes:
        z_vars: allocated variable indices, most significant first.
        input_functions: ``g_i(z)`` BDD per input name.
    """

    def __init__(self, manager: BddManager, samples: Sequence[Assignment],
                 inputs: Sequence[str],
                 checkpoint: Optional[Callable[[], None]] = None):
        if not samples:
            raise EcoError("sampling domain needs at least one sample")
        self.manager = manager
        self.inputs = list(inputs)
        # pad to a power of two by repeating the last sample so every
        # z code denotes a sampled assignment
        n = len(samples)
        bits = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        size = 1 << bits
        padded: List[Assignment] = list(samples) + \
            [samples[-1]] * (size - n)
        self.samples = padded
        self.num_samples = n
        self.z_vars: List[int] = [manager.add_var() for _ in range(bits)]
        self._minterms: List[int] = [
            self._code_cube(k) for k in range(size)
        ]
        self.input_functions: Dict[str, int] = {}
        for name in self.inputs:
            if checkpoint is not None:
                checkpoint()
            acc = FALSE
            for k, sample in enumerate(padded):
                try:
                    value = sample[name]
                except KeyError:
                    raise EcoError(f"sample {k} misses input {name!r}")
                if value:
                    acc = manager.or_(acc, self._minterms[k])
            self.input_functions[name] = acc

    def _code_cube(self, k: int) -> int:
        """BDD of ``z^k`` (big-endian binary code of sample index)."""
        bits = len(self.z_vars)
        assignment = {
            self.z_vars[i]: bool((k >> (bits - 1 - i)) & 1)
            for i in range(bits)
        }
        return self.manager.cube(assignment)

    def code_of(self, k: int) -> int:
        """The minterm selecting sample ``k``."""
        return self._minterms[k]

    def valid_codes(self) -> int:
        """BDD of the codes denoting distinct (non-padding) samples."""
        acc = FALSE
        for k in range(self.num_samples):
            acc = self.manager.or_(acc, self._minterms[k])
        return acc

    def count_in_domain(self, node: int) -> int:
        """Number of distinct samples on which ``node`` holds.

        ``node`` must depend on the ``z`` variables only (cast-circuit
        results satisfy this), and the domain must have been created on
        a fresh manager so the ``z`` variables occupy positions
        ``0..bits-1``.
        """
        support = self.manager.support(node)
        zset = set(self.z_vars)
        if not support <= zset:
            raise EcoError("count_in_domain: node depends on non-z variables")
        restricted = self.manager.and_(node, self.valid_codes())
        return self.manager.satcount(restricted,
                                     num_vars=max(zset) + 1)

    def sample_of_assignment(self, z_assignment: Mapping[int, bool]) -> Assignment:
        """Decode a ``z`` assignment back to the sampled input pattern."""
        k = 0
        bits = len(self.z_vars)
        for i, v in enumerate(self.z_vars):
            if z_assignment.get(v, False):
                k |= 1 << (bits - 1 - i)
        return self.samples[k]

    def cast_circuit(self, circuit: Circuit,
                     roots: Optional[Iterable[str]] = None,
                     extra_inputs: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, int]:
        """Net functions of ``circuit`` in the sampling domain.

        ``extra_inputs`` supplies BDDs for inputs outside the domain
        (unused inputs default to constant FALSE — they do not affect
        the sampled cones by construction of the sample set).
        """
        input_functions = dict(self.input_functions)
        for name in circuit.inputs:
            if name not in input_functions:
                if extra_inputs and name in extra_inputs:
                    input_functions[name] = extra_inputs[name]
                else:
                    input_functions[name] = FALSE
        return net_functions(circuit, self.manager, input_functions,
                             roots=roots)
