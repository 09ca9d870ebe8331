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

The domain only casts, and a search casts only the failing output's
spec cone, for ``f'(g(z))`` in ``H(t)``.  Code ``k`` denotes sample
``k``, so a cast net's function at code ``k`` is bit ``k`` of the net's
word in the search's :class:`~repro.eco.validate.SimulationFilter`:
counts over the samples are popcounts of those words, and ``Xi(c)`` is
checked on them, with no cast of the candidates.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import EcoError
from repro.bdd.manager import BddManager, FALSE
from repro.bdd.netbridge import net_functions
from repro.netlist.circuit import Circuit

Assignment = Mapping[str, bool]


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
        num_samples: the codes ``0 .. num_samples - 1`` denote the
            given samples; the codes above repeat the last one.
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
        padded = list(samples) + [samples[-1]] * (size - n)
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

    def cast_circuit(self, circuit: Circuit,
                     roots: Optional[Iterable[str]] = None
                     ) -> Dict[str, int]:
        """Net functions of ``circuit`` in the sampling domain.

        Inputs outside the domain read constant FALSE: they do not
        affect the sampled cones by construction of the sample set.
        """
        input_functions = dict(self.input_functions)
        for name in circuit.inputs:
            input_functions.setdefault(name, FALSE)
        return net_functions(circuit, self.manager, input_functions,
                             roots=roots)
