"""The symbolic sampling domain (Section 5.1).

Given ``N`` input assignments, ``ceil(log2 N)`` fresh ``z`` variables
encode them: code ``k`` denotes sample ``k``, and the codes from ``N``
up to the next power of two repeat sample ``N - 1``.  The paper's
sampling function ``g(z)`` maps codes to assignments; overloading the
circuit inputs with it casts a computation from the exact ``x`` domain
into the sampling ``z`` domain, where BDDs stay small regardless of
design size.

Overloading fixes a net's cast function by the net's values on the
samples, and those are the bits of its word in the output search's
:class:`~repro.eco.validate.SimulationFilter`, sample ``k`` at bit
``k``.  So the domain builds no ``g_i(z)`` and walks no netlist: it is
a BDD view of the filter's words (:meth:`SamplingDomain.function_of`).
A search casts only the failing output's spec net, for ``f'(g(z))`` in
``H(t)``, and ``H(t)`` evaluates gates over BDDs only where its ``y``
and ``t`` variables enter (:mod:`repro.eco.points`).  Counts over the
samples are popcounts of the same words, and ``Xi(c)`` is checked on
them.

Reasoning in the domain over-approximates (a super-set of candidates),
so every candidate found here is later validated by SAT on the full
domain.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import EcoError
from repro.bdd.manager import BddManager, FALSE, TRUE
from repro.netlist.circuit import Circuit
from repro.eco.validate import SimulationFilter


class SamplingDomain:
    """The ``z`` encoding of a :class:`SimulationFilter`'s samples.

    Args:
        manager: target BDD manager; ``z`` variables are allocated here.
        sim: the output search's filter; the low ``sim.num_samples``
            bits of its words are the samples.

    Attributes:
        z_vars: allocated variable indices, most significant first.
        num_samples: the codes ``0 .. num_samples - 1`` denote the
            samples; the codes above repeat the last one.
    """

    def __init__(self, manager: BddManager, sim: SimulationFilter):
        if sim.num_samples < 1:
            raise EcoError("sampling domain needs at least one sample")
        self.manager = manager
        self.sim = sim
        self.num_samples = sim.num_samples
        bits = max(1, (self.num_samples - 1).bit_length())
        self.z_vars: List[int] = [manager.add_var() for _ in range(bits)]
        self._functions: Dict[int, int] = {}

    def function_of(self, word: int) -> int:
        """The cast function of a net whose filter word is ``word``.

        Its value at code ``k`` is bit ``k`` of the word; memoized per
        word.  Built bottom-up from the bits, one ``z`` variable per
        level, so only the result's own nodes are made.
        """
        last = self.num_samples - 1
        word &= self.sim.sample_mask
        node = self._functions.get(word)
        if node is None:
            manager = self.manager
            level = [TRUE if word >> min(k, last) & 1 else FALSE
                     for k in range(1 << len(self.z_vars))]
            for var in reversed(self.z_vars):
                z = manager.var(var)
                level = [manager.mux(z, level[i], level[i + 1])
                         for i in range(0, len(level), 2)]
            node = self._functions[word] = level[0]
        return node

    def cast_circuit(self, circuit: Circuit,
                     roots: Optional[Iterable[str]] = None
                     ) -> Dict[str, int]:
        """Net functions of ``circuit`` in the sampling domain: of
        ``roots`` only, or of every net.

        ``circuit`` is the filter's implementation or its spec; each
        function is read off the net's word.
        """
        sim = self.sim
        if circuit is sim.impl:
            word_of = sim.value
        elif circuit is sim.spec:
            word_of = sim.spec_value
        else:
            raise EcoError(
                f"circuit {circuit.name!r} is not simulated by the "
                "domain's filter")
        nets = circuit.nets() if roots is None else roots
        return {net: self.function_of(word_of(net)) for net in nets}
