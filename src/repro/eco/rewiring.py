"""Candidate rewiring nets: structural filter + utility ranking (Sec. 4.3).

For a rectification point at pin ``q``, candidate rewiring nets are
drawn from both the current implementation ``C`` and the synthesized
specification ``C'``.  A net ``s`` passes the *structural filter* when
the input support of the revised output ``f'`` contains the transitive
fanin of ``s``, and must not create a combinational cycle when wired to
``q``.  Candidates are then ranked by the *rectification utility*

    | { x in E : q(x) != s(x) } | / |E|

evaluated on the sampled error domain — the more the candidate differs
from the current driver across the errors, the likelier it flips them.
The net currently driving the pin is always included as the *trivial*
candidate (utility 0, first preference) so an over-approximated
point-set size collapses gracefully (Section 5.2).

Both counts are popcounts of the output search's sample words
(:class:`~repro.eco.validate.SimulationFilter`): bit ``k`` of a net's
word is its value on sample ``k``, which is also its sampling-domain
function at code ``k``.  Each candidate carries that word, and the
``Xi(c)`` check of :mod:`repro.eco.choices` reads it; no candidate is
cast into the sampling domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Set

from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.eco.config import EcoConfig
from repro.eco.validate import SimulationFilter
from repro.obs.trace import ensure_trace

#: candidate rewiring nets kept per rectification point, best utility
#: first (plus the trivial driver and, at an output port, the spec's)
MAX_REWIRE_CANDIDATES = 8


@dataclass(frozen=True)
class RewireCandidate:
    """One candidate rewiring net for a rectification point."""

    net: str
    from_spec: bool
    utility: float
    #: the net's word in the output search's
    #: :class:`~repro.eco.validate.SimulationFilter`: bit ``k`` is its
    #: value on sample ``k``
    word: int
    #: logic level of the net in its home circuit (level-aware scoring)
    level: int = 0
    trivial: bool = False


class RewiringContext:
    """Per-failing-output state shared across rectification points.

    Precomputes, once per output: the spec-side support of the failing
    output, the *candidate pool* — the implementation nets and spec
    gates that pass the structural filter, which depends on the output
    and not on the pin — and the sampled error region ``E`` as a mask
    over the words of ``sim``.  :meth:`candidates_for_pin` scans only
    the pool and reads every value from ``sim``.
    """

    def __init__(self, impl: Circuit, spec: Circuit, port: str,
                 sim: SimulationFilter, config: EcoConfig,
                 impl_supports: Mapping[str, int],
                 spec_supports: Mapping[str, int],
                 impl_levels: Mapping[str, int],
                 spec_levels: Mapping[str, int],
                 trace=None):
        self.impl = impl
        self.spec = spec
        self.port = port
        self.sim = sim
        self.config = config
        self.trace = ensure_trace(trace)
        self.impl_supports = impl_supports
        self.spec_supports = spec_supports
        self.impl_levels = impl_levels
        self.spec_levels = spec_levels

        self.spec_out_net = spec.outputs[port]
        self.spec_support_mask = spec_supports[self.spec_out_net]
        # the structural filter: a net's support must lie within the
        # failing output's spec support
        outside = ~self.spec_support_mask
        #: implementation nets passing the filter, in ``impl.nets()``
        #: order
        self.impl_pool: List[str] = [
            net for net in impl.nets()
            if not impl_supports[net] & outside
        ] if config.use_impl_nets else []
        #: spec gates passing the filter, in ``spec.gates`` order
        self.spec_pool: List[str] = [
            net for net in spec.gates
            if not spec_supports[net] & outside
        ] if config.use_spec_nets else []
        #: the sampled error region ``E``: bit ``k`` for sample ``k``
        self.error_mask = sim.error_mask(port)
        self.error_count = max(1, bin(self.error_mask).count("1"))

        # static patch screen: shared sink adjacency and memoized fanout
        # cones back the candidate filter here and the engine's pre-SAT
        # legality check
        self.screen = PatchScreen(
            impl, spec=spec, supports=impl_supports,
            spec_support_mask=self.spec_support_mask)

    def utility(self, driver: int, candidate: int) -> float:
        """The Section 4.3 ratio for two nets' sample words."""
        differs = (driver ^ candidate) & self.error_mask
        return bin(differs).count("1") / self.error_count

    def candidates_for_pin(self, pin: Pin) -> List[RewireCandidate]:
        """Ordered candidate rewiring nets for one rectification point."""
        with self.trace.span("rewiring.candidates", pin=repr(pin)) as sp:
            out = self._candidates_for_pin(pin)
            sp.tag(candidates=len(out))
            return out

    def _candidates_for_pin(self, pin: Pin) -> List[RewireCandidate]:
        config = self.config
        sim = self.sim
        driver = self.impl.pin_driver(pin)
        driver_word = sim.value(driver)

        # nets whose fanout cone includes the pin's gate would cycle;
        # the screen memoizes the cone so repeated pins are O(1)
        if pin.is_output_port:
            unreachable: Set[str] = set()
        else:
            unreachable = self.screen.fanout_cone(pin.owner)

        scored: List[RewireCandidate] = []
        for net in self.impl_pool:
            if net == driver or net in unreachable:
                continue
            word = sim.value(net)
            scored.append(RewireCandidate(
                net=net, from_spec=False,
                utility=self.utility(driver_word, word), word=word,
                level=self.impl_levels[net]))
        for net in self.spec_pool:
            word = sim.spec_value(net)
            scored.append(RewireCandidate(
                net=net, from_spec=True,
                utility=self.utility(driver_word, word), word=word,
                level=self.spec_levels[net]))

        if config.utility_ordering:
            scored.sort(key=lambda c: (-c.utility, c.from_spec, c.level))
        else:
            scored.sort(key=lambda c: (c.from_spec, c.net))
        kept = scored[:MAX_REWIRE_CANDIDATES]

        # guarantee completeness for output-port pins: the revised
        # function itself must be reachable as a candidate
        if pin.is_output_port and config.use_spec_nets:
            if not any(c.from_spec and c.net == self.spec_out_net
                       for c in kept):
                word = sim.spec_value(self.spec_out_net)
                kept.append(RewireCandidate(
                    net=self.spec_out_net, from_spec=True,
                    utility=self.utility(driver_word, word), word=word,
                    level=self.spec_levels[self.spec_out_net]))

        trivial = RewireCandidate(
            net=driver, from_spec=False, utility=0.0, word=driver_word,
            level=self.impl_levels[driver], trivial=True)
        return [trivial] + kept
