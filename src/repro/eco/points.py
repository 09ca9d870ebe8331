"""Feasible rectification point-sets: the ``H(t)`` computation (Sec. 4.2).

For a failing output with candidate sink pins ``{q_0 ... q_{M-1}}`` and
at most ``m`` rectification points, parametric variables ``t_i`` (one
``ceil(log2 M)``-bit word per point, big-endian as in the paper) select
a pin per point.  The netlist is augmented *symbolically*: evaluating
the output cone over BDDs, the operand entering a candidate pin ``q_j``
is wrapped as::

    ite(sel_j,  data1_j,  original)
    sel_j   = t_1^j | ... | t_m^j
    data1_j = (t_1^j -> y_1) & ... & (t_m^j -> y_m)

which is exactly the multiplexer construction of Figure 2.  The
characteristic function of all feasible point-sets is then

    H(t) = forall z exists y ( h(z, y, t) == f'(g(z)) )  &  valid(t)

computed in the sampling domain (``x`` overloaded with ``g(z)``), and
its prime cubes seed explicit candidate point-sets.  A net no wrapped
pin reaches is a function of ``z`` alone, read off its sample word
(:class:`~repro.eco.sampling.SamplingDomain`), so gates are evaluated
over BDDs only from the wrapped pins to the output.  This is the
search's one symbolic computation: the rewiring choices of Section 4.4
are checked on the sample words (:mod:`repro.eco.choices`).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EcoError
from repro.bdd.manager import BddManager, FALSE, TRUE
from repro.bdd.netbridge import apply_gate
from repro.bdd.primes import enumerate_primes
from repro.netlist.circuit import Pin
from repro.netlist.traverse import topological_order
from repro.eco.sampling import SamplingDomain
from repro.obs.trace import ensure_trace

#: prime cubes of ``H(t)`` expanded per enumeration
PRIME_LIMIT = 8
#: distinct point-sets returned per enumeration
POINTSET_LIMIT = 12


class PointSelector:
    """Allocates and decodes the ``t`` variables of the selection."""

    def __init__(self, manager: BddManager, num_points: int, num_pins: int):
        if num_pins < 1:
            raise EcoError("no candidate pins")
        self.manager = manager
        self.num_points = num_points
        self.num_pins = num_pins
        self.bits = max(1, math.ceil(math.log2(num_pins))) if num_pins > 1 else 1
        #: t_vars[i] = variable indices of point i's word, MSB first
        self.t_vars: List[List[int]] = [
            [manager.add_var() for _ in range(self.bits)]
            for _ in range(num_points)
        ]
        self._minterm_cache: Dict[Tuple[int, int], int] = {}

    def minterm(self, point: int, pin_index: int) -> int:
        """BDD of ``t_point ^ pin_index`` (big-endian code minterm)."""
        key = (point, pin_index)
        hit = self._minterm_cache.get(key)
        if hit is not None:
            return hit
        word = self.t_vars[point]
        assignment = {
            word[b]: bool((pin_index >> (self.bits - 1 - b)) & 1)
            for b in range(self.bits)
        }
        node = self.manager.cube(assignment)
        self._minterm_cache[key] = node
        return node

    def selection(self, pin_index: int) -> int:
        """``sel_j``: pin ``j`` chosen by any point."""
        m = self.manager
        acc = FALSE
        for i in range(self.num_points):
            acc = m.or_(acc, self.minterm(i, pin_index))
        return acc

    def data1(self, pin_index: int, y_nodes: Sequence[int]) -> int:
        """``data1_j``: conjunction of ``t_i^j -> y_i``."""
        m = self.manager
        acc = TRUE
        for i in range(self.num_points):
            acc = m.and_(acc, m.implies(self.minterm(i, pin_index),
                                        y_nodes[i]))
        return acc

    def validity(self) -> int:
        """Every point's code addresses an existing pin (< num_pins)."""
        m = self.manager
        acc = TRUE
        for i in range(self.num_points):
            word = FALSE
            for j in range(self.num_pins):
                word = m.or_(word, self.minterm(i, j))
            acc = m.and_(acc, word)
        return acc

    def decode_cube(self, literals: Mapping[int, bool],
                    point: int) -> List[int]:
        """Pin indices admissible for ``point`` under a prime cube.

        A prime cube constrains some bits of the point's word; every pin
        index consistent with those bits (and in range) is admissible.
        """
        word = self.t_vars[point]
        admissible = []
        for j in range(self.num_pins):
            ok = True
            for b in range(self.bits):
                bit = bool((j >> (self.bits - 1 - b)) & 1)
                want = literals.get(word[b])
                if want is not None and want != bit:
                    ok = False
                    break
            if ok:
                admissible.append(j)
        return admissible


def compute_h_function(port: str, domain: SamplingDomain,
                       pins: Sequence[Pin], y_nodes: Sequence[int],
                       selector: PointSelector) -> int:
    """The augmented function ``h(z, y, t)`` of Section 4.2 at one
    output of the domain filter's implementation: every pin of
    ``pins`` is wrapped with the parameterized multiplexer of
    ``selector``.

    Only the gates owning a pin, and their fanout inside the output's
    cone, depend on ``y`` and ``t``: they are evaluated over BDDs.
    Every other operand is a function of ``z`` alone, the one its
    filter word gives (:meth:`SamplingDomain.function_of`).  A pin
    outside the cone changes nothing.
    """
    manager = domain.manager
    sim = domain.sim
    impl = sim.impl
    pin_index = {pin: i for i, pin in enumerate(pins)}
    owners = {pin.owner for pin in pins if not pin.is_output_port}
    sel_cache: Dict[int, Tuple[int, int]] = {}

    def gadget(j: int) -> Tuple[int, int]:
        hit = sel_cache.get(j)
        if hit is None:
            hit = (selector.selection(j), selector.data1(j, y_nodes))
            sel_cache[j] = hit
        return hit

    def override(pin: Pin, node: int) -> int:
        idx = pin_index.get(pin)
        if idx is None:
            return node
        sel, data1 = gadget(idx)
        return manager.ite(sel, data1, node)

    out_net = impl.outputs[port]
    values: Dict[str, int] = {}
    for gname in topological_order(impl, roots=[out_net]):
        gate = impl.gates[gname]
        if gname not in owners and \
                not any(f in values for f in gate.fanins):
            continue
        operands = []
        for idx, fanin in enumerate(gate.fanins):
            node = values.get(fanin)
            if node is None:
                node = domain.function_of(sim.value(fanin))
            operands.append(override(Pin.gate(gname, idx), node))
        values[gname] = apply_gate(manager, gate.gtype, operands)
    value = values.get(out_net)
    if value is None:
        value = domain.function_of(sim.value(out_net))
    # an output-port pin among the candidates overrides the value
    port_pin = Pin.output(port)
    if port_pin in pin_index:
        value = override(port_pin, value)
    return value


def feasible_point_sets(port: str, domain: SamplingDomain,
                        candidate_pins: Sequence[Pin],
                        spec_value: int, num_points: int,
                        checkpoint: Optional[Callable[[], None]] = None,
                        trace=None) -> List[Tuple[Pin, ...]]:
    """Candidate rectification point-sets for one failing output of
    the domain filter's implementation.

    Returns up to :data:`POINTSET_LIMIT` distinct pin tuples
    (deduplicated as sets, smaller sets first), derived from the first
    :data:`PRIME_LIMIT` prime cubes of ``H(t)`` computed in the sampling
    domain.  An empty list means no point-set of size ``num_points``
    over these pins can rectify the sampled behaviour — callers grow
    ``num_points`` or widen the pins.

    ``checkpoint``, when given, is invoked before the symbolic
    computation and once per expanded prime cube; the run supervisor
    passes its deadline check here.  ``trace`` records the enumeration
    as a ``points.enumerate`` span.
    """
    with ensure_trace(trace).span(
            "points.enumerate", output=port,
            m=num_points, pins=len(candidate_pins)) as _span:
        result = _feasible_point_sets(
            port, domain, candidate_pins, spec_value, num_points,
            checkpoint)
        _span.tag(point_sets=len(result))
        return result


def _feasible_point_sets(port: str, domain: SamplingDomain,
                         candidate_pins: Sequence[Pin],
                         spec_value: int,
                         num_points: int,
                         checkpoint: Optional[Callable[[], None]],
                         ) -> List[Tuple[Pin, ...]]:
    if checkpoint is not None:
        checkpoint()
    manager = domain.manager
    y_vars = [manager.add_var() for _ in range(num_points)]
    y_nodes = [manager.var(v) for v in y_vars]
    selector = PointSelector(manager, num_points, len(candidate_pins))

    h = compute_h_function(port, domain, candidate_pins, y_nodes,
                           selector=selector)
    eq = manager.xnor(h, spec_value)
    h_t = manager.forall(manager.exists(eq, y_vars), domain.z_vars)
    h_t = manager.and_(h_t, selector.validity())
    if h_t == FALSE:
        return []

    seen: set = set()
    results: List[Tuple[Pin, ...]] = []
    for prime in enumerate_primes(manager, h_t, limit=PRIME_LIMIT):
        if checkpoint is not None:
            checkpoint()
        literals = prime.literals
        per_point = [selector.decode_cube(literals, i)
                     for i in range(num_points)]
        if any(not adm for adm in per_point):
            continue
        for combo in itertools.islice(
                itertools.product(*per_point), 0, 64):
            key = frozenset(combo)
            if key in seen:
                continue
            seen.add(key)
            results.append(tuple(candidate_pins[j] for j in sorted(key)))
            if len(results) >= POINTSET_LIMIT:
                break
        if len(results) >= POINTSET_LIMIT:
            break
    results.sort(key=len)
    return results
