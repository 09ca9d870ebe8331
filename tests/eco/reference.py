"""Reference walks of the candidate search and its simulations (test
oracles).

* :class:`NetlistCast`, the sampling domain as it was built before it
  read the search's sample words: ``g_i(z)`` for every input from the
  sample assignments, the codes from ``N`` on repeating the last
  sample, and every net cast through :func:`net_functions`.  With
  :func:`h_function` (the whole output cone over BDDs, pins wrapped
  through :func:`evaluate_with_pin_overrides`) and
  :func:`feasible_point_sets` it is the oracle of
  :class:`repro.eco.sampling.SamplingDomain` and of ``H(t)`` in
  :mod:`repro.eco.points`; the BDD oracles below cast through it, so
  they stay independent of the words.
* The Section 3.3 pin constraint and the joint acyclicity check exactly
  as candidate validation made them before it re-checked legality on a
  :class:`~repro.lint.patch_rules.PatchScreen`: every call rebuilds the
  circuit's fanout map (once per pin for the pin constraint) before
  walking it.  The differential tests pin
  :func:`repro.eco.validate.pins_unconnected` and
  :meth:`PatchScreen.cycle_path` to these verdicts.
* :func:`whole_plan_passes`, the simulation screen as it walked every
  plan step and compared every output per candidate, the oracle of
  :meth:`repro.eco.validate.SimulationFilter.passes`.
* :func:`whole_cast_candidates`, the per-pin candidate scan over every
  net of both circuits cast whole into the sampling domain, with the
  structural filter on :func:`~repro.netlist.traverse.support_masks`
  and each utility a BDD satisfy count on the sampled error region
  (:func:`bdd_error_region`), the oracle of
  :meth:`repro.eco.rewiring.RewiringContext.candidates_for_pin` and of
  its popcounts of the simulation words.
* :func:`enumerate_choices`, the choice enumeration as it built
  ``Xi(c)`` over BDDs (:func:`xi_function`: the composition function
  :func:`composition_function`, the consistency relation ``R``, its
  bounds ``L`` and ``U`` and the ``forall z, y``) and evaluated it at
  each cost-ordered code, the oracle of
  :func:`repro.eco.choices.enumerate_rewiring_choices` on the sample
  words.
* :func:`select_candidate_pins`, the flip-credit pin ranking as it
  simulated both whole circuits on the first 64 samples and walked its
  own ``eval_gate`` overlay per net, the oracle of
  :meth:`repro.eco.engine.SysEco._select_candidate_pins` on
  :meth:`repro.eco.validate.SimulationFilter.flip_credit`.
* :func:`error_rate` and :func:`match_signals`, the per-round
  simulation loops of the diagnosis and of DeltaSyn's signal matching,
  the oracles of their one-batch :func:`repro.netlist.simulate.signature`
  versions.
* :func:`validate_rewire`, full-domain validation by copying the
  implementation, applying the rewire with cloned spec cones and
  re-encoding both whole circuits on a fresh
  :class:`~repro.cec.equivalence.PairwiseChecker`, the oracle of
  :meth:`repro.eco.incremental.IncrementalValidator.validate`.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import BddError
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.netbridge import apply_gate
from repro.bdd.primes import enumerate_primes
from repro.cec.equivalence import PairwiseChecker
from repro.eco import points, rewiring
from repro.eco.choices import Choice, CostFn, default_cost
from repro.eco.patch import RewireOp
from repro.eco.points import PointSelector
from repro.eco.rewiring import RewireCandidate
from repro.eco.validate import (
    ValidationOutcome,
    apply_rewires,
    rewire_legal,
)
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_BITS, WORD_MASK, eval_gate
from repro.netlist.simulate import (
    eval_opcode,
    patterns_to_words,
    random_patterns,
    simulate_words,
)
from repro.netlist.traverse import (
    dependent_outputs,
    support_masks,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)


def topological_constraint_ok(impl: Circuit, pins: Sequence[Pin]) -> bool:
    """The Section 3.3 restriction: no path connects any pair of pins."""
    gate_pins = [p for p in pins if not p.is_output_port]
    owners = {p.owner for p in gate_pins}
    for pin in gate_pins:
        downstream = transitive_fanout(impl, [pin.owner])
        downstream.discard(pin.owner)
        if downstream & owners:
            return False
    return True


def rewire_acyclic(impl: Circuit, ops: Sequence[RewireOp]) -> bool:
    """No implementation-sourced rewire may close a combinational cycle.

    Checked jointly: with several simultaneous rewires a cycle can pass
    through more than one new edge, so the test walks the fanout
    relation augmented with all proposed edges at once.
    """
    extra_edges: Dict[str, Set[str]] = {}
    for op in ops:
        if op.from_spec or op.pin.is_output_port:
            continue
        extra_edges.setdefault(op.source_net, set()).add(op.pin.owner)

    if not extra_edges:
        return True

    fanout: Dict[str, List[str]] = {}
    for g in impl.gates.values():
        for i, f in enumerate(g.fanins):
            # skip edges that the rewires remove
            if any(op.pin == Pin.gate(g.name, i) for op in ops):
                continue
            fanout.setdefault(f, []).append(g.name)
    for src, dsts in extra_edges.items():
        fanout.setdefault(src, []).extend(dsts)

    # cycle check via DFS from the new edges' sources
    state: Dict[str, int] = {}

    def dfs(net: str) -> bool:
        stack = [(net, iter(fanout.get(net, ())))]
        state[net] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                st = state.get(nxt)
                if st == 0:
                    return False  # back edge: cycle
                if st is None:
                    state[nxt] = 0
                    stack.append((nxt, iter(fanout.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
        return True

    for src in extra_edges:
        if state.get(src) is None:
            if not dfs(src):
                return False
    return True


def net_functions(circuit: Circuit, manager: BddManager,
                  input_functions: Mapping[str, int],
                  roots: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """BDD of every net of ``circuit`` (or of the cones of ``roots``)
    from a BDD per primary input; a missing input raises
    :class:`BddError`."""
    values: Dict[str, int] = {}
    for name in circuit.inputs:
        try:
            values[name] = input_functions[name]
        except KeyError:
            raise BddError(f"missing BDD for input {name!r}")
    order = topological_order(circuit, roots=list(roots) if roots else None)
    for name in order:
        gate = circuit.gates[name]
        values[name] = apply_gate(
            manager, gate.gtype, [values[f] for f in gate.fanins])
    return values


def evaluate_with_pin_overrides(circuit: Circuit, manager: BddManager,
                                input_functions: Mapping[str, int],
                                root_net: str, override) -> int:
    """BDD of ``root_net``, every gate of its cone evaluated, with
    ``override(pin, operand)`` replacing the BDD entering each pin."""
    values: Dict[str, int] = {}
    for name in circuit.inputs:
        if name in input_functions:
            values[name] = input_functions[name]
    for gname in topological_order(circuit, roots=[root_net]):
        gate = circuit.gates[gname]
        operands = [override(Pin.gate(gname, idx), values[fanin])
                    for idx, fanin in enumerate(gate.fanins)]
        values[gname] = apply_gate(manager, gate.gtype, operands)
    return values[root_net]


class NetlistCast:
    """The sampling domain over explicit sample assignments.

    ``g_i(z)`` is built for every name of ``inputs`` by ORing the code
    minterms of the samples that set it, the codes from ``N`` up to the
    next power of two repeating sample ``N - 1``; a net's function is
    its cone evaluated over ``g(z)``, inputs outside ``inputs`` reading
    FALSE.  ``z_vars`` shares another domain's variables, so both casts
    meet in one manager; by default fresh ones are allocated.
    """

    def __init__(self, manager: BddManager,
                 samples: Sequence[Mapping[str, bool]],
                 inputs: Sequence[str],
                 z_vars: Optional[Sequence[int]] = None):
        n = len(samples)
        bits = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        size = 1 << bits
        padded = list(samples) + [samples[-1]] * (size - n)
        self.manager = manager
        self.num_samples = n
        self.z_vars: List[int] = list(z_vars) if z_vars is not None \
            else [manager.add_var() for _ in range(bits)]
        self.minterms = [code_cube(manager, self.z_vars, k)
                         for k in range(size)]
        self.input_functions: Dict[str, int] = {}
        for name in inputs:
            acc = FALSE
            for k, sample in enumerate(padded):
                if sample[name]:
                    acc = manager.or_(acc, self.minterms[k])
            self.input_functions[name] = acc

    def code_of(self, k: int) -> int:
        """The minterm selecting sample ``k``."""
        return self.minterms[k]

    def cast_circuit(self, circuit: Circuit,
                     roots: Optional[Sequence[str]] = None
                     ) -> Dict[str, int]:
        functions = dict(self.input_functions)
        for name in circuit.inputs:
            functions.setdefault(name, FALSE)
        return net_functions(circuit, self.manager, functions, roots=roots)


def h_function(impl: Circuit, port: str, cast: NetlistCast,
               pins: Sequence[Pin], y_nodes: Sequence[int],
               selector: PointSelector) -> int:
    """``h(z, y, t)`` of Section 4.2 with every gate of ``port``'s cone
    evaluated over ``cast``'s ``g(z)``, each pin of ``pins`` wrapped
    in the multiplexer ``ite(sel_j, data1_j, original)``."""
    manager = cast.manager
    pin_index = {pin: i for i, pin in enumerate(pins)}

    def override(pin: Pin, node: int) -> int:
        j = pin_index.get(pin)
        if j is None:
            return node
        return manager.ite(selector.selection(j),
                           selector.data1(j, y_nodes), node)

    value = evaluate_with_pin_overrides(
        impl, manager, cast.input_functions, impl.outputs[port], override)
    return override(Pin.output(port), value)


def feasible_point_sets(impl: Circuit, port: str, cast: NetlistCast,
                        candidate_pins: Sequence[Pin], spec_value: int,
                        num_points: int) -> List[Tuple[Pin, ...]]:
    """The point-sets of ``H(t)`` over :func:`h_function`: the pin
    sets of the first :data:`~repro.eco.points.PRIME_LIMIT` prime
    cubes, at most 64 per cube and
    :data:`~repro.eco.points.POINTSET_LIMIT` in all, deduplicated as
    sets, smaller sets first."""
    manager = cast.manager
    y_vars = [manager.add_var() for _ in range(num_points)]
    y_nodes = [manager.var(v) for v in y_vars]
    selector = PointSelector(manager, num_points, len(candidate_pins))
    h = h_function(impl, port, cast, candidate_pins, y_nodes, selector)
    h_t = manager.and_(
        manager.forall(manager.exists(manager.xnor(h, spec_value), y_vars),
                       cast.z_vars),
        selector.validity())
    seen: Set[frozenset] = set()
    results: List[Tuple[Pin, ...]] = []
    for prime in enumerate_primes(manager, h_t, limit=points.PRIME_LIMIT):
        per_point = [selector.decode_cube(prime.literals, i)
                     for i in range(num_points)]
        for combo in itertools.islice(itertools.product(*per_point), 64):
            key = frozenset(combo)
            if key not in seen and len(results) < points.POINTSET_LIMIT:
                seen.add(key)
                results.append(
                    tuple(candidate_pins[j] for j in sorted(key)))
    results.sort(key=len)
    return results


def whole_plan_passes(filt, ops: Sequence[RewireOp], target: str,
                      failing: Sequence[str]) -> bool:
    """Screen one candidate on a :class:`SimulationFilter`'s words by
    walking every step of its plan and comparing every output.

    A source is read at the owner's step, so an implementation source
    later in plan order than its pin's gate reads its base value.
    """
    failing_set = set(failing) - {target}
    plan = filt.plan
    index = plan.index
    base = filt.base
    spec_index = filt.spec_plan.index

    def source_value(op: RewireOp, updated: Dict[int, int]) -> int:
        if op.from_spec:
            return filt.spec_base[spec_index[op.source_net]]
        idx = index[op.source_net]
        return updated.get(idx, base[idx])

    # last op per pin wins
    gate_ops: Dict[int, Dict[int, RewireOp]] = {}
    port_ops: Dict[str, RewireOp] = {}
    for op in ops:
        if op.pin.is_output_port:
            port_ops[op.pin.owner] = op
        else:
            gate_ops.setdefault(
                index[op.pin.owner], {})[op.pin.index] = op

    updated: Dict[int, int] = {}
    for out, opcode, fanins in plan.steps:
        pin_ops = gate_ops.get(out, {})
        if not pin_ops and not any(j in updated for j in fanins):
            continue
        operands = []
        for pos, j in enumerate(fanins):
            op = pin_ops.get(pos)
            operands.append(source_value(op, updated) if op is not None
                            else updated.get(j, base[j]))
        new = eval_opcode(opcode, operands, filt.mask)
        if new != base[out]:
            updated[out] = new

    for port, net in filt.impl.outputs.items():
        if port in failing_set:
            continue
        op = port_ops.get(port)
        if op is not None:
            got = source_value(op, updated)
        else:
            got = updated.get(index[net], base[index[net]])
        if got != filt.spec_base[spec_index[filt.spec.outputs[port]]]:
            return False
    return True


def bdd_error_region(ctx, domain: NetlistCast,
                     impl_z: Dict[str, int],
                     spec_z: Dict[str, int]) -> Tuple[int, int]:
    """The sampled error region of ``ctx``'s output as a BDD over the
    codes of ``domain``'s distinct samples, and its size (at least 1)
    by satisfy count.  The domain must sit on a fresh manager, so the
    ``z`` variables are the first ones."""
    manager = domain.manager
    valid = FALSE
    for k in range(domain.num_samples):
        valid = manager.or_(valid, domain.code_of(k))
    diff = manager.xor(impl_z[ctx.impl.outputs[ctx.port]],
                       spec_z[ctx.spec_out_net])
    region = manager.and_(diff, valid)
    count = manager.satcount(region, num_vars=max(domain.z_vars) + 1)
    return region, max(1, count)


def whole_cast_candidates(ctx, domain: NetlistCast,
                          pin: Pin) -> List[RewireCandidate]:
    """Candidate nets for ``pin``, scanning every net of both circuits
    against the structural filter on support masks, over whole-circuit
    casts made in ``domain`` (built on ``ctx``'s samples), with
    BDD-counted utilities.  Each candidate carries its word of
    ``ctx.sim``."""
    config = ctx.config
    impl, spec, sim = ctx.impl, ctx.spec, ctx.sim
    impl_z = domain.cast_circuit(impl)
    spec_z = domain.cast_circuit(spec)
    manager = domain.manager
    region, error_count = bdd_error_region(ctx, domain, impl_z, spec_z)
    num_vars = max(domain.z_vars) + 1

    def utility(driver_z: int, candidate_z: int) -> float:
        hits = manager.satcount(
            manager.and_(manager.xor(driver_z, candidate_z), region),
            num_vars=num_vars)
        return hits / error_count

    index = {n: i for i, n in enumerate(impl.inputs)}
    impl_masks = support_masks(impl, index)
    spec_masks = support_masks(spec, index)
    mask = spec_masks[ctx.spec_out_net]
    driver = impl.pin_driver(pin)
    driver_z = impl_z[driver]
    unreachable = set() if pin.is_output_port \
        else transitive_fanout(impl, [pin.owner])

    scored: List[RewireCandidate] = []
    if config.use_impl_nets:
        for net in impl.nets():
            if net == driver or net in unreachable:
                continue
            if impl_masks[net] & ~mask:
                continue
            scored.append(RewireCandidate(
                net=net, from_spec=False,
                utility=utility(driver_z, impl_z[net]),
                word=sim.value(net), level=ctx.impl_levels[net]))
    if config.use_spec_nets:
        for net in spec.gates:
            if spec_masks[net] & ~mask:
                continue
            scored.append(RewireCandidate(
                net=net, from_spec=True,
                utility=utility(driver_z, spec_z[net]),
                word=sim.spec_value(net), level=ctx.spec_levels[net]))
    if config.utility_ordering:
        scored.sort(key=lambda c: (-c.utility, c.from_spec, c.level))
    else:
        scored.sort(key=lambda c: (c.from_spec, c.net))
    kept = scored[:rewiring.MAX_REWIRE_CANDIDATES]
    out_net = ctx.spec_out_net
    if pin.is_output_port and config.use_spec_nets and not any(
            c.from_spec and c.net == out_net for c in kept):
        kept.append(RewireCandidate(
            net=out_net, from_spec=True,
            utility=utility(driver_z, spec_z[out_net]),
            word=sim.spec_value(out_net), level=ctx.spec_levels[out_net]))
    trivial = RewireCandidate(
        net=driver, from_spec=False, utility=0.0, word=sim.value(driver),
        level=ctx.impl_levels[driver], trivial=True)
    return [trivial] + kept


def code_assignment(word: Sequence[int], k: int) -> Dict[int, bool]:
    """Code ``k`` as an assignment of the variables ``word``, most
    significant first."""
    bits = len(word)
    return {word[b]: bool((k >> (bits - 1 - b)) & 1) for b in range(bits)}


def code_cube(manager, word: Sequence[int], k: int) -> int:
    """The minterm of code ``k`` on the variables ``word``."""
    return manager.cube(code_assignment(word, k))


def composition_function(impl: Circuit, port: str,
                         domain: NetlistCast, pins: Sequence[Pin],
                         y_nodes: Sequence[int]) -> int:
    """The composition function ``h(z, y)`` of Section 4.4 at ``port``:
    each pin of ``pins`` hard-replaced by its ``y`` node."""
    pin_index = {pin: i for i, pin in enumerate(pins)}

    def override(pin: Pin, node: int) -> int:
        idx = pin_index.get(pin)
        return y_nodes[idx] if idx is not None else node

    value = evaluate_with_pin_overrides(
        impl, domain.manager, domain.input_functions, impl.outputs[port],
        override)
    return override(Pin.output(port), value)


def xi_function(impl: Circuit, port: str, domain: NetlistCast,
                pins: Sequence[Pin], functions: Sequence[Sequence[int]],
                spec_value: int) -> Tuple[int, List[List[int]]]:
    """``Xi(c)`` over BDDs, and the decision words ``c_i`` it reads.

    ``functions[i][k]`` is the sampling-domain function of pin ``i``'s
    candidate ``k`` and ``spec_value`` is ``f'(g(z))``::

        R(z, y, c) = AND_i AND_k ( c_i^k -> (y_i == r_ik(z)) )
        Xi(c) = forall z, y ( (L -> h) & (h -> U) ) & valid(c)
        L = f' & R ,  U = f' | ~R

    with fresh ``y`` and ``c`` variables on ``domain``'s manager; each
    word ``c_i`` is big-endian, ``max(1, ceil(log2 |S_i|))`` bits.
    """
    manager = domain.manager
    y_vars = [manager.add_var() for _ in pins]
    y_nodes = [manager.var(v) for v in y_vars]
    h = composition_function(impl, port, domain, pins, y_nodes)
    c_words = [
        [manager.add_var()
         for _ in range(max(1, math.ceil(math.log2(len(fns)))))]
        for fns in functions]
    r_relation = TRUE
    valid_c = TRUE
    for i, fns in enumerate(functions):
        word_valid = FALSE
        for k, fn in enumerate(fns):
            sel = code_cube(manager, c_words[i], k)
            consistent = manager.xnor(y_nodes[i], fn)
            r_relation = manager.and_(
                r_relation, manager.implies(sel, consistent))
            word_valid = manager.or_(word_valid, sel)
        valid_c = manager.and_(valid_c, word_valid)
    lower = manager.and_(spec_value, r_relation)
    upper = manager.or_(spec_value, manager.not_(r_relation))
    f = manager.and_(manager.implies(lower, h), manager.implies(h, upper))
    xi = manager.and_(manager.forall(f, list(domain.z_vars) + y_vars),
                      valid_c)
    return xi, c_words


def candidate_functions(domain: NetlistCast, impl: Circuit,
                        spec: Circuit,
                        candidates: Sequence[Sequence[RewireCandidate]]
                        ) -> List[List[int]]:
    """Each candidate's net function in ``domain``, over whole-circuit
    casts of its home circuit."""
    impl_z = domain.cast_circuit(impl)
    spec_z = domain.cast_circuit(spec)
    return [[(spec_z if cand.from_spec else impl_z)[cand.net]
             for cand in cands] for cands in candidates]


def enumerate_choices(impl: Circuit, port: str, domain: NetlistCast,
                      pins: Sequence[Pin],
                      candidates: Sequence[Sequence[RewireCandidate]],
                      functions: Sequence[Sequence[int]],
                      spec_value: int, limit: int = 16,
                      cost_fn: Optional[CostFn] = None) -> List[Choice]:
    """Up to ``limit`` choices whose codes satisfy :func:`xi_function`,
    combinations walked cheapest-total-cost first, the all-trivial
    choice skipped."""
    cost_fn = cost_fn or default_cost
    manager = domain.manager
    xi, c_words = xi_function(impl, port, domain, pins, functions,
                              spec_value)
    if xi == FALSE:
        return []
    indexed = [sorted((cost_fn(pins[i], cand), k)
                      for k, cand in enumerate(cands))
               for i, cands in enumerate(candidates)]
    combos = sorted(
        (sum(c for c, _ in combo), tuple(k for _, k in combo))
        for combo in itertools.product(*indexed))
    # variables of xi outside the decision words read False
    padding = dict.fromkeys(manager.support(xi), False)
    choices: List[Choice] = []
    for _, ks in combos:
        if all(candidates[i][k].trivial for i, k in enumerate(ks)):
            continue
        assignment = dict(padding)
        for i, k in enumerate(ks):
            word = c_words[i]
            bits = len(word)
            for b in range(bits):
                assignment[word[b]] = bool((k >> (bits - 1 - b)) & 1)
        if manager.evaluate(xi, assignment):
            choices.append(tuple(
                candidates[i][k] for i, k in enumerate(ks)))
            if len(choices) >= limit:
                break
    return choices


def flip_credits(work: Circuit, spec: Circuit, port: str,
                 samples: Sequence[Mapping[str, bool]],
                 nets: Sequence[str]) -> Dict[str, int]:
    """Per net: the first 64 error samples on which complementing the
    net corrects ``port``, by simulating both whole circuits and
    re-evaluating ``port``'s cone with ``eval_gate`` per net."""
    out_net = work.outputs[port]
    cone_order = topological_order(work, roots=[out_net])
    samples = samples[:64]  # one simulation word for the heuristic
    words = patterns_to_words(work.inputs, samples)
    n_mask = (1 << len(samples)) - 1
    base_values = simulate_words(work, words)
    spec_words = {n: words.get(n, 0) for n in spec.inputs}
    spec_values = simulate_words(spec, spec_words)
    want = spec_values[spec.outputs[port]]
    error_mask = (base_values[out_net] ^ want) & n_mask
    credit: Dict[str, int] = {}
    for net in nets:
        override = {net: base_values[net] ^ WORD_MASK}
        for gname in cone_order:
            gate = work.gates[gname]
            if gname == net:
                continue
            if not any(f in override for f in gate.fanins):
                continue
            operands = [override.get(f, base_values[f])
                        for f in gate.fanins]
            value = eval_gate(gate.gtype, operands)
            if value != base_values[gname]:
                override[gname] = value
        flipped_out = override.get(out_net, base_values[out_net])
        corrected = ~(flipped_out ^ want) & error_mask
        credit[net] = bin(corrected & n_mask).count("1")
    return credit


def select_candidate_pins(work: Circuit, spec: Circuit, port: str,
                          samples: Sequence[Mapping[str, bool]],
                          max_pins: int,
                          levels: Dict[str, int]) -> List[Pin]:
    """The ``max_pins`` candidate points of ``port``: the gate pins of
    its cone by driver flip credit (:func:`flip_credits`), then the
    output port pin."""
    cone = transitive_fanin(work, [work.outputs[port]])
    scored_nets = list(cone)
    if len(scored_nets) > 600:
        scored_nets.sort(key=lambda n: (-levels[n], n))
        scored_nets = scored_nets[:600]
    credit = flip_credits(work, spec, port, samples, scored_nets)
    pins: List[Tuple[int, int, Pin]] = []
    for gname in cone:
        gate = work.gates.get(gname)
        if gate is None:
            continue
        for idx, fanin in enumerate(gate.fanins):
            if credit.get(fanin, 0) > 0:
                pins.append((-credit[fanin], levels[fanin],
                             Pin.gate(gname, idx)))
    pins.sort(key=lambda item: (item[0], item[1], item[2]))
    return [p for _, _, p in pins[:max_pins - 1]] + [Pin.output(port)]


def error_rate(impl: Circuit, spec: Circuit, port: str,
               rounds: int = 16, seed: int = 7) -> float:
    """Monte-Carlo estimate of ``|E| / 2^n`` for one output pair, one
    simulation of each circuit per round."""
    rng = random.Random(seed)
    differing = 0
    for _ in range(rounds):
        words = random_patterns(impl.inputs, rng)
        iv = simulate_words(impl, words)[impl.outputs[port]]
        sv = simulate_words(
            spec, {n: words.get(n, 0) for n in spec.inputs}
        )[spec.outputs[port]]
        differing += bin(iv ^ sv).count("1")
    return differing / (rounds * WORD_BITS)


def match_signals(impl: Circuit, spec: Circuit, rounds: int = 8,
                  seed: int = 77) -> Dict[str, str]:
    """DeltaSyn's candidate correspondence, spec net -> earliest impl
    net of equal signature, shifting in one round's words at a time."""
    rng = random.Random(seed)
    impl_sigs: Dict[str, int] = {n: 0 for n in impl.nets()}
    spec_sigs: Dict[str, int] = {n: 0 for n in spec.nets()}
    for _ in range(rounds):
        words = random_patterns(impl.inputs, rng)
        iv = simulate_words(impl, words)
        sv = simulate_words(
            spec, {n: words.get(n, 0) for n in spec.inputs})
        for net in impl_sigs:
            impl_sigs[net] = (impl_sigs[net] << WORD_BITS) | iv[net]
        for net in spec_sigs:
            spec_sigs[net] = (spec_sigs[net] << WORD_BITS) | sv[net]
    by_sig: Dict[int, str] = {}
    for net in list(impl.inputs) + topological_order(impl):
        by_sig.setdefault(impl_sigs[net], net)
    return {net: by_sig[spec_sigs[net]] for net in spec.nets()
            if spec_sigs[net] in by_sig}


def validate_rewire(impl: Circuit, spec: Circuit, ops: Sequence[RewireOp],
                    failing: Sequence[str],
                    run=None) -> ValidationOutcome:
    """Exact check of a candidate rewire on the full input domain, by
    copy, apply and re-encode.

    Legality is re-checked on a :class:`PatchScreen` built for the
    call.  The rewire is applied with cloned spec cones to a private
    copy of ``impl``, which is left untouched, and every output the
    changed nets reach is checked on a fresh structurally hashed
    :class:`PairwiseChecker` of the copy, in name order: a proven port
    that was failing is fixed, and a refuted or UNKNOWN port that was
    passing rejects the candidate at once.  The outcome is valid when
    at least one failing port is fixed.  With a run supervisor as
    ``run``, each query is one supervised solve and the deadline is
    checked between ports; otherwise each query is one unbudgeted solve.
    """
    if not rewire_legal(PatchScreen(impl), ops):
        return ValidationOutcome(valid=False)

    work = impl.copy()
    apply_rewires(work, spec, ops, {})

    changed_nets = set()
    for op in ops:
        if op.pin.is_output_port:
            changed_nets.add(work.outputs[op.pin.owner])
        else:
            changed_nets.add(op.pin.owner)
    affected = set(dependent_outputs(work, changed_nets))
    for op in ops:
        if op.pin.is_output_port:
            affected.add(op.pin.owner)

    checker = PairwiseChecker(work, spec)
    failing_set = set(failing)
    fixed: List[str] = []
    for port in sorted(affected):
        if run is not None:
            run.checkpoint()
            result = run.check_pair_supervised(checker, port)
        else:
            result = checker.check_pair(port)
        if result.equivalent is True:
            if port in failing_set:
                fixed.append(port)
            continue
        if port not in failing_set:
            return ValidationOutcome(valid=False)
    if not fixed:
        return ValidationOutcome(valid=False)
    return ValidationOutcome(valid=True, fixed=tuple(fixed))
