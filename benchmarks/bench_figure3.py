"""Figure 3 / Examples 1-2: the sampled H(t) and Xi(c) computations.

Figure 3 depicts ``Xi(c) = forall z, y F(z, y, c)`` computed in the
sampling domain with the inputs overloaded by ``g(z)``.  On the
``GATE``-style word circuit of Examples 1 and 2 both characteristic
functions have closed forms:

    H_k(t1, t2)  = t1^k t2^{n+k}  |  t1^{n+k} t2^k
    Xi_k(c1, c2) = c1^1 & c2^2     for S_1 = (v(0), c, ~c),
                                       S_2 = (v(1), c, ~c)

so the paper's rewiring ``R = {q_k <- c, q_{n+k} <- ~c}`` is the one
valid choice.

This bench computes ``H`` with the library's mux augmentation over
the sample words and its sampling-domain quantification, and ``Xi``
with the symbolic construction kept as the oracle in
``tests/eco/reference.py`` over that file's netlist cast of ``g(z)``,
in one BDD manager, and asserts BDD-level equality with both closed
forms.  It also checks that the engine's choice enumeration, which
evaluates ``Xi`` on the sample words, returns exactly that one choice.
Run it with ``python -m pytest`` from the repository root, so that
``tests`` imports.
"""

import itertools

from repro.bdd.manager import BddManager
from repro.eco.choices import enumerate_rewiring_choices
from repro.eco.points import PointSelector, compute_h_function
from repro.eco.rewiring import RewireCandidate
from repro.eco.sampling import SamplingDomain
from repro.eco.validate import SimulationFilter
from repro.netlist.circuit import Pin
from repro.workloads.figures import example1_circuits
from tests.eco import reference


def all_samples(circuit):
    inputs = list(circuit.inputs)
    return [dict(zip(inputs, bits))
            for bits in itertools.product([False, True],
                                          repeat=len(inputs))]


def test_figure3(benchmark, publish):
    impl, spec = example1_circuits(width=2)
    n = 2

    def run():
        samples = all_samples(impl)
        sim = SimulationFilter.for_samples(impl, spec, samples, seed=0)
        domain = SamplingDomain(BddManager(), sim)
        m = domain.manager
        # the oracle's casts share the domain's z variables, so both
        # sides' BDDs meet in one manager
        cast = reference.NetlistCast(m, samples, impl.inputs,
                                     z_vars=domain.z_vars)
        spec_z = cast.cast_circuit(spec)
        impl_z = cast.cast_circuit(impl)
        report = []

        for k in range(n):
            out = spec.outputs[f"w_{k}"]
            f_prime = domain.cast_circuit(spec, roots=[out])[out]
            assert f_prime == spec_z[out], f"f'_{k} mismatch"

            # ---- Example 1: H_k over the 2n select pins -------------
            pins = [Pin.gate(f"q{j}", 1) for j in range(2 * n)]
            y_vars = [m.add_var() for _ in range(2)]
            y_nodes = [m.var(v) for v in y_vars]
            selector = PointSelector(m, 2, len(pins))
            h = compute_h_function(f"w_{k}", domain, pins, y_nodes,
                                   selector)
            h_t = m.and_(
                m.forall(m.exists(m.xnor(h, f_prime), y_vars),
                         domain.z_vars),
                selector.validity())
            closed_h = m.or_(
                m.and_(selector.minterm(0, k), selector.minterm(1, n + k)),
                m.and_(selector.minterm(0, n + k), selector.minterm(1, k)))
            assert h_t == closed_h, f"H_{k} mismatch"
            report.append(f"H_{k}(t1,t2) == t1^{k} t2^{n + k} | "
                          f"t1^{n + k} t2^{k}   OK")

            # ---- Example 2: Xi_k over S_i = (trivial, c, ~c) --------
            pair = (Pin.gate(f"q{k}", 1), Pin.gate(f"q{n + k}", 1))
            c_fn = spec_z["c_new"]
            functions = [[impl_z["s"], c_fn, m.not_(c_fn)],
                         [impl_z["v1"], c_fn, m.not_(c_fn)]]
            xi, c_words = reference.xi_function(
                impl, f"w_{k}", cast, pair, functions, f_prime)
            closed_xi = m.and_(reference.code_cube(m, c_words[0], 1),
                               reference.code_cube(m, c_words[1], 2))
            assert xi == closed_xi, f"Xi_{k} mismatch"

            c_word = sim.spec_value("c_new")

            def cand(net, word, trivial=False):
                return RewireCandidate(net=net, from_spec=not trivial,
                                       utility=0.0, word=word,
                                       trivial=trivial)

            s1 = [cand("v0", sim.value("s"), trivial=True),
                  cand("c", c_word), cand("~c", ~c_word & sim.mask)]
            s2 = [cand("v1", sim.value("v1"), trivial=True),
                  cand("c", c_word), cand("~c", ~c_word & sim.mask)]
            choices = enumerate_rewiring_choices(
                sim, f"w_{k}", pair, (s1, s2), limit=16)
            nets = [(a.net, b.net) for a, b in choices]
            assert nets == [("c", "~c")], nets
            report.append(f"Xi_{k}(c1,c2) == c1^1 & c2^2           OK"
                          "  (engine: the one choice c, ~c)")
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("figure3.txt", "\n".join(
        ["Figure 3 / Examples 1-2 reproduction (symbolic equality):"]
        + [f"  {line}" for line in report]))
