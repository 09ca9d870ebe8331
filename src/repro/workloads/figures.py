"""The worked circuits of Figures 1-3 / Examples 1-2 of the paper.

These are the exact shapes the paper reasons about: the motivating
sink-rewiring scenario of Figure 1 and the ``GATE``-style word circuit
of Examples 1 and 2 (whose closed forms for ``H_k`` and ``Xi_k`` the
figure benchmarks verify symbolically).
"""

from __future__ import annotations

from typing import Tuple

from repro.netlist.circuit import Circuit


def figure1_circuits(width: int = 4) -> Tuple[Circuit, Circuit]:
    """The Figure 1 scenario as (implementation, revised spec).

    Implementation: ``v(0) = b`` drives sinks ``q_0..``, ``v(1) = ~b``
    drives sinks ``q_n..``; a bystander signal ``d`` also depends on
    ``b`` and is *not* revised.  Revised spec: a new signal
    ``c = a & b`` redefines ``v(0) = c`` and ``v(1) = ~c`` while ``d``
    keeps reading ``b``.  The documented solution reconnects all-but-one
    sink of nets ``b`` and ``~b`` to ``c`` and ``~c``.
    """

    def build(v0_of, v1_of) -> Circuit:
        c = Circuit("figure1")
        c.add_inputs(["a", "b", "u"])
        c.add_inputs([f"win1_{k}" for k in range(width)])
        c.add_inputs([f"win2_{k}" for k in range(width)])
        v0 = v0_of(c)
        v1 = v1_of(c)
        for k in range(width):
            t1 = c.and_(f"win1_{k}", v0, name=f"q{k}")
            t2 = c.and_(f"win2_{k}", v1, name=f"q{width + k}")
            c.set_output(f"w_{k}", c.or_(t1, t2, name=f"wout{k}"))
        # the protected bystander: d depends on b in both versions
        c.set_output("d", c.and_("b", "u", name="dnet"))
        return c

    impl = build(lambda c: "b",
                 lambda c: c.not_("b", name="v1"))
    spec = build(lambda c: c.and_("a", "b", name="c_new"),
                 lambda c: c.not_(c.and_("a", "b", name="c_new2"),
                                  name="v1"))
    spec.name = "figure1_revised"
    return impl, spec


def example1_circuits(width: int = 2) -> Tuple[Circuit, Circuit]:
    """Examples 1-2: ``V_out = GATE(win1, v(0)) | GATE(win2, v(1))``.

    Implementation selects with ``v(0) = s`` / ``v(1) = ~s``; the
    revision replaces the select with ``c = a & b``.  For output
    ``w_k``, ``H_k(t1, t2) = t1^k t2^{n+k} | t1^{n+k} t2^k`` over pins
    ``q_0..q_{2n-1}``, and ``Xi_k(c1, c2) = c1^1 & c2^2`` for candidate
    lists ``S_1 = (v(0), c, ~c)``, ``S_2 = (v(1), c, ~c)``: the one
    valid choice is ``q_k <- c``, ``q_{n+k} <- ~c``.  Both closed forms
    are verified by ``benchmarks/bench_figure3.py``.
    """

    def build(select_of) -> Circuit:
        c = Circuit("example1")
        c.add_inputs(["a", "b"])
        c.add_inputs([f"win1_{k}" for k in range(width)])
        c.add_inputs([f"win2_{k}" for k in range(width)])
        v0, v1 = select_of(c)
        for k in range(width):
            g1 = c.and_(f"win1_{k}", v0, name=f"q{k}")
            g2 = c.and_(f"win2_{k}", v1, name=f"q{width + k}")
            c.set_output(f"w_{k}", c.or_(g1, g2, name=f"vout{k}"))
        return c

    def impl_select(c: Circuit):
        s = c.add_input("s")
        return s, c.not_(s, name="v1")

    def spec_select(c: Circuit):
        c.add_input("s")  # kept so the interfaces match
        cn = c.and_("a", "b", name="c_new")
        return cn, c.not_(cn, name="v1")

    impl = build(impl_select)
    spec = build(spec_select)
    spec.name = "example1_revised"
    return impl, spec
