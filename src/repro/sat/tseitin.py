"""Tseitin transformation: netlists to CNF.

:class:`CircuitEncoder` maintains a net-name -> solver-variable map and
emits the standard Tseitin clauses per gate.  Multiple circuits can be
encoded into one solver with shared or disjoint input variables, which
is how the equivalence checkers (:mod:`repro.cec.equivalence`) and the
ECO validation step (:mod:`repro.eco.incremental`) build their miters.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.errors import SatError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order


class CircuitEncoder:
    """Encodes circuits into a shared SAT solver instance."""

    def __init__(self, solver):
        self.solver = solver
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None

    def const_var(self, value: bool) -> int:
        """A variable constrained to the given constant."""
        if value:
            if self._const1 is None:
                self._const1 = self.solver.new_var()
                self.solver.add_clause([self._const1])
            return self._const1
        if self._const0 is None:
            self._const0 = self.solver.new_var()
            self.solver.add_clause([-self._const0])
        return self._const0

    # ------------------------------------------------------------------
    def encode(self, circuit: Circuit,
               input_vars: Optional[Mapping[str, int]] = None
               ) -> Dict[str, int]:
        """Encode every net of ``circuit``; returns net -> solver var.

        Args:
            circuit: netlist to encode.
            input_vars: existing solver variables per input name; fresh
                variables are created for inputs not listed.

        Returns:
            Mapping from every net name to its solver variable.
        """
        varmap: Dict[str, int] = {}
        for name in circuit.inputs:
            if input_vars and name in input_vars:
                varmap[name] = input_vars[name]
            else:
                varmap[name] = self.solver.new_var()
        for name in topological_order(circuit):
            gate = circuit.gates[name]
            operands = [varmap[f] for f in gate.fanins]
            varmap[name] = self.encode_gate(gate.gtype, operands)
        return varmap

    def encode_gate(self, gtype: GateType, operands: Sequence[int]) -> int:
        """Tseitin clauses for one gate; returns the output variable."""
        s = self.solver
        if gtype is GateType.CONST0:
            return self.const_var(False)
        if gtype is GateType.CONST1:
            return self.const_var(True)
        if gtype is GateType.BUF:
            return operands[0]
        if gtype is GateType.NOT:
            out = s.new_var()
            s.add_clause([out, operands[0]])
            s.add_clause([-out, -operands[0]])
            return out
        if gtype in (GateType.AND, GateType.NAND):
            out = s.new_var()
            y = out if gtype is GateType.AND else -out
            for a in operands:
                s.add_clause([-y, a])
            s.add_clause([y] + [-a for a in operands])
            return out
        if gtype in (GateType.OR, GateType.NOR):
            out = s.new_var()
            y = out if gtype is GateType.OR else -out
            for a in operands:
                s.add_clause([y, -a])
            s.add_clause([-y] + list(operands))
            return out
        if gtype in (GateType.XOR, GateType.XNOR):
            acc = operands[0]
            for a in operands[1:]:
                acc = self._encode_xor2(acc, a)
            if gtype is GateType.XNOR:
                out = s.new_var()
                s.add_clause([out, acc])
                s.add_clause([-out, -acc])
                return out
            return acc
        if gtype is GateType.MUX:
            sel, d0, d1 = operands
            out = s.new_var()
            s.add_clause([-out, sel, d0])
            s.add_clause([out, sel, -d0])
            s.add_clause([-out, -sel, d1])
            s.add_clause([out, -sel, -d1])
            return out
        raise SatError(f"unknown gate type {gtype!r}")

    def _encode_xor2(self, a: int, b: int) -> int:
        s = self.solver
        out = s.new_var()
        s.add_clause([-out, a, b])
        s.add_clause([-out, -a, -b])
        s.add_clause([out, -a, b])
        s.add_clause([out, a, -b])
        return out

    def equality(self, a: int, b: int) -> int:
        """A variable true iff ``a == b``."""
        s = self.solver
        out = s.new_var()
        s.add_clause([-out, -a, b])
        s.add_clause([-out, a, -b])
        s.add_clause([out, a, b])
        s.add_clause([out, -a, -b])
        return out


def encode_circuit(solver, circuit: Circuit,
                   input_vars: Optional[Mapping[str, int]] = None
                   ) -> Dict[str, int]:
    """Convenience wrapper: encode one circuit into a solver."""
    return CircuitEncoder(solver).encode(circuit, input_vars=input_vars)
