"""Cone-replacement ECO: the 'commercial tool' stand-in.

For every failing output the entire revised cone is cloned from ``C'``
into ``C`` (cones share logic among themselves, but reuse nothing from
the existing implementation beyond the primary inputs) and the output
port is rewired to the clone.  This is sound for any revision and
needs no search — and produces patches whose size tracks the cone
sizes rather than the change, which is precisely why the paper treats
its commercial reference as 'guidance'.
"""

from __future__ import annotations

from repro.runtime.clock import now

from repro.netlist.circuit import Circuit, Pin
from repro.cec.equivalence import check_equivalence, nonequivalent_outputs
from repro.errors import EcoError
from repro.eco.patch import Patch, RectificationResult, RewireOp
from repro.eco.validate import apply_rewires


class ConeMap:
    """Full-cone replacement ECO engine."""

    def __init__(self, verify: bool = True):
        self.verify = verify

    def rectify(self, impl: Circuit, spec: Circuit) -> RectificationResult:
        """Replace every failing output's cone with its revised clone."""
        started = now()
        work = impl.copy()
        patch = Patch()
        failing = nonequivalent_outputs(work, spec)
        ops = [
            RewireOp(Pin.output(port), spec.outputs[port], from_spec=True)
            for port in failing
        ]
        clone_map = dict(patch.clone_map)
        new_gates = apply_rewires(work, spec, ops, clone_map)
        patch.record(ops, clone_map, new_gates)

        per_output = {port: "cone-replace" for port in failing}
        if self.verify:
            verification = check_equivalence(work, spec)
            if verification.equivalent is not True:
                raise EcoError("cone replacement failed verification: "
                               f"{verification.counterexample}")
        return RectificationResult(
            patched=work,
            patch=patch,
            verified_outputs=tuple(sorted(work.outputs)),
            runtime_seconds=now() - started,
            per_output=per_output,
        )
