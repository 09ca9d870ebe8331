"""Technology-independent synthesis passes.

The paper's premise is a *structural gap*: the current implementation
``C`` has been aggressively restructured (logic sharing, duplication,
decomposition) while the revised specification ``C'`` is synthesized
with lightweight optimization only.  This package provides both
scripts:

* :func:`optimize_heavy` — strash, 2-input decomposition with randomized
  tree shapes and De Morgan re-expression, constant propagation, SAT
  sweeping; functionally equivalent, structurally remote.
* :func:`optimize_light` — strash plus constant propagation; close to
  the source structure, like a quick elaboration of new RTL.

Every pass is pure (returns a new circuit) and function-preserving;
property tests in ``tests/synth`` verify preservation on random
circuits.
"""

from repro.synth.simplify import simplify_constants
from repro.synth.restructure import decompose_two_input, demorgan_restructure
from repro.synth.scripts import optimize_heavy, optimize_light, run_script

__all__ = [
    "simplify_constants",
    "decompose_two_input",
    "demorgan_restructure",
    "optimize_heavy",
    "optimize_light",
    "run_script",
]
