"""Static analysis: netlist, patch and repo-invariant diagnostics.

Three analyzers share one diagnostics core (:mod:`repro.lint.diag`):

* :func:`lint_netlist` — structural netlist diagnostics (``NL...``):
  well-formedness errors with cycle paths plus hygiene findings
  (dead logic, constant-foldable and duplicate gates, width gaps);
* :class:`PatchScreen` / :func:`lint_patch_ops` — static legality of
  rewire operations (``PA...``): incremental cycle proof, pin
  encoding, support containment.  The ECO engine consults a screen
  before every SAT spend;
* :func:`lint_sources` — AST rules enforcing the repo's own
  invariants: the ``RI...`` family (sanctioned wall-clock reads,
  seeded randomness, supervised solver calls, no bare excepts,
  sanctioned Circuit mutation, no library prints) plus the ``CC...``
  process-pool rules (:mod:`repro.lint.concur_rules` — context-pinned
  pools, no global start-method mutation).

CLI: ``repro lint [NETLIST ...| --patch-ops OPS --impl C | --self]``
with ``--format json|text``; also available as ``python -m
repro.lint``.  The code catalog lives in ``docs/static-analysis.md``.

The analyzers depend only on ``errors`` + ``netlist`` (the self
analyzer is pure stdlib), so ``eco`` can consume this package without
layering violations.
"""

from repro.lint.diag import (
    Diagnostic,
    LintReport,
    Severity,
    error,
    info,
    warning,
)
from repro.lint.netlist_rules import find_cycle, lint_netlist, well_formedness
from repro.lint.patch_rules import (
    PatchScreen,
    ScreenOp,
    lint_patch_ops,
    parse_ops,
)
from repro.lint.concur_rules import lint_concur_source_text
from repro.lint.pylint_rules import lint_source_text, lint_sources

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "error",
    "warning",
    "info",
    "find_cycle",
    "lint_netlist",
    "well_formedness",
    "PatchScreen",
    "ScreenOp",
    "lint_patch_ops",
    "parse_ops",
    "lint_source_text",
    "lint_sources",
    "lint_concur_source_text",
]
