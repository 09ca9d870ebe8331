"""Process-pool analyzer: AST rules guarding the ``--jobs`` pool.

``repro lint --self`` runs these ``CC...`` rules alongside the ``RI``
repo invariants.  A run has one thread; the only concurrency left is
the ``--jobs`` process pool (:mod:`repro.eco.parallel`), and these
rules keep it on a start method chosen per pool:

* ``CC005`` — ``ProcessPoolExecutor`` without an explicit
  ``mp_context=``, or ``multiprocessing.Pool`` (both use the
  process-global start method; use
  :func:`repro.eco.parallel.safe_mp_context`).
* ``CC009`` — process-global start-method mutation
  (``multiprocessing.set_start_method`` / ``os.fork``); pools must
  take a local context from :func:`~repro.eco.parallel.safe_mp_context`.

Like the RI rules, these are AST-level approximations tuned for zero
false positives on this codebase.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.diag import Diagnostic, LintReport, error


class _PoolVisitor(ast.NodeVisitor):
    """Collects CC diagnostics for one module."""

    def __init__(self, display_path: str):
        self.display_path = display_path
        self.diagnostics: List[Diagnostic] = []
        #: bare names bound to ``ProcessPoolExecutor`` by imports
        self._pool_names: Set[str] = set()

    def analyze(self, tree: ast.Module) -> List[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "concurrent.futures", "multiprocessing"):
                self._pool_names.update(
                    a.asname or a.name for a in node.names
                    if a.name == "ProcessPoolExecutor")
        self.visit(tree)
        return self.diagnostics

    def _where(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return f"{self.display_path}:{lineno}:{col + 1}"

    def _pool_without_context(self, node: ast.Call) -> None:
        if not any(k.arg == "mp_context" for k in node.keywords):
            self.diagnostics.append(error(
                "CC005",
                "ProcessPoolExecutor without an explicit mp_context "
                "(fork-after-thread hazard)",
                where=self._where(node),
                hint="pass mp_context=repro.eco.parallel."
                     "safe_mp_context()"))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._pool_names:
                self._pool_without_context(node)
        elif isinstance(func, ast.Attribute):
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if func.attr == "ProcessPoolExecutor":
                self._pool_without_context(node)
            elif base_name == "multiprocessing" and func.attr == "Pool":
                self.diagnostics.append(error(
                    "CC005",
                    "multiprocessing.Pool uses the process-global "
                    "start method (fork-after-thread hazard)",
                    where=self._where(node),
                    hint="use safe_mp_context().Pool(...) instead"))
            if (base_name == "multiprocessing"
                    and func.attr == "set_start_method") \
                    or (base_name == "os" and func.attr == "fork"):
                self.diagnostics.append(error(
                    "CC009",
                    f"{base_name}.{func.attr}() mutates process-global "
                    "fork state",
                    where=self._where(node),
                    hint="take a local context from safe_mp_context() "
                         "instead of mutating the global default"))
        self.generic_visit(node)


def lint_concur_source_text(text: str, module: str,
                            display_path: Optional[str] = None
                            ) -> LintReport:
    """Run the process-pool rules on one module's source text.

    Same contract as
    :func:`repro.lint.pylint_rules.lint_source_text`: ``module`` is
    the package-root-relative POSIX path of the module.
    """
    report = LintReport(tool="self", subject=module)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        report.add(error(
            "CC000", f"syntax error: {exc.msg}",
            where=f"{display_path or module}:{exc.lineno or 0}:"
                  f"{(exc.offset or 0)}"))
        return report
    visitor = _PoolVisitor(display_path or module)
    report.extend(visitor.analyze(tree))
    return report
