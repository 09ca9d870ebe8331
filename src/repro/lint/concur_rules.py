"""Concurrency analyzer: AST rules enforcing the threading discipline.

``repro lint --self`` runs these ``CC...`` rules alongside the ``RI``
repo invariants.  They encode the concurrency architecture documented
in ``docs/static-analysis.md`` ("Concurrency rules"):

* ``CC001`` — raw ``threading`` primitives (``Lock`` / ``RLock`` /
  ``Condition`` / ``Event`` / ``Semaphore`` / ``Barrier`` /
  ``Thread`` / ``local``) constructed outside
  :mod:`repro.runtime.sync`; everything must go through the
  ``make_*`` factories so lock-order tracing can see it.
* ``CC002`` — explicit ``.acquire()`` not release-protected: the only
  sanctioned shapes are ``with lock:``, ``acquire()`` immediately
  followed by ``try/finally: release()``, or ``acquire()`` as the
  first statement of such a ``try`` body.  Non-blocking and
  timeout-bounded acquires (try-lock patterns) are exempt.
* ``CC003`` — blocking call inside a held-lock region: ``time.sleep``
  at all, or a zero-argument ``.join()`` / ``.wait()`` / ``.get()``
  (all of which block forever) while a lock is held.
* ``CC004`` — module-level state rebound (``global X; X = ...``) from
  a thread-spawning module outside a held-lock region.
* ``CC005`` — ``ProcessPoolExecutor`` without an explicit
  ``mp_context=`` (the fork-after-thread hazard; use
  :func:`repro.runtime.sync.safe_mp_context`).
* ``CC006`` — a class that starts threads but has no ``.join(...)``
  anywhere on its teardown surface, or a thread started off an
  unowned constructor chain (``make_thread(...).start()``).
* ``CC007`` — ``sys.setswitchinterval`` outside the race harness
  (interpreter-global tuning belongs to ``repro.lint.racecheck``).
* ``CC008`` — unbounded ``.join()`` / ``.wait()`` (no timeout)
  anywhere in library code: shutdown paths must not hang forever.
* ``CC009`` — process-global start-method mutation
  (``multiprocessing.set_start_method`` / ``os.fork``); pools must
  take a local context from :func:`~repro.runtime.sync.safe_mp_context`.
* ``CC010`` (warning) — nested acquisition of two distinct locks; the
  ordering becomes part of the global lock-order discipline and should
  be exercised under ``REPRO_SYNC_DEBUG=1`` (see the runtime
  lock-order graph).  The race harness itself is exempt — its
  inversion demo nests in both orders on purpose.

Like the RI rules, these are AST-level approximations tuned for zero
false positives on this codebase; the allowlists are part of the rule
definitions.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from repro.lint.diag import Diagnostic, LintReport, error, warning

#: the one module allowed to touch raw ``threading`` primitives
SYNC_ALLOWED: Tuple[str, ...] = (
    "repro/runtime/sync.py",
)

#: modules allowed to call ``sys.setswitchinterval``
SWITCH_INTERVAL_ALLOWED: Tuple[str, ...] = (
    "repro/lint/racecheck.py",
)

#: modules exempt from the CC010 nesting advisory — the race harness
#: *intentionally* nests locks in both orders (the inversion demo
#: that proves the runtime detector fires)
NESTED_ALLOWED: Tuple[str, ...] = (
    "repro/lint/racecheck.py",
)

#: raw ``threading.*`` constructors CC001 fences off
_RAW_PRIMITIVES = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier", "Thread", "Timer", "local",
})

#: receiver names that mark a ``with`` block as a held-lock region
_LOCKISH = re.compile(r"lock|mutex|guard|cond", re.IGNORECASE)

#: zero-argument methods that block forever (CC003 / CC008)
_BLOCKING_METHODS = frozenset({"join", "wait", "get"})


def _allowed(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p) for p in prefixes)


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """The last identifier of ``a.b.c`` / ``c`` / ``c()`` chains."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_lockish(expr: ast.expr) -> bool:
    name = _terminal_name(expr)
    return bool(name and _LOCKISH.search(name))


def _receiver_key(func: ast.Attribute) -> str:
    """Canonical text of a method call's receiver (``self._lock``)."""
    try:
        return ast.unparse(func.value)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ast.dump(func.value)


def _calls_with_attr(node: ast.AST, attr: str) -> List[ast.Call]:
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == attr]


def _is_thread_ctor(call: ast.Call) -> bool:
    """``make_thread(...)`` or ``threading.Thread(...)`` / ``Thread(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ("make_thread", "Thread")
    if isinstance(func, ast.Attribute):
        return func.attr in ("Thread", "make_thread")
    return False


class _ConcurrencyVisitor(ast.NodeVisitor):
    """Collects CC diagnostics for one module."""

    def __init__(self, module: str, display_path: str,
                 spawns_threads: bool):
        self.module = module
        self.display_path = display_path
        self.spawns_threads = spawns_threads
        self.diagnostics: List[Diagnostic] = []
        #: stack of held-lock receiver keys (with-block nesting)
        self._lock_stack: List[str] = []
        self._parents: Dict[ast.AST, ast.AST] = {}
        #: names from ``from threading import X`` (CC001 via bare name)
        self._threading_names: set = set()
        self._pool_names: set = set()

    # ------------------------------------------------------------------
    def analyze(self, tree: ast.Module) -> List[Diagnostic]:
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
            if isinstance(parent, ast.ImportFrom):
                names = {a.asname or a.name for a in parent.names}
                if parent.module == "threading":
                    self._threading_names.update(names)
                elif parent.module in ("concurrent.futures",
                                       "multiprocessing"):
                    self._pool_names.update(
                        n for n in names if n == "ProcessPoolExecutor")
        self.visit(tree)
        return self.diagnostics

    def _where(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return f"{self.display_path}:{lineno}:{col + 1}"

    def _flag(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    # -- held-lock regions ---------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        lockish = [item.context_expr for item in node.items
                   if _is_lockish(item.context_expr)]
        keys = []
        for expr in lockish:
            try:
                keys.append(ast.unparse(expr))
            except Exception:  # pragma: no cover
                keys.append(ast.dump(expr))
        if keys and self._lock_stack \
                and set(keys) - set(self._lock_stack) \
                and not _allowed(self.module, NESTED_ALLOWED):
            self._flag(warning(
                "CC010",
                f"nested lock acquisition ({self._lock_stack[-1]} -> "
                f"{keys[0]}) adds an edge to the global lock-order "
                "discipline",
                where=self._where(node),
                hint="exercise this path under REPRO_SYNC_DEBUG=1 so "
                     "the lock-order graph verifies the ordering"))
        self._lock_stack.extend(keys)
        try:
            self.generic_visit(node)
        finally:
            del self._lock_stack[len(self._lock_stack) - len(keys):]

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            self._check_name_call(node, func)
        self._check_unowned_thread_start(node)
        self.generic_visit(node)

    def _check_name_call(self, node: ast.Call, func: ast.Name) -> None:
        if func.id in self._threading_names \
                and func.id in _RAW_PRIMITIVES \
                and not _allowed(self.module, SYNC_ALLOWED):
            self._flag(error(
                "CC001",
                f"raw threading {func.id}() outside repro.runtime.sync",
                where=self._where(node),
                hint="use the repro.runtime.sync make_* factories so "
                     "lock-order tracing sees the primitive"))
        if func.id in self._pool_names \
                and not any(k.arg == "mp_context"
                            for k in node.keywords):
            self._flag(error(
                "CC005",
                "ProcessPoolExecutor without an explicit mp_context "
                "(fork-after-thread hazard)",
                where=self._where(node),
                hint="pass mp_context=repro.runtime.sync."
                     "safe_mp_context()"))

    def _check_attribute_call(self, node: ast.Call,
                              func: ast.Attribute) -> None:
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None

        # CC001: raw threading primitives
        if base_name == "threading" and func.attr in _RAW_PRIMITIVES \
                and not _allowed(self.module, SYNC_ALLOWED):
            self._flag(error(
                "CC001",
                f"raw threading.{func.attr}() outside "
                "repro.runtime.sync",
                where=self._where(node),
                hint="use repro.runtime.sync.make_lock/make_rlock/"
                     "make_event/make_thread so lock-order tracing "
                     "sees the primitive"))

        # CC002: unprotected explicit acquire
        if func.attr == "acquire" \
                and not _allowed(self.module, SYNC_ALLOWED) \
                and not node.args and not node.keywords \
                and not self._release_protected(node, func):
            self._flag(error(
                "CC002",
                f"{_receiver_key(func)}.acquire() without with/"
                "try-finally release protection",
                where=self._where(node),
                hint="use `with lock:` (or follow the acquire with "
                     "try/finally: release())"))

        # CC003/CC008: blocking calls
        self._check_blocking(node, func, base_name)

        # CC005: pool without explicit start-method context
        if func.attr == "ProcessPoolExecutor" or (
                base_name == "multiprocessing" and func.attr == "Pool"):
            if not any(k.arg == "mp_context" for k in node.keywords) \
                    and func.attr == "ProcessPoolExecutor":
                self._flag(error(
                    "CC005",
                    "ProcessPoolExecutor without an explicit "
                    "mp_context (fork-after-thread hazard)",
                    where=self._where(node),
                    hint="pass mp_context=repro.runtime.sync."
                         "safe_mp_context()"))
            elif base_name == "multiprocessing":
                self._flag(error(
                    "CC005",
                    "multiprocessing.Pool uses the process-global "
                    "start method (fork-after-thread hazard)",
                    where=self._where(node),
                    hint="use safe_mp_context().Pool(...) instead"))

        # CC007: interpreter-global switch-interval tuning
        if base_name == "sys" and func.attr == "setswitchinterval" \
                and not _allowed(self.module, SWITCH_INTERVAL_ALLOWED):
            self._flag(error(
                "CC007",
                "sys.setswitchinterval() outside the race harness",
                where=self._where(node),
                hint="preemption tuning is process-global; only "
                     "repro.lint.racecheck may change it (and must "
                     "restore it)"))

        # CC009: process-global start-method mutation
        if (base_name == "multiprocessing"
                and func.attr == "set_start_method") \
                or (base_name == "os" and func.attr == "fork"):
            self._flag(error(
                "CC009",
                f"{base_name}.{func.attr}() mutates process-global "
                "fork state",
                where=self._where(node),
                hint="take a local context from safe_mp_context() "
                     "instead of mutating the global default"))

    def _check_blocking(self, node: ast.Call, func: ast.Attribute,
                        base_name: Optional[str]) -> None:
        held = bool(self._lock_stack)
        is_sleep = base_name == "time" and func.attr == "sleep"
        zero_arg_block = (func.attr in _BLOCKING_METHODS
                          and not node.args and not node.keywords)
        if held and (is_sleep or zero_arg_block):
            what = "time.sleep()" if is_sleep \
                else f".{func.attr}() with no timeout"
            self._flag(error(
                "CC003",
                f"blocking call {what} inside held-lock region "
                f"({self._lock_stack[-1]})",
                where=self._where(node),
                hint="move the blocking call outside the lock, or "
                     "bound it with a timeout"))
        elif zero_arg_block and func.attr in ("join", "wait"):
            # str.join / dict.get always take arguments, so a
            # zero-argument join/wait is a thread/event blocking call
            self._flag(error(
                "CC008",
                f"unbounded {_receiver_key(func)}.{func.attr}() "
                "can hang shutdown forever",
                where=self._where(node),
                hint="pass an explicit timeout and handle expiry"))

    # -- CC002 helper ---------------------------------------------------
    def _release_protected(self, node: ast.Call,
                           func: ast.Attribute) -> bool:
        receiver = _receiver_key(func)
        stmt: Optional[ast.AST] = node
        while stmt is not None and not isinstance(stmt, ast.stmt):
            stmt = self._parents.get(stmt)
        if stmt is None:
            return False
        parent = self._parents.get(stmt)
        if parent is None:
            return False

        def releases(body: List[ast.stmt]) -> bool:
            for sub in body:
                for call in _calls_with_attr(sub, "release"):
                    if isinstance(call.func, ast.Attribute) \
                            and _receiver_key(call.func) == receiver:
                        return True
            return False

        # shape 1: acquire is inside a try body whose finally releases
        if isinstance(parent, ast.Try) and stmt in parent.body \
                and releases(parent.finalbody):
            return True
        # shape 2: acquire statement immediately followed by such a try
        for body in (getattr(parent, "body", []),
                     getattr(parent, "orelse", []),
                     getattr(parent, "finalbody", [])):
            if stmt in body:
                i = body.index(stmt)
                if i + 1 < len(body) and isinstance(body[i + 1], ast.Try) \
                        and releases(body[i + 1].finalbody):
                    return True
        return False

    # -- CC004: global rebinding in thread-spawning modules -------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_global_writes(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_global_writes(node)
        self.generic_visit(node)

    def _check_global_writes(self, node: ast.AST) -> None:
        if not self.spawns_threads:
            return
        declared = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared.update(sub.names)
        if not declared:
            return
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) \
                    else [sub.target]
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id in declared \
                            and not self._write_locked(sub):
                        self._flag(error(
                            "CC004",
                            f"module-global '{target.id}' rebound "
                            "without a lock in a thread-spawning "
                            "module",
                            where=self._where(sub),
                            hint="guard the write with a sync.make_"
                                 "lock() (threads may read the old "
                                 "binding mid-update)"))

    def _write_locked(self, node: ast.AST) -> bool:
        cur = self._parents.get(node)
        while cur is not None:
            if isinstance(cur, ast.With) \
                    and any(_is_lockish(item.context_expr)
                            for item in cur.items):
                return True
            cur = self._parents.get(cur)
        return False

    # -- CC006: thread lifecycle ----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        ctors = [n for n in ast.walk(node)
                 if isinstance(n, ast.Call) and _is_thread_ctor(n)]
        if ctors:
            joins = _calls_with_attr(node, "join")
            if not joins:
                self._flag(error(
                    "CC006",
                    f"class {node.name} starts threads but never "
                    "joins one on teardown",
                    where=self._where(node),
                    hint="add a stop()/close() that joins the thread "
                         "with a timeout"))
        self.generic_visit(node)

    def _check_unowned_thread_start(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "start" \
                and isinstance(func.value, ast.Call) \
                and _is_thread_ctor(func.value):
            self._flag(error(
                "CC006",
                "thread started off an unowned constructor chain",
                where=self._where(node),
                hint="bind the thread to a variable/attribute so "
                     "teardown can join it"))


# ----------------------------------------------------------------------
def _module_spawns_threads(tree: ast.Module) -> bool:
    return any(isinstance(n, ast.Call) and _is_thread_ctor(n)
               for n in ast.walk(tree))


def lint_concur_source_text(text: str, module: str,
                            display_path: Optional[str] = None
                            ) -> LintReport:
    """Run the concurrency rules on one module's source text.

    Same contract as
    :func:`repro.lint.pylint_rules.lint_source_text`: ``module`` is
    the package-root-relative POSIX path the allowlists match against.
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
    visitor = _ConcurrencyVisitor(module, display_path or module,
                                  _module_spawns_threads(tree))
    report.extend(visitor.analyze(tree))
    return report
