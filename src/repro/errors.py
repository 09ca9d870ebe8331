"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError` so
that callers can catch library failures without masking programming
errors (``TypeError``, ``KeyError``, ...) in their own code.

Budget exhaustion forms its own sub-hierarchy so that run supervision
(:mod:`repro.runtime`) can catch *any* resource blow-up with one except
clause::

    ReproError
    ├── NetlistError
    ├── ParseError
    ├── BddError
    │   └── BddNodeLimitError      (also a ResourceBudgetExceeded)
    ├── SatError
    ├── ResourceBudgetExceeded
    │   ├── BddNodeLimitError      (via multiple inheritance)
    │   ├── SatBudgetExceeded
    │   └── DeadlineExceeded
    ├── WorkerDiedError
    ├── JournalError
    └── EcoError
        └── PatchStructureError

:class:`BddNodeLimitError` deliberately inherits from both
:class:`BddError` (it is a BDD-layer condition) and
:class:`ResourceBudgetExceeded` (it is a budget exhaustion): code that
cares about the BDD layer catches the former, code that cares about
graceful degradation catches the latter, and both keep working.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class NetlistError(ReproError):
    """Structural problem in a circuit: dangling pin, cycle, bad name."""


class ParseError(ReproError):
    """Malformed input file (BLIF / Verilog)."""

    def __init__(self, message: str, filename: str = "<string>", line: int = 0):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line


class BddError(ReproError):
    """BDD manager misuse or resource exhaustion."""


class SatError(ReproError):
    """SAT solver misuse (bad literal, solving a released solver, ...)."""


class ResourceBudgetExceeded(ReproError):
    """A resource-constrained computation ran out of its budget.

    Umbrella class for every budget exhaustion raised by the library:
    SAT conflict budgets, BDD node limits and run deadlines.  The run
    supervisor catches this class to trigger graceful degradation; the
    concrete subclasses say which resource ran out.
    """


class BddNodeLimitError(BddError, ResourceBudgetExceeded):
    """The manager exceeded its configured node limit.

    Inherits from both :class:`BddError` and
    :class:`ResourceBudgetExceeded` — see the module docstring.
    """


class SatBudgetExceeded(ResourceBudgetExceeded):
    """The run-level SAT conflict budget is spent."""


class DeadlineExceeded(ResourceBudgetExceeded):
    """The run's wall-clock deadline passed."""


class WorkerDiedError(ReproError):
    """A supervised pool worker died before returning its result.

    Raised by an inline-mode worker of :mod:`repro.eco.parallel`
    (``REPRO_ECO_JOBS_INLINE=1``) whose dispatch carried an injected
    kill — the stand-in for a real worker process dying, which the
    pool sees as a broken executor.  The pool catches it and retries
    or quarantines; it never escapes ``parallel_repair``.
    """


class JournalError(ReproError):
    """A checkpoint journal cannot be used for resumption.

    Raised by :mod:`repro.eco.checkpoint` when a journal's header does
    not match the run being resumed (different design or configuration
    digest) or a journaled commit fails validation on replay.
    """


class EcoError(ReproError):
    """The ECO engine could not produce a valid patch."""


class PatchStructureError(EcoError):
    """A patch would corrupt the netlist structurally.

    Raised when static analysis (:mod:`repro.lint`) proves a rewire-op
    set illegal — it would introduce a combinational cycle, reference a
    missing source net, or leave the patched circuit ill-formed.  The
    offending :class:`repro.lint.diag.Diagnostic` objects ride along in
    ``diagnostics`` so callers can render or serialize them.
    """

    def __init__(
        self,
        message: str,
        diagnostics: Optional[Iterable[object]] = None,
    ):
        super().__init__(message)
        self.diagnostics: List[object] = (
            list(diagnostics) if diagnostics is not None else []
        )
