"""The diagnostics core shared by all three lint analyzers.

A :class:`Diagnostic` is one finding: a stable code (``NL010``,
``PA001``, ``RI004``, ...), a severity, a human-readable message, the
location it anchors to, and an optional fix hint.  A
:class:`LintReport` aggregates the diagnostics of one analyzer run and
renders them as text (one finding per line, grep-friendly) or as a
dict with a stable JSON schema (CI artifacts and tooling).

Code families:

* ``NL...`` — netlist analyzer (:mod:`repro.lint.netlist_rules`);
* ``PA...`` — patch analyzer (:mod:`repro.lint.patch_rules`);
* ``RI...`` — repo-invariant analyzer (:mod:`repro.lint.pylint_rules`).

The catalog of all codes lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a report fail (non-zero exit from the CLI
    and rejection in the engine's lint screen); warnings and infos are
    advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    Attributes:
        code: stable identifier, e.g. ``NL010``; the leading letters
            name the analyzer family, the digits the rule.
        severity: :class:`Severity` of the finding.
        message: one-line human-readable description.
        where: location the finding anchors to — ``"gate 'g' pin 1"``
            for netlist findings, ``"path.py:12:4"`` for code findings.
        hint: optional suggestion for fixing the finding.
    """

    code: str
    severity: Severity
    message: str
    where: str = ""
    hint: Optional[str] = None

    def render(self) -> str:
        """One grep-friendly line: ``code severity where: message``."""
        loc = f" {self.where}" if self.where else ""
        line = f"{self.code} {self.severity.value}{loc}: {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "where": self.where,
        }
        if self.hint is not None:
            out["hint"] = self.hint
        return out


def error(code: str, message: str, where: str = "",
          hint: Optional[str] = None) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, where, hint)


def warning(code: str, message: str, where: str = "",
            hint: Optional[str] = None) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, where, hint)


def info(code: str, message: str, where: str = "",
         hint: Optional[str] = None) -> Diagnostic:
    return Diagnostic(code, Severity.INFO, message, where, hint)


@dataclass
class LintReport:
    """Ordered collection of diagnostics from one analyzer run.

    Attributes:
        tool: which analyzer produced the report (``netlist``,
            ``patch`` or ``self``).
        subject: what was analyzed (a circuit name, a path, ...).
        diagnostics: the findings, in discovery order.
    """

    tool: str = "lint"
    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    # -- collection ----------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "LintReport") -> "LintReport":
        """Fold another report's findings into this one; returns self."""
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- queries -------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when the report carries no error-severity findings."""
        return not self.errors

    def codes(self) -> List[str]:
        """Distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    # -- rendering -----------------------------------------------------
    def summary(self) -> Dict[str, int]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.by_severity(Severity.INFO)),
        }

    def render_text(self) -> str:
        """Human-readable rendering, most severe findings first."""
        header = f"{self.tool} lint"
        if self.subject:
            header += f" of {self.subject}"
        lines = [header]
        ordered = sorted(self.diagnostics,
                         key=lambda d: d.severity.rank)
        lines.extend("  " + d.render() for d in ordered)
        s = self.summary()
        lines.append(
            f"{s['errors']} error(s), {s['warnings']} warning(s), "
            f"{s['infos']} info(s)")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tool": self.tool,
            "subject": self.subject,
            "summary": self.summary(),
            "ok": self.ok,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
