"""Command-line surface of the lint subsystem.

Shared by ``repro lint ...`` (the main CLI subcommand) and
``python -m repro.lint ...``.  Three modes:

* ``repro lint NETLIST [NETLIST ...]`` — netlist analyzer on each file;
* ``repro lint --impl C.blif [--spec C2.blif] --patch-ops OPS.json`` —
  patch analyzer on a rewire-op set (see
  :func:`repro.lint.patch_rules.parse_ops` for the JSON format);
* ``repro lint --self`` — repo-invariant analyzer on the running
  ``repro`` package sources (or ``--root DIR``).

``--format json`` emits the stable report schema; ``-o FILE`` writes
the report there as well (CI uploads it as an artifact).  Exit status
is 0 when no error-severity findings exist, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import NetlistError
from repro.lint.diag import LintReport


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``lint`` options on a parser."""
    parser.add_argument(
        "netlists", nargs="*", metavar="NETLIST",
        help="netlist files to analyze (BLIF/Verilog/AIGER)")
    parser.add_argument(
        "--self", dest="self_lint", action="store_true",
        help="run the repo-invariant analyzer on the repro sources")
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help="package root for --self (default: the running "
             "repro package)")
    parser.add_argument(
        "--impl", metavar="FILE",
        help="implementation netlist for patch analysis")
    parser.add_argument(
        "--spec", metavar="FILE",
        help="specification netlist for patch analysis (optional)")
    parser.add_argument(
        "--patch-ops", metavar="FILE",
        help="JSON rewire-op list to analyze against --impl")
    parser.add_argument(
        "--format", dest="fmt", choices=["text", "json"],
        default="text", help="report rendering (default: text)")
    parser.add_argument(
        "-o", "--output", metavar="FILE",
        help="also write the report to FILE (in the chosen format)")
    parser.add_argument(
        "--no-deep", dest="deep", action="store_false", default=True,
        help="netlist mode: well-formedness tier only (skip hygiene "
             "rules)")


def run_lint(args: argparse.Namespace) -> int:
    """Execute one lint invocation; returns the process exit status."""
    reports: List[LintReport] = []

    if args.self_lint:
        from repro.lint.pylint_rules import lint_sources
        reports.append(lint_sources(args.root))

    if args.patch_ops:
        if not args.impl:
            print("error: --patch-ops requires --impl", file=sys.stderr)
            return 2
        from repro.cli import _load_netlist
        from repro.lint.patch_rules import lint_patch_ops, parse_ops
        impl = _load_netlist(args.impl)
        spec = _load_netlist(args.spec) if args.spec else None
        try:
            with open(args.patch_ops, "r", encoding="utf-8") as fh:
                ops = parse_ops(json.load(fh))
        except (OSError, ValueError, NetlistError) as exc:
            # json.JSONDecodeError and parse_ops' NetlistError both
            # land here; a malformed ops file is a usage error, not a
            # lint finding
            print(f"error: cannot read patch ops {args.patch_ops}: "
                  f"{exc}", file=sys.stderr)
            return 2
        reports.append(lint_patch_ops(impl, ops, spec=spec))

    for path in args.netlists:
        from repro.cli import _load_netlist
        from repro.lint.netlist_rules import lint_netlist
        circuit = _load_netlist(path)
        report = lint_netlist(circuit, deep=args.deep)
        report.subject = f"{path} ({circuit.name})"
        reports.append(report)

    if not reports:
        print("error: nothing to lint (give a netlist, --patch-ops "
              "or --self)", file=sys.stderr)
        return 2

    if args.fmt == "json":
        if len(reports) == 1:
            payload = reports[0].as_dict()
        else:
            payload = {
                "tool": "lint",
                "ok": all(r.ok for r in reports),
                "reports": [r.as_dict() for r in reports],
            }
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = "\n\n".join(r.render_text() for r in reports)

    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    return 0 if all(r.ok for r in reports) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="static diagnostics for netlists, patches and the "
                    "repo's own invariants")
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args)
