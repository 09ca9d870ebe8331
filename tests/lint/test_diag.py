"""Unit tests of the diagnostics core."""

import json

from repro.lint.diag import (
    LintReport,
    Severity,
    error,
    info,
    warning,
)


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR < Severity.WARNING < Severity.INFO

    def test_values_are_stable(self):
        assert Severity.ERROR.value == "error"
        assert Severity.WARNING.value == "warning"
        assert Severity.INFO.value == "info"


class TestDiagnostic:
    def test_render_with_location_and_hint(self):
        d = error("NL010", "combinational cycle", where="net 'g'",
                  hint="break the loop")
        line = d.render()
        assert line == ("NL010 error net 'g': combinational cycle "
                        "(hint: break the loop)")

    def test_render_without_location(self):
        d = info("NL025", "unused input")
        assert d.render() == "NL025 info: unused input"

    def test_as_dict_omits_missing_hint(self):
        d = warning("PA005", "no-op rewire", where="pin")
        payload = d.as_dict()
        assert payload["code"] == "PA005"
        assert payload["severity"] == "warning"
        assert "hint" not in payload

    def test_frozen(self):
        d = error("X001", "x")
        try:
            d.code = "X002"
        except AttributeError:
            return
        raise AssertionError("Diagnostic should be immutable")


class TestLintReport:
    def make(self) -> LintReport:
        r = LintReport(tool="netlist", subject="c")
        r.add(warning("NL020", "floating"))
        r.add(error("NL010", "cycle"))
        r.add(info("NL025", "unused"))
        return r

    def test_queries(self):
        r = self.make()
        assert len(r) == 3
        assert not r.ok
        assert [d.code for d in r.errors] == ["NL010"]
        assert [d.code for d in r.warnings] == ["NL020"]
        assert r.codes() == ["NL010", "NL020", "NL025"]

    def test_ok_without_errors(self):
        r = LintReport()
        r.add(warning("NL020", "floating"))
        assert r.ok

    def test_merge(self):
        r = LintReport()
        other = LintReport()
        other.add(error("PA001", "cycle"))
        assert r.merge(other) is r
        assert len(r) == 1

    def test_render_text_orders_by_severity(self):
        lines = self.make().render_text().splitlines()
        assert lines[0] == "netlist lint of c"
        assert lines[1].strip().startswith("NL010 error")
        assert lines[2].strip().startswith("NL020 warning")
        assert lines[3].strip().startswith("NL025 info")
        assert lines[-1] == "1 error(s), 1 warning(s), 1 info(s)"

    def test_json_schema(self):
        payload = json.loads(json.dumps(self.make().as_dict()))
        assert payload["tool"] == "netlist"
        assert payload["ok"] is False
        assert payload["summary"] == {
            "errors": 1, "warnings": 1, "infos": 1}
        assert [d["code"] for d in payload["diagnostics"]] == [
            "NL020", "NL010", "NL025"]
