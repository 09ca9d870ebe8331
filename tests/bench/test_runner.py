"""Tests for the experiment harness (fast representatives only)."""

import math

import pytest

from repro.bench.runner import (
    Table1Row,
    Table2Row,
    Table3Row,
    table1_row,
    table2_row,
    table3_row,
)
from repro.bench.tables import (
    format_table1,
    format_table2,
    format_table3,
    reduction_ratios,
)
from repro.eco.patch import PatchStats
from repro.workloads.suite import build_case, build_timing_case


@pytest.fixture(scope="module")
def case2():
    return build_case(2)


class TestTable1:
    def test_row_contents(self, case2):
        row = table1_row(case2)
        assert row.case_id == 2
        assert row.gates == case2.impl.num_gates
        assert 0 < row.revised_outputs <= row.outputs
        assert row.revised_percent == pytest.approx(
            100 * row.revised_outputs / row.outputs)

    def test_format(self, case2):
        text = format_table1([table1_row(case2)])
        assert "Table 1" in text
        assert str(case2.impl.num_gates) in text


class TestTable2:
    def test_row_and_shape(self, case2):
        row = table2_row(case2)
        assert row.designer_estimate == case2.designer_estimate
        # the paper's headline ordering on this case
        assert row.syseco.gates <= row.deltasyn.gates
        assert row.deltasyn.gates <= row.commercial.gates
        assert row.syseco_seconds > 0

    def test_format_and_ratios(self, case2):
        rows = [table2_row(case2)]
        text = format_table2(rows)
        assert "Table 2" in text
        assert "reduction ratios" in text
        ratios = reduction_ratios(rows)
        assert 0 <= ratios["gates"] <= 1.5

    def test_ratio_skips_zero_denominators(self):
        row = Table2Row(
            case_id=1, designer_estimate=1,
            commercial=PatchStats(1, 1, 1, 1), commercial_seconds=0.0,
            deltasyn=PatchStats(0, 0, 0, 0), deltasyn_seconds=0.0,
            syseco=PatchStats(0, 0, 0, 0), syseco_seconds=0.0,
        )
        ratios = reduction_ratios([row])
        assert all(math.isnan(v) for v in ratios.values())


class TestTable3:
    def test_row(self):
        case = build_timing_case(15)
        row = table3_row(case)
        assert row.case_id == 15
        assert row.syseco_gates >= 0
        text = format_table3([row])
        assert "Table 3" in text
        assert "slack" in text


class TestFormattingHelpers:
    def test_fmt_time(self):
        from repro.bench.tables import _fmt_time
        assert _fmt_time(0.5) == "00:00:00.50"
        assert _fmt_time(61.25) == "00:01:01.25"
        assert _fmt_time(3723.0) == "01:02:03.00"

    def test_table1_row_render(self):
        row = Table1Row(case_id=7, inputs=1, outputs=2, gates=3,
                        nets=4, sinks=5, revised_outputs=1,
                        revised_percent=50.0)
        text = format_table1([row])
        assert " 7 " in text or text.splitlines()[2].startswith("   7")

    def test_table3_render_negative_slack(self):
        row = Table3Row(case_id=12, deltasyn_gates=10,
                        deltasyn_slack_ps=-27.0, syseco_gates=2,
                        syseco_slack_ps=-14.0)
        text = format_table3([row])
        assert "-27.00" in text and "-14.00" in text


class TestTracedCaseRun:
    def test_returns_result_and_record(self, case2):
        from repro.bench.runner import traced_case_run

        result, record = traced_case_run(case2)
        assert record.kind == "bench"
        assert record.name == "case2"
        assert record.counters == result.counters.as_dict()
        assert record.config["num_samples"] > 0
        # the trace's own registry: one observation per sat.validate
        sat_spans = [s for s in result.trace.spans
                     if s.name == "sat.validate"]
        assert sat_spans
        assert record.histograms["repro_sat_call_seconds"]["count"] \
            == len(sat_spans)

    def test_lint_screen_stats_can_collect_records(self, case2):
        from repro.bench.runner import lint_screen_stats

        records = []
        stats = lint_screen_stats(case2, run_records=records)
        assert stats["case_id"] == 2
        assert stats["lint_screens"] >= stats["lint_rejects"]
        assert len(records) == 1
        assert records[0].name == "case2"


class TestPublish:
    def test_writes_table_and_json_twin(self, tmp_path):
        from repro.bench.runner import publish

        path = publish("t.txt", "rendered", data={"k": 1},
                       results_dir=str(tmp_path / "results"))
        assert open(path).read() == "rendered\n"
        import json
        twin = json.loads(open(str(tmp_path / "results" / "t.json")).read())
        assert twin == {"k": 1}

    def test_run_records_land_in_store(self, tmp_path, case2):
        from repro.bench.runner import publish, traced_case_run
        from repro.obs import RunStore

        _, record = traced_case_run(case2)
        store_dir = str(tmp_path / "runs")
        publish("t.txt", "rendered", results_dir=str(tmp_path / "r"),
                store=store_dir, run_records=[record])
        records = RunStore(store_dir).load_all()
        assert [r.run_id for r in records] == [record.run_id]
