"""``repro runs show`` rendering: pure functions over a recorded run."""

from repro.obs.runs_cli import _format_show
from repro.obs.store import RunRecord


def make_record(**overrides):
    fields = dict(
        run_id="20260807-000000-deadbeef",
        kind="eco",
        name="example1",
        started_at=1.0,
        wall_seconds=2.5,
        outcome="ok",
        counters={"lint_screens": 8, "lint_rejects": 2,
                  "sat_conflicts_spent": 50},
        resolution={"rewire": 2, "unresolved": 1},
        phases=[
            {"phase": "eco.rectify", "calls": 1, "seconds": 2.0,
             "sat_conflicts": 50, "bdd_nodes": 100},
            {"phase": "eco.rectify/eco.output", "calls": 3,
             "seconds": 1.5, "sat_conflicts": 50, "bdd_nodes": 100},
        ],
        events={"run.degraded": 1},
        histograms={"repro_sat_call_seconds": {
            "count": 9, "sum": 0.1, "p50": 0.002, "p95": 0.01,
            "p99": 0.02, "buckets": []}},
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestFormatShow:
    def test_full_record_has_every_section(self):
        text = _format_show(make_record())
        assert "run      : 20260807-000000-deadbeef" in text
        assert "outcome  : ok" in text
        assert "resolved : rewire=2, unresolved=1" in text
        assert "eco.rectify" in text
        assert "  eco.output" in text                # indented child
        assert "repro_sat_call_seconds" in text
        assert "10.0ms" in text                      # the p95
        assert "events   : run.degraded=1" in text

    def test_lint_line_comes_from_counters(self):
        text = _format_show(make_record())
        assert "lint     : 8 screens, 2 rejects (25%)" in text
        text = _format_show(make_record(counters={}))
        assert "lint     :" not in text

    def test_degraded_reason_shown(self):
        text = _format_show(make_record(outcome="degraded", degraded=True,
                                        degrade_reason="deadline"))
        assert "outcome  : degraded (degraded: deadline)" in text

    def test_histograms_skip_empty_series(self):
        text = _format_show(make_record(histograms={
            "repro_empty_seconds": {"count": 0},
            "repro_bdd_session_nodes": {"count": 3, "p50": 512,
                                        "p95": 2048, "p99": 4096}}))
        assert "repro_empty_seconds" not in text
        assert "2048" in text                        # sizes: no ms unit

    def test_sparse_record_renders_header_only(self):
        text = _format_show(make_record(
            counters={}, resolution={}, phases=[], events={},
            histograms={}))
        assert "run      : 20260807-000000-deadbeef" in text
        assert "phase" not in text
        assert "histogram" not in text
        assert "events" not in text
