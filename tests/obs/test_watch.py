"""``repro watch`` rendering: pure functions over a recorded run."""

from repro.obs.store import RunRecord
from repro.obs.watch_cli import (
    SPARK_CHARS,
    progress_bar,
    render_histograms,
    render_phase_rows,
    render_record,
    render_sample_sparks,
    sparkline,
)


class TestSparkline:
    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_the_floor(self):
        assert sparkline([5, 5, 5]) == SPARK_CHARS[0] * 3

    def test_scaling_spans_the_charset(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == SPARK_CHARS[0]
        assert line[-1] == SPARK_CHARS[-1]
        assert len(line) == 8

    def test_long_series_downsample_to_width(self):
        assert len(sparkline(range(1000), width=40)) == 40


class TestProgressBar:
    def test_zero_total_is_empty_frame(self):
        assert progress_bar(0, 0) == "[" + " " * 24 + "]"

    def test_partial_and_full(self):
        assert progress_bar(1, 2, width=4) == "[##--] 1/2"
        assert progress_bar(2, 2, width=4) == "[####] 2/2"
        # overfull clamps instead of overflowing the frame
        assert progress_bar(5, 2, width=4).startswith("[####]")


def make_record(**overrides):
    fields = dict(
        run_id="20260807-000000-deadbeef",
        kind="eco",
        name="example1",
        started_at=1.0,
        wall_seconds=2.5,
        outcome="ok",
        resolution={"rewire": 2, "unresolved": 1},
        phases=[
            {"phase": "eco.rectify", "calls": 1, "seconds": 2.0,
             "sat_conflicts": 50, "bdd_nodes": 100},
            {"phase": "eco.rectify/eco.output", "calls": 3,
             "seconds": 1.5, "sat_conflicts": 50, "bdd_nodes": 100},
        ],
        samples=[{"ts": 0.0, "sat_conflicts_spent": 10},
                 {"ts": 1.0, "sat_conflicts_spent": 50}],
        histograms={"repro_sat_call_seconds": {
            "count": 9, "sum": 0.1, "p50": 0.002, "p95": 0.01,
            "p99": 0.02, "buckets": []}},
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestRenderRecord:
    def test_full_frame_has_every_section(self):
        frame = render_record(make_record())
        assert "run 20260807-000000-deadbeef" in frame
        assert "outcome=ok" in frame
        assert "[################--------] 2/3" in frame
        assert "rewire:2" in frame
        assert "eco.rectify" in frame
        assert "  eco.output" in frame               # indented child
        assert "sat_conflicts_spent" in frame
        assert "repro_sat_call_seconds" in frame
        assert "p95=10.0ms" in frame

    def test_degraded_banner(self):
        frame = render_record(make_record(outcome="degraded",
                                          degraded=True))
        assert "DEGRADED" in frame

    def test_sparse_record_renders_header_only(self):
        frame = render_record(make_record(
            resolution={}, phases=[], samples=[], histograms={}))
        assert "run 20260807-000000-deadbeef" in frame
        assert "phases:" not in frame
        assert "latency percentiles:" not in frame


class TestRenderHelpers:
    def test_phase_rows_elide_overflow(self):
        phases = [{"phase": f"p{i}", "calls": 1, "seconds": 1.0,
                   "sat_conflicts": 0} for i in range(20)]
        rows = render_phase_rows(phases, limit=3)
        assert len(rows) == 4
        assert rows[-1] == "  ... 17 more phases"

    def test_sample_sparks_skip_all_zero_series(self):
        samples = [{"bdd_nodes": 0, "plan_evals": 3},
                   {"bdd_nodes": 0, "plan_evals": 9}]
        lines = render_sample_sparks(samples)
        assert len(lines) == 1
        assert "plan_evals" in lines[0]

    def test_histograms_skip_empty_series(self):
        lines = render_histograms({
            "repro_empty_seconds": {"count": 0},
            "repro_bdd_session_nodes": {"count": 3, "p50": 512,
                                        "p95": 2048, "p99": 4096}})
        assert len(lines) == 1
        assert "p95=2048" in lines[0]                # sizes: no ms unit
