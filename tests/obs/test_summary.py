"""Summary aggregation and rendering tests."""

from repro.obs.summary import brief_phase_lines, format_summary, summarize


def make_records():
    """A hand-built record list: root with two phases, one repeated."""
    return [
        {"type": "meta", "name": "demo",
         "counters": {"sat_conflicts_spent": 9, "fallbacks": 0},
         "degraded": True},
        {"type": "span", "id": 1, "parent": None, "name": "eco.rectify",
         "ts": 0.0, "dur": 10.0, "tags": {}, "counters": {}},
        {"type": "span", "id": 2, "parent": 1, "name": "eco.output",
         "ts": 0.0, "dur": 6.0, "tags": {"output": "a", "how": "rewire"},
         "counters": {"sat_conflicts_spent": 5, "bdd_nodes_spent": 100}},
        {"type": "span", "id": 3, "parent": 1, "name": "eco.output",
         "ts": 6.0, "dur": 3.5,
         "tags": {"output": "b", "how": "fallback"},
         "counters": {"sat_conflicts_spent": 4}},
        {"type": "span", "id": 4, "parent": 2, "name": "sat.validate",
         "ts": 1.0, "dur": 2.0, "tags": {"result": "equivalent"},
         "counters": {"sat_conflicts_spent": 5}},
        {"type": "event", "name": "run.degraded", "ts": 7.0, "span": 3,
         "tags": {"reason": "deadline"}},
    ]


class TestSummarize:
    def test_aggregation_by_name_path(self):
        summary = summarize(make_records())
        (root,) = summary.roots
        assert root.name == "eco.rectify"
        assert root.calls == 1
        (output,) = root.children
        assert output.name == "eco.output"
        assert output.calls == 2               # collapsed repeats
        assert output.seconds == 9.5
        assert output.sat_conflicts == 9
        assert output.bdd_nodes == 100
        (sat,) = output.children
        assert sat.name == "sat.validate"
        assert sat.depth == 2

    def test_coverage_is_child_fraction_of_root(self):
        summary = summarize(make_records())
        assert summary.coverage == 0.95        # 9.5 of 10.0

    def test_hot_outputs_sorted_by_time(self):
        summary = summarize(make_records())
        assert [h.output for h in summary.hot_outputs] == ["a", "b"]
        assert summary.hot_outputs[0].how == "rewire"
        assert summary.hot_outputs[0].sat_conflicts == 5

    def test_meta_flows_through(self):
        summary = summarize(make_records())
        assert summary.name == "demo"
        assert summary.degraded is True
        assert summary.counters["sat_conflicts_spent"] == 9
        assert summary.wall_seconds == 10.0

    def test_empty_records(self):
        summary = summarize([])
        assert summary.roots == []
        assert summary.wall_seconds == 0.0
        assert summary.coverage == 1.0

    def test_orphan_span_becomes_root(self):
        records = [
            {"type": "span", "id": 7, "parent": 99, "name": "stray",
             "ts": 0.0, "dur": 1.0, "tags": {}, "counters": {}},
        ]
        summary = summarize(records)
        assert [r.name for r in summary.roots] == ["stray"]


class TestFormatting:
    def test_format_summary_layout(self):
        text = format_summary(summarize(make_records()))
        assert "DEGRADED" in text
        assert "sat-conf" in text and "bdd-nodes" in text
        lines = text.splitlines()
        tree = [l for l in lines if "eco.output" in l]
        assert tree and tree[0].startswith("  eco.output")  # indented
        assert any("phase coverage : 95.0%" in l for l in lines)
        assert any("run.degraded" in l and "reason=deadline" in l
                   for l in lines)
        assert any("hottest outputs:" in l for l in lines)

    def test_event_overflow_elided(self):
        records = make_records()
        for i in range(12):
            records.append({"type": "event", "name": f"e{i}", "ts": 8.0,
                            "span": 1, "tags": {}})
        text = format_summary(summarize(records), events=8)
        assert "... 5 more" in text

    def test_run_phase_tags(self):
        records = make_records() + [
            {"type": "span", "id": 5, "parent": 1, "name": "eco.diagnose",
             "ts": -0.5, "dur": 0.2, "tags": {"failing": 2},
             "counters": {}},
            {"type": "span", "id": 6, "parent": 1,
             "name": "cec.verify_final", "ts": 9.6, "dur": 0.3,
             "tags": {"equivalent": True, "encoded": 3, "swept": 7},
             "counters": {}},
        ]
        summary = summarize(records)
        # once-per-run phases only: the two eco.output spans repeat
        assert summary.run_phases == [
            ("eco.diagnose", {"failing": 2}),
            ("cec.verify_final",
             {"equivalent": True, "encoded": 3, "swept": 7})]
        lines = format_summary(summary).splitlines()
        assert any(l.split() == ["cec.verify_final", "encoded=3",
                                 "equivalent=True", "swept=7"]
                   for l in lines)
        assert "run phases:" not in format_summary(
            summarize(make_records()))

    def test_brief_phase_lines(self):
        lines = brief_phase_lines(make_records(), limit=2)
        assert len(lines) == 2
        assert lines[0].startswith("eco.rectify")
        assert "sat-conf=9" in lines[1]


class TestUncleanRuns:
    """Rendering of runs that did not finish cleanly: degraded,
    interrupted mid-span, and quarantined with partial worker spans."""

    def test_degraded_run_names_the_reason(self):
        text = format_summary(summarize(make_records()))
        assert "DEGRADED" in text
        assert "run.degraded reason=deadline" in text

    def test_interrupted_run_renders_from_partial_records(self):
        """An interrupt leaves enclosing spans unfinished: children
        reference parent ids that never made it into the record list.
        They must surface as roots, not crash the aggregation."""
        records = [
            {"type": "meta", "name": "interrupted", "counters": {}},
            # parent id 1 (eco.rectify) never finished -> no record
            {"type": "span", "id": 2, "parent": 1, "name": "eco.output",
             "ts": 0.0, "dur": 1.0, "tags": {"output": "a"},
             "counters": {"sat_conflicts_spent": 3}},
            {"type": "span", "id": 3, "parent": 2, "name": "sat.validate",
             "ts": 0.2, "dur": 0.4, "tags": {}, "counters": {}},
        ]
        summary = summarize(records)
        (root,) = summary.roots
        assert root.name == "eco.output"
        assert [c.name for c in root.children] == ["sat.validate"]
        text = format_summary(summary)
        assert "eco.output" in text
        assert "DEGRADED" not in text
        # the unfinished output has no resolution yet
        assert summary.hot_outputs[0].how == "?"

    def quarantined_records(self):
        return [
            {"type": "meta", "name": "chaos", "degraded": True,
             "counters": {"outputs_quarantined": 2,
                          "worker_deaths": 2}},
            {"type": "span", "id": 1, "parent": None,
             "name": "eco.rectify", "ts": 0.0, "dur": 5.0, "tags": {},
             "counters": {}},
            # a partial worker span, as older stored runs carry them
            {"type": "span", "id": 2, "parent": 1, "name": "eco.worker",
             "ts": 0.5, "dur": 1.5,
             "tags": {"partial": True, "worker": "o1,o2@1"},
             "counters": {}},
            {"type": "event", "name": "worker.partial_telemetry",
             "ts": 2.0, "span": 1,
             "tags": {"worker": "o1,o2@1", "spans": 1}},
            {"type": "event", "name": "output.quarantined", "ts": 2.1,
             "span": 1, "tags": {"port": "o1",
                                 "reason": "worker died twice"}},
        ]

    def test_quarantined_run_keeps_partial_worker_spans(self):
        summary = summarize(self.quarantined_records())
        (root,) = summary.roots
        (worker,) = root.children
        assert worker.name == "eco.worker"
        assert worker.seconds == 1.5
        assert summary.degraded is True

    def test_quarantined_run_formats_events_and_banner(self):
        text = format_summary(summarize(self.quarantined_records()))
        assert "DEGRADED" in text
        assert "eco.worker" in text
        assert "output.quarantined" in text
        assert "reason=worker died twice" in text
        assert "worker.partial_telemetry" in text
        assert "outputs_quarantined=2" in text
