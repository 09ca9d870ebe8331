"""Exporter tests: JSONL / Chrome round-trips and the metrics snapshot."""

import json
import re

import pytest

from repro.obs.export import (
    chrome_payload,
    prometheus_text,
    read_trace,
    write_chrome,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import sanitize_metric_name
from repro.obs.trace import Trace


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def sample_trace():
    clock = FakeClock()
    trace = Trace(name="sample", clock=clock)
    with trace.span("root", impl="sample"):
        clock.t = 0.25
        with trace.span("work", output="o1") as sp:
            clock.t = 0.75
            trace.event("hiccup", reason="test")
            sp.tag(result="ok")
        clock.t = 1.0
    trace.meta.update(counters={"sat_conflicts_spent": 3}, degraded=False)
    return trace


class TestJsonl:
    def test_round_trip(self, sample_trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_jsonl(sample_trace, path)
        assert read_trace(path) == json.loads(
            json.dumps(sample_trace.records()))

    def test_one_record_per_line(self, sample_trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_jsonl(sample_trace, path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == len(sample_trace.records())
        assert json.loads(lines[0])["type"] == "meta"


class TestChrome:
    def test_payload_shape(self, sample_trace):
        payload = chrome_payload(sample_trace)
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 2
        assert len(instants) == 1
        work = next(e for e in complete if e["name"] == "work")
        assert work["ts"] == pytest.approx(0.25e6)  # microseconds
        assert work["dur"] == pytest.approx(0.5e6)
        assert work["args"]["tags"] == {"output": "o1", "result": "ok"}

    def test_file_is_single_valid_json(self, sample_trace, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome(sample_trace, path)
        payload = json.loads(open(path).read())
        assert "traceEvents" in payload
        assert payload["otherData"]["name"] == "sample"

    def test_round_trip_preserves_structure(self, sample_trace, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome(sample_trace, path)
        records = read_trace(path)
        direct = sample_trace.records()
        assert [r["type"] for r in records] == [r["type"] for r in direct]
        spans = [r for r in records if r["type"] == "span"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["work"]["parent"] == by_name["root"]["id"]
        assert by_name["work"]["ts"] == pytest.approx(0.25)
        assert by_name["work"]["dur"] == pytest.approx(0.5)
        (event,) = [r for r in records if r["type"] == "event"]
        assert event["name"] == "hiccup"
        assert event["span"] == by_name["work"]["id"]


class TestPrometheus:
    def test_snapshot_contents(self, sample_trace, tmp_path):
        text = prometheus_text(sample_trace)
        assert '# TYPE repro_phase_seconds_total counter' in text
        assert 'repro_phase_calls_total{phase="root"} 1' in text
        assert 'repro_phase_calls_total{phase="root/work"} 1' in text
        assert 'repro_run_degraded 0' in text
        assert ('repro_run_counter_total{counter="sat_conflicts_spent"} 3'
                in text)
        path = str(tmp_path / "m.prom")
        write_prometheus(sample_trace, path)
        assert open(path).read() == text

    def test_label_escaping(self):
        clock = FakeClock()
        trace = Trace(name='we"ird\\name', clock=clock)
        with trace.span('we"ird\\name'):
            clock.t = 1.0
        text = prometheus_text(trace)
        assert 'phase="we\\"ird\\\\name"' in text


def parse_exposition(text):
    """Minimal Prometheus exposition parser: {(metric, labels): value}.

    Understands the escapes the format defines for label values
    (backslash, double quote, line feed), so escaping tests can assert
    on the *decoded* values instead of escape-sequence strings.
    """
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            metric, rest = name_part.split("{", 1)
            body = rest.rsplit("}", 1)[0]
            labels = {}
            for m in re.finditer(r'(\w+)="((?:\\.|[^"\\])*)"', body):
                raw = m.group(2)
                labels[m.group(1)] = (raw.replace("\\n", "\n")
                                      .replace('\\"', '"')
                                      .replace("\\\\", "\\"))
            key = (metric, tuple(sorted(labels.items())))
        else:
            key = (name_part, ())
        samples[key] = value
    return samples


class TestMetricNameSanitization:
    @pytest.mark.parametrize("raw,clean", [
        ("repro_phase_seconds_total", "repro_phase_seconds_total"),
        ("eco.rectify", "eco_rectify"),
        ("weird-name with spaces", "weird_name_with_spaces"),
        ("9lives", "_9lives"),
        ("a:b", "a:b"),
        ("", "_"),
    ])
    def test_sanitize(self, raw, clean):
        assert sanitize_metric_name(raw) == clean

    def test_label_names_sanitized_in_output(self):
        clock = FakeClock()
        trace = Trace(name="t", clock=clock)
        with trace.span("root"):
            clock.t = 1.0
        text = prometheus_text(trace)
        for line in text.splitlines():
            if line.startswith("#") or "{" not in line:
                continue
            for label in re.findall(r'(\w[\w:]*)=', line):
                assert not re.search(r"[^a-zA-Z0-9_:]", label)


class TestPrometheusEscaping:
    def hostile_trace(self):
        clock = FakeClock()
        name = 'bad"label\\with\nnewline'
        trace = Trace(name=name, clock=clock)
        with trace.span("root"):
            clock.t = 1.0
        return name, trace

    def test_output_has_no_raw_newline_inside_labels(self):
        _, trace = self.hostile_trace()
        text = prometheus_text(trace)
        for line in text.splitlines():
            # every line is a complete sample or comment: a raw newline
            # in a label value would have produced a torn line
            assert line.startswith("#") or " " in line

    def test_run_name_round_trips_through_exposition(self):
        name, trace = self.hostile_trace()
        samples = parse_exposition(prometheus_text(trace))
        key = ("repro_run_info", (("name", name),))
        assert samples[key] == "1"

    def test_tag_values_escaped(self):
        clock = FakeClock()
        trace = Trace(name="t", clock=clock)
        with trace.span('evil"phase\nname'):
            clock.t = 1.0
        samples = parse_exposition(prometheus_text(trace))
        key = ("repro_phase_calls_total",
               (("phase", 'evil"phase\nname'),))
        assert samples[key] == "1"


class TestSamplerEventRoundTrip:
    @pytest.fixture
    def sampled_trace(self):
        clock = FakeClock()
        trace = Trace(name="s", clock=clock)
        with trace.span("root"):
            trace.event("obs.sample", seq=1, bdd_nodes=0)
            clock.t = 0.5
            trace.event("obs.sample", seq=2, bdd_nodes=321,
                        sat_conflicts_spent=12)
            trace.event("run.stalled", idle_s=31.5, window_s=30.0,
                        progress=7, hint="no span progress")
            clock.t = 1.0
        return trace

    @pytest.mark.parametrize("writer", [write_jsonl, write_chrome])
    def test_lossless_round_trip(self, sampled_trace, tmp_path, writer):
        path = str(tmp_path / "t.out")
        writer(sampled_trace, path)
        records = read_trace(path)
        direct = json.loads(json.dumps(sampled_trace.records()))
        events = [r for r in records if r["type"] == "event"]
        direct_events = [r for r in direct if r["type"] == "event"]
        assert [e["name"] for e in events] == [
            "obs.sample", "obs.sample", "run.stalled"]
        assert [e["tags"] for e in events] == [
            e["tags"] for e in direct_events]


class TestForwardCompat:
    RAW = {"type": "obs.v99-frob", "ts": 0.5,
           "payload": {"nested": [1, "two"]}}

    def records(self):
        clock = FakeClock()
        trace = Trace(name="f", clock=clock)
        with trace.span("root"):
            clock.t = 1.0
        return trace.records() + [dict(self.RAW)]

    def test_unknown_kind_survives_jsonl(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_jsonl(self.records(), path)
        assert read_trace(path)[-1] == self.RAW

    def test_unknown_kind_survives_chrome(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome(self.records(), path)
        restored = read_trace(path)
        assert restored[-1] == self.RAW
        # and the carrier event is visibly marked as raw in the payload
        payload = chrome_payload(self.records())
        raw = [e for e in payload["traceEvents"]
               if e["cat"] == "repro.raw"]
        assert len(raw) == 1
        assert raw[0]["args"]["record"] == self.RAW


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", [write_jsonl, write_chrome,
                                        write_prometheus])
    def test_no_temp_leftovers(self, sample_trace, tmp_path, writer):
        import os
        path = str(tmp_path / "out.file")
        writer(sample_trace, path)
        assert os.path.exists(path)
        assert [n for n in os.listdir(tmp_path)
                if n.startswith(".tmp-")] == []


class TestReadTrace:
    def test_unknown_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "name": "x"}\nnot json\n')
        with pytest.raises(json.JSONDecodeError):
            read_trace(str(path))
