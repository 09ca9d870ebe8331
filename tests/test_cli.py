"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.netlist import read_blif, write_blif
from repro.workloads.figures import example1_circuits
from tests.conftest import exhaustive_equivalent


@pytest.fixture
def eco_files(tmp_path):
    impl, spec = example1_circuits(width=2)
    impl_path = str(tmp_path / "impl.blif")
    spec_path = str(tmp_path / "spec.blif")
    write_blif(impl, impl_path)
    write_blif(spec, spec_path)
    return impl_path, spec_path


class TestStats:
    def test_prints_counts(self, eco_files, capsys):
        impl_path, _ = eco_files
        assert main(["stats", impl_path]) == 0
        out = capsys.readouterr().out
        assert "gates" in out
        assert "depth" in out


class TestCec:
    def test_equivalent(self, eco_files, capsys):
        impl_path, _ = eco_files
        assert main(["cec", impl_path, impl_path]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent_with_counterexample(self, eco_files, capsys):
        impl_path, spec_path = eco_files
        assert main(["cec", impl_path, spec_path]) == 1
        out = capsys.readouterr().out
        assert "NOT EQUIVALENT" in out
        assert "counterexample" in out


class TestSynth:
    def test_heavy_script_round_trip(self, eco_files, tmp_path, capsys):
        impl_path, _ = eco_files
        out_path = str(tmp_path / "out.blif")
        v_path = str(tmp_path / "out.v")
        assert main(["synth", impl_path, "-o", out_path,
                     "--script", "heavy", "--verilog", v_path]) == 0
        original = read_blif(impl_path)
        optimized = read_blif(out_path)
        assert exhaustive_equivalent(original, optimized)
        assert os.path.exists(v_path)


class TestEco:
    def test_syseco_end_to_end(self, eco_files, tmp_path, capsys):
        impl_path, spec_path = eco_files
        out_path = str(tmp_path / "patched.blif")
        code = main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "-o", out_path, "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        patched = read_blif(out_path)
        spec = read_blif(spec_path)
        assert exhaustive_equivalent(patched, spec)

    @pytest.mark.parametrize("engine", ["deltasyn", "conemap"])
    def test_baseline_engines(self, eco_files, engine, tmp_path, capsys):
        impl_path, spec_path = eco_files
        out_path = str(tmp_path / "patched.blif")
        code = main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--engine", engine, "-o", out_path])
        assert code == 0
        assert "verified: True" in capsys.readouterr().out
        patched = read_blif(out_path)
        spec = read_blif(spec_path)
        assert exhaustive_equivalent(patched, spec)

    def test_syseco_proves_equivalence_once(self, eco_files, monkeypatch,
                                            capsys):
        # the engine's final verification is the command's verdict
        import repro.cec
        import repro.eco.engine

        calls = []
        real = repro.cec.check_equivalence

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.eco.engine, "check_equivalence", counting)
        monkeypatch.setattr(repro.cec, "check_equivalence", counting)
        impl_path, spec_path = eco_files
        code = main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8", "--no-store"])
        assert code == 0
        assert "verified: True" in capsys.readouterr().out
        assert len(calls) == 1


class TestObservability:
    def test_trace_metrics_counters_written(self, eco_files, tmp_path,
                                            capsys):
        import json
        impl_path, spec_path = eco_files
        trace_path = str(tmp_path / "run.json")
        metrics_path = str(tmp_path / "run.prom")
        counters_path = str(tmp_path / "run.counters.json")
        code = main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8",
                     "--trace", trace_path, "--trace-format", "chrome",
                     "--metrics", metrics_path,
                     "--counters-json", counters_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out

        payload = json.loads(open(trace_path).read())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        assert "repro_phase_seconds_total" in open(metrics_path).read()
        counters = json.loads(open(counters_path).read())
        assert counters["verified"] is True
        assert counters["degraded"] is False
        assert counters["counters"]["sat_validations"] > 0
        assert set(counters["per_output"].values()) <= {
            "rewire", "fixed-by-earlier", "fallback",
            "fallback-degraded"}

    def test_trace_subcommand_prints_summary(self, eco_files, tmp_path,
                                             capsys):
        impl_path, spec_path = eco_files
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8", "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "eco.rectify" in out
        assert "sat-conf" in out and "bdd-nodes" in out
        assert "phase coverage" in out

    def test_trace_warns_on_baseline_engine(self, eco_files, tmp_path,
                                            capsys):
        impl_path, spec_path = eco_files
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--engine", "conemap", "--trace", trace_path]) == 0
        captured = capsys.readouterr()
        assert "only supported by the syseco engine" in captured.err
        assert not os.path.exists(trace_path)

    def test_verbose_flag_enables_logging(self, eco_files, capsys):
        import logging
        impl_path, spec_path = eco_files
        root = logging.getLogger()
        before_level, before_handlers = (root.level, root.handlers[:])
        try:
            for h in root.handlers[:]:
                root.removeHandler(h)
            assert main(["-v", "eco", "--impl", impl_path,
                         "--spec", spec_path, "--samples", "8"]) == 0
            captured = capsys.readouterr()
            assert "INFO repro.eco" in captured.err
        finally:
            root.setLevel(before_level)
            for h in root.handlers[:]:
                root.removeHandler(h)
            for h in before_handlers:
                root.addHandler(h)


class TestServeAndWatch:
    def run_eco(self, eco_files, *extra):
        impl_path, spec_path = eco_files
        return main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8", *extra])

    def test_metrics_file_is_conformant_with_histograms(
            self, eco_files, tmp_path, capsys):
        from repro.obs.metrics import parse_prometheus_text

        metrics_path = str(tmp_path / "run.prom")
        assert self.run_eco(eco_files, "--metrics", metrics_path) == 0
        with open(metrics_path, encoding="utf-8") as fh:
            families = parse_prometheus_text(fh.read())  # strict
        hist = [n for n, f in families.items()
                if f["type"] == "histogram"]
        assert len(hist) >= 4
        assert "repro_sat_call_seconds" in hist
        # the per-phase exporter snapshot shares the payload
        assert "repro_phase_seconds_total" in families
        # each value once: counts only as the run's final counters
        assert "repro_counter_total" not in families
        counters = {labels["counter"]: value for _, labels, value
                    in families["repro_run_counter_total"]["samples"]}
        assert counters["sat_validations"] > 0
        gauges = {n for n, f in families.items() if f["type"] == "gauge"}
        budget = {"repro_budget_elapsed_seconds",
                  "repro_sat_conflicts_spent"}
        assert budget <= gauges
        assert all(n.startswith("repro_run_") for n in gauges - budget)

    def test_watch_renders_a_recorded_run(self, eco_files, tmp_path,
                                          capsys):
        """What ``repro watch`` drew, drawn by ``repro runs show``."""
        store = str(tmp_path / "runs")
        assert self.run_eco(eco_files, "--store", store) == 0
        capsys.readouterr()
        assert main(["runs", "--store", store, "show", "last"]) == 0
        out = capsys.readouterr().out
        assert "outcome  : ok" in out
        assert "resolved : " in out
        assert "journal.append" in out                # phase tree
        assert "repro_sat_call_seconds" in out        # percentile table
        assert "repro_journal_append_seconds" in out

    def test_watch_unknown_ref_is_cli_error(self, tmp_path, capsys):
        """``repro runs show`` on an empty store, as ``watch`` was."""
        store = str(tmp_path / "empty")
        assert main(["runs", "--store", store, "show", "nope"]) == 3
        assert "is empty" in capsys.readouterr().err


class TestTables:
    def test_single_case_table1(self, capsys):
        assert main(["tables", "--table", "1", "--cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" not in out


class TestErrors:
    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model m\n.gate nonsense\n")
        assert main(["stats", str(bad)]) == 3
        assert "error" in capsys.readouterr().err


class TestDiagnose:
    def test_diagnose_output(self, eco_files, capsys):
        impl_path, spec_path = eco_files
        assert main(["diagnose", "--impl", impl_path,
                     "--spec", spec_path, "--suggest"]) == 0
        out = capsys.readouterr().out
        assert "failing outputs" in out
        assert "suggested engine settings" in out


class TestPatchOut:
    def test_patch_netlist_written(self, eco_files, tmp_path, capsys):
        impl_path, spec_path = eco_files
        patch_path = str(tmp_path / "patch.blif")
        code = main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--patch-out", patch_path, "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rectification point" in out
        patch = read_blif(patch_path)
        assert patch.outputs  # at least one rectification point


class TestRunStore:
    def run_eco(self, eco_files, store, extra=()):
        impl_path, spec_path = eco_files
        return main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8", "--store", store, *extra])

    def test_eco_publishes_by_default(self, eco_files, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert self.run_eco(eco_files, store) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out
        assert sorted(os.listdir(store)) == ["journals", "records.jsonl"]
        assert not os.path.exists(os.path.join(store, "index.json"))

    def test_no_store_skips_publishing(self, eco_files, tmp_path, capsys,
                                       monkeypatch):
        store = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUN_STORE", str(store))
        impl_path, spec_path = eco_files
        assert main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8", "--no-store"]) == 0
        assert "recorded run" not in capsys.readouterr().out
        assert not store.exists()

    def test_runs_list_show_diff(self, eco_files, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert self.run_eco(eco_files, store) == 0
        assert self.run_eco(eco_files, store) == 0
        capsys.readouterr()

        assert main(["runs", "--store", store, "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3  # header + two runs
        assert "eco" in out and "ok" in out

        assert main(["runs", "--store", store, "show", "last"]) == 0
        out = capsys.readouterr().out
        assert "outcome  : ok" in out
        assert "eco.rectify" in out       # phase tree present

        assert main(["runs", "--store", store, "diff",
                     "first", "last"]) == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out
        assert "counters.sat_conflicts_spent" in out

    def test_runs_show_json_round_trips(self, eco_files, tmp_path,
                                        capsys):
        import json
        store = str(tmp_path / "runs")
        assert self.run_eco(eco_files, store) == 0
        capsys.readouterr()
        assert main(["runs", "--store", store, "show", "last",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "eco"
        assert payload["tags"]["engine"] == "syseco"
        assert "samples" not in payload   # spans are the one timeline

    def test_regress_passes_on_identical_rerun(self, eco_files, tmp_path,
                                               capsys):
        store = str(tmp_path / "runs")
        assert self.run_eco(eco_files, store) == 0
        assert self.run_eco(eco_files, store) == 0
        capsys.readouterr()
        # each run's p95 is one ~40 ms output: a slow moment on a shared
        # machine can cross the default 50 ms floor, so the p95 floor is
        # explicit (CI's regression job uses the same); the default gate
        # is tested in tests/obs/test_store.py
        code = main(["runs", "--store", store, "regress",
                     "--baseline", "first", "--p95-floor", "0.5"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_regress_fails_on_injected_slowdown(self, eco_files,
                                                tmp_path, capsys):
        """The fault-injection harness makes the current run slower by
        an armed clock jump; regress must exit nonzero."""
        from repro.eco import EcoConfig, SysEco
        from repro.obs import RunStore, Trace, record_from_result
        from repro.runtime import FaultInjector, SITE_CLOCK

        store_dir = str(tmp_path / "runs")
        assert self.run_eco(eco_files, store_dir) == 0

        impl = read_blif(eco_files[0])
        spec = read_blif(eco_files[1])
        config = EcoConfig(num_samples=8)
        injector = FaultInjector().arm(SITE_CLOCK, 2, payload=30.0)
        trace = Trace(name=impl.name)
        result = SysEco(config).rectify(impl, spec, injector=injector,
                                        trace=trace)
        RunStore(store_dir).publish(record_from_result(
            result, trace=trace, kind="eco", config=config,
            tags={"engine": "syseco"}))
        capsys.readouterr()

        code = main(["runs", "--store", store_dir, "regress",
                     "--baseline", "first"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION [wall_seconds]" in out

    def test_store_from_older_version_still_works(self, tmp_path,
                                                  capsys):
        """A store an older version wrote — with an ``index.json`` and
        records carrying a ``lint`` block and an ``obs.sample``
        timeline — lists, shows, diffs and regresses; ``index.json`` is
        left as it was and ``lint`` and ``samples`` round-trip through
        ``extra``."""
        import json
        from repro.obs import RunStore

        store = tmp_path / "runs"
        store.mkdir()
        lint = {"lint_screens": 6, "lint_rejects": 1,
                "lint_reject_rate": 1 / 6}
        samples = [{"seq": 1, "ts": 0.0},
                   {"seq": 2, "ts": 0.05, "bdd_nodes": 120,
                    "sat_conflicts_spent": 80}]
        records = [{
            "run_id": f"20261016-12000{i}-aaaa000{i}", "kind": "eco",
            "name": "example1", "started_at": 1760600000.0 + i,
            "wall_seconds": 0.05, "outcome": "ok", "degraded": False,
            "degrade_reason": None, "strict": False,
            "git_sha": "0123456789ab", "config": {"num_samples": 8},
            "counters": {"sat_validations": 4, "lint_screens": 6,
                         "lint_rejects": 1, "sat_conflicts_spent": 80},
            "phases": [{"phase": "eco.rectify", "calls": 1,
                        "seconds": 0.05, "sat_conflicts": 80,
                        "bdd_nodes": 0}],
            "samples": samples, "events": {"obs.sample": 2},
            "lint": lint,
            "resolution": {"rewire": 2}, "histograms": {},
            "tags": {"engine": "syseco"}, "version": 1,
        } for i in (1, 2)]
        with open(store / "records.jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        index = json.dumps({"version": 1, "runs": [
            {k: rec[k] for k in ("run_id", "kind", "name", "started_at",
                                 "wall_seconds", "outcome", "degraded",
                                 "git_sha")} for rec in records]})
        (store / "index.json").write_text(index, encoding="utf-8")
        os.utime(store / "index.json", ns=(10**18, 10**18))
        root = str(store)

        assert main(["runs", "--store", root, "list"]) == 0
        out = capsys.readouterr().out
        assert all(rec["run_id"] in out for rec in records)
        assert main(["runs", "--store", root, "show", "first"]) == 0
        out = capsys.readouterr().out
        assert "lint     : 6 screens, 1 rejects (17%)" in out
        assert "samples  :" not in out
        assert main(["runs", "--store", root, "diff", "first",
                     "last"]) == 0
        assert "counters.sat_conflicts_spent" in capsys.readouterr().out
        assert main(["runs", "--store", root, "regress",
                     "--baseline", "first"]) == 0
        assert "PASS" in capsys.readouterr().out

        assert (store / "index.json").read_text(encoding="utf-8") == index
        assert os.stat(store / "index.json").st_mtime_ns == 10**18
        loaded = RunStore(root).resolve("first")
        assert loaded.extra == {"lint": lint, "samples": samples}
        assert loaded.to_json() == records[0]

    def test_unknown_ref_is_cli_error(self, eco_files, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert self.run_eco(eco_files, store) == 0
        capsys.readouterr()
        assert main(["runs", "--store", store, "show", "nope"]) == 3
        assert "no run matches" in capsys.readouterr().err


class TestResume:
    """SIGINT handling, interrupted records, and ``--resume``."""

    def run_eco(self, eco_files, store, *extra):
        impl_path, spec_path = eco_files
        return main(["eco", "--impl", impl_path, "--spec", spec_path,
                     "--samples", "8", "--store", store, *extra])

    def interrupt_mid_search(self, monkeypatch):
        """Make the search die after the journal header is written —
        what ctrl-C during a long run looks like to the CLI."""
        from repro.eco.engine import SysEco

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(SysEco, "_repair_outputs", boom)

    def test_sigint_persists_interrupted_record(self, eco_files, tmp_path,
                                                capsys, monkeypatch):
        from repro.obs import RunStore

        store = str(tmp_path / "runs")
        self.interrupt_mid_search(monkeypatch)
        assert self.run_eco(eco_files, store) == 130
        err = capsys.readouterr().err
        assert "interrupted (SIGINT)" in err
        assert "resume with: repro eco --resume" in err
        (record,) = RunStore(store).load_all()
        assert record.outcome == "interrupted"
        assert record.tags.get("resumable") is True

    def test_recover_lists_the_interrupted_run(self, eco_files, tmp_path,
                                               capsys, monkeypatch):
        from repro.obs import RunStore

        store = str(tmp_path / "runs")
        self.interrupt_mid_search(monkeypatch)
        assert self.run_eco(eco_files, store) == 130
        (record,) = RunStore(store).load_all()
        capsys.readouterr()
        assert main(["runs", "--store", store, "recover"]) == 0
        out = capsys.readouterr().out
        assert record.run_id in out
        assert f"repro eco --resume {record.run_id}" in out

    def test_resume_completes_the_interrupted_run(self, eco_files,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        from repro.obs import RunStore

        store = str(tmp_path / "runs")
        with monkeypatch.context() as patched:
            self.interrupt_mid_search(patched)
            assert self.run_eco(eco_files, store) == 130
        (interrupted,) = RunStore(store).load_all()
        capsys.readouterr()

        assert self.run_eco(eco_files, store,
                            "--resume", interrupted.run_id) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        records = RunStore(store).load_all()
        final = records[-1]
        assert final.outcome == "ok"
        assert final.tags.get("resumed") is True
        assert final.tags.get("journal") == interrupted.run_id
        assert final.run_id != interrupted.run_id
        # the journal is finished: nothing is left to recover
        assert main(["runs", "--store", store, "recover"]) == 0
        assert "resumable: none" in capsys.readouterr().out

    def test_resume_unknown_run_is_an_error(self, eco_files, tmp_path,
                                            capsys):
        store = str(tmp_path / "runs")
        code = self.run_eco(eco_files, store, "--resume", "1999-nope")
        assert code != 0
        assert "no resumable journal" in capsys.readouterr().err

    def test_resume_rejected_for_baseline_engines(self, eco_files,
                                                  tmp_path, capsys):
        store = str(tmp_path / "runs")
        code = self.run_eco(eco_files, store, "--resume", "x",
                            "--engine", "conemap")
        assert code != 0
        assert "only supported by the syseco engine" \
            in capsys.readouterr().err
