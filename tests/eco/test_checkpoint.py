"""Checkpoint-journal unit tests: WAL round trips, resume guards."""

import json
import random

import pytest

from repro.errors import JournalError
from repro.netlist.circuit import Pin
from repro.eco.checkpoint import (
    RunJournal,
    config_digest,
    decode_rng_state,
    deserialize_ops,
    encode_rng_state,
    journal_path,
    list_resumable,
    serialize_ops,
)
from repro.eco.config import EcoConfig
from repro.eco.patch import RewireOp


def sample_ops():
    return [
        RewireOp(Pin.gate("g7", 1), "n42", from_spec=False),
        RewireOp(Pin.output("o3"), "t_new", from_spec=True),
    ]


class TestSerialization:
    def test_ops_round_trip(self):
        ops = sample_ops()
        back = deserialize_ops(serialize_ops(ops))
        assert back == ops

    def test_ops_survive_json(self):
        payload = json.loads(json.dumps(serialize_ops(sample_ops())))
        assert deserialize_ops(payload) == sample_ops()

    def test_rng_state_round_trip_restores_the_stream(self):
        rng = random.Random(17)
        rng.random()
        encoded = json.loads(json.dumps(encode_rng_state(rng.getstate())))
        expected = [rng.random() for _ in range(5)]
        fresh = random.Random()
        fresh.setstate(decode_rng_state(encoded))
        assert [fresh.random() for _ in range(5)] == expected


class TestConfigDigest:
    def test_digest_is_pinned(self):
        # journals store this digest and resume only under an equal
        # one: a change that moves it must say in CHANGES.md that
        # older journals stop resuming
        assert config_digest(EcoConfig(num_samples=8)) == "c7942c0209b29e60"

    def test_search_parameters_are_included(self):
        assert config_digest(EcoConfig(num_samples=8)) \
            != config_digest(EcoConfig(num_samples=16))


class TestRunJournal:
    def test_wal_round_trip(self, tmp_path):
        store = str(tmp_path)
        config = EcoConfig(num_samples=8)
        journal = RunJournal("r1", store_root=store)
        assert journal.resuming is False
        journal.start("adder", config, ["o1", "o2"])
        journal.record_commit("o1", "rewire", sample_ops(), ["o1"],
                              rng_state=random.Random(3).getstate(),
                              sat_spent=40)
        journal.finish("ok")

        back = RunJournal("r1", store_root=store, resume=True)
        assert back.resuming is True
        assert back.state.header["impl"] == "adder"
        assert back.state.header["config_digest"] == config_digest(config)
        assert back.state.failing == ["o1", "o2"]
        assert back.state.finished == "ok"
        (commit,) = back.commits
        assert commit.seq == 1
        assert commit.port == "o1"
        assert commit.how == "rewire"
        assert commit.ops == sample_ops()
        assert commit.fixed == ["o1"]
        assert commit.sat_spent == 40
        assert decode_rng_state(commit.rng_state) \
            == random.Random(3).getstate()

    def test_fresh_journal_refuses_existing_file(self, tmp_path):
        store = str(tmp_path)
        RunJournal("r1", store_root=store).start(
            "adder", EcoConfig(), ["o"])
        with pytest.raises(JournalError, match="already exists"):
            RunJournal("r1", store_root=store)

    def test_commit_seq_continues_after_resume(self, tmp_path):
        store = str(tmp_path)
        journal = RunJournal("r1", store_root=store)
        journal.start("adder", EcoConfig(), ["o1", "o2"])
        journal.record_commit("o1", "rewire", [], ["o1"])
        resumed = RunJournal("r1", store_root=store, resume=True)
        resumed.record_commit("o2", "fallback", [], ["o2"])
        back = RunJournal("r1", store_root=store, resume=True)
        assert [c.seq for c in back.commits] == [1, 2]

    def test_torn_tail_salvaged_on_resume(self, tmp_path):
        store = str(tmp_path)
        journal = RunJournal("r1", store_root=store)
        journal.start("adder", EcoConfig(), ["o1"])
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "commit", "seq": 1, "po')  # torn append
        back = RunJournal("r1", store_root=store, resume=True)
        assert back.state.salvaged is not None
        assert back.resuming is True
        assert back.commits == []
        # the salvage rewrote the file: the next open is clean
        again = RunJournal("r1", store_root=store, resume=True)
        assert again.state.salvaged is None

    def test_store_root_resolves_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "env"))
        journal = RunJournal("r1")
        assert journal.path == journal_path(str(tmp_path / "env"), "r1")


class TestResumeGuards:
    def start_journal(self, tmp_path, config=None, failing=("o1",)):
        journal = RunJournal("r1", store_root=str(tmp_path))
        journal.start("adder", config or EcoConfig(), list(failing))
        return RunJournal("r1", store_root=str(tmp_path), resume=True)

    def test_matching_run_is_resumable(self, tmp_path):
        back = self.start_journal(tmp_path)
        back.check_resumable("adder", EcoConfig(), ["o1"])

    def test_design_mismatch_refused(self, tmp_path):
        back = self.start_journal(tmp_path)
        with pytest.raises(JournalError, match="design"):
            back.check_resumable("mult", EcoConfig(), ["o1"])

    def test_config_mismatch_refused(self, tmp_path):
        back = self.start_journal(tmp_path, config=EcoConfig(num_samples=8))
        with pytest.raises(JournalError, match="configuration"):
            back.check_resumable("adder", EcoConfig(num_samples=32), ["o1"])

    def test_failing_set_mismatch_refused(self, tmp_path):
        back = self.start_journal(tmp_path)
        with pytest.raises(JournalError, match="netlists changed"):
            back.check_resumable("adder", EcoConfig(), ["o1", "o9"])

    def test_finished_run_refused(self, tmp_path):
        back = self.start_journal(tmp_path)
        back.finish("ok")
        back = RunJournal("r1", store_root=str(tmp_path), resume=True)
        with pytest.raises(JournalError, match="already finished"):
            back.check_resumable("adder", EcoConfig(), ["o1"])


class TestListResumable:
    def test_lists_unfinished_runs_only(self, tmp_path):
        store = str(tmp_path)
        done = RunJournal("r-done", store_root=store)
        done.start("adder", EcoConfig(), ["o1"])
        done.finish("ok")
        live = RunJournal("r-live", store_root=store)
        live.start("mult", EcoConfig(), ["o1", "o2"])
        live.record_commit("o1", "rewire", [], ["o1"])

        entries = list_resumable(store)
        assert [e["run_id"] for e in entries] == ["r-live"]
        (entry,) = entries
        assert entry["impl"] == "mult"
        assert entry["commits"] == 1
        assert entry["salvaged"] is False
        assert entry["path"] == journal_path(store, "r-live")

    def test_empty_store_lists_nothing(self, tmp_path):
        assert list_resumable(str(tmp_path)) == []
