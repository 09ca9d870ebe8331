"""Atomic file primitive tests: durability and crash hygiene."""

import os

import pytest

from repro.obs import atomicio
from repro.obs.atomicio import (
    append_jsonl_line,
    atomic_write_text,
    read_jsonl,
    salvage_jsonl,
)


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert open(path).read() == "two\n"
        assert os.listdir(tmp_path) == ["f.txt"]

    def test_failure_leaves_target_intact(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "original\n")

        with pytest.raises(TypeError):
            atomic_write_text(path, object())  # not writable text
        assert open(path).read() == "original\n"
        # the aborted temp file was cleaned up
        assert os.listdir(tmp_path) == ["f.txt"]


class TestAppendJsonl:
    def test_appends_in_order(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        append_jsonl_line(path, {"n": 1})
        append_jsonl_line(path, {"n": 2})
        records, skipped = read_jsonl(path)
        assert [r["n"] for r in records] == [1, 2]
        assert skipped == 0

    def test_survives_preexisting_garbage(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        append_jsonl_line(path, {"n": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{torn record")  # a crashed writer's last gasp
        append_jsonl_line(path, {"n": 2})
        records, skipped = read_jsonl(path)
        assert [r["n"] for r in records] == [1, 2]
        assert skipped == 1


class TestReadJsonl:
    def test_missing_file_is_empty(self, tmp_path):
        records, skipped = read_jsonl(str(tmp_path / "absent.jsonl"))
        assert records == []
        assert skipped == 0

    def test_non_dict_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"ok": 1}\n[1, 2]\n"str"\n{"ok": 2}\n')
        records, skipped = read_jsonl(str(path))
        assert [r["ok"] for r in records] == [1, 2]
        assert skipped == 2


class TestSalvage:
    def torn_file(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        append_jsonl_line(path, {"n": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"n": 2, "to')  # a writer killed mid-append
        return path

    def test_truncates_the_torn_tail_in_place(self, tmp_path):
        path = self.torn_file(tmp_path)
        inode = os.stat(path).st_ino
        assert salvage_jsonl(path) == '{"n": 2, "to'
        assert os.stat(path).st_ino == inode
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == '{"n": 1}\n'
        assert salvage_jsonl(path) is None

    def test_leaves_a_file_that_grew_since_its_read(self, tmp_path,
                                                    monkeypatch):
        path = self.torn_file(tmp_path)

        def open_after_a_live_append(file, mode="r", *args, **kwargs):
            if mode == "r+b":  # the truncating open, after the read
                append_jsonl_line(path, {"n": 3})
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(atomicio, "open", open_after_a_live_append,
                            raising=False)
        assert salvage_jsonl(path) is None
        records, skipped = read_jsonl(path)
        assert [r["n"] for r in records] == [1, 3]
        assert skipped == 1
