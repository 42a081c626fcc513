"""Durability of the repository's JSON-lines logs (operation journal,
intent log, slow-request log): a record appended after a torn tail is
kept, the directory is fsynced when a durable log is created or
compacted, and each log keeps its fsync policy."""

from __future__ import annotations

import os
import stat

import pytest

from repro.observe.journal import Journal
from repro.resilience.intents import IntentLog
from repro.service.tracing import SlowLog


def _journal(root):
    log = Journal(root)
    return (
        log.path,
        lambda key: log.append({"trace_id": key, "command": "commit"}),
        lambda: [r["trace_id"] for r in log.read()],
    )


def _intents(root):
    log = IntentLog(root)
    return (
        log.path,
        lambda key: log.begin(key, "commit"),
        lambda: [r["trace_id"] for r in log.pending()],
    )


def _slow(root):
    # A fresh SlowLog per append: the torn tail is left by one daemon
    # and the next record comes from its successor.
    path = SlowLog(root).path
    return (
        path,
        lambda key: SlowLog(root, threshold_ms=0).append({"trace_id": key}),
        lambda: [r["trace_id"] for r in SlowLog(root).read()],
    )


@pytest.mark.parametrize(
    "make", [_journal, _intents, _slow], ids=["journal", "intents", "slow"]
)
def test_record_after_torn_tail_is_kept(tmp_path, make):
    """A crash mid-append leaves a fragment with no newline; the next
    record must start its own line instead of being glued onto it."""
    path, append, keys = make(str(tmp_path))
    append("t1")
    with open(path, "ab") as handle:
        handle.write(b'{"phase": "done", "trace_id": "t1", "sta')
    append("t2")
    assert keys() == ["t1", "t2"]
    append("t3")
    assert keys() == ["t1", "t2", "t3"]


@pytest.fixture
def fsyncs(monkeypatch):
    """``(is_dir, inode)`` for every ``os.fsync`` call."""
    calls: list[tuple[bool, int]] = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        info = os.fstat(fd)
        calls.append((stat.S_ISDIR(info.st_mode), info.st_ino))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return calls


def test_durable_log_creation_fsyncs_directory(tmp_path, fsyncs):
    intents = IntentLog(str(tmp_path))
    intents.begin("t1", "commit")
    journal_dir = (True, os.stat(intents.path.parent).st_ino)
    assert journal_dir in fsyncs
    fsyncs.clear()
    intents.begin("t2", "commit")  # appending to an existing file
    assert journal_dir not in fsyncs
    Journal(str(tmp_path)).append({"trace_id": "t1", "command": "init"})
    assert journal_dir in fsyncs


def test_intent_compaction_fsyncs_directory(tmp_path, fsyncs):
    intents = IntentLog(str(tmp_path))
    for index in range(128):
        intents.begin(f"t{index}", "commit")
        intents.done(f"t{index}")
    intents.begin("pending", "commit")
    fsyncs.clear()
    intents.done("last")  # record 258: compacts down to the pending one
    assert [r["trace_id"] for r in intents.read()] == ["pending"]
    assert (True, os.stat(intents.path.parent).st_ino) in fsyncs


def test_per_log_fsync_policy(tmp_path, fsyncs):
    """Durable logs fsync once per append; the observability logs
    never fsync."""
    root = str(tmp_path)
    journal, intents = Journal(root), IntentLog(root)
    slow = SlowLog(root, threshold_ms=0)
    journal.append({"trace_id": "warm"})
    intents.begin("warm", "commit")
    slow.append({"trace_id": "warm"})
    fsyncs.clear()
    journal.append({"trace_id": "t1"})
    assert len(fsyncs) == 1
    intents.begin("t1", "commit")
    assert len(fsyncs) == 2
    slow.append({"trace_id": "t1"})
    assert len(fsyncs) == 2
