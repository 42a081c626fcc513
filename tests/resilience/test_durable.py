"""The shared durable-file primitives: atomic replace and its fsync
policy, the held-descriptor record log, torn-tail detection on read,
and whole-log rewrite."""

from __future__ import annotations

import os
import stat
import sys
import threading

import pytest

from repro.resilience.durable import RecordLog, atomic_replace, read_records


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


@pytest.mark.parametrize(
    "durable,sync_dir,expected",
    [(False, True, []), (True, True, [False, True]), (True, False, [False])],
)
def test_atomic_replace_fsync_policy(
    tmp_path, fsyncs, durable, sync_dir, expected
):
    target = tmp_path / "sub" / "file.json"
    atomic_replace(target, b"old", durable=durable, sync_dir=sync_dir)
    fsyncs.clear()
    atomic_replace(target, b"new", durable=durable, sync_dir=sync_dir)
    assert target.read_bytes() == b"new"
    assert [is_dir for is_dir, _ino in fsyncs] == expected
    assert sorted(p.name for p in target.parent.iterdir()) == ["file.json"]


def test_atomic_replace_failure_leaves_old_file_and_no_temp(
    tmp_path, monkeypatch
):
    target = tmp_path / "file.json"
    target.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        atomic_replace(target, b"new", durable=True)
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["file.json"]


def test_keep_open_log_holds_one_descriptor(tmp_path, monkeypatch):
    opened: list[str] = []
    real_open = os.open

    def counting_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        opened.append(str(path))
        return fd

    monkeypatch.setattr(os, "open", counting_open)
    log = RecordLog(tmp_path / "seg.jsonl", keep_open=True)
    for index in range(5):
        log.append({"n": index})
    log.close()
    assert len(opened) == 1
    assert [r["n"] for r in log.read()] == [0, 1, 2, 3, 4]


def test_keep_open_log_realigns_after_torn_tail(tmp_path):
    path = tmp_path / "seg.jsonl"
    path.write_bytes(b'{"n": 0}\n{"n": 1, "tor')
    log = RecordLog(path, keep_open=True)
    log.append({"n": 2})
    log.append({"n": 3})
    log.close()
    assert [r["n"] for r in log.read()] == [0, 2, 3]


@pytest.mark.parametrize(
    "raw,records,torn",
    [
        (b"", [], False),
        (b'{"a": 1}\n{"a": 2}\n', [1, 2], False),
        (b'{"a": 1}\n{"a": 2', [1], True),
        (b'{"a": 1}\n{"a": 2\n', [1], True),
        (b'{"a": 1}\nnot json\n{"a": 3}\n', [1, 3], False),
        (b'{"a": 1}\n\n[1, 2]\n\n', [1], False),
    ],
)
def test_read_records_torn_detection(tmp_path, raw, records, torn):
    path = tmp_path / "log.jsonl"
    path.write_bytes(raw)
    got, got_torn = read_records(path)
    assert [r["a"] for r in got] == records
    assert got_torn is torn


def test_read_records_missing_file(tmp_path):
    assert read_records(tmp_path / "absent.jsonl") == ([], False)


def test_rewrite_replaces_whole_log(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl", fsync=True)
    for index in range(4):
        log.append({"n": index})
    log.rewrite([{"n": 9}])
    log.append({"n": 10})
    assert [r["n"] for r in log.read()] == [9, 10]


def test_concurrent_appends_from_threads_are_all_kept(tmp_path):
    """One log object shared by more threads than cores (the daemon's
    journal and intent log are): every record lands on its own line."""
    log = RecordLog(tmp_path / "log.jsonl")
    threads_n, per_thread = 8, 50

    def writer(index):
        for n in range(per_thread):
            log.append({"t": index, "n": n})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    records, torn = read_records(log.path)
    assert not torn
    assert sorted((r["t"], r["n"]) for r in records) == [
        (t, n) for t in range(threads_n) for n in range(per_thread)
    ]
