"""Durable file primitives shared by every on-disk artifact.

* :func:`fsync_dir` — make a create or rename inside a directory
  survive power loss.
* :func:`atomic_replace` — swap a whole file via a same-directory temp
  file and ``os.replace``, so readers see the old bytes or the new ones,
  never a truncated mix. ``durable`` adds the fsyncs (file before the
  rename, directory after it); accumulators that may lose their last
  update on power loss (``telemetry.json``, ``heat.json``, the daemon
  status file) skip them.
* :class:`RecordLog` — an append-only JSON-lines file of dict records:
  the operation journal, the intent log, the slow-request log and the
  flight-recorder segments. Each log picks its own fsync policy.

A record is one ``\\n``-terminated line written with one ``write``
call. A crash mid-append can leave a torn fragment at the tail;
readers skip it, and the next append starts a fresh line first so the
new record is not glued onto the fragment.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def fsync_dir(directory: str | os.PathLike) -> None:
    """Best-effort fsync of a directory's entries."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_replace(
    path: str | os.PathLike,
    data: bytes,
    durable: bool,
    *,
    sync_dir: bool = True,
) -> None:
    """Replace ``path`` with ``data`` atomically.

    With ``durable`` the temp file is fsynced before the rename and the
    directory after it; ``sync_dir=False`` leaves the directory fsync
    to a caller that batches many replaces into one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable and sync_dir:
        fsync_dir(path.parent)


def encode_record(record: dict) -> bytes:
    """One record as its ``\\n``-terminated JSON line."""
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode()


def read_records(path: str | os.PathLike) -> tuple[list[dict], bool]:
    """``(records, torn)`` for one JSON-lines file.

    Records are the well-formed dict lines, oldest first; malformed
    lines are skipped. ``torn`` is True when the last line is
    incomplete (no trailing newline) or does not parse — expected after
    a crash, never fatal. A missing file reads as empty.
    """
    try:
        # One decode for the whole file: parsing str lines is much
        # cheaper than handing each bytes line to json.loads.
        text = Path(path).read_bytes().decode("utf-8", "replace")
    except OSError:
        return [], False
    lines = text.split("\n")
    torn = bool(text) and not text.endswith("\n")
    final = len(lines) - 1 if torn else len(lines) - 2
    records: list[dict] = []
    for index, line in enumerate(lines):
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            torn = torn or index == final
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, torn


class RecordLog:
    """An append-only JSON-lines log with its own fsync policy.

    ``fsync``: each append reaches the disk before returning, and the
    append that creates the file also fsyncs the directory. Otherwise
    appends are plain ``write`` calls (flushed to the OS, not synced).

    ``keep_open``: hold one descriptor across appends instead of
    opening and closing the file per record; :meth:`close` releases it.
    Such a log is not thread-safe (the caller serializes appends);
    without ``keep_open`` concurrent appends from threads are safe.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = False,
        keep_open: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.keep_open = keep_open
        self._fd: int | None = None

    def append(self, record: dict | bytes) -> int:
        """Append one record (a dict, or its :func:`encode_record`
        line); returns the bytes written."""
        data = record if isinstance(record, bytes) else encode_record(record)
        fd, created = self._fd, False
        if fd is None:
            fd, created, torn = self._open()
            if torn:
                data = b"\n" + data
            if self.keep_open:
                self._fd = fd
        try:
            os.write(fd, data)
            if self.fsync:
                os.fsync(fd)
                if created:
                    fsync_dir(self.path.parent)
        finally:
            if not self.keep_open:
                os.close(fd)
        return len(data)

    def _open(self) -> tuple[int, bool, bool]:
        """Open for appending -> ``(fd, created, torn)``: ``torn`` when
        the file ends in a fragment (one ``fstat`` and, for a non-empty
        file, a 1-byte ``pread``)."""
        flags = os.O_RDWR | os.O_APPEND
        try:
            fd = os.open(self.path, flags)
            created = False
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags | os.O_CREAT, 0o666)
            created = True
        size = os.fstat(fd).st_size
        torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
        return fd, created, torn

    def close(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)

    def read(self) -> list[dict]:
        """All well-formed records, oldest first (torn lines skipped)."""
        return read_records(self.path)[0]

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the whole log with ``records`` (durable
        when the log fsyncs its appends)."""
        self.close()
        atomic_replace(
            self.path,
            b"".join(encode_record(record) for record in records),
            durable=self.fsync,
        )
