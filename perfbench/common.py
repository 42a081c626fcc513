"""Shared helpers: statistics, content digests, byte counting and
child processes. Nothing here imports the program."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The benchmark's definition: workloads, metric names, units and bounds.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Unit of every end-to-end and per-layer metric, by name.
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of n."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n: int, ladder=TAIL_LADDER) -> float:
    """The highest ladder percentile with at least ``TAIL_BEYOND``
    samples beyond it; the median when the sample supports no tail."""
    for pct in ladder:
        if beyond(n, pct) >= TAIL_BEYOND:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, wanted: float) -> tuple[float, float]:
    """``(value, pct)`` at the workload's fixed tail percentile, or at
    the highest one the sample supports when it is too small; at the
    median that is the same figure as the p50."""
    values = list(values)
    pct = wanted if beyond(len(values), wanted) >= TAIL_BEYOND else min(
        wanted, tail_percentile(len(values))
    )
    if pct == 50.0:
        return median(values), pct
    return percentile(values, pct), pct


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Content digests
# ----------------------------------------------------------------------
def digest_rows(rows) -> str:
    """Order-independent digest of a table's rows, every value as text
    (so a CSV file and decoded JSON rows of one version agree)."""
    lines = sorted("\x1f".join(str(v) for v in row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_csv(path) -> str:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header
        return digest_rows(reader)


def write_rows_csv(path, columns, rows) -> int:
    """Write a CSV with a header row; returns its size in bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)
    return os.path.getsize(path)


def csv_bytes(columns, rows) -> int:
    """Bytes the rows take as a CSV file (header included)."""
    def line(values):
        return len(",".join(str(v) for v in values)) + 2  # csv writes \r\n

    return line(columns) + sum(line(row) for row in rows)


# ----------------------------------------------------------------------
# Bytes on disk
# ----------------------------------------------------------------------
def tree_bytes(path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def version_store_bytes(root) -> int:
    """Bytes the repository spends on version storage: every state
    generation (``state.pkl`` and its backups) plus the page files of
    the paged layout. Logs that grow with the request count (journal,
    flight recorder, telemetry) are left out, so the ratio does not
    depend on how many requests a run managed to send."""
    base = Path(root) / ".orpheus"
    total = 0
    if base.is_dir():
        for entry in base.iterdir():
            if entry.is_file() and entry.name.startswith("state."):
                total += entry.stat().st_size
    return total + tree_bytes(base / "pages")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(checkout: Path, run_dir: Path) -> dict:
    """The environment every program process gets: sources on the
    path, no ORPHEUS_* overrides from the caller, temp files kept
    inside the run directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORPHEUS_")}
    env["PYTHONPATH"] = str(checkout / "src")
    env["TMPDIR"] = str(run_dir)
    env.pop("PERFBENCH_SPANS", None)
    env.pop("PERFBENCH_SPAWN_NS", None)
    return env


class Child:
    """A started child process whose peak RSS is read when it is reaped."""

    def __init__(self, argv, env, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL) -> None:
        self.argv = list(argv)
        env = dict(env)
        self.spawn_ns = time.monotonic_ns()
        env["PERFBENCH_SPAWN_NS"] = str(self.spawn_ns)
        self.proc = subprocess.Popen(
            self.argv, env=env, stdout=stdout, stderr=stderr
        )
        self.maxrss_kb = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def reap(self, timeout: float = 60.0) -> int:
        """Wait for exit (killing it after ``timeout`` s); returns the
        exit code and records the peak RSS from the kernel's rusage."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.maxrss_kb = usage.ru_maxrss
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode


def run_child(argv, env, timeout=120.0):
    """Run to completion: ``(code, wall_s, stdout, stderr, child)``.
    Wall time runs from just before spawn until the child is reaped.
    Output must fit the pipe buffer (the CLI prints one line)."""
    start = time.perf_counter()
    child = Child(argv, env, stdout=subprocess.PIPE,
                  stderr=subprocess.PIPE)
    code = child.reap(timeout)
    wall = time.perf_counter() - start
    out = child.proc.stdout.read().decode()
    err = child.proc.stderr.read().decode()
    child.proc.stdout.close()
    child.proc.stderr.close()
    return code, wall, out, err, child


def python() -> str:
    return sys.executable or "python3"
