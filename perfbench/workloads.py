"""The three workloads. Each builds its repository from the seed, drives
the program from outside (CLI subprocesses, or a daemon subprocess over
its socket), checks every output, and returns its metrics.

Sizes, rates and limits are frozen in ``perfbench/map.json`` (each
workload's ``spec``), beside the reasons they were chosen.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import time
from pathlib import Path

import gen
import layers
import loadgen
from common import (
    BENCHMARK,
    Child,
    child_env,
    csv_bytes,
    digest_csv,
    digest_rows,
    median,
    python,
    run_child,
    tail,
    version_store_bytes,
    write_rows_csv,
)

HERE = Path(__file__).resolve().parent

#: The per-layer metrics a traced run reports, in report order.
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: A run whose generator lateness tail exceeds this share of the
#: latency limit measured the generator, not the daemon: it is invalid.
LAG_LIMIT_FRAC = 0.25

#: Frozen sizes, rates and limits per workload; ``map.json`` states
#: what each one means and why it was chosen.
SPECS = {
    name: workload["spec"]
    for name, workload in json.loads((HERE / "map.json").read_text())["workloads"].items()
}


class BenchRun:
    """State shared by one invocation of one workload."""

    def __init__(self, checkout: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.checkout = checkout
        self.name = workload
        self.spec = SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = checkout / ".perfbench_run" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env(checkout, self.dir)
        self.rng = random.Random(f"{workload}:{seed}")
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.histories = {
            h.name: h
            for h in gen.build_histories(
                seed, self.spec["datasets"], self.spec["versions"], self.spec["rows"],
                self.spec["model"],
            )
        }
        self.children: list[Child] = []

    # -- bookkeeping ------------------------------------------------------
    def fail(self, what: str) -> None:
        self.failures.append(what)

    def data_csv_bytes(self) -> int:
        return sum(
            csv_bytes(gen.COLUMNS, rows)
            for h in self.histories.values()
            for rows in h.rows.values()
        )

    def cli(self, root: Path, *args: str) -> list[str]:
        return [python(), "-m", "repro.cli", "--root", str(root), *args]

    def build(self, root: Path) -> None:
        spec = self.spec
        code, _wall, _out, err, _child = run_child(
            [python(), str(HERE / "build_repo.py"), str(root), str(self.seed),
             str(spec["datasets"]), str(spec["versions"]), str(spec["rows"]), spec["model"]],
            self.env, timeout=120,
        )
        if code != 0:
            raise RuntimeError(f"repository build failed: {err.strip()[-400:]}")

    def cleanup(self) -> None:
        for child in self.children:
            if child.proc.returncode is None:
                child.proc.kill()
                child.reap(10)
        shutil.rmtree(self.dir, ignore_errors=True)
        parent = self.dir.parent
        try:
            parent.rmdir()
        except OSError:
            pass


def _ms(values) -> list[float]:
    return [v * 1000.0 for v in values]


def write_metrics(run: BenchRun, writes, out: dict) -> None:
    """write p50 and tail (ms) with the sample count."""
    if not writes:
        raise RuntimeError("no successful writes measured")
    out["write_p50_ms"] = (median(_ms(writes)), len(writes))
    value, pct = tail(_ms(writes), run.spec["write_tail"])
    out["write_tail_ms"] = (value, len(writes), pct)


# ======================================================================
# cli_session
# ======================================================================
_COMMITTED = re.compile(r"committed version (\d+)")


def run_cli_session(run: BenchRun) -> tuple[dict, dict | None]:
    spec = run.spec
    history = run.histories["ds0"]
    setups = []
    root = None
    for rep in range(SETUP_REPS):
        root = run.dir / f"repo{rep}"
        started = time.perf_counter()
        run.build(root)
        code, _w, _o, err, _c = run_child(
            run.cli(root, "migrate-state", "--to", "paged"), run.env
        )
        if code != 0:
            raise RuntimeError(f"migrate-state failed: {err.strip()[-400:]}")
        setups.append(time.perf_counter() - started)
        if rep < SETUP_REPS - 1:
            shutil.rmtree(root)
    work = run.dir / "work"
    work.mkdir()
    read_file, edit_file = work / "read.csv", work / "edit.csv"
    ranks = list(history.vids)
    run.rng.shuffle(ranks)
    zipf = gen.Zipf(len(ranks), spec["zipf_s"], run.rng)
    samples: list[tuple[str, bool, float]] = []
    traced = []  # per-op span summaries
    walls_traced: list[tuple[str, float]] = []
    rss = [0]
    boot = [python(), str(HERE / "boot_cli.py")]

    def invoke(kind: str, args: list[str], traced_op: bool):
        run.attempted += 1
        env = run.env
        if traced_op:
            spans_file = work / f"spans{run.attempted}.json"
            env = dict(env, PERFBENCH_SPANS=str(spans_file))
            argv = boot + ["--root", str(root), *args]
        else:
            argv = run.cli(root, *args)
        code, wall, out, err, child = run_child(argv, env)
        rss[0] = max(rss[0], child.maxrss_kb)
        ok = code == 0
        if not ok:
            run.fail(f"{kind} {' '.join(args)}: exit {code}: {err.strip()[-200:]}")
        if traced_op and ok:
            with open(spans_file) as handle:
                summary = json.load(handle)
            summary["wall_ns"] = int(wall * 1e9)
            traced.append(summary)
            walls_traced.append((kind, wall))
        samples.append((kind, ok, wall, traced_op))
        return ok, out

    def checkout(vid: int, target: Path, traced_op: bool) -> bool:
        ok, _out = invoke(
            "read", ["checkout", "-d", "ds0", "-v", str(vid), "-f", str(target)], traced_op
        )
        if ok and digest_csv(target) != digest_rows(history.rows[vid]):
            run.fail(f"checkout v{vid}: content differs from the generator's")
            samples[-1] = samples[-1][:1] + (False,) + samples[-1][2:]
            return False
        return ok

    started = time.perf_counter()
    untraced_until = started + (0.4 * run.seconds if run.trace else run.seconds)
    # Commit cycles are due at fixed times, so every run makes the same
    # number of commits and ends with the same repository whatever the
    # host's speed; checkouts fill the time between them. A host too
    # slow to keep up runs past --seconds until the last cycle is done.
    # Commits draw from their own generator, so what they commit does
    # not depend on how many checkouts came between them either.
    every = spec["commit_every_s"]
    cycles = int(run.seconds / every)
    commit_rng = random.Random(f"{run.name}:{run.seed}:commits")
    commit_zipf = gen.Zipf(len(ranks), spec["zipf_s"], commit_rng)
    done = 0
    while True:
        now = time.perf_counter()
        elapsed = now - started
        if elapsed >= run.seconds and done >= cycles:
            break
        traced_op = run.trace and now >= untraced_until
        if done >= cycles or elapsed < (done + 0.5) * every:
            checkout(ranks[zipf.pick()], read_file, traced_op)
            continue
        done += 1
        vid = ranks[commit_zipf.pick()]
        if not checkout(vid, edit_file, traced_op):
            continue
        rows = gen.child_rows(commit_rng, history.rows[vid])
        write_rows_csv(edit_file, gen.COLUMNS, rows)
        ok, out = invoke(
            "write", ["commit", "-d", "ds0", "-f", str(edit_file), "-m", "edit"], traced_op
        )
        match = _COMMITTED.search(out) if ok else None
        if ok and not match:
            run.fail(f"commit printed no version: {out!r}")
            samples[-1] = samples[-1][:1] + (False,) + samples[-1][2:]
            continue
        if not ok:
            continue
        new_vid = int(match.group(1))
        history.add(new_vid, rows, vid)
        checkout(new_vid, read_file, traced_op)  # every commit is read back
    elapsed = time.perf_counter() - started
    # Every CLI invocation saves state and rotates the backups, and a
    # save collects only the pages no generation still references. Two
    # untimed checkouts bring every generation past the last commit, so
    # space_amp never depends on where in a commit cycle the run ended.
    timed = len(samples)
    for _ in range(2):
        checkout(ranks[0], read_file, False)
    del samples[timed:]

    measured = [s for s in samples if not s[3]] if run.trace else samples
    out: dict = {}
    reads = [w for k, ok, w, _t in measured if ok and k == "read"]
    writes = [w for k, ok, w, _t in measured if ok and k == "write"]
    if not run.trace:
        if not reads:
            raise RuntimeError("no successful reads measured")
        out["read_p50_ms"] = (median(_ms(reads)), len(reads))
        value, pct = tail(_ms(reads), spec["read_tail"])
        out["read_tail_ms"] = (value, len(reads), pct)
        write_metrics(run, writes, out)
        limit = spec["limit_ms"] / 1000.0
        good = sum(1 for _k, ok, w, _t in samples if ok and w <= limit)
        out["goodput_rps"] = (good / elapsed, len(samples))
        out["space_amp"] = (
            version_store_bytes(root) / run.data_csv_bytes(), len(history.rows)
        )
        out["rss_peak_mb"] = (rss[0] / 1024.0, len(samples))
        out["setup_s"] = (median(setups), len(setups))
        return out, None

    # traced run: per-layer metrics of the traced ops
    merged = layers.merge(traced)
    t_reads = [w for k, w in walls_traced if k == "read"]
    startups = [(s["main_enter_ns"] - s["spawn_ns"]) / 1e6 for s in traced]
    mains = [s["root_ns"] / 1e6 for s in traced]
    walls = [s["wall_ns"] / 1e6 for s in traced]
    extra = {
        "cli.startup_ms": sum(startups) / len(startups),
        "trace.unattributed_ms": (sum(walls) - sum(startups) - sum(mains)) / len(traced),
        "trace.overhead_frac": median(t_reads) / median(reads) - 1.0,
    }
    n_writes = sum(1 for k, _w in walls_traced if k == "write")
    values, absent = layers.compute(merged, len(traced), len(t_reads), n_writes, extra,
                                    PER_LAYER)
    return values, {"absent": absent, "traced_ops": len(traced), "untraced_reads": len(reads),
                    "client_ms": sum(walls) / len(walls)}


# ======================================================================
# daemon workloads
# ======================================================================
class Daemon:
    """``python -m repro.cli serve`` (or its traced bootstrap) as a child."""

    def __init__(self, run: BenchRun, root: Path, traced: bool, spans_file: Path | None):
        spec = run.spec
        # Relative to the working directory: a Unix socket path must stay
        # under ~100 bytes wherever the checkout lives.
        self.socket = os.path.relpath(root / "d.sock")
        args = ["--root", str(root), "serve", "--socket", self.socket,
                "--workers", str(spec["workers"]), "--cache-mb", str(spec["cache_mb"])]
        env = dict(run.env)
        if traced:
            argv = [python(), str(HERE / "boot_daemon.py"), *args]
            env["PERFBENCH_SPANS"] = str(spans_file)
        else:
            argv = [python(), "-m", "repro.cli", *args]
        self.log = open(root / "daemon.log", "wb")
        self.child = Child(argv, env, stderr=self.log)
        run.children.append(self.child)
        self.conn = loadgen.connect_when_up(
            self.socket, 60.0, lambda: self.child.proc.poll() is None
        )

    def stats(self) -> dict:
        reply, *_ = self.conn.call({"op": "stats"})
        return reply.data or {}

    def stop(self, kill: bool = False) -> int:
        """SIGTERM (drain) or SIGKILL; reaps and returns the exit code."""
        try:
            self.conn.close()
        finally:
            self.child.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            code = self.child.reap(60)
            self.log.close()
        return code

    @property
    def rss_mb(self) -> float:
        return self.child.maxrss_kb / 1024.0


class KeyCycle:
    """Versions to read in seeded passes over every key, each pass a
    fresh shuffle: a run reads every version about equally often, so
    its latencies do not depend on which versions independent picks
    happened to favour."""

    def __init__(self, keys, rng: random.Random) -> None:
        self.keys = list(keys)
        self.rng = rng
        self.order: list = []

    def next(self):
        if not self.order:
            self.order = list(self.keys)
            self.rng.shuffle(self.order)
        return self.order.pop()


class OpStream:
    """Deterministic request sequence for one daemon workload.
    ``daemon_scan`` streams draw their reads from ``reads``, a
    :class:`KeyCycle` that phases of one kind share across the run."""

    def __init__(self, run: BenchRun, phase: str, reads: KeyCycle | None = None) -> None:
        self.run = run
        self.phase = phase
        self.rng = random.Random(f"{run.name}:{run.seed}:{phase}")
        self.work = run.dir / "work"
        self.work.mkdir(exist_ok=True)
        self.count = 0  # commit files written
        self.issued = 0
        spec = run.spec
        # The first read_datasets datasets are read; the rest take only
        # the write probe's commits.
        self.names = sorted(run.histories)[: spec["read_datasets"]]
        if run.name == "daemon_hot":
            hot = [(n, v) for n in self.names for v in run.histories[n].vids]
            random.Random(f"hot:{run.seed}").shuffle(hot)
            self.hot = hot
            self.zipf = gen.Zipf(len(hot), spec["zipf_s"], self.rng)
        else:
            self.keys = [(n, v) for n in self.names for v in run.histories[n].vids]
            self.reads = reads or KeyCycle(self.keys, self.rng)

    def read(self, key) -> dict:
        dataset, vid = key
        return {"kind": "read", "key": key,
                "request": {"op": "checkout", "dataset": dataset, "versions": [vid],
                            "inline": True}}

    def write(self, dataset: str) -> dict:
        history = self.run.histories[dataset]
        parent = self.rng.choice(sorted(v for v in history.vids if v <= self.run.spec["versions"]))
        rows = gen.child_rows(self.rng, history.rows[parent])
        self.count += 1
        path = self.work / f"{self.phase}-commit{self.count}.csv"
        write_rows_csv(path, gen.COLUMNS, rows)
        return {"kind": "write", "dataset": dataset, "rows": rows, "parent": parent,
                "request": {"op": "commit", "dataset": dataset, "file": str(path),
                            "parents": [parent], "message": "edit"}}

    def next(self) -> dict:
        if self.run.name == "daemon_hot":
            return self.read(self.hot[self.zipf.pick()])
        # Exactly one op in every write_every is a commit, so every run
        # offers the same mix.
        self.issued += 1
        if self.issued % self.run.spec["write_every"] == 0:
            return self.write(self.rng.choice(self.names))
        return self.read(self.reads.next())


def run_daemon(run: BenchRun) -> tuple[dict, dict | None]:
    spec = run.spec
    n_conn = min(len(os.sched_getaffinity(0)), 8)  # nproc, capped
    expected = {(h.name, v): digest_rows(r) for h in run.histories.values() for v, r in h.rows.items()}
    verifier = loadgen.Verifier(expected)
    acked: list[tuple] = []
    retries = [0]

    def on_commit(op, data) -> None:
        vid = int(data["version"])
        history = run.histories[op["dataset"]]
        history.add(vid, op["rows"], op["parent"])
        verifier.expected[(op["dataset"], vid)] = digest_rows(op["rows"])
        acked.append((op["dataset"], vid))

    # Warm-up: every hot version once (cache fill), or a few scans.
    warm = OpStream(run, "warm")
    warm_keys = warm.hot if run.name == "daemon_hot" else warm.keys[:: max(1, len(warm.keys) // 8)]

    def warm_up(daemon, verifier, on_commit) -> None:
        for key in warm_keys:
            sample = loadgen.execute(daemon.conn, warm.read(key), verifier, on_commit)
            if not sample.ok:
                run.fail(f"warm-up read {key}: {sample.error}")

    def open_phase(daemon, label: str, seconds: float, verifier=verifier, on_commit=on_commit,
                   reads=None):
        stream = OpStream(run, label, reads)
        schedule = loadgen.Schedule(spec["rate"], seconds, stream.rng)
        ops = [stream.next() for _ in schedule.due]
        loop, _wall = loadgen.open_loop(daemon.socket, n_conn, schedule, ops, verifier, on_commit)
        retries[0] += loop.retries
        return loop.samples

    def untraced_base(daemon) -> list:
        """The base for trace.overhead_frac: the traced run's open loop
        against a plain ``python -m repro.cli serve`` (a set-up daemon).
        Its commits are forgotten afterwards: the traced daemon's
        repository, built afresh from the seed, never saw them."""
        known = {name: set(h.rows) for name, h in run.histories.items()}
        base = loadgen.Verifier(dict(expected))

        def base_commit(op, data) -> None:
            vid = int(data["version"])
            run.histories[op["dataset"]].add(vid, op["rows"], op["parent"])
            base.expected[(op["dataset"], vid)] = digest_rows(op["rows"])

        warm_up(daemon, base, base_commit)
        samples = open_phase(daemon, "untraced", run.seconds * 0.4, base, base_commit)
        for name, history in run.histories.items():
            for vid in set(history.rows) - known[name]:
                del history.rows[vid], history.parents[vid]
        return samples

    setups = []
    daemon = None
    base_samples: list = []
    spans_file = run.dir / "daemon_spans.json"
    for rep in range(SETUP_REPS):
        root = run.dir / f"repo{rep}"
        last = rep == SETUP_REPS - 1
        started = time.perf_counter()
        run.build(root)
        daemon = Daemon(run, root, traced=run.trace and last, spans_file=spans_file)
        setups.append(time.perf_counter() - started)
        if not last:
            if run.trace and rep == SETUP_REPS - 2:
                base_samples = untraced_base(daemon)
            daemon.stop()
            shutil.rmtree(root)
    warm_up(daemon, verifier, on_commit)

    out: dict = {}
    all_samples: list = []
    extra_info: dict = {}
    if not run.trace:
        # Alternating blocks of open loop, closed loop and a share of the
        # write probe (sequential commits, each from a uniformly chosen
        # parent; daemon_hot commits to the dataset outside its hot set,
        # so its reads stay read-only). Interleaving spreads every phase
        # over the whole run, so all of them see the same spells of
        # interference on a shared machine.
        blocks = spec["blocks"]
        probe_stream = OpStream(run, "probe")
        probe_names = sorted(run.histories)[spec["read_datasets"]:]
        probe = []
        open_s = run.seconds * spec["open_share"] / blocks
        closed_s = run.seconds * (1 - spec["open_share"]) / blocks
        limit = spec["limit_ms"] / 1000.0
        open_samples, closed_samples = [], []
        closed_wall = 0.0
        # One pass order per loop kind spans all blocks (daemon_scan).
        open_reads = closed_reads = None
        if run.name == "daemon_scan":
            open_reads = KeyCycle(warm.keys, random.Random(f"{run.seed}:open"))
            closed_reads = KeyCycle(warm.keys, random.Random(f"{run.seed}:closed"))
        for block in range(blocks):
            open_samples += open_phase(daemon, f"open{block}", open_s, reads=open_reads)
            closed, wall = loadgen.closed_loop(
                daemon.socket, n_conn, closed_s,
                OpStream(run, f"closed{block}", closed_reads).next, verifier, on_commit,
            )
            closed_samples += closed.samples
            closed_wall += wall
            for _ in range(spec["probe_writes"] // blocks):
                dataset = probe_names[len(probe) % len(probe_names)]
                probe.append(loadgen.execute(
                    daemon.conn, probe_stream.write(dataset), verifier, on_commit
                ))
        all_samples = open_samples + closed_samples + probe
        reads = _ms(s.latency_s for s in open_samples if s.ok and s.op == "read")
        out["read_p50_ms"] = (median(reads), len(reads))
        value, pct = tail(reads, spec["read_tail"])
        out["read_tail_ms"] = (value, len(reads), pct)
        good = sum(1 for s in closed_samples if s.ok and s.latency_s <= limit)
        out["goodput_rps"] = (good / closed_wall, len(closed_samples))
        mixed = [s.latency_s for s in open_samples if s.ok and s.op == "write"]
        if mixed:
            extra_info["open_loop_writes_ms"] = (median(_ms(mixed)), len(mixed))
        lag_tail, lag_pct = tail(_ms(s.lag_s for s in open_samples), spec["read_tail"])
        extra_info["gen_lag_tail_ms"] = (lag_tail, lag_pct)
        if lag_tail > LAG_LIMIT_FRAC * spec["limit_ms"]:
            run.fail(f"invalid run: generator lag p{lag_pct:g} {lag_tail:.2f} ms exceeds "
                     f"{LAG_LIMIT_FRAC:g} x the {spec['limit_ms']:g} ms limit")
        writes = [s.latency_s for s in probe if s.ok]
    else:
        before = daemon.stats()
        daemon.child.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.05)
        traced_samples = open_phase(daemon, "traced", run.seconds * 0.6)
        after = daemon.stats()
        daemon.child.proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + 30
        while not spans_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        all_samples = base_samples + traced_samples
        reads = [s.latency_s for s in base_samples if s.ok and s.op == "read"]
    # Read back every acknowledged commit (daemon_scan reads them back
    # from disk after the kill below instead).
    for dataset, vid in acked if run.name == "daemon_hot" else ():
        sample = loadgen.execute(daemon.conn, warm.read((dataset, vid)), verifier, on_commit)
        if not sample.ok:
            run.fail(f"read-back of {dataset}/v{vid}: {sample.error}")
        run.attempted += 1
    run.attempted += len(warm_keys) * (2 if run.trace else 1) + len(all_samples)
    for sample in all_samples:
        if not sample.ok:
            run.fail(f"{sample.op}: {sample.error}")
    root = run.dir / f"repo{SETUP_REPS - 1}"
    if run.name == "daemon_scan":
        daemon.stop(kill=True)
        expect = run.dir / "expect.json"
        expect.write_text(json.dumps({
            f"{dataset}/{vid}": digest_rows(run.histories[dataset].rows[vid])
            for dataset, vid in acked
        }))
        code, _w, out_text, err, _c = run_child(
            [python(), str(HERE / "verify_state.py"), str(root), str(expect)], run.env
        )
        run.attempted += len(acked)
        try:
            report = json.loads(out_text)
        except ValueError:
            report = {"missing": [f"verifier exit {code}: {err.strip()[-300:]}"], "wrong": []}
        for key in report["missing"] + report["wrong"]:
            run.fail(f"durability after kill -9: {key}")
        run.notes.append(f"durability after kill -9: {len(acked)} acknowledged commits "
                         f"checked, {len(report['missing'])} missing, "
                         f"{len(report['wrong'])} with wrong content")
    elif daemon.stop() != 0:
        run.fail("daemon exited with an error on SIGTERM")

    if not run.trace:
        write_metrics(run, writes, out)
        out["space_amp"] = (
            version_store_bytes(root) / run.data_csv_bytes(),
            sum(len(h.rows) for h in run.histories.values()),
        )
        out["rss_peak_mb"] = (daemon.rss_mb, 1)
        out["setup_s"] = (median(setups), len(setups))
        return out, extra_info

    # traced run: per-layer metrics over the traced window
    with open(spans_file) as handle:
        summary = json.load(handle)
    ok = [s for s in traced_samples if s.ok]
    n_ops = len(traced_samples)
    t_reads = [s for s in traced_samples if s.ok and s.op == "read"]

    def mean_ms(values) -> float:
        values = list(values)
        return sum(values) * 1000.0 / len(values) if values else 0.0

    server = {
        phase: mean_ms(s.server.get(f"{phase}_s", 0.0) for s in ok)
        for phase in ("admission", "queue_wait", "execute")
    }
    cache0, cache1 = before.get("cache", {}), after.get("cache", {})
    d_hits = cache1.get("hits", 0) - cache0.get("hits", 0)
    d_miss = cache1.get("misses", 0) - cache0.get("misses", 0)
    d_evict = cache1.get("evictions", 0) - cache0.get("evictions", 0)
    extra = {
        "client.encode_ms": mean_ms(s.encode_s for s in ok),
        "client.decode_ms": mean_ms(s.decode_s for s in ok),
        "client.gen_lag_ms": tail(_ms(s.lag_s for s in traced_samples), spec["read_tail"])[0],
        "client.retries": retries[0],
        "service.admission_ms": server["admission"],
        "service.queue_wait_ms": server["queue_wait"],
        "service.execute_ms": server["execute"],
        "service.cache_hit_ratio": d_hits / (d_hits + d_miss) if d_hits + d_miss else 0.0,
        "service.cache_evictions_per_read": d_evict / max(1, len(t_reads)),
        "service.busy_replies": sum(1 for s in traced_samples if s.error.startswith("busy")),
        "trace.overhead_frac": median([s.latency_s for s in t_reads]) / median(reads) - 1.0,
    }
    values, absent = layers.compute(
        summary, n_ops, sum(1 for s in traced_samples if s.op == "read"),
        sum(1 for s in traced_samples if s.op == "write"), extra, PER_LAYER,
    )
    attributed = (
        extra["client.encode_ms"] + extra["client.decode_ms"] + server["admission"]
        + server["queue_wait"] + server["execute"]
        + sum(values[m] for m in ("service.decode_ms", "service.serialize_ms", "service.send_ms"))
    )
    client_ms = mean_ms(s.client_s for s in ok)
    values["trace.unattributed_ms"] = client_ms - attributed
    if "trace.unattributed_ms" in absent:
        absent.remove("trace.unattributed_ms")
    return values, {"absent": absent, "traced_ops": n_ops, "untraced_reads": len(reads),
                    "client_ms": client_ms}


RUNNERS = {
    "cli_session": run_cli_session,
    "daemon_hot": run_daemon,
    "daemon_scan": run_daemon,
}
