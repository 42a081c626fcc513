"""Tests of the benchmark's own logic (no program process is started).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import common  # noqa: E402
import gen  # noqa: E402
import loadgen  # noqa: E402
from spans import Recorder, after_import, patch_function, root_ns, self_times  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(common.beyond(100, 90), 10)
        self.assertEqual(common.beyond(100, 99), 1)
        self.assertEqual(common.beyond(20, 50), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(common.tail_percentile(1000), 99.0)
        self.assertEqual(common.tail_percentile(999), 95.0)  # p99 leaves 9
        self.assertEqual(common.tail_percentile(200), 95.0)
        self.assertEqual(common.tail_percentile(100), 90.0)
        self.assertEqual(common.tail_percentile(40), 75.0)
        self.assertEqual(common.tail_percentile(39), 50.0)
        self.assertEqual(common.tail_percentile(5), 50.0)

    def test_fixed_tail_falls_back_when_the_sample_is_small(self):
        values = list(range(1, 101))
        self.assertEqual(common.tail(values, 90.0), (90, 90.0))
        self.assertEqual(common.tail(values, 99.0), (90, 90.0))
        self.assertEqual(common.tail(list(range(1, 1001)), 99.0), (990, 99.0))

    def test_a_tail_the_sample_cannot_support_reads_at_the_median(self):
        values = [1, 2, 3, 4, 10, 20]
        self.assertEqual(common.tail(values, 75.0), (3.5, 50.0))

    def test_nearest_rank_percentile(self):
        self.assertEqual(common.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertEqual(common.percentile([5, 1, 3, 2, 4], 100), 5)
        self.assertEqual(common.percentile([7], 1), 7)


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        # root [0, 100] with children a [10, 40] and b [50, 90];
        # a has a grandchild c [15, 25]; b has no children.
        spans = [
            (3, 2, "c", 15, 25),
            (2, 1, "a", 10, 40),
            (4, 1, "b", 50, 90),
            (1, 0, "root", 0, 100),
        ]
        got = self_times(spans)
        self.assertEqual(got["root"]["self_ns"], 100 - 30 - 40)
        self.assertEqual(got["a"]["self_ns"], 30 - 10)
        self.assertEqual(got["b"]["self_ns"], 40)
        self.assertEqual(got["c"]["self_ns"], 10)
        self.assertEqual(got["root"]["total_ns"], 100)
        self.assertEqual(root_ns(spans), 100)
        # self times of every span add up to the root's duration
        self.assertEqual(sum(v["self_ns"] for v in got.values()), 100)

    def test_same_name_nesting_is_not_double_counted(self):
        spans = [(2, 1, "x", 10, 20), (1, 0, "x", 0, 50)]
        got = self_times(spans)["x"]
        self.assertEqual((got["calls"], got["total_ns"], got["self_ns"]), (2, 60, 50))

    def test_recorder_links_parents_per_thread(self):
        recorder = Recorder()

        def inner():
            time.sleep(0.001)

        outer = recorder.wrap("outer", lambda: recorder.wrap("inner", inner)())
        outer()
        worker = threading.Thread(target=recorder.wrap("other", inner))
        worker.start()
        worker.join(10)
        self.assertFalse(worker.is_alive())
        by_name = {name: (sid, parent) for sid, parent, name, _s, _e in recorder.spans}
        self.assertEqual(by_name["inner"][1], by_name["outer"][0])
        self.assertEqual(by_name["other"][1], 0)
        times = self_times(recorder.spans)
        self.assertLess(times["outer"]["self_ns"], times["outer"]["total_ns"])

    def test_generator_span_is_a_child_of_its_consumer(self):
        recorder = Recorder()

        def rows():
            for i in range(3):
                time.sleep(0.001)
                yield i

        fault = recorder.wrap("fault", lambda: time.sleep(0.002))

        def rows_after_fault():
            fault()
            yield from rows()

        counted = []
        scan = recorder.wrap_generator("scan", rows_after_fault, on_rows=counted.append)
        consume = recorder.wrap("join", lambda gen_: list(gen_))
        self.assertEqual(consume(scan()), [0, 1, 2])
        times = self_times(recorder.spans)
        self.assertGreaterEqual(times["scan"]["total_ns"], 5_000_000)
        # the fault is the scan's child, the scan the join's
        self.assertEqual(times["scan"]["self_ns"],
                         times["scan"]["total_ns"] - times["fault"]["total_ns"])
        self.assertEqual(times["join"]["self_ns"],
                         times["join"]["total_ns"] - times["scan"]["total_ns"])
        self.assertGreaterEqual(times["join"]["self_ns"], 0)
        self.assertEqual(counted, [3])

    def test_disabled_recorder_records_nothing(self):
        recorder = Recorder(enabled=False)
        recorder.wrap("x", lambda: 1)()
        self.assertEqual(recorder.spans, [])


class PatchOnImportTest(unittest.TestCase):
    def test_a_module_is_patched_when_first_imported(self):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "pbprobed.py").write_text("def work():\n    return 7\n")
            Path(tmp, "pbuser.py").write_text(
                "from pbprobed import work\nTABLE = {'w': work}\n"
            )
            sys.path.insert(0, tmp)
            recorder = Recorder()
            try:
                after_import("pbprobed", lambda mod: patch_function(
                    recorder, mod, "work", "probed.work", prefix="pb"))
                self.assertNotIn("pbprobed", sys.modules)  # nothing imported early
                import pbuser

                # the importer bound the wrapper, in its globals and registry
                self.assertEqual(pbuser.work(), 7)
                self.assertEqual(pbuser.TABLE["w"](), 7)
                self.assertEqual([s[2] for s in recorder.spans], ["probed.work"] * 2)
                # an already imported module is patched at once
                seen = []
                after_import("pbuser", seen.append)
                self.assertEqual(seen, [pbuser])
            finally:
                sys.path.remove(tmp)
                sys.modules.pop("pbprobed", None)
                sys.modules.pop("pbuser", None)


class OpenLoopAccountingTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # due at 1.0, connection free since 0.5, sent at 1.0, done 1.2
        latency, lag = loadgen.account(1.0, 0.5, 1.0, 1.2)
        self.assertAlmostEqual(latency, 0.2)
        self.assertEqual(lag, 0.0)

    def test_waiting_for_a_busy_connection_is_latency_not_lag(self):
        # due at 1.0 but the only connection was busy until 1.5
        latency, lag = loadgen.account(1.0, 1.5, 1.5, 1.6)
        self.assertAlmostEqual(latency, 0.6)
        self.assertEqual(lag, 0.0)

    def test_generator_lateness_is_lag(self):
        latency, lag = loadgen.account(1.0, 0.5, 1.003, 1.1)
        self.assertAlmostEqual(lag, 0.003)
        self.assertAlmostEqual(latency, 0.1)

    def test_schedule_is_evenly_spaced_at_the_rate(self):
        schedule = loadgen.Schedule(10.0, 2.0, random.Random(1))
        self.assertIn(len(schedule.due), (19, 20))
        gaps = {round(b - a, 9) for a, b in zip(schedule.due, schedule.due[1:])}
        self.assertEqual(gaps, {0.1})
        self.assertLess(schedule.due[0], 0.1)

    def test_a_stall_delays_the_requests_behind_it(self):
        """One connection; the server holds the first reply 150 ms.
        Requests due meanwhile are timed from their due times."""
        tmp = tempfile.mkdtemp()
        path = os.path.relpath(os.path.join(tmp, "s.sock"))
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)

        def serve():
            conn, _ = server.accept()
            buffer = b""
            answered = 0
            with conn:
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                    while b"\n" in buffer:
                        line, buffer = buffer.split(b"\n", 1)
                        request = json.loads(line)
                        if request["op"] == "checkout":
                            answered += 1
                            if answered == 1:
                                time.sleep(0.15)
                        reply = {"id": request["id"], "status": "ok", "data": {}}
                        conn.sendall(json.dumps(reply).encode() + b"\n")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            schedule = loadgen.Schedule(50.0, 0.2, random.Random(3))  # every 20 ms
            ops = [{"kind": "read", "key": None,
                    "request": {"op": "checkout"}} for _ in schedule.due]

            class Accept:
                def check(self, *_args):
                    return True

            loop, _wall = loadgen.open_loop(path, 1, schedule, ops, Accept(), None)
        finally:
            server.close()
            os.unlink(path)
            os.rmdir(tmp)
        thread.join(10)
        self.assertFalse(thread.is_alive())
        samples = loop.samples
        self.assertEqual(len(samples), len(ops))
        self.assertTrue(all(s.ok for s in samples))
        self.assertGreaterEqual(samples[0].latency_s, 0.15)
        # the second request fell due 20 ms after the first and waited
        # for the stalled connection: ~130 ms of latency, no lag
        self.assertGreater(samples[1].latency_s, 0.1)
        self.assertLess(samples[1].lag_s, 0.01)
        # by the end the backlog is gone
        self.assertLess(samples[-1].latency_s, 0.05)


class SpaceAmpBytesTest(unittest.TestCase):
    def test_version_store_counts_state_generations_and_pages_only(self):
        with tempfile.TemporaryDirectory() as root:
            base = Path(root) / ".orpheus"
            (base / "pages").mkdir(parents=True)
            (base / "journal").mkdir()
            (base / "flight").mkdir()
            (base / "state.pkl").write_bytes(b"x" * 100)
            (base / "state.pkl.bak").write_bytes(b"x" * 50)
            (base / "state.pkl.bak.1").write_bytes(b"x" * 25)
            (base / "pages" / "a.pg").write_bytes(b"x" * 7)
            (base / "journal" / "ops.jsonl").write_bytes(b"x" * 1000)
            (base / "flight" / "seg.jsonl").write_bytes(b"x" * 1000)
            (base / "telemetry.json").write_bytes(b"x" * 1000)
            self.assertEqual(common.version_store_bytes(root), 182)

    def test_csv_bytes_matches_the_written_file(self):
        rows = gen.base_rows(random.Random(5), 50)
        with tempfile.TemporaryDirectory() as tmp:
            size = common.write_rows_csv(Path(tmp) / "v.csv", gen.COLUMNS, rows)
        self.assertEqual(common.csv_bytes(gen.COLUMNS, rows), size)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_history(self):
        a = gen.build_histories(7, 2, 5, 100, "split_by_rlist")
        b = gen.build_histories(7, 2, 5, 100, "split_by_rlist")
        self.assertEqual([h.rows for h in a], [h.rows for h in b])

    def test_child_keeps_95_percent_of_rows(self):
        rng = random.Random(1)
        parent = gen.base_rows(rng, 1000)
        child = gen.child_rows(rng, parent)
        kept = sum(1 for p, c in zip(parent, child) if p == c)
        self.assertGreaterEqual(kept, 950)
        self.assertEqual([r[0] for r in child], [r[0] for r in parent])

    def test_digest_ignores_row_order_and_value_types(self):
        rows = [(1, 2, 3, "a"), (4, 5, 6, "b")]
        as_text = [["4", "5", "6", "b"], ["1", "2", "3", "a"]]
        self.assertEqual(common.digest_rows(rows), common.digest_rows(as_text))


if __name__ == "__main__":
    unittest.main()
