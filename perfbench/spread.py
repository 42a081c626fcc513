"""Run-to-run spread of the benchmark's metrics, and drift between sets.

    python3 perfbench/spread.py --workload daemon_scan --seeds 1-10 [--seconds 35] [--save A.json]
    python3 perfbench/spread.py --compare A.json B.json

Runs the benchmark once per seed (one after another) and prints, per
metric, the median and the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``; ``--save`` keeps the values. ``--compare`` reads two
saved sets and prints how much worse each metric's median got from the
first set to the second, as a share of the first, against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        low, high = spec.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in spec.split(",")]


def compare(first_path: str, second_path: str, bench: dict) -> int:
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    failed = False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name not in first or name not in second:
            continue
        a, b = statistics.median(first[name]), statistics.median(second[name])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= metric["bound"] else "WORSE"
        failed |= verdict != "ok"
        print(f"{name:28s} {a:12.6g} -> {b:12.6g}  worse by {worse:+7.4f}"
              f"  bound {metric['bound']}  {verdict}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--compare", nargs=2, metavar="SET")
    parser.add_argument("--save")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, bench)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        argv = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        brief = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {brief}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if args.save:
        Path(args.save).write_text(json.dumps(values))
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if share < bound / 3 else "  WIDE")
        print(f"{name:28s} median {mid:12.6g}  iqr/median {share:7.4f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
