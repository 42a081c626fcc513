"""The repository benchmark.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (it needs ``src/repro``). Builds
the workload's repository from the seed, drives the program from
outside for ``--seconds``, checks every output, and prints one line per
metric followed by a JSON result as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. ``perfbench/map.json`` documents every
workload and metric.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

import workloads
from common import BENCHMARK, UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "cli.py").is_file():
        sys.stderr.write("perfbench: no src/repro here; run from a source checkout\n")
        return 2
    # The load generator speaks the daemon's wire protocol module.
    sys.path.insert(0, str(checkout / "src"))
    run = workloads.BenchRun(checkout, args.workload, args.seed, args.seconds, bool(args.trace))
    # A SIGTERM unwinds through the finally below, which stops children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        values, info = workloads.RUNNERS[args.workload](run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.cleanup()

    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    for line in run.failures[:20]:
        print(f"FAILED: {line}")
    for note in run.notes:
        print(note)
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio "
          f"(n={attempted} ops attempted, {failed} failed)")
    metrics = {}
    if not args.trace:
        for name in (m["name"] for m in BENCHMARK["end_to_end"]):
            value, n, *pct = values[name]
            where = f" at p{pct[0]:g}" if pct else ""
            print(f"{args.workload} {name} {value:.6g} {UNITS[name]}{where} (n={n})")
            metrics[name] = {"value": value, "unit": UNITS[name]}
        if info and "gen_lag_tail_ms" in info:
            lag, pct = info["gen_lag_tail_ms"]
            print(f"{args.workload} client.gen_lag_ms {lag:.6g} ms at p{pct:g}")
        if info and "open_loop_writes_ms" in info:
            p50, n = info["open_loop_writes_ms"]
            print(f"{args.workload} open-loop commits p50 {p50:.6g} ms (n={n}; "
                  f"write_*_ms above come from the sequential write probe)")
    else:
        absent = set(info["absent"])
        print(f"{args.workload} traced ops: {info['traced_ops']}, "
              f"untraced reads for the overhead base: {info['untraced_reads']}")
        for name in workloads.PER_LAYER:
            value = values[name]
            note = "  (absent: no call reached this entry point here)" if name in absent else ""
            print(f"{args.workload} {name} {value:.6g} {UNITS[name]}{note}")
            metrics[name] = {"value": value, "unit": UNITS[name]}
        client = info["client_ms"]
        left = values["trace.unattributed_ms"]
        print(f"{args.workload} attribution: {client - left:.4g} of {client:.4g} ms per op "
              f"({(client - left) / client:.1%}) falls in named spans")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
