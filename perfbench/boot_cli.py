"""Traced CLI bootstrap: ``python perfbench/boot_cli.py <orpheus args>``.

Installs the layer probes (each applied when the program first
imports its module), then runs ``repro.cli.main`` with the given
arguments. The spawn time (``PERFBENCH_SPAWN_NS``, CLOCK_MONOTONIC in
ns, stamped by the parent just before it started this process) and the
span summary go to the JSON file named by ``PERFBENCH_SPANS`` when the
command returns.
"""

from __future__ import annotations

import json
import os
import sys
import time

import probes
from spans import Recorder, root_ns, self_times


def main() -> int:
    recorder = Recorder()
    probes.install(recorder, daemon=False)
    import repro.cli as cli

    entered = {}

    def enter_main(argv):
        entered["ns"] = time.monotonic_ns()
        return cli.main(argv)

    code = recorder.wrap("cli.main", enter_main)(sys.argv[1:])
    summary = {
        "spawn_ns": int(os.environ.get("PERFBENCH_SPAWN_NS", "0")),
        "main_enter_ns": entered.get("ns", 0),
        "spans": self_times(recorder.spans),
        "root_ns": root_ns(recorder.spans),
        "counts": recorder.counts,
        "registry": probes.registry_counters(),
    }
    out = os.environ.get("PERFBENCH_SPANS")
    if out:
        with open(out, "w") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
