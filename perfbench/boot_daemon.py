"""Traced daemon bootstrap: ``python perfbench/boot_daemon.py <orpheus
serve args>``.

Installs the layer probes disabled (each applied when the program
first imports its module), then runs ``repro.cli.main``.
``SIGUSR1`` starts recording; ``SIGUSR2`` stops it and writes the span
summary and counter deltas to the file named by ``PERFBENCH_SPANS``
(via a temporary name, so a reader never sees half a file).
"""

from __future__ import annotations

import json
import os
import signal
import sys

import probes
from spans import Recorder, after_import, root_ns, self_times


class DaemonTrace:
    def __init__(self) -> None:
        self.recorder = Recorder(enabled=False)
        #: Counter totals folded away by the daemon's periodic registry
        #: reset, so deltas survive a fold inside the traced window.
        self.carried: dict[str, float] = {}
        self.baseline: dict[str, float] = {}

    def counters(self) -> dict[str, float]:
        live = probes.registry_counters()
        return {k: live[k] + self.carried.get(k, 0.0) for k in live}

    def start(self, *_args) -> None:
        self.recorder.spans.clear()
        self.recorder.counts.clear()
        self.baseline = self.counters()
        self.recorder.enabled = True

    def dump(self, *_args) -> None:
        self.recorder.enabled = False
        spans = list(self.recorder.spans)
        now = self.counters()
        summary = {
            "spans": self_times(spans),
            "root_ns": root_ns(spans),
            "counts": dict(self.recorder.counts),
            "registry": {k: now[k] - self.baseline.get(k, 0.0) for k in now},
        }
        out = os.environ["PERFBENCH_SPANS"]
        with open(out + ".tmp", "w") as handle:
            json.dump(summary, handle)
        os.replace(out + ".tmp", out)


def main() -> int:
    trace = DaemonTrace()
    probes.install(trace.recorder, daemon=True)

    def carry_folds(mod) -> None:
        fold = mod.ServiceDaemon._fold_telemetry

        def carrying_fold(self, *args, **kwargs):
            for name, value in probes.registry_counters().items():
                trace.carried[name] = trace.carried.get(name, 0.0) + value
            return fold(self, *args, **kwargs)

        mod.ServiceDaemon._fold_telemetry = carrying_fold

    after_import("repro.service.daemon", carry_folds)
    signal.signal(signal.SIGUSR1, trace.start)
    signal.signal(signal.SIGUSR2, trace.dump)
    import repro.cli as cli

    return cli.main(sys.argv[1:])

if __name__ == "__main__":
    sys.exit(main())
