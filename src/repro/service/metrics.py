"""Daemon-lifetime service metrics: the data behind the `stats` op.

The daemon periodically folds the process-global telemetry registry
into ``.orpheus/telemetry.json`` and *resets* it, which makes the
registry a rolling delta — fine for the fold file, useless for a
Prometheus scraper that needs monotonic counters or for ``orpheus top``
which wants daemon-lifetime aggregates. :class:`ServiceMetrics` is the
complement: it accumulates every finished :class:`RequestTrace` for the
daemon's whole lifetime, independent of the telemetry enabled flag and
its fold/reset cycle.

It keeps, under one lock:

* global request/error/BUSY totals;
* per-op latency and per-phase (admission/queue-wait/execute/serialize)
  histograms with p50/p95/p99;
* per-session and per-dataset (CVD) rollups;
* a bounded ring of recent span trees, so ``stats {"recent": n}`` can
  hand back whole traces without a log file round-trip.

Rendering reuses the telemetry layer's exposition-format helpers so the
``/metrics`` endpoint and ``orpheus stats --prometheus`` agree on
escaping rules; service families are prefixed ``orpheusd_`` to keep
them distinct from the folded ``repro_*`` telemetry families.
"""

from __future__ import annotations

import threading
from collections import deque

from repro import telemetry
from repro.telemetry.registry import Histogram
from repro.telemetry.snapshot import (
    _prom_labels,
    _prom_name,
    _prom_scalar,
    _prom_summary,
)

from repro.service.tracing import PHASES, RequestTrace

#: Span trees kept in the in-memory recent ring.
RECENT_CAP = 64


def _hist_summary(histogram: Histogram) -> dict:
    """Compact JSON summary (no reservoir) for stats payloads."""
    if histogram.count == 0:
        return {"count": 0}
    return {
        "count": histogram.count,
        "total_s": round(histogram.total, 6),
        "min_s": round(histogram.min, 6),
        "max_s": round(histogram.max, 6),
        "p50_s": _round(histogram.percentile(0.50)),
        "p95_s": _round(histogram.percentile(0.95)),
        "p99_s": _round(histogram.percentile(0.99)),
    }


def _round(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


class _OpStats:
    """Per-operation rollup: outcome counts + phase distributions."""

    __slots__ = (
        "count", "errors", "busy", "deadline", "degraded",
        "latency", "phases",
    )

    def __init__(self, op: str) -> None:
        self.count = 0
        self.errors = 0
        self.busy = 0
        self.deadline = 0
        self.degraded = 0
        self.latency = Histogram(op)
        self.phases = {name: Histogram(f"{op}.{name}") for name in PHASES}

    def record(self, rtrace: RequestTrace) -> None:
        self.count += 1
        if rtrace.status == "busy":
            self.busy += 1
        elif rtrace.status == "deadline_exceeded":
            self.deadline += 1
        elif rtrace.status == "degraded":
            self.degraded += 1
        elif rtrace.status not in ("ok", "shutdown"):
            self.errors += 1
        self.latency.add(rtrace.total_s)
        for name, value in rtrace.phase_seconds().items():
            self.phases[name].add(value)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "errors": self.errors,
            "busy": self.busy,
            "deadline_exceeded": self.deadline,
            "degraded": self.degraded,
            "latency": _hist_summary(self.latency),
            "phases": {
                name: _hist_summary(h)
                for name, h in self.phases.items()
                if h.count
            },
        }


class ServiceMetrics:
    """Thread-safe daemon-lifetime aggregation of request traces."""

    def __init__(self, recent_cap: int = RECENT_CAP) -> None:
        self._lock = threading.Lock()
        self.started_ts = telemetry.now()
        self.requests_total = 0
        self.errors_total = 0
        self.busy_total = 0
        #: Deadline sheds and degraded-mode refusals are *load policy*,
        #: not failures — they get their own counters so an error-rate
        #: alert never fires because clients ran polite budgets.
        self.deadline_total = 0
        self.degraded_total = 0
        self.slow_total = 0
        #: Storage-access totals (from the per-request cost-accountant
        #: stamps) — the Prometheus sidecar's
        #: ``orpheusd_scanned_bytes_total`` / ``_partition_touch_total``.
        self.rows_scanned_total = 0
        self.bytes_scanned_total = 0
        self.rows_written_total = 0
        self.partition_touches_total = 0
        self.by_op: dict[str, _OpStats] = {}
        self.by_session: dict[int, dict] = {}
        self.by_dataset: dict[str, dict] = {}
        self.recent: deque = deque(maxlen=max(1, recent_cap))

    def record(self, rtrace: RequestTrace, slow: bool = False) -> None:
        """Fold one finished request into every rollup."""
        tree = rtrace.to_span_tree()
        with self._lock:
            self.requests_total += 1
            if rtrace.status == "busy":
                self.busy_total += 1
            elif rtrace.status == "deadline_exceeded":
                self.deadline_total += 1
            elif rtrace.status == "degraded":
                self.degraded_total += 1
            elif rtrace.status not in ("ok", "shutdown"):
                self.errors_total += 1
            if slow:
                self.slow_total += 1
            op_stats = self.by_op.get(rtrace.op)
            if op_stats is None:
                op_stats = self.by_op[rtrace.op] = _OpStats(rtrace.op)
            op_stats.record(rtrace)
            if rtrace.session_id is not None:
                self._roll(
                    self.by_session, rtrace.session_id, rtrace,
                    user=rtrace.user,
                )
            if rtrace.dataset:
                self._roll(self.by_dataset, rtrace.dataset, rtrace)
            self.recent.append(tree)

    def record_io(
        self,
        dataset: str | None,
        rows_scanned: int = 0,
        bytes_scanned: int = 0,
        rows_written: int = 0,
        partition_touches: int = 0,
        heat: float | None = None,
        read_amplification: float | None = None,
    ) -> None:
        """Fold one request's storage-access footprint: daemon-lifetime
        totals plus the per-dataset heat/amplification rollup the
        ``stats`` op and ``orpheus top`` render."""
        with self._lock:
            self.rows_scanned_total += rows_scanned
            self.bytes_scanned_total += bytes_scanned
            self.rows_written_total += rows_written
            self.partition_touches_total += partition_touches
            if not dataset:
                return
            entry = self.by_dataset.get(dataset)
            if entry is None:
                entry = self.by_dataset[dataset] = {
                    "count": 0, "errors": 0, "busy": 0, "total_s": 0.0,
                }
            entry["rows_scanned"] = (
                entry.get("rows_scanned", 0) + rows_scanned
            )
            entry["bytes_scanned"] = (
                entry.get("bytes_scanned", 0) + bytes_scanned
            )
            entry["rows_written"] = (
                entry.get("rows_written", 0) + rows_written
            )
            entry["partition_touches"] = (
                entry.get("partition_touches", 0) + partition_touches
            )
            if heat is not None:
                entry["heat"] = round(heat, 4)
            if read_amplification is not None:
                entry["read_amplification"] = round(read_amplification, 4)

    def _roll(self, table: dict, key, rtrace: RequestTrace, **extra) -> None:
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {
                "count": 0, "errors": 0, "busy": 0, "total_s": 0.0,
            }
            entry.update(extra)
        entry["count"] += 1
        if rtrace.status == "busy":
            entry["busy"] += 1
        elif rtrace.status not in ("ok", "shutdown"):
            entry["errors"] += 1
        entry["total_s"] = round(entry["total_s"] + rtrace.total_s, 6)
        entry["last_op"] = rtrace.op
        entry["last_ts"] = rtrace.started_ts

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def to_dict(self, recent: int = 0) -> dict:
        """The ``stats`` op payload (request up to ``recent`` traces)."""
        with self._lock:
            payload = {
                "started_ts": self.started_ts,
                "uptime_s": round(
                    max(0.0, telemetry.now() - self.started_ts), 3
                ),
                "requests": {
                    "total": self.requests_total,
                    "errors": self.errors_total,
                    "busy": self.busy_total,
                    "deadline_exceeded": self.deadline_total,
                    "degraded": self.degraded_total,
                    "slow": self.slow_total,
                },
                "by_op": {
                    op: stats.to_dict()
                    for op, stats in sorted(self.by_op.items())
                },
                "by_session": {
                    str(sid): dict(entry)
                    for sid, entry in sorted(self.by_session.items())
                },
                "by_dataset": {
                    name: dict(entry)
                    for name, entry in sorted(self.by_dataset.items())
                },
            }
            if recent > 0:
                payload["recent"] = list(self.recent)[-recent:]
            return payload

    def render_prometheus(
        self,
        extra_counters: dict[str, float] | None = None,
        extra_gauges: dict[str, float] | None = None,
    ) -> str:
        """Exposition-format text for the ``/metrics`` endpoint.

        ``extra_counters``/``extra_gauges`` let the daemon fold in
        cache and scheduler state (monotonic for its lifetime) without
        this module knowing their shape.
        """
        with self._lock:
            lines: list[str] = []
            for name, value in (
                ("requests_total", self.requests_total),
                ("errors_total", self.errors_total),
                ("busy_total", self.busy_total),
                ("deadline_exceeded_responses_total", self.deadline_total),
                ("degraded_responses_total", self.degraded_total),
                ("slow_requests_total", self.slow_total),
                *sorted((extra_counters or {}).items()),
            ):
                _prom_scalar(
                    lines, "counter", _prom_name(name, "orpheusd_"), float(value)
                )
            for name, value in sorted((extra_gauges or {}).items()):
                _prom_scalar(
                    lines, "gauge", _prom_name(name, "orpheusd_"), float(value)
                )

            ops = sorted(self.by_op.items())
            if ops:
                for family, attr in (
                    ("orpheusd_op_requests_total", "count"),
                    ("orpheusd_op_errors_total", "errors"),
                ):
                    lines.append(f"# TYPE {family} counter")
                    for op, stats in ops:
                        lines.append(
                            f"{family}{{{_prom_labels({'op': op})}}} "
                            f"{getattr(stats, attr)}"
                        )
                lines.append("# TYPE orpheusd_request_seconds summary")
                for op, stats in ops:
                    lines.extend(
                        _prom_summary(
                            "orpheusd_request_seconds",
                            stats.latency.summary(),
                            {"op": op},
                        )
                    )
                lines.append("# TYPE orpheusd_phase_seconds summary")
                for op, stats in ops:
                    for phase in PHASES:
                        histogram = stats.phases[phase]
                        if histogram.count:
                            lines.extend(
                                _prom_summary(
                                    "orpheusd_phase_seconds",
                                    histogram.summary(),
                                    {"op": op, "phase": phase},
                                )
                            )
            return "\n".join(lines) + "\n"

