"""Golden Prometheus exposition: the daemon's ``/metrics`` text and
``orpheus stats --prometheus`` output are pinned byte for byte.

Both renderers share one set of exposition helpers; these fixed inputs
(exact binary fractions, so float reprs are stable) cover counters,
gauges, name sanitisation, label escaping, labeled and unlabeled
summaries, empty histograms and failed-span summaries.
"""

from __future__ import annotations

import contextlib
import io

from repro.cli import main
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import Request
from repro.service.tracing import RequestTrace
from repro.telemetry.snapshot import Snapshot

EXPECTED_METRICS = r"""
# TYPE orpheusd_requests_total counter
orpheusd_requests_total 6
# TYPE orpheusd_errors_total counter
orpheusd_errors_total 1
# TYPE orpheusd_busy_total counter
orpheusd_busy_total 1
# TYPE orpheusd_deadline_exceeded_responses_total counter
orpheusd_deadline_exceeded_responses_total 1
# TYPE orpheusd_degraded_responses_total counter
orpheusd_degraded_responses_total 1
# TYPE orpheusd_slow_requests_total counter
orpheusd_slow_requests_total 1
# TYPE orpheusd_cache_hits_total counter
orpheusd_cache_hits_total 7
# TYPE orpheusd_page_faults_total counter
orpheusd_page_faults_total 2.5
# TYPE orpheusd_buffer_pool_resident_bytes gauge
orpheusd_buffer_pool_resident_bytes 4096
# TYPE orpheusd_read_queue_depth gauge
orpheusd_read_queue_depth 3
# TYPE orpheusd_op_requests_total counter
orpheusd_op_requests_total{op="checkout"} 2
orpheusd_op_requests_total{op="commit"} 2
orpheusd_op_requests_total{op="ls"} 1
orpheusd_op_requests_total{op="we\"ird\\op"} 1
# TYPE orpheusd_op_errors_total counter
orpheusd_op_errors_total{op="checkout"} 0
orpheusd_op_errors_total{op="commit"} 1
orpheusd_op_errors_total{op="ls"} 0
orpheusd_op_errors_total{op="we\"ird\\op"} 0
# TYPE orpheusd_request_seconds summary
orpheusd_request_seconds{op="checkout",quantile="0.5"} 2.5
orpheusd_request_seconds{op="checkout",quantile="0.95"} 2.5
orpheusd_request_seconds{op="checkout",quantile="0.99"} 2.5
orpheusd_request_seconds_sum{op="checkout"} 3.625
orpheusd_request_seconds_count{op="checkout"} 2
orpheusd_request_seconds{op="commit",quantile="0.5"} 0.875
orpheusd_request_seconds{op="commit",quantile="0.95"} 0.875
orpheusd_request_seconds{op="commit",quantile="0.99"} 0.875
orpheusd_request_seconds_sum{op="commit"} 1.625
orpheusd_request_seconds_count{op="commit"} 2
orpheusd_request_seconds{op="ls",quantile="0.5"} 0.125
orpheusd_request_seconds{op="ls",quantile="0.95"} 0.125
orpheusd_request_seconds{op="ls",quantile="0.99"} 0.125
orpheusd_request_seconds_sum{op="ls"} 0.125
orpheusd_request_seconds_count{op="ls"} 1
orpheusd_request_seconds{op="we\"ird\\op",quantile="0.5"} 0.75
orpheusd_request_seconds{op="we\"ird\\op",quantile="0.95"} 0.75
orpheusd_request_seconds{op="we\"ird\\op",quantile="0.99"} 0.75
orpheusd_request_seconds_sum{op="we\"ird\\op"} 0.75
orpheusd_request_seconds_count{op="we\"ird\\op"} 1
# TYPE orpheusd_phase_seconds summary
orpheusd_phase_seconds{op="checkout",phase="admission",quantile="0.5"} 0.5
orpheusd_phase_seconds{op="checkout",phase="admission",quantile="0.95"} 0.5
orpheusd_phase_seconds{op="checkout",phase="admission",quantile="0.99"} 0.5
orpheusd_phase_seconds_sum{op="checkout",phase="admission"} 0.75
orpheusd_phase_seconds_count{op="checkout",phase="admission"} 2
orpheusd_phase_seconds{op="checkout",phase="queue_wait",quantile="0.5"} 0.25
orpheusd_phase_seconds{op="checkout",phase="queue_wait",quantile="0.95"} 0.25
orpheusd_phase_seconds{op="checkout",phase="queue_wait",quantile="0.99"} 0.25
orpheusd_phase_seconds_sum{op="checkout",phase="queue_wait"} 0.5
orpheusd_phase_seconds_count{op="checkout",phase="queue_wait"} 2
orpheusd_phase_seconds{op="checkout",phase="execute",quantile="0.5"} 1.25
orpheusd_phase_seconds{op="checkout",phase="execute",quantile="0.95"} 1.25
orpheusd_phase_seconds{op="checkout",phase="execute",quantile="0.99"} 1.25
orpheusd_phase_seconds_sum{op="checkout",phase="execute"} 1.75
orpheusd_phase_seconds_count{op="checkout",phase="execute"} 2
orpheusd_phase_seconds{op="checkout",phase="serialize",quantile="0.5"} 0.5
orpheusd_phase_seconds{op="checkout",phase="serialize",quantile="0.95"} 0.5
orpheusd_phase_seconds{op="checkout",phase="serialize",quantile="0.99"} 0.5
orpheusd_phase_seconds_sum{op="checkout",phase="serialize"} 0.625
orpheusd_phase_seconds_count{op="checkout",phase="serialize"} 2
orpheusd_phase_seconds{op="commit",phase="admission",quantile="0.5"} 0.25
orpheusd_phase_seconds{op="commit",phase="admission",quantile="0.95"} 0.25
orpheusd_phase_seconds{op="commit",phase="admission",quantile="0.99"} 0.25
orpheusd_phase_seconds_sum{op="commit",phase="admission"} 0.375
orpheusd_phase_seconds_count{op="commit",phase="admission"} 2
orpheusd_phase_seconds{op="commit",phase="queue_wait",quantile="0.5"} 0.25
orpheusd_phase_seconds{op="commit",phase="queue_wait",quantile="0.95"} 0.25
orpheusd_phase_seconds{op="commit",phase="queue_wait",quantile="0.99"} 0.25
orpheusd_phase_seconds_sum{op="commit",phase="queue_wait"} 0.375
orpheusd_phase_seconds_count{op="commit",phase="queue_wait"} 2
orpheusd_phase_seconds{op="commit",phase="execute",quantile="0.5"} 0.25
orpheusd_phase_seconds{op="commit",phase="execute",quantile="0.95"} 0.25
orpheusd_phase_seconds{op="commit",phase="execute",quantile="0.99"} 0.25
orpheusd_phase_seconds_sum{op="commit",phase="execute"} 0.375
orpheusd_phase_seconds_count{op="commit",phase="execute"} 2
orpheusd_phase_seconds{op="commit",phase="serialize",quantile="0.5"} 0.25
orpheusd_phase_seconds{op="commit",phase="serialize",quantile="0.95"} 0.25
orpheusd_phase_seconds{op="commit",phase="serialize",quantile="0.99"} 0.25
orpheusd_phase_seconds_sum{op="commit",phase="serialize"} 0.5
orpheusd_phase_seconds_count{op="commit",phase="serialize"} 2
orpheusd_phase_seconds{op="ls",phase="admission",quantile="0.5"} 0.0625
orpheusd_phase_seconds{op="ls",phase="admission",quantile="0.95"} 0.0625
orpheusd_phase_seconds{op="ls",phase="admission",quantile="0.99"} 0.0625
orpheusd_phase_seconds_sum{op="ls",phase="admission"} 0.0625
orpheusd_phase_seconds_count{op="ls",phase="admission"} 1
orpheusd_phase_seconds{op="ls",phase="serialize",quantile="0.5"} 0.0625
orpheusd_phase_seconds{op="ls",phase="serialize",quantile="0.95"} 0.0625
orpheusd_phase_seconds{op="ls",phase="serialize",quantile="0.99"} 0.0625
orpheusd_phase_seconds_sum{op="ls",phase="serialize"} 0.0625
orpheusd_phase_seconds_count{op="ls",phase="serialize"} 1
orpheusd_phase_seconds{op="we\"ird\\op",phase="admission",quantile="0.5"} 0.5
orpheusd_phase_seconds{op="we\"ird\\op",phase="admission",quantile="0.95"} 0.5
orpheusd_phase_seconds{op="we\"ird\\op",phase="admission",quantile="0.99"} 0.5
orpheusd_phase_seconds_sum{op="we\"ird\\op",phase="admission"} 0.5
orpheusd_phase_seconds_count{op="we\"ird\\op",phase="admission"} 1
orpheusd_phase_seconds{op="we\"ird\\op",phase="serialize",quantile="0.5"} 0.25
orpheusd_phase_seconds{op="we\"ird\\op",phase="serialize",quantile="0.95"} 0.25
orpheusd_phase_seconds{op="we\"ird\\op",phase="serialize",quantile="0.99"} 0.25
orpheusd_phase_seconds_sum{op="we\"ird\\op",phase="serialize"} 0.25
orpheusd_phase_seconds_count{op="we\"ird\\op",phase="serialize"} 1
"""[1:]

EXPECTED_STATS = r"""
# TYPE repro_9lives counter
repro_9lives 1
# TYPE repro_cli_commands counter
repro_cli_commands 12
# TYPE repro_storage_io_bytes_read counter
repro_storage_io_bytes_read 1536.5
# TYPE repro_pool_resident gauge
repro_pool_resident 2048
# TYPE repro_ratio gauge
repro_ratio 0.125
# TYPE repro_csv_rows summary
repro_csv_rows{quantile="0.5"} 20.0
repro_csv_rows{quantile="0.95"} 30.0
repro_csv_rows{quantile="0.99"} 30.0
repro_csv_rows_sum 60.0
repro_csv_rows_count 3
# TYPE repro_empty summary
repro_empty_sum 0.0
repro_empty_count 0
# TYPE repro_span_cli_checkout_seconds summary
repro_span_cli_checkout_seconds{quantile="0.5"} 0.125
repro_span_cli_checkout_seconds{quantile="0.95"} 0.5
repro_span_cli_checkout_seconds{quantile="0.99"} 0.5
repro_span_cli_checkout_seconds_sum 0.75
repro_span_cli_checkout_seconds_count 3
# TYPE repro_span_cli_checkout_failed_seconds summary
repro_span_cli_checkout_failed_seconds{quantile="0.5"} 0.0625
repro_span_cli_checkout_failed_seconds{quantile="0.95"} 0.0625
repro_span_cli_checkout_failed_seconds{quantile="0.99"} 0.0625
repro_span_cli_checkout_failed_seconds_sum 0.0625
repro_span_cli_checkout_failed_seconds_count 1
# TYPE repro_span_cli_checkout_errors counter
repro_span_cli_checkout_errors 1
# TYPE repro_span_cli_init_seconds summary
repro_span_cli_init_seconds{quantile="0.5"} 0.25
repro_span_cli_init_seconds{quantile="0.95"} 0.25
repro_span_cli_init_seconds{quantile="0.99"} 0.25
repro_span_cli_init_seconds_sum 0.25
repro_span_cli_init_seconds_count 1
# TYPE repro_span_cli_init_errors counter
repro_span_cli_init_errors 0
"""[1:]


def _trace(op, status, marks, error_type=None):
    """A finished trace with fixed phase marks (t0 = 10 s)."""
    rtrace = RequestTrace.from_request(
        Request(op=op, params={"dataset": "inter"}), session=None
    )
    rtrace.session_id = 1
    rtrace.t0 = 10.0
    names = ("t_admitted", "t_started", "t_executed", "t_sent")
    for name, value in zip(names, marks):
        setattr(rtrace, name, value)
    rtrace.finish(status, error_type)
    return rtrace


def _hist(values):
    """A histogram summary of a few samples (p95 = p99 = max below 20)."""
    ordered = sorted(values)
    return {
        "count": len(values), "total": sum(values),
        "min": ordered[0], "max": ordered[-1],
        "p50": ordered[len(ordered) // 2],
        "p95": ordered[-1], "p99": ordered[-1],
        "values": list(values), "stride": 1,
    }


def test_service_metrics_exposition_is_pinned():
    metrics = ServiceMetrics()
    metrics.record(_trace("checkout", "ok", (10.25, 10.5, 11.0, 11.125)))
    metrics.record(_trace("checkout", "ok", (10.5, 10.75, 12.0, 12.5)))
    metrics.record(
        _trace("commit", "error", (10.125, 10.25, 10.5, 10.75), "ValueError"),
        slow=True,
    )
    metrics.record(
        _trace("ls", "busy", (10.0625, None, None, 10.125), "QueueFullError")
    )
    metrics.record(
        _trace('we"ird\\op', "deadline_exceeded", (10.5, None, None, 10.75))
    )
    metrics.record(_trace("commit", "degraded", (10.25, 10.5, 10.625, 10.875)))
    text = metrics.render_prometheus(
        extra_counters={"cache_hits_total": 7, "page.faults-total": 2.5},
        extra_gauges={
            "read_queue_depth": 3,
            "buffer_pool_resident_bytes": 4096.0,
        },
    )
    assert text == EXPECTED_METRICS


def test_stats_prometheus_output_is_pinned(tmp_path):
    snapshot = Snapshot(
        counters={
            "cli.commands": 12,
            "storage.io.bytes_read": 1536.5,
            "9lives": 1,
        },
        gauges={"pool.resident": 2048.0, "ratio": 0.125},
        histograms={
            "csv.rows": _hist([10.0, 20.0, 30.0]),
            "empty": {
                "count": 0, "total": 0.0, "min": None, "max": None,
                "p50": None, "p95": None, "p99": None,
                "values": [], "stride": 1,
            },
        },
        spans={
            "cli.checkout": {
                "count": 4,
                "errors": 1,
                "seconds": _hist([0.125, 0.125, 0.5]),
                "failed_seconds": _hist([0.0625]),
            },
            "cli.init": {
                "count": 1, "errors": 0, "seconds": _hist([0.25]),
            },
        },
    )
    (tmp_path / ".orpheus").mkdir()
    (tmp_path / ".orpheus" / "telemetry.json").write_text(snapshot.to_json())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--root", str(tmp_path), "stats", "--prometheus"]) == 0
    assert out.getvalue() == EXPECTED_STATS
