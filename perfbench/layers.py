"""Per-layer metrics from a traced run.

Times are mean milliseconds per op of the traced window (an op is one
CLI invocation or one daemon request), so the layers of one workload
add up: ``trace.unattributed_ms`` is what the caller saw minus every
attributed part. "self" excludes the time of timed calls nested inside;
``partition.*`` and ``relational.scan`` are inclusive, as their
entry points name a whole access path.
"""

from __future__ import annotations

#: (metric, kind, span name); kind is "self" or "total".
SPAN_TIMES = [
    ("cli.self_ms", "self", "cli.main"),
    ("resilience.recover_ms", "total", "resilience.recover"),
    ("resilience.lock_wait_ms", "total", "resilience.lock_wait"),
    ("resilience.load_ms", "self", "resilience.load"),
    ("resilience.save_ms", "self", "resilience.save"),
    ("pagestore.load_ms", "self", "pagestore.load"),
    ("pagestore.fault_ms", "self", "pagestore.fault"),
    ("pagestore.decode_ms", "self", "pagestore.decode"),
    ("pagestore.save_ms", "self", "pagestore.save"),
    ("core.checkout_ms", "self", "core.checkout"),
    ("core.commit_ms", "self", "core.commit"),
    ("core.csv_ms", "self", "core.csv"),
    ("models.checkout_ms", "self", "models.checkout"),
    ("models.commit_ms", "self", "models.commit"),
    ("partition.checkout_ms", "total", "partition.checkout"),
    ("partition.commit_ms", "total", "partition.commit"),
    ("relational.scan_ms", "total", "relational.scan"),
    ("relational.join_ms", "self", "relational.join"),
    ("observe.journal_ms", "self", "observe.journal"),
    ("observe.heat_ms", "self", "observe.heat"),
    ("telemetry.save_ms", "self", "telemetry.save"),
    ("service.decode_ms", "self", "service.decode"),
    ("service.cache_lookup_ms", "self", "service.cache_lookup"),
    ("service.serialize_ms", "self", "service.serialize"),
    ("service.send_ms", "self", "service.send"),
    ("service.recorder_ms", "self", "service.recorder"),
]

def merge(summaries) -> dict:
    """Sum per-process summaries (spans, counts, registry deltas)."""
    out = {"spans": {}, "counts": {}, "registry": {}, "root_ns": 0}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            slot = out["spans"].setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in slot:
                slot[key] += entry[key]
        for part in ("counts", "registry"):
            for name, value in summary[part].items():
                out[part][name] = out[part].get(name, 0) + value
        out["root_ns"] += summary.get("root_ns", 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(merged: dict, ops: int, reads: int, writes: int, extra: dict,
            names) -> tuple[dict, list[str]]:
    """Metric name -> value for each of ``names`` (the per-layer metrics
    of ``BENCHMARK.json``), plus the names absent on this workload (no
    call reached their entry point). ``extra`` carries what only the
    workload knows: client-side and daemon-stats figures and the
    unattributed remainder."""
    spans, counts, reg = merged["spans"], merged["counts"], merged["registry"]
    values: dict[str, float] = {}
    absent: list[str] = []
    for metric, kind, span in SPAN_TIMES:
        entry = spans.get(span)
        if not entry or not entry["calls"]:
            absent.append(metric)
            values[metric] = 0.0
            continue
        values[metric] = entry[f"{kind}_ns"] / 1e6 / max(ops, 1)
    values["resilience.fsyncs_per_op"] = _ratio(counts.get("resilience.fsyncs", 0), ops)
    values["resilience.bytes_read_per_op"] = _ratio(reg.get("storage.io.state_bytes_read", 0), ops)
    values["resilience.bytes_written_per_op"] = _ratio(
        counts.get("resilience.state_bytes_written", 0)
        + reg.get("storage.io.page_bytes_written", 0),
        ops,
    )
    values["pagestore.segments_faulted_per_op"] = _ratio(reg.get("pagestore.segment_faults", 0), ops)
    values["pagestore.page_bytes_read_per_op"] = _ratio(reg.get("storage.io.page_bytes_read", 0), ops)
    values["pagestore.pages_written_per_op"] = _ratio(reg.get("pagestore.pages_written", 0), ops)
    hits, faults = reg.get("pagestore.pool.hits", 0), reg.get("pagestore.pool.faults", 0)
    values["pagestore.pool_hit_ratio"] = _ratio(hits, hits + faults)
    values["core.rows_returned_per_read"] = _ratio(counts.get("core.rows_returned", 0), reads)
    values["partition.migrations_per_write"] = _ratio(
        spans.get("partition.migrate", {}).get("calls", 0), writes
    )
    values["partition.rows_scanned_per_row_returned"] = _ratio(
        counts.get("partition.rows_scanned", 0), counts.get("partition.rows_returned", 0)
    )
    values["relational.rows_scanned_per_row_returned"] = _ratio(
        counts.get("relational.rows_scanned", 0), counts.get("core.rows_returned", 0)
    )
    for name in names:
        if name not in values:
            if name in extra:
                values[name] = float(extra[name])
            else:
                values[name] = 0.0
                absent.append(name)
    return values, absent
