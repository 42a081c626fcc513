"""The timed entry points of each layer, installed into a traced
process (a CLI subprocess or the daemon) by its bootstrap.

Span names are ``<layer>.<what>``; :mod:`layers` turns them into the
per-layer metrics. Plain counters recorded here (fsync calls, state
bytes written, rows scanned and returned) complement the counters the
program already keeps in its telemetry registry, which are read, not
changed.
"""

from __future__ import annotations

import os
import threading

from spans import Recorder, after_import, patch_function, patch_method

#: Program counters read (as deltas) from the telemetry registry.
REGISTRY_COUNTERS = (
    "storage.io.state_bytes_read",
    "storage.io.page_bytes_read",
    "storage.io.page_bytes_written",
    "storage.io.seq_rows",
    "storage.io.random_rows",
    "pagestore.segment_faults",
    "pagestore.pages_written",
    "pagestore.pool.hits",
    "pagestore.pool.faults",
    "partition.migration.partitions_rebuilt",
)

_scanned = threading.local()


def _rows_scanned_here() -> int:
    return getattr(_scanned, "rows", 0)


def install(recorder: Recorder, daemon: bool) -> None:
    """Arrange for every timed entry point to be patched when the
    program first imports its module (see :func:`spans.after_import`)."""
    # Counting hooks run inside the span of the call they observe.
    def with_result(fn, on_result):
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return hooked

    real_fsync = os.fsync

    def counted_fsync(fd):
        recorder.add("resilience.fsyncs")
        return real_fsync(fd)

    os.fsync = counted_fsync

    def on(name):
        def register(patch):
            after_import(name, patch)
            return patch

        return register

    @on("repro.resilience.recovery")
    def _(mod):
        patch_function(recorder, mod, "run_recovery", "resilience.recover")

    @on("repro.resilience.intents")
    def _(mod):
        patch_function(recorder, mod, "has_pending_intents", "resilience.recover")

    @on("repro.resilience.lock")
    def _(mod):
        patch_method(recorder, mod.RepositoryLock, "acquire", "resilience.lock_wait")

    @on("repro.resilience.statestore")
    def _(mod):
        store = mod.StateStore
        save_bytes = store.save_bytes

        def counted_save_bytes(self, payload, *args, **kwargs):
            recorder.add("resilience.state_bytes_written", len(payload))
            return save_bytes(self, payload, *args, **kwargs)

        store.save_bytes = counted_save_bytes
        patch_method(recorder, store, "load", "resilience.load")
        patch_method(recorder, store, "save", "resilience.save")

    @on("repro.pagestore.store")
    def _(mod):
        patch_function(recorder, mod, "paged_load", "pagestore.load")
        patch_function(recorder, mod, "paged_save", "pagestore.save")
        patch_method(recorder, mod.PageStore, "read_segment", "pagestore.fault")

    @on("repro.pagestore.codec")
    def _(mod):
        patch_function(recorder, mod, "decode_segment", "pagestore.decode")

    @on("repro.core.cvd")
    def _(mod):
        cvd = mod.CVD
        cvd.checkout = recorder.wrap(
            "core.checkout",
            with_result(
                cvd.checkout, lambda r: recorder.add("core.rows_returned", len(r.rows))
            ),
        )
        patch_method(recorder, cvd, "commit", "core.commit")

    @on("repro.core.csvio")
    def _(mod):
        patch_function(recorder, mod, "read_csv", "core.csv")
        patch_function(recorder, mod, "write_csv", "core.csv")

    @on("repro.core.models")
    def _(mod):
        for model in mod.DATA_MODELS.values():
            if "checkout_rids" in model.__dict__:
                patch_method(recorder, model, "checkout_rids", "models.checkout")
            if "commit_version" in model.__dict__:
                patch_method(recorder, model, "commit_version", "models.commit")

    @on("repro.partition.partitioned_store")
    def _(mod):
        # rows returned and rows scanned beneath each checkout
        store = mod.PartitionedRlistStore
        part_checkout = store.checkout_rids

        def partition_checkout(self, vid):
            before = _rows_scanned_here()
            rows = part_checkout(self, vid)
            recorder.add("partition.rows_returned", len(rows))
            recorder.add("partition.rows_scanned", _rows_scanned_here() - before)
            return rows

        store.checkout_rids = recorder.wrap("partition.checkout", partition_checkout)
        patch_method(recorder, store, "commit_version", "partition.commit")
        patch_method(recorder, store, "_migrate_to", "partition.migrate")

    @on("repro.relational.table")
    def _(mod):
        def scanned(rows: int) -> None:
            recorder.add("relational.rows_scanned", rows)
            _scanned.rows = _rows_scanned_here() + rows

        table = mod.Table
        table.scan = recorder.wrap_generator("relational.scan", table.scan, on_rows=scanned)

    @on("repro.relational.joins")
    def _(mod):
        patch_function(recorder, mod, "hash_join", "relational.join")

    @on("repro.observe.journal")
    def _(mod):
        patch_method(recorder, mod.Journal, "append", "observe.journal")

    @on("repro.observe.heat")
    def _(mod):
        for attr in ("load", "record", "save"):
            patch_method(recorder, mod.HeatAccountant, attr, "observe.heat")

    @on("repro.cli")
    def _(mod):
        patch_function(recorder, mod, "_fold_heat_cli", "observe.heat")
        patch_function(recorder, mod, "save_telemetry", "telemetry.save")

    if not daemon:
        return

    @on("repro.service.daemon")
    def _(mod):
        patch_method(recorder, mod.ServiceDaemon, "_fold_heat", "observe.heat")

    @on("repro.service.cache")
    def _(mod):
        patch_method(recorder, mod.VersionCache, "get", "service.cache_lookup")

    @on("repro.service.protocol")
    def _(mod):
        patch_function(recorder, mod, "decode_request", "service.decode")
        patch_function(recorder, mod, "encode", "service.serialize")
        patch_method(recorder, mod.LineChannel, "send", "service.send")

    @on("repro.service.recorder")
    def _(mod):
        patch_method(recorder, mod.FlightRecorder, "record", "service.recorder")


def registry_counters() -> dict[str, float]:
    from repro import telemetry

    registry = telemetry.get_registry()
    return {name: registry.counter_value(name) for name in REGISTRY_COUNTERS}
