"""Device-independent cost accounting.

Wall-clock time on a laptop is noisy and incomparable with the paper's
workstation numbers, so every physical operator in the engine also reports
its work to a :class:`CostAccountant`: rows scanned sequentially, rows
fetched by random access, rows written, index probes, and bytes touched.
Benchmarks report both wall-clock and these counters; the counters are what
make the Figure 5.7 cost-model validation deterministic.

Every charge is mirrored into the process telemetry registry under the
``storage.io.*`` counter family, so the accumulated
``.orpheus/telemetry.json`` (and therefore ``orpheus stats``) carries
*lifetime* I/O totals across invocations — not just the per-EXPLAIN
snapshots a single command sees. While telemetry is disabled (the
default for embedding programs) the mirror costs one branch per charge.

Charges are made per operator call, not per row. ``Table.scan`` counts
the rows it yields and charges them once, when the scan is exhausted or
closed; a partial scan (``first_where``, an early ``break``, a dropped
generator) is charged at close for exactly the rows it yielded. Its
bytes come from the table's ``_scan_bytes``, the exact
``Schema.row_bytes`` sum over its live rows, which inserts, deletes and
updates keep current and which is never persisted. Index lookups and
``update_where`` likewise make one charge per call. The totals are the
ones a per-row charge gives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry


@dataclass(frozen=True)
class CostSnapshot:
    """An immutable point-in-time copy of the accountant's counters."""

    seq_rows: int
    random_rows: int
    rows_written: int
    index_probes: int
    bytes_read: int
    bytes_written: int
    page_reads: int = 0
    page_writes: int = 0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            self.seq_rows - other.seq_rows,
            self.random_rows - other.random_rows,
            self.rows_written - other.rows_written,
            self.index_probes - other.index_probes,
            self.bytes_read - other.bytes_read,
            self.bytes_written - other.bytes_written,
            self.page_reads - other.page_reads,
            self.page_writes - other.page_writes,
        )

    def total_rows_read(self) -> int:
        return self.seq_rows + self.random_rows

    def weighted_io(self, random_penalty: float = 10.0) -> float:
        """A single scalar cost: random accesses cost ``random_penalty``
        times a sequential row touch, mirroring rotating-disk economics
        that drive the paper's checkout-cost analysis (Section 5.5.5)."""
        return self.seq_rows + random_penalty * self.random_rows


class CostAccountant:
    """Mutable counters that physical operators charge work against."""

    def __init__(self) -> None:
        self.seq_rows = 0
        self.random_rows = 0
        self.rows_written = 0
        self.index_probes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.page_reads = 0
        self.page_writes = 0

    def charge_seq_scan(self, rows: int, row_bytes: int = 0) -> None:
        self.seq_rows += rows
        self.bytes_read += row_bytes
        telemetry.count("storage.io.seq_rows", rows)
        if row_bytes:
            telemetry.count("storage.io.bytes_read", row_bytes)

    def charge_random_read(self, rows: int = 1, row_bytes: int = 0) -> None:
        self.random_rows += rows
        self.bytes_read += row_bytes
        telemetry.count("storage.io.random_rows", rows)
        if row_bytes:
            telemetry.count("storage.io.bytes_read", row_bytes)

    def charge_write(self, rows: int, row_bytes: int = 0) -> None:
        self.rows_written += rows
        self.bytes_written += row_bytes
        telemetry.count("storage.io.rows_written", rows)
        if row_bytes:
            telemetry.count("storage.io.bytes_written", row_bytes)

    def charge_index_probe(self, probes: int = 1) -> None:
        self.index_probes += probes
        telemetry.count("storage.io.index_probes", probes)

    def charge_page_read(self, pages: int, page_bytes: int = 0) -> None:
        """A buffer-pool fault: whole pages read from disk. Folds into
        ``bytes_read`` so the amplification report sees real page I/O."""
        self.page_reads += pages
        self.bytes_read += page_bytes
        telemetry.count("storage.io.page_reads", pages)
        if page_bytes:
            telemetry.count("storage.io.page_bytes_read", page_bytes)
            telemetry.count("storage.io.bytes_read", page_bytes)

    def charge_page_write(self, pages: int, page_bytes: int = 0) -> None:
        """Dirty-page write-back during a paged save."""
        self.page_writes += pages
        self.bytes_written += page_bytes
        telemetry.count("storage.io.page_writes", pages)
        if page_bytes:
            telemetry.count("storage.io.page_bytes_written", page_bytes)
            telemetry.count("storage.io.bytes_written", page_bytes)

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(
            self.seq_rows,
            self.random_rows,
            self.rows_written,
            self.index_probes,
            self.bytes_read,
            self.bytes_written,
            self.page_reads,
            self.page_writes,
        )

    def reset(self) -> None:
        self.seq_rows = 0
        self.random_rows = 0
        self.rows_written = 0
        self.index_probes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.page_reads = 0
        self.page_writes = 0
