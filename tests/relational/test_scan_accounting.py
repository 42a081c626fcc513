"""Scan cost accounting: one charge per scan, equal to the per-row sum.

``Table.scan`` counts the rows it yields and charges them in one
``charge_seq_scan`` when it ends, taking the bytes from the cached live
total ``_scan_bytes``. These tests pin that the totals are exactly what
charging ``schema.row_bytes`` row by row gives, across every data model,
both state layouts and every mutation that touches the cache; that a
partial scan pays only for the rows it yielded; and that a checkout's
bookkeeping calls do not grow with its row count.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro import telemetry
from repro.core.commands import Orpheus
from repro.pagestore.bufferpool import reset_pool
from repro.relational import costs
from repro.relational.expressions import col, lit
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Table
from repro.relational.types import BOOL, FLOAT, INT, INT_ARRAY, TEXT
from repro.resilience.statestore import StateStore

MODELS = [
    "split_by_rlist",
    "split_by_vlist",
    "table_per_version",
    "combined_table",
    "delta_based",
    "partitioned_rlist",
]

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)],
    primary_key=("key",),
)


@pytest.fixture(autouse=True)
def clean_globals(monkeypatch):
    monkeypatch.delenv("ORPHEUS_STATE_LAYOUT", raising=False)
    monkeypatch.delenv("ORPHEUS_PAGE_BYTES", raising=False)
    monkeypatch.delenv("ORPHEUS_BUFFER_BYTES", raising=False)
    reset_pool()
    telemetry.reset()
    telemetry.enable()
    yield
    reset_pool()
    telemetry.reset()
    telemetry.disable()


def per_row_scan(self):
    """The reference: charge each row just before it is yielded."""
    for _slot, row in self._iter_slots():
        self.accountant.charge_seq_scan(1, self.schema.row_bytes(row))
        yield row


def io_counters() -> dict[str, float]:
    return {
        name: value
        for name, value in telemetry.snapshot().counters.items()
        if name.startswith("storage.io.")
    }


def assert_cache_exact(orpheus) -> None:
    for table in orpheus.database:
        if table.paged_out or table._scan_bytes is None:
            continue
        assert table._scan_bytes == table._live_bytes(table._rows), table.name


def checkout_all(orpheus, name: str, out: list) -> None:
    """Check out every version, recording each one's cost and
    ``storage.io.*`` deltas."""
    accountant = orpheus.database.accountant
    cvd = orpheus.cvd(name)
    for vid in sorted(cvd.versions.vids()):
        before, io_before = accountant.snapshot(), io_counters()
        rows = sorted(cvd.checkout(vid).rows, key=repr)
        io_after = io_counters()
        out.append(
            (
                vid,
                len(rows),
                accountant.snapshot() - before,
                {
                    key: io_after[key] - io_before.get(key, 0)
                    for key in io_after
                    if io_after[key] != io_before.get(key, 0)
                },
            )
        )
        assert_cache_exact(orpheus)


def run_history(model: str, layout: str, root) -> list:
    """Insert, delete, UPDATE, ADD COLUMN, widen, vacuum, a reload and
    a schema-changing commit after it, checking out every version after
    each step."""
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    rows = [(f"k{i:03d}", i) for i in range(40)]
    orpheus.init("ds", SCHEMA, rows, model=model)
    cvd = orpheus.cvd("ds")
    out: list = []
    checkout_all(orpheus, "ds", out)

    rows = rows + [(f"n{i:03d}", 1000 + i) for i in range(15)]
    cvd.commit(rows, parents=(1,), message="insert", author="alice")
    checkout_all(orpheus, "ds", out)

    rows = [row for row in rows if row[1] % 3]
    cvd.commit(rows, parents=(2,), message="delete", author="alice")
    checkout_all(orpheus, "ds", out)

    noted = [row + (f"note {row[1]}" if row[1] % 2 else None,) for row in rows]
    cvd.commit(
        noted, parents=(3,), message="add column", author="alice",
        columns=["key", "value", "note"], column_types={"note": TEXT},
    )
    checkout_all(orpheus, "ds", out)

    widened = [(key, value + 0.5, note) for key, value, note in noted]
    cvd.commit(
        widened, parents=(4,), message="widen", author="alice",
        columns=["key", "value", "note"], column_types={"value": FLOAT},
    )
    checkout_all(orpheus, "ds", out)

    for table in orpheus.database:
        table.vacuum()
    checkout_all(orpheus, "ds", out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("ORPHEUS_STATE_LAYOUT", layout)
        StateStore(root).save(orpheus)
    reset_pool()
    reloaded, info = StateStore(root).load(warn=None)
    assert info.paged == (layout == "paged")
    checkout_all(reloaded, "ds", out)
    checkout_all(reloaded, "ds", out)  # second pass: cache warm

    tagged = [row + (row[1] > 20,) for row in widened + [("z001", 7.25, "late")]]
    reloaded.cvd("ds").commit(
        tagged, parents=(5,), message="after reload", author="alice",
        columns=["key", "value", "note", "big"],
        column_types={"big": BOOL},
    )
    checkout_all(reloaded, "ds", out)
    return out


@pytest.mark.parametrize("layout", ["pickle", "paged"])
@pytest.mark.parametrize("model", MODELS)
def test_checkout_costs_equal_per_row_reference(
    tmp_path, monkeypatch, model, layout
):
    batched = run_history(model, layout, tmp_path / "batched")
    reset_pool()
    telemetry.reset()
    with monkeypatch.context() as patch:
        patch.setattr(Table, "scan", per_row_scan)
        reference = run_history(model, layout, tmp_path / "reference")
    assert len(batched) == len(reference) > 0
    for got, want in zip(batched, reference):
        assert got == want
    assert any(cost.seq_rows for _vid, _n, cost, _io in batched)


# ----------------------------------------------------------------------
# Single tables
# ----------------------------------------------------------------------
def make_table(n: int = 10) -> Table:
    table = Table(
        "t",
        Schema(
            [ColumnDef("id", INT), ColumnDef("name", TEXT),
             ColumnDef("tags", INT_ARRAY)],
            primary_key=("id",),
        ),
    )
    for i in range(n):
        table.insert((i, "x" * i, list(range(i % 4))))
    return table


def row_bytes(table: Table, rows) -> int:
    return sum(table.schema.row_bytes(row) for row in rows)


def charged(table: Table, action):
    before = table.accountant.snapshot()
    result = action()
    gc.collect()
    delta = table.accountant.snapshot() - before
    return result, delta.seq_rows, delta.bytes_read


def test_full_scan_charges_live_rows_and_bytes():
    table = make_table()
    table.delete_at(3)
    rows, seq_rows, nbytes = charged(table, lambda: list(table.scan()))
    assert seq_rows == len(rows) == 9
    assert nbytes == row_bytes(table, rows)


def test_first_where_charges_rows_up_to_the_match():
    table = make_table()
    row, seq_rows, nbytes = charged(
        table, lambda: table.first_where(col("id") == lit(4))
    )
    assert row[0] == 4
    assert seq_rows == 5
    assert nbytes == row_bytes(table, table.rows_snapshot()[:5])


def test_early_break_charges_rows_yielded():
    table = make_table()

    def consume():
        seen = []
        for row in table.scan():
            seen.append(row)
            if len(seen) == 3:
                break
        return seen

    seen, seq_rows, nbytes = charged(table, consume)
    assert seq_rows == 3
    assert nbytes == row_bytes(table, seen)


def test_dropped_generator_charges_rows_yielded():
    table = make_table()
    table.delete_at(0)

    def consume():
        scan = table.scan()
        seen = [next(scan), next(scan)]
        del scan
        return seen

    seen, seq_rows, nbytes = charged(table, consume)
    assert seq_rows == 2
    assert nbytes == row_bytes(table, seen)


def test_unstarted_scan_charges_nothing():
    table = make_table()
    _, seq_rows, nbytes = charged(table, lambda: table.scan())
    assert (seq_rows, nbytes) == (0, 0)


def test_cache_tracks_every_mutation():
    table = make_table()
    assert table._scan_bytes == table._live_bytes(table._rows)
    table.insert((100, "new", [1, 2, 3]))
    table.delete_at(2)
    table.update_where(col("id") == lit(5), {"name": lit("renamed")})
    assert table._scan_bytes == table._live_bytes(table._rows)
    table.vacuum()
    assert table._scan_bytes == table._live_bytes(table._rows)
    table.add_column(ColumnDef("extra", TEXT))
    assert table._scan_bytes is None
    rows, _, nbytes = charged(table, lambda: list(table.scan()))
    assert nbytes == row_bytes(table, rows) == table._scan_bytes
    table.widen_column("id", FLOAT)
    assert table._scan_bytes == table._live_bytes(table._rows) == table._bytes


def test_cache_is_transient():
    table = make_table()
    list(table.scan())
    assert "_scan_bytes" not in table.__getstate__()
    copy = pickle.loads(pickle.dumps(table))
    assert copy._scan_bytes is None
    rows, _, nbytes = charged(copy, lambda: list(copy.scan()))
    assert nbytes == row_bytes(copy, rows)
    assert copy._scan_bytes == nbytes


def test_cache_stays_out_of_the_paged_skeleton(tmp_path, monkeypatch):
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, [(f"k{i}", i) for i in range(20)])
    orpheus.cvd("ds").checkout(1)
    assert any(table._scan_bytes for table in orpheus.database)
    monkeypatch.setenv("ORPHEUS_STATE_LAYOUT", "paged")
    StateStore(tmp_path).save(orpheus)
    reloaded, info = StateStore(tmp_path).load(warn=None)
    assert info.paged
    for table in reloaded.database:
        assert table.paged_out
        assert "_scan_bytes" not in vars(table)


def test_lookup_and_update_charge_once_per_call(monkeypatch):
    table = make_table(20)
    table.create_index("name")
    calls = []
    for name in ("charge_seq_scan", "charge_random_read"):
        original = getattr(costs.CostAccountant, name)

        def counting(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(costs.CostAccountant, name, counting)
    before = table.accountant.snapshot()
    table.update_where(None, {"name": lit("same")})
    assert calls == ["charge_seq_scan"]
    assert (table.accountant.snapshot() - before).seq_rows == 20
    calls.clear()
    before = table.accountant.snapshot()
    rows = table.lookup("name", "same")
    assert len(rows) == 20
    assert calls == ["charge_random_read"]
    delta = table.accountant.snapshot() - before
    assert delta.random_rows == 20
    assert delta.bytes_read == row_bytes(table, rows)


# ----------------------------------------------------------------------
# Guard: bookkeeping per checkout must not grow with its rows
# ----------------------------------------------------------------------
def bookkeeping_calls(monkeypatch, model: str, n_rows: int) -> tuple:
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    rows = [(f"k{i:05d}", i) for i in range(n_rows)]
    orpheus.init("ds", SCHEMA, rows, model=model)
    cvd = orpheus.cvd("ds")
    assert len(cvd.checkout(1).rows) == n_rows  # first scan fills caches
    counts = {"charge_seq_scan": 0, "telemetry.count": 0, "row_bytes": 0}
    original_charge = costs.CostAccountant.charge_seq_scan
    original_count = telemetry.count
    original_row_bytes = Schema.row_bytes

    def charge(self, *args, **kwargs):
        counts["charge_seq_scan"] += 1
        return original_charge(self, *args, **kwargs)

    def count(*args, **kwargs):
        counts["telemetry.count"] += 1
        return original_count(*args, **kwargs)

    def sized(self, row):
        counts["row_bytes"] += 1
        return original_row_bytes(self, row)

    with monkeypatch.context() as patch:
        patch.setattr(costs.CostAccountant, "charge_seq_scan", charge)
        patch.setattr(telemetry, "count", count)
        patch.setattr(Schema, "row_bytes", sized)
        assert len(cvd.checkout(1).rows) == n_rows
    return counts["charge_seq_scan"], counts["telemetry.count"], counts["row_bytes"]


@pytest.mark.parametrize("model", MODELS)
def test_checkout_bookkeeping_is_constant_in_rows(monkeypatch, model):
    small = bookkeeping_calls(monkeypatch, model, 600)
    large = bookkeeping_calls(monkeypatch, model, 6000)
    assert large == small
    charges, counts, sized = large
    assert charges <= 4
    assert counts <= 60
    assert sized <= 2
