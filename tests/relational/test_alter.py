"""Tests for ALTER TABLE support (schema evolution's physical layer)."""

import pytest

from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Table
from repro.relational.types import FLOAT, INT, TEXT


@pytest.fixture
def table() -> Table:
    schema = Schema(
        [ColumnDef("id", INT), ColumnDef("n", INT)], primary_key=("id",)
    )
    t = Table("t", schema)
    t.insert((1, 10))
    t.insert((2, 20))
    return t


class TestAddColumn:
    def test_existing_rows_read_null(self, table):
        table.add_column(ColumnDef("extra", TEXT))
        assert table.lookup("id", 1) == [(1, 10, None)]

    def test_new_rows_use_full_arity(self, table):
        table.add_column(ColumnDef("extra", TEXT))
        table.insert((3, 30, "x"))
        assert table.lookup("id", 3) == [(3, 30, "x")]

    def test_old_arity_insert_rejected_after_alter(self, table):
        table.add_column(ColumnDef("extra", TEXT))
        with pytest.raises(Exception):
            table.insert((4, 40))

    def test_scan_consistent_after_alter(self, table):
        table.add_column(ColumnDef("extra", TEXT))
        rows = list(table.scan())
        assert all(len(row) == 3 for row in rows)


class TestWidenColumn:
    def test_int_values_coerced_to_float(self, table):
        table.widen_column("n", FLOAT)
        value = table.lookup("id", 1)[0][1]
        assert value == 10.0
        assert isinstance(value, float)

    def test_widen_then_insert_float(self, table):
        table.widen_column("n", FLOAT)
        table.insert((3, 3.5))
        assert table.lookup("id", 3) == [(3, 3.5)]

    def test_widening_is_monotone(self, table):
        table.widen_column("n", FLOAT)
        # Widening "back" to INT keeps FLOAT (generalize, never narrow).
        table.widen_column("n", INT)
        assert table.schema.dtype_of("n") is FLOAT

    def test_null_values_survive(self, table):
        table.add_column(ColumnDef("maybe", INT))
        table.widen_column("maybe", FLOAT)
        assert table.lookup("id", 1)[0][2] is None

    def test_indexes_still_work_after_alter(self, table):
        table.create_index("n")
        table.widen_column("n", FLOAT)
        table.add_column(ColumnDef("tag", TEXT))
        assert table.lookup("id", 2)[0][1] == 20.0

    @pytest.mark.parametrize("dtype", [FLOAT, TEXT])
    def test_storage_bytes_follow_widening(self, dtype):
        schema = Schema(
            [ColumnDef("id", INT), ColumnDef("n", INT)], primary_key=("id",)
        )
        t = Table("t", schema)
        t.insert((1, 12345))
        t.widen_column("n", dtype)
        per_row = sum(t.schema.row_bytes(row) for row in t.rows_snapshot())
        # text "12345" is 6 bytes and decimal 8, against integer's 4
        assert per_row == 4 + (6 if dtype is TEXT else 8)
        assert t.storage_bytes(include_indexes=False) == per_row
