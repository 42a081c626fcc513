"""The heap table: rows, constraints, indexes, and cost-charged access."""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.relational.costs import CostAccountant
from repro.relational.errors import DuplicateKeyError
from repro.relational.expressions import Expression
from repro.relational.index import HashIndex, OrderedIndex
from repro.relational.schema import Schema

Row = tuple[object, ...]


class ClusterOrder(enum.Enum):
    """Physical ordering of the heap.

    Section 5.5.5 distinguishes a data table *clustered on rid* from one
    clustered on the relation primary key; the clustering determines
    whether an index scan on ``rid`` degrades into random I/O.
    """

    INSERTION = "insertion"
    RID = "rid"
    PRIMARY_KEY = "primary_key"


class Table:
    """An append-mostly heap of tuples with optional indexes.

    Deleted rows leave tombstoned slots (``None``) so that index entries
    stay position-stable; :meth:`vacuum` compacts when needed.
    """

    #: ``sum(schema.row_bytes(row))`` over the live rows in their
    #: in-memory form, or ``None`` until the next completed scan
    #: computes it. Transient: never pickled, never in the paged
    #: skeleton, reset whenever rows may change form. This class-level
    #: ``None`` is what unpickled and paged-loaded tables read.
    _scan_bytes: int | None = None

    def __init__(
        self,
        name: str,
        schema: Schema,
        accountant: CostAccountant | None = None,
        enforce_primary_key: bool = True,
        cluster_order: ClusterOrder = ClusterOrder.INSERTION,
    ) -> None:
        self.name = name
        self.schema = schema
        self.accountant = accountant or CostAccountant()
        self.enforce_primary_key = enforce_primary_key and bool(schema.primary_key)
        self.cluster_order = cluster_order
        self._rows: list[Row | None] = []
        self._live_count = 0
        self._bytes = 0
        self._scan_bytes = 0
        self._pk_index: HashIndex | None = (
            HashIndex() if self.enforce_primary_key else None
        )
        self._secondary: dict[str, HashIndex] = {}
        self._ordered: dict[str, OrderedIndex] = {}
        # Paged-layout plumbing: a write-version stamp (bumped by every
        # mutator; lets a save skip re-encoding untouched tables), and a
        # pager set by the paged loader in place of _rows/_indexes.
        self._stamp = 0
        self._pager = None
        self._saved_ref = None
        self._saved_stamp = -1

    # ------------------------------------------------------------------
    # Paged loading
    # ------------------------------------------------------------------
    def _ensure_page_load(self) -> None:
        """Fault in this table's row segment if it is still paged out.

        Every row-touching entry point gates through here; metadata
        reads (``len``, ``row_count``, ``has_index``, ``schema``) answer
        from the skeleton without any I/O.
        """
        pager = self._pager
        if pager is None:
            return
        self._pager = None  # block re-entry from index rebuild below
        try:
            rows = pager.load(self.accountant)
            self._rows = rows
            self._scan_bytes = None  # decoded rows may change form
            if pager.index_spec.get("pk") and self.enforce_primary_key:
                pk_index = HashIndex()
                for slot, row in enumerate(rows):
                    if row is not None:
                        pk_index.add(self.schema.key_of(row), slot)
                self._pk_index = pk_index
            else:
                self._pk_index = None
            self._secondary = {}
            self._ordered = {}
            for column in pager.index_spec.get("secondary", ()):
                self.create_index(column, ordered=False)
            for column in pager.index_spec.get("ordered", ()):
                self.create_index(column, ordered=True)
        except BaseException:
            self._pager = pager  # stay paged-out; retry can succeed
            raise

    @property
    def paged_out(self) -> bool:
        """True while the row segment has not been faulted in."""
        return self._pager is not None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    @property
    def row_count(self) -> int:
        return self._live_count

    def storage_bytes(self, include_indexes: bool = True) -> int:
        """Approximate total storage including index structures."""
        total = self._bytes
        if self._pager is not None:
            # Paged out: answer from the skeleton's byte counter alone
            # rather than faulting in rows just to size their indexes.
            return total
        if include_indexes:
            if self._pk_index is not None:
                total += self._pk_index.approximate_bytes()
            for index in self._secondary.values():
                total += index.approximate_bytes()
            for index in self._ordered.values():
                total += index.approximate_bytes()
        return total

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(self, column: str, ordered: bool = False) -> None:
        """Create a secondary index on ``column`` over existing rows."""
        self._ensure_page_load()
        position = self.schema.position(column)
        if ordered:
            index = OrderedIndex()
            for slot, row in enumerate(self._rows):
                if row is not None:
                    index.add(row[position], slot)  # type: ignore[arg-type]
            self._ordered[column] = index
        else:
            hash_index = HashIndex()
            for slot, row in enumerate(self._rows):
                if row is not None:
                    hash_index.add(row[position], slot)
            self._secondary[column] = hash_index

    def has_index(self, column: str) -> bool:
        if self._pager is not None:
            spec = self._pager.index_spec
            return column in spec.get("secondary", ()) or column in spec.get(
                "ordered", ()
            )
        return column in self._secondary or column in self._ordered

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[object]) -> int:
        """Insert one row; returns its slot position."""
        self._ensure_page_load()
        self._stamp += 1
        self.schema.validate_row(row)
        stored: Row = tuple(row)
        if self._pk_index is not None:
            key = self.schema.key_of(stored)
            if self._pk_index.contains(key):
                raise DuplicateKeyError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        slot = len(self._rows)
        self._rows.append(stored)
        self._live_count += 1
        row_bytes = self.schema.row_bytes(stored)
        self._bytes += row_bytes
        if self._scan_bytes is not None:
            self._scan_bytes += row_bytes
        self.accountant.charge_write(1, row_bytes)
        if self._pk_index is not None:
            self._pk_index.add(self.schema.key_of(stored), slot)
        for column, index in self._secondary.items():
            index.add(stored[self.schema.position(column)], slot)
        for column, ordered_index in self._ordered.items():
            ordered_index.add(
                stored[self.schema.position(column)],  # type: ignore[arg-type]
                slot,
            )
        return slot

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete_at(self, slot: int) -> None:
        """Tombstone the row in ``slot``."""
        self._ensure_page_load()
        row = self._rows[slot]
        if row is not None:
            self._stamp += 1
        if row is None:
            return
        self._rows[slot] = None
        self._live_count -= 1
        row_bytes = self.schema.row_bytes(row)
        self._bytes -= row_bytes
        if self._scan_bytes is not None:
            self._scan_bytes -= row_bytes
        self.accountant.charge_write(1, row_bytes)
        if self._pk_index is not None:
            self._pk_index.remove(self.schema.key_of(row), slot)
        for column, index in self._secondary.items():
            index.remove(row[self.schema.position(column)], slot)
        for column, ordered_index in self._ordered.items():
            ordered_index.remove(
                row[self.schema.position(column)],  # type: ignore[arg-type]
                slot,
            )

    def delete_where(self, predicate: Expression) -> int:
        """Delete all rows matching ``predicate``; returns count deleted."""
        test = predicate.bind(self.schema)
        doomed = []
        for slot, row in self._iter_slots():
            if test(row):
                doomed.append(slot)
        for slot in doomed:
            self.delete_at(slot)
        return len(doomed)

    def update_where(
        self,
        predicate: Expression | None,
        assignments: dict[str, Expression],
    ) -> int:
        """UPDATE ... SET col = expr [WHERE pred]; returns rows updated.

        Each update rewrites the full row (delete + insert in place), which
        is what makes array-append commits expensive for combined-table.
        """
        test = predicate.bind(self.schema) if predicate is not None else None
        bound = {
            self.schema.position(column): expr.bind(self.schema)
            for column, expr in assignments.items()
        }
        updated = scanned = scanned_bytes = 0
        try:
            for slot, row in self._iter_slots():
                scanned += 1
                scanned_bytes += self.schema.row_bytes(row)
                if test is not None and not test(row):
                    continue
                new_row = list(row)
                for position, evaluate in bound.items():
                    new_row[position] = evaluate(row)
                self._replace_at(slot, tuple(new_row))
                updated += 1
        finally:
            # Rows read before a failing update are still charged.
            if scanned:
                self.accountant.charge_seq_scan(scanned, scanned_bytes)
        return updated

    def _replace_at(self, slot: int, new_row: Row) -> None:
        self._stamp += 1
        old_row = self._rows[slot]
        assert old_row is not None
        self.schema.validate_row(new_row)
        old_bytes = self.schema.row_bytes(old_row)
        new_bytes = self.schema.row_bytes(new_row)
        if self._pk_index is not None:
            old_key = self.schema.key_of(old_row)
            new_key = self.schema.key_of(new_row)
            if old_key != new_key:
                if self._pk_index.contains(new_key):
                    raise DuplicateKeyError(
                        f"duplicate primary key {new_key!r} in {self.name!r}"
                    )
                self._pk_index.remove(old_key, slot)
                self._pk_index.add(new_key, slot)
        for column, index in self._secondary.items():
            position = self.schema.position(column)
            if old_row[position] != new_row[position]:
                index.remove(old_row[position], slot)
                index.add(new_row[position], slot)
        for column, ordered_index in self._ordered.items():
            position = self.schema.position(column)
            if old_row[position] != new_row[position]:
                ordered_index.remove(old_row[position], slot)  # type: ignore[arg-type]
                ordered_index.add(new_row[position], slot)  # type: ignore[arg-type]
        self._rows[slot] = new_row
        self._bytes += new_bytes - old_bytes
        if self._scan_bytes is not None:
            self._scan_bytes += new_bytes - old_bytes
        self.accountant.charge_write(1, new_bytes)

    # ------------------------------------------------------------------
    # ALTER TABLE (Section 4.3: schema evolution over physical tables)
    # ------------------------------------------------------------------
    def add_column(self, column) -> None:
        """ALTER TABLE ADD COLUMN: existing rows read NULL for it."""
        self._ensure_page_load()
        self._stamp += 1
        from repro.relational.schema import Schema

        self.schema = Schema(
            self.schema.columns + [column], self.schema.primary_key
        )
        for slot, row in enumerate(self._rows):
            if row is not None:
                self._rows[slot] = row + (None,)
                self._bytes += column.dtype.sizeof(None)
        self._scan_bytes = None
        self.accountant.charge_write(self._live_count)

    def widen_column(self, name: str, dtype) -> None:
        """ALTER TABLE ALTER COLUMN TYPE to a more general type; existing
        values are coerced in place."""
        self._ensure_page_load()
        self._stamp += 1
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import generalize_types

        position = self.schema.position(name)
        widened = generalize_types(self.schema.columns[position].dtype, dtype)
        columns = list(self.schema.columns)
        columns[position] = ColumnDef(name, widened)
        self.schema = Schema(columns, self.schema.primary_key)
        for slot, row in enumerate(self._rows):
            if row is None or row[position] is None:
                continue
            coerced = widened.coerce(row[position])
            if coerced != row[position] or type(coerced) is not type(
                row[position]
            ):
                mutable = list(row)
                mutable[position] = coerced
                self._rows[slot] = tuple(mutable)
        # The widened type sizes every value of the column anew.
        self._bytes = self._scan_bytes = self._live_bytes(self._rows)
        self.accountant.charge_write(self._live_count)

    def vacuum(self) -> None:
        """Compact tombstones and rebuild indexes."""
        self._ensure_page_load()
        self._stamp += 1
        live = [row for row in self._rows if row is not None]
        self._rows = list(live)
        if self._pk_index is not None:
            self._pk_index = HashIndex()
            for slot, row in enumerate(self._rows):
                self._pk_index.add(self.schema.key_of(row), slot)  # type: ignore[arg-type]
        for column in list(self._secondary):
            self._secondary.pop(column)
            self.create_index(column, ordered=False)
        for column in list(self._ordered):
            self._ordered.pop(column)
            self.create_index(column, ordered=True)

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _iter_slots(self) -> Iterator[tuple[int, Row]]:
        self._ensure_page_load()
        for slot, row in enumerate(self._rows):
            if row is not None:
                yield slot, row

    def scan(self) -> Iterator[Row]:
        """Full sequential scan, charged once when the scan ends.

        Rows are counted as they are yielded and charged in one
        ``charge_seq_scan`` when the generator is exhausted, closed or
        dropped, so a partial scan (``first_where``, a consumer that
        breaks early) pays for exactly the rows it yielded. A completed
        scan takes its bytes from the cached live total ``_scan_bytes``;
        a partial scan, or the first completed scan after the cache was
        reset, sums ``row_bytes`` over the rows at close. (A table
        mutated while one of its scans is open is therefore charged the
        bytes of those rows as they stand at close.)
        """
        self._ensure_page_load()
        rows = self._rows
        yielded = 0
        completed = False
        try:
            for row in rows:
                if row is not None:
                    yielded += 1
                    yield row
            completed = True
        finally:
            if yielded:
                self._charge_scan(rows, yielded, completed)

    def _charge_scan(
        self, rows: list[Row | None], yielded: int, completed: bool
    ) -> None:
        if not completed:
            row_bytes = self._live_bytes(rows, yielded)
        elif self._scan_bytes is not None and rows is self._rows:
            row_bytes = self._scan_bytes
        else:
            row_bytes = self._live_bytes(rows)
            if rows is self._rows:
                # Concurrent readers may both fill the cache; they
                # compute the same value, and writers are exclusive.
                self._scan_bytes = row_bytes
        self.accountant.charge_seq_scan(yielded, row_bytes)

    def _live_bytes(
        self, rows: list[Row | None], limit: int | None = None
    ) -> int:
        """``row_bytes`` summed over the first ``limit`` (default: all)
        live rows of ``rows``."""
        live: Iterator[Row] = (row for row in rows if row is not None)
        if limit is not None:
            live = itertools.islice(live, limit)
        return sum(map(self.schema.row_bytes, live))

    def scan_where(self, predicate: Expression) -> Iterator[Row]:
        """Sequential scan with a pushed-down filter."""
        test = predicate.bind(self.schema)
        for row in self.scan():
            if test(row):
                yield row

    def fetch_slot(self, slot: int) -> Row | None:
        """Random access by heap position (charged as random I/O)."""
        self._ensure_page_load()
        row = self._rows[slot]
        if row is not None:
            self.accountant.charge_random_read(1, self.schema.row_bytes(row))
        return row

    def lookup(self, column: str, key: Hashable) -> list[Row]:
        """Index lookup; falls back to a sequential scan without an index.

        Whether the fetches after the probe are charged as random or
        sequential depends on the clustering: probing ``rid`` on a table
        clustered by ``rid`` touches adjacent pages.
        """
        self._ensure_page_load()
        index = self._index_for(column)
        if index is None:
            position = self.schema.position(column)
            return [row for row in self.scan() if row[position] == key]
        self.accountant.charge_index_probe(1)
        rows: list[Row] = [
            row
            for row in map(self._rows.__getitem__, index.lookup(key))
            if row is not None
        ]
        if rows:
            row_bytes = sum(map(self.schema.row_bytes, rows))
            if self._is_clustered_on(column):
                self.accountant.charge_seq_scan(len(rows), row_bytes)
            else:
                self.accountant.charge_random_read(len(rows), row_bytes)
        return rows

    def lookup_many(self, column: str, keys: Iterable[Hashable]) -> list[Row]:
        """Batched index lookups, preserving key order."""
        rows: list[Row] = []
        for key in keys:
            rows.extend(self.lookup(column, key))
        return rows

    def _index_for(self, column: str) -> HashIndex | OrderedIndex | None:
        if (
            self._pk_index is not None
            and self.schema.primary_key == (column,)
        ):
            return _PkAdapter(self._pk_index)
        if column in self._secondary:
            return self._secondary[column]
        if column in self._ordered:
            return self._ordered[column]
        return None

    def _is_clustered_on(self, column: str) -> bool:
        if self.cluster_order is ClusterOrder.RID:
            return column == "rid"
        if self.cluster_order is ClusterOrder.PRIMARY_KEY:
            return self.schema.primary_key == (column,)
        return False

    def rows_snapshot(self) -> list[Row]:
        """All live rows without charging I/O (for assertions in tests)."""
        return [row for _slot, row in self._iter_slots()]

    def first_where(self, predicate: Expression) -> Row | None:
        for row in self.scan_where(predicate):
            return row
        return None

    def apply_projection(
        self, names: Sequence[str]
    ) -> Callable[[Row], Row]:
        positions = self.schema.project_positions(names)
        return lambda row: tuple(row[i] for i in positions)

    # ------------------------------------------------------------------
    # Pickling (legacy/plain layout; the paged layout bypasses these
    # via its reducer_override)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        self._ensure_page_load()  # a plain pickle must carry the rows
        state = dict(self.__dict__)
        for transient in (
            "_pager", "_saved_ref", "_saved_stamp", "_scan_bytes"
        ):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pickles from before the paged layout lack these attributes.
        self.__dict__.setdefault("_stamp", 0)
        self.__dict__.setdefault("_pager", None)
        self.__dict__.setdefault("_saved_ref", None)
        self.__dict__.setdefault("_saved_stamp", -1)


class _PkAdapter:
    """Adapts the primary-key hash index to the single-key lookup shape."""

    def __init__(self, pk_index: HashIndex) -> None:
        self._pk_index = pk_index

    def lookup(self, key: Hashable) -> list[int]:
        return self._pk_index.lookup((key,))
