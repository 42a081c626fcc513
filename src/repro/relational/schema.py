"""Relation schemas: ordered, named, typed columns with optional keys."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.relational.errors import SchemaError, UnknownColumnError
from repro.relational.types import DataType, generalize_types, interned


@dataclass(frozen=True)
class ColumnDef:
    """A single column: a name plus a :class:`DataType`."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, dtype=interned(state["dtype"]))


@dataclass
class Schema:
    """An ordered list of columns with an optional (composite) primary key.

    The primary key in OrpheusDB is the *relation* primary key: it is
    enforced per materialized version, not across the whole CVD (records
    with equal keys may coexist in different versions).
    """

    columns: list[ColumnDef]
    primary_key: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._positions = {name: i for i, name in enumerate(names)}
        for key_col in self.primary_key:
            if key_col not in self._positions:
                raise SchemaError(f"primary key column {key_col!r} not in schema")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def position(self, name: str) -> int:
        """Return the ordinal position of a column, raising if unknown."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownColumnError(
                f"unknown column {name!r}; have {self.column_names}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._positions

    def dtype_of(self, name: str) -> DataType:
        return self.columns[self.position(name)].dtype

    def key_positions(self) -> tuple[int, ...]:
        """Ordinal positions of the primary-key columns."""
        return tuple(self.position(c) for c in self.primary_key)

    def key_of(self, row: Sequence[object]) -> tuple[object, ...]:
        """Extract the primary-key tuple from a row."""
        return tuple(row[i] for i in self.key_positions())

    def validate_row(self, row: Sequence[object]) -> None:
        """Raise :class:`SchemaError` unless the row matches this schema."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self.columns)}"
            )
        for value, column in zip(row, self.columns):
            if not column.dtype.validate(value):
                raise SchemaError(
                    f"value {value!r} is not valid for column "
                    f"{column.name!r} of type {column.dtype.name}"
                )

    def project_positions(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def with_column(self, column: ColumnDef) -> "Schema":
        """Return a new schema with ``column`` appended."""
        return Schema(self.columns + [column], self.primary_key)

    def with_widened_column(self, name: str, dtype: DataType) -> "Schema":
        """Return a new schema with ``name``'s type widened to ``dtype``."""
        position = self.position(name)
        current = self.columns[position].dtype
        widened = generalize_types(current, dtype)
        columns = list(self.columns)
        columns[position] = ColumnDef(name, widened)
        return Schema(columns, self.primary_key)

    def row_bytes(self, row: Sequence[object]) -> int:
        """Approximate on-disk byte size of one row under this schema."""
        return sum(c.dtype.sizeof(v) for v, c in zip(row, self.columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self.columns == other.columns and self.primary_key == other.primary_key
        )
