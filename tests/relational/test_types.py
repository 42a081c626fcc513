"""Tests for column data types and widening."""

import copy
import copyreg
import io
import pickle

import pytest

from repro.core.metadata import AttributeEntry
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import (
    BOOL,
    FLOAT,
    INT,
    INT_ARRAY,
    TEXT,
    DataType,
    generalize_types,
    type_by_name,
)


class TestValidation:
    def test_int_accepts_int(self):
        assert INT.validate(5)

    def test_int_rejects_bool(self):
        assert not INT.validate(True)

    def test_int_rejects_float(self):
        assert not INT.validate(5.0)

    def test_float_accepts_int(self):
        assert FLOAT.validate(7)

    def test_float_rejects_bool(self):
        assert not FLOAT.validate(False)

    def test_text_accepts_str(self):
        assert TEXT.validate("hello")

    def test_text_rejects_int(self):
        assert not TEXT.validate(5)

    def test_array_accepts_int_list(self):
        assert INT_ARRAY.validate([1, 2, 3])

    def test_array_accepts_empty(self):
        assert INT_ARRAY.validate([])

    def test_array_rejects_mixed(self):
        assert not INT_ARRAY.validate([1, "two"])

    def test_none_valid_everywhere(self):
        for dtype in (INT, FLOAT, TEXT, BOOL, INT_ARRAY):
            assert dtype.validate(None)


class TestCoercion:
    def test_int_to_float(self):
        assert FLOAT.coerce(3) == 3.0
        assert isinstance(FLOAT.coerce(3), float)

    def test_int_to_text(self):
        assert TEXT.coerce(3) == "3"

    def test_none_passthrough(self):
        assert TEXT.coerce(None) is None

    def test_array_copies(self):
        original = [1, 2]
        coerced = INT_ARRAY.coerce(original)
        assert coerced == original
        assert coerced is not original


class TestSizeof:
    def test_null_is_one_byte(self):
        assert INT.sizeof(None) == 1

    def test_array_scales_with_length(self):
        assert INT_ARRAY.sizeof([1, 2, 3]) > INT_ARRAY.sizeof([1])

    def test_text_scales_with_length(self):
        assert TEXT.sizeof("long string") > TEXT.sizeof("a")


class TestGeneralize:
    def test_same_type_is_identity(self):
        assert generalize_types(INT, INT) is INT

    def test_int_widens_to_decimal(self):
        assert generalize_types(INT, FLOAT) is FLOAT
        assert generalize_types(FLOAT, INT) is FLOAT

    def test_int_widens_to_text(self):
        assert generalize_types(INT, TEXT) is TEXT

    def test_bool_widens_to_text_not_numeric(self):
        assert generalize_types(BOOL, INT) is TEXT
        assert generalize_types(BOOL, FLOAT) is TEXT

    def test_array_cannot_generalize(self):
        with pytest.raises(ValueError):
            generalize_types(INT_ARRAY, INT)


class TestLookup:
    def test_by_name_roundtrip(self):
        for dtype in (INT, FLOAT, TEXT, BOOL, INT_ARRAY):
            assert type_by_name(dtype.name) is dtype

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            type_by_name("varchar")


ALL_TYPES = (INT, FLOAT, TEXT, BOOL, INT_ARRAY)
SAMPLES = (None, 0, 5, -3, True, False, 2.5, "", "12345", [1, 2], (3,), [])


class _LegacyPickler(pickle.Pickler):
    """Pickles DataType the way saves made before it pickled by name
    did: a fresh instance plus its field dict."""

    def reducer_override(self, obj):
        if isinstance(obj, DataType):
            return (copyreg.__newobj__, (DataType,), dict(vars(obj)))
        return NotImplemented


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def legacy_round_trip(obj):
    buffer = io.BytesIO()
    _LegacyPickler(buffer, protocol=4).dump(obj)
    return pickle.loads(buffer.getvalue())


def behaviour(dtype):
    out = []
    for value in SAMPLES:
        try:
            coerced = dtype.coerce(value)
        except (TypeError, ValueError) as error:
            coerced = type(error).__name__
        try:
            size = dtype.sizeof(value)
        except TypeError as error:
            size = type(error).__name__
        out.append((dtype.validate(value), coerced, size))
    return out


class TestIdentityAcrossReload:
    @pytest.mark.parametrize("dtype", ALL_TYPES, ids=lambda t: t.name)
    def test_pickle_restores_the_singleton(self, dtype):
        assert pickle.loads(pickle.dumps(dtype)) is dtype
        assert copy.deepcopy(dtype) is dtype

    def test_legacy_copies_are_interned_on_load(self):
        schema = Schema([ColumnDef(f"c{i}", t) for i, t in enumerate(ALL_TYPES)])
        entries = [AttributeEntry(i, "a", t) for i, t in enumerate(ALL_TYPES)]
        # Without interning the legacy stream yields copies.
        assert legacy_round_trip(INT) is not INT
        reloaded = legacy_round_trip(schema)
        for column, dtype in zip(reloaded.columns, ALL_TYPES):
            assert column.dtype is dtype
        for entry, dtype in zip(legacy_round_trip(entries), ALL_TYPES):
            assert entry.dtype is dtype

    @pytest.mark.parametrize("reload", [pickle_round_trip, legacy_round_trip])
    def test_reloaded_schema_behaves_like_fresh(self, reload):
        schema = Schema([ColumnDef(f"c{i}", t) for i, t in enumerate(ALL_TYPES)])
        reloaded = reload(schema)
        for fresh, loaded in zip(schema.columns, reloaded.columns):
            assert behaviour(loaded.dtype) == behaviour(fresh.dtype)
        assert reloaded.row_bytes((1, 2.0, "abc", True, [1, 2])) == (
            schema.row_bytes((1, 2.0, "abc", True, [1, 2]))
        )
