"""The ``ORPHSTA2`` paged state layout behind the transactional store.

A paged save splits the repository object graph into:

* a **skeleton** — everything cheap and always needed (the access
  controller, staging metadata, version graphs, schemas, partition
  maps), pickled into the checksummed ``state.pkl`` container exactly
  like the legacy layout (same temp/fsync/rename/backup machinery,
  same failpoints, same crash matrix); and
* **segments** — the heavy parts (each physical table's rows, each
  CVD's payload and membership maps), encoded by
  :mod:`repro.pagestore.codec`, sliced into content-addressed pages
  (:mod:`repro.pagestore.pages`), and replaced in the skeleton by lazy
  stubs that fault their pages through the buffer pool on first touch.

Save = dirty-segment write-back: a segment whose stub was never
hydrated, or whose backing object is unchanged since the last save,
reuses its previous pages verbatim — commit I/O is proportional to
what the commit touched, not to total state. Content addressing means
even a re-encoded segment only writes the pages that actually changed.

Crash safety: new pages are written and fsync'd *before* the atomic
``state.pkl`` swap; a crash in between leaves only unreferenced page
files, which :func:`clean_pagestore` (wired into recovery) deletes.
The page *directory* (``.orpheus/pages/directory.json``) is an
atomically-swapped index used by the doctor and garbage collection —
loads never depend on it, so a torn directory is always rebuildable
from the state containers themselves (:func:`rebuild_directory`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.pagestore import codec
from repro.pagestore import pages as pagefiles
from repro.pagestore.bufferpool import get_pool, refresh_pins_from_heat
from repro.pagestore.codec import PICKLE_PROTOCOL
from repro.pagestore.pages import PageCorruptionError
from repro.resilience import failpoints
from repro.resilience.durable import atomic_replace, fsync_dir

#: Version of the outer (container payload) structure.
SKELETON_FORMAT = 2

DIRECTORY_FILE = "directory.json"
DIRECTORY_SCHEMA_VERSION = 1

#: Force the save layout: ``paged`` or ``pickle``. Unset = keep the
#: repository's current layout (fresh repositories default to pickle).
LAYOUT_ENV = "ORPHEUS_STATE_LAYOUT"


# ----------------------------------------------------------------------
# Segment references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentRef:
    """Address of one encoded segment: its pages plus verification."""

    key: str
    codec: str
    length: int
    sha: str
    pages: tuple[str, ...]
    heat_key: str | None = None
    count_hint: int = 0

    def to_tuple(self) -> tuple:
        return (
            self.key,
            self.codec,
            self.length,
            self.sha,
            tuple(self.pages),
            self.heat_key,
            self.count_hint,
        )

    @classmethod
    def from_tuple(cls, data) -> "SegmentRef":
        key, codec_name, length, sha, page_ids, heat_key, count_hint = data
        return cls(
            key, codec_name, int(length), sha, tuple(page_ids),
            heat_key, int(count_hint),
        )


def _charge_page_read(accountant, n_pages: int, n_bytes: int) -> None:
    if accountant is not None and hasattr(accountant, "charge_page_read"):
        accountant.charge_page_read(n_pages, n_bytes)
    else:
        telemetry.count("storage.io.page_reads", n_pages)
        telemetry.count("storage.io.page_bytes_read", n_bytes)
        telemetry.count("storage.io.bytes_read", n_bytes)


# ----------------------------------------------------------------------
# Per-repository read handle
# ----------------------------------------------------------------------
class PageStore:
    """Faults segments for one repository through the shared pool."""

    def __init__(self, root: str | os.PathLike | None) -> None:
        self.root = str(root) if root is not None else None
        self.dir = pagefiles.pages_dir(root)
        self._pins_refreshed = False

    def _maybe_refresh_pins(self) -> None:
        if self._pins_refreshed:
            return
        self._pins_refreshed = True
        try:
            from repro.observe.heat import HeatAccountant

            heat = HeatAccountant.load(self.root)
            if heat.events_total:
                refresh_pins_from_heat(get_pool(), heat)
        except Exception:
            pass  # pinning is advisory; never fail a fault over it

    def read_segment(self, ref: SegmentRef, accountant=None) -> object:
        """Fault in and decode one segment, verifying its checksum."""
        self._maybe_refresh_pins()
        pool = get_pool()
        parts = [
            pool.read(self.dir, page_id, ref.heat_key)
            for page_id in ref.pages
        ]
        blob = b"".join(parts)
        if len(blob) != ref.length:
            raise PageCorruptionError(
                f"segment {ref.key}: reassembled {len(blob)} bytes, "
                f"expected {ref.length}"
            )
        if hashlib.sha256(blob).hexdigest() != ref.sha:
            raise PageCorruptionError(
                f"segment {ref.key}: checksum mismatch across pages"
            )
        _charge_page_read(accountant, len(ref.pages), len(blob))
        telemetry.count("pagestore.segment_faults")
        return codec.decode_segment(ref.codec, blob)


# ----------------------------------------------------------------------
# Load context (binds stubs to a PageStore during unpickling)
# ----------------------------------------------------------------------
_context = threading.local()


@contextlib.contextmanager
def load_context(store: PageStore):
    previous = getattr(_context, "store", None)
    _context.store = store
    try:
        yield store
    finally:
        _context.store = previous


def _require_store() -> PageStore:
    store = getattr(_context, "store", None)
    if store is None:
        raise RuntimeError(
            "paged state unpickled outside a pagestore load_context; "
            "load it through StateStore.load()"
        )
    return store


# ----------------------------------------------------------------------
# Lazy stubs
# ----------------------------------------------------------------------
class PagedDict(dict):
    """A dict-shaped segment stub that faults its pages on first use.

    Reads and writes hydrate in place (writes also mark the segment
    dirty so the next save re-encodes it); ``len()`` answers from the
    segment's count hint without touching disk, so ``orpheus ls`` stays
    fault-free. Plain pickling hydrates and degrades to an ordinary
    dict, which is what keeps ``migrate-state --to pickle`` honest.
    """

    def __init__(self, store: PageStore, ref: SegmentRef) -> None:
        super().__init__()
        self._store = store
        self._ref: SegmentRef | None = ref
        self._loaded_ref: SegmentRef | None = None
        self._mutated = False

    @classmethod
    def adopt(cls, data: dict) -> "PagedDict":
        """Wrap live in-memory data (first paged save of a repository
        whose dicts are still plain). Exact ``dict`` instances bypass
        ``reducer_override`` — a documented CPython fast path — so the
        save swaps them for adopted stubs it *can* intercept."""
        stub = cls(None, None)
        stub._ref = None
        dict.update(stub, data)
        stub._mutated = True
        return stub

    @property
    def hydrated(self) -> bool:
        return self._ref is None

    def _hydrate(self) -> None:
        ref = self._ref
        if ref is None:
            return
        decoded = self._store.read_segment(ref)
        dict.update(self, decoded)  # populate before clearing the ref
        self._loaded_ref = ref
        self._ref = None

    # -- reads ---------------------------------------------------------
    def __getitem__(self, key):
        self._hydrate()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._hydrate()
        return dict.get(self, key, default)

    def __contains__(self, key):
        self._hydrate()
        return dict.__contains__(self, key)

    def __iter__(self):
        self._hydrate()
        return dict.__iter__(self)

    def keys(self):
        self._hydrate()
        return dict.keys(self)

    def values(self):
        self._hydrate()
        return dict.values(self)

    def items(self):
        self._hydrate()
        return dict.items(self)

    def __len__(self):
        if self._ref is not None:
            return self._ref.count_hint
        return dict.__len__(self)

    def __eq__(self, other):
        self._hydrate()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # dicts are unhashable; keep it that way

    def copy(self):
        self._hydrate()
        return dict(self)

    # -- writes --------------------------------------------------------
    def _touch(self) -> None:
        self._hydrate()
        self._mutated = True

    def __setitem__(self, key, value):
        self._touch()
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):
        self._touch()
        dict.__delitem__(self, key)

    def update(self, *args, **kwargs):
        self._touch()
        dict.update(self, *args, **kwargs)

    def pop(self, *args):
        self._touch()
        return dict.pop(self, *args)

    def popitem(self):
        self._touch()
        return dict.popitem(self)

    def clear(self):
        self._touch()
        dict.clear(self)

    def setdefault(self, key, default=None):
        self._touch()
        return dict.setdefault(self, key, default)

    # -- pickling ------------------------------------------------------
    def __reduce__(self):
        # Plain pickling (legacy-layout save, deepcopy) must carry the
        # data, not the stub: hydrate and emit an ordinary dict.
        self._hydrate()
        return (dict, (dict(self),))

    def __repr__(self):
        if self._ref is not None:
            return (
                f"<PagedDict lazy key={self._ref.key!r} "
                f"~{self._ref.count_hint} entries>"
            )
        return dict.__repr__(self)


class TablePager:
    """Deferred row-segment load for one :class:`Table`."""

    __slots__ = ("store", "ref", "index_spec")

    def __init__(
        self, store: PageStore, ref: SegmentRef, index_spec: dict
    ) -> None:
        self.store = store
        self.ref = ref
        self.index_spec = index_spec

    def load(self, accountant=None) -> list:
        return self.store.read_segment(self.ref, accountant)


def _load_paged_dict(ref_tuple) -> PagedDict:
    return PagedDict(_require_store(), SegmentRef.from_tuple(ref_tuple))


def _load_paged_table(state: dict, ref_tuple, index_spec: dict):
    from repro.relational.table import Table

    table = Table.__new__(Table)
    table.__dict__.update(state)
    ref = SegmentRef.from_tuple(ref_tuple)
    table._rows = []
    table._pk_index = None
    table._secondary = {}
    table._ordered = {}
    table._pager = TablePager(_require_store(), ref, dict(index_spec))
    table._saved_ref = ref
    table._saved_stamp = state.get("_stamp", 0)
    return table


# ----------------------------------------------------------------------
# Save: skeleton pickling with segment spill
# ----------------------------------------------------------------------
#: Table attributes that live in segments (or are per-process cache),
#: never in the skeleton.
_TABLE_HEAVY_ATTRS = frozenset(
    {"_rows", "_pk_index", "_secondary", "_ordered",
     "_pager", "_saved_ref", "_saved_stamp", "_scan_bytes"}
)


class _SaveContext:
    """Carries segment bookkeeping through one paged save."""

    def __init__(self, root, page_bytes: int) -> None:
        self.root = root
        self.page_bytes = page_bytes
        self.segments: dict[str, SegmentRef] = {}
        #: page_id → payload for pages this save may need to create.
        self.pending: dict[str, bytes] = {}
        #: table name → heat key (``dataset:pN``).
        self.heat_keys: dict[str, str] = {}
        #: id(dict) → (key, codec, heat_key, holder) for the payload /
        #: membership maps to spill (holder keeps the id() alive).
        self.dict_meta: dict[int, tuple] = {}
        self.segments_encoded = 0
        self.segments_reused = 0

    # -- registration --------------------------------------------------
    def harvest(self, obj) -> None:
        """Walk the repository, marking which plain dicts become
        segments and which heat key each physical table belongs to."""
        cvds = getattr(obj, "_cvds", None)
        if not isinstance(cvds, dict):
            return
        for name, cvd in cvds.items():
            self._register_dict(
                cvd, "_payloads", f"cvd:{name}:payloads",
                codec.RECORDS_V1, name,
            )
            self._register_dict(
                cvd, "_membership", f"cvd:{name}:membership",
                codec.RLISTMAP_V1, name,
            )
            model = getattr(cvd, "model", None)
            if model is None:
                continue
            self._register_dict(
                model, "_payloads", f"model:{name}:payloads",
                codec.RECORDS_V1, name,
            )
            self._register_dict(
                model, "_membership", f"model:{name}:membership",
                codec.RLISTMAP_V1, name,
            )
            partitions = getattr(model, "_partitions", None)
            try:
                if partitions:
                    for index, partition in enumerate(partitions):
                        for table_name in partition.table_names():
                            self.heat_keys[table_name] = f"{name}:p{index}"
                else:
                    for table_name in model.table_names():
                        self.heat_keys[table_name] = f"{name}:p0"
            except Exception:
                pass  # heat keys are advisory

    def _register_dict(
        self, holder, attr: str, key: str, codec_name: str, heat_key: str
    ) -> None:
        value = holder.__dict__.get(attr) if hasattr(holder, "__dict__") else None
        if value is None:
            return
        if type(value) is dict:
            # Exact dicts never reach reducer_override; adopt them into
            # stubs in place (a dict subclass, so callers never notice).
            value = PagedDict.adopt(value)
            setattr(holder, attr, value)
        if isinstance(value, PagedDict):
            self.dict_meta[id(value)] = (key, codec_name, heat_key, value)

    # -- segment assembly ----------------------------------------------
    def add_segment(
        self, key: str, codec_name: str, blob: bytes,
        heat_key: str | None, count_hint: int,
    ) -> SegmentRef:
        while key in self.segments:
            key += "~"  # defensive: keys are unique by construction
        payloads = pagefiles.split_payload(blob, self.page_bytes)
        page_ids = []
        for payload in payloads:
            page_id = pagefiles.page_id_for(payload)
            page_ids.append(page_id)
            self.pending.setdefault(page_id, payload)
        ref = SegmentRef(
            key, codec_name, len(blob),
            hashlib.sha256(blob).hexdigest(), tuple(page_ids),
            heat_key, count_hint,
        )
        self.segments[key] = ref
        self.segments_encoded += 1
        return ref

    def reuse(self, ref: SegmentRef) -> SegmentRef:
        key = ref.key
        while key in self.segments:
            key += "~"
        if key != ref.key:
            ref = SegmentRef(
                key, ref.codec, ref.length, ref.sha, ref.pages,
                ref.heat_key, ref.count_hint,
            )
        self.segments[key] = ref
        self.segments_reused += 1
        return ref

    def encode_dict(
        self, data: dict, key: str, codec_name: str, heat_key: str | None
    ) -> SegmentRef:
        try:
            blob = codec.encode_segment(codec_name, data)
        except Exception:
            codec_name = codec.PICKLE_V1
            blob = pickle.dumps(dict(data), PICKLE_PROTOCOL)
        return self.add_segment(key, codec_name, blob, heat_key, len(data))


class _PagedPickler(pickle.Pickler):
    """Pickles the skeleton, spilling heavy structures into segments."""

    def __init__(self, file, ctx: _SaveContext) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self.ctx = ctx

    def reducer_override(self, obj):
        from repro.relational.table import Table

        if isinstance(obj, Table):
            return self._reduce_table(obj)
        if isinstance(obj, PagedDict):
            return self._reduce_paged_dict(obj)
        return NotImplemented

    def _reduce_paged_dict(self, obj: PagedDict):
        meta = self.ctx.dict_meta.get(id(obj))
        if obj._ref is not None:
            # Never hydrated this process: the data cannot have changed.
            ref = self.ctx.reuse(obj._ref)
        elif not obj._mutated and obj._loaded_ref is not None:
            ref = self.ctx.reuse(obj._loaded_ref)
        else:
            if meta is not None:
                key, codec_name, heat_key, _holder = meta
            else:
                previous = obj._loaded_ref or obj._ref
                key = previous.key if previous else "dict:anon"
                codec_name = previous.codec if previous else codec.PICKLE_V1
                heat_key = previous.heat_key if previous else None
            ref = self.ctx.encode_dict(dict(obj), key, codec_name, heat_key)
            obj._loaded_ref = ref
            obj._mutated = False
        return (_load_paged_dict, (ref.to_tuple(),))

    def _reduce_table(self, table):
        pager = getattr(table, "_pager", None)
        stamp = getattr(table, "_stamp", 0)
        if pager is not None:
            # Rows never faulted in: reuse the segment untouched.
            ref = self.ctx.reuse(pager.ref)
            index_spec = dict(pager.index_spec)
        else:
            index_spec = {
                "pk": table._pk_index is not None,
                "secondary": sorted(table._secondary),
                "ordered": sorted(table._ordered),
            }
            saved_ref = getattr(table, "_saved_ref", None)
            if (
                saved_ref is not None
                and getattr(table, "_saved_stamp", -1) == stamp
            ):
                ref = self.ctx.reuse(saved_ref)
            else:
                codec_name, blob = codec.encode_table_rows(
                    table._rows, len(table.schema.columns)
                )
                ref = self.ctx.add_segment(
                    f"table:{table.name}", codec_name, blob,
                    self.ctx.heat_keys.get(table.name),
                    len(table._rows),
                )
                table._saved_ref = ref
                table._saved_stamp = stamp
        state = {
            name: value
            for name, value in table.__dict__.items()
            if name not in _TABLE_HEAVY_ATTRS
        }
        return (_load_paged_table, (state, ref.to_tuple(), index_spec))


# ----------------------------------------------------------------------
# Save / load entry points (called by StateStore)
# ----------------------------------------------------------------------
def paged_save(store, obj) -> dict:
    """Write ``obj`` in the paged layout through ``store`` (a
    :class:`~repro.resilience.statestore.StateStore`). Returns save
    statistics (segments encoded/reused, pages written, bytes)."""
    from repro.resilience import statestore

    root = store.dir.parent
    page_bytes = pagefiles.page_size()
    ctx = _SaveContext(root, page_bytes)
    ctx.harvest(obj)
    buffer = io.BytesIO()
    _PagedPickler(buffer, ctx).dump(obj)
    skeleton = buffer.getvalue()
    refs = sorted(ctx.segments.values(), key=lambda ref: ref.key)
    all_pages = sorted({pid for ref in refs for pid in ref.pages})
    payload = pickle.dumps(
        {
            "format": SKELETON_FORMAT,
            "page_bytes": page_bytes,
            "skeleton": skeleton,
            "segments": [ref.to_tuple() for ref in refs],
            "pages": all_pages,
        },
        PICKLE_PROTOCOL,
    )

    pages_path = pagefiles.pages_dir(root)
    pool = get_pool()
    written = 0
    written_bytes = 0
    failpoints.fire("pagestore.before_page_write")
    dirty: list[str] = []
    try:
        for page_id in sorted(ctx.pending):
            data = ctx.pending[page_id]
            if pagefiles.page_path(pages_path, page_id).exists():
                continue
            pool.put_dirty(pages_path, page_id, data)
            dirty.append(page_id)
            pagefiles.write_page(pages_path, page_id, data)
            pool.mark_clean(pages_path, page_id)
            dirty.pop()
            written += 1
            written_bytes += len(data)
    except BaseException:
        for page_id in dirty:
            pool.discard_dirty(pages_path, page_id)
        raise
    if written:
        fsync_dir(pages_path)
    failpoints.fire("pagestore.after_page_write")

    accountant = getattr(getattr(obj, "database", None), "accountant", None)
    if accountant is not None and hasattr(accountant, "charge_page_write"):
        accountant.charge_page_write(written, written_bytes)
    else:
        telemetry.count("storage.io.page_writes", written)
        telemetry.count("storage.io.page_bytes_written", written_bytes)
        telemetry.count("storage.io.bytes_written", written_bytes)

    store.save_bytes(payload, magic=statestore.MAGIC2)

    _swap_directory(root, refs, page_bytes)
    removed = _gc_pages(root, keep=set(all_pages))

    telemetry.count("pagestore.saves")
    telemetry.count("pagestore.pages_written", written)
    telemetry.count("pagestore.segments_encoded", ctx.segments_encoded)
    telemetry.count("pagestore.segments_reused", ctx.segments_reused)
    if removed:
        telemetry.count("pagestore.pages_gc", removed)
    return {
        "segments": len(refs),
        "segments_encoded": ctx.segments_encoded,
        "segments_reused": ctx.segments_reused,
        "pages": len(all_pages),
        "pages_written": written,
        "bytes_written": written_bytes,
        "pages_gc": removed,
    }


def paged_load(store, payload: bytes) -> object:
    """Unpickle a paged container payload into a lazily-backed object."""
    outer = pickle.loads(payload)
    if not isinstance(outer, dict) or outer.get("format") != SKELETON_FORMAT:
        raise ValueError("unsupported paged state format")
    root = store.dir.parent
    _verify_pages_exist(root, outer.get("pages") or ())
    page_store = PageStore(root)
    with load_context(page_store):
        obj = pickle.loads(outer["skeleton"])
    telemetry.count("pagestore.loads")
    return obj


def _verify_pages_exist(root, page_ids) -> None:
    """A state generation referencing missing page files is corrupt —
    detected at load so the store can fall back to a backup whose pages
    survived (GC retains pages for every backup generation)."""
    directory = pagefiles.pages_dir(root)
    missing = [
        page_id
        for page_id in page_ids
        if not pagefiles.page_path(directory, page_id).exists()
    ]
    if missing:
        raise PageCorruptionError(
            f"missing page file(s): {', '.join(sorted(missing)[:4])}"
            + (f" (+{len(missing) - 4} more)" if len(missing) > 4 else "")
        )


# ----------------------------------------------------------------------
# Page directory (atomically swapped sidecar index)
# ----------------------------------------------------------------------
def directory_path(root) -> Path:
    return pagefiles.pages_dir(root) / DIRECTORY_FILE


def read_directory(root) -> dict | None:
    """The parsed directory, or None when missing/corrupt (loads never
    need it; the doctor and recovery treat None as 'rebuild me')."""
    path = directory_path(root)
    try:
        parsed = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(parsed, dict)
        or parsed.get("schema_version") != DIRECTORY_SCHEMA_VERSION
        or not isinstance(parsed.get("generations"), list)
    ):
        return None
    return parsed


def _directory_generation(refs) -> dict:
    return {
        "segments": {
            ref.key: {
                "codec": ref.codec,
                "bytes": ref.length,
                "sha": ref.sha,
                "pages": list(ref.pages),
                "heat_key": ref.heat_key,
            }
            for ref in refs
        }
    }


def _swap_directory(root, refs, page_bytes: int) -> None:
    from repro.resilience.statestore import BACKUP_SUFFIXES

    existing = read_directory(root)
    generations = existing["generations"] if existing else []
    generations = [_directory_generation(refs)] + generations
    generations = generations[: 1 + len(BACKUP_SUFFIXES)]
    failpoints.fire("pagestore.before_directory_swap")
    document = {
        "schema_version": DIRECTORY_SCHEMA_VERSION,
        "page_bytes": page_bytes,
        "generations": generations,
    }
    atomic_replace(
        directory_path(root), json.dumps(document).encode(), durable=True
    )
    failpoints.fire("pagestore.after_directory_swap")


def rebuild_directory(root) -> dict | None:
    """Reconstruct the directory from the state containers (live +
    backups). Used by recovery after a torn directory write."""
    generations = []
    page_bytes = pagefiles.page_size()
    for outer in _state_outers(root):
        refs = [SegmentRef.from_tuple(t) for t in outer.get("segments", ())]
        page_bytes = outer.get("page_bytes", page_bytes)
        generations.append(_directory_generation(refs))
    if not generations:
        return None
    document = {
        "schema_version": DIRECTORY_SCHEMA_VERSION,
        "page_bytes": page_bytes,
        "generations": generations,
    }
    atomic_replace(
        directory_path(root), json.dumps(document).encode(), durable=True
    )
    return document


# ----------------------------------------------------------------------
# Referenced-page accounting, GC, and recovery hooks
# ----------------------------------------------------------------------
def _state_outers(root):
    """Outer payload dicts of every verifiable paged state generation,
    newest first."""
    from repro.resilience import statestore

    store = statestore.StateStore(root)
    for candidate in [store.path, *store.backup_paths]:
        if not candidate.exists():
            continue
        try:
            blob = candidate.read_bytes()
            payload, _legacy = statestore.StateStore.verify_blob(blob)
        except Exception:
            continue
        if not blob.startswith(statestore.MAGIC2):
            continue
        try:
            outer = pickle.loads(payload)
        except Exception:
            continue
        if isinstance(outer, dict) and outer.get("format") == SKELETON_FORMAT:
            yield outer


def referenced_pages(root) -> set[str]:
    """Every page id referenced by any live/backup state generation."""
    referenced: set[str] = set()
    for outer in _state_outers(root):
        referenced.update(outer.get("pages") or ())
    return referenced


def orphan_pages(root) -> list[Path]:
    """On-disk page files no state generation references (debris from
    a save that died between page write-back and the state swap)."""
    directory = pagefiles.pages_dir(root)
    files = pagefiles.list_page_files(directory)
    if not files:
        return []
    referenced = referenced_pages(root)
    suffix = len(pagefiles.PAGE_SUFFIX)
    return [path for path in files if path.name[:-suffix] not in referenced]


def _gc_pages(root, keep: set[str]) -> int:
    directory = pagefiles.pages_dir(root)
    files = pagefiles.list_page_files(directory)
    if not files:
        return 0
    referenced = referenced_pages(root) | keep
    suffix = len(pagefiles.PAGE_SUFFIX)
    removed = 0
    for path in files:
        if path.name[:-suffix] in referenced:
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def clean_pagestore(root, dry_run: bool = False) -> list[tuple[str, str]]:
    """Recovery hook: remove interrupted page writes and orphaned page
    files; rebuild the directory when it is torn. Returns
    ``(kind, detail)`` action pairs for the recovery report."""
    actions: list[tuple[str, str]] = []
    directory = pagefiles.pages_dir(root)
    if not directory.is_dir():
        return actions
    for temp in pagefiles.stray_page_temps(directory):
        actions.append(
            ("clean-temp", f"remove interrupted page write {temp.name}")
        )
        if not dry_run:
            try:
                temp.unlink()
            except OSError:
                pass
    orphans = orphan_pages(root)
    if orphans:
        total = sum(p.stat().st_size for p in orphans if p.exists())
        actions.append(
            (
                "clean-orphan-pages",
                f"remove {len(orphans)} unreferenced page file(s) "
                f"({total} bytes) from an interrupted write-back",
            )
        )
        if not dry_run:
            for path in orphans:
                try:
                    path.unlink()
                except OSError:
                    pass
            telemetry.count("pagestore.orphans_removed", len(orphans))
    if read_directory(root) is None and any(_state_outers(root)):
        actions.append(
            ("rebuild-directory", "page directory missing or torn; rebuild")
        )
        if not dry_run:
            rebuild_directory(root)
    return actions


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def migrate_state(
    root, to: str = "paged", dry_run: bool = False
) -> dict:
    """Convert a repository's state layout in place.

    ``pickle → paged`` decomposes the blob into pages;
    ``paged → pickle`` hydrates every segment back into one blob (the
    fallback path for tools that must read the state directly). Either
    direction is a single atomic state-store save, so a crash leaves
    the old layout fully intact.
    """
    from repro.resilience.statestore import StateStore

    if to not in ("paged", "pickle"):
        raise ValueError(f"unknown target layout {to!r}")
    store = StateStore(root)
    obj, info = store.load()
    if obj is None:
        return {"status": "empty", "from": None, "to": to}
    current = "paged" if info.paged else "pickle"
    result = {"status": "migrated", "from": current, "to": to}
    if current == to:
        result["status"] = "noop"
        return result
    if dry_run:
        result["status"] = "plan"
        return result
    if to == "paged":
        stats = paged_save(store, obj)
        result.update(stats)
    else:
        # Hydrates every segment: Table.__getstate__ and
        # PagedDict.__reduce__ degrade to plain structures.
        store.save_bytes(pickle.dumps(obj, PICKLE_PROTOCOL))
    telemetry.count("pagestore.migrations")
    return result
