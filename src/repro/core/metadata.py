"""Version derivation metadata: the metadata and attribute tables.

Implements Section 4.3: a metadata table holding, per version, its
parents, children, checkout/commit timestamps, commit message, author, and
the list of attribute ids present in that version; and an attribute table
(the "single pool") where every distinct (name, type) pair ever seen gets
a stable attribute id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import NoSuchVersionError
from repro.relational.types import DataType, interned


@dataclass(frozen=True)
class AttributeEntry:
    """One row of the attribute table."""

    attr_id: int
    name: str
    dtype: DataType

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, dtype=interned(state["dtype"]))


class AttributeRegistry:
    """The single-pool attribute table of Figure 4.3.

    Any change to an attribute's properties (currently: its data type)
    creates a *new* entry rather than mutating the old one, so versions
    committed before a type widening still reference the original typed
    attribute.
    """

    def __init__(self) -> None:
        self._entries: list[AttributeEntry] = []
        self._by_key: dict[tuple[str, str], int] = {}

    def intern(self, name: str, dtype: DataType) -> int:
        """Return the attr_id for (name, dtype), creating it if new."""
        key = (name, dtype.name)
        if key in self._by_key:
            return self._by_key[key]
        attr_id = len(self._entries) + 1
        self._entries.append(AttributeEntry(attr_id, name, dtype))
        self._by_key[key] = attr_id
        return attr_id

    def entry(self, attr_id: int) -> AttributeEntry:
        try:
            return self._entries[attr_id - 1]
        except IndexError:
            raise KeyError(f"no attribute with id {attr_id}") from None

    def entries(self) -> list[AttributeEntry]:
        return list(self._entries)

    def ids_for_names(self, names: Iterable[str]) -> list[int]:
        """Latest attr_id registered for each name (for display only)."""
        latest: dict[str, int] = {}
        for entry in self._entries:
            latest[entry.name] = entry.attr_id
        return [latest[name] for name in names]

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class VersionMetadata:
    """One row of the metadata table (Figure 4.2a)."""

    vid: int
    parents: tuple[int, ...]
    children: list[int] = field(default_factory=list)
    checkout_time: float | None = None
    commit_time: float | None = None
    message: str = ""
    author: str = ""
    attribute_ids: tuple[int, ...] = ()
    record_count: int = 0


class VersionManager:
    """Maintains the metadata table and answers version-graph queries.

    The version graph is the DAG induced by the ``parents`` attribute;
    ``ancestors``/``descendants``/``parent`` are the functional primitives
    exposed in the OrpheusDB query language (Section 3.3.2).
    """

    def __init__(self) -> None:
        self._versions: dict[int, VersionMetadata] = {}
        self._order: list[int] = []
        self._next_vid = 1

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, vid: int) -> bool:
        return vid in self._versions

    def allocate_vid(self) -> int:
        vid = self._next_vid
        self._next_vid += 1
        return vid

    def register(self, metadata: VersionMetadata) -> None:
        if metadata.vid in self._versions:
            raise ValueError(f"version {metadata.vid} already registered")
        # Resolve every parent before linking any: a bad parent id must
        # not leave earlier parents' children lists half-mutated.
        parents = [self.get(parent) for parent in metadata.parents]
        for parent in parents:
            parent.children.append(metadata.vid)
        self._versions[metadata.vid] = metadata
        self._order.append(metadata.vid)
        # Keep the vid counter ahead of externally supplied ids.
        self._next_vid = max(self._next_vid, metadata.vid + 1)

    def get(self, vid: int) -> VersionMetadata:
        try:
            return self._versions[vid]
        except KeyError:
            raise NoSuchVersionError(f"no version {vid}") from None

    def vids(self) -> list[int]:
        """All version ids in commit order."""
        return list(self._order)

    def latest_vid(self) -> int:
        if not self._order:
            raise NoSuchVersionError("CVD has no versions yet")
        return self._order[-1]

    # ------------------------------------------------------------------
    # Graph primitives
    # ------------------------------------------------------------------
    def parents(self, vid: int) -> tuple[int, ...]:
        return self.get(vid).parents

    def children(self, vid: int) -> tuple[int, ...]:
        return tuple(self.get(vid).children)

    def ancestors(self, vid: int, max_hops: int | None = None) -> set[int]:
        """All ancestors of ``vid`` within ``max_hops`` (None = unlimited)."""
        return self._closure(vid, self.parents, max_hops)

    def descendants(self, vid: int, max_hops: int | None = None) -> set[int]:
        return self._closure(vid, self.children, max_hops)

    def neighbors(self, vid: int, hops: int) -> set[int]:
        """Versions within ``hops`` edges of ``vid`` in either direction
        (VQuel's ``N(k)``)."""
        frontier = {vid}
        seen = {vid}
        for _ in range(hops):
            next_frontier: set[int] = set()
            for node in frontier:
                next_frontier.update(self.parents(node))
                next_frontier.update(self.children(node))
            next_frontier -= seen
            seen |= next_frontier
            frontier = next_frontier
        seen.discard(vid)
        return seen

    def _closure(
        self,
        vid: int,
        step: "callable[[int], tuple[int, ...]]",
        max_hops: int | None,
    ) -> set[int]:
        self.get(vid)  # raise on unknown vid
        result: set[int] = set()
        frontier = {vid}
        hops = 0
        while frontier and (max_hops is None or hops < max_hops):
            next_frontier: set[int] = set()
            for node in frontier:
                for reached in step(node):
                    if reached not in result:
                        result.add(reached)
                        next_frontier.add(reached)
            frontier = next_frontier
            hops += 1
        return result

    def is_merge(self, vid: int) -> bool:
        return len(self.parents(vid)) > 1

    def roots(self) -> list[int]:
        return [v for v in self._order if not self._versions[v].parents]

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) derivation edges."""
        result = []
        for vid in self._order:
            for parent in self._versions[vid].parents:
                result.append((parent, vid))
        return result

    def topological_levels(self) -> dict[int, int]:
        """l(v): 1 + length of the longest path from a root to v."""
        levels: dict[int, int] = {}
        for vid in self._order:  # commit order is topological
            parents = self._versions[vid].parents
            levels[vid] = 1 + max((levels[p] for p in parents), default=0)
        return levels
