"""Seeded inputs: datasets, their version histories, and request picks.

Every version keeps 95% of its parent's rows unchanged and rewrites the
other 5% (same primary key, new values); each commit branches from a
chosen parent. The same seed always yields the same tables, so the
expected content of every version is known without asking the program.
"""

from __future__ import annotations

import bisect
import random

COLUMNS = ["key", "grp", "qty", "tag"]
SCHEMA_LINES = "key,integer\ngrp,integer\nqty,integer\ntag,text\nprimary_key,key\n"

#: Share of a parent's rows a child version rewrites.
REWRITE_FRAC = 0.05


def _row(rng: random.Random, key: int) -> tuple:
    return (key, rng.randrange(1000), rng.randrange(10**6), f"t{rng.randrange(10**7):07d}")


def base_rows(rng: random.Random, n_rows: int) -> list[tuple]:
    return [_row(rng, key) for key in range(n_rows)]


def child_rows(rng: random.Random, parent: list[tuple]) -> list[tuple]:
    """A child of ``parent``: 95% of rows kept, 5% rewritten."""
    rows = list(parent)
    for index in rng.sample(range(len(rows)), max(1, int(len(rows) * REWRITE_FRAC))):
        rows[index] = _row(rng, rows[index][0])
    return rows


class History:
    """One dataset's versions as the generator expects them to be."""

    def __init__(self, name: str, model: str) -> None:
        self.name = name
        self.model = model
        self.rows: dict[int, list[tuple]] = {}
        self.parents: dict[int, int | None] = {}

    def add(self, vid: int, rows: list[tuple], parent: int | None) -> None:
        self.rows[vid] = rows
        self.parents[vid] = parent

    @property
    def vids(self) -> list[int]:
        return sorted(self.rows)


def build_histories(seed: int, n_datasets: int, n_versions: int, n_rows: int,
                    model: str) -> list[History]:
    """Datasets ``ds0..`` with versions 1..n_versions; vid k branches
    from a uniformly chosen earlier version."""
    rng = random.Random(f"history:{seed}")
    histories = []
    for d in range(n_datasets):
        history = History(f"ds{d}", model)
        history.add(1, base_rows(rng, n_rows), None)
        for vid in range(2, n_versions + 1):
            parent = rng.randrange(1, vid)
            history.add(vid, child_rows(rng, history.rows[parent]), parent)
        histories.append(history)
    return histories


class Zipf:
    """Zipf(s) picks over ``n`` ranks: rank r has weight 1/r^s."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        self.rng = rng
        self.cumulative = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**s
            self.cumulative.append(total)

    def pick(self) -> int:
        """A 0-based rank."""
        x = self.rng.random() * self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, x), len(self.cumulative) - 1)
