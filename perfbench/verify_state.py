"""Durability check: ``python perfbench/verify_state.py ROOT EXPECT.json``.

Reopens the repository with ``StateStore.load`` (as a fresh process
after the daemon was killed) and checks that every expected version is
present with the expected content. ``EXPECT.json`` maps
``"dataset/vid"`` to a row digest. Prints one JSON line:
``{"checked": n, "missing": [...], "wrong": [...]}``.
"""

from __future__ import annotations

import json
import sys

from common import digest_rows


def main(argv) -> int:
    root, expect_path = argv
    from repro.resilience.statestore import StateStore

    with open(expect_path) as handle:
        expected = json.load(handle)
    orpheus, _info = StateStore(root).load()
    missing, wrong = [], []
    for key, digest in sorted(expected.items()):
        dataset, vid = key.rsplit("/", 1)
        try:
            rows = orpheus.cvd(dataset).checkout(int(vid)).rows
        except Exception as error:  # absent dataset or version
            missing.append(f"{key}: {type(error).__name__}")
            continue
        if digest_rows(rows) != digest:
            wrong.append(key)
    print(json.dumps({"checked": len(expected), "missing": missing, "wrong": wrong}))
    return 0 if not (missing or wrong) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
