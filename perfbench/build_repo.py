"""Build a workload's starting repository:
``python perfbench/build_repo.py ROOT SEED N_DATASETS N_VERSIONS N_ROWS MODEL``.

Each dataset is registered from a generated CSV with ``init_from_csv``
and grown by committing the generated child versions, each with its
chosen parent, then the state is saved in the default layout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import gen
from common import write_rows_csv


def main(argv) -> int:
    root, seed, n_datasets, n_versions, n_rows, model = argv
    from repro.cli import save_state
    from repro.core.commands import Orpheus

    root = Path(root)
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    schema = inputs / "schema.csv"
    schema.write_text(gen.SCHEMA_LINES)
    orpheus = Orpheus()
    for history in gen.build_histories(
        int(seed), int(n_datasets), int(n_versions), int(n_rows), model
    ):
        base = inputs / f"{history.name}.csv"
        write_rows_csv(base, gen.COLUMNS, history.rows[1])
        orpheus.init_from_csv(history.name, str(base), str(schema), model=model)
        cvd = orpheus.cvd(history.name)
        for vid in history.vids[1:]:
            got = cvd.commit(history.rows[vid], parents=(history.parents[vid],))
            if got != vid:
                raise SystemExit(f"{history.name}: expected vid {vid}, got {got}")
    save_state(orpheus, str(root))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
