"""Write reference.json: the degree-2 tables of the mh corpus.

Degree 2 has no independent oracle yet, so the benchmark compares it with
the tables written here.  Run from the root of a source checkout:

    PYTHONPATH=src python3 pipebench/make_reference.py

Only rows with nonzero rank or torsion are kept; they are keyed by
workload and by the digest of the corpus space, which does not depend on
vertex names or order.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import write_inputs  # noqa: E402
from workloads import (REFERENCE_PATH, WORKLOADS, corpus_matrices,  # noqa: E402
                       nonzero_rows, relabel)


def degree2_tables(w, spaces, workdir: str) -> dict:
    """{digest: nonzero degree-2 rows} as the CLI emits them."""
    from lpnerve.cli import main as cli_main

    tables = {}
    argvs, outputs = write_inputs(w, spaces, workdir)
    for argv, out, space in zip(argvs, outputs, spaces):
        if cli_main(argv) != 0:
            sys.exit(f"{w.name}: the CLI failed on {space.digest}")
        with open(out) as fh:
            rows = nonzero_rows(json.load(fh), 2)
        tables[space.digest] = [[g, r, list(t)] for g, r, t in rows]
    return tables


def main() -> None:
    spaces = [relabel(random.Random(0), d) for d in corpus_matrices()]
    with tempfile.TemporaryDirectory() as tmp:
        reference = {w.name: degree2_tables(w, spaces, tmp)
                     for w in WORKLOADS.values() if w.corpus}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
