"""Time one Gauss-Seidel sweep of the solvers' finest grid, per wavefront group.

    python tools/sweep_probe.py [SRC]

imports skelgraph from SRC (default: this tree's ``src``), as
``tools/output_digest.py`` does, so running it once with this tree's
``src`` and once with the ``src`` of a ``git clone`` of another commit
compares the smoother of the two commits without the benchmark harness.

At k = 4 and 6 it builds ``build_problem(k, 1)``, whose operator ``A`` is
every solver's finest grid, and, for batches of B = 1, 3 and 25 columns of
seeded values, times ``gauss_seidel`` on it: REPEAT repeats of NUMBER calls
after one untimed call that builds the schedule.  B = 1 passes 1-D vectors,
the single-column path every V solver takes.  Prints one JSON line per k
and B: the grid's rows and wavefront groups, the fastest repeat's time per
sweep and that time per group.  Times depend on the machine and its load,
so compare two commits on one machine, run one after the other.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit
from pathlib import Path

KS = (4, 6)
BATCHES = (1, 3, 25)
REPEAT, NUMBER = 21, 100


def probe(k):
    import numpy as np
    from skelgraph import multigrid

    a = multigrid.build_problem(k, 1).A
    rng = np.random.default_rng(k)
    for batch in BATCHES:
        shape = (a.nrows,) if batch == 1 else (batch, a.nrows)
        x, b = rng.standard_normal(shape), rng.standard_normal(shape)
        multigrid.gauss_seidel(a, x, b)  # builds and caches the schedule
        groups = len(a._sweep_cache[1])
        best = min(timeit.repeat(lambda: multigrid.gauss_seidel(a, x, b),
                                 repeat=REPEAT, number=NUMBER)) / NUMBER
        yield {"k": k, "batch": batch, "rows": a.nrows, "groups": groups,
               "sweep_us": round(best * 1e6, 1), "us_per_group": round(best * 1e6 / groups, 2)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    if not (args.src / "skelgraph").is_dir():
        sys.exit(f"error: no skelgraph package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    for k in KS:
        for record in probe(k):
            print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
