"""Print one ``sha256 name`` line for every output of a fixed set of runs.

    python tools/output_digest.py [SRC]

imports skelgraph from SRC (default: this tree's ``src``), runs the CLI,
``export_problem`` and ``run_benchmark`` into a temporary directory and
hashes every file they write.  Running it once with this tree's ``src``
and once with the ``src`` of a ``git clone`` of another commit, then
diffing the two listings, checks that the two commits write byte-identical
outputs.  The bytes depend on how the BLAS library rounds, so compare only
runs on one machine.

The runs:

- ``gen`` with all four generators, and ``gen complete --levels 9``, whose
  top level has 261,632 entries;
- ``write_matrix_market`` of a seeded general and a symmetric matrix (see
  ``awkward_matrices``);
- ``product cross|box|strong`` on three factor pairs at the default depth,
  at ``--levels 3`` and with ``--oracle-check``, and box and cross with
  ``--weights prolong``;
- ``product nway-hat|nway-tilde`` on three factors, ``product dilated`` at
  two rate/kind pairs, ``thicken`` and ``cnn-structure``;
- ``validate`` on every lineage directory those runs write, one
  ``validate/<dir>`` line hashing its exit code and report, since the
  listing otherwise discards CLI stdout;
- ``export_problem`` (``A.mtx`` and ``b.txt``) at k = 2..6, bc 1 and 2,
  since no CLI path writes b;
- the ``run_benchmark`` CSV of all six algorithms at k = 2..5, bc 1 and 2,
  with the recursive W-cycle at k = 5 in its own file;
- in memory, not as files: every grid operator and transfer that the five
  cycle solvers build at k = 2..7.  A grid's line hashes the triplet bytes
  of its operator and, per coarser grid it corrects from, the child entry's
  prolongation ``p`` (sparse triplets or dense array) and the entry's
  restriction applied to a fixed seeded vector;
- in memory, one ``smoother/`` line per grid of those solvers: one
  ``gauss_seidel`` sweep of the grid on a seeded batch holding signed zeros,
  once for its first column alone (B = 1) and once for all three (B = 3).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

GENERATORS = {"path": 4, "complete": 3, "grid2d": 3, "nhat": 3}
PAIRS = [("path", "complete"), ("complete", "grid2d"), ("nhat", "path")]
BUDGET_PER_NNZ = 1000  # work budget of each run_benchmark call, per nonzero of A
CYCLE_SOLVERS = ("classical_mg_v", "classical_mg_w", "skeletal_recursive_v",
                 "skeletal_recursive_w", "skeletal_levelwise_v")


def _run(main, *argv):
    """Exit code and stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _cli(main, *argv):
    code, _ = _run(main, *argv)
    if code != 0:
        sys.exit(f"error: skelgraph {' '.join(argv)} exited {code}")


def awkward_matrices(seed=7, n=1200, nnz=20_000):
    """A seeded n x n general matrix and a symmetric one whose indices cross
    9/10, 99/100 and 999/1000 on disk.  Half the values come from a small pool
    of awkward floats, so they repeat; the rest are arbitrary float64 bit
    patterns, NaNs with any payload among them, kept in the general one only."""
    from skelgraph.sparse import SparseMatrix

    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(n * n, size=nnz, replace=False))
    r, c = keys // n, keys % n
    pool = [1.0, -1.0, 0.1 + 0.2, 2 ** -0.5, 1e16, 1e-5, 5e-324, -2.2250738585072014e-308,
            1e308, np.inf, -np.inf, np.nan]
    bits = np.frombuffer(rng.bytes(8 * nnz), np.float64)
    vals = np.where(rng.random(nnz) < 0.5, rng.choice(pool, nnz), bits)
    low = (r >= c) & ~np.isnan(vals)
    off = low & (r > c)
    symmetric = SparseMatrix(n, n, np.concatenate([r[low], c[off]]), np.concatenate([c[low], r[off]]),
                             np.concatenate([vals[low], vals[off]]))
    return SparseMatrix(n, n, r, c, vals), symmetric


def write_outputs(out):
    from skelgraph.cli import main
    from skelgraph.multigrid import ALGORITHMS, build_problem, export_problem, run_benchmark
    from skelgraph.sparse import write_matrix_market

    lin = out / "lineages"
    for name, levels in GENERATORS.items():
        _cli(main, "gen", name, "--levels", str(levels), "--out", str(lin / name))
    _cli(main, "gen", "complete", "--levels", "9", "--out", str(lin / "complete9"))
    general, symmetric = awkward_matrices()
    (out / "matrix-market").mkdir()
    write_matrix_market(out / "matrix-market" / "general.mtx", general)
    write_matrix_market(out / "matrix-market" / "symmetric.mtx", symmetric, symmetric=True)
    prod = out / "products"
    for f1, f2 in PAIRS:
        inputs = [str(lin / f1), str(lin / f2)]
        for kind in ("cross", "box", "strong"):
            stem = f"{kind}_{f1}_{f2}"
            _cli(main, "product", kind, *inputs, "--out", str(prod / stem))
            _cli(main, "product", kind, *inputs, "--levels", "3", "--out", str(prod / f"{stem}_L3"))
            _cli(main, "product", kind, *inputs, "--oracle-check",
                 "--out", str(prod / f"{stem}_oracle"))
        for kind in ("cross", "box"):
            _cli(main, "product", kind, *inputs, "--weights", "prolong",
                 "--out", str(prod / f"{kind}_{f1}_{f2}_prolong"))
    three = [str(lin / name) for name in ("path", "complete", "nhat")]
    for kind in ("nway-hat", "nway-tilde"):
        _cli(main, "product", kind, *three, "--out", str(prod / kind))
    pair = [str(lin / "path"), str(lin / "complete")]
    _cli(main, "product", "dilated", *pair, "--out", str(prod / "dilated"))
    _cli(main, "product", "dilated", *pair, "--rho", "2", "1", "--dilated-kind", "cross",
         "--out", str(prod / "dilated_cross_rho21"))
    for name in ("path", "grid2d"):
        _cli(main, "thicken", str(lin / name), "--out", str(out / "thicken" / name))
    _cli(main, "cnn-structure", "--grid-levels", "2", "--feature-levels", "2",
         "--out", str(out / "cnn-structure"))

    for k in range(2, 7):
        for bc in (1, 2):
            export_problem(build_problem(k, bc), out / "problems" / f"k{k}_bc{bc}")
    bench = out / "bench"
    bench.mkdir()
    for k in range(2, 6):
        for bc in (1, 2):
            budget = BUDGET_PER_NNZ * build_problem(k, bc).A.nnz
            runs = {"": sorted(ALGORITHMS)}
            if k == 5:  # its k=5 cycles are long, so it gets its own file
                runs = {"": sorted(set(ALGORITHMS) - {"skeletal_recursive_w"}),
                        "_skeletal_recursive_w": ["skeletal_recursive_w"]}
            for suffix, algorithms in runs.items():
                trace = run_benchmark(k, bc, algorithms, budget)
                (bench / f"k{k}_bc{bc}{suffix}.csv").write_text(trace.to_csv())


def validate_digests(out):
    """Yield (name, sha256) of ``validate``'s exit code and report for every
    lineage directory under out."""
    from skelgraph.cli import main

    for manifest in sorted(out.rglob("manifest.json")):
        code, report = _run(main, "validate", str(manifest.parent))
        digest = hashlib.sha256(f"{code}\n{report}".encode()).hexdigest()
        yield f"validate/{manifest.parent.relative_to(out).as_posix()}", digest


def _hash_array(h, a):
    h.update(repr((a.dtype.str, a.shape)).encode())
    h.update(np.ascontiguousarray(a).tobytes())


def smoother_digest(gauss_seidel, a, seed):
    """sha256 of one sweep of grid a on a seeded (3, n) batch with signed zeros."""
    x, b = np.random.default_rng(seed).standard_normal((2, 3, a.nrows))
    x[:, ::3], b[:, 1::4] = -0.0, -0.0
    h = hashlib.sha256()
    _hash_array(h, gauss_seidel(a, x[:1], b[:1]))
    _hash_array(h, gauss_seidel(a, x, b))
    return h.hexdigest()


def operator_digests():
    """Yield (name, sha256) for every grid of the five cycle solvers at k = 2..7,
    and one smoother line after each."""
    from skelgraph.multigrid import build_problem, gauss_seidel, make_solver
    from skelgraph.sparse import SparseMatrix

    for k in range(2, 8):
        problem = build_problem(k, 1)
        for name in CYCLE_SOLVERS:
            solver = make_solver(name, problem)
            grids = solver.ops.items() if isinstance(solver.ops, dict) else enumerate(solver.ops)
            for g, a in grids:
                if a is None:  # classical keeps no grid at index 0
                    continue
                h = hashlib.sha256()
                for m in (a.rows, a.cols, a.vals):
                    _hash_array(h, m)
                for child in solver.children[g]:
                    p = child.p
                    if isinstance(p, SparseMatrix):
                        h.update(repr(p.shape).encode())
                        for m in (p.rows, p.cols, p.vals):
                            _hash_array(h, m)
                    else:
                        _hash_array(h, p)
                    # the restriction as the cycle computes it, on a batch of one column
                    r = np.random.default_rng(k).standard_normal(a.nrows)
                    _hash_array(h, child.restrict(r[None])[0])
                grid = f"k{k}/{name}/{str(g).replace(' ', '')}"
                yield f"operators/{grid}", h.hexdigest()
                yield f"smoother/{grid}", smoother_digest(gauss_seidel, a, k)
            del solver


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    if not (src / "skelgraph").is_dir():
        sys.exit(f"error: no skelgraph package under {src}")
    sys.path.insert(0, str(src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_outputs(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest} {path.relative_to(out).as_posix()}")
        for name, digest in validate_digests(out):
            print(f"{digest} {name}")
    for name, digest in operator_digests():
        print(f"{digest} {name}")


if __name__ == "__main__":
    main()
