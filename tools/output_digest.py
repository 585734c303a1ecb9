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
- one ``cli-error/<case>`` line per usage check of the CLI commands (see
  ``USAGE_ERRORS``), hashing its exit code and stderr;
- ``export_problem`` (``A.mtx`` and ``b.txt``) at k = 2..6, bc 1 and 2,
  since no CLI path writes b;
- the ``run_benchmark`` CSV of all six algorithms at k = 2..5, bc 1 and 2,
  with the recursive W-cycle at k = 5 in its own file;
- in memory, not as files: one ``oracle/<kind>_<f1>_<f2>`` line per
  ``product_via_flat_assembly`` of cross, box and strong on the ``PAIRS``
  lineages read back from disk and on path(6) x complete(6), each at the
  oracle's default depth, hashing the triplets of every level and map;
- in memory, one ``skeletal/<kind>_path8_complete8`` line per
  ``skeletal_cross``, ``skeletal_box`` and ``skeletal_strong`` of path(8) x
  complete(8) with seeded weights (see ``seeded_weights``) at the default
  depth, hashing the triplets of every level and map: a size where the
  product builder's per-entry work outweighs its per-call work;
- in memory, every grid operator and transfer that the five cycle solvers
  build at k = 2..7, breadth first from the finest grid through the coarser
  grids correcting each.  A grid's line hashes the triplet bytes of its
  operator and, per coarser grid it corrects from, the child entry's
  prolongation ``p`` (sparse triplets or dense array; a levelwise transfer's
  is built by ``levelwise_prolongation``), the entry's
  restriction applied to a fixed seeded vector, and (see
  ``transfer_digest``) its prolongation of one seeded coarse column and its
  restriction and prolongation of seeded three-column batches;
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
# (case, argv) failing one usage check each; {out} is the directory the runs write to
USAGE_ERRORS = [
    ("gen-negative-levels", ["gen", "path", "--levels", "-1"]),
    ("product-oracle-not-binary", ["product", "nway-hat", "{out}/lineages/path",
                                   "{out}/lineages/nhat", "--oracle-check"]),
    ("product-prolong-not-box-or-cross", ["product", "strong", "{out}/lineages/path",
                                          "{out}/lineages/nhat", "--weights", "prolong"]),
    ("product-binary-three-inputs", ["product", "box", "{out}/lineages/path",
                                     "{out}/lineages/nhat", "{out}/lineages/path"]),
    ("product-dilated-one-input", ["product", "dilated", "{out}/lineages/path"]),
    ("export-level-out-of-range", ["export", "{out}/lineages/path", "--level", "9"]),
    ("cnn-structure-negative-levels", ["cnn-structure", "--grid-levels", "-1",
                                       "--feature-levels", "2"]),
    ("bench-unknown-algorithm", ["bench", "--k", "2", "--bc", "1", "--budget", "10",
                                 "--algorithms", "gauss_seidel", "cg"]),
    ("bench-negative-budget", ["bench", "--k", "2", "--bc", "1", "--budget", "-1"]),
]
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


def usage_error_digests(out):
    """Yield (name, sha256) of the exit code and stderr of each ``USAGE_ERRORS``
    call, run with ``--out`` a path under out that no call writes."""
    from skelgraph.cli import main

    for case, argv in USAGE_ERRORS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = _run(main, *(a.format(out=out) for a in argv), "--out", f"{out}/cli-error")
        digest = hashlib.sha256(f"{code}\n{err.getvalue()}".encode()).hexdigest()
        yield f"cli-error/{case}", digest


def _hash_array(h, a):
    h.update(repr((a.dtype.str, a.shape)).encode())
    h.update(np.ascontiguousarray(a).tobytes())


def _hash_matrix(h, m):
    h.update(repr(m.shape).encode())
    for a in (m.rows, m.cols, m.vals):
        _hash_array(h, a)


def oracle_digests(out):
    """Yield (name, sha256) of every level and map of the flat-assembly oracle
    of each kind on the ``PAIRS`` lineages under out and on path(6) x complete(6)."""
    from skelgraph.lineage import complete_lineage, path_lineage, read_lineage
    from skelgraph.skeletal import product_via_flat_assembly

    pairs = [(f"{f1}_{f2}", read_lineage(out / "lineages" / f1), read_lineage(out / "lineages" / f2))
             for f1, f2 in PAIRS]
    pairs.append(("path6_complete6", path_lineage(6), complete_lineage(6)))
    for stem, gg1, gg2 in pairs:
        for kind in ("cross", "box", "strong"):
            gg = product_via_flat_assembly(gg1, gg2, kind)
            h = hashlib.sha256()
            for m in (*(g.adj for g in gg.levels), *gg.inter):
                _hash_matrix(h, m)
            yield f"oracle/{kind}_{stem}", h.hexdigest()


def seeded_weights(gg, rng):
    """gg with weights drawn from [0.5, 2): one per unordered vertex pair of
    each level, so levels stay symmetric, and one per entry of each map."""
    from skelgraph.graphs import Graph
    from skelgraph.lineage import GradedGraph
    from skelgraph.sparse import SparseMatrix

    levels = []
    for a in (g.adj for g in gg.levels):
        pair = np.minimum(a.rows, a.cols) * a.ncols + np.maximum(a.rows, a.cols)
        _, inverse = np.unique(pair, return_inverse=True)
        vals = rng.uniform(0.5, 2.0, a.nnz)[inverse]
        levels.append(Graph(SparseMatrix(a.nrows, a.ncols, a.rows, a.cols, vals)))
    inter = [SparseMatrix(s.nrows, s.ncols, s.rows, s.cols, rng.uniform(0.5, 2.0, s.nnz))
             for s in gg.inter]
    return GradedGraph(levels, inter, None, dict(gg.meta))


def product_digests():
    """Yield (name, sha256) of every level and map of the three binary
    skeletal products of seeded path(8) x complete(8)."""
    from skelgraph import skeletal
    from skelgraph.lineage import complete_lineage, path_lineage

    rng = np.random.default_rng(8)
    gg1, gg2 = seeded_weights(path_lineage(8), rng), seeded_weights(complete_lineage(8), rng)
    for kind in ("cross", "box", "strong"):
        gg = getattr(skeletal, f"skeletal_{kind}")(gg1, gg2)
        h = hashlib.sha256()
        for m in (*(g.adj for g in gg.levels), *gg.inter):
            _hash_matrix(h, m)
        yield f"skeletal/{kind}_path8_complete8", h.hexdigest()


def smoother_digest(gauss_seidel, a, seed):
    """sha256 of one sweep of grid a on a seeded (3, n) batch with signed zeros."""
    x, b = np.random.default_rng(seed).standard_normal((2, 3, a.nrows))
    x[:, ::3], b[:, 1::4] = -0.0, -0.0
    h = hashlib.sha256()
    _hash_array(h, gauss_seidel(a, x[:1], b[:1]))
    _hash_array(h, gauss_seidel(a, x, b))
    return h.hexdigest()


def transfer_digest(h, child, fine, coarse, seed):
    """Add to h the prolongation of a seeded coarse column, and the restriction
    and prolongation of seeded batches of three columns holding signed zeros."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3, coarse))
    r = rng.standard_normal((3, fine))
    c[:, ::3], r[:, 1::4] = -0.0, -0.0
    _hash_array(h, child.prolong(c[:1]))
    _hash_array(h, child.restrict(r))
    _hash_array(h, child.prolong(c))


def levelwise_prolongation(solver, level):
    """The levelwise transfer from level - 1 to level as one matrix, from the 1D
    factors through the public sparse kernels: fine block (i1, i2) takes
    P(i1 - 1) (x) I from coarse block (i1 - 1, i2) and I (x) P(i2 - 1) from
    (i1, i2 - 1), then every column is scaled to unit norm."""
    from skelgraph.sparse import SparseMatrix, block_assemble, identity, kron

    ops, prolong = solver.problem.ops1d, solver.problem.prolong1d
    fine, coarse = solver.blocks[level], solver.blocks[level - 1]
    eye = [None, *(identity(a.nrows) for a in ops)]  # eye[i]: identity of 1D level i
    blocks = {}
    for b, (i1, i2) in enumerate(fine):
        for c, (j1, j2) in enumerate(coarse):
            if (j1, j2) == (i1 - 1, i2):
                blocks[b, c] = kron(prolong[j1 - 1], eye[i2])
            elif (j1, j2) == (i1, i2 - 1):
                blocks[b, c] = kron(eye[i1], prolong[j2 - 1])
    p = block_assemble(blocks, *([eye[i].nrows * eye[j].nrows for i, j in side]
                                 for side in (fine, coarse)))
    norms = np.sqrt(np.bincount(p.cols, weights=p.vals ** 2, minlength=p.ncols))
    return SparseMatrix(p.nrows, p.ncols, p.rows, p.cols, p.vals / norms[p.cols])


def operator_digests():
    """Yield (name, sha256) for every grid of the five cycle solvers at k = 2..7,
    and one smoother line after each."""
    from skelgraph.multigrid import LevelwiseSkeletal, build_problem, gauss_seidel, make_solver
    from skelgraph.sparse import SparseMatrix

    for k in range(2, 8):
        problem = build_problem(k, 1)
        for name in CYCLE_SOLVERS:
            solver = make_solver(name, problem)
            grids = [solver.top]  # every grid the cycle reaches, in first-reached order
            for g in grids:
                grids += [c.grid for c in solver.children[g] if c.grid not in grids]
            for g in grids:
                a, h = solver.ops[g], hashlib.sha256()
                for m in (a.rows, a.cols, a.vals):
                    _hash_array(h, m)
                for child in solver.children[g]:
                    p = (levelwise_prolongation(solver, g) if isinstance(solver, LevelwiseSkeletal)
                         else child.p)
                    if isinstance(p, SparseMatrix):
                        _hash_matrix(h, p)
                    else:
                        _hash_array(h, p)
                    # the restriction as the cycle computes it, on a batch of one column
                    r = np.random.default_rng(k).standard_normal(a.nrows)
                    _hash_array(h, child.restrict(r[None])[0])
                    transfer_digest(h, child, a.nrows, solver.ops[child.grid].nrows, k)
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
        for name, digest in (*validate_digests(out), *usage_error_digests(out),
                             *oracle_digests(out)):
            print(f"{digest} {name}")
    for name, digest in (*product_digests(), *operator_digests()):
        print(f"{digest} {name}")


if __name__ == "__main__":
    main()
