"""Dirichlet problems on product grids and multigrid solvers over them.

The 2D operator is the negated five-point Laplacian on the interior of the
unit square (diagonal 4, off-diagonal -1), which factors as the Kronecker
sum of one 1D tridiagonal with itself.  Both axes share one 1D hierarchy
of pair-aggregation prolongations with orthonormal columns, so coarsening one
dimension at a time is an exact Galerkin identity and the recursive solver
can semicoarsen along either axis.

All solvers run one Galerkin gamma-cycle: smooth, restrict, run the coarser
grids gamma times (``gamma=1`` a V-cycle, ``gamma=2`` a W-cycle), prolong,
combine, smooth.  Each supplies its grids (an operator per grid and, per
grid, the coarser grids correcting it, with their prolongations as data),
its coarsest-grid rule (one exact sweep or full smoothing) and how
corrections combine (a plain sum or energy-optimal weights).  Work is
counted in smoothing units, charged where each sweep runs: one sweep costs
the nonzero count of its matrix; transfers are free; ``cycle_cost``
recomputes it analytically as the check.  All solvers are free of
randomness, so traces are bit-reproducible.  Every solver's finest grid is
the object ``problem.A`` (the recursive grid (k, k) and the levelwise top
level are that Kronecker sum), so its cached sweep schedule is shared.

The cycle runs one depth at a time: all visits to a grid sit at one depth
(2k - l1 - l2 for the recursive solver's grid (l1, l2)) and read only their
parents' residuals, so one pass pre-smooths them as the columns of one
batch, restricts them into the next depth's batches, runs that depth gamma
times, then prolongs, combines and post-smooths them.  A depth's coarse
batch runs in chunks of at most ``chunk_elements`` values.  A pass holding a
whole depth (the top, or the one chunk below a whole pass) sweeps its grids
as one block diagonal, whose wavefronts are theirs merged (recursive V at k=6:
549 groups, not 1,404); each dot keeps its operands in order, so the bits hold.

The smoother does one forward lexicographic Gauss-Seidel sweep per call by
wavefronts (level scheduling), bit-identical to the row-by-row sweep: each
is one gather, one batched matmul over its rows padded at the front to a
common width, and four elementwise calls on operands stored pre-shaped.
"""

from __future__ import annotations

import contextlib
import functools
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .sparse import (SparseMatrix, _kron_sum_nnz, _repr_rows, _segments, block_assemble, kron,
                     kron_sum, write_matrix_market)

__all__ = [
    "DirichletProblem",
    "WorkTrace",
    "build_problem",
    "export_problem",
    "gauss_seidel",
    "ClassicalMultigrid",
    "RecursiveSkeletal",
    "LevelwiseSkeletal",
    "GaussSeidelIteration",
    "ALGORITHMS",
    "make_solver",
    "run_benchmark",
]

RESIDUAL_FLOOR = 1e-10
# set-up peaks at 2.37 / 2.31 / 2.40 GB at k = 11 (classical / recursive / levelwise,
# whose finest grid is problem.A; tools/solver_peak.py ALG 11 --cycles 0) and grows ~4x
# per step of k, so at k = 12 (where build_problem alone peaks at 3.1 GB) it needs ~10 GB
MAX_BENCHMARK_K = 11


@dataclass(frozen=True)
class DirichletProblem:
    k: int
    n: int
    A: SparseMatrix
    b: np.ndarray
    ops1d: tuple      # [i-1] -> 1D operator at level i, i = 1..k, for both axes
    prolong1d: tuple  # [i-1] -> 1D map from level i to i+1, i = 1..k-1
    bc: int


@dataclass
class WorkTrace:
    rows: list = field(default_factory=list)  # (algorithm, cycle, work, residual)

    def append(self, algorithm, cycle, work, residual):
        if self.rows and self.rows[-1][0] == algorithm and work <= self.rows[-1][2]:
            raise ValueError("cumulative work must increase")
        if not np.isfinite(residual):
            raise ValueError("residual must be finite")
        self.rows.append((algorithm, cycle, float(work), float(residual)))

    def to_csv(self):
        lines = ["algorithm,cycle,work,residual"]
        for alg, cyc, work, res in self.rows:
            lines.append(f"{alg},{cyc},{work!r},{res!r}")
        return "\n".join(lines) + "\n"

    def final_residuals(self):
        return {alg: res for alg, _, _, res in self.rows}


def _tridiagonal(n):
    i = np.arange(n)
    return SparseMatrix(n, n, np.r_[i, i[:-1], i[1:]], np.r_[i, i[1:], i[:-1]],
                        np.r_[np.full(n, 2.0), np.full(2 * n - 2, -1.0)])


def _pair_prolongation(n_coarse):
    """Orthonormal pair aggregation {2p, 2p+1} -> p on interior grids.

    Interior grids have 2 * n_coarse + 1 fine nodes, one more than the pairs
    cover; the leftover last node joins the final aggregate (weight 1/sqrt 3)
    so every fine node has a coarse parent and the columns stay orthonormal.
    """
    rows = np.arange(2 * n_coarse + 1)
    cols = np.minimum(rows // 2, n_coarse - 1)
    vals = np.where(cols == n_coarse - 1, 3 ** -0.5, 2 ** -0.5)
    return SparseMatrix(rows.size, n_coarse, rows, cols, vals)


def _boundary_rhs(k, bc):
    """Five-point stencil sums of the boundary values at the interior nodes.

    The closed (n+2) x (n+2) grid, row 0 at the bottom, holds the boundary
    values and zeros inside: for bc=1, ones on the bottom row and left
    column; for bc=2, signs alternating along the clockwise walk from the
    lower-left corner, which is (-1)**(r + c) as every side has 2**k steps.
    Each node sums at most two values of +-1, so b is exact.
    """
    r, c = np.ogrid[: 2 ** k + 1, : 2 ** k + 1]
    if bc == 1:
        g = ((r == 0) | (c == 0)).astype(np.float64)
    elif bc == 2:
        g = (-1.0) ** (r + c)
    else:
        raise ValueError("bc must be 1 or 2")
    g[1:-1, 1:-1] = 0.0
    return (g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]).ravel()


def build_problem(k, bc):
    """Interior Dirichlet system at refinement k with 2**k - 1 nodes per side."""
    if not 2 <= k <= 12:
        raise ValueError("k must be between 2 and 12")
    n = 2 ** k - 1
    ops = [_tridiagonal(n)]
    prolong = []
    for i in range(k - 1, 0, -1):
        p = _pair_prolongation(2 ** i - 1)
        prolong.append(p)
        ops.append(p.T @ ops[-1] @ p)
    ops.reverse()
    prolong.reverse()
    a = kron_sum(ops[-1], ops[-1])
    return DirichletProblem(k, n, a, _boundary_rhs(k, bc), tuple(ops), tuple(prolong), bc)


def export_problem(problem, directory):
    """Write the system as Matrix Market A plus one b value per line."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_market(directory / "A.mtx", problem.A, symmetric=True)
    lines = _repr_rows(problem.b)
    with open(directory / "b.txt", "wb") as fh:
        fh.write(lines[lines != 0])


# the widest row padded into its wavefront's group: a dot of at most 15 entries rounds
# like a fused multiply-add chain from 0.0, kept by a leading 0.0 * 0.0, not beyond
_PAD_WIDTH = 8


def _wavefront_schedule(a):
    """The sweep order of ``gauss_seidel`` for square ``a``: (order, groups).

    Every stored off-diagonal (i, j) makes row max(i, j) wait for row
    min(i, j); a row's wavefront is the longest chain of such waits ending
    at it, found by one frontier (Kahn) pass.  A wavefront's rows of at most
    ``_PAD_WIDTH`` entries form one group, each padded at the front to the
    group's widest row with value 0.0 at column n (the sweep's held zero); a
    longer row shares a group only with rows of its length.  Rows are
    ordered by group, then index, with columns remapped to that order.
    ``groups`` holds each group's operands in the shapes the sweep takes:
    (rows, diagonal (m, 1, 1), columns (m, L, 1), values (m, 1, L)) for m
    rows of width L, or (index, diagonal value, columns, values) for one.
    """
    n = a.nrows
    diag = a.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("gauss_seidel needs a nonzero diagonal")
    length = np.diff(a.indptr())
    off = a.rows != a.cols
    early = np.minimum(a.rows[off], a.cols[off])
    late = np.maximum(a.rows[off], a.cols[off])
    by_early = np.argsort(early, kind="stable")
    late = late[by_early]
    # late[release[i]:release[i + 1]] are the rows waiting for row i
    release = np.searchsorted(early[by_early], np.arange(n + 1))
    pending = np.bincount(late, minlength=n)
    wave = np.empty(n, dtype=np.int64)
    frontier, w = np.flatnonzero(pending == 0), 0
    while frontier.size:
        wave[frontier] = w
        released = late[_segments(release[frontier], release[frontier + 1])]
        released, count = np.unique(released, return_counts=True)
        pending[released] -= count
        frontier, w = released[pending[released] == 0], w + 1
    del off, early, late, by_early, release, pending  # lowers the build's peak
    exact = np.where(length > _PAD_WIDTH, length, 0)  # 0: the wavefront's padded group
    order = np.lexsort((exact, wave))
    wave, exact = wave[order], exact[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (wave[1:] != wave[:-1]) | (exact[1:] != exact[:-1])
    row_cut = np.append(np.flatnonzero(new_group), n)
    width = np.maximum.reduceat(length[order], row_cut[:-1]) if n else length
    size = np.diff(row_cut)
    entry_cut = np.append(0, np.cumsum(width * size))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # each row's entries end its padded run; slot lists them in stored order
    end = np.cumsum(np.repeat(width, size))[rank]
    slot = _segments(end - length, end)
    cols = np.full(entry_cut[-1], n)
    cols[slot] = rank[a.cols]
    vals = np.zeros(entry_cut[-1])
    vals[slot], diag = a.vals, diag[order]
    rc, ec = row_cut.tolist(), entry_cut.tolist()
    groups = []
    for r0, r1, e0, e1, L in zip(rc[:-1], rc[1:], ec[:-1], ec[1:], width.tolist()):
        m, c, v = r1 - r0, cols[e0:e1], vals[e0:e1]
        groups.append((r0, diag[r0], c, v) if m == 1 else (slice(r0, r1), diag[r0:r1].reshape(
            m, 1, 1), c.reshape(m, L, 1), v.reshape(m, 1, L)))
    return order, groups


def gauss_seidel(a, x, b):
    """One forward lexicographic Gauss-Seidel sweep on x and b of shape (n,),
    or (B, n) for B >= 0 independent systems; returns a new array.

    Rows run by the groups of ``_wavefront_schedule``, one per wavefront
    when no row holds more than ``_PAD_WIDTH`` entries.  No entry joins two
    rows of one wavefront, and a row's neighbours of lower (higher) index
    sit in earlier (later) wavefronts, so each row reads updated and old
    values exactly as the row-by-row sweep does, for any pattern.  Through
    (n + 1, 1, 1) views of y and c, or (B, n + 1, 1, 1), a group of m rows is
    one contiguous gather of its (m, L, 1) columns (a strided operand can
    round differently), one stacked matmul by its (m, 1, L) values, a slice
    of c, a subtract, a divide by its (m, 1, 1) diagonal and an in-place add
    through a view of y; one row takes one dot per column, rounding the same.
    Pads lead each row and gather slot n, held at 0.0: a dot of at most 15
    entries is a fused multiply-add chain from +0.0, kept by 0.0 * 0.0.
    """
    if a.nrows != a.ncols:
        raise ValueError("gauss_seidel needs a square matrix")
    x, b = np.asarray(x, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if x.shape != b.shape or x.ndim not in (1, 2) or x.shape[-1] != a.nrows:
        raise ValueError(f"vector shapes {x.shape}, {b.shape} incompatible with {a.shape}")
    if a._sweep_cache is None:
        a._sweep_cache = _wavefront_schedule(a)
    order, groups = a._sweep_cache
    y = np.concatenate((x.take(order, axis=-1), np.zeros((*x.shape[:-1], 1))), axis=-1)
    _sweep_groups(groups, y, b.take(order, axis=-1))
    out = np.empty(x.shape)
    out[..., order] = y[..., :-1]
    return out


def _sweep_groups(groups, y, c):
    """Sweep y, (n + 1,) or (B, n + 1) with last slot 0.0, by ``groups`` against c, in place."""
    if y.ndim == 2 and len(y) == 1:
        y, c = y[0], c[0]
    if y.ndim == 2:
        y3, y4, c4 = y[..., None], y[..., None, None], c[..., None, None]
        for rows, d, cols, vals in groups:
            if type(rows) is int:
                operator.iadd(y[:, rows], (c[:, rows] - (vals @ y3.take(cols, axis=1))[:, 0]) / d)
            else:
                operator.iadd(y4[:, rows], (c4[:, rows] - vals @ y.take(cols, axis=1)) / d)
        return
    y3, c3 = y[:, None, None], c[:, None, None]
    for rows, d, cols, vals in groups:
        if type(rows) is int:  # a plain dot costs less per call on chain-like grids
            y[rows] += (c[rows] - vals @ y.take(cols)) / d
        else:
            operator.iadd(y3[rows], (c3[rows] - vals @ y.take(cols)) / d)


class _Child(NamedTuple):
    """A coarser grid and its prolongation p: sparse (axis None), or one 2D
    tensor factor's dense p along that axis.  Transfers map (columns, n)."""

    grid: object
    p: object
    axis: object = None

    def restrict(self, r):
        p, batch = self.p, len(r)
        if self.axis is not None:
            return self._along_axis(p.T, r)
        # p.T @ r without the transpose, summed in the same (row) order
        bins = p.cols if batch == 1 else (p.cols + p.ncols * np.arange(batch)[:, None]).ravel()
        terms = (p.vals * r.take(p.rows, axis=1)).ravel()
        return np.bincount(bins, terms, batch * p.ncols).reshape(batch, p.ncols)

    def prolong(self, c):
        return self.p @ c if self.axis is None else self._along_axis(self.p, c)

    def _along_axis(self, q, x):
        """Dense q applied along this child's axis of every column of x."""
        if self.axis == 0:
            return (q @ x.reshape(len(x), q.shape[1], -1)).reshape(len(x), -1)
        return (x.reshape(len(x), -1, q.shape[1]) @ q.T).reshape(len(x), -1)


class _GalerkinCycle:
    """The cycle of the module docstring over ``ops[g]``, the operator of
    grid g, and ``children[g]``, the ``_Child`` entries correcting it."""

    # one sweep on a grid without children: an exact solve on the 1x1
    # coarsest grids, and the whole cycle of the plain Gauss-Seidel baseline
    coarsest_exact = True
    energy_weights = False  # a plain sum of the corrections otherwise
    # values in one chunk of a depth's coarse batch: bounds the live columns
    chunk_elements = 1 << 16

    def __init__(self, problem, gamma, top, ops, children):
        if gamma not in (1, 2):
            raise ValueError("gamma must be 1 (V) or 2 (W)")
        self.problem = problem
        self.gamma = gamma
        self.top = top
        self.ops = ops
        self.children = children
        self.cycle_cost = float(self._cost(top, {}))
        self._fused = {}  # grid tuple -> (groups, each grid's rows in sweep order)

    def _cost(self, g, memo):
        """Analytic work of one visit to grid g, the check on what _pass charges."""
        if g not in memo:
            a, children = self.ops[g], self.children[g]
            if not children and self.coarsest_exact:
                memo[g] = a.nnz
            else:
                below = sum(self._cost(child.grid, memo) for child in children)
                memo[g] = 2 * a.nnz + self.gamma * below
        return memo[g]

    def _pass(self, batch, whole=False):
        """Visit every column of one depth, ``batch`` = {g: (X, B)} of shape
        (columns, n_g); returns the cycled {g: X} and the work charged.  If
        ``whole`` (every column of every grid at its depth), two grids or more
        pre- and post-smooth in one ``_fused_sweep`` each; else grid by grid."""
        fuse = whole and len(batch) > 1
        out, work, held, coarse, post = {}, 0, [], {}, {}
        smoothed = self._fused_sweep(batch) if fuse else {}
        for g, (x, b) in batch.items():
            a, children = self.ops[g], self.children[g]
            x = smoothed[g] if fuse else gauss_seidel(a, x, b)
            work += a.nnz * len(x)
            if not children and self.coarsest_exact:
                out[g] = x
                continue
            r = b - a @ x
            # where this grid's columns start in each child's batch
            starts = [sum(map(len, coarse.setdefault(child.grid, []))) for child in children]
            for child in children:
                coarse[child.grid].append(child.restrict(r))
            held.append((g, x, b, r, starts))
        rhs = {c: np.concatenate(p) if len(p) > 1 else p[0] for c, p in coarse.items()}
        del coarse
        sol = {c: np.zeros(f.shape) for c, f in rhs.items()}
        chunks = list(self._chunks(rhs))
        whole = whole and len(chunks) == 1  # one chunk of a whole depth is the next depth
        for chunk in chunks:
            for _ in range(self.gamma):
                done, w = self._pass({c: (sol[c][s], rhs[c][s]) for c, s in chunk.items()}, whole)
                work += w
                for c, s in chunk.items():
                    sol[c][s] = done[c]
        for g, x, b, r, starts in held:
            a = self.ops[g]
            corrections = [child.prolong(sol[child.grid][i:i + len(x)])
                           for child, i in zip(self.children[g], starts)]
            if self.energy_weights:
                x = x + _energy_optimal_combination(a, r, corrections)
            else:
                x = sum(corrections, x)
            if fuse:
                post[g] = x, b
            else:
                out[g] = gauss_seidel(a, x, b)
            work += a.nnz * len(x)
        return out | (self._fused_sweep(post) if post else {}), work

    def _fused_sweep(self, batch):
        """``gauss_seidel`` on every grid of ``batch`` = {g: (X, B)} as one sweep of their
        block diagonal, short X and B padded with zero columns; returns {g: X}."""
        grids = tuple(batch)
        if grids not in self._fused:
            sizes = [self.ops[g].nrows for g in grids]
            order, groups = _wavefront_schedule(block_assemble(
                {(j, j): self.ops[g] for j, g in enumerate(grids)}, sizes, sizes))
            self._fused[grids] = groups, np.split(np.argsort(order), np.cumsum(sizes[:-1]))
        groups, at = self._fused[grids]
        width, n = max(len(x) for x, _ in batch.values()), sum(map(len, at))
        y, c = np.zeros((width, n + 1)), np.zeros((width, n))
        for (x, b), rows in zip(batch.values(), at):
            y[:len(x), rows], c[:len(b), rows] = x, b
        _sweep_groups(groups, y, c)
        return {g: y[:len(x), rows] for (g, (x, _)), rows in zip(batch.items(), at)}

    def _chunks(self, rhs):
        """{grid: column slice} runs of rhs of at most ``chunk_elements`` values, or one column."""
        chunk, room = {}, self.chunk_elements
        for g, f in rhs.items():
            width, start = max(f.shape[1], 1), 0
            while start < len(f):
                if chunk and room < width:
                    yield chunk
                    chunk, room = {}, self.chunk_elements
                stop = min(len(f), start + max(room // width, 1))
                chunk[g] = slice(start, stop)
                room -= (stop - start) * width
                start = stop
        if chunk:
            yield chunk

    def cycle(self, x):
        out, work = self._pass({self.top: (np.asarray(x)[None], self.problem.b[None])}, True)
        return out[self.top][0], float(work)

    def residual(self, x):
        return float(np.linalg.norm(self.problem.b - self.problem.A @ x))


class GaussSeidelIteration(_GalerkinCycle):
    """Plain smoothing as a baseline; one cycle is one sweep."""

    def __init__(self, problem):
        super().__init__(problem, 1, 0, {0: problem.A}, {0: []})


class ClassicalMultigrid(_GalerkinCycle):
    """Geometric multigrid coarsening both dimensions at once (Galerkin)."""

    def __init__(self, problem, gamma=1):
        ops, children = {problem.k: problem.A}, {1: []}
        for i in range(problem.k - 1, 0, -1):
            p2 = kron(problem.prolong1d[i - 1], problem.prolong1d[i - 1])
            ops[i] = p2.T @ ops[i + 1] @ p2
            children[i + 1] = [_Child(i, p2)]
        super().__init__(problem, gamma, problem.k, ops, children)


class RecursiveSkeletal(_GalerkinCycle):
    """Semicoarsened recursion: every visited grid restricts its residual
    along each factor dimension still above the coarsest level and solves
    there from a zero initial guess.

    The two prolonged corrections overlap on components smooth in both
    dimensions, so adding them verbatim amplifies exactly those components
    and the iteration diverges.  They are combined instead with the weights
    minimizing the energy norm of the remaining error (a 2x2 Galerkin solve
    over the correction span; a single correction reduces to a line search),
    which also makes every correction step monotone in the energy norm.
    """

    coarsest_exact = False
    energy_weights = True

    def __init__(self, problem, gamma=1):
        k, ops1d = problem.k, problem.ops1d
        # the dense 1D prolongations, one list for both axes; p[i]: i -> i+1
        p = [None] + [q.to_dense() for q in problem.prolong1d]
        ops, children = {}, {}
        # depth first from the finest grid, the order in which the cycle first
        # reaches them: building the small grids first raises peak memory
        order = [(l1, k) for l1 in range(k, 0, -1)]
        order += [(l1, l2) for l1 in range(1, k + 1) for l2 in range(k - 1, 0, -1)]
        for l1, l2 in order:
            ops[l1, l2] = problem.A if l1 == l2 == k else kron_sum(ops1d[l1 - 1], ops1d[l2 - 1])
            coarser = (_Child((l1 - 1, l2), p[l1 - 1], 0), _Child((l1, l2 - 1), p[l2 - 1], 1))
            children[l1, l2] = [child for child in coarser if child.p is not None]
        super().__init__(problem, gamma, (k, k), ops, children)


class LevelwiseSkeletal(_GalerkinCycle):
    """Classical multigrid over summed-level systems, whose hierarchy is the
    skeletal box product of the 1D operator hierarchy with itself, built from
    the 1D factors: the level-L operator is the block diagonal of the
    Kronecker sums of every factor-level pair (i1, i2) with i1 + i2 = L,
    assembled one block at a time, and each transfer is a ``_PairTransfer``."""

    # level L-1 repeats the level-L function content across its blocks, so
    # the raw correction overcounts; it is scaled to the energy optimum
    energy_weights = True

    def __init__(self, problem, gamma=1):
        k, ops1d = problem.k, problem.ops1d
        for i, p in enumerate(problem.prolong1d, start=1):
            if p != _pair_prolongation(ops1d[i - 1].nrows) or p.nrows != ops1d[i].nrows:
                raise ValueError(f"prolong1d[{i - 1}], from 1D level {i} to {i + 1}, is not the "
                                 "pair aggregation the levelwise transfers are built from")
        self.blocks, ops, children = {}, {}, {2: []}
        for L in range(2, 2 * k + 1):
            self.blocks[L] = [(i1, L - i1) for i1 in range(max(1, L - k), min(k, L - 1) + 1)]
            pairs = [(ops1d[i1 - 1], ops1d[i2 - 1]) for i1, i2 in self.blocks[L]]
            sizes = [a.nrows * b.nrows for a, b in pairs]
            ops[L] = problem.A if L == 2 * k else block_assemble(
                {(j, j): (_kron_sum_nnz(a, b), functools.partial(kron_sum, a, b))
                 for j, (a, b) in enumerate(pairs)}, sizes, sizes)
            if L > 2:
                children[L] = [_PairTransfer(problem, L, self.blocks[L], self.blocks[L - 1])]
        super().__init__(problem, gamma, 2 * k, ops, children)


class _PairTransfer:
    """The levelwise transfer from level L - 1 to L, applied block by block.

    Fine block (i1, i2) is fed by coarse block (i1 - 1, i2) along axis 0 and
    by (i1, i2 - 1) along axis 1, each link the 1D pair aggregation along its
    axis.  A coarse column's norm depends only on whether its two indices lie
    in their 1D level's last, three-node aggregate, so a link holds its
    weights v / norm as one vector along its axis for all lines across it but
    the last, and one for the last.  Sums run in the order of the assembled
    matrix, the skeletal box product's map with renormalized columns, from
    0.0: a fine node adds its axis-0 term, then its axis-1 term; a coarse
    column folds its terms in fine-row order, so the links run in fine-block
    order, which puts a coarse block's axis-1 link first.
    """

    def __init__(self, problem, level, fine, coarse):
        self.grid, prolong = level - 1, problem.prolong1d
        n = [0] + [a.nrows for a in problem.ops1d]  # n[i]: nodes of 1D level i
        # the squares of the first and of the last column of the 1D map out of each level
        squares = [None, *((q.vals[q.cols == 0] ** 2, q.vals[q.cols == q.ncols - 1] ** 2)
                           for q in prolong), ((), ())]
        sizes = [[n[i] * n[j] for i, j in blocks] for blocks in (fine, coarse)]
        at = [dict(zip(b, np.cumsum([0, *m]))) for b, m in zip((fine, coarse), sizes)]  # offsets
        self.shape = tuple(map(sum, sizes))
        # per link: its fine and coarse slices and shapes, the transpose putting
        # its axis second, each fine node's parent along it, and its weights
        self.links = []
        for i1, i2 in fine:
            for axis, (c1, c2) in enumerate(((i1 - 1, i2), (i1, i2 - 1))):
                if min(c1, c2) < 1:
                    continue
                # [a' last, b' last]: a coarse column's squares, folded in fine-row order
                sq = [[(*squares[c2][b], *squares[c1][a]) for b in (0, 1)] for a in (0, 1)]
                norms = np.sqrt([[functools.reduce(operator.add, t, 0.0) for t in r] for r in sq])
                q, table = prolong[(c1, c2)[axis] - 1], norms.T if axis else norms
                last, across = (q.cols == q.ncols - 1).astype(np.int64), n[(i2, i1)[axis]]
                f0, c0 = at[0][i1, i2], at[1][c1, c2]
                self.links.append((
                    slice(f0, f0 + q.nrows * across), slice(c0, c0 + q.ncols * across),
                    *([(-1, m, across), (-1, across, m)][axis] for m in (q.nrows, q.ncols)),
                    (0, 1 + axis, 2 - axis), q.cols,
                    (q.vals / table[last, 0])[:, None], q.vals / table[last, 1]))

    def prolong(self, c):
        out = np.zeros((len(c), self.shape[0]))
        for fine, coarse, fine_shape, coarse_shape, order, parent, w, w_last in self.links:
            t = c[:, coarse].reshape(coarse_shape).transpose(order).take(parent, 1)
            t[..., :-1] *= w
            t[..., -1] *= w_last
            y = out[:, fine].reshape(fine_shape).transpose(order)
            y += t
        return out

    def restrict(self, r):
        out = np.zeros((len(r), self.shape[1]))
        for fine, coarse, fine_shape, coarse_shape, order, _, w, w_last in self.links:
            x = r[:, fine].reshape(fine_shape).transpose(order)
            t = x * w
            t[..., -1] = x[..., -1] * w_last
            y = out[:, coarse].reshape(coarse_shape).transpose(order)
            y += t[:, :-1:2]
            y += t[:, 1:-1:2]
            y[:, -1] += t[:, -1]
        return out


def _energy_optimal_combination(a, r, corrections):
    """Combination of candidate corrections minimizing the energy norm of the
    remaining error, per column of r and corrections, (n,) or (B, n): solve
    the small Gram system (d_i, A d_j) alpha = (d_i, r).  Degenerate columns
    fall back to equal weights."""
    if not corrections:
        return 0.0
    n = r.shape[-1]
    # stacked (B, 1, n) @ (B, n, 1) dots round like one dot per column
    rows = [d.reshape(-1, 1, n) for d in corrections]
    applied = [(a @ d.reshape(-1, n)).reshape(-1, n, 1) for d in corrections]
    rhs = np.concatenate([d @ r.reshape(-1, n, 1) for d in rows], axis=1)
    m = len(corrections)
    gram = np.concatenate([d @ ad for d in rows for ad in applied], axis=1).reshape(-1, m, m)
    if m == 1:
        # the 1x1 system in closed form; LAPACK's solve rounds it the same way
        alpha = np.divide(rhs, gram, out=np.ones_like(gram), where=gram != 0.0)
    else:
        try:
            alpha = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:  # a singular column fails the batch: solve each alone
            alpha = np.full_like(rhs, 1.0 / m)
            for j in range(len(gram)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    alpha[j] = np.linalg.solve(gram[j], rhs[j])
    out = np.zeros((len(alpha), n))
    for i, d in enumerate(corrections):
        out += alpha[:, i] * d.reshape(-1, n)
    return out.reshape(r.shape)


ALGORITHMS = {
    "gauss_seidel": GaussSeidelIteration,
    "classical_mg_v": ClassicalMultigrid,
    "classical_mg_w": lambda prob: ClassicalMultigrid(prob, 2),
    "skeletal_recursive_v": RecursiveSkeletal,
    "skeletal_recursive_w": lambda prob: RecursiveSkeletal(prob, 2),
    "skeletal_levelwise_v": LevelwiseSkeletal,
}


def make_solver(name, problem):
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None
    return factory(problem)


def run_benchmark(k, bc, algorithms, budget):
    """Run each algorithm from zero until the work budget or residual floor.

    A cycle only runs when its full cost still fits in the budget, so a zero
    budget records just the starting residuals.  Rows are ordered by
    (algorithm, cycle).
    """
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms {unknown}")
    if not budget >= 0:  # a NaN budget fails too
        raise ValueError("budget must be nonnegative")
    if k > MAX_BENCHMARK_K:
        raise ValueError(f"k must be at most {MAX_BENCHMARK_K} to benchmark solvers: "
                         f"their set-up at k = 12 needs ~10 GB or more")
    problem = build_problem(k, bc)
    trace = WorkTrace()
    bnorm = float(np.linalg.norm(problem.b))
    for name in sorted(algorithms):
        solver = make_solver(name, problem)
        x = np.zeros(problem.n ** 2)
        work = 0.0
        res = solver.residual(x)
        trace.append(name, 0, work, res)
        step = 0
        while res > RESIDUAL_FLOOR * bnorm and work + solver.cycle_cost <= budget:
            x, dw = solver.cycle(x)
            work += dw
            res = solver.residual(x)
            step += 1
            trace.append(name, step, work, res)
        # free this solver's grids before the next set-up allocates its own
        del solver
    return trace
