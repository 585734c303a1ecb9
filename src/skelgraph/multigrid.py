"""Dirichlet problems on product grids and multigrid solvers over them.

The 2D operator is the negated five-point Laplacian on the interior of the
unit square (diagonal 4, off-diagonal -1), which factors as the Kronecker
sum of two 1D tridiagonals.  Each 1D factor carries its own hierarchy of
pair-aggregation prolongations with orthonormal columns, so coarsening one
dimension at a time is an exact Galerkin identity and the recursive solver
can semicoarsen along either factor.

All solvers run one Galerkin gamma-cycle recursion: smooth, restrict,
recurse gamma times, prolong, combine, smooth.  Each supplies its grids (an
operator per grid and, per grid, the coarser grids correcting it with their
restriction and prolongation), its coarsest-grid rule (one exact sweep or
full smoothing) and how corrections combine (a plain sum or energy-optimal
weights).  Work is counted in smoothing units, charged where each sweep
runs: one sweep costs the nonzero count of its matrix; transfers are free;
``cycle_cost`` recomputes it analytically as the check.  All solvers are
free of randomness, so traces are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .skeletal import _product_levels
from .sparse import SparseMatrix, kron, kron_sum, write_matrix_market

__all__ = [
    "CycleSpec",
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


@dataclass(frozen=True)
class CycleSpec:
    """gamma=1 is a V-cycle, gamma=2 a W-cycle; smoothing counts per visit."""

    gamma: int = 1
    pre_smooth: int = 1
    post_smooth: int = 1

    def __post_init__(self):
        if self.gamma not in (1, 2):
            raise ValueError("gamma must be 1 (V) or 2 (W)")
        if self.pre_smooth < 1 or self.post_smooth < 1:
            raise ValueError("smoothing counts must be at least 1")


@dataclass(frozen=True)
class DirichletProblem:
    k: int
    n: int
    A: SparseMatrix
    b: np.ndarray
    factor_ops: tuple      # [dim][i-1] -> 1D operator at level i, i = 1..k
    factor_prolong: tuple  # [dim][i-1] -> map from level i to i+1, i = 1..k-1
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
    e = [(i, i, 2.0) for i in range(n)]
    e += [(i, i + 1, -1.0) for i in range(n - 1)]
    e += [(i + 1, i, -1.0) for i in range(n - 1)]
    return SparseMatrix.from_entries(n, n, e)


def _pair_prolongation(n_coarse):
    """Orthonormal pair aggregation {2p, 2p+1} -> p on interior grids.

    Interior grids have 2 * n_coarse + 1 fine nodes, one more than the pairs
    cover; the leftover last node joins the final aggregate (weight 1/sqrt 3)
    so every fine node has a coarse parent and the columns stay orthonormal.
    """
    n_fine = 2 * n_coarse + 1
    rows, cols, vals = [], [], []
    for p in range(n_coarse):
        members = [2 * p, 2 * p + 1]
        if p == n_coarse - 1:
            members.append(n_fine - 1)
        w = len(members) ** -0.5
        for m in members:
            rows.append(m)
            cols.append(p)
            vals.append(w)
    return SparseMatrix(n_fine, n_coarse, rows, cols, vals)


def _boundary_values(k, bc):
    """Boundary node values on the (n+2) x (n+2) closed grid, row 0 at bottom."""
    n = 2 ** k - 1
    m = n + 2
    vals = np.zeros((m, m))
    if bc == 1:
        vals[0, :] = 1.0
        vals[:, 0] = 1.0
    elif bc == 2:
        walk = []
        walk += [(r, 0) for r in range(m - 1)]            # up the left edge
        walk += [(m - 1, c) for c in range(m - 1)]        # right along the top
        walk += [(r, m - 1) for r in range(m - 1, 0, -1)] # down the right edge
        walk += [(0, c) for c in range(m - 1, 0, -1)]     # left along the bottom
        for t, (r, c) in enumerate(walk):
            vals[r, c] = (-1.0) ** t
    else:
        raise ValueError("bc must be 1 or 2")
    return vals


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
    bound = _boundary_values(k, bc)
    b = np.zeros(n * n)
    border = {(r, c) for r in (1, n) for c in range(1, n + 1)}
    border |= {(r, c) for c in (1, n) for r in range(1, n + 1)}
    for r, c in sorted(border):
        acc = 0.0
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if rr in (0, n + 1) or cc in (0, n + 1):
                acc += bound[rr, cc]
        if acc:
            b[(r - 1) * n + (c - 1)] = acc
    return DirichletProblem(
        k, n, a, b, (tuple(ops), tuple(ops)), (tuple(prolong), tuple(prolong)), bc
    )


def export_problem(problem, directory):
    """Write the system as Matrix Market A plus one b value per line."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_market(directory / "A.mtx", problem.A, symmetric=True)
    with open(directory / "b.txt", "w") as fh:
        for value in problem.b:
            fh.write(f"{float(value)!r}\n")


def gauss_seidel(a, x, b, sweeps=1):
    """Forward lexicographic Gauss-Seidel sweeps; returns a new vector."""
    if a.nrows != a.ncols:
        raise ValueError("gauss_seidel needs a square matrix")
    diag = a.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("gauss_seidel needs a nonzero diagonal")
    indptr, indices, data = a.csr()
    x = np.array(x, dtype=np.float64)
    n = x.size
    for _ in range(sweeps):
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            x[i] += (b[i] - data[lo:hi] @ x[indices[lo:hi]]) / diag[i]
    return x


class _GalerkinCycle:
    """The cycle recursion of the module docstring over ``ops[g]``, the
    operator of grid g, and ``children[g]``, its (child, restrict, prolong)
    entries."""

    # one sweep on a grid without children: an exact solve on the 1x1
    # coarsest grids, and the whole cycle of the plain Gauss-Seidel baseline
    coarsest_exact = True
    energy_weights = False  # a plain sum of the corrections otherwise

    def __init__(self, problem, spec, top, ops, children):
        self.problem = problem
        self.spec = spec
        self.top = top
        self.ops = ops
        self.children = children
        self.cycle_cost = float(self._cost(top, {}))

    def _cost(self, g, memo):
        """Analytic work of one visit to grid g, the check on what _visit charges."""
        if g not in memo:
            a, children, spec = self.ops[g], self.children[g], self.spec
            if not children and self.coarsest_exact:
                memo[g] = a.nnz
            else:
                below = sum(self._cost(child, memo) for child, _, _ in children)
                memo[g] = (spec.pre_smooth + spec.post_smooth) * a.nnz + spec.gamma * below
        return memo[g]

    def _visit(self, g, x, b):
        a, children, spec = self.ops[g], self.children[g], self.spec
        if not children and self.coarsest_exact:
            return gauss_seidel(a, x, b, 1), float(a.nnz)
        x = gauss_seidel(a, x, b, spec.pre_smooth)
        work = float(spec.pre_smooth * a.nnz)
        r = b - a @ x
        corrections = []
        for child, restrict, prolong in children:
            rc = restrict(r)
            c = np.zeros(rc.size)
            for _ in range(spec.gamma):
                c, w = self._visit(child, c, rc)
                work += w
            corrections.append(prolong(c))
        if self.energy_weights:
            x = x + _energy_optimal_combination(a, r, corrections)
        else:
            x = sum(corrections, x)
        return gauss_seidel(a, x, b, spec.post_smooth), work + spec.post_smooth * a.nnz

    def cycle(self, x):
        return self._visit(self.top, x, self.problem.b)

    def residual(self, x):
        return float(np.linalg.norm(self.problem.b - self.problem.A @ x))


def _sparse_child(child, p):
    """A coarser grid reached through prolongation p and restriction p.T."""
    return child, lambda r: p.T @ r, lambda c: p @ c


def _factor_child(child, p, axis):
    """A grid coarsened along one axis of a 2D tensor grid by that factor's
    dense prolongation p."""
    if axis == 0:
        return (child, lambda r: (p.T @ r.reshape(p.shape[0], -1)).ravel(),
                lambda c: (p @ c.reshape(p.shape[1], -1)).ravel())
    return (child, lambda r: (r.reshape(-1, p.shape[0]) @ p).ravel(),
            lambda c: (c.reshape(-1, p.shape[1]) @ p.T).ravel())


class GaussSeidelIteration(_GalerkinCycle):
    """Plain smoothing as a baseline; one cycle is one sweep."""

    name = "gauss_seidel"

    def __init__(self, problem):
        super().__init__(problem, CycleSpec(), 0, {0: problem.A}, {0: []})


class ClassicalMultigrid(_GalerkinCycle):
    """Geometric multigrid coarsening both dimensions at once (Galerkin)."""

    def __init__(self, problem, cycle=CycleSpec()):
        self.name = "classical_mg_v" if cycle.gamma == 1 else "classical_mg_w"
        pro1, _ = problem.factor_prolong
        ops, children = [None] * problem.k + [problem.A], [[] for _ in range(problem.k + 1)]
        for i in range(problem.k - 1, 0, -1):
            p2 = kron(pro1[i - 1], pro1[i - 1])
            ops[i] = p2.T @ ops[i + 1] @ p2
            children[i + 1] = [_sparse_child(i, p2)]
        super().__init__(problem, cycle, problem.k, ops, children)


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

    def __init__(self, problem, cycle=CycleSpec()):
        self.name = "skeletal_recursive_v" if cycle.gamma == 1 else "skeletal_recursive_w"
        k = problem.k
        ops1, ops2 = problem.factor_ops
        # dense factor prolongations; p1[i] maps level i to i+1
        p1, p2 = ([None] + [p.to_dense() for p in pro] for pro in problem.factor_prolong)
        ops, children = {}, {}
        # depth first from the finest grid, the order in which the cycle first
        # reaches them: building the small grids first raises peak memory
        order = [(l1, k) for l1 in range(k, 0, -1)]
        order += [(l1, l2) for l1 in range(1, k + 1) for l2 in range(k - 1, 0, -1)]
        for l1, l2 in order:
            ops[l1, l2] = kron_sum(ops1[l1 - 1], ops2[l2 - 1])
            children[l1, l2] = []
            if l1 > 1:
                children[l1, l2].append(_factor_child((l1 - 1, l2), p1[l1 - 1], 0))
            if l2 > 1:
                children[l1, l2].append(_factor_child((l1, l2 - 1), p2[l2 - 1], 1))
        super().__init__(problem, cycle, (k, k), ops, children)

    def _grid(self, l1, l2):
        return self.ops[l1, l2]

    def solve_on_grid(self, l1, l2, x, b):
        """One recursion from an arbitrary grid; exposed for testing."""
        return self._visit((l1, l2), np.array(x, dtype=float), b)


class LevelwiseSkeletal(_GalerkinCycle):
    """Classical multigrid over summed-level systems, whose hierarchy is the
    skeletal box product of the two 1D operator hierarchies: the level-L
    operator is the block diagonal of every factor-level pair (i1, i2) with
    i1 + i2 = L, transfers move one factor per block and are
    column-renormalized."""

    # level L-1 repeats the level-L function content across its blocks, so
    # the raw correction overcounts; it is scaled to the energy optimum
    energy_weights = True

    def __init__(self, problem, cycle=CycleSpec()):
        self.name = "skeletal_levelwise_v" if cycle.gamma == 1 else "skeletal_levelwise_w"
        k = problem.k
        # 1D level i sits at index i - 1, so summed level L comes out at index L - 2
        levels = _product_levels(problem.factor_ops, problem.factor_prolong, "box", sum, 2 * k - 2)
        self.blocks, ops, self.transfer, children = {}, {}, {}, {2: []}
        for L, (codec, a, p) in enumerate(levels, start=2):
            self.blocks[L] = [tuple(i + 1 for i in lvec) for lvec in codec.blocks]
            ops[L] = a
            if p is not None:
                self.transfer[L] = _renormalize_columns(p)
                children[L] = [_sparse_child(L - 1, self.transfer[L])]
        super().__init__(problem, cycle, 2 * k, ops, children)


def _energy_optimal_combination(a, r, corrections):
    """Combination of candidate corrections minimizing the energy norm of the
    remaining error: solve the small Gram system (d_i, A d_j) alpha = (d_i, r).
    Degenerate directions fall back to equal weights."""
    if not corrections:
        return 0.0
    applied = [a @ d for d in corrections]
    gram = np.array([[di @ adj for adj in applied] for di in corrections])
    rhs = np.array([d @ r for d in corrections])
    try:
        alpha = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        alpha = np.full(len(corrections), 1.0 / len(corrections))
    out = np.zeros_like(corrections[0])
    for coeff, d in zip(alpha, corrections):
        out += coeff * d
    return out


def _renormalize_columns(p):
    norms = np.sqrt(np.bincount(p.cols, weights=p.vals ** 2, minlength=p.ncols))
    return SparseMatrix(p.nrows, p.ncols, p.rows, p.cols, p.vals / norms[p.cols])


ALGORITHMS = {
    "gauss_seidel": lambda prob: GaussSeidelIteration(prob),
    "classical_mg_v": lambda prob: ClassicalMultigrid(prob, CycleSpec(gamma=1)),
    "classical_mg_w": lambda prob: ClassicalMultigrid(prob, CycleSpec(gamma=2)),
    "skeletal_recursive_v": lambda prob: RecursiveSkeletal(prob, CycleSpec(gamma=1)),
    "skeletal_recursive_w": lambda prob: RecursiveSkeletal(prob, CycleSpec(gamma=2)),
    "skeletal_levelwise_v": lambda prob: LevelwiseSkeletal(prob, CycleSpec(gamma=1)),
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
