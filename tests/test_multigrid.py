"""Dirichlet problems, smoothing, and the three multigrid solvers."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from skelgraph import multigrid, skeletal
from skelgraph.multigrid import (
    ALGORITHMS,
    ClassicalMultigrid,
    GaussSeidelIteration,
    LevelwiseSkeletal,
    RecursiveSkeletal,
    WorkTrace,
    build_problem,
    gauss_seidel,
    make_solver,
    run_benchmark,
)
from skelgraph.skeletal import _product_levels
from skelgraph.sparse import SparseMatrix, identity, kron, kron_sum


def test_cycle_spec_validation():
    prob = build_problem(2, 1)
    for cls in (ClassicalMultigrid, RecursiveSkeletal, LevelwiseSkeletal):
        with pytest.raises(ValueError, match="gamma must be 1"):
            cls(prob, gamma=3)
    for name in ALGORITHMS:
        assert make_solver(name, prob).gamma == (2 if name.endswith("_w") else 1)


def test_build_problem_k2_bc1_rhs():
    prob = build_problem(2, 1)
    assert np.array_equal(prob.b, [2, 1, 1, 1, 0, 0, 1, 0, 0])


def test_build_problem_k2_bc2_rhs():
    # clockwise walk from the lower-left corner alternates signs; freezing
    # the resulting stencil accumulation by hand gives the checkerboard below
    prob = build_problem(2, 2)
    assert np.array_equal(prob.b, [-2, 1, -2, 1, 0, 1, -2, 1, -2])


def _loop_pair_prolongation(n_coarse):
    """The per-aggregate pair prolongation, the byte reference for the vectorized one."""
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


def _loop_boundary_rhs(k, bc):
    """The border-node accumulation of boundary values, the byte reference for b."""
    n = 2 ** k - 1
    m = n + 2
    bound = np.zeros((m, m))
    if bc == 1:
        bound[0, :] = 1.0
        bound[:, 0] = 1.0
    else:
        walk = []
        walk += [(r, 0) for r in range(m - 1)]            # up the left edge
        walk += [(m - 1, c) for c in range(m - 1)]        # right along the top
        walk += [(r, m - 1) for r in range(m - 1, 0, -1)] # down the right edge
        walk += [(0, c) for c in range(m - 1, 0, -1)]     # left along the bottom
        for t, (r, c) in enumerate(walk):
            bound[r, c] = (-1.0) ** t
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
    return b


@pytest.mark.parametrize("k", range(2, 10))
def test_problem_matches_loop_references_byte_for_byte(k):
    for bc in (1, 2):
        prob = build_problem(k, bc)
        assert prob.b.tobytes() == _loop_boundary_rhs(k, bc).tobytes()
    for i, p in enumerate(prob.prolong1d, start=1):
        ref = _loop_pair_prolongation(2 ** i - 1)
        assert p.shape == ref.shape
        for got, want in ((p.rows, ref.rows), (p.cols, ref.cols), (p.vals, ref.vals)):
            assert got.tobytes() == want.tobytes()


def test_build_problem_operator_shape():
    prob = build_problem(2, 1)
    assert prob.A.shape == (9, 9)
    assert np.all(prob.A.diagonal() == 4.0)
    assert prob.A.nnz == 33
    assert prob.A.is_symmetric()


def test_build_problem_spd_and_box_structure():
    prob = build_problem(3, 1)
    one_d = prob.ops1d[-1]
    assert prob.A == kron_sum(one_d, one_d)
    rng = np.random.default_rng(0)
    dense = prob.A.to_dense()
    for _ in range(5):
        x = rng.standard_normal(prob.n ** 2)
        assert x @ dense @ x > 0


def test_build_problem_rejects_bad_k():
    with pytest.raises(ValueError):
        build_problem(1, 1)
    with pytest.raises(ValueError):
        build_problem(13, 1)
    with pytest.raises(ValueError):
        build_problem(3, 3)


def test_run_benchmark_refuses_k_whose_solvers_do_not_fit():
    # refused before any grid is built, so this costs nothing at k = 12
    with pytest.raises(ValueError, match="at most 11"):
        run_benchmark(12, 1, ["gauss_seidel"], 0.0)


@pytest.mark.parametrize("algorithms, budget, message", [
    (["classical_mg_v", "zz"], 1e12, r"unknown algorithms \['zz'\]"),
    (["zz"], float("nan"), r"unknown algorithms \['zz'\]"),
    (["gauss_seidel"], float("nan"), "budget must be nonnegative"),
    (["gauss_seidel"], -1.0, "budget must be nonnegative"),
])
def test_run_benchmark_checks_names_and_budget_first(algorithms, budget, message):
    # at k = 12, which is refused next: nothing is built and no solver runs first
    with pytest.raises(ValueError, match=message):
        run_benchmark(12, 1, algorithms, budget)


def test_factor_galerkin_consistency():
    prob = build_problem(5, 1)
    ops, pros = prob.ops1d, prob.prolong1d
    for i in range(len(pros)):
        coarse = (pros[i].T @ ops[i + 1] @ pros[i]).to_dense()
        assert np.max(np.abs(coarse - ops[i].to_dense())) <= 1e-12


def test_factor_prolongations_orthonormal():
    prob = build_problem(5, 1)
    for p in prob.prolong1d:
        gram = (p.T @ p).to_dense()
        assert np.max(np.abs(gram - np.eye(p.ncols))) <= 1e-12


def test_semicoarsening_identity_all_hierarchy_edges():
    # coarsening one factor at a time is an exact Galerkin triple product
    prob = build_problem(5, 1)
    ops, pros = prob.ops1d, prob.prolong1d
    k = prob.k
    worst = 0.0
    for i1 in range(1, k + 1):
        for i2 in range(1, k + 1):
            fine = kron_sum(ops[i1 - 1], ops[i2 - 1])
            if i1 > 1:
                p = kron(pros[i1 - 2], identity(ops[i2 - 1].nrows))
                coarse = kron_sum(ops[i1 - 2], ops[i2 - 1])
                dev = np.max(np.abs((p.T @ fine @ p - coarse).to_dense()))
                worst = max(worst, dev)
            if i2 > 1:
                p = kron(identity(ops[i1 - 1].nrows), pros[i2 - 2])
                coarse = kron_sum(ops[i1 - 1], ops[i2 - 2])
                dev = np.max(np.abs((p.T @ fine @ p - coarse).to_dense()))
                worst = max(worst, dev)
    assert worst <= 1e-12


def test_gauss_seidel_identity_and_scalar():
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(gauss_seidel(identity(3), np.zeros(3), b), b)
    four = SparseMatrix.from_entries(1, 1, [(0, 0, 4.0)])
    assert gauss_seidel(four, np.zeros(1), np.array([8.0]))[0] == 2.0


def test_gauss_seidel_reduces_residual():
    prob = build_problem(2, 1)
    x = gauss_seidel(prob.A, np.zeros(9), prob.b)
    assert np.linalg.norm(prob.b - prob.A @ x) < np.linalg.norm(prob.b)


def test_gauss_seidel_rejects_zero_diagonal():
    with pytest.raises(ValueError):
        gauss_seidel(SparseMatrix.from_entries(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]),
                     np.zeros(2), np.ones(2))


def test_gauss_seidel_rejects_mismatched_lengths():
    cases = [
        (identity(3), np.zeros(2), np.ones(3)),
        (identity(3), np.zeros(3), np.ones(4)),
        (build_problem(2, 1).A, np.zeros(5), np.ones(9)),
        (build_problem(2, 1).A, np.zeros(9), np.ones(5)),
    ]
    for a, x, b in cases:
        with pytest.raises(ValueError, match="incompatible"):
            gauss_seidel(a, x, b)


def _row_loop_gauss_seidel(a, x, b, sweeps):
    """The row-by-row forward sweep, the byte reference for gauss_seidel."""
    diag = a.diagonal()
    indptr, indices, data = a.indptr(), a.cols, a.vals
    x = np.array(x, dtype=np.float64)
    for _ in range(sweeps):
        for i in range(x.size):
            lo, hi = indptr[i], indptr[i + 1]
            x[i] += (b[i] - data[lo:hi] @ x[indices[lo:hi]]) / diag[i]
    return x


def _repeated_gauss_seidel(a, x, b, sweeps):
    for _ in range(sweeps):
        x = gauss_seidel(a, x, b)
    return x


def _solver_operators():
    """Every operator the five cycle solvers build at k=2..6, bc 1 and 2."""
    for k in range(2, 7):
        for bc in (1, 2):
            problem = build_problem(k, bc)
            for name in ALGORITHMS:
                if name != "gauss_seidel":
                    yield from make_solver(name, problem).ops.values()


def _random_operators(rng):
    """Square matrices of non-symmetric pattern with a nonzero diagonal,
    a diagonal-only matrix, a 1x1 and a 0x0 matrix."""
    for _ in range(60):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 4 * n))
        r, c = rng.integers(0, n, m), rng.integers(0, n, m)
        a = SparseMatrix(n, n, np.r_[r, np.arange(n)], np.r_[c, np.arange(n)],
                         np.r_[rng.standard_normal(m), rng.uniform(1.0, 3.0, n)])
        if np.all(a.diagonal() != 0.0):
            yield a
    yield SparseMatrix(5, 5, np.arange(5), np.arange(5), rng.uniform(1.0, 3.0, 5))
    yield SparseMatrix(1, 1, [0], [0], [-3.0])
    yield SparseMatrix(0, 0)


def _mixed_width_operators(rng):
    """Matrices whose wavefronts each mix rows of 1, ``_PAD_WIDTH``,
    ``_PAD_WIDTH + 1``, 16 to 40 and a few entries.  Tier 0 is 48 rows that
    wait for nothing; a tier t row reads one row of tier t - 1 and others
    before it, so it sits in wavefront t, and a one-entry row waits through
    an entry above the diagonal in a row of tier t - 1."""
    pad = multigrid._PAD_WIDTH
    for _ in range(12):
        rows, cols, prev = [np.arange(48)], [np.arange(48)], np.arange(48)
        for _ in range(3):
            start = prev[-1] + 1
            lengths = rng.permutation([1, 1, pad, pad, pad + 1, *rng.integers(16, 41, 5),
                                       *rng.integers(2, pad + 1, 4)])
            tier = start + np.arange(lengths.size)
            for i, length in zip(tier, lengths):
                first = rng.choice(prev)
                if length == 1:
                    rows.append([i, first])
                    cols.append([i, i])
                else:
                    rest = rng.choice(np.setdiff1d(np.arange(start), first), length - 2, replace=False)
                    rows.append(np.full(length, i))
                    cols.append(np.r_[i, first, rest])
            prev = tier
        r, c = np.concatenate(rows), np.concatenate(cols)
        vals = np.where(r == c, rng.uniform(1.0, 3.0, r.size) * rng.choice([-1.0, 1.0], r.size),
                        rng.standard_normal(r.size))
        yield SparseMatrix(prev[-1] + 1, prev[-1] + 1, r, c, vals)


def _signed_zeros(rng, x, b):
    """x and b with -0.0 and +0.0 scattered in; every third draw all zeros."""
    for v in (x, b):
        v[..., rng.random(v.shape[-1]) < 0.3] = -0.0
        v[..., rng.random(v.shape[-1]) < 0.1] = 0.0
    if rng.integers(3) == 0:
        x[...] = -0.0
        b[..., rng.random(b.shape[-1]) < 0.8] = -0.0
    return x, b


def test_batched_gauss_seidel_matches_one_call_per_column():
    rng = np.random.default_rng(11)
    operators = [*_solver_operators(), *_random_operators(rng)]
    mixed = list(_mixed_width_operators(rng))
    for t, a in enumerate(operators[::7] + mixed + operators[-3:]):
        batch = 2 + t % 4
        x, b = rng.standard_normal((batch, a.nrows)), rng.standard_normal((batch, a.nrows))
        x[:, ::3] = -0.0  # signed zeros must survive the batch as they do one column at a time
        x, b = _signed_zeros(rng, x, b)
        x0, b0 = x.copy(), b.copy()
        sweeps = 1 + t % 2
        got = _repeated_gauss_seidel(a, x, b, sweeps)
        want = got.tobytes()
        assert got.shape == x.shape
        columns = [_repeated_gauss_seidel(a, x[j], b[j], sweeps) for j in range(batch)]
        for j in range(batch):
            assert got[j].tobytes() == columns[j].tobytes()
            assert got[j].tobytes() == _row_loop_gauss_seidel(a, x[j], b[j], sweeps).tobytes()
        assert x.tobytes() == x0.tobytes() and b.tobytes() == b0.tobytes()
        # a batch of one column takes the single-column path, with its shape kept
        one = _repeated_gauss_seidel(a, x[:1], b[:1], sweeps)
        assert one.shape == (1, a.nrows) and one[0].tobytes() == got[0].tobytes()
        # calls share no state: later calls leave the arrays returned before them as they were
        assert got.tobytes() == want
        assert all(got[j].tobytes() == columns[j].tobytes() for j in range(batch))
    with pytest.raises(ValueError, match="incompatible"):
        gauss_seidel(identity(3), np.zeros((2, 3)), np.zeros((3, 3)))


def test_batched_matvec_matches_one_call_per_column():
    rng = np.random.default_rng(12)
    matrices = [*_random_operators(rng), kron(identity(3), _loop_pair_prolongation(4)),
                build_problem(4, 1).A, SparseMatrix(3, 5)]
    for t, a in enumerate(matrices):
        x = rng.standard_normal((1 + t % 5, a.ncols))
        got = a @ x
        assert got.shape == (len(x), a.nrows)
        for j in range(len(x)):
            assert got[j].tobytes() == (a @ x[j]).tobytes()
    for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match="incompatible"):
            identity(3) @ bad


def test_wavefront_gauss_seidel_matches_row_loop():
    rng = np.random.default_rng(7)
    shapes = set()
    operators = [*_solver_operators(), *_random_operators(rng), *_mixed_width_operators(rng)]
    for t, a in enumerate(operators):
        shapes.add(a.shape)
        x, b = _signed_zeros(rng, rng.standard_normal(a.nrows), rng.standard_normal(a.nrows))
        x0, b0 = x.copy(), b.copy()
        sweeps = 1 + t % 3
        got = _repeated_gauss_seidel(a, x, b, sweeps)
        assert got.tobytes() == _row_loop_gauss_seidel(a, x, b, sweeps).tobytes()
        assert x.tobytes() == x0.tobytes() and b.tobytes() == b0.tobytes()
        # a second call reuses the cached schedule
        assert _repeated_gauss_seidel(a, x, b, sweeps).tobytes() == got.tobytes()
    # recursive W's 1-row and 3-row grids are among them
    assert {(1, 1), (3, 3)} <= shapes
    singular = SparseMatrix.from_entries(3, 3, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (2, 2, 1.0)])
    for _ in range(2):
        with pytest.raises(ValueError, match="nonzero diagonal"):
            gauss_seidel(singular, np.zeros(3), np.ones(3))


def test_wavefront_schedule_pads_short_rows_into_one_group_per_wavefront():
    # the 63 x 63 grid of k=6 has 2 * 63 - 1 = 125 wavefronts
    assert len(multigrid._wavefront_schedule(build_problem(6, 1).A)[1]) == 125
    pad = multigrid._PAD_WIDTH
    for a in _mixed_width_operators(np.random.default_rng(5)):
        order, groups = multigrid._wavefront_schedule(a)
        lengths = np.diff(a.indptr())[order]
        diag = a.diagonal()[order]
        for rows, d, cols, vals in groups:
            # the sweep's shapes: (L,) for one row, else (m, L, 1) columns and (m, 1, L) values
            width = vals.shape[-1]
            if type(rows) is int:
                assert cols.shape == vals.shape == (width,) and d == diag[rows]
            else:
                m = rows.stop - rows.start
                assert (cols.shape, vals.shape, d.shape) == ((m, width, 1), (m, 1, width), (m, 1, 1))
                assert np.array_equal(d.ravel(), diag[rows])
            v, c = vals.reshape(-1, width), cols.reshape(-1, width)
            # pads (value 0.0 at the held slot n) lead each row, and only short rows get them
            assert np.array_equal(v == 0.0, c == a.nrows)
            assert np.array_equal((v != 0.0).sum(axis=1), np.atleast_1d(lengths[rows]))
            assert np.all(np.diff((v != 0.0).astype(int), axis=1) >= 0)
            assert width <= pad or np.all(lengths[rows] == width)


def test_gauss_seidel_sweeps_an_empty_batch():
    rng = np.random.default_rng(14)
    for a in (identity(3), build_problem(3, 1).A, next(_mixed_width_operators(rng)),
              SparseMatrix(0, 0)):
        empty = np.zeros((0, a.nrows))
        got = gauss_seidel(a, empty, empty)
        assert got.shape == (a @ empty).shape == (0, a.nrows) and got.dtype == np.float64
    # an empty batch is still checked for a zero diagonal
    with pytest.raises(ValueError, match="nonzero diagonal"):
        gauss_seidel(SparseMatrix.from_entries(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]),
                     np.zeros((0, 2)), np.zeros((0, 2)))


def test_solver_setup_builds_no_sweep_schedule(monkeypatch):
    # schedules are built on a matrix's first sweep, so set-up and residuals leave them unbuilt
    for name in ALGORITHMS:
        prob = build_problem(3, 1)
        solver = make_solver(name, prob)
        solver.residual(np.zeros(prob.n ** 2))
        assert prob.A._sweep_cache is None
        assert all(op._sweep_cache is None for op in solver.ops.values())

    def refused(a):
        raise AssertionError("a zero-budget benchmark built a sweep schedule")

    monkeypatch.setattr(multigrid, "_wavefront_schedule", refused)
    assert len(run_benchmark(3, 1, list(ALGORITHMS), 0.0).rows) == len(ALGORITHMS)


def test_classical_cycle_reduces_residual_by_factor_two():
    prob = build_problem(2, 1)
    solver = ClassicalMultigrid(prob)
    x, _ = solver.cycle(np.zeros(9))
    assert solver.residual(np.zeros(9)) / solver.residual(x) > 2.0


def test_zero_rhs_is_fixed_point():
    import dataclasses

    zero_prob = dataclasses.replace(build_problem(3, 1), b=np.zeros(49))
    for cls in (ClassicalMultigrid, RecursiveSkeletal, LevelwiseSkeletal):
        solver = cls(zero_prob)
        x, _ = solver.cycle(np.zeros(zero_prob.n ** 2))
        assert np.array_equal(x, np.zeros(zero_prob.n ** 2))


def test_solution_is_fixed_point():
    prob = build_problem(3, 1)
    x_star = np.linalg.solve(prob.A.to_dense(), prob.b)
    for cls in (ClassicalMultigrid, RecursiveSkeletal, LevelwiseSkeletal):
        solver = cls(prob)
        x, _ = solver.cycle(x_star.copy())
        assert np.max(np.abs(x - x_star)) <= 1e-13


def test_classical_work_accounting_exact():
    prob = build_problem(3, 1)
    solver = ClassicalMultigrid(prob)
    _, work = solver.cycle(np.zeros(prob.n ** 2))
    expected = sum(2 * solver.ops[i].nnz for i in range(2, prob.k + 1)) + solver.ops[1].nnz
    assert work == expected == solver.cycle_cost
    assert float(work).is_integer()


def test_every_algorithm_charges_its_cycle_cost():
    # the work a cycle charges where its sweeps run must equal the analytic cost
    for bc in (1, 2):
        prob = build_problem(3, bc)
        solvers = [make_solver(name, prob) for name in sorted(ALGORITHMS)]
        solvers.append(LevelwiseSkeletal(prob, 2))
        for solver in solvers:
            x = np.zeros(prob.n ** 2)
            for _ in range(2):
                x, work = solver.cycle(x)
                assert work == solver.cycle_cost, (type(solver).__name__, solver.gamma)


def test_recursive_skeletal_coarsest_grid_smooths_only():
    prob = build_problem(2, 1)
    solver = RecursiveSkeletal(prob)
    b = np.array([8.0])
    a11 = solver.ops[1, 1]
    out, work = solver._pass({(1, 1): (np.zeros((1, 1)), b[None])})
    x = out[1, 1][0]
    # two exact sweeps on the 1x1 system, no recursion
    assert work == 2 * a11.nnz
    assert x[0] == pytest.approx(b[0] / a11.diagonal()[0])


def test_recursive_skeletal_residuals_decrease():
    prob = build_problem(5, 1)
    solver = RecursiveSkeletal(prob)
    x = np.zeros(prob.n ** 2)
    prev = solver.residual(x)
    for _ in range(4):
        x, _ = solver.cycle(x)
        cur = solver.residual(x)
        assert cur < prev
        prev = cur


def test_levelwise_block_structure():
    prob = build_problem(3, 1)
    solver = LevelwiseSkeletal(prob)
    k = prob.k
    assert solver.blocks[2 * k] == [(k, k)]
    assert solver.blocks[2 * k - 1] == [(k - 1, k), (k, k - 1)]
    assert solver.ops[2 * k] == prob.A
    classical = ClassicalMultigrid(prob)
    assert solver.cycle_cost > classical.cycle_cost


@pytest.mark.parametrize("k", range(2, 8))
def test_finest_grid_is_the_problem_operator(k, monkeypatch):
    prob = build_problem(k, 1)
    one_d = prob.ops1d[-1]
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return kron_sum(a, b)

    monkeypatch.setattr(multigrid, "kron_sum", counted)
    monkeypatch.setattr(skeletal, "kron_sum", counted)
    for name in ("skeletal_recursive_v", "skeletal_recursive_w", "skeletal_levelwise_v"):
        calls.clear()
        solver = make_solver(name, prob)
        assert solver.ops[solver.top] is prob.A, name
        # every grid but the finest is one Kronecker sum of its factor levels
        assert len(calls) == k * k - 1, name
        assert not any(a is one_d and b is one_d for a, b in calls), name
    # the level-2k matrix the levelwise solver no longer assembles is A, triplet for triplet
    codecs, levels, _ = _product_levels([prob.ops1d] * 2, [prob.prolong1d] * 2, "box", sum,
                                        2 * k - 2)
    assert codecs[-1].blocks == ((k - 1, k - 1),)
    a = levels[-1]
    assert a.shape == prob.A.shape
    for got, want in ((a.rows, prob.A.rows), (a.cols, prob.A.cols), (a.vals, prob.A.vals)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_recursive_solver_densifies_shared_factor_prolongations_once():
    prob = build_problem(4, 1)
    along0, along1 = RecursiveSkeletal(prob).children[4, 4]
    assert (along0.axis, along1.axis) == (0, 1) and along0.p is along1.p


def test_solvers_of_one_problem_share_the_schedule_of_its_operator(monkeypatch):
    prob = build_problem(4, 1)
    scheduled = []

    def recorded(a):
        scheduled.append(a)
        return schedule(a)

    schedule = multigrid._wavefront_schedule
    monkeypatch.setattr(multigrid, "_wavefront_schedule", recorded)
    x = np.zeros(prob.n ** 2)
    ClassicalMultigrid(prob).cycle(x)
    assert any(a is prob.A for a in scheduled)
    shared, scheduled[:] = prob.A._sweep_cache, []
    for name in ("skeletal_recursive_v", "skeletal_levelwise_v"):
        make_solver(name, prob).cycle(x)
    # no second copy of A, and so no second schedule of it
    assert scheduled and not any(a == prob.A for a in scheduled)
    assert prob.A._sweep_cache is shared


def _assembled_prolongations(prob):
    """Each levelwise transfer as one matrix, keyed by its fine level: the
    skeletal box product's maps, columns renormalized.  The block transfers
    are checked against them byte for byte."""
    *_, links = _product_levels([prob.ops1d] * 2, [prob.prolong1d] * 2, "box", sum,
                                2 * prob.k - 2)
    out = {}
    for level, p in enumerate(links, start=3):
        norms = np.sqrt(np.bincount(p.cols, weights=p.vals ** 2, minlength=p.ncols))
        out[level] = SparseMatrix(p.nrows, p.ncols, p.rows, p.cols, p.vals / norms[p.cols])
    return out


@pytest.mark.parametrize("k", [3, 4])
def test_levelwise_hierarchy_matches_dense_kronecker_reference(k):
    # every level operator and transfer, rebuilt densely from the 1D factors
    prob = build_problem(k, 1)
    solver = LevelwiseSkeletal(prob)
    a1 = a2 = [a.to_dense() for a in prob.ops1d]
    p1 = p2 = [p.to_dense() for p in prob.prolong1d]
    transfer = _assembled_prolongations(prob)
    eye = [np.eye(a.shape[0]) for a in a1]
    assert sorted(solver.ops) == list(range(2, 2 * k + 1))
    assert sorted(transfer) == list(range(3, 2 * k + 1))
    for level, blocks in solver.blocks.items():
        assert blocks == [(i1, level - i1) for i1 in range(1, k + 1) if 1 <= level - i1 <= k]

    def offsets(level):
        sizes = [a1[i1 - 1].shape[0] * a2[i2 - 1].shape[0] for i1, i2 in solver.blocks[level]]
        return np.concatenate([[0], np.cumsum(sizes)])

    for level in range(2, 2 * k + 1):
        off = offsets(level)
        want = np.zeros((off[-1], off[-1]))
        for b, (i1, i2) in enumerate(solver.blocks[level]):
            want[off[b]:off[b + 1], off[b]:off[b + 1]] = (
                np.kron(a1[i1 - 1], eye[i2 - 1]) + np.kron(eye[i1 - 1], a2[i2 - 1])
            )
        assert np.max(np.abs(solver.ops[level].to_dense() - want)) <= 1e-15
        if level == 2:
            continue
        coff = offsets(level - 1)
        want = np.zeros((off[-1], coff[-1]))
        for b, (i1, i2) in enumerate(solver.blocks[level]):
            for c, (j1, j2) in enumerate(solver.blocks[level - 1]):
                if (j1, j2) == (i1 - 1, i2):
                    block = np.kron(p1[i1 - 2], eye[i2 - 1])
                elif (j1, j2) == (i1, i2 - 1):
                    block = np.kron(eye[i1 - 1], p2[i2 - 2])
                else:
                    continue
                want[off[b]:off[b + 1], coff[c]:coff[c + 1]] = block
        want /= np.linalg.norm(want, axis=0)
        assert np.max(np.abs(transfer[level].to_dense() - want)) <= 1e-15


def test_levelwise_transfer_columns_unit_norm():
    prob = build_problem(3, 1)
    solver = LevelwiseSkeletal(prob)
    for p in _assembled_prolongations(prob).values():
        norms = np.bincount(p.cols, weights=p.vals ** 2, minlength=p.ncols)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


def _signed_zero_batch(rng, shape):
    """Seeded normal values, about a third of them -0.0 and a tenth +0.0."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.35] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


@pytest.mark.parametrize("k", range(2, 8))
def test_levelwise_transfers_match_assembled_prolongation(k):
    # the block transfers sum every term in the order of the assembled matrix's
    # matvec, so the two agree byte for byte, signed zeros included
    rng = np.random.default_rng(k)
    for bc in (1, 2):
        prob = build_problem(k, bc)
        solver = LevelwiseSkeletal(prob)
        assembled = _assembled_prolongations(prob)
        for level, (child,) in ((g, c) for g, c in solver.children.items() if c):
            p = assembled[level]
            assert p.shape == (solver.ops[level].nrows, solver.ops[child.grid].nrows)
            for batch in (1, 3):
                r = _signed_zero_batch(rng, (batch, p.nrows))
                c = _signed_zero_batch(rng, (batch, p.ncols))
                assert child.restrict(r).tobytes() == (p.T @ r).tobytes(), (bc, level, batch)
                assert child.prolong(c).tobytes() == (p @ c).tobytes(), (bc, level, batch)


@pytest.mark.parametrize("k", range(2, 8))
def test_levelwise_levels_are_the_skeletal_box_product(k):
    # the paper's identity: the levelwise hierarchy is the skeletal box product
    # of the 1D operator hierarchy with itself, here built by independent code
    prob = build_problem(k, 1)
    solver = LevelwiseSkeletal(prob)
    codecs, levels, _ = _product_levels([prob.ops1d] * 2, [prob.prolong1d] * 2, "box", sum,
                                        2 * k - 2)
    for L, (codec, want) in enumerate(zip(codecs, levels), start=2):
        assert solver.blocks[L] == [(i1 + 1, i2 + 1) for i1, i2 in codec.blocks]
        if L < 2 * k:
            got = solver.ops[L]
            assert got.shape == want.shape
            for x, y in ((got.rows, want.rows), (got.cols, want.cols), (got.vals, want.vals)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_levelwise_setup_holds_little_beyond_its_level_operators():
    # the operators below the top level (24 B per entry) are what set-up must
    # keep; neither the transfers nor a level's blocks beside its assembled
    # copy may add much.  Block transfers and one-block-at-a-time levels read
    # 1.01x held and 1.31x peak here; assembled transfers read 1.55x and 1.88x
    prob = build_problem(8, 1)
    tracemalloc.start()
    try:
        solver = LevelwiseSkeletal(prob)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    operators = 24 * sum(a.nnz for L, a in solver.ops.items() if L < 2 * prob.k)
    assert held <= 1.25 * operators
    assert peak <= 1.45 * operators


def test_levelwise_refuses_a_prolongation_it_cannot_apply_by_blocks():
    # linear interpolation has up to two entries per fine row; the block
    # transfers apply only the pair aggregation build_problem makes
    prob = build_problem(4, 1)
    n = prob.ops1d[1].nrows
    rows = np.r_[np.arange(1, 2 * n, 2), np.arange(0, 2 * n, 2), np.arange(2, 2 * n + 1, 2)]
    cols = np.tile(np.arange(n), 3)
    vals = np.r_[np.ones(n), np.full(2 * n, 0.5)]
    linear = SparseMatrix(2 * n + 1, n, rows, cols, vals)
    prolong = list(prob.prolong1d)
    prolong[1] = linear
    bad = dataclasses.replace(prob, prolong1d=tuple(prolong))
    with pytest.raises(ValueError, match=r"prolong1d\[1\], from 1D level 2 to 3"):
        LevelwiseSkeletal(bad)
    # the other solvers take any prolongation
    ClassicalMultigrid(bad).cycle(np.zeros(prob.n ** 2))


def test_error_energy_monotone_against_dense_reference():
    for k in (2, 3, 4):
        prob = build_problem(k, 2)
        dense = prob.A.to_dense()
        x_star = np.linalg.solve(dense, prob.b)

        def energy(x):
            e = x - x_star
            return e @ dense @ e

        # smoother sweeps never increase the energy norm of the error
        x = np.zeros(prob.n ** 2)
        prev = energy(x)
        for _ in range(5):
            x = gauss_seidel(prob.A, x, prob.b)
            cur = energy(x)
            assert cur <= prev * (1 + 1e-12)
            prev = cur
        # nor do whole cycles of any solver
        for cls in (ClassicalMultigrid, RecursiveSkeletal, LevelwiseSkeletal):
            solver = cls(prob)
            x = np.zeros(prob.n ** 2)
            prev = energy(x)
            for _ in range(3):
                x, _ = solver.cycle(x)
                cur = energy(x)
                assert cur <= prev * (1 + 1e-12)
                prev = cur


def _gram_solve_combination(a, r, corrections):
    """The energy-optimal combination through np.linalg.solve at every size."""
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


def test_energy_combination_matches_gram_solve_bit_for_bit():
    rng = np.random.default_rng(5)
    n = 9
    m = rng.standard_normal((n, n))
    spd = SparseMatrix.from_dense(m @ m.T + n * np.eye(n))
    cases = []
    for _ in range(300):
        r = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        for count in (1, 2):
            scales = 10.0 ** rng.integers(-8, 8, count)
            cases.append((spd, r, [rng.standard_normal(n) * s for s in scales]))
    # zero Gram entries: a zero correction, and an operator that annihilates d
    d = rng.standard_normal(n)
    d[3] = -0.0
    cases += [(spd, r, [np.zeros(n)]), (SparseMatrix(n, n), r, [d]),
              (spd, r, [np.zeros(n), np.zeros(n)])]
    for a, r, corrections in cases:
        got = multigrid._energy_optimal_combination(a, r, corrections)
        assert got.tobytes() == _gram_solve_combination(a, r, corrections).tobytes()
    # the fallback weight 1 keeps d, with its -0.0 accumulated into +0.0
    kept = multigrid._energy_optimal_combination(SparseMatrix(n, n), r, [d])
    assert np.array_equal(kept, d) and not np.signbit(kept[3])


def test_batched_energy_combination_matches_one_call_per_column():
    rng = np.random.default_rng(6)
    n, batch = 9, 5
    m = rng.standard_normal((n, n))
    spd = SparseMatrix.from_dense(m @ m.T + n * np.eye(n))
    r = rng.standard_normal((batch, n))
    for count in (1, 2):
        corrections = [rng.standard_normal((batch, n)) for _ in range(count)]
        # a zero column makes its Gram system singular, so the batched solve
        # fails and every column is solved alone
        for singular in (False, True):
            if singular:
                for d in corrections:
                    d[2] = 0.0
            got = multigrid._energy_optimal_combination(spd, r, corrections)
            for j in range(batch):
                want = _gram_solve_combination(spd, r[j], [d[j] for d in corrections])
                assert got[j].tobytes() == want.tobytes()


def _reference_restrict(child, p, r):
    """The transfers as the per-visit cycle applied them, one vector at a time,
    through the child's prolongation p."""
    axis = getattr(child, "axis", None)
    if axis is None:
        return p.T @ r
    if axis == 0:
        return (p.T @ r.reshape(p.shape[0], -1)).ravel()
    return (r.reshape(-1, p.shape[0]) @ p).ravel()


def _reference_prolong(child, p, c):
    axis = getattr(child, "axis", None)
    if axis is None:
        return p @ c
    if axis == 0:
        return (p @ c.reshape(p.shape[1], -1)).ravel()
    return (c.reshape(-1, p.shape[1]) @ p.T).ravel()


def _prolongations(solver):
    """Per grid, its children's prolongations: a ``_Child``'s own ``p``, or a
    levelwise transfer's assembled matrix."""
    assembled = (_assembled_prolongations(solver.problem)
                 if isinstance(solver, LevelwiseSkeletal) else {})
    return {g: [assembled[g] if assembled else child.p for child in children]
            for g, children in solver.children.items()}


def _sequential_visit(solver, prolongs, g, x, b):
    """One visit at a time down the cycle recursion, the byte reference for
    the depth-by-depth pass; ``prolongs`` as from ``_prolongations``."""
    a, children = solver.ops[g], solver.children[g]
    if not children and solver.coarsest_exact:
        return gauss_seidel(a, x, b), float(a.nnz)
    x = gauss_seidel(a, x, b)
    work = float(a.nnz)
    r = b - a @ x
    corrections = []
    for child, p in zip(children, prolongs[g]):
        rc = _reference_restrict(child, p, r)
        c = np.zeros(rc.size)
        for _ in range(solver.gamma):
            c, w = _sequential_visit(solver, prolongs, child.grid, c, rc)
            work += w
        corrections.append(_reference_prolong(child, p, c))
    if solver.energy_weights:
        x = x + (_gram_solve_combination(a, r, corrections) if corrections else 0.0)
    else:
        x = sum(corrections, x)
    return gauss_seidel(a, x, b), work + a.nnz


@pytest.mark.parametrize("k", range(2, 7))
def test_depth_pass_matches_sequential_recursion_bit_for_bit(k):
    solvers = [*sorted(set(ALGORITHMS) - {"gauss_seidel"}), "skeletal_levelwise_w"]
    for bc in (1, 2):
        prob = build_problem(k, bc)
        for name in solvers:
            # a recursive W cycle visits ~4.6x more grids per step of k; its
            # sequential reference takes seconds from k = 5 on
            if name == "skeletal_recursive_w" and k > 4:
                continue
            solver = (LevelwiseSkeletal(prob, 2) if name == "skeletal_levelwise_w"
                      else make_solver(name, prob))
            x = want = np.zeros(prob.n ** 2)
            prolongs = _prolongations(solver)
            for _ in range(2 if k < 5 else 1):
                want, want_work = _sequential_visit(solver, prolongs, solver.top, want, prob.b)
                # the default chunk size, then one column per chunk
                for cap in (multigrid._GalerkinCycle.chunk_elements, 1):
                    solver.chunk_elements = cap
                    got, work = solver.cycle(x)
                    assert got.tobytes() == want.tobytes(), (name, bc, cap)
                    assert work == want_work == solver.cycle_cost
                x = want


def test_chunks_cover_each_column_once_within_the_budget():
    solver = RecursiveSkeletal(build_problem(2, 1))
    rhs = {"a": np.zeros((5, 7)), "b": np.zeros((3, 40)), "c": np.zeros((4, 2)), "d": np.zeros((2, 0))}
    for budget in (1, 16, 50, 100, 10 ** 6):
        solver.chunk_elements = budget
        seen = {g: [] for g in rhs}
        for chunk in solver._chunks(rhs):
            size = sum((s.stop - s.start) * rhs[g].shape[1] for g, s in chunk.items())
            assert size <= budget or sum(s.stop - s.start for s in chunk.values()) == 1
            for g, s in chunk.items():
                seen[g] += range(s.start, s.stop)
        assert all(seen[g] == list(range(len(f))) for g, f in rhs.items())


def test_w_cycle_variants_run():
    prob = build_problem(3, 1)
    for cls in (ClassicalMultigrid, RecursiveSkeletal):
        solver = cls(prob, 2)
        assert solver.gamma == 2
        x, work = solver.cycle(np.zeros(prob.n ** 2))
        assert work == solver.cycle_cost
        assert solver.residual(x) < solver.residual(np.zeros(prob.n ** 2))


def test_make_solver_rejects_unknown():
    prob = build_problem(2, 1)
    with pytest.raises(ValueError):
        make_solver("conjugate_gradient", prob)


def test_benchmark_gauss_seidel_row_count():
    budget = 10 * build_problem(3, 1).A.nnz + 7
    trace = run_benchmark(3, 1, ["gauss_seidel"], budget)
    assert len(trace.rows) == 10 + 1


def test_benchmark_zero_budget_keeps_initial_rows():
    trace = run_benchmark(2, 1, ["gauss_seidel", "classical_mg_v"], 0.0)
    assert [row[1] for row in trace.rows] == [0, 0]
    assert all(row[2] == 0.0 for row in trace.rows)


def test_benchmark_common_start_and_determinism():
    algos = ["gauss_seidel", "classical_mg_v", "skeletal_recursive_v"]
    t1 = run_benchmark(3, 2, algos, 5e4)
    starts = {row[3] for row in t1.rows if row[1] == 0}
    assert len(starts) == 1
    t2 = run_benchmark(3, 2, algos, 5e4)
    assert t1.to_csv() == t2.to_csv()


def test_trace_csv_shape():
    trace = run_benchmark(2, 1, ["gauss_seidel"], 100.0)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "algorithm,cycle,work,residual"
    assert lines[1].startswith("gauss_seidel,0,0.0,")


def test_export_problem(tmp_path):
    from skelgraph.multigrid import export_problem
    from skelgraph.sparse import read_matrix_market

    prob = build_problem(2, 2)
    export_problem(prob, tmp_path)
    assert read_matrix_market(tmp_path / "A.mtx") == prob.A
    values = [float(line) for line in (tmp_path / "b.txt").read_text().splitlines()]
    assert np.array_equal(values, prob.b)


def test_export_problem_writes_b_as_the_per_line_writer_did(tmp_path):
    from skelgraph.multigrid import export_problem

    for bc in (1, 2):
        prob = build_problem(3, bc)
        export_problem(prob, tmp_path)
        with open(tmp_path / "b_ref.txt", "w") as fh:
            for value in prob.b:
                fh.write(f"{float(value)!r}\n")
        assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "b_ref.txt").read_bytes()


def test_benchmark_releases_each_solver_before_the_next(monkeypatch):
    build, made = multigrid.make_solver, []

    def tracked(name, problem):
        assert all(ref() is None for ref in made), "previous solver still alive"
        solver = build(name, problem)
        made.append(weakref.ref(solver))
        return solver

    monkeypatch.setattr(multigrid, "make_solver", tracked)
    run_benchmark(3, 1, sorted(ALGORITHMS), 1e4)
    assert len(made) == len(ALGORITHMS)


@pytest.mark.parametrize("call, message", [
    (lambda: WorkTrace([("gs", 0, 1.0, 1.0)]).append("gs", 1, 1.0, 0.5),
     "cumulative work must increase"),
    (lambda: WorkTrace().append("gs", 0, 1.0, float("nan")), "residual must be finite"),
    (lambda: gauss_seidel(SparseMatrix(2, 3), np.zeros(3), np.zeros(3)),
     "gauss_seidel needs a square matrix"),
], ids=["work-not-increasing", "residual-not-finite", "gauss-seidel-non-square"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        call()
    assert exc.type is ValueError
