"""Dirichlet problems, smoothing, and the three multigrid solvers."""

import numpy as np
import pytest

from skelgraph.multigrid import (
    ALGORITHMS,
    ClassicalMultigrid,
    CycleSpec,
    GaussSeidelIteration,
    LevelwiseSkeletal,
    RecursiveSkeletal,
    build_problem,
    gauss_seidel,
    make_solver,
    run_benchmark,
)
from skelgraph.sparse import SparseMatrix, identity, kron, kron_sum


def test_cycle_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec(gamma=3)
    with pytest.raises(ValueError):
        CycleSpec(pre_smooth=0)


def test_build_problem_k2_bc1_rhs():
    prob = build_problem(2, 1)
    assert np.array_equal(prob.b, [2, 1, 1, 1, 0, 0, 1, 0, 0])


def test_build_problem_k2_bc2_rhs():
    # clockwise walk from the lower-left corner alternates signs; freezing
    # the resulting stencil accumulation by hand gives the checkerboard below
    prob = build_problem(2, 2)
    assert np.array_equal(prob.b, [-2, 1, -2, 1, 0, 1, -2, 1, -2])


def test_build_problem_operator_shape():
    prob = build_problem(2, 1)
    assert prob.A.shape == (9, 9)
    assert np.all(prob.A.diagonal() == 4.0)
    assert prob.A.nnz == 33
    assert prob.A.is_symmetric()


def test_build_problem_spd_and_box_structure():
    prob = build_problem(3, 1)
    one_d = prob.factor_ops[0][-1]
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


def test_factor_galerkin_consistency():
    prob = build_problem(5, 1)
    ops, _ = prob.factor_ops
    pros, _ = prob.factor_prolong
    for i in range(len(pros)):
        coarse = (pros[i].T @ ops[i + 1] @ pros[i]).to_dense()
        assert np.max(np.abs(coarse - ops[i].to_dense())) <= 1e-12


def test_factor_prolongations_orthonormal():
    prob = build_problem(5, 1)
    for p in prob.factor_prolong[0]:
        gram = (p.T @ p).to_dense()
        assert np.max(np.abs(gram - np.eye(p.ncols))) <= 1e-12


def test_semicoarsening_identity_all_hierarchy_edges():
    # coarsening one factor at a time is an exact Galerkin triple product
    prob = build_problem(5, 1)
    ops, _ = prob.factor_ops
    pros, _ = prob.factor_prolong
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
    assert np.array_equal(gauss_seidel(identity(3), np.zeros(3), b, 1), b)
    four = SparseMatrix.from_entries(1, 1, [(0, 0, 4.0)])
    assert gauss_seidel(four, np.zeros(1), np.array([8.0]), 1)[0] == 2.0


def test_gauss_seidel_reduces_residual():
    prob = build_problem(2, 1)
    x = gauss_seidel(prob.A, np.zeros(9), prob.b, 1)
    assert np.linalg.norm(prob.b - prob.A @ x) < np.linalg.norm(prob.b)


def test_gauss_seidel_rejects_zero_diagonal():
    with pytest.raises(ValueError):
        gauss_seidel(SparseMatrix.from_entries(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]),
                     np.zeros(2), np.ones(2), 1)


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
        solvers.append(LevelwiseSkeletal(prob, CycleSpec(gamma=2)))
        for solver in solvers:
            x = np.zeros(prob.n ** 2)
            for _ in range(2):
                x, work = solver.cycle(x)
                assert work == solver.cycle_cost, solver.name


def test_recursive_skeletal_coarsest_grid_smooths_only():
    prob = build_problem(2, 1)
    solver = RecursiveSkeletal(prob)
    b = np.array([8.0])
    x, work = solver.solve_on_grid(1, 1, np.zeros(1), b)
    a11 = solver._grid(1, 1)
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


def test_levelwise_transfer_columns_unit_norm():
    prob = build_problem(3, 1)
    solver = LevelwiseSkeletal(prob)
    for p in solver.transfer.values():
        norms = np.bincount(p.cols, weights=p.vals ** 2, minlength=p.ncols)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


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
            x = gauss_seidel(prob.A, x, prob.b, 1)
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


def test_w_cycle_variants_run():
    prob = build_problem(3, 1)
    for cls in (ClassicalMultigrid, RecursiveSkeletal):
        solver = cls(prob, CycleSpec(gamma=2))
        assert solver.name.endswith("_w")
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
