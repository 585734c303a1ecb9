"""Acceptance suite: one test per exit criterion, each at its frozen tolerance.

Every test prints a single `[acceptance] criterion NN ... PASS` line on
success; a failed assertion aborts the test before the line prints.
"""

import time

import numpy as np
import pytest

from skelgraph.graphs import (
    Graph,
    box_product,
    complete_graph,
    cross_product,
    cycle_graph,
    degree_diagonal,
    disjoint_union,
    eigensystem,
    laplacian,
)
from skelgraph.lineage import (
    assemble_flat,
    complete_lineage,
    grid2d_lineage,
    growth_profile,
    levelwise_product,
    path_lineage,
    read_lineage,
    truncate,
    unit_lineage,
    write_lineage,
)
from skelgraph.multigrid import (
    ClassicalMultigrid,
    LevelwiseSkeletal,
    RecursiveSkeletal,
    build_problem,
    gauss_seidel,
    run_benchmark,
)
from skelgraph.skeletal import (
    alignment_permutation,
    factor_swap_permutation,
    leaf_table,
    product_via_flat_assembly,
    skeletal_box,
    skeletal_cross,
    skeletal_cross_nway,
    skeletal_strong,
    thicken,
)
from skelgraph.sparse import (
    SparseMatrix,
    identity,
    kron,
    kron_sum,
    permute,
    support_subset,
)


def announce(number, text):
    print(f"[acceptance] criterion {number:02d} ({text}): PASS")


def random_graph(rng, n, density=0.5):
    a = (rng.random((n, n)) < density).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    return Graph(SparseMatrix.from_dense(a))


def spectrum(m):
    return np.array([p.value for p in eigensystem(m)])


def test_criterion_01_spectral_identities():
    start = time.time()
    rng = np.random.default_rng(20240801)
    for _ in range(20):
        n1, n2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        g1, g2 = random_graph(rng, n1), random_graph(rng, n2)
        # union of spectra under disjoint sum
        merged = np.sort(np.concatenate([spectrum(laplacian(g1)), spectrum(laplacian(g2))]))
        got = spectrum(laplacian(disjoint_union(g1, g2)))
        assert np.max(np.abs(got - merged)) <= 1e-9
        # box: outer products of factor eigenvectors are eigenvectors
        lap_box = laplacian(box_product(g1, g2))
        dense_box = lap_box.to_dense()
        for p1 in eigensystem(laplacian(g1)):
            for p2 in eigensystem(laplacian(g2)):
                v = np.kron(p1.vector, p2.vector)
                assert np.max(np.abs(dense_box @ v - (p1.value + p2.value) * v)) <= 1e-9
        # cross: adjacency spectra multiply
        got = spectrum(cross_product(g1, g2).adj)
        expected = np.sort([a * b for a in spectrum(g1.adj) for b in spectrum(g2.adj)])
        assert np.max(np.abs(got - expected)) <= 1e-9
        # both Laplacian factorizations hold triplet-exactly
        assert lap_box == kron_sum(laplacian(g1), laplacian(g2))
        l1, l2 = laplacian(g1), laplacian(g2)
        d1, d2 = degree_diagonal(g1), degree_diagonal(g2)
        assert laplacian(cross_product(g1, g2)) == kron(l1, l2) + kron(l1, d2) + kron(d1, l2)
    assert time.time() - start < 5.0
    announce(1, "spectral identities on 20 random pairs")


def test_criterion_02_pictogram_products():
    k2 = complete_graph(2)
    box = box_product(k2, k2)
    iso = np.array([0, 1, 3, 2])
    assert permute(box.adj, iso, iso) == cycle_graph(4).adj
    cross = cross_product(k2, k2)
    two_edges = disjoint_union(k2, k2)
    iso = np.array([0, 2, 3, 1])
    assert permute(cross.adj, iso, iso) == two_edges.adj
    announce(2, "box of 2-cliques is the 4-cycle, cross is a perfect matching")


def test_criterion_03_distributive_laws():
    rng = np.random.default_rng(20240803)
    for product in (box_product, cross_product):
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(2, 5)))
            g2 = random_graph(rng, int(rng.integers(2, 5)))
            g3 = random_graph(rng, int(rng.integers(2, 5)))
            lhs = product(g1, disjoint_union(g2, g3))
            rhs = disjoint_union(product(g1, g2), product(g1, g3))
            n1, n2, n3 = g1.n, g2.n, g3.n
            fwd = np.empty(n1 * (n2 + n3), dtype=np.int64)
            for i in range(n1):
                for a in range(n2 + n3):
                    if a < n2:
                        fwd[i * (n2 + n3) + a] = i * n2 + a
                    else:
                        fwd[i * (n2 + n3) + a] = n1 * n2 + i * n3 + (a - n2)
            assert permute(lhs.adj, fwd, fwd) == rhs.adj
    announce(3, "products distribute over sums, 10 random triples each")


def test_criterion_04_thickening():
    th = thicken(unit_lineage(6))
    assert th.level_sizes() == list(range(1, 8))
    for l, g in enumerate(th.levels):
        n = l + 1
        expected = SparseMatrix.from_entries(
            n, n,
            [(i, i, 1.0) for i in range(n)]
            + [(i, i + 1, 1.0) for i in range(n - 1)]
            + [(i + 1, i, 1.0) for i in range(n - 1)],
        )
        assert g.adj == expected
    for l, s in enumerate(th.inter):
        assert s == SparseMatrix.from_entries(l + 2, l + 1, [(i, i, 1.0) for i in range(l + 1)])
    assert thicken(path_lineage(8)).level_sizes() == [2 ** (l + 1) - 1 for l in range(9)]
    grid = grid2d_lineage(3)
    once = thicken(grid)
    twice = thicken(once)
    oracle = lambda sizes: [sum(sizes[: l + 1]) for l in range(len(sizes))]  # noqa: E731
    assert once.level_sizes() == oracle(grid.level_sizes())
    assert twice.level_sizes() == oracle(once.level_sizes())
    announce(4, "thickening structure and double-thickening counts")


def test_criterion_05_convolution_cardinality():
    p8, c8, g8 = path_lineage(8), complete_lineage(8), grid2d_lineage(8)
    pairs = [(p8, p8), (p8, c8), (g8, c8), (g8, p8)]
    for gg1, gg2 in pairs:
        s1, s2 = gg1.level_sizes(), gg2.level_sizes()
        for build in (skeletal_box, skeletal_cross):
            prod = build(gg1, gg2)
            for level, g in enumerate(prod.levels):
                assert g.n == sum(s1[m] * s2[level - m] for m in range(level + 1))
    strong = skeletal_strong(p8, c8)
    s1, s2 = p8.level_sizes(), c8.level_sizes()
    for level, g in enumerate(strong.levels):
        assert g.n == sum(s1[m] * s2[level - m] for m in range(level + 1))
    cross = skeletal_cross(p8, p8)
    assert [g.n for g in cross.levels] == [(L + 1) * 2 ** L for L in range(9)]
    announce(5, "level sizes are factor-size convolutions up to level 8")


def test_criterion_06_oracle_equivalence():
    start = time.time()
    builders = {
        "box": skeletal_box,
        "cross": skeletal_cross,
        "strong": skeletal_strong,
    }
    for make1, make2 in [
        (path_lineage, path_lineage),
        (complete_lineage, complete_lineage),
        (path_lineage, complete_lineage),
    ]:
        gg1, gg2 = make1(4), make2(4)
        for kind, build in builders.items():
            assert build(gg1, gg2) == product_via_flat_assembly(gg1, gg2, kind)
    assert time.time() - start < 30.0
    announce(6, "componentwise products equal flat Kronecker reassembly")


def test_criterion_07_product_algebra():
    a, b, c = path_lineage(2), unit_lineage(2), complete_lineage(2)
    # exact associativity of the box product under codec re-association
    left = skeletal_box(skeletal_box(a, b, max_level=4), c)
    right = skeletal_box(a, skeletal_box(b, c, max_level=4))
    perms = [alignment_permutation(left, right, level) for level in range(left.num_levels)]
    for level in range(left.num_levels):
        assert permute(left.levels[level].adj, perms[level], perms[level]) == right.levels[level].adj
    for level in range(left.num_levels - 1):
        moved = permute(left.inter[level], perms[level + 1], perms[level])
        assert moved == right.inter[level]

    # near-associativity chain for the cross product, with a strict witness
    p = path_lineage(2)
    nway = skeletal_cross_nway([p, p, p])
    tilde = skeletal_cross_nway([p, p, p], "tilde")
    nested_left = skeletal_cross(skeletal_cross(p, p, max_level=4), p)
    nested_right = skeletal_cross(p, skeletal_cross(p, p, max_level=4))

    def flat_in(src, dst):
        depth = min(src.num_levels, dst.num_levels)
        ps = [alignment_permutation(src, dst, level) for level in range(depth)]
        offs = np.concatenate([[0], np.cumsum([g.n for g in dst.levels[:depth]])])
        fwd = np.concatenate([pp + offs[l] for l, pp in enumerate(ps)])
        return permute(assemble_flat(truncate(src, depth - 1)).adj, fwd, fwd)

    nway_flat = assemble_flat(truncate(nway, 2)).adj
    for nested in (nested_left, nested_right):
        assert support_subset(flat_in(tilde, nested), assemble_flat(truncate(nested, 2)).adj)
        assert support_subset(flat_in(nested, nway), nway_flat)

    # strict witness at summed level 2: a class shifting factor levels by
    # (+1, +1, -1) reaches level 2 in the n-way product only
    rows_t, cols_t = leaf_table(nway, 2), leaf_table(nway, 1)
    witness = [
        (int(r), int(cc))
        for r, cc in zip(nway.inter[1].rows, nway.inter[1].cols)
        if tuple(rows_t[r, :3] - cols_t[cc, :3]) == (1, 1, -1)
    ]
    assert witness
    moved = permute(
        nested_left.inter[1],
        alignment_permutation(nested_left, nway, 2),
        alignment_permutation(nested_left, nway, 1),
    )
    nested_keys = set(zip(moved.rows.tolist(), moved.cols.tolist()))
    assert all(key not in nested_keys for key in witness)

    # commutativity via the explicit factor-swap permutation
    for build in (skeletal_box, skeletal_cross):
        ab, ba = build(a, c), build(c, a)
        sw = [factor_swap_permutation(ab, ba, level) for level in range(ab.num_levels)]
        for level in range(ab.num_levels):
            assert permute(ab.levels[level].adj, sw[level], sw[level]) == ba.levels[level].adj
        for level in range(ab.num_levels - 1):
            assert permute(ab.inter[level], sw[level + 1], sw[level]) == ba.inter[level]
    announce(7, "box associative, cross nearly associative with witness, both commutative")


def test_criterion_08_growth_bounds():
    bound = (2.0, 0.5, 2.0)
    p8 = path_lineage(8)
    for build in (skeletal_box, skeletal_cross):
        prof = growth_profile(build(p8, p8), bound=bound)
        assert prof.ok
    naive = levelwise_product(path_lineage(4), path_lineage(4))
    violations = growth_profile(naive, bound=bound).violations
    assert violations and min(violations) <= 4
    announce(8, "skeletal products stay under the doubling bound, naive products break it")


def test_criterion_09_semicoarsening_identity():
    prob = build_problem(5, 1)
    ops, pros = prob.ops1d, prob.prolong1d
    worst = 0.0
    for i1 in range(1, 6):
        for i2 in range(1, 6):
            fine = kron_sum(ops[i1 - 1], ops[i2 - 1])
            if i1 > 1:
                p = kron(pros[i1 - 2], identity(ops[i2 - 1].nrows))
                coarse = kron_sum(ops[i1 - 2], ops[i2 - 1])
                worst = max(worst, np.max(np.abs((p.T @ fine @ p - coarse).to_dense())))
            if i2 > 1:
                p = kron(identity(ops[i1 - 1].nrows), pros[i2 - 2])
                coarse = kron_sum(ops[i1 - 1], ops[i2 - 2])
                worst = max(worst, np.max(np.abs((p.T @ fine @ p - coarse).to_dense())))
    assert worst <= 1e-12
    announce(9, "one-dimension-at-a-time Galerkin coarsening is exact at k=5")


def test_criterion_10_multigrid_ordinal_reproduction():
    start = time.time()
    algos = ["gauss_seidel", "classical_mg_v", "skeletal_recursive_v"]
    for bc in (1, 2):
        bnorm = float(np.linalg.norm(build_problem(5, bc).b))
        trace = run_benchmark(5, bc, algos, 1e6)
        rerun = run_benchmark(5, bc, algos, 1e6)
        assert trace.to_csv() == rerun.to_csv()
        finals = trace.final_residuals()
        assert finals["skeletal_recursive_v"] < finals["classical_mg_v"] < finals["gauss_seidel"]
        assert finals["classical_mg_v"] <= 1e-8 * bnorm
    assert time.time() - start < 60.0
    announce(10, "solver ranking and classical-MG convergence at k=5, both problems")


def test_criterion_11_solver_sanity():
    import dataclasses

    # zero right-hand side keeps the zero iterate
    zero_prob = dataclasses.replace(build_problem(3, 1), b=np.zeros(49))
    for cls in (ClassicalMultigrid, RecursiveSkeletal, LevelwiseSkeletal):
        x, _ = cls(zero_prob).cycle(np.zeros(49))
        assert np.array_equal(x, np.zeros(49))
    # residual never increases across V-cycles
    for k in range(2, 6):
        for bc in (1, 2):
            prob = build_problem(k, bc)
            for cls in (ClassicalMultigrid, RecursiveSkeletal, LevelwiseSkeletal):
                solver = cls(prob)
                x = np.zeros(prob.n ** 2)
                prev = solver.residual(x)
                for _ in range(4):
                    x, _ = solver.cycle(x)
                    cur = solver.residual(x)
                    assert cur <= prev * (1 + 1e-12)
                    prev = cur
    # error energy never increases, measured against a dense solve
    for k in range(2, 5):
        prob = build_problem(k, 2)
        dense = prob.A.to_dense()
        x_star = np.linalg.solve(dense, prob.b)
        x = np.zeros(prob.n ** 2)
        prev = (x - x_star) @ dense @ (x - x_star)
        for _ in range(6):
            x = gauss_seidel(prob.A, x, prob.b)
            cur = (x - x_star) @ dense @ (x - x_star)
            assert cur <= prev * (1 + 1e-12)
            prev = cur
    announce(11, "fixed points, residual monotonicity, energy monotonicity")


def test_criterion_12_io_round_trips(tmp_path):
    gg = skeletal_strong(grid2d_lineage(2), complete_lineage(2))
    write_lineage(tmp_path / "a", gg)
    back = read_lineage(tmp_path / "a")
    assert back == gg
    write_lineage(tmp_path / "b", back)
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    csv1 = run_benchmark(3, 1, ["classical_mg_v"], 4e4).to_csv()
    csv2 = run_benchmark(3, 1, ["classical_mg_v"], 4e4).to_csv()
    assert csv1 == csv2
    announce(12, "lineage files and benchmark traces reproduce byte-for-byte")
