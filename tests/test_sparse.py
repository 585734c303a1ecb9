"""Unit tests for the canonical sparse kernels."""

import numpy as np
import pytest

from skelgraph.sparse import (
    Permutation,
    SparseMatrix,
    block_assemble,
    identity,
    kron,
    kron_sum,
    pattern,
    permute,
    read_matrix_market,
    remap,
    submatrix,
    support_subset,
    support_union,
    write_matrix_market,
    zeros,
)


def k2():
    return SparseMatrix.from_entries(2, 2, [(0, 1, 1.0), (1, 0, 1.0)])


def path_adj(n):
    e = [(i, i + 1, 1.0) for i in range(n - 1)]
    e += [(i + 1, i, 1.0) for i in range(n - 1)]
    return SparseMatrix.from_entries(n, n, e)


def random_sparse(rng, m, n, density=0.4):
    # dyadic values keep products of a few factors exactly representable
    a = rng.integers(1, 16, size=(m, n)) / 8.0
    a[rng.random((m, n)) > density] = 0.0
    return SparseMatrix.from_dense(a)


def test_canonicalization_sorts_merges_and_drops_zeros():
    m = SparseMatrix(2, 3, [1, 0, 1, 0], [2, 1, 2, 0], [1.0, 2.0, -1.0, 0.0])
    assert m.nnz == 1
    assert m.rows.tolist() == [0] and m.cols.tolist() == [1]
    assert m.vals.tolist() == [2.0]


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0], [-1], [1.0])


def test_kron_identity_case():
    assert kron(identity(2), identity(2)) == identity(4)


def test_kron_two_cliques_gives_two_disjoint_edges():
    got = kron(k2(), k2())
    expected = SparseMatrix.from_entries(
        4, 4, [(0, 3, 1.0), (3, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
    )
    assert got == expected


def test_kron_scalar_case():
    b = random_sparse(np.random.default_rng(0), 3, 4)
    two = SparseMatrix.from_entries(1, 1, [(0, 0, 2.0)])
    assert kron(two, b) == b.scale(2.0)


def test_kron_sum_two_cliques_gives_four_cycle():
    got = kron_sum(k2(), k2())
    # vertices (i, a) -> 2 i + a: the square 0 - 1 - 3 - 2 - 0
    expected = SparseMatrix.from_entries(
        4,
        4,
        [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0),
         (1, 3, 1.0), (3, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
    )
    assert got == expected


def test_kron_sum_zero_case():
    z = zeros(1, 1)
    assert kron_sum(z, z) == zeros(1, 1)


def test_kron_sum_rejects_rectangular():
    with pytest.raises(ValueError):
        kron_sum(zeros(2, 3), identity(2))


def test_kron_sum_path3_path2_is_3x2_grid():
    # independent oracle: enumerate grid edges by hand
    def node(i, a):
        return 2 * i + a

    edges = set()
    for i in range(3):
        for a in range(2):
            if i + 1 < 3:
                edges.add((node(i, a), node(i + 1, a)))
            if a + 1 < 2:
                edges.add((node(i, a), node(i, a + 1)))
    assert len(edges) == 7
    expected = SparseMatrix.from_entries(
        6, 6, [(u, v, 1.0) for u, v in edges] + [(v, u, 1.0) for u, v in edges]
    )
    assert kron_sum(path_adj(3), path_adj(2)) == expected


def test_kron_sum_equals_explicit_kron_expansion():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = random_sparse(rng, 3, 3)
        b = random_sparse(rng, 4, 4)
        assert kron_sum(a, b) == kron(a, identity(4)) + kron(identity(3), b)


def test_kron_associative_and_bilinear():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = random_sparse(rng, 2, 3)
        b = random_sparse(rng, 3, 2)
        c = random_sparse(rng, 2, 2)
        assert kron(kron(a, b), c) == kron(a, kron(b, c))
        d = random_sparse(rng, 2, 3)
        assert kron(a + d, b) == kron(a, b) + kron(d, b)
        assert kron(a.scale(2.5), b) == kron(a, b).scale(2.5)


def test_permute_identity_and_symmetry():
    a = path_adj(2)
    assert permute(a, Permutation.identity(2)) == a
    assert permute(a, Permutation([1, 0])) == a


def test_permute_cycle_on_diagonal():
    d = SparseMatrix.from_entries(3, 3, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
    p = Permutation([1, 2, 0])  # 0 -> 1 -> 2 -> 0
    got = permute(d, p)
    assert got == SparseMatrix.from_entries(3, 3, [(0, 0, 3.0), (1, 1, 1.0), (2, 2, 2.0)])


def test_permute_round_trip():
    rng = np.random.default_rng(3)
    a = random_sparse(rng, 6, 6)
    p = Permutation(rng.permutation(6))
    assert permute(permute(a, p), p.inverse()) == a


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_block_assemble_single_block():
    a = random_sparse(np.random.default_rng(4), 3, 2)
    assert block_assemble({(0, 0): a}, [3], [2]) == a


def test_block_assemble_block_diagonal_is_disjoint_union():
    g1 = path_adj(2)
    g2 = path_adj(3)
    got = block_assemble({(0, 0): g1, (1, 1): g2}, [2, 3], [2, 3])
    expected = SparseMatrix.from_entries(
        5, 5,
        [(0, 1, 1.0), (1, 0, 1.0),
         (2, 3, 1.0), (3, 2, 1.0), (3, 4, 1.0), (4, 3, 1.0)],
    )
    assert got == expected


def test_block_assemble_off_diagonal_bipartite():
    s = SparseMatrix.from_entries(2, 3, [(0, 0, 1.0), (1, 2, 1.0)])
    got = block_assemble({(0, 1): s, (1, 0): s.T}, [2, 3], [2, 3])
    expected = SparseMatrix.from_entries(
        5, 5, [(0, 2, 1.0), (2, 0, 1.0), (1, 4, 1.0), (4, 1, 1.0)]
    )
    assert got == expected


def test_block_assemble_rejects_misshaped_block():
    with pytest.raises(ValueError):
        block_assemble({(0, 0): zeros(2, 2), (0, 1): zeros(3, 3)}, [2], [2, 3])


def test_block_assemble_of_scaled_copies_equals_kron():
    rng = np.random.default_rng(5)
    a = random_sparse(rng, 3, 3)
    b = random_sparse(rng, 4, 4)
    blocks = {}
    for i, j, v in zip(a.rows, a.cols, a.vals):
        blocks[(int(i), int(j))] = b.scale(v)
    assert block_assemble(blocks, [4] * 3, [4] * 3) == kron(a, b)


def test_matvec_and_errors():
    assert np.array_equal(identity(3) @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        identity(3).matvec(np.ones(4))


def test_transpose_involution_and_nnz():
    rng = np.random.default_rng(6)
    a = random_sparse(rng, 5, 3)
    assert a.T.T == a
    c4 = SparseMatrix.from_entries(
        4, 4,
        [(i, (i + 1) % 4, 1.0) for i in range(4)] + [((i + 1) % 4, i, 1.0) for i in range(4)],
    )
    assert c4.nnz == 8


def test_matmul_against_dense():
    rng = np.random.default_rng(7)
    for _ in range(8):
        a = random_sparse(rng, 4, 6)
        b = random_sparse(rng, 6, 3)
        got = (a @ b).to_dense()
        assert np.allclose(got, a.to_dense() @ b.to_dense(), atol=1e-14)


def test_submatrix_and_remap():
    a = SparseMatrix.from_entries(4, 4, [(0, 0, 1.0), (1, 2, 2.0), (3, 3, 3.0)])
    assert submatrix(a, 1, 3, 1, 3) == SparseMatrix.from_entries(2, 2, [(0, 1, 2.0)])
    moved = remap(a, [3, 2, 1, 0], [0, 1, 2, 3])
    assert moved == SparseMatrix.from_entries(4, 4, [(3, 0, 1.0), (2, 2, 2.0), (0, 3, 3.0)])


def test_support_helpers():
    a = SparseMatrix.from_entries(2, 2, [(0, 0, 2.0)])
    b = SparseMatrix.from_entries(2, 2, [(0, 0, 5.0), (1, 1, 1.0)])
    assert support_subset(a, b)
    assert not support_subset(b, a)
    assert support_union(a, b) == pattern(b)


def test_matrix_market_round_trip_general(tmp_path):
    rng = np.random.default_rng(8)
    a = random_sparse(rng, 7, 5)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    assert read_matrix_market(path) == a


def test_matrix_market_round_trip_symmetric(tmp_path):
    a = kron_sum(path_adj(3), path_adj(3))
    path = tmp_path / "s.mtx"
    write_matrix_market(path, a, symmetric=True)
    text = path.read_text()
    assert "symmetric" in text.splitlines()[0]
    assert read_matrix_market(path) == a


def test_matrix_market_rejects_truncated_file(tmp_path):
    path = tmp_path / "t.mtx"
    write_matrix_market(path, kron_sum(path_adj(3), path_adj(3)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="t.mtx"):
        read_matrix_market(path)


def test_matrix_market_rejects_pattern_header(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
    with pytest.raises(ValueError, match="p.mtx"):
        read_matrix_market(path)


def test_matrix_market_symmetric_rejects_asymmetric(tmp_path):
    a = SparseMatrix.from_entries(2, 2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        write_matrix_market(tmp_path / "x.mtx", a, symmetric=True)
