"""Graph products, Laplacians, and the spectral identities they satisfy."""

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
    empty_graph,
    laplacian,
    loop_vertex,
    path_graph,
    strong_product,
    to_dot,
    to_edge_list,
)
from skelgraph.sparse import SparseMatrix, kron, kron_sum, permute

K2 = complete_graph(2)
P2 = path_graph(2)
P3 = path_graph(3)
C4 = cycle_graph(4)


def random_graph(rng, n, density=0.4, self_loops=False):
    a = (rng.random((n, n)) < density).astype(float)
    a = np.triu(a, 0 if self_loops else 1)
    a = np.minimum(a + a.T, 1.0)
    if not self_loops:
        np.fill_diagonal(a, 0.0)
    return Graph(SparseMatrix.from_dense(a))


def spectrum(m):
    return np.array([p.value for p in eigensystem(m)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(SparseMatrix.from_entries(2, 2, [(0, 1, 1.0)]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(SparseMatrix.from_entries(1, 1, [(0, 0, -1.0)]))  # negative
    assert loop_vertex().edge_count() == 1
    assert complete_graph(4).edge_count() == 6


def test_disjoint_union_examples():
    g = disjoint_union(K2, K2)
    assert g.n == 4 and g.edge_count() == 2
    assert disjoint_union(K2, empty_graph(0)).adj == K2.adj


def test_graph_refuses_to_be_directed():
    # the mode is refused whatever the entries, the asymmetric ones it allowed too
    for adj in (K2.adj, SparseMatrix.from_entries(2, 2, [(0, 1, 1.0)])):
        with pytest.raises(ValueError, match="graphs are undirected"):
            Graph(adj, undirected=False)


def test_disjoint_union_spectra_merge():
    got = spectrum(laplacian(disjoint_union(K2, P3)))
    merged = np.sort(np.concatenate([spectrum(laplacian(K2)), spectrum(laplacian(P3))]))
    assert np.allclose(got, merged, atol=1e-9)
    assert np.allclose(merged, [-3.0, -2.0, -1.0, 0.0, 0.0], atol=1e-9)


def test_box_pictogram_is_four_cycle():
    got = box_product(K2, K2)
    iso = np.array([0, 1, 3, 2])  # product order 0-1-3-2 traced around the square
    assert permute(got.adj, iso, iso) == C4.adj


def test_box_identity_like_factor():
    g = random_graph(np.random.default_rng(0), 5)
    k1 = empty_graph(1)
    assert box_product(g, k1).adj == g.adj


def test_box_laplacian_spectrum_adds():
    got = spectrum(laplacian(box_product(P2, P2)))
    assert np.allclose(got, [-4.0, -2.0, -2.0, 0.0], atol=1e-9)


def test_cross_pictogram_is_two_disjoint_edges():
    got = cross_product(K2, K2)
    iso = np.array([0, 2, 3, 1])  # vertices (0,0)(1,1) and (0,1)(1,0) pair up
    assert permute(got.adj, iso, iso) == disjoint_union(K2, K2).adj


def test_cross_multiplicative_identity():
    g = random_graph(np.random.default_rng(1), 5)
    assert cross_product(g, loop_vertex()).adj == g.adj


def test_cross_adjacency_spectra_multiply():
    got = spectrum(cross_product(K2, K2).adj)
    assert np.allclose(got, [-1.0, -1.0, 1.0, 1.0], atol=1e-9)


def test_strong_of_two_cliques_is_k4():
    assert strong_product(K2, K2).adj == complete_graph(4).adj


def test_strong_identity_factor():
    g = random_graph(np.random.default_rng(2), 4)
    assert strong_product(g, empty_graph(1)).adj == g.adj


def test_strong_edge_count_p2_p3():
    assert strong_product(P2, P3).adj.nnz == 22


def test_laplacian_examples():
    assert laplacian(K2) == SparseMatrix.from_dense([[-1.0, 1.0], [1.0, -1.0]])
    assert laplacian(loop_vertex()) == SparseMatrix(1, 1)
    assert np.allclose(laplacian(P3).row_sums(), 0.0)


def test_jacobi_examples():
    d = SparseMatrix.from_dense(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spectrum(d), [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(spectrum(laplacian(P2)), [-2.0, 0.0], atol=1e-12)
    circulant = 2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4.0) - 2.0
    assert np.allclose(spectrum(laplacian(C4)), np.sort(circulant), atol=1e-10)


def test_jacobi_rejections():
    with pytest.raises(ValueError):
        eigensystem(SparseMatrix.from_entries(2, 2, [(0, 1, 1.0)]))
    with pytest.raises(ValueError):
        eigensystem(SparseMatrix(300, 300))


def test_jacobi_residuals_certify_pairs():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 8, density=0.5)
    k4 = laplacian(complete_graph(4))  # eigenvalue -4 with multiplicity three
    for lap in (laplacian(g), k4):
        dense = lap.to_dense()
        pairs = eigensystem(lap)
        for pair in pairs:
            resid = np.max(np.abs(dense @ pair.vector - pair.value * pair.vector))
            assert resid <= 1e-10 * max(1.0, np.max(np.abs(pair.vector)))
        v = np.column_stack([pair.vector for pair in pairs])
        assert np.max(np.abs(v.T @ v - np.eye(lap.nrows))) <= 1e-12
    assert np.allclose(spectrum(k4), [-4.0, -4.0, -4.0, 0.0], atol=1e-12)


def test_box_laplacian_identity_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g1 = random_graph(rng, rng.integers(2, 6))
        g2 = random_graph(rng, rng.integers(2, 6))
        assert laplacian(box_product(g1, g2)) == kron_sum(laplacian(g1), laplacian(g2))


def test_cross_laplacian_identity_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g1 = random_graph(rng, rng.integers(2, 6))
        g2 = random_graph(rng, rng.integers(2, 6))
        l1, l2 = laplacian(g1), laplacian(g2)
        d1, d2 = degree_diagonal(g1), degree_diagonal(g2)
        expected = kron(l1, l2) + kron(l1, d2) + kron(d1, l2)
        assert laplacian(cross_product(g1, g2)) == expected


def test_box_eigenvector_outer_products():
    rng = np.random.default_rng(6)
    g1 = random_graph(rng, 4, density=0.6)
    g2 = random_graph(rng, 3, density=0.6)
    lap = laplacian(box_product(g1, g2)).to_dense()
    for p1 in eigensystem(laplacian(g1)):
        for p2 in eigensystem(laplacian(g2)):
            v = np.kron(p1.vector, p2.vector)
            assert np.max(np.abs(lap @ v - (p1.value + p2.value) * v)) <= 1e-9


def test_constant_degree_cross_spectra():
    # regular factors: a cycle (degree 2) and a complete graph (degree 3)
    g1, d1 = cycle_graph(4), 2.0
    g2, d2 = complete_graph(4), 3.0
    got = spectrum(laplacian(cross_product(g1, g2)))
    lam1 = spectrum(laplacian(g1))
    lam2 = spectrum(laplacian(g2))
    expected = np.sort([a * b + d1 * b + d2 * a for a in lam1 for b in lam2])
    assert np.allclose(got, expected, atol=1e-9)


def test_adjacency_product_law():
    rng = np.random.default_rng(7)
    g1 = random_graph(rng, 4, density=0.7)
    g2 = random_graph(rng, 4, density=0.7)
    got = spectrum(cross_product(g1, g2).adj)
    expected = np.sort([a * b for a in spectrum(g1.adj) for b in spectrum(g2.adj)])
    assert np.allclose(got, expected, atol=1e-9)


def interleave_to_blocks(n1, n2, n3):
    """Vertex map sending (i, a) of g1 x (g2 (+) g3) onto the two-block layout."""
    fwd = np.empty(n1 * (n2 + n3), dtype=np.int64)
    for i in range(n1):
        for a in range(n2 + n3):
            if a < n2:
                fwd[i * (n2 + n3) + a] = i * n2 + a
            else:
                fwd[i * (n2 + n3) + a] = n1 * n2 + i * n3 + (a - n2)
    return fwd


@pytest.mark.parametrize("product", [box_product, cross_product])
def test_distributive_laws(product):
    rng = np.random.default_rng(8)
    for _ in range(10):
        g1 = random_graph(rng, int(rng.integers(2, 5)))
        g2 = random_graph(rng, int(rng.integers(2, 5)))
        g3 = random_graph(rng, int(rng.integers(2, 5)))
        lhs = product(g1, disjoint_union(g2, g3))
        rhs = disjoint_union(product(g1, g2), product(g1, g3))
        p = interleave_to_blocks(g1.n, g2.n, g3.n)
        assert permute(lhs.adj, p, p) == rhs.adj


def test_exports():
    g = path_graph(3)
    assert to_edge_list(g) == "0 1\n1 2\n"
    dot = to_dot(loop_vertex(), "root")
    assert "0 -- 0;" in dot and dot.startswith("graph root {")


def test_eigensystem_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="^eigensystem requires a square matrix$") as exc:
        eigensystem(SparseMatrix(2, 3))
    assert exc.type is ValueError
