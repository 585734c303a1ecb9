"""Graphs as adjacency matrices, their three binary products, and spectra.

Vertices are 0-based contiguous integers.  Graphs are undirected and store
both directed entries; a self-loop is a single diagonal entry of value 1.  The
Laplacian convention is adjacency minus the degree diagonal, so its row
sums vanish and its spectrum is nonpositive for simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseMatrix, block_assemble, kron, kron_sum, support_union

__all__ = [
    "Graph",
    "EigPair",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "loop_vertex",
    "disjoint_union",
    "box_product",
    "cross_product",
    "strong_product",
    "laplacian",
    "degree_diagonal",
    "eigensystem",
    "to_dot",
    "to_edge_list",
]

_EIG_MAX_ORDER = 256  # bounds the dense n-by-n copy handed to the solver


@dataclass(frozen=True)
class Graph:
    """Adjacency matrix of an undirected graph; ``undirected`` is always True."""

    adj: SparseMatrix
    undirected: bool = True

    def __post_init__(self):
        if not self.undirected:
            raise ValueError("graphs are undirected")
        if self.adj.nrows != self.adj.ncols:
            raise ValueError("adjacency matrix must be square")
        if not self.adj.is_symmetric():
            raise ValueError("undirected graph requires a symmetric adjacency matrix")
        if self.adj.nnz and self.adj.vals.min() < 0:
            raise ValueError("adjacency values must be nonnegative")

    @property
    def n(self):
        return self.adj.nrows

    def edge_count(self):
        """Undirected edge count; a self-loop counts once."""
        loops = int(np.count_nonzero(self.adj.rows == self.adj.cols))
        return (self.adj.nnz - loops) // 2 + loops


@dataclass(frozen=True)
class EigPair:
    value: float
    vector: np.ndarray = field(repr=False)


def path_graph(n):
    r = np.arange(n - 1)
    adj = SparseMatrix(
        n, n, np.concatenate([r, r + 1]), np.concatenate([r + 1, r]), np.ones(2 * (n - 1))
    )
    return Graph(adj)


def cycle_graph(n):
    r = np.arange(n)
    s = (r + 1) % n
    adj = SparseMatrix(n, n, np.concatenate([r, s]), np.concatenate([s, r]), np.ones(2 * n))
    return Graph(adj)


def complete_graph(n):
    r, c = np.nonzero(1 - np.eye(n))
    return Graph(SparseMatrix(n, n, r, c, np.ones(r.size)))


def empty_graph(n):
    return Graph(SparseMatrix(n, n))


def loop_vertex():
    """One vertex with one self-loop."""
    return Graph(SparseMatrix(1, 1, [0], [0], [1.0]))


def disjoint_union(g1, g2):
    """Block-diagonal sum; vertices of g2 are shifted by |V(g1)|."""
    sizes = [g1.n, g2.n]
    return Graph(block_assemble({(0, 0): g1.adj, (1, 1): g2.adj}, sizes, sizes))


def box_product(g1, g2):
    """Cartesian product: vertex (i, a) -> i * |V(g2)| + a."""
    return Graph(kron_sum(g1.adj, g2.adj))


def cross_product(g1, g2):
    """Direct product: adjacency is the Kronecker product."""
    return Graph(kron(g1.adj, g2.adj))


def strong_product(g1, g2):
    """Union of box and cross product edges, as a 0/1 adjacency."""
    return Graph(support_union(kron_sum(g1.adj, g2.adj), kron(g1.adj, g2.adj)))


def degree_diagonal(g):
    idx = np.arange(g.n)
    return SparseMatrix(g.n, g.n, idx, idx, g.adj.row_sums())


def laplacian(g):
    """Adjacency minus degree diagonal; row sums are exactly zero."""
    return g.adj - degree_diagonal(g)


def eigensystem(m):
    """Full eigensystem of a symmetric matrix by LAPACK's symmetric solver.

    Hands a dense copy of m to ``numpy.linalg.eigh``, which raises
    ``LinAlgError`` if it does not converge.  Eigenvalues are returned
    ascending, each with a unit eigenvector; the vectors are orthonormal.
    """
    if m.nrows != m.ncols:
        raise ValueError("eigensystem requires a square matrix")
    if m.nrows > _EIG_MAX_ORDER:
        raise ValueError(f"matrix order {m.nrows} exceeds the cap {_EIG_MAX_ORDER}")
    if not m.is_symmetric():
        raise ValueError("eigensystem requires a symmetric matrix")
    w, v = np.linalg.eigh(m.to_dense())
    return [EigPair(float(x), v[:, i].copy()) for i, x in enumerate(w)]


def to_edge_list(g):
    """One `u v` line per undirected edge (0-based); loops appear once."""
    lines = []
    for r, c in zip(g.adj.rows, g.adj.cols):
        if r <= c:
            lines.append(f"{r} {c}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_dot(g, name="g"):
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for r, c in zip(g.adj.rows, g.adj.cols):
        if r <= c:
            lines.append(f"  {r} -- {c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
