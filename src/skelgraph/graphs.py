"""Graphs as adjacency matrices, their three binary products, and spectra.

Vertices are 0-based contiguous integers.  Undirected graphs store both
directed entries; a self-loop is a single diagonal entry of value 1.  The
Laplacian convention is adjacency minus the degree diagonal, so its row
sums vanish and its spectrum is nonpositive for simple graphs.
"""

from __future__ import annotations

import math
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
    "jacobi_eigensystem",
    "to_dot",
    "to_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Adjacency matrix plus an undirectedness flag."""

    adj: SparseMatrix
    undirected: bool = True

    def __post_init__(self):
        if self.adj.nrows != self.adj.ncols:
            raise ValueError("adjacency matrix must be square")
        if self.undirected and not self.adj.is_symmetric():
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


def _check_flags(g1, g2):
    if g1.undirected != g2.undirected:
        raise ValueError("both operands must share the undirected flag")


def disjoint_union(g1, g2):
    """Block-diagonal sum; vertices of g2 are shifted by |V(g1)|."""
    _check_flags(g1, g2)
    sizes = [g1.n, g2.n]
    return Graph(block_assemble({(0, 0): g1.adj, (1, 1): g2.adj}, sizes, sizes), g1.undirected)


def box_product(g1, g2):
    """Cartesian product: vertex (i, a) -> i * |V(g2)| + a."""
    _check_flags(g1, g2)
    return Graph(kron_sum(g1.adj, g2.adj), g1.undirected)


def cross_product(g1, g2):
    """Direct product: adjacency is the Kronecker product."""
    _check_flags(g1, g2)
    return Graph(kron(g1.adj, g2.adj), g1.undirected)


def strong_product(g1, g2):
    """Union of box and cross product edges, as a 0/1 adjacency."""
    _check_flags(g1, g2)
    return Graph(support_union(kron_sum(g1.adj, g2.adj), kron(g1.adj, g2.adj)), g1.undirected)


def degree_diagonal(g):
    d = g.adj.row_sums()
    idx = np.nonzero(d)[0]
    return SparseMatrix(g.n, g.n, idx, idx, d[idx])


def laplacian(g):
    """Adjacency minus degree diagonal; row sums are exactly zero."""
    if not g.undirected:
        raise ValueError("laplacian is defined here for undirected graphs only")
    return g.adj - degree_diagonal(g)


def jacobi_eigensystem(m, max_order=256):
    """Full eigensystem of a symmetric matrix by cyclic Jacobi rotations.

    Iterates sweeps until the off-diagonal Frobenius norm is at most
    1e-12 times the Frobenius norm of the input.  Eigenvalues are returned
    ascending with their eigenvectors.
    """
    if m.nrows != m.ncols:
        raise ValueError("eigensystem requires a square matrix")
    if m.nrows > max_order:
        raise ValueError(f"matrix order {m.nrows} exceeds the cap {max_order}")
    if not m.is_symmetric():
        raise ValueError("eigensystem requires a symmetric matrix")
    a = m.to_dense()
    n = a.shape[0]
    v = np.eye(n)
    target = 1e-12 * np.linalg.norm(a)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(60):
        # measured on the off-diagonal entries themselves: subtracting the
        # diagonal from the total Frobenius norm cancels catastrophically
        off = math.sqrt(np.sum(a[off_mask] ** 2))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau else 1.0
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[p, q] = a[q, p] = 0.0
                v[:, [p, q]] = v[:, [p, q]] @ rot
    order = np.argsort(np.diag(a), kind="stable")
    return [EigPair(float(a[i, i]), v[:, i].copy()) for i in order]


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
