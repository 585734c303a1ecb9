"""Deterministic sparse linear algebra on canonical coordinate triplets.

Every matrix in this package (adjacency, inter-level map, prolongation,
solver operator) is a :class:`SparseMatrix`.  Entries are kept in a single
canonical form -- sorted by (row, col), duplicates summed, exact zeros
dropped -- so that two constructions can be compared bit-for-bit.  Values
are float64 throughout; structural comparisons never involve a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseMatrix",
    "Permutation",
    "identity",
    "zeros",
    "kron",
    "kron_sum",
    "block_assemble",
    "permute",
    "remap",
    "submatrix",
    "pattern",
    "support_union",
    "support_subset",
    "write_matrix_market",
    "read_matrix_market",
]


class SparseMatrix:
    """Immutable real sparse matrix in canonical COO form.

    Canonical form: triplets sorted by (row asc, col asc), one entry per
    (row, col) key, no stored zeros.  Equality is dimensions plus exact
    triplet equality.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals", "_csr_cache")

    def __init__(self, nrows, ncols, rows=(), cols=(), vals=()):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("col index out of range")
            keys = rows * ncols + cols
            uniq, inverse = np.unique(keys, return_inverse=True)
            merged = np.bincount(inverse, weights=vals, minlength=uniq.size)
            keep = merged != 0.0
            uniq = uniq[keep]
            rows = uniq // ncols
            cols = uniq % ncols
            vals = merged[keep]
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        for a in (rows, cols, vals):
            a.flags.writeable = False
        self._csr_cache = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_entries(nrows, ncols, entries):
        """Build from an iterable of (row, col, value) triples."""
        entries = list(entries)
        if not entries:
            return SparseMatrix(nrows, ncols)
        r, c, v = zip(*entries)
        return SparseMatrix(nrows, ncols, r, c, v)

    @staticmethod
    def from_dense(a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("dense input must be 2-D")
        r, c = np.nonzero(a)
        return SparseMatrix(a.shape[0], a.shape[1], r, c, a[r, c])

    # -- basic queries ------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return int(self.vals.size)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def to_dense(self):
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        return a

    def diagonal(self):
        d = np.zeros(min(self.nrows, self.ncols))
        on_diag = self.rows == self.cols
        d[self.rows[on_diag]] = self.vals[on_diag]
        return d

    def row_sums(self):
        return np.bincount(self.rows, weights=self.vals, minlength=self.nrows)

    def is_symmetric(self):
        return self.nrows == self.ncols and self == self.transpose()

    def csr(self):
        """Row-compressed view (indptr, indices, data); cached."""
        if self._csr_cache is None:
            indptr = np.zeros(self.nrows + 1, dtype=np.int64)
            np.add.at(indptr, self.rows + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._csr_cache = (indptr, self.cols, self.vals)
        return self._csr_cache

    # -- arithmetic ---------------------------------------------------

    def transpose(self):
        return SparseMatrix(self.ncols, self.nrows, self.cols, self.rows, self.vals)

    @property
    def T(self):
        return self.transpose()

    def scale(self, alpha):
        return SparseMatrix(self.nrows, self.ncols, self.rows, self.cols, self.vals * float(alpha))

    def add(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch in add: {self.shape} vs {other.shape}")
        return SparseMatrix(
            self.nrows,
            self.ncols,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.vals, other.vals]),
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __mul__(self, alpha):
        return self.scale(alpha)

    __rmul__ = __mul__

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"vector length {x.shape} incompatible with {self.shape}")
        y = np.zeros(self.nrows)
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in matmul: {self.shape} @ {other.shape}")
        if self.nnz == 0 or other.nnz == 0:
            return SparseMatrix(self.nrows, other.ncols)
        # expand every left entry against the matching row segment of `other`
        indptr, _, _ = other.csr()
        starts = indptr[self.cols]
        lengths = indptr[self.cols + 1] - starts
        reps = np.repeat(np.arange(self.nnz), lengths)
        # positions inside each segment: 0..len-1, offset by the segment start
        pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        take = starts[reps] + pos
        return SparseMatrix(
            self.nrows,
            other.ncols,
            self.rows[reps],
            other.cols[take],
            self.vals[reps] * other.vals[take],
        )

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return self.matmul(other)
        return self.matvec(other)


def identity(n):
    idx = np.arange(n)
    return SparseMatrix(n, n, idx, idx, np.ones(n))


def zeros(nrows, ncols):
    return SparseMatrix(nrows, ncols)


def kron(a, b):
    """Kronecker product; index pairing (i, p) -> i * b.nrows + p."""
    if a.nnz == 0 or b.nnz == 0:
        return SparseMatrix(a.nrows * b.nrows, a.ncols * b.ncols)
    br = np.tile(b.rows, a.nnz)
    bc = np.tile(b.cols, a.nnz)
    bv = np.tile(b.vals, a.nnz)
    ar = np.repeat(a.rows, b.nnz)
    ac = np.repeat(a.cols, b.nnz)
    av = np.repeat(a.vals, b.nnz)
    return SparseMatrix(
        a.nrows * b.nrows,
        a.ncols * b.ncols,
        ar * b.nrows + br,
        ac * b.ncols + bc,
        av * bv,
    )


def kron_sum(a, b):
    """Kronecker sum kron(a, I) + kron(I, b) of two square matrices."""
    if a.nrows != a.ncols or b.nrows != b.ncols:
        raise ValueError("kron_sum requires square operands")
    return kron(a, identity(b.nrows)) + kron(identity(a.nrows), b)


def block_assemble(blocks, row_sizes, col_sizes):
    """Assemble a block matrix from a {(block_row, block_col): matrix} map.

    Absent blocks are zero.  Offsets are prefix sums of the given sizes;
    every supplied block must match its slot dimensions exactly.
    """
    row_off = np.concatenate([[0], np.cumsum(row_sizes)]).astype(np.int64)
    col_off = np.concatenate([[0], np.cumsum(col_sizes)]).astype(np.int64)
    rows, cols, vals = [], [], []
    for (bi, bj), m in blocks.items():
        if not (0 <= bi < len(row_sizes) and 0 <= bj < len(col_sizes)):
            raise ValueError(f"block position {(bi, bj)} out of range")
        if m.shape != (row_sizes[bi], col_sizes[bj]):
            raise ValueError(
                f"block {(bi, bj)} has shape {m.shape}, slot expects "
                f"{(row_sizes[bi], col_sizes[bj])}"
            )
        rows.append(m.rows + row_off[bi])
        cols.append(m.cols + col_off[bj])
        vals.append(m.vals)
    if not rows:
        return SparseMatrix(int(row_off[-1]), int(col_off[-1]))
    return SparseMatrix(
        int(row_off[-1]),
        int(col_off[-1]),
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of [0, n); position i of the input moves to forward[i]."""

    forward: np.ndarray

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=np.int64)
        object.__setattr__(self, "forward", fwd)
        n = fwd.size
        if not np.array_equal(np.sort(fwd), np.arange(n)):
            raise ValueError("permutation is not a bijection of [0, n)")
        fwd.flags.writeable = False

    @property
    def n(self):
        return int(self.forward.size)

    @staticmethod
    def identity(n):
        return Permutation(np.arange(n))

    def inverse(self):
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.forward] = np.arange(self.n)
        return Permutation(inv)

    def compose(self, other):
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(self.forward[other.forward])

    def __call__(self, i):
        return int(self.forward[i])

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.forward, other.forward)


def permute(a, p):
    """Relabel a square matrix: result[p(i), p(j)] = a[i, j]."""
    if a.nrows != a.ncols:
        raise ValueError("permute requires a square matrix")
    if p.n != a.nrows:
        raise ValueError(f"permutation order {p.n} does not match matrix order {a.nrows}")
    return SparseMatrix(a.nrows, a.ncols, p.forward[a.rows], p.forward[a.cols], a.vals)


def remap(a, row_map, col_map, nrows=None, ncols=None):
    """Push entries through independent row/col relabelings (rectangular ok)."""
    row_map = np.asarray(row_map, dtype=np.int64)
    col_map = np.asarray(col_map, dtype=np.int64)
    if row_map.size != a.nrows or col_map.size != a.ncols:
        raise ValueError("relabeling length does not match matrix dimensions")
    nrows = a.nrows if nrows is None else nrows
    ncols = a.ncols if ncols is None else ncols
    return SparseMatrix(nrows, ncols, row_map[a.rows], col_map[a.cols], a.vals)


def submatrix(a, row_start, row_stop, col_start, col_stop):
    """Contiguous block a[row_start:row_stop, col_start:col_stop]."""
    keep = (
        (a.rows >= row_start)
        & (a.rows < row_stop)
        & (a.cols >= col_start)
        & (a.cols < col_stop)
    )
    return SparseMatrix(
        row_stop - row_start,
        col_stop - col_start,
        a.rows[keep] - row_start,
        a.cols[keep] - col_start,
        a.vals[keep],
    )


def pattern(a):
    """0/1 indicator of the support of a."""
    return SparseMatrix(a.nrows, a.ncols, a.rows, a.cols, np.ones(a.nnz))


def support_union(a, b):
    """0/1 indicator of the union of two supports."""
    return pattern(pattern(a) + pattern(b))


def support_subset(a, b):
    """True iff every stored entry position of a is also stored in b."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch in support comparison")
    ka = a.rows * a.ncols + a.cols
    kb = b.rows * b.ncols + b.cols
    return bool(np.all(np.isin(ka, kb)))


# -- Matrix Market exchange format ------------------------------------

def write_matrix_market(path, m, symmetric=False):
    """Write coordinate real Matrix Market (1-based indices on disk).

    With symmetric=True only the lower triangle (row >= col) is stored;
    the matrix must actually be symmetric.
    """
    lines = []
    if symmetric:
        if not m.is_symmetric():
            raise ValueError("symmetric write requested for a non-symmetric matrix")
        keep = m.rows >= m.cols
        r, c, v = m.rows[keep], m.cols[keep], m.vals[keep]
        lines.append("%%MatrixMarket matrix coordinate real symmetric")
    else:
        r, c, v = m.rows, m.cols, m.vals
        lines.append("%%MatrixMarket matrix coordinate real general")
    lines.append(f"{m.nrows} {m.ncols} {r.size}")
    for i in range(r.size):
        lines.append(f"{r[i] + 1} {c[i] + 1} {float(v[i])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_market(path):
    """Read a coordinate real Matrix Market file written by this package."""
    with open(path) as fh:
        header = fh.readline().strip().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket" or header[2] != "coordinate":
            raise ValueError(f"{path}: not a coordinate Matrix Market file")
        if header[3] not in ("real", "integer") or header[4] not in ("general", "symmetric"):
            raise ValueError(f"{path}: unsupported Matrix Market type {' '.join(header[3:5])}")
        symmetric = header[4] == "symmetric"
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        # one handler around the whole loop: a check per line would slow every read
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
            rows = np.empty(nnz, dtype=np.int64)
            cols = np.empty(nnz, dtype=np.int64)
            vals = np.empty(nnz)
            for i in range(nnz):
                t = fh.readline().split()
                rows[i] = int(t[0]) - 1
                cols[i] = int(t[1]) - 1
                vals[i] = float(t[2])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: truncated or malformed size or entry line") from exc
    if symmetric:
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, vals[off]])
    return SparseMatrix(nrows, ncols, rows, cols, vals)
