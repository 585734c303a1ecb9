"""Deterministic sparse linear algebra on canonical coordinate triplets.

Every matrix in this package (adjacency, inter-level map, prolongation,
solver operator) is a :class:`SparseMatrix`.  Entries are kept in a single
canonical form -- sorted by (row, col), duplicates summed, exact zeros
dropped -- so that two constructions can be compared bit-for-bit.  Values
are float64 throughout; structural comparisons never involve a tolerance.

The constructor is the one place that enforces that form.  It first checks
in one pass whether the keys already increase strictly; only if they do not
does it sort them, stably, and sum each key's duplicates in input order.
``kron``, ``kron_sum``, ``add`` (and ``-``), ``transpose``,
``block_assemble``, ``submatrix``, ``scale`` and ``pattern`` emit their
entries in canonical order, so they never reach that sort; ``matmul``,
``permute``, ``remap`` and symmetric Matrix Market files do.

The Matrix Market writer makes no Python object per entry.  It formats each
distinct value once, with ``repr``, and gathers every line from byte tables
of index and value text, so its files equal those of a per-entry
``f"{i} {j} {x!r}"`` loop byte for byte.  Files of fewer than
``_GATHER_MIN_NNZ`` entries are written by that loop, which costs less there.
"""

from __future__ import annotations

import warnings
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
    "BadFileError",
]


class BadFileError(ValueError):
    """A file read from disk that breaks the format this package writes."""


class SparseMatrix:
    """Immutable real sparse matrix in canonical COO form.

    Canonical form: triplets sorted by (row asc, col asc), one entry per
    (row, col) key, no stored zeros.  Equality is dimensions plus exact
    triplet equality.  Index and value arrays already in that form are kept
    as given, as read-only views: do not write to them afterwards.
    """

    # _sweep_cache holds the Gauss-Seidel schedule that multigrid.gauss_seidel
    # builds on its first call for this matrix
    __slots__ = ("nrows", "ncols", "rows", "cols", "vals", "_csr_cache", "_sweep_cache")

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
            if np.all(keys[1:] > keys[:-1]):
                keep = vals != 0.0
                if not keep.all():
                    rows, cols, vals = rows[keep], cols[keep], vals[keep]
            else:
                # a stable sort keeps each key's duplicates in input order, so
                # bincount sums them in that order, starting from 0.0
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                first = np.append(True, keys[1:] != keys[:-1])
                merged = np.bincount(np.cumsum(first) - 1, weights=vals[order])
                keep = merged != 0.0
                keys = keys[first][keep]
                rows, cols, vals = keys // ncols, keys % ncols, merged[keep]
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        for a in (rows, cols, vals):
            a.flags.writeable = False
        self._csr_cache = None
        self._sweep_cache = None

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
            indptr = np.searchsorted(self.rows, np.arange(self.nrows + 1))
            self._csr_cache = (indptr, self.cols, self.vals)
        return self._csr_cache

    # -- arithmetic ---------------------------------------------------

    def transpose(self):
        # a stable sort by column keeps each column's rows ascending
        order = np.argsort(self.cols, kind="stable")
        return SparseMatrix(self.ncols, self.nrows, self.cols[order], self.rows[order],
                            self.vals[order])

    @property
    def T(self):
        return self.transpose()

    def scale(self, alpha):
        return SparseMatrix(self.nrows, self.ncols, self.rows, self.cols, self.vals * float(alpha))

    def add(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch in add: {self.shape} vs {other.shape}")
        # merge the two canonical lists; at a shared key self's entry goes first
        ka, kb = (m.rows * m.ncols + m.cols for m in (self, other))
        at_a = np.arange(ka.size) + np.searchsorted(kb, ka)
        at_b = np.arange(kb.size) + np.searchsorted(ka, kb, side="right")
        keys, vals = np.empty(ka.size + kb.size, dtype=np.int64), np.empty(ka.size + kb.size)
        keys[at_a], keys[at_b], vals[at_a], vals[at_b] = ka, kb, self.vals, other.vals
        shared = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        vals[shared - 1] += vals[shared]
        keys, vals = np.delete(keys, shared), np.delete(vals, shared)
        return SparseMatrix(self.nrows, self.ncols, keys // self.ncols, keys % self.ncols, vals)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __mul__(self, alpha):
        return self.scale(alpha)

    __rmul__ = __mul__

    def matvec(self, x):
        """self @ x for x of shape (ncols,) or (B, ncols); each row sums its
        terms in entry order, so a batch rounds like one call per vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.ncols:
            raise ValueError(f"vector length {x.shape} incompatible with {self.shape}")
        batch = 1 if x.ndim == 1 else len(x)
        # one flat add.at, with each vector's rows offset into its own slot
        rows = self.rows if batch == 1 else (self.rows + self.nrows * np.arange(batch)[:, None]).ravel()
        y = np.zeros(batch * self.nrows)
        np.add.at(y, rows, (self.vals * x.take(self.cols, axis=-1)).ravel())
        return y.reshape(x.shape[:-1] + (self.nrows,))

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in matmul: {self.shape} @ {other.shape}")
        # expand every left entry against the matching row segment of `other`
        indptr, _, _ = other.csr()
        reps = np.repeat(np.arange(self.nnz), np.diff(indptr)[self.cols])
        take = _segments(indptr[self.cols], indptr[self.cols + 1])
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


def _segments(starts, ends):
    """Concatenated ranges starts[i]:ends[i]."""
    lengths = ends - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def kron(a, b):
    """Kronecker product; index pairing (i, p) -> i * b.nrows + p.

    Entries come out by a-row, then b-row, then a-entry, then b-entry, which
    is canonical order.
    """
    pa, pb = a.csr()[0], b.csr()[0]
    # a run of b-entries per (a-entry, b-row), ordered by a-row, b-row, a-entry
    e = _segments(np.repeat(pa[:-1], b.nrows), np.repeat(pa[1:], b.nrows))
    p = np.repeat(np.tile(np.arange(b.nrows), a.nrows), np.repeat(np.diff(pa), b.nrows))
    f = _segments(pb[p], pb[p + 1])
    e = np.repeat(e, pb[p + 1] - pb[p])
    return SparseMatrix(
        a.nrows * b.nrows,
        a.ncols * b.ncols,
        a.rows[e] * b.nrows + b.rows[f],
        a.cols[e] * b.ncols + b.cols[f],
        a.vals[e] * b.vals[f],
    )


def kron_sum(a, b):
    """Kronecker sum kron(a, I) + kron(I, b) of two square matrices.

    Built in one pass in canonical order: row (i, p) holds a's entries left
    of column i, then b's row p with a_ii + b_pp in the diagonal slot (stored
    where a_ii or b_pp is), then a's entries right of column i.
    """
    if a.nrows != a.ncols or b.nrows != b.ncols:
        raise ValueError("kron_sum requires square operands")
    na, nb = a.nrows, b.nrows
    ad, bd = a.diagonal(), b.diagonal()
    slot = (ad[:, None] != 0.0) | (bd != 0.0)

    def off_diagonal(m):
        """Off-diagonal entries, each one's rank in its row, and per row the
        count of them left of the diagonal and in all."""
        o = m.rows != m.cols
        r, c = m.rows[o], m.cols[o]
        per_row = np.bincount(r, minlength=m.nrows)
        rank = np.arange(r.size) - (np.cumsum(per_row) - per_row)[r]
        return r, c, m.vals[o], rank, np.bincount(r[c < r], minlength=m.nrows), per_row

    ar, ac, av, arank, aleft, an = off_diagonal(a)
    br, bc, bv, brank, bleft, bn = off_diagonal(b)
    count = an[:, None] + bn + slot
    start = np.cumsum(count).reshape(na, nb) - count
    cols = np.empty(int(count.sum()), dtype=np.int64)
    vals = np.empty(cols.size)
    pos = start[ar] + arank[:, None] + (ac > ar)[:, None] * (bn + slot[ar])
    cols[pos], vals[pos] = ac[:, None] * nb + np.arange(nb), av[:, None]
    pos = start[:, br] + aleft[:, None] + brank + (bc > br) * slot[:, br]
    cols[pos], vals[pos] = np.arange(na)[:, None] * nb + bc, bv
    pos = (start + aleft[:, None] + bleft)[slot]
    cols[pos], vals[pos] = np.flatnonzero(slot), (ad[:, None] + bd)[slot]
    rows = np.repeat(np.arange(na * nb), count.ravel())
    return SparseMatrix(na * nb, na * nb, rows, cols, vals)


def block_assemble(blocks, row_sizes, col_sizes):
    """Assemble a block matrix from a {(block_row, block_col): matrix} map.

    Absent blocks are zero.  Offsets are prefix sums of the given sizes;
    every supplied block must match its slot dimensions exactly.  Entries
    come out row-major: blocks in (block row, block column) order, so with at
    most one block per block row (block-diagonal levels) nothing is sorted.
    """
    row_off = np.concatenate([[0], np.cumsum(row_sizes)]).astype(np.int64)
    col_off = np.concatenate([[0], np.cumsum(col_sizes)]).astype(np.int64)
    items = sorted(blocks.items(), key=lambda item: item[0])
    ends = np.cumsum([0] + [m.nnz for _, m in items])
    rows, cols = np.empty(ends[-1], dtype=np.int64), np.empty(ends[-1], dtype=np.int64)
    vals = np.empty(ends[-1])
    for ((bi, bj), m), start, end in zip(items, ends[:-1], ends[1:]):
        if not (0 <= bi < len(row_sizes) and 0 <= bj < len(col_sizes)):
            raise ValueError(f"block position {(bi, bj)} out of range")
        if m.shape != (row_sizes[bi], col_sizes[bj]):
            raise ValueError(
                f"block {(bi, bj)} has shape {m.shape}, slot expects "
                f"{(row_sizes[bi], col_sizes[bj])}"
            )
        np.add(m.rows, row_off[bi], out=rows[start:end])
        np.add(m.cols, col_off[bj], out=cols[start:end])
        vals[start:end] = m.vals
    if len({bi for bi, _ in blocks}) < len(blocks):
        # blocks sharing a block row interleave: a stable sort by row keeps
        # each row's blocks in block-column order
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    return SparseMatrix(int(row_off[-1]), int(col_off[-1]), rows, cols, vals)


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


def remap(a, row_map, col_map):
    """Push entries through independent row/col relabelings (rectangular ok)."""
    row_map = np.asarray(row_map, dtype=np.int64)
    col_map = np.asarray(col_map, dtype=np.int64)
    if row_map.size != a.nrows or col_map.size != a.ncols:
        raise ValueError("relabeling length does not match matrix dimensions")
    return SparseMatrix(a.nrows, a.ncols, row_map[a.rows], col_map[a.cols], a.vals)


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

def _text_rows(strings):
    """The ASCII strings as the rows of one uint8 table, NUL-padded at the back."""
    table = np.array(strings, dtype="S")
    return table.view(np.uint8).reshape(table.size, table.itemsize)


def _repr_rows(vals):
    """One NUL-padded uint8 row holding f"{x!r}\\n" per value.

    ``repr`` of a Python float is the shortest string that reads back
    exactly.  It runs once per distinct bit pattern, so 0.0 and -0.0 keep
    their own text.  ``rows[rows != 0]`` is the text of all the lines.
    """
    bits, inv = np.unique(np.ascontiguousarray(vals, np.float64).view(np.int64),
                          return_inverse=True)
    return _text_rows([f"{x!r}\n" for x in bits.view(np.float64).tolist()])[inv]


# below this many entries the gather's fixed cost (~45 us a call, half of it
# np.unique) exceeds that of formatting each entry, even with no value repeated
_GATHER_MIN_NNZ = 128


def write_matrix_market(path, m, symmetric=False):
    """Write coordinate real Matrix Market (1-based indices on disk).

    With symmetric=True only the lower triangle (row >= col) is stored;
    the matrix must actually be symmetric.
    """
    r, c, v = m.rows, m.cols, m.vals
    if symmetric:
        if not m.is_symmetric():
            raise ValueError("symmetric write requested for a non-symmetric matrix")
        keep = r >= c
        r, c, v = r[keep], c[keep], v[keep]
    with open(path, "wb") as fh:
        kind = "symmetric" if symmetric else "general"
        fh.write(f"%%MatrixMarket matrix coordinate real {kind}\n{m.nrows} {m.ncols} {r.size}\n".encode())
        if r.size < _GATHER_MIN_NNZ:
            entries = zip((r + 1).tolist(), (c + 1).tolist(), v.tolist())
            fh.write("".join(f"{i} {j} {x!r}\n" for i, j, x in entries).encode())
            return
        index = _text_rows([f"{i} " for i in range(1, max(m.nrows, m.ncols) + 1)])
        # one row per entry: "i j x\n" padded with NULs, which the write drops
        lines = np.concatenate((index[r], index[c], _repr_rows(v)), axis=1)
        fh.write(lines[lines != 0])


def read_matrix_market(path):
    """Read a coordinate Matrix Market file written by this package.

    Accepted subset: matrix coordinate real/integer, general/symmetric
    (lower triangle stored), ``%`` comments after the header, then exactly
    ``nnz`` entry lines of three tokens (row, column, value).  The banner's
    keywords are case-insensitive, as the format (NIST IR 5935) specifies.
    """
    with open(path) as fh:
        header = fh.readline().strip().split()
        words = [w.lower() for w in header[1:5]]
        if len(header) < 5 or header[0] != "%%MatrixMarket" or words[:2] != ["matrix", "coordinate"]:
            raise BadFileError(f"{path}: not a coordinate Matrix Market matrix file")
        if words[2] not in ("real", "integer") or words[3] not in ("general", "symmetric"):
            raise BadFileError(f"{path}: unsupported Matrix Market type {' '.join(header[3:5])}")
        symmetric = words[3] == "symmetric"
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
            with warnings.catch_warnings():
                # no entry line makes loadtxt warn; the count check below reports it
                warnings.simplefilter("ignore", UserWarning)
                rows, cols, vals = np.loadtxt(fh, "i8,i8,f8", comments=None, ndmin=1, unpack=True)
        except ValueError as exc:
            raise BadFileError(f"{path}: truncated or malformed size or entry line") from exc
    if nnz < 0 or vals.size < nnz:
        raise BadFileError(f"{path}: truncated or malformed size or entry line")
    if vals.size > nnz:
        raise BadFileError(f"{path}: more entries than the declared {nnz}")
    if symmetric:
        # the format stores the lower triangle only; an upper entry would be mirrored twice
        if np.any(rows < cols):
            raise BadFileError(f"{path}: symmetric file stores an entry above the diagonal")
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, vals[off]])
    try:
        # indices on disk are 1-based
        return SparseMatrix(nrows, ncols, rows - 1, cols - 1, vals)
    except ValueError as exc:
        raise BadFileError(f"{path}: {exc}") from exc
