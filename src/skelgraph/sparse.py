"""Deterministic sparse linear algebra on canonical coordinate triplets.

Every matrix in this package (adjacency, inter-level map, prolongation,
solver operator) is a :class:`SparseMatrix`.  Entries are kept in a single
canonical form -- sorted by (row, col), duplicates summed, exact zeros
dropped -- so that two constructions can be compared bit-for-bit.  Values
are float64 throughout; structural comparisons never involve a tolerance.

The constructor is the one place that enforces that form.  It first checks
in one pass whether the keys already increase strictly; only if they do not
does it sort them, stably, and sum each key's duplicates in input order.
``kron``, ``kron_blocks`` (a block matrix of Kronecker products in one
gather), ``kron_sum``, ``add`` (and ``-``), ``transpose``, ``block_assemble``,
``submatrix``, ``scale`` and ``pattern`` emit their entries in canonical
order, so they never reach that sort; ``matmul``, the one relabeling
``permute(a, rows, cols)`` and symmetric Matrix Market files do.
``submatrix`` reads only the entries of its row range, which two binary
searches find in the sorted rows.

The Matrix Market writer makes no Python object per entry.  It formats each
distinct value once, with ``repr``, and gathers every line from byte tables
of index and value text, so its files equal those of a per-entry
``f"{i} {j} {x!r}"`` loop byte for byte.  Files of fewer than
``_GATHER_MIN_NNZ`` entries are written by that loop, which costs less there.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "SparseMatrix",
    "identity",
    "kron",
    "kron_sum",
    "kron_blocks",
    "block_assemble",
    "permute",
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

    # _indptr_cache holds indptr(), built on first use; _sweep_cache the
    # Gauss-Seidel schedule that multigrid.gauss_seidel builds on its first call
    __slots__ = ("nrows", "ncols", "rows", "cols", "vals", "_indptr_cache", "_sweep_cache")

    def __init__(self, nrows, ncols, rows=(), cols=(), vals=()):
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if max(nrows, ncols, nrows * ncols) >= 2 ** 63:  # int64 keys row * ncols + col
            raise ValueError(f"matrix dimensions {nrows} x {ncols} exceed the int64 index range")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            # a negative index wraps to one above 2**63, so one unsigned max checks both ends
            if rows.view(np.uint64).max() >= nrows:
                raise ValueError("row index out of range")
            if cols.view(np.uint64).max() >= ncols:
                raise ValueError("col index out of range")
            keys = rows * ncols + cols
            if (keys[1:] > keys[:-1]).all():
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
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.cols = cols
        self.vals = vals
        for a in (rows, cols, vals):
            a.flags.writeable = False
        self._indptr_cache = None
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
        # the transpose's arrays (see transpose) are made and compared one at a time
        order = np.argsort(self.cols, kind="stable")
        return self.nrows == self.ncols and all(np.array_equal(a[order], b) for a, b in (
            (self.cols, self.rows), (self.rows, self.cols), (self.vals, self.vals)))

    def indptr(self):
        """Row pointers: row i holds the entries indptr[i]:indptr[i + 1]; cached."""
        if self._indptr_cache is None:
            self._indptr_cache = np.searchsorted(self.rows, np.arange(self.nrows + 1))
        return self._indptr_cache

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
        indptr = other.indptr()
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
    pa, pb = a.indptr(), b.indptr()
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


def _kron_sum_nnz(a, b):
    """Stored count of ``kron_sum(a, b)``: each factor's off-diagonal entries
    once per row of the other, plus each diagonal slot where a_ii or b_pp is stored."""
    off_a, off_b, bare_a, bare_b = (int(np.count_nonzero(x)) for x in (
        a.rows != a.cols, b.rows != b.cols, a.diagonal() == 0.0, b.diagonal() == 0.0))
    return off_a * b.nrows + a.nrows * off_b + a.nrows * b.nrows - bare_a * bare_b


def kron_blocks(classes, row_sizes, col_sizes):
    """A block matrix of Kronecker products, written in one gather.

    ``classes`` yields (block row, block column, factors) sorted by block row,
    then block column, each with as many factors; a block is ``kron`` of its
    factors, but none is built.  Every entry is written in canonical order: by
    row, then block column, then the factors' entries from left to right.  A
    factor that only ``classes`` holds is freed once pooled.
    """
    row_off, col_off = np.cumsum([0, *row_sizes]), np.cumsum([0, *col_sizes])
    classes = list(classes)
    if not classes:
        return SparseMatrix(row_off[-1], col_off[-1])
    bi, bj, factors = zip(*classes)
    # every distinct factor once: its row pointers into one pool of columns and values
    pool = list({id(f): f for fs in factors for f in fs}.values())
    ptr = np.concatenate([f.indptr() for f in pool])
    ptr += np.repeat(np.cumsum([0] + [f.nnz for f in pool[:-1]]), [f.nrows + 1 for f in pool])
    at = dict(zip(map(id, pool), np.cumsum([0] + [f.nrows + 1 for f in pool]).tolist()))
    pcols, pvals = (np.concatenate([getattr(f, a) for f in pool]) for a in ("cols", "vals"))
    # [factor][class]: the factor's first pointer, its row and column counts
    base, nr, nc = np.array([[(at[id(f)], f.nrows, f.ncols) for f in fs] for fs in factors]).T
    del classes, factors, pool
    # one (row, class) pair per class of each row's block, in output order
    per_block = np.bincount(bi, minlength=len(row_sizes))
    span = np.array(row_sizes, dtype=np.int64) * per_block
    block = np.repeat(np.arange(span.size), span)
    r, k = np.divmod(np.arange(block.size) - (np.cumsum(span) - span)[block], per_block[block])
    k += (np.cumsum(per_block) - per_block)[block]
    row = row_off[block] + r
    # a factor's row is the block's row over the later factors' row counts
    starts, lengths = [None] * len(nr), [None] * len(nr)
    for i in reversed(range(len(nr))):
        r, p = np.divmod(r, nr[i][k]) if i else (None, r)
        p += base[i][k]
        starts[i], lengths[i] = ptr[p], ptr[p + 1] - ptr[p]
    # expand factor by factor, dropping each index array once spent
    it, cols, vals = np.arange(k.size), np.zeros(k.size, dtype=np.int64), np.ones(k.size)
    for i in range(len(nr)):
        s, n, c = starts[i][it], lengths[i][it], k[it]
        cols *= nc[i][c]
        if i == len(nr) - 1:
            cols += col_off[np.asarray(bj)[c]]
        else:
            it = np.repeat(it, n)
        e = _segments(s, s + n)
        cols = np.repeat(cols, n)
        cols += pcols[e]
        v = pvals[e]
        del e
        vals = np.repeat(vals, n)
        vals *= v
        del v
    del ptr, pcols, pvals
    return SparseMatrix(row_off[-1], col_off[-1], np.repeat(row, np.prod(lengths, axis=0)), cols, vals)


def block_assemble(blocks, row_sizes, col_sizes):
    """Assemble a block matrix from a {(block_row, block_col): matrix} map.

    Absent blocks are zero.  Offsets are prefix sums of the given sizes;
    every supplied block must match its slot dimensions exactly.  Entries
    come out row-major: blocks in (block row, block column) order, so with at
    most one block per block row (block-diagonal levels) nothing is sorted.

    A block may also be given as a pair (nnz, make): ``make()`` builds it when
    its turn comes and it is dropped once copied, so of such blocks only one
    is alive at a time.
    """
    row_off = np.concatenate([[0], np.cumsum(row_sizes)]).astype(np.int64)
    col_off = np.concatenate([[0], np.cumsum(col_sizes)]).astype(np.int64)
    items = sorted(blocks.items(), key=lambda item: item[0])
    ends = np.cumsum([0] + [m[0] if type(m) is tuple else m.nnz for _, m in items])
    rows, cols = np.empty(ends[-1], dtype=np.int64), np.empty(ends[-1], dtype=np.int64)
    vals = np.empty(ends[-1])
    for ((bi, bj), m), start, end in zip(items, ends[:-1], ends[1:]):
        if not (0 <= bi < len(row_sizes) and 0 <= bj < len(col_sizes)):
            raise ValueError(f"block position {(bi, bj)} out of range")
        if type(m) is tuple:
            m = m[1]()
            if m.nnz != end - start:
                raise ValueError(f"block {(bi, bj)} has {m.nnz} entries, {end - start} declared")
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


def _bijection(p, n):
    p = np.asarray(p, dtype=np.int64)
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError(f"relabeling is not a bijection of [0, {n})")
    return p


def permute(a, rows, cols):
    """Relabel a matrix: result[rows[i], cols[j]] = a[i, j].

    ``rows`` and ``cols`` must be bijections of [0, nrows) and [0, ncols).
    Pass one array as both to relabel a square matrix's vertices; it is
    checked once.
    """
    same = cols is rows and a.nrows == a.ncols
    rows = _bijection(rows, a.nrows)
    cols = rows if same else _bijection(cols, a.ncols)
    return SparseMatrix(a.nrows, a.ncols, rows[a.rows], cols[a.cols], a.vals)


def submatrix(a, row_start, row_stop, col_start, col_stop):
    """Contiguous block a[row_start:row_stop, col_start:col_stop]."""
    # not indptr(), which caches nrows + 1 pointers: 134 MB for the oracle at L=11
    lo, hi = np.searchsorted(a.rows, (row_start, row_stop))
    rows, cols, vals = a.rows[lo:hi], a.cols[lo:hi], a.vals[lo:hi]
    keep = (cols >= col_start) & (cols < col_stop)
    return SparseMatrix(row_stop - row_start, col_stop - col_start,
                        rows[keep] - row_start, cols[keep] - col_start, vals[keep])


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
        try:
            header = fh.readline().strip().split()
            line = fh.readline()
            while line.startswith("%"):
                line = fh.readline()
        except UnicodeDecodeError:
            raise BadFileError(f"{path}: not UTF-8 text") from None
        words = [w.lower() for w in header[1:5]]
        if len(header) < 5 or header[0] != "%%MatrixMarket" or words[:2] != ["matrix", "coordinate"]:
            raise BadFileError(f"{path}: not a coordinate Matrix Market matrix file")
        if words[2] not in ("real", "integer") or words[3] not in ("general", "symmetric"):
            raise BadFileError(f"{path}: unsupported Matrix Market type {' '.join(header[3:5])}")
        symmetric = words[3] == "symmetric"
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
