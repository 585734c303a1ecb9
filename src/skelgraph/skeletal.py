"""Skeletal operators on graded graphs.

The products here keep, at output level L, only the factor-level pairs
(l1, l2) with l1 + l2 = L (or a shaped/dilated variant of that constraint)
and only the edges whose summed level changes by at most one.  Level
blocks are laid out deterministically: pairs ordered by l1 ascending,
entries row-major in (i1, i2).  The same layout is produced by
:func:`product_via_flat_assembly`, which builds the product a second,
independent way -- Kronecker products of the flat assembled adjacencies,
re-gathered by level and truncated -- so the two constructions can be
compared triplet-for-triplet.  The levelwise multigrid solver's hierarchy
is the skeletal box product of the 1D operator hierarchy with itself; it is
built from the 1D factors there, and checked against the builder here.

Each level matrix and each map is written by one gather,
:func:`~skelgraph.sparse.kron_blocks`: a class block is the Kronecker product
of one matrix per factor, so no block is built and nothing is sorted.  A
factor that stays gives its level matrix (cross) or an identity (box); one
that moves gives its map, or the map's transpose.  Box's class where no
factor moves is the Kronecker sum of the level matrices.  Strong uses
G1 ⊠ G2 = (G1 + I) × (G2 + I) - I, which makes each class a single
Kronecker product of patterns: a factor that stays gives the reflexive
closure A ∪ I of its level (A plus a loop at every vertex), one that moves
its map's pattern, and the diagonal entries where neither factor has a loop
are dropped.  Before any level is built, each output level's vertices, then the
entries of it and of the map into it (counted from the factors), are checked; a
count above ``lineage.MAX_TOP_ENTRIES`` (2**24) is refused with a ``ValueError``.

Truncation contract: a product of factors truncated at L1, L2 is complete
for output levels below ``meta["partial_from"]``; any emitted level at or
beyond that horizon would gain further blocks if the factors were deeper,
and is listed in ``meta["partial_levels"]``.  The default output depth
stops just short of the horizon; a depth beyond the deepest level any
block reaches is refused.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lineage
from .graphs import Graph
from .lineage import GradedGraph, assemble_flat
from .sparse import (
    SparseMatrix,
    _kron_sum_nnz,
    block_assemble,
    identity,
    kron,
    kron_blocks,
    kron_sum,
    pattern,
    permute,
    submatrix,
    support_union,
)

__all__ = [
    "LevelCodec",
    "thicken",
    "skeletal_cross",
    "skeletal_box",
    "skeletal_strong",
    "skeletal_cross_nway",
    "skeletal_dilated",
    "product_via_flat_assembly",
    "leaf_table",
    "alignment_permutation",
    "factor_swap_permutation",
]


def _block_tables(tops, level_of, max_level):
    """For each output level, the sorted factor-level tuples mapping to it."""
    tables = [[] for _ in range(max_level + 1)]
    for lvec in itertools.product(*(range(t + 1) for t in tops)):
        level = level_of(lvec)
        if 0 <= level <= max_level:
            tables[level].append(lvec)
    return [sorted(t) for t in tables]


def _partial_horizon(tops, level_of):
    """Smallest output level that could gain blocks from deeper factors."""
    n = len(tops)
    return min(level_of(tuple(t + 1 if j == i else 0 for j in range(n))) for i, t in enumerate(tops))


def _check_depth(max_level, deepest):
    """Refuse an output depth no block reaches: level maps are monotone, so
    the deepest level any block reaches is that of the factors' top levels (0 when empty)."""
    deepest = max(deepest, 0)
    if not 0 <= max_level <= deepest:
        raise ValueError(
            f"output depth {max_level} is outside 0..{deepest}, the levels the factors reach"
        )


def _assemble_product(ggs, kind, level_of, max_level, weights, meta):
    """Skeletal product of graded graphs: the default output depth stops just
    short of the partial horizon, ``weights`` selects each factor's
    inter-level maps, and the graph is named ``meta["kind"]`` of its factors."""
    tops = tuple(gg.top for gg in ggs)
    horizon = _partial_horizon(tops, level_of)
    if max_level is None:
        # dilation rates above one can put the horizon past the deepest level
        max_level = max(min(horizon - 1, level_of(tops)), 0)
    _check_depth(max_level, level_of(tops))
    codecs, mats, inter = _product_levels(
        [[g.adj for g in gg.levels] for gg in ggs],
        [gg.prolong if weights == "prolong" else gg.inter for gg in ggs],
        kind, level_of, max_level, meta.get("mode"),
    )
    names = ",".join(gg.meta.get("name", "?") for gg in ggs)
    meta = dict(
        meta,
        name=f"{meta['kind']}({names})",
        codec=codecs,
        factors=tuple(ggs),
        partial_from=horizon,
        partial_levels=[L for L in range(max_level + 1) if L >= horizon],
    )
    return GradedGraph([Graph(m) for m in mats], inter, None, meta)


@dataclass(frozen=True, eq=False)
class LevelCodec:
    """Vertex layout of one product level: ordered blocks of factor levels.

    ``blocks[b]`` is the tuple of factor levels of block b and ``dims[b]``
    the per-factor vertex counts; within a block, factor indices combine
    row-major (last factor fastest).
    """

    blocks: tuple
    dims: tuple

    @property
    def sizes(self):
        return tuple(math.prod(d) for d in self.dims)


def _product_levels(level_mats, maps, kind, level_of, max_level, mode=None):
    """Builder of the skeletal products, over per-factor lists of level
    matrices and of coarse-to-fine maps (None for a factor without them).

    Returns the codecs of output levels 0..max_level (a tuple), their
    matrices, and the coarse-to-fine maps into levels 1..max_level, built in
    the order level 0, level 1, map 1, level 2, map 2, ...  Edges are
    enumerated by level-shift class: each factor either stays on its level
    or moves one level (its map); a class survives iff the output level
    changes by at most one.  Each matrix is one gather of its classes'
    Kronecker factors (see the module docstring), and the factors derived
    from the inputs are made once a call.  Before level 0, each level's vertices,
    then the entries of it and of the map into it (from its factors' counts),
    are checked, and a count above ``lineage.MAX_TOP_ENTRIES`` is refused.
    """
    tops = [len(mats) - 1 for mats in level_mats]
    tables = _block_tables(tops, level_of, max_level)
    index = [{lvec: b for b, lvec in enumerate(table)} for table in tables]
    codecs = tuple(
        LevelCodec(
            tuple(table),
            tuple(tuple(mats[l].nrows for mats, l in zip(level_mats, lvec)) for lvec in table),
        )
        for table in tables
    )
    # shifts in descending order list a block's classes by ascending column block
    deltas = list(itertools.product((1, 0, -1), repeat=len(level_mats)))
    # under sum grading the level test below drops every class the hat rule drops
    if kind == "box":
        deltas = [d for d in deltas if sum(map(abs, d)) <= 1]
    elif mode == "tilde":
        deltas = [d for d in deltas if _alternating(d)]

    @functools.cache
    def factor(i, row, col):
        """Factor i of a class that moves it from level col to level row."""
        a = level_mats[i][row]
        if row != col:
            if maps[i] is None:
                raise ValueError("prolongation weights requested but factor has none")
            # the maps run coarse-to-fine, so a fine-to-coarse move is a transpose
            a = maps[i][min(row, col)]
            a = a if row > col else a.transpose()
        elif kind == "box":
            return identity(a.nrows)
        elif kind == "strong":
            # a loop the closure adds weighs 1/2, so the product of two weighs 1/4
            loose = np.flatnonzero(a.diagonal() == 0.0)
            return pattern(a) + SparseMatrix(a.nrows, a.ncols, loose, loose, np.full(loose.size, 0.5))
        return pattern(a) if kind == "strong" else a

    def entries(lvec, cvec):
        if kind == "box" and lvec == cvec:  # its kron_sum block is built only in assemble
            return _kron_sum_nnz(*(mats[l] for mats, l in zip(level_mats, lvec)))
        fs = [factor(i, l, c) for i, (l, c) in enumerate(zip(lvec, cvec))]
        # strong drops the entries of weight 1/4, where every factor has an added loop
        quarters = math.prod(np.count_nonzero(f.vals == 0.5) for f in fs) if kind == "strong" else 0
        return math.prod(f.nnz for f in fs) - quarters

    # per level, the classes of its matrix and of the map into it: (block row, block column, lvec, cvec)
    classes = [([], []) for _ in tables]
    for level, table in enumerate(tables):
        # before this level builds a factor, each a level or map of its or the last level's blocks
        if (n := sum(codecs[level].sizes)) > lineage.MAX_TOP_ENTRIES:
            raise ValueError(f"product level {level} would hold {n:,} vertices, more "
                             f"than {lineage.MAX_TOP_ENTRIES:,} (2**24)")
        for b, lvec in enumerate(table):
            for d in deltas:
                cvec = tuple(l - s for l, s in zip(lvec, d))
                if any(not 0 <= c <= t for c, t in zip(cvec, tops)):
                    continue
                clevel = level_of(cvec)
                # a level rise is the transpose of a block stored one level up;
                # a change of two or more levels is dropped
                if clevel >= 0 and level - clevel in (0, 1):
                    classes[level][level - clevel].append((b, index[clevel][cvec], lvec, cvec))
        for what, found in zip(("level", "map into level"), classes[level]):
            total = sum(entries(lvec, cvec) for *_, lvec, cvec in found)
            if total > lineage.MAX_TOP_ENTRIES:
                raise ValueError(f"product {what} {level} would store {total:,} entries, more "
                                 f"than {lineage.MAX_TOP_ENTRIES:,} (2**24)")

    one = identity(1)

    def assemble(level, target):
        blocks = ((b, c, [one, kron_sum(*(m[l] for m, l in zip(level_mats, lvec)))]
                   if kind == "box" and lvec == cvec else
                   [factor(i, l, cl) for i, (l, cl) in enumerate(zip(lvec, cvec))])
                  for b, c, lvec, cvec in classes[level][level - target])
        m = kron_blocks(blocks, codecs[level].sizes, codecs[target].sizes)
        if kind != "strong":
            return m
        keep = m.vals != 0.25  # a loop that both closures add is an edge of neither product
        return SparseMatrix(m.nrows, m.ncols, m.rows[keep], m.cols[keep], np.ones(np.count_nonzero(keep)))

    levels, links = [assemble(0, 0)], []
    for level in range(1, len(codecs)):
        levels.append(assemble(level, level))
        links.append(assemble(level, level - 1))
    return codecs, levels, links


def _alternating(d):
    """True iff the nonzero entries of d alternate in sign."""
    signs = [s for s in d if s != 0]
    return all(signs[i + 1] == -signs[i] for i in range(len(signs) - 1))


def skeletal_cross(gg1, gg2, max_level=None, weights="pattern"):
    """Level-sum-preserving cross product of two graded graphs.

    Intra-level edges pair adjacency with adjacency on diagonal blocks and
    inter-level maps with opposite inter-level maps between blocks whose
    factor levels trade one unit; inter-level edges move exactly one factor.
    """
    return _assemble_product(
        [gg1, gg2], "cross", sum, max_level, weights, {"kind": "cross", "mode": "hat"}
    )


def skeletal_box(gg1, gg2, max_level=None, weights="pattern"):
    """Level-sum-graded box product: diagonal blocks are box products of the
    factor level graphs; inter-level maps move one factor and fix the other
    through an identity."""
    return _assemble_product([gg1, gg2], "box", sum, max_level, weights, {"kind": "box"})


def skeletal_strong(gg1, gg2, max_level=None):
    """0/1 union of the skeletal box and cross products, built as G1 ⊠ G2 =
    (G1 + I) × (G2 + I) - I: each level-shift class is one Kronecker product
    of patterns (see the module docstring)."""
    return _assemble_product([gg1, gg2], "strong", sum, max_level, "pattern", {"kind": "strong"})


def skeletal_cross_nway(ggs, mode="hat", max_level=None):
    """n-way cross product under a joint level-shift constraint.

    ``hat`` keeps edge classes whose level shifts sum to -1, 0, or +1;
    ``tilde`` keeps only classes whose nonzero shifts alternate in sign.
    For two factors both coincide with :func:`skeletal_cross`.
    """
    ggs = list(ggs)
    if len(ggs) < 2:
        raise ValueError("n-way product needs at least two factors")
    if mode not in ("hat", "tilde"):
        raise ValueError(f"unknown mode {mode!r}")
    return _assemble_product(
        ggs, "cross", sum, max_level, "pattern", {"kind": f"nway-{mode}", "mode": mode}
    )


def skeletal_dilated(gg1, gg2, rho1=1, rho2=1, shape=None, kind="box", max_level=None):
    """Shaped/dilated product: block (l1, l2) lives at output level
    ceil(rho1*l1) + ceil(rho2*l2), or f1(l1) + f2(l2) when shape maps are
    given.  Edges follow the box or cross rules, kept only when the output
    level changes by at most one."""
    if kind not in ("box", "cross"):
        raise ValueError(f"unknown kind {kind!r}")
    if shape is not None:
        f1, f2 = shape
        tops = [gg1.top, gg2.top]
        for f, top in zip((f1, f2), tops):
            steps = [f(l) for l in range(top + 2)]
            if any(b < a for a, b in zip(steps, steps[1:])):
                raise ValueError("shape maps must be monotone nondecreasing")
        level_of = lambda lvec: f1(lvec[0]) + f2(lvec[1])  # noqa: E731
        rho_note = "shaped"
    else:
        if not (math.isfinite(rho1) and math.isfinite(rho2)):
            raise ValueError("dilation rates must be finite")
        r1, r2 = (r if isinstance(r, Fraction) else Fraction(r).limit_denominator(10 ** 6)
                  for r in (rho1, rho2))
        if r1 <= 0 or r2 <= 0:
            raise ValueError("dilation rates must be positive")
        level_of = lambda lvec: math.ceil(r1 * lvec[0]) + math.ceil(r2 * lvec[1])  # noqa: E731
        rho_note = f"{r1},{r2}"
    # no upfront class filter: under a dilated level map, classes moving both
    # factors can still change the output level by at most one and are kept
    return _assemble_product(
        [gg1, gg2], kind, level_of, max_level, "pattern",
        {"kind": f"dilated-{kind}", "rho": rho_note},
    )


def thicken(gg):
    """Unary thickening: output level l stacks levels 0..l of the input,
    assembled flat; consecutive output levels are linked copy-to-copy with
    the copied graph's own adjacency.  The top level, the whole flat assembly,
    is the largest; past ``lineage.MAX_TOP_ENTRIES`` entries or vertices it is refused."""
    total = sum(g.adj.nnz for g in gg.levels) + 2 * sum(s.nnz for s in gg.inter)
    if total > lineage.MAX_TOP_ENTRIES:
        raise ValueError(f"thicken level {gg.top} would store {total:,} entries, more "
                         f"than {lineage.MAX_TOP_ENTRIES:,} (2**24)")
    sizes = gg.level_sizes()
    if sum(sizes) > lineage.MAX_TOP_ENTRIES:
        raise ValueError(f"thicken level {gg.top} would hold {sum(sizes):,} vertices, more "
                         f"than {lineage.MAX_TOP_ENTRIES:,} (2**24)")
    # output level l is the leading block of the flat assembly that ends with
    # inner level l; map l is a leading block of the level adjacencies' diagonal
    flat = assemble_flat(gg).adj
    copies = block_assemble({(i, i): g.adj for i, g in enumerate(gg.levels)}, sizes, sizes)
    ends = np.cumsum([0, *sizes])
    levels = [Graph(submatrix(flat, 0, end, 0, end)) for end in ends[1:]]
    inter = [submatrix(copies, 0, ends[l + 2], 0, ends[l + 1]) for l in range(gg.top)]
    meta = {"kind": "thicken", "name": f"thicken({gg.meta.get('name', '?')})",
            "inner_sizes": list(sizes)}
    return GradedGraph(levels, inter, None, meta)


def product_via_flat_assembly(gg1, gg2, kind="cross", max_level=None):
    """Independent construction of the binary skeletal products.

    Takes the plain Kronecker product (cross), Kronecker sum (box), or
    their support union (strong) of the two flat assembled adjacencies,
    drops every entry that changes the summed level by two or more or leaves
    the output depth, relabels the kept entries so that one stable sort of
    the vertex levels gathers equal summed levels, and slices the result
    back into a graded graph.  No codec or per-block formula is involved,
    so agreement with the skeletal constructors is evidence for both.

    Only the part of the Kronecker product that can survive the mask is
    built.  The rows of the first factor at level a form one flat row range,
    and their entries lie in columns at levels a - 1 .. a + 1.  Paired with
    them, a second-factor row above level depth - a leaves the output depth,
    and so does a column above level depth - a + 1.  So each level-a row slab is
    multiplied by the leading block of the second factor whose rows end with
    level depth - a and whose columns end with level depth - a + 1 (for box
    and strong, also by that slice of the identity).  Path x complete at
    L=8 and L=9 checks in a few hundred MB, where the full product held
    178 M and 1.4 G entries.
    """
    if kind not in ("cross", "box", "strong"):
        raise ValueError(f"unknown kind {kind!r}")
    if max_level is None:
        max_level = max(min(gg1.top, gg2.top), 0)
    _check_depth(max_level, gg1.top + gg2.top)
    f1, f2 = (assemble_flat(gg).adj for gg in (gg1, gg2))
    n1, n2 = f1.nrows, f2.nrows
    tags = [np.repeat(np.arange(gg.num_levels), gg.level_sizes()) for gg in (gg1, gg2)]
    # kron pairs (i1, i2) as i1 * |V2| + i2, the vertex's index in the full product
    level = np.add.outer(*tags).ravel()
    # level a spans ends[a]:ends[a + 1]; a lineage without levels has ends [0]
    ends1, ends2 = (np.cumsum([0, *gg.level_sizes()]) for gg in (gg1, gg2))
    pieces = []
    for a in range(min(gg1.top, max_level) + 1):
        r0, r1 = int(ends1[a]), int(ends1[a + 1])
        r2, c2 = (int(ends2[min(max_level - a + s, gg2.num_levels)]) for s in (1, 2))
        slab = submatrix(f1, r0, r1, 0, n1)
        lead = submatrix(f2, 0, r2, 0, c2)
        if kind == "cross":
            part = kron(slab, lead)
        else:
            # kron_sum restricted to the slab: kron takes rectangular operands
            eye = submatrix(identity(c2), 0, r2, 0, c2)
            part = kron(slab, eye) + kron(submatrix(identity(n1), r0, r1, 0, n1), lead)
            if kind == "strong":
                part = support_union(part, kron(slab, lead))
        # local row (i1 - r0) * r2 + i2, column j1 * c2 + j2 -> global i1 * n2 + i2
        row = (part.rows // r2 + r0) * n2 + part.rows % r2
        col = part.cols // c2 * n2 + part.cols % c2
        row_level, col_level = level[row], level[col]
        keep = (np.abs(row_level - col_level) <= 1) & (np.maximum(row_level, col_level) <= max_level)
        pieces.append((row[keep], col[keep], part.vals[keep]))
    # the slabs cover disjoint rows, so no two of them share an entry; without
    # a slab (the first factor has no levels) there is no vertex either
    kept = (SparseMatrix(n1 * n2, n1 * n2, *map(np.concatenate, zip(*pieces))) if pieces
            else SparseMatrix(0, 0))
    # a stable sort by summed level lists each level's blocks by l1
    # ascending, row-major inside a block: the skeletal layout
    forward = np.empty(level.size, dtype=np.int64)
    forward[np.argsort(level, kind="stable")] = np.arange(level.size)
    gathered = permute(kept, forward, forward)
    # minlength keeps the slot of an output level no vertex lies on
    level_sizes = np.bincount(level, minlength=max_level + 1)
    offsets = np.concatenate([[0], np.cumsum(level_sizes)]).astype(np.int64)
    levels = [
        Graph(submatrix(gathered, offsets[L], offsets[L + 1], offsets[L], offsets[L + 1]))
        for L in range(max_level + 1)
    ]
    inter = [
        submatrix(gathered, offsets[L + 1], offsets[L + 2], offsets[L], offsets[L + 1])
        for L in range(max_level)
    ]
    return GradedGraph(
        levels, inter, None,
        {"kind": f"flat-{kind}",
         "name": f"flat-{kind}({gg1.meta.get('name', '?')},{gg2.meta.get('name', '?')})"},
    )


# -- codec alignment utilities ---------------------------------------------

def _leaves(gg):
    """The leaf lineages of gg in leaf-column order; a non-product is its own leaf."""
    factors = gg.meta.get("factors")
    if factors is None or gg.meta.get("codec") is None:
        return [gg]
    return [leaf for f in factors for leaf in _leaves(f)]


def leaf_table(gg, level):
    """One int row per vertex of the level, in vertex order: its leaf levels,
    then its leaf indices.  A graph without product structure is its own leaf."""
    codecs, factors = gg.meta.get("codec"), gg.meta.get("factors")
    if codecs is None or factors is None:
        n = gg.levels[level].n
        return np.stack([np.full(n, level), np.arange(n)], axis=1)
    width = 2 * len(_leaves(gg))
    tables = [np.empty((0, width), dtype=np.int64)]
    for lvec, dims in zip(codecs[level].blocks, codecs[level].dims):
        # each factor's index of every vertex of the block, last factor fastest
        idx = np.indices(dims).reshape(len(dims), -1)
        # (vertex, levels or indices, leaf) per factor, joined along the leaves
        parts = [leaf_table(f, l)[i].reshape(i.size, 2, len(_leaves(f)))
                 for f, l, i in zip(factors, lvec, idx)]
        tables.append(np.concatenate(parts, axis=2).reshape(-1, width))
    return np.concatenate(tables)


def _match(src, dst, level, cols=slice(None)):
    """The vertex map sending each level vertex of src (columns in the order
    ``cols``) to the vertex of dst of equal leaf levels, indices and lineages,
    a leaf's lineage key being the first of both products' leaves equal to it."""
    leaves = _leaves(src) + _leaves(dst)
    src_table, dst_table = (
        np.hstack([leaf_table(g, level),
                   np.tile([leaves.index(f) for f in _leaves(g)], (g.levels[level].n, 1))])
        for g in (src, dst))
    src_table = src_table[:, cols]
    src_order, dst_order = np.lexsort(src_table.T), np.lexsort(dst_table.T)
    if not np.array_equal(src_table[src_order], dst_table[dst_order]):
        raise ValueError("vertex sets differ, cannot align")
    forward = np.empty(src_order.size, dtype=np.int64)
    forward[src_order] = dst_order
    return forward


def alignment_permutation(src, dst, level):
    """Vertex map between two products of the same leaves at equal level."""
    return _match(src, dst, level)


def factor_swap_permutation(prod_ab, prod_ba, level):
    """Witness for commutativity: maps each level-L vertex ((l1,i1),(l2,i2))
    of the first product onto ((l2,i2),(l1,i1)) of the second."""
    # the first factor's leaves move behind the second's in all three column groups
    n, k = len(_leaves(prod_ab)), len(_leaves(prod_ab.meta["factors"][0]))
    return _match(prod_ab, prod_ba, level, np.roll(np.arange(3 * n).reshape(3, n), -k, 1).ravel())
