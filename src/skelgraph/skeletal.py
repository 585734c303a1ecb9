"""Skeletal operators on graded graphs.

The products here keep, at output level L, only the factor-level pairs
(l1, l2) with l1 + l2 = L (or a shaped/dilated variant of that constraint)
and only the edges whose summed level changes by at most one.  Level
blocks are laid out deterministically: pairs ordered by l1 ascending,
entries row-major in (i1, i2).  The same layout is produced by
:func:`product_via_flat_assembly`, which builds the product a second,
independent way -- Kronecker products of the flat assembled adjacencies,
re-gathered by level and truncated -- so the two constructions can be
compared triplet-for-triplet.  The per-level builder behind the products
is shared with the levelwise multigrid solver, whose hierarchy is the
skeletal box product of the 1D operator hierarchy with itself.

Truncation contract: a product of factors truncated at L1, L2 is complete
for output levels below ``meta["partial_from"]``; any emitted level at or
beyond that horizon would gain further blocks if the factors were deeper,
and is listed in ``meta["partial_levels"]``.  The default output depth
stops just short of the horizon; a depth beyond the deepest level any
block reaches is refused.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .graphs import Graph
from .lineage import GradedGraph, LevelCodec, assemble_flat, truncate
from .sparse import (
    Permutation,
    SparseMatrix,
    block_assemble,
    identity,
    kron,
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


def _as_fraction(rho):
    if isinstance(rho, Fraction):
        return rho
    return Fraction(rho).limit_denominator(10 ** 6)


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
    probes = []
    for i, top in enumerate(tops):
        lvec = [0] * len(tops)
        lvec[i] = top + 1
        probes.append(level_of(tuple(lvec)))
    return min(probes)


def _check_depth(max_level, deepest):
    """Refuse an output depth no block reaches: level maps are monotone, so
    the deepest level any block reaches is that of the factors' top levels."""
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
        max_level = min(max(horizon - 1, 0), level_of(tops))
    _check_depth(max_level, level_of(tops))
    codecs, mats, inter = zip(*_product_levels(
        [[g.adj for g in gg.levels] for gg in ggs],
        [gg.prolong if weights == "prolong" else gg.inter for gg in ggs],
        kind, level_of, max_level, meta.get("mode"),
    ))
    names = ",".join(gg.meta.get("name", "?") for gg in ggs)
    meta = dict(
        meta,
        name=f"{meta['kind']}({names})",
        codec=codecs,
        factors=tuple(ggs),
        partial_from=horizon,
        partial_levels=[L for L in range(max_level + 1) if L >= horizon],
    )
    return GradedGraph([Graph(m) for m in mats], inter[1:], None, meta)


def _product_levels(level_mats, maps, kind, level_of, max_level, mode=None):
    """Shared builder of the skeletal products and the levelwise multigrid
    hierarchy, over per-factor lists of level matrices and of coarse-to-fine
    maps (None for a factor without them).

    Yields, for each output level 0..max_level, its codec, its assembled
    matrix and the coarse-to-fine map from the level below (None at level 0).
    Edges are enumerated by level-shift class: each factor either stays on
    its level (its level matrix, or an identity under the box rule) or moves
    one level (its map); a class survives iff the output level changes by at
    most one.  The blocks of one matrix are held at a time, and a level is
    handed over before the next level's blocks are built, so a caller that
    keeps a transformed copy of the map never holds all the raw maps.
    """
    tops = [len(mats) - 1 for mats in level_mats]
    tables = _block_tables(tops, level_of, max_level)
    index = [{lvec: b for b, lvec in enumerate(table)} for table in tables]
    codecs = [
        LevelCodec(
            tuple(table),
            tuple(tuple(mats[l].nrows for mats, l in zip(level_mats, lvec)) for lvec in table),
        )
        for table in tables
    ]
    deltas = list(itertools.product((-1, 0, 1), repeat=len(level_mats)))
    if kind == "box":
        deltas = [d for d in deltas if sum(map(abs, d)) <= 1]
    elif mode == "hat":
        deltas = [d for d in deltas if abs(sum(d)) <= 1]
    elif mode == "tilde":
        deltas = [d for d in deltas if _alternating(d)]

    def assemble(classes, row_level, col_level):
        blocks = {key: _class_block(level_mats, maps, kind, *c) for key, c in classes.items()}
        return block_assemble(blocks, codecs[row_level].sizes, codecs[col_level].sizes)

    for level, table in enumerate(tables):
        intra, down = {}, {}
        for b, lvec in enumerate(table):
            for d in deltas:
                cvec = tuple(l - s for l, s in zip(lvec, d))
                if any(not 0 <= c <= t for c, t in zip(cvec, tops)):
                    continue
                clevel = level_of(cvec)
                # a level rise is the transpose of a block stored one level up;
                # a change of two or more levels is dropped
                if clevel == level:
                    intra[b, index[clevel][cvec]] = (lvec, cvec, d)
                elif 0 <= clevel == level - 1:
                    down[b, index[clevel][cvec]] = (lvec, cvec, d)
        yield (
            codecs[level],
            assemble(intra, level, level),
            assemble(down, level, level - 1) if level else None,
        )


def _class_block(level_mats, maps, kind, lvec, cvec, d):
    if kind == "strong":
        cross = _class_block(level_mats, maps, "cross", lvec, cvec, d)
        if sum(map(abs, d)) <= 1:
            return support_union(cross, _class_block(level_mats, maps, "box", lvec, cvec, d))
        return pattern(cross)
    if kind == "box" and not any(d):
        return kron_sum(level_mats[0][lvec[0]], level_mats[1][lvec[1]])
    factors = []
    for i, mats in enumerate(level_mats):
        if d[i]:
            factors.append(_oriented(maps[i], lvec[i], cvec[i]))
        elif kind == "box":
            factors.append(identity(mats[lvec[i]].nrows))
        else:
            factors.append(mats[lvec[i]])
    out = factors[0]
    for f in factors[1:]:
        out = kron(out, f)
    return out


def _oriented(maps, row, col):
    """A factor's map between adjacent levels, oriented (row, col): the maps
    run coarse-to-fine, so the fine-to-coarse orientation is a transpose."""
    if maps is None:
        raise ValueError("prolongation weights requested but factor has none")
    return maps[col] if row > col else maps[row].transpose()


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
    """0/1 union of the skeletal box and cross products, built block by
    block: each level-shift class gives the 0/1 union of its cross block and,
    when at most one factor moves, its box block."""
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
        r1, r2 = _as_fraction(rho1), _as_fraction(rho2)
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
    the copied graph's own adjacency."""
    levels = [assemble_flat(truncate(gg, l)) for l in range(gg.num_levels)]
    inner_sizes = gg.level_sizes()
    inter = []
    for l in range(gg.top):
        blocks = {(i, i): gg.levels[i].adj for i in range(l + 1)}
        inter.append(
            block_assemble(blocks, inner_sizes[: l + 2], inner_sizes[: l + 1])
        )
    meta = {
        "kind": "thicken",
        "name": f"thicken({gg.meta.get('name', '?')})",
        "inner_sizes": list(inner_sizes),
    }
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
    """
    if kind not in ("cross", "box", "strong"):
        raise ValueError(f"unknown kind {kind!r}")
    if max_level is None:
        max_level = min(gg1.top, gg2.top)
    _check_depth(max_level, gg1.top + gg2.top)
    f1 = assemble_flat(gg1).adj
    f2 = assemble_flat(gg2).adj
    if kind == "cross":
        big = kron(f1, f2)
    elif kind == "box":
        big = kron_sum(f1, f2)
    else:
        big = support_union(kron_sum(f1, f2), kron(f1, f2))
    tags = [np.repeat(np.arange(gg.num_levels), gg.level_sizes()) for gg in (gg1, gg2)]
    # kron pairs (i1, i2) as i1 * |V2| + i2, the vertex's index in big
    level = np.add.outer(*tags).ravel()
    # a stable sort by summed level lists each level's blocks by l1
    # ascending, row-major inside a block: the skeletal layout
    forward = np.empty(level.size, dtype=np.int64)
    forward[np.argsort(level, kind="stable")] = np.arange(level.size)
    row_level, col_level = level[big.rows], level[big.cols]
    keep = (np.abs(row_level - col_level) <= 1) & (np.maximum(row_level, col_level) <= max_level)
    kept = SparseMatrix(big.nrows, big.ncols, big.rows[keep], big.cols[keep], big.vals[keep])
    gathered = permute(kept, Permutation(forward))
    # minlength keeps the slot of a level no vertex lies on (an empty top level)
    level_sizes = np.bincount(level, minlength=gg1.num_levels + gg2.num_levels - 1)
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

def leaf_table(gg, level):
    """Leaf coordinates of every flat vertex at the given level.

    Returns one ((leaf levels...), (leaf indices...)) tuple per vertex, in
    vertex order.  A graded graph without product structure is its own
    single leaf.
    """
    codecs = gg.meta.get("codec")
    factors = gg.meta.get("factors")
    if codecs is None or factors is None:
        return [((level,), (j,)) for j in range(gg.levels[level].n)]
    out = []
    codec = codecs[level]
    for b, lvec in enumerate(codec.blocks):
        subtables = [leaf_table(factors[i], lvec[i]) for i in range(len(factors))]
        for combo in itertools.product(*subtables):
            lev = tuple(itertools.chain.from_iterable(entry[0] for entry in combo))
            idx = tuple(itertools.chain.from_iterable(entry[1] for entry in combo))
            out.append((lev, idx))
    return out


def alignment_permutation(src, dst, level):
    """Vertex map between two products of the same leaves at equal level."""
    src_table = leaf_table(src, level)
    dst_pos = {entry: i for i, entry in enumerate(leaf_table(dst, level))}
    if len(src_table) != len(dst_pos):
        raise ValueError("vertex sets differ, cannot align")
    return Permutation(np.array([dst_pos[e] for e in src_table], dtype=np.int64))


def factor_swap_permutation(prod_ab, prod_ba, level):
    """Witness for commutativity: maps each level-L vertex ((l1,i1),(l2,i2))
    of the first product onto ((l2,i2),(l1,i1)) of the second."""
    codec = prod_ab.meta["codec"][level]
    codec_ba = prod_ba.meta["codec"][level]
    forward = np.empty(codec.total, dtype=np.int64)
    for v in range(codec.total):
        (l1, l2), (i1, i2) = codec.unrank(v)
        forward[v] = codec_ba.rank((l2, l1), (i2, i1))
    return Permutation(forward)
