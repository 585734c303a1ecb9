"""Skeletal operators on graded graphs.

The products here keep, at output level L, only the factor-level pairs
(l1, l2) with l1 + l2 = L (or a shaped/dilated variant of that constraint)
and only the edges whose summed level changes by at most one.  Level
blocks are laid out deterministically: pairs ordered by l1 ascending,
entries row-major in (i1, i2).  The same layout is produced by
:func:`product_via_flat_assembly`, which builds the product a second,
independent way -- Kronecker products of the flat assembled adjacencies,
re-gathered by level and truncated -- so the two constructions can be
compared triplet-for-triplet.

Truncation contract: a product of factors truncated at L1, L2 is complete
for output levels below ``meta["partial_from"]``; any emitted level at or
beyond that horizon would gain further blocks if the factors were deeper,
and is listed in ``meta["partial_levels"]``.  The default output depth
stops just short of the horizon.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .graphs import Graph
from .lineage import GradedGraph, LevelCodec, assemble_flat, codec_of, truncate
from .sparse import (
    Permutation,
    SparseMatrix,
    block_assemble,
    identity,
    kron,
    kron_sum,
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


def _fetch_inter(gg, row_level, col_level, weights):
    """Inter-level factor matrix oriented (row_level, col_level).

    The stored map runs coarse-to-fine; asking for the opposite orientation
    returns its transpose.
    """
    if weights == "prolong":
        if gg.prolong is None:
            raise ValueError("prolongation weights requested but factor has none")
        mats = gg.prolong
    else:
        mats = gg.inter
    if row_level == col_level + 1:
        return mats[col_level]
    if col_level == row_level + 1:
        return mats[row_level].transpose()
    raise ValueError(f"levels {row_level}, {col_level} are not adjacent")


def _as_fraction(rho):
    if isinstance(rho, Fraction):
        return rho
    if isinstance(rho, int):
        return Fraction(rho)
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


def _assemble_product(ggs, kind, level_of, max_level, weights, meta):
    """Shared builder for all skeletal products.

    Edges are enumerated by level-shift class: each factor either stays on
    its level (adjacency block) or moves one level (inter-level block); a
    class survives iff the output level changes by at most one.
    """
    n = len(ggs)
    tops = [gg.top for gg in ggs]
    sizes = [gg.level_sizes() for gg in ggs]
    tables = _block_tables(tops, level_of, max_level)
    codecs = [
        LevelCodec(
            tuple(table),
            tuple(tuple(sizes[i][lvec[i]] for i in range(n)) for lvec in table),
        )
        for table in tables
    ]
    if kind == "box":
        deltas = [d for d in itertools.product((-1, 0, 1), repeat=n) if sum(map(abs, d)) <= 1]
    else:
        deltas = list(itertools.product((-1, 0, 1), repeat=n))
        if meta.get("mode") == "hat":
            deltas = [d for d in deltas if abs(sum(d)) <= 1]
        elif meta.get("mode") == "tilde":
            deltas = [d for d in deltas if _alternating(d)]
    intra = [dict() for _ in range(max_level + 1)]
    inter = [dict() for _ in range(max_level)]
    for level in range(max_level + 1):
        table = tables[level]
        index_at = {lvec: b for b, lvec in enumerate(table)}
        for b, lvec in enumerate(table):
            for d in deltas:
                cvec = tuple(l - s for l, s in zip(lvec, d))
                if any(not 0 <= c <= t for c, t in zip(cvec, tops)):
                    continue
                clevel = level_of(cvec)
                shift = level - clevel
                if shift == 0:
                    target = index_at.get(cvec)
                    if target is None:
                        continue
                    intra[level][(b, target)] = _class_block(ggs, kind, lvec, cvec, d, weights)
                elif shift == 1 and clevel >= 0:
                    ctable = tables[clevel]
                    try:
                        target = ctable.index(cvec)
                    except ValueError:
                        continue
                    inter[clevel][(b, target)] = _class_block(ggs, kind, lvec, cvec, d, weights)
                # shift == -1 is the transpose of a stored block; |shift| >= 2 is dropped
    levels = [
        Graph(block_assemble(intra[L], codecs[L].sizes, codecs[L].sizes))
        for L in range(max_level + 1)
    ]
    inter_mats = [
        block_assemble(inter[L], codecs[L + 1].sizes, codecs[L].sizes)
        for L in range(max_level)
    ]
    horizon = _partial_horizon(tops, level_of)
    full_meta = dict(meta)
    full_meta.update(
        {
            "codec": tuple(codecs),
            "factors": tuple(ggs),
            "partial_from": horizon,
            "partial_levels": [L for L in range(max_level + 1) if L >= horizon],
        }
    )
    return GradedGraph(levels, inter_mats, None, full_meta)


def _class_block(ggs, kind, lvec, cvec, d, weights):
    moving = [i for i, s in enumerate(d) if s != 0]
    if kind == "box" and not moving:
        return kron_sum(ggs[0].levels[lvec[0]].adj, ggs[1].levels[lvec[1]].adj)
    factors = []
    for i, gg in enumerate(ggs):
        if d[i] == 0:
            if kind == "box":
                factors.append(identity(gg.levels[lvec[i]].n))
            else:
                factors.append(gg.levels[lvec[i]].adj)
        else:
            factors.append(_fetch_inter(gg, lvec[i], cvec[i], weights))
    out = factors[0]
    for f in factors[1:]:
        out = kron(out, f)
    return out


def _alternating(d):
    """True iff the nonzero entries of d alternate in sign."""
    signs = [s for s in d if s != 0]
    return all(signs[i + 1] == -signs[i] for i in range(len(signs) - 1))


def _default_depth(tops, level_of):
    return _partial_horizon(tops, level_of) - 1


def _sum_map(lvec):
    return sum(lvec)


def skeletal_cross(gg1, gg2, max_level=None, weights="pattern"):
    """Level-sum-preserving cross product of two graded graphs.

    Intra-level edges pair adjacency with adjacency on diagonal blocks and
    inter-level maps with opposite inter-level maps between blocks whose
    factor levels trade one unit; inter-level edges move exactly one factor.
    """
    if max_level is None:
        max_level = _default_depth([gg1.top, gg2.top], _sum_map)
    return _assemble_product(
        [gg1, gg2], "cross", _sum_map, max_level, weights,
        {"kind": "cross", "mode": "hat",
         "name": f"cross({gg1.meta.get('name', '?')},{gg2.meta.get('name', '?')})"},
    )


def skeletal_box(gg1, gg2, max_level=None, weights="pattern"):
    """Level-sum-graded box product: diagonal blocks are box products of the
    factor level graphs; inter-level maps move one factor and fix the other
    through an identity."""
    if max_level is None:
        max_level = _default_depth([gg1.top, gg2.top], _sum_map)
    return _assemble_product(
        [gg1, gg2], "box", _sum_map, max_level, weights,
        {"kind": "box",
         "name": f"box({gg1.meta.get('name', '?')},{gg2.meta.get('name', '?')})"},
    )


def skeletal_strong(gg1, gg2, max_level=None):
    """0/1 union of the skeletal box and cross products."""
    b = skeletal_box(gg1, gg2, max_level)
    c = skeletal_cross(gg1, gg2, max_level)
    levels = [
        Graph(support_union(gb.adj, gc.adj)) for gb, gc in zip(b.levels, c.levels)
    ]
    inter = [support_union(sb, sc) for sb, sc in zip(b.inter, c.inter)]
    meta = dict(b.meta)
    meta["kind"] = "strong"
    meta["name"] = f"strong({gg1.meta.get('name', '?')},{gg2.meta.get('name', '?')})"
    return GradedGraph(levels, inter, None, meta)


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
    if max_level is None:
        max_level = _default_depth([gg.top for gg in ggs], _sum_map)
    names = ",".join(gg.meta.get("name", "?") for gg in ggs)
    return _assemble_product(
        ggs, "cross", _sum_map, max_level, "pattern",
        {"kind": f"nway-{mode}", "mode": mode, "name": f"nway-{mode}({names})"},
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
    if max_level is None:
        max_level = max(_default_depth([gg1.top, gg2.top], level_of), 0)
    # no upfront class filter: under a dilated level map, classes moving both
    # factors can still change the output level by at most one and are kept
    return _assemble_product(
        [gg1, gg2], kind, level_of, max_level, "pattern",
        {"kind": f"dilated-{kind}", "rho": rho_note,
         "name": f"dilated-{kind}({gg1.meta.get('name', '?')},{gg2.meta.get('name', '?')})"},
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
    permutes rows and columns to gather vertices of equal summed level,
    deletes every entry whose summed level changes by two or more, and
    slices the result back into a graded graph.  No per-block formula is
    involved, so agreement with the skeletal constructors is evidence for
    both.
    """
    if kind not in ("cross", "box", "strong"):
        raise ValueError(f"unknown kind {kind!r}")
    if max_level is None:
        max_level = min(gg1.top, gg2.top)
    f1 = assemble_flat(gg1).adj
    f2 = assemble_flat(gg2).adj
    if kind == "cross":
        big = kron(f1, f2)
    elif kind == "box":
        big = kron_sum(f1, f2)
    else:
        big = support_union(kron_sum(f1, f2), kron(f1, f2))
    c1, c2 = codec_of(gg1), codec_of(gg2)
    off1, off2 = c1.offsets, c2.offsets
    n2_total = f2.nrows
    order = []
    level_sizes = []
    for level in range(gg1.top + gg2.top + 1):
        total = 0
        for l1 in range(max(0, level - gg2.top), min(level, gg1.top) + 1):
            l2 = level - l1
            n1, n2 = c1.sizes[l1], c2.sizes[l2]
            ids = (off1[l1] + np.arange(n1))[:, None] * n2_total + (off2[l2] + np.arange(n2))
            order.append(ids.ravel())
            total += n1 * n2
        level_sizes.append(total)
    order = np.concatenate(order)
    forward = np.empty(order.size, dtype=np.int64)
    forward[order] = np.arange(order.size)
    gathered = permute(big, Permutation(forward))
    level_of_vertex = np.repeat(np.arange(len(level_sizes)), level_sizes)
    keep = np.abs(level_of_vertex[gathered.rows] - level_of_vertex[gathered.cols]) <= 1
    gathered = SparseMatrix(
        gathered.nrows, gathered.ncols,
        gathered.rows[keep], gathered.cols[keep], gathered.vals[keep],
    )
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
