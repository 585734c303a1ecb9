"""Thickening, skeletal products, their algebra, and the flat-assembly oracle."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from skelgraph import lineage
from skelgraph.graphs import Graph, empty_graph
from skelgraph.lineage import (
    GradedGraph,
    assemble_flat,
    complete_lineage,
    grid2d_lineage,
    levelwise_oplus,
    path_lineage,
    truncate,
    unit_lineage,
    validate,
)
from skelgraph.skeletal import (
    alignment_permutation,
    factor_swap_permutation,
    leaf_table,
    product_via_flat_assembly,
    skeletal_box,
    skeletal_cross,
    skeletal_cross_nway,
    skeletal_dilated,
    skeletal_strong,
    thicken,
)
from skelgraph.sparse import (
    SparseMatrix,
    block_assemble,
    identity,
    kron,
    kron_sum,
    pattern,
    permute,
    support_subset,
    support_union,
)


def tridiagonal_ones(n):
    e = [(i, i, 1.0) for i in range(n)]
    e += [(i, i + 1, 1.0) for i in range(n - 1)]
    e += [(i + 1, i, 1.0) for i in range(n - 1)]
    return SparseMatrix.from_entries(n, n, e)


# -- thickening -------------------------------------------------------------


def test_thicken_unit_lineage_structure():
    th = thicken(unit_lineage(3))
    assert th.level_sizes() == [1, 2, 3, 4]
    for l, g in enumerate(th.levels):
        assert g.adj == tridiagonal_ones(l + 1)
    # copy-to-copy vertical maps carry each inner graph's own adjacency
    for l, s in enumerate(th.inter):
        expected = SparseMatrix.from_entries(
            l + 2, l + 1, [(i, i, 1.0) for i in range(l + 1)]
        )
        assert s == expected
    assert validate(th).ok


def test_thicken_path_level_sizes():
    th = thicken(path_lineage(3))
    assert th.level_sizes() == [1, 3, 7, 15]


def thicken_size_oracle(sizes):
    return [sum(sizes[: l + 1]) for l in range(len(sizes))]


def test_double_thicken_matches_counting_oracle():
    gg = grid2d_lineage(2)
    once = thicken(gg)
    assert once.level_sizes() == thicken_size_oracle(gg.level_sizes())
    twice = thicken(once)
    assert twice.level_sizes() == thicken_size_oracle(once.level_sizes())
    assert twice.level_sizes()[2] == sum(once.level_sizes()[:3])


def test_thicken_cost_bound():
    gg = path_lineage(5)
    th = thicken(gg)
    sizes = gg.level_sizes()
    for l, n in enumerate(th.level_sizes()):
        assert n <= (l + 1) * max(sizes[: l + 1])


# -- binary skeletal products ------------------------------------------------


def test_skeletal_cross_of_unit_lineages():
    prod = skeletal_cross(unit_lineage(3), unit_lineage(3))
    assert [g.n for g in prod.levels] == [1, 2, 3, 4]
    for level, g in enumerate(prod.levels):
        # anti-diagonal path with a self-loop at every block
        assert g.adj == tridiagonal_ones(level + 1)
    for level, s in enumerate(prod.inter):
        # each block (l1, l2) steps to (l1+1, l2) and (l1, l2+1)
        dense = s.to_dense()
        assert dense.shape == (level + 2, level + 1)
        for b in range(level + 1):
            assert dense[b, b] == 1.0 and dense[b + 1, b] == 1.0
        assert dense.sum() == 2 * (level + 1)


def test_skeletal_cross_path_counts():
    prod = skeletal_cross(path_lineage(3), path_lineage(3))
    assert [g.n for g in prod.levels] == [1, 4, 12, 32]


def test_convolution_cardinality():
    for make in (path_lineage, complete_lineage):
        gg1, gg2 = make(4), path_lineage(4)
        for build in (skeletal_cross, skeletal_box):
            prod = build(gg1, gg2)
            s1, s2 = gg1.level_sizes(), gg2.level_sizes()
            for level, g in enumerate(prod.levels):
                expected = sum(s1[m] * s2[level - m] for m in range(level + 1))
                assert g.n == expected


def test_skeletal_box_blocks_are_box_products():
    gg = path_lineage(2)
    prod = skeletal_box(gg, gg)
    codec = prod.meta["codec"][2]
    adj = prod.levels[2].adj.to_dense()
    offs = _offsets(codec)
    for b, (l1, l2) in enumerate(codec.blocks):
        block = adj[offs[b]:offs[b + 1], offs[b]:offs[b + 1]]
        expected = kron_sum(gg.levels[l1].adj, gg.levels[l2].adj).to_dense()
        assert np.array_equal(block, expected)
    # block (1, 1) is the 2x2 grid, a four-cycle
    b = codec.blocks.index((1, 1))
    square = adj[offs[b]:offs[b + 1], offs[b]:offs[b + 1]]
    assert square.sum() == 8 and np.array_equal(square, square.T)


def test_skeletal_box_levels_disconnect_across_blocks():
    gg = path_lineage(3)
    prod = skeletal_box(gg, gg)
    for level, g in enumerate(prod.levels):
        codec = prod.meta["codec"][level]
        block_of = np.repeat(np.arange(len(codec.blocks)), codec.sizes)
        assert np.all(block_of[g.adj.rows] == block_of[g.adj.cols])


def test_box_and_cross_share_vertex_sets():
    gg1, gg2 = path_lineage(3), complete_lineage(3)
    b = skeletal_box(gg1, gg2)
    c = skeletal_cross(gg1, gg2)
    assert [g.n for g in b.levels] == [g.n for g in c.levels]


def test_skeletal_strong_is_edge_union():
    # G1 ⊠ G2 = (G1 + I) × (G2 + I) - I, checked against box ∪ cross on factors
    # with a loop at every level (unit), at level 0 only (path, complete), and grid2d
    factors = [unit_lineage(3), path_lineage(3), complete_lineage(3), grid2d_lineage(2)]
    for gg1, gg2 in itertools.product(factors, repeat=2):
        s, b, c = skeletal_strong(gg1, gg2), skeletal_box(gg1, gg2), skeletal_cross(gg1, gg2)
        for got, box, cross in zip(_matrices(s), _matrices(b), _matrices(c)):
            assert got == support_union(box, cross)


def test_products_validate_and_flag_partial_levels():
    gg = path_lineage(2)
    prod = skeletal_cross(gg, gg, max_level=4)
    assert validate(prod).ok
    assert prod.meta["partial_from"] == 3
    assert prod.meta["partial_levels"] == [3, 4]
    assert skeletal_cross(gg, gg).meta["partial_levels"] == []


def test_products_refuse_depths_no_block_reaches():
    p, c, u = path_lineage(3), complete_lineage(3), unit_lineage(2)
    builds = {
        6: [lambda L: skeletal_cross(p, c, L), lambda L: skeletal_box(p, c, L),
            lambda L: skeletal_strong(p, c, L),
            lambda L: skeletal_dilated(u, u, 1, 2, max_level=L),
            lambda L: product_via_flat_assembly(p, c, "cross", L)],
        9: [lambda L: skeletal_cross_nway([p, c, p], "hat", L)],
    }
    for deepest, makers in builds.items():
        for make in makers:
            for bad in (-1, deepest + 1):
                with pytest.raises(ValueError, match="outside"):
                    make(bad)
    # the deepest level itself is built, flagged partial, and matches the oracle
    for kind, build in (("cross", skeletal_cross), ("box", skeletal_box),
                        ("strong", skeletal_strong)):
        prod = build(p, c, 6)
        assert prod.level_sizes()[-1] == 64
        assert prod.meta["partial_levels"] == [4, 5, 6]
        assert prod == product_via_flat_assembly(p, c, kind, 6)


def test_commutativity_swap_permutation():
    gg1, gg2 = path_lineage(2), complete_lineage(2)
    for build in (skeletal_box, skeletal_cross):
        ab = build(gg1, gg2)
        ba = build(gg2, gg1)
        perms = [factor_swap_permutation(ab, ba, level) for level in range(3)]
        for level in range(3):
            assert permute(ab.levels[level].adj, perms[level], perms[level]) == ba.levels[level].adj
        for level in range(2):
            moved = permute(ab.inter[level], perms[level + 1], perms[level])
            assert moved == ba.inter[level]


def _offsets(codec):
    """Where each block of a level codec starts, and the level's vertex count last."""
    return np.concatenate([[0], np.cumsum(codec.sizes)]).astype(np.int64)


def _unrank(codec, v):
    """Vertex v's block (its factor levels) and its factor indices."""
    offs = _offsets(codec)
    b = int(np.searchsorted(offs, v, side="right")) - 1
    ivec = np.unravel_index(v - offs[b], codec.dims[b])
    return codec.blocks[b], tuple(int(i) for i in ivec)


def _rank(codec, lvec, ivec):
    """The vertex of factor levels lvec and factor indices ivec: the inverse of _unrank."""
    b = codec.blocks.index(tuple(lvec))
    return int(_offsets(codec)[b]) + int(np.ravel_multi_index(tuple(ivec), codec.dims[b]))


def _swap_per_vertex(prod_ab, prod_ba, level):
    """The factor swap one vertex at a time, through the codecs' layouts."""
    codec = prod_ab.meta["codec"][level]
    codec_ba = prod_ba.meta["codec"][level]
    forward = np.empty(sum(codec.sizes), dtype=np.int64)
    for v in range(forward.size):
        (l1, l2), (i1, i2) = _unrank(codec, v)
        forward[v] = _rank(codec_ba, (l2, l1), (i2, i1))
    return forward


def _leaves_per_vertex(gg, level, v):
    """Vertex v's leaf levels and leaf indices, unranked one product at a time."""
    codecs, factors = gg.meta.get("codec"), gg.meta.get("factors")
    if codecs is None or factors is None:
        return (level,), (v,)
    parts = [_leaves_per_vertex(f, l, i) for f, l, i in zip(factors, *_unrank(codecs[level], v))]
    return sum((lev for lev, _ in parts), ()), sum((idx for _, idx in parts), ())


def test_factor_swap_permutation_matches_per_vertex_loop():
    # the products of acceptance criterion 7, deeper unequal factors, and a
    # nested factor, whose leaf columns move as one block
    pairs = [(path_lineage(2), complete_lineage(2)), (path_lineage(4), complete_lineage(3)),
             (grid2d_lineage(2), unit_lineage(3)),
             (skeletal_box(path_lineage(2), unit_lineage(2), max_level=4), complete_lineage(2))]
    for g1, g2 in pairs:
        for build in (skeletal_box, skeletal_cross):
            ab, ba = build(g1, g2), build(g2, g1)
            for level in range(ab.num_levels):
                want = _swap_per_vertex(ab, ba, level)
                assert np.array_equal(factor_swap_permutation(ab, ba, level), want)


def test_leaf_table_matches_per_vertex_unrank():
    p, u, c = path_lineage(2), unit_lineage(2), complete_lineage(2)
    products = [  # (product, its number of leaves)
        (skeletal_box(skeletal_box(p, u, max_level=4), c), 3),
        (skeletal_cross(p, skeletal_cross(u, c, max_level=4)), 3),
        (skeletal_cross_nway([p, u, c], "tilde"), 3),
        (skeletal_dilated(path_lineage(3), path_lineage(3), 2, 2), 2),
        # blocks pairing an empty level of the dilated factor hold no vertex
        (skeletal_box(skeletal_dilated(p, p, 2, 2), p), 3),
        (grid2d_lineage(2), 1),
    ]
    for prod, leaves in products:
        for level in range(prod.num_levels):
            n = prod.levels[level].n
            table = leaf_table(prod, level)
            assert table.dtype == np.int64 and table.shape == (n, 2 * leaves)
            want = [list(sum(_leaves_per_vertex(prod, level, v), ())) for v in range(n)]
            assert table.tolist() == want


def test_alignment_on_empty_levels_and_empty_products():
    # odd summed levels of this dilated product hold no vertex
    dil = skeletal_dilated(path_lineage(3), path_lineage(3), 2, 2)
    assert dil.level_sizes() == [1, 0, 4, 0, 12, 0, 32, 0]
    for level, n in enumerate(dil.level_sizes()):
        assert leaf_table(dil, level).shape == (n, 4)
        assert np.array_equal(alignment_permutation(dil, dil, level), np.arange(n))
        assert np.array_equal(factor_swap_permutation(dil, dil, level),
                              _swap_per_vertex(dil, dil, level))
    # two lineages without levels: one empty level, empty witnesses
    empty = GradedGraph([], [], None, {"name": "empty"})
    prod = skeletal_box(empty, empty)
    assert leaf_table(prod, 0).shape == (0, 4)
    for perm in (alignment_permutation(prod, prod, 0), factor_swap_permutation(prod, prod, 0)):
        assert perm.dtype == np.int64 and perm.shape == (0,)
        assert permute(prod.levels[0].adj, perm, perm) == prod.levels[0].adj


def test_alignment_refuses_products_of_other_leaves():
    # equal vertex counts but other leaf coordinates, or another number of leaves
    p, u = path_lineage(2), unit_lineage(2)
    pu, up = skeletal_box(p, u), skeletal_box(u, p)
    assert pu.level_sizes() == up.level_sizes()
    triple = skeletal_box(skeletal_box(p, u, max_level=4), u)
    assert triple.level_sizes()[0] == pu.level_sizes()[0]
    for src, dst, level in ((pu, up, 2), (up, pu, 1), (pu, triple, 0), (triple, pu, 1)):
        with pytest.raises(ValueError, match="vertex sets differ, cannot align"):
            alignment_permutation(src, dst, level)


def test_alignment_refuses_products_of_other_lineages_with_equal_level_sizes():
    pc = skeletal_box(path_lineage(2), complete_lineage(2))
    pp = skeletal_box(path_lineage(2), path_lineage(2))
    assert pc.level_sizes() == pp.level_sizes()
    for level in range(pc.num_levels):
        for src, dst in ((pc, pp), (pp, pc)):
            with pytest.raises(ValueError, match="vertex sets differ, cannot align"):
                alignment_permutation(src, dst, level)
    with pytest.raises(ValueError, match="vertex sets differ, cannot align"):
        factor_swap_permutation(pc, pp, 2)
    # equal lineages built apart are the same leaves
    again = skeletal_box(path_lineage(2), complete_lineage(2))
    for level, n in enumerate(pc.level_sizes()):
        assert np.array_equal(alignment_permutation(pc, again, level), np.arange(n))


# -- weighted mode -----------------------------------------------------------


def test_prolongation_weight_mode():
    gg = path_lineage(2)
    prod = skeletal_box(gg, gg, weights="prolong")
    w = 2.0 ** -0.5
    assert set(np.round(prod.inter[0].vals, 12)) == {np.round(w, 12)}
    plain = skeletal_box(gg, gg)
    assert support_subset(prod.inter[0], plain.inter[0])
    th = thicken(unit_lineage(1))
    with pytest.raises(ValueError):
        skeletal_box(th, th, weights="prolong")


# -- n-way products -----------------------------------------------------------


def test_nway_two_factors_matches_binary():
    gg1, gg2 = path_lineage(2), complete_lineage(2)
    assert skeletal_cross_nway([gg1, gg2]) == skeletal_cross(gg1, gg2)
    assert skeletal_cross_nway([gg1, gg2], "tilde") == skeletal_cross(gg1, gg2)


def aligned_flat(src, dst):
    """Flatten src, relabeling its vertices into dst's order, plus dst flat."""
    depth = min(src.num_levels, dst.num_levels)
    src_t, dst_t = truncate(src, depth - 1), truncate(dst, depth - 1)
    perms = [alignment_permutation(src, dst, level) for level in range(depth)]
    offsets = np.concatenate([[0], np.cumsum([g.n for g in dst_t.levels])])
    fwd = np.concatenate([p + offsets[l] for l, p in enumerate(perms)])
    moved = permute(assemble_flat(src_t).adj, fwd, fwd)
    return moved, assemble_flat(dst_t).adj


def test_nway_hat_contains_both_parenthesizations():
    a = b = c = path_lineage(2)
    nway = skeletal_cross_nway([a, b, c])
    left = skeletal_cross(skeletal_cross(a, b, max_level=4), c)
    right = skeletal_cross(a, skeletal_cross(b, c, max_level=4))
    for prod in (left, right):
        moved, target = aligned_flat(prod, nway)
        assert support_subset(moved, target)
        assert moved.nnz < target.nnz  # strict: some edge classes are nested-only losses


def test_nway_strict_inclusion_witness_class():
    # an edge moving factor levels by (+1, +1, -1) descends one summed level;
    # it exists in the n-way product but not in ((a x b) x c)
    a = b = c = path_lineage(2)
    nway = skeletal_cross_nway([a, b, c])
    rows_t = leaf_table(nway, 2)
    cols_t = leaf_table(nway, 1)
    s = nway.inter[1]  # maps summed level 1 to summed level 2
    witness = []
    for r, cc in zip(s.rows, s.cols):
        dl = tuple(rows_t[r, :3] - cols_t[cc, :3])
        if dl == (1, 1, -1):
            witness.append((int(r), int(cc)))
    assert witness
    left = skeletal_cross(skeletal_cross(a, b, max_level=4), c)
    p2 = alignment_permutation(left, nway, 2)
    p1 = alignment_permutation(left, nway, 1)
    moved = permute(left.inter[1], p2, p1)
    left_keys = set(zip(moved.rows.tolist(), moved.cols.tolist()))
    assert all(k not in left_keys for k in witness)


def test_nway_tilde_contained_in_parenthesizations():
    a = b = c = path_lineage(2)
    tilde = skeletal_cross_nway([a, b, c], "tilde")
    left = skeletal_cross(skeletal_cross(a, b, max_level=4), c)
    right = skeletal_cross(a, skeletal_cross(b, c, max_level=4))
    strict = False
    for prod in (left, right):
        moved, target = aligned_flat(tilde, prod)
        assert support_subset(moved, target)
        strict |= moved.nnz < target.nnz
    assert strict


def test_box_is_exactly_associative():
    a, b, c = path_lineage(2), unit_lineage(2), complete_lineage(2)
    left = skeletal_box(skeletal_box(a, b, max_level=4), c)
    right = skeletal_box(a, skeletal_box(b, c, max_level=4))
    assert left.level_sizes() == right.level_sizes()
    perms = [
        alignment_permutation(left, right, level) for level in range(left.num_levels)
    ]
    for level in range(left.num_levels):
        assert permute(left.levels[level].adj, perms[level], perms[level]) == right.levels[level].adj
    for level in range(left.num_levels - 1):
        moved = permute(left.inter[level], perms[level + 1], perms[level])
        assert moved == right.inter[level]


def test_distributivity_over_levelwise_sum():
    a = path_lineage(2)
    b, c = path_lineage(2), complete_lineage(2)
    for build in (skeletal_box, skeletal_cross):
        lhs = build(a, levelwise_oplus(b, c))
        rhs_parts = (build(a, b), build(a, c))
        for level in range(lhs.num_levels):
            # explicit interleaving: vertex ((l1,i1),(l2,i2)) goes to the
            # b-product copy when i2 indexes b's level, else to the c-copy
            codec = lhs.meta["codec"][level]
            cb = rhs_parts[0].meta["codec"][level]
            cc = rhs_parts[1].meta["codec"][level]
            nb = {l: g.n for l, g in enumerate(b.levels)}
            fwd = np.empty(sum(codec.sizes), dtype=np.int64)
            for v in range(fwd.size):
                (l1, l2), (i1, i2) = _unrank(codec, v)
                if i2 < nb[l2]:
                    fwd[v] = _rank(cb, (l1, l2), (i1, i2))
                else:
                    fwd[v] = sum(cb.sizes) + _rank(cc, (l1, l2), (i1, i2 - nb[l2]))
            joined = levelwise_oplus(rhs_parts[0], rhs_parts[1])
            assert permute(lhs.levels[level].adj, fwd, fwd) == joined.levels[level].adj


# -- dilated / shaped products ------------------------------------------------


def test_dilated_unit_rates_match_plain_products():
    gg1, gg2 = path_lineage(2), complete_lineage(2)
    d_box = skeletal_dilated(gg1, gg2, 1, 1, kind="box")
    d_cross = skeletal_dilated(gg1, gg2, 1, 1, kind="cross")
    assert d_box == skeletal_box(gg1, gg2)
    assert d_cross == skeletal_cross(gg1, gg2)


def test_dilated_block_table_with_rate_two():
    u = unit_lineage(4)
    prod = skeletal_dilated(u, u, 1, 2, kind="box", max_level=4)
    for level in range(5):
        blocks = prod.meta["codec"][level].blocks
        assert list(blocks) == [
            (l1, l2)
            for l1 in range(5)
            for l2 in range(5)
            if l1 + 2 * l2 == level
        ]


def test_dilated_half_rates_repeat_dimensions():
    u = unit_lineage(4)
    prod = skeletal_dilated(u, u, 0.5, 0.5, kind="box", max_level=4)
    import math
    for level in range(5):
        blocks = set(prod.meta["codec"][level].blocks)
        expected = {
            (l1, l2)
            for l1 in range(5)
            for l2 in range(5)
            if math.ceil(l1 / 2) + math.ceil(l2 / 2) == level
        }
        assert blocks == expected
    # consecutive output levels repeat block dimensions
    assert (1, 0) in prod.meta["codec"][1].blocks and (2, 0) in prod.meta["codec"][1].blocks


def test_dilated_rejects_bad_parameters():
    u = unit_lineage(2)
    with pytest.raises(ValueError):
        skeletal_dilated(u, u, 0, 1)
    with pytest.raises(ValueError):
        skeletal_dilated(u, u, shape=(lambda l: -l, lambda l: l))
    with pytest.raises(ValueError):
        skeletal_dilated(u, u, kind="strong")
    for rates in ((np.inf, 1), (1, -np.inf), (np.nan, 1)):
        with pytest.raises(ValueError, match="finite"):
            skeletal_dilated(u, u, *rates)


def test_shaped_product_custom_maps():
    u = unit_lineage(3)
    prod = skeletal_dilated(u, u, shape=(lambda l: l, lambda l: 2 * l), max_level=3)
    assert prod.meta["codec"][2].blocks == ((0, 1), (2, 0))


# -- flat-assembly oracle ------------------------------------------------------


@pytest.mark.parametrize("kind", ["cross", "box", "strong"])
def test_flat_assembly_oracle_matches_componentwise(kind):
    builders = {
        "cross": skeletal_cross,
        "box": skeletal_box,
        "strong": skeletal_strong,
    }
    for make in (path_lineage, complete_lineage):
        gg1 = make(3)
        gg2 = path_lineage(3)
        direct = builders[kind](gg1, gg2)
        oracle = product_via_flat_assembly(gg1, gg2, kind)
        assert direct == oracle


def test_flat_assembly_oracle_on_mixed_factors():
    gg1 = grid2d_lineage(2)
    gg2 = complete_lineage(2)
    assert skeletal_strong(gg1, gg2) == product_via_flat_assembly(gg1, gg2, "strong")


def _weighted(gg, rng, name):
    """gg with random symmetric level weights and random inter-level weights."""
    levels = []
    for g in gg.levels:
        w = rng.uniform(0.5, 2.0, (g.n, g.n))
        levels.append(Graph(SparseMatrix.from_dense(g.adj.to_dense() * (w + w.T))))
    inter = [SparseMatrix.from_dense(s.to_dense() * rng.uniform(0.5, 2.0, s.shape))
             for s in gg.inter]
    return GradedGraph(levels, inter, None, {"name": name})


def test_flat_assembly_oracle_on_weighted_unequal_factors_at_every_depth():
    weighted = _weighted(path_lineage(3), np.random.default_rng(7), "weighted-path")
    # an empty top level: no product vertex carries the deepest summed level
    comp = complete_lineage(2)
    topped = GradedGraph(
        [*comp.levels, Graph(SparseMatrix(0, 0))],
        [*comp.inter, SparseMatrix(0, comp.levels[-1].n)],
        None, {"name": "topped-complete"},
    )
    for gg1, gg2 in ((weighted, topped), (topped, weighted)):
        for L in range(gg1.top + gg2.top + 1):
            for kind, build in (("cross", skeletal_cross), ("box", skeletal_box),
                                ("strong", skeletal_strong)):
                assert build(gg1, gg2, L) == product_via_flat_assembly(gg1, gg2, kind, L)


def test_flat_assembly_oracle_on_a_lineage_without_levels():
    # read_lineage accepts numLevels 0; the product has no vertex at any depth
    empty, path = GradedGraph([], [], None, {"name": "empty"}), path_lineage(2)
    for gg1, gg2 in ((empty, path), (path, empty)):
        for kind, build in (("cross", skeletal_cross), ("box", skeletal_box),
                            ("strong", skeletal_strong)):
            for L in (None, 0, 1):
                direct = build(gg1, gg2, L)
                assert direct.level_sizes() == [0] * (1 if L is None else L + 1)
                assert product_via_flat_assembly(gg1, gg2, kind, L) == direct


def test_products_of_two_lineages_without_levels():
    # like one empty factor: one empty level 0, and a deeper level is refused
    empty = GradedGraph([], [], None, {"name": "empty"})
    for kind, build in (("cross", skeletal_cross), ("box", skeletal_box),
                        ("strong", skeletal_strong)):
        for L in (None, 0):
            direct = build(empty, empty, L)
            assert direct.level_sizes() == [0]
            assert product_via_flat_assembly(empty, empty, kind, L) == direct
        for construct in (build, lambda a, b, L: product_via_flat_assembly(a, b, kind, L)):
            with pytest.raises(ValueError, match="output depth 1 is outside 0..0"):
                construct(empty, empty, 1)


def _scipy_flat_reference(gg1, gg2, kind, depth):
    """The flat-assembly oracle recomputed from scipy's Kronecker product of
    the whole flat factors, masked and gathered by the same level tags.
    Returns the scipy level blocks and inter-level maps."""
    sp = pytest.importorskip("scipy.sparse")
    f1, f2 = (
        sp.csr_array((m.vals, (m.rows, m.cols)), shape=m.shape)
        for m in (assemble_flat(gg1).adj, assemble_flat(gg2).adj)
    )
    n1, n2 = f1.shape[0], f2.shape[0]
    cross = sp.kron(f1, f2, format="csr")
    box = (sp.kron(f1, sp.identity(n2)) + sp.kron(sp.identity(n1), f2)).tocsr()
    box.eliminate_zeros()
    strong = ((cross != 0) + (box != 0)).astype(np.float64)
    big = {"cross": cross, "box": box, "strong": strong}[kind].tocoo()
    tags = [np.repeat(np.arange(gg.num_levels), gg.level_sizes()) for gg in (gg1, gg2)]
    level = np.add.outer(*tags).ravel()
    row_level, col_level = level[big.row], level[big.col]
    keep = (np.abs(row_level - col_level) <= 1) & (np.maximum(row_level, col_level) <= depth)
    position = np.empty(level.size, dtype=np.int64)
    position[np.argsort(level, kind="stable")] = np.arange(level.size)
    gathered = sp.csr_array(
        (big.data[keep], (position[big.row[keep]], position[big.col[keep]])), shape=big.shape
    )
    off = np.concatenate([[0], np.cumsum(np.bincount(level, minlength=gg1.top + gg2.top + 1))])
    levels = [gathered[off[L]:off[L + 1], off[L]:off[L + 1]] for L in range(depth + 1)]
    inter = [gathered[off[L + 1]:off[L + 2], off[L]:off[L + 1]] for L in range(depth)]
    return levels, inter


def _same_triplets(ours, ref):
    ref = ref.tocsr()
    ref.sort_indices()
    ref = ref.tocoo()
    return (
        ours.shape == ref.shape
        and np.array_equal(ours.rows, ref.row)
        and np.array_equal(ours.cols, ref.col)
        and ours.vals.tobytes() == ref.data.tobytes()
    )


@pytest.mark.parametrize("kind", ["cross", "box", "strong"])
def test_flat_assembly_oracle_matches_full_kronecker_reference(kind):
    rng = np.random.default_rng(11)
    path = _weighted(path_lineage(5), rng, "weighted-path")
    comp = _weighted(complete_lineage(4), rng, "weighted-complete")
    for gg1, gg2 in ((path, comp), (comp, path)):
        for depth in range(gg1.top + gg2.top + 1):
            oracle = product_via_flat_assembly(gg1, gg2, kind, depth)
            levels, inter = _scipy_flat_reference(gg1, gg2, kind, depth)
            assert len(oracle.levels) == len(levels) and len(oracle.inter) == len(inter)
            assert all(_same_triplets(g.adj, ref) for g, ref in zip(oracle.levels, levels))
            assert all(_same_triplets(s, ref) for s, ref in zip(oracle.inter, inter))


@pytest.mark.parametrize("kind", ["cross", "box", "strong"])
def test_flat_assembly_oracle_builds_only_what_survives(kind):
    # the full Kronecker product of path(6) and complete(6) peaked at
    # 339 / 89 / 434 MB (cross / box / strong) under tracemalloc
    p, c = path_lineage(6), complete_lineage(6)
    tracemalloc.start()
    try:
        product_via_flat_assembly(p, c, kind, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# -- the gather against the per-class construction --------------------------


def _per_class(prod, ggs, kind, maps, mode=None):
    """Every level and map of prod rebuilt one level-shift class block at a
    time -- kron, kron_sum and support_union per class -- then block_assemble."""

    def block(lvec, cvec, kind):
        moves = [l - c for l, c in zip(lvec, cvec)]
        if kind == "strong":
            cross = block(lvec, cvec, "cross")
            return support_union(cross, block(lvec, cvec, "box")) if sum(map(abs, moves)) <= 1 \
                else pattern(cross)
        if kind == "box" and not any(moves):
            return kron_sum(*(gg.levels[l].adj for gg, l in zip(ggs, lvec)))
        factors = [(m[c] if l > c else m[l].transpose()) if l != c
                   else identity(gg.levels[l].n) if kind == "box" else gg.levels[l].adj
                   for gg, m, l, c in zip(ggs, maps, lvec, cvec)]
        return functools.reduce(kron, factors)

    def kept(lvec, cvec):
        moves = [l - c for l, c in zip(lvec, cvec)]
        signs = [d for d in moves if d]
        if kind == "box":
            return sum(map(abs, moves)) <= 1
        return mode != "tilde" or all(a == -b for a, b in zip(signs, signs[1:]))

    codecs = prod.meta["codec"]
    out = []
    for L, codec in enumerate(codecs):
        for target in [codec] + ([codecs[L - 1]] if L else []):
            blocks = {(b, c): block(lvec, cvec, kind)
                      for b, lvec in enumerate(codec.blocks) for c, cvec in enumerate(target.blocks)
                      if max(abs(l - c) for l, c in zip(lvec, cvec)) <= 1 and kept(lvec, cvec)}
            out.append(block_assemble(blocks, codec.sizes, target.sizes))
    return out


def _stored_bytes(m):
    return m.shape, m.rows.tobytes(), m.cols.tobytes(), m.vals.tobytes()


def _matrices(prod):
    """Each level, then the map into it from the level below."""
    return [m for L, g in enumerate(prod.levels) for m in (g.adj, *prod.inter[L - 1:L])]


def _seeded_factors():
    rng = np.random.default_rng(23)
    factors = [GradedGraph([], [], None, {"name": "empty"})]
    for make in (path_lineage, complete_lineage, grid2d_lineage, unit_lineage):
        for depth in range(6):
            gg = make(depth)
            w = _weighted(gg, rng, f"{make.__name__}{depth}")
            factors.append(GradedGraph(w.levels, w.inter, gg.prolong, w.meta))
    return factors


def test_gather_matches_the_per_class_construction(monkeypatch):
    factors = _seeded_factors()
    # every matrix the products construct is handed in canonical order, so none is sorted
    handed, init = [], SparseMatrix.__init__

    def recording_init(self, nrows, ncols, rows=(), cols=(), vals=()):
        keys = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
        handed.append(bool(np.all(keys[1:] > keys[:-1])))
        init(self, nrows, ncols, rows, cols, vals)

    monkeypatch.setattr(SparseMatrix, "__init__", recording_init)
    # every factor against its mirror in the list and against the one seven places on
    pairs = list(zip(factors, factors[::-1])) + list(zip(factors, factors[7:] + factors[:7]))
    cases = []
    for gg1, gg2 in pairs:
        for kind, build in (("cross", skeletal_cross), ("box", skeletal_box),
                            ("strong", skeletal_strong)):
            cases.append((build(gg1, gg2), [gg1, gg2], kind, "inter", None))
        if gg1.top > 0 and gg2.top > 0:
            for kind, build in (("cross", skeletal_cross), ("box", skeletal_box)):
                cases.append((build(gg1, gg2, weights="prolong"), [gg1, gg2], kind, "prolong", None))
        for kind in ("box", "cross"):
            cases.append((skeletal_dilated(gg1, gg2, 1, 2, kind=kind), [gg1, gg2], kind, "inter", None))
            shape = (lambda l: (l + 1) // 2, lambda l: 2 * l)
            cases.append((skeletal_dilated(gg1, gg2, shape=shape, kind=kind), [gg1, gg2], kind,
                          "inter", None))
    for ggs in itertools.islice(zip(factors[1:], factors[9:], factors[17:]), 0, None, 2):
        for mode in ("hat", "tilde"):
            cases.append((skeletal_cross_nway(ggs, mode), list(ggs), "cross", "inter", mode))
    monkeypatch.undo()
    assert handed and all(handed)
    for prod, ggs, kind, weights, mode in cases:
        maps = [getattr(gg, weights) for gg in ggs]
        want = _per_class(prod, ggs, kind, maps, mode)
        assert [_stored_bytes(m) for m in _matrices(prod)] == [_stored_bytes(m) for m in want], \
            prod.meta["name"]


@pytest.mark.parametrize("kind", ["cross", "box", "strong"])
def test_guard_counts_every_level_and_map_exactly(monkeypatch, kind):
    # a cap equal to the largest matrix's entry count builds; one less refuses
    builds = {"cross": skeletal_cross, "box": skeletal_box, "strong": skeletal_strong}
    gg1, gg2 = _weighted(path_lineage(3), np.random.default_rng(5), "p"), grid2d_lineage(2)
    products = [lambda: builds[kind](gg1, gg2), lambda: builds[kind](gg2, unit_lineage(3), 4)]
    if kind != "strong":
        # edgeless levels, so box's largest matrix is a map, and dense weights in place of
        # prolongations: a count of the pattern maps instead would build one below the cap
        path = path_lineage(3)
        dense = [SparseMatrix.from_dense(np.ones(s.shape)) for s in path.inter]
        bare = GradedGraph([empty_graph(g.n) for g in path.levels], path.inter, dense, {"name": "bare"})
        products += [lambda: skeletal_dilated(gg1, gg2, 2, 1, kind=kind),
                     lambda: skeletal_cross_nway([gg1, gg2, complete_lineage(2)], "tilde"),
                     lambda: builds[kind](path, gg2, weights="prolong"),
                     lambda: builds[kind](bare, bare, weights="prolong")]
    for make in products:
        monkeypatch.undo()
        counts = [m.nnz for m in _matrices(make())]
        largest = counts.index(max(counts))
        monkeypatch.setattr(lineage, "MAX_TOP_ENTRIES", max(counts))
        make()
        monkeypatch.setattr(lineage, "MAX_TOP_ENTRIES", max(counts) - 1)
        # _matrices lists level 0, then level L before the map into it
        what = "map into level" if largest and largest % 2 == 0 else "level"
        with pytest.raises(ValueError, match=f"^product {what} {(largest + 1) // 2} would store "
                                             f"{max(counts):,} entries, more than"):
            make()


# tracemalloc peak over held memory of each product below when every class
# block was built and then assembled; one gather per matrix reads 1.36 / 1.51 / 1.86
_PER_CLASS_PEAK_RATIO = {"cross": 1.98, "box": 2.21, "strong": 2.13}


@pytest.mark.parametrize("kind", ["cross", "box", "strong"])
def test_product_peak_memory_over_held(kind):
    rng = np.random.default_rng(8)
    p, c = _weighted(path_lineage(8), rng, "p"), _weighted(complete_lineage(8), rng, "c")
    build = {"cross": skeletal_cross, "box": skeletal_box, "strong": skeletal_strong}[kind]
    tracemalloc.start()
    try:
        prod = build(p, c)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prod.levels[-1].n == 9 * 2 ** 8
    assert peak / held <= _PER_CLASS_PEAK_RATIO[kind]


@pytest.mark.parametrize("call, message", [
    (lambda: skeletal_cross_nway([path_lineage(1)]), "n-way product needs at least two factors"),
    (lambda: skeletal_cross_nway([path_lineage(1)] * 2, "bar"), "unknown mode 'bar'"),
    (lambda: product_via_flat_assembly(path_lineage(1), path_lineage(1), "bar"),
     "unknown kind 'bar'"),
], ids=["nway-one-factor", "nway-mode", "oracle-kind"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        call()
    assert exc.type is ValueError
