"""Generators, validation, flat assembly, growth accounting, and disk format."""

import tracemalloc

import numpy as np
import pytest

from skelgraph.graphs import Graph, empty_graph, path_graph
from skelgraph.lineage import (
    GradedGraph,
    assemble_flat,
    complete_lineage,
    grid2d_lineage,
    growth_profile,
    levelwise_oplus,
    levelwise_product,
    path_lineage,
    read_lineage,
    truncate,
    unit_lineage,
    validate,
    write_lineage,
)
from skelgraph.sparse import SparseMatrix, block_assemble


def test_unit_lineage_shape():
    gg = unit_lineage(3)
    assert gg.level_sizes() == [1, 1, 1, 1]
    assert all(s == SparseMatrix(1, 1, [0], [0], [1.0]) for s in gg.inter)
    assert validate(gg).ok


def test_path_lineage_examples():
    assert path_lineage(0).level_sizes() == [1]
    gg = path_lineage(3)
    assert gg.level_sizes() == [1, 2, 4, 8]
    # one self-loop at the root
    assert gg.levels[0].adj == SparseMatrix(1, 1, [0], [0], [1.0])
    for l, s in enumerate(gg.inter):
        dense = s.to_dense()
        for p in range(2 ** l):
            assert dense[2 * p, p] == 1.0 and dense[2 * p + 1, p] == 1.0
        assert dense.sum() == 2 ** (l + 1)
    for p in gg.prolong:
        gram = (p.T @ p).to_dense()
        assert np.max(np.abs(gram - np.eye(p.ncols))) <= 1e-15


def test_complete_lineage_examples():
    gg = complete_lineage(3)
    assert gg.level_sizes() == [1, 2, 4, 8]
    assert gg.levels[2].edge_count() == 6
    for p in gg.prolong:
        gram = (p.T @ p).to_dense()
        assert np.max(np.abs(gram - np.eye(p.ncols))) <= 1e-15


def test_grid2d_lineage_examples():
    gg = grid2d_lineage(2)
    assert gg.level_sizes() == [1, 4, 16]
    assert gg.levels[2].edge_count() == 24  # 2 * 4 * 3 per direction
    assert gg.levels[0].adj == SparseMatrix(1, 1, [0], [0], [1.0])
    for p in gg.prolong:
        gram = (p.T @ p).to_dense()
        assert np.max(np.abs(gram - np.eye(p.ncols))) <= 1e-14
    assert validate(gg).ok


def test_root_flag_drops_self_loop():
    gg = path_lineage(1, root_self_loop=False)
    assert gg.levels[0].adj.nnz == 0


def test_validate_reports_orthonormality_deviation():
    gg = path_lineage(1)
    # both pattern entries set to sqrt(2) give a column of norm 2, Gram entry 4
    bad = GradedGraph(gg.levels, gg.inter, (gg.inter[0].scale(2.0 ** 0.5),))
    diag = validate(bad)
    assert any("not orthonormal" in msg and "3.000e+00" in msg for msg in diag.issues)
    # the sparse check reports what the dense max |P^T P - I| gives; half's
    # second column is empty, so its Gram stores no (1, 1) entry
    gg = path_lineage(2)
    half = SparseMatrix.from_entries(4, 2, [(0, 0, 2 ** -0.5), (1, 0, 2 ** -0.5)])
    for p in (half, gg.prolong[1].scale(0.5), SparseMatrix(4, 2)):
        dense = float(np.max(np.abs((p.T @ p).to_dense() - np.eye(2))))
        diag = validate(GradedGraph(gg.levels, gg.inter, (gg.prolong[0], p)))
        want = f"prolongation 1->2 columns not orthonormal, max deviation {dense:.3e}"
        assert diag.issues == [want]
    # an empty coarse level has no columns to check
    empty = SparseMatrix(2, 0)
    assert validate(GradedGraph([empty_graph(0), path_graph(2)], [empty], (empty,))).ok


def nan_prolongation_lineage():
    """path_lineage(2) with a NaN in the first stored entry of its 1->2 prolongation."""
    gg = path_lineage(2)
    p = gg.prolong[1]
    vals = p.vals.copy()
    vals[0] = np.nan
    return GradedGraph(gg.levels, gg.inter, (gg.prolong[0], SparseMatrix(*p.shape, p.rows, p.cols, vals)))


def test_validate_reports_a_nan_deviation():
    diag = validate(nan_prolongation_lineage())
    assert diag.issues == ["prolongation 1->2 columns not orthonormal, max deviation nan"]


def test_validate_command_flags_a_nan_read_from_disk(tmp_path, capsys):
    from skelgraph.cli import main

    write_lineage(tmp_path, nan_prolongation_lineage())
    assert "\n1 1 nan\n" in (tmp_path / "prolong_01_02.mtx").read_text()
    assert main(["validate", str(tmp_path)]) == 2
    assert "max deviation nan" in capsys.readouterr().out


def test_validate_never_forms_a_dense_gram():
    # the dense 4096 x 4096 Gram of the top prolongation alone is 128 MB
    gg = path_lineage(13)
    tracemalloc.start()
    try:
        diag = validate(gg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.ok
    assert peak < 16 * 2 ** 20


def test_validate_reports_bad_dimensions():
    gg = path_lineage(2)
    wrong = (gg.inter[0], SparseMatrix(3, 3))
    diag = validate(GradedGraph(gg.levels, wrong))
    assert any("inter map 1->2" in msg for msg in diag.issues)


def test_validate_reports_pattern_escape():
    gg = path_lineage(1)
    p = SparseMatrix.from_entries(2, 1, [(0, 0, 1.0)])
    loose = GradedGraph(gg.levels, (SparseMatrix.from_entries(2, 1, [(1, 0, 1.0)]),), (p,))
    assert any("outside the sparsity pattern" in m for m in validate(loose).issues)


def test_assemble_flat_single_level_is_identity_case():
    gg = GradedGraph([path_graph(3)], [])
    assert assemble_flat(gg).adj == path_graph(3).adj


def test_assemble_flat_unit_lineage_is_path_with_loops():
    flat = assemble_flat(unit_lineage(2))
    expected = SparseMatrix.from_entries(
        3, 3,
        [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0),
         (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
    )
    assert flat.adj == expected


def test_assemble_flat_matches_block_assembly_oracle():
    gg = path_lineage(2)
    sizes = gg.level_sizes()
    blocks = {
        (0, 0): gg.levels[0].adj,
        (1, 1): gg.levels[1].adj,
        (2, 2): gg.levels[2].adj,
        (1, 0): gg.inter[0],
        (0, 1): gg.inter[0].T,
        (2, 1): gg.inter[1],
        (1, 2): gg.inter[1].T,
    }
    assert assemble_flat(gg).adj == block_assemble(blocks, sizes, sizes)
    assert assemble_flat(gg).n == 7


def test_truncate():
    gg = truncate(path_lineage(4), 2)
    assert gg.level_sizes() == [1, 2, 4]
    assert len(gg.inter) == 2 and len(gg.prolong) == 2


def test_growth_profile_path():
    prof = growth_profile(path_lineage(6), bound=(2.0, 0.01, 1.0))
    assert prof.base == pytest.approx(2.0)
    assert prof.ok


def test_growth_profile_flags_naive_product():
    p = path_lineage(4)
    naive = levelwise_product(p, p, "box")
    prof = growth_profile(naive, bound=(2.0, 0.01, 2.0))
    assert 4 in prof.violations  # 256 vertices versus 2 * 2**(4**1.01)


def test_levelwise_oplus_shapes():
    a = path_lineage(2)
    b = complete_lineage(2)
    s = levelwise_oplus(a, b)
    assert s.level_sizes() == [2, 4, 8]
    assert validate(s).ok


def test_generators_validate_clean():
    for gg in (path_lineage(3), complete_lineage(3), grid2d_lineage(2), unit_lineage(4)):
        diag = validate(gg)
        assert diag.ok, diag.report()


def test_lineage_round_trip(tmp_path):
    gg = grid2d_lineage(2)
    write_lineage(tmp_path / "g", gg)
    back = read_lineage(tmp_path / "g")
    assert back == gg
    # rewriting produces identical bytes
    write_lineage(tmp_path / "h", back)
    for f in sorted((tmp_path / "g").iterdir()):
        assert f.read_bytes() == (tmp_path / "h" / f.name).read_bytes()
