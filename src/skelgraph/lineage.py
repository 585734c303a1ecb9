"""Graph lineages and graded graphs.

A :class:`GradedGraph` holds one graph per level plus the bipartite
inter-level maps linking consecutive levels: ``inter[l]`` is the 0/1
sparsity of the level-l to level-(l+1) connections, stored coarse-to-fine
with shape (|V_{l+1}|, |V_l|).  ``prolong``, when present, carries real
weights on a subset of that pattern with orthonormal columns, so the
transpose restricts and Galerkin triple products reproduce coarse
operators exactly.

Generators follow the rooted convention: level 0 is one vertex with one
self-loop (a flag drops the loop for spectral experiments), and level l
has 2**l vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import Graph, complete_graph, loop_vertex, path_graph
from .sparse import (
    SparseMatrix,
    block_assemble,
    kron,
    kron_sum,
    pattern,
    read_matrix_market,
    support_subset,
    write_matrix_market,
)

__all__ = [
    "GradedGraph",
    "LevelCodec",
    "Diagnostics",
    "assemble_flat",
    "validate",
    "truncate",
    "unit_lineage",
    "path_lineage",
    "complete_lineage",
    "grid2d_lineage",
    "levelwise_product",
    "levelwise_oplus",
    "growth_profile",
    "write_lineage",
    "read_lineage",
]

ORTHONORMAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GradedGraph:
    """Per-level graphs plus inter-level sparsity and optional prolongations."""

    levels: tuple
    inter: tuple
    prolong: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "inter", tuple(self.inter))
        if self.prolong is not None:
            object.__setattr__(self, "prolong", tuple(self.prolong))
        if len(self.inter) != max(len(self.levels) - 1, 0):
            raise ValueError("need exactly one inter-level map per consecutive level pair")
        if self.prolong is not None and len(self.prolong) != len(self.inter):
            raise ValueError("prolongations must parallel the inter-level maps")

    @property
    def num_levels(self):
        return len(self.levels)

    @property
    def top(self):
        return self.num_levels - 1

    def level_sizes(self):
        return [g.n for g in self.levels]

    def __eq__(self, other):
        if not isinstance(other, GradedGraph):
            return NotImplemented
        return (
            self.levels == other.levels
            and self.inter == other.inter
            and self.prolong == other.prolong
        )


@dataclass(frozen=True, eq=False)
class LevelCodec:
    """Vertex layout of one product level: ordered blocks of factor levels.

    ``blocks[b]`` is the tuple of factor levels of block b and ``dims[b]``
    the per-factor vertex counts; within a block, factor indices combine
    row-major (last factor fastest).  The one-factor codec of a graded
    graph (:func:`codec_of`) has one block per level, levels ascending, and
    indexes its vertices with :meth:`flat` and :meth:`unflat`.
    """

    blocks: tuple
    dims: tuple

    @property
    def sizes(self):
        return tuple(int(np.prod(d)) for d in self.dims)

    @property
    def offsets(self):
        return np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)

    @property
    def total(self):
        return int(sum(self.sizes))

    def block_index(self, lvec):
        try:
            return self.blocks.index(tuple(lvec))
        except ValueError:
            raise KeyError(f"no block {lvec} at this level") from None

    def rank(self, lvec, ivec):
        b = self.block_index(lvec)
        flat = 0
        for size, i in zip(self.dims[b], ivec):
            flat = flat * size + i
        return int(self.offsets[b]) + flat

    def unrank(self, v):
        off = self.offsets
        b = int(np.searchsorted(off, v, side="right")) - 1
        rem = v - int(off[b])
        ivec = []
        for size in reversed(self.dims[b]):
            ivec.append(rem % size)
            rem //= size
        return self.blocks[b], tuple(reversed(ivec))

    def flat(self, level, j):
        if not 0 <= j < self.sizes[level]:
            raise ValueError(f"vertex {j} out of range for level {level}")
        return self.rank((level,), (j,))

    def unflat(self, v):
        if not 0 <= v < self.total:
            raise ValueError(f"flat vertex {v} out of range")
        (level,), (j,) = self.unrank(v)
        return level, j


def codec_of(gg):
    """One-factor codec: level blocks contiguous, levels ascending."""
    sizes = gg.level_sizes()
    return LevelCodec(tuple((l,) for l in range(len(sizes))), tuple((n,) for n in sizes))


def truncate(gg, top_level):
    """Keep levels 0..top_level."""
    if not 0 <= top_level <= gg.top:
        raise ValueError(f"cannot truncate to level {top_level}")
    return GradedGraph(
        gg.levels[: top_level + 1],
        gg.inter[:top_level],
        None if gg.prolong is None else gg.prolong[:top_level],
        dict(gg.meta),
    )


def assemble_flat(gg):
    """One graph holding every level: diagonal level blocks, off-diagonal maps."""
    sizes = gg.level_sizes()
    blocks = {}
    for l, g in enumerate(gg.levels):
        blocks[(l, l)] = g.adj
    for l, s in enumerate(gg.inter):
        blocks[(l + 1, l)] = s
        blocks[(l, l + 1)] = s.transpose()
    return Graph(block_assemble(blocks, sizes, sizes))


@dataclass
class Diagnostics:
    issues: list
    level_stats: list  # (vertices, edges, nnz of inter map above the level)

    @property
    def ok(self):
        return not self.issues

    def report(self):
        lines = []
        for l, (nv, ne, ns) in enumerate(self.level_stats):
            lines.append(f"level {l}: {nv} vertices, {ne} edges, {ns} upward connections")
        lines.extend(self.issues if self.issues else ["no issues"])
        return "\n".join(lines)


def validate(gg):
    """Diagnostic pass: dimensions, patterns, and prolongation orthonormality."""
    issues = []
    sizes = gg.level_sizes()
    stats = []
    for l, g in enumerate(gg.levels):
        ns = gg.inter[l].nnz if l < len(gg.inter) else 0
        stats.append((g.n, g.edge_count(), ns))
    for l, s in enumerate(gg.inter):
        want = (sizes[l + 1], sizes[l])
        if s.shape != want:
            issues.append(
                f"inter map {l}->{l + 1} has shape {s.shape}, expected {want}"
            )
    if gg.prolong is not None:
        for l, p in enumerate(gg.prolong):
            want = (sizes[l + 1], sizes[l])
            if p.shape != want:
                issues.append(
                    f"prolongation {l}->{l + 1} has shape {p.shape}, expected {want}"
                )
                continue
            # an inter map of the wrong shape is reported above, not compared
            if gg.inter[l].shape == want and not support_subset(p, gg.inter[l]):
                issues.append(
                    f"prolongation {l}->{l + 1} has entries outside the sparsity pattern"
                )
            gram = (p.T @ p).to_dense()
            dev = float(np.max(np.abs(gram - np.eye(sizes[l]))))
            if dev > ORTHONORMAL_TOL:
                issues.append(
                    f"prolongation {l}->{l + 1} columns not orthonormal, "
                    f"max deviation {dev:.3e}"
                )
    return Diagnostics(issues, stats)


# -- generators -----------------------------------------------------------

def _pair_aggregation(n_coarse):
    """0/1 pattern pairing fine vertices {2p, 2p+1} under coarse vertex p."""
    p = np.arange(n_coarse)
    rows = np.concatenate([2 * p, 2 * p + 1])
    cols = np.concatenate([p, p])
    return SparseMatrix(2 * n_coarse, n_coarse, rows, cols, np.ones(2 * n_coarse))


def _root(root_self_loop):
    return loop_vertex() if root_self_loop else Graph(SparseMatrix(1, 1))


def unit_lineage(num_top_level):
    """Every level is a single vertex with a self-loop, levels linked one-to-one."""
    one = SparseMatrix(1, 1, [0], [0], [1.0])
    levels = [Graph(one)] * (num_top_level + 1)
    inter = [one] * num_top_level
    return GradedGraph(levels, inter, tuple(inter), {"name": "unit"})


def _pair_lineage(num_top_level, root_self_loop, level_graph, name):
    """Level l is level_graph(2**l); fine pairs aggregate to parents."""
    levels = [_root(root_self_loop)]
    inter, prolong = [], []
    for l in range(1, num_top_level + 1):
        levels.append(level_graph(2 ** l))
        s = _pair_aggregation(2 ** (l - 1))
        inter.append(s)
        prolong.append(s.scale(2.0 ** -0.5))
    return GradedGraph(levels, inter, prolong, {"name": name})


def path_lineage(num_top_level, root_self_loop=True):
    """Level l is the path on 2**l vertices; fine pairs aggregate to parents."""
    return _pair_lineage(num_top_level, root_self_loop, path_graph, "path")


def complete_lineage(num_top_level, root_self_loop=True):
    """Level l is the complete graph on 2**l vertices; fine pairs aggregate to parents."""
    return _pair_lineage(num_top_level, root_self_loop, complete_graph, "complete")


def levelwise_product(gg1, gg2, kind="box"):
    """Full per-level product: level l is G1_l * G2_l, maps are Kronecker pairs.

    This is the naive construction whose level sizes multiply; the skeletal
    products exist to avoid it.
    """
    if gg1.num_levels != gg2.num_levels:
        raise ValueError("levelwise product needs equally deep factors")
    op = kron_sum if kind == "box" else kron
    levels = [
        Graph(op(a.adj, b.adj), a.undirected) for a, b in zip(gg1.levels, gg2.levels)
    ]
    inter = [kron(s1, s2) for s1, s2 in zip(gg1.inter, gg2.inter)]
    prolong = None
    if gg1.prolong is not None and gg2.prolong is not None:
        prolong = tuple(kron(p1, p2) for p1, p2 in zip(gg1.prolong, gg2.prolong))
    return GradedGraph(levels, inter, prolong, {"name": f"levelwise-{kind}"})


def levelwise_oplus(gg1, gg2):
    """Per-level disjoint union; inter maps stay block-diagonal."""
    if gg1.num_levels != gg2.num_levels:
        raise ValueError("levelwise sum needs equally deep factors")
    levels = [
        Graph(_block_diagonal(a.adj, b.adj), a.undirected)
        for a, b in zip(gg1.levels, gg2.levels)
    ]
    inter = [_block_diagonal(s1, s2) for s1, s2 in zip(gg1.inter, gg2.inter)]
    prolong = None
    if gg1.prolong is not None and gg2.prolong is not None:
        prolong = tuple(_block_diagonal(p1, p2) for p1, p2 in zip(gg1.prolong, gg2.prolong))
    return GradedGraph(levels, inter, prolong, {"name": "levelwise-sum"})


def _block_diagonal(a, b):
    return block_assemble({(0, 0): a, (1, 1): b}, [a.nrows, b.nrows], [a.ncols, b.ncols])


def grid2d_lineage(num_top_level, root_self_loop=True):
    """Level l is the 2**l x 2**l grid: the per-level box square of a path lineage."""
    p = path_lineage(num_top_level, root_self_loop)
    gg = levelwise_product(p, p, "box")
    # the root's two self-loops stack to weight 2; keep adjacencies 0/1
    levels = [Graph(pattern(g.adj), g.undirected) for g in gg.levels]
    return GradedGraph(levels, gg.inter, gg.prolong, {"name": "grid2d"})


@dataclass
class GrowthProfile:
    vertex_counts: list
    edge_counts: list
    inter_counts: list
    base: float
    violations: list  # levels where the supplied bound fails

    @property
    def ok(self):
        return not self.violations


def growth_profile(gg, bound=None):
    """Per-level counts plus the fitted growth base max_l |V_l|**(1/l).

    ``bound`` is an optional (base, epsilon, scale) triple; levels with
    |V_l| > scale * base**(l**(1+epsilon)) are flagged.
    """
    if gg.num_levels < 2:
        raise ValueError("growth profile needs at least two levels")
    nv = [g.n for g in gg.levels]
    ne = [g.edge_count() for g in gg.levels]
    ns = [s.nnz for s in gg.inter]
    base = max(nv[l] ** (1.0 / l) for l in range(1, len(nv)))
    violations = []
    if bound is not None:
        b, eps, scale = bound
        for l, count in enumerate(nv):
            if l and count > scale * b ** (l ** (1.0 + eps)):
                violations.append(l)
    return GrowthProfile(nv, ne, ns, base, violations)


# -- lineage-on-disk ------------------------------------------------------

def write_lineage(directory, gg, name=None):
    """Write a JSON manifest plus one Matrix Market file per stored matrix."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    level_files, inter_files, prolong_files = [], [], []
    for l, g in enumerate(gg.levels):
        fname = f"level_{l:02d}.mtx"
        write_matrix_market(directory / fname, g.adj, symmetric=g.undirected)
        level_files.append(fname)
    for l, s in enumerate(gg.inter):
        fname = f"inter_{l:02d}_{l + 1:02d}.mtx"
        write_matrix_market(directory / fname, s)
        inter_files.append(fname)
    if gg.prolong is not None:
        for l, p in enumerate(gg.prolong):
            fname = f"prolong_{l:02d}_{l + 1:02d}.mtx"
            write_matrix_market(directory / fname, p)
            prolong_files.append(fname)
    manifest = {
        "name": name or gg.meta.get("name", "lineage"),
        "numLevels": gg.num_levels,
        "levelFiles": level_files,
        "interFiles": inter_files,
        "prolongFiles": prolong_files,
        "metadata": {
            k: v for k, v in gg.meta.items() if isinstance(v, (str, int, float, list, dict))
        },
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_lineage(directory):
    directory = Path(directory)
    where = directory / "manifest.json"
    with open(where) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("metadata", {}), dict):
        raise ValueError(f"{where}: the manifest and its metadata must be JSON objects")
    for key in ("levelFiles", "interFiles", "prolongFiles"):
        names = manifest.get(key)
        if not isinstance(names, list) or not all(isinstance(f, str) for f in names):
            raise ValueError(f"{where}: {key} must be a list of file names")
    if manifest["numLevels"] != len(manifest["levelFiles"]):
        raise ValueError(f"{where}: numLevels disagrees with levelFiles")
    levels = [Graph(read_matrix_market(directory / f)) for f in manifest["levelFiles"]]
    inter = [read_matrix_market(directory / f) for f in manifest["interFiles"]]
    prolong = None
    if manifest["prolongFiles"]:
        prolong = tuple(read_matrix_market(directory / f) for f in manifest["prolongFiles"])
    meta = dict(manifest.get("metadata", {}))
    meta.setdefault("name", manifest.get("name", "lineage"))
    return GradedGraph(levels, inter, prolong, meta)
