"""Graph lineages and graded graphs.

A :class:`GradedGraph` holds one graph per level plus the bipartite
inter-level maps linking consecutive levels: ``inter[l]`` is the 0/1
sparsity of the level-l to level-(l+1) connections, stored coarse-to-fine
with shape (|V_{l+1}|, |V_l|).  ``prolong``, when present, carries real
weights on a subset of that pattern with orthonormal columns, so the
transpose restricts and Galerkin triple products reproduce coarse
operators exactly.

Generators follow the rooted convention: level 0 is one vertex with one
self-loop, and level l has 2**l vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import Graph, box_product, complete_graph, disjoint_union, loop_vertex, path_graph
from .sparse import (
    BadFileError,
    SparseMatrix,
    block_assemble,
    kron,
    pattern,
    read_matrix_market,
    support_subset,
    write_matrix_market,
)

__all__ = [
    "GradedGraph",
    "Diagnostics",
    "assemble_flat",
    "shape_issues",
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
# the generators' cap on top-level entries: `gen complete --levels 12` (16,773,120)
# peaks at ~1.5 GB, and one level more needs four times that
MAX_TOP_ENTRIES = 2 ** 24
# each generator's stored entries at a top level of n = 2**depth vertices (a side)
_TOP_ENTRIES = {
    "nhat": lambda n: 1,
    "path": lambda n: 2 * (n - 1),
    "complete": lambda n: n * (n - 1),
    "grid2d": lambda n: 4 * n * (n - 1),
}


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
        return (self.levels, self.inter, self.prolong) == (other.levels, other.inter, other.prolong)


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
    blocks = {(l, l): g.adj for l, g in enumerate(gg.levels)}
    for l, s in enumerate(gg.inter):
        blocks[l + 1, l], blocks[l, l + 1] = s, s.transpose()
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


def shape_issues(gg):
    """One message per inter-level map or prolongation whose shape is not
    (|V_{l+1}|, |V_l|); ``validate`` reports them and the builders refuse them."""
    sizes = gg.level_sizes()
    return [
        f"{name} {l}->{l + 1} has shape {m.shape}, expected {(sizes[l + 1], sizes[l])}"
        for name, maps in (("inter map", gg.inter), ("prolongation", gg.prolong or ()))
        for l, m in enumerate(maps)
        if m.shape != (sizes[l + 1], sizes[l])
    ]


def validate(gg):
    """Diagnostic pass: dimensions, patterns, and prolongation orthonormality,
    read off the sparse Gram matrix P^T P without ever densifying it."""
    issues = shape_issues(gg)
    sizes = gg.level_sizes()
    stats = []
    for l, g in enumerate(gg.levels):
        ns = gg.inter[l].nnz if l < len(gg.inter) else 0
        stats.append((g.n, g.edge_count(), ns))
    for l, p in enumerate(gg.prolong or ()):
        want = (sizes[l + 1], sizes[l])
        if p.shape != want:  # reported by shape_issues
            continue
        # an inter map of the wrong shape is reported, not compared
        if gg.inter[l].shape == want and not support_subset(p, gg.inter[l]):
            issues.append(f"prolongation {l}->{l + 1} has entries outside the sparsity pattern")
        gram = p.T @ p  # a missing diagonal entry deviates from I by exactly 1
        on_diag = gram.rows == gram.cols
        dev = float(np.max(np.abs(gram.vals - on_diag), initial=0.0))
        if np.count_nonzero(on_diag) < sizes[l]:
            dev = max(dev, 1.0)
        if not dev <= ORTHONORMAL_TOL:  # a NaN deviation fails too
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


def unit_lineage(num_top_level):
    """The CLI's ``nhat``: every level one vertex with a self-loop, levels linked one-to-one."""
    _check_top(num_top_level, "nhat")
    one = loop_vertex()
    levels = [one] * (num_top_level + 1)
    inter = [one.adj] * num_top_level
    return GradedGraph(levels, inter, tuple(inter), {"name": "unit"})


def _check_top(num_top_level, name):
    """Refuse a negative depth, a lineage of CLI generator ``name`` whose top level would
    store more than MAX_TOP_ENTRIES entries, or one deeper than 24, before anything is built."""
    if num_top_level < 0:
        raise ValueError("the top level must be nonnegative")
    # every generator but nhat is past the cap by depth 24, so a deeper one needs no exact count
    if _TOP_ENTRIES[name](2 ** min(num_top_level, 64)) > MAX_TOP_ENTRIES:
        raise ValueError(f"a {name} lineage of depth {num_top_level} would store more than "
                         f"{MAX_TOP_ENTRIES:,} (2**24) entries at its top level")
    if num_top_level > 24:  # only nhat, one entry a level, gets here
        raise ValueError(f"an {name} lineage of depth {num_top_level} is deeper than 24")


def _pair_lineage(num_top_level, level_graph, name):
    """Level l is level_graph(2**l); fine pairs aggregate to parents."""
    _check_top(num_top_level, name)
    levels = [loop_vertex()]
    inter, prolong = [], []
    for l in range(1, num_top_level + 1):
        levels.append(level_graph(2 ** l))
        s = _pair_aggregation(2 ** (l - 1))
        inter.append(s)
        prolong.append(s.scale(2.0 ** -0.5))
    return GradedGraph(levels, inter, prolong, {"name": name})


def path_lineage(num_top_level):
    """Level l is the path on 2**l vertices; fine pairs aggregate to parents."""
    return _pair_lineage(num_top_level, path_graph, "path")


def complete_lineage(num_top_level):
    """Level l is the complete graph on 2**l vertices; fine pairs aggregate to parents."""
    return _pair_lineage(num_top_level, complete_graph, "complete")


def _levelwise(gg1, gg2, product, pair, name):
    """Level l is the graph ``product`` of the two level-l graphs; each pair
    of inter-level maps, and of prolongations, is joined by ``pair``."""
    if gg1.num_levels != gg2.num_levels:
        raise ValueError("levelwise products need equally deep factors")
    levels = list(map(product, gg1.levels, gg2.levels))
    inter = list(map(pair, gg1.inter, gg2.inter))
    prolong = None
    if gg1.prolong is not None and gg2.prolong is not None:
        prolong = tuple(map(pair, gg1.prolong, gg2.prolong))
    return GradedGraph(levels, inter, prolong, {"name": name})


def levelwise_product(gg1, gg2):
    """Full per-level box product: level l is G1_l box G2_l, maps are Kronecker pairs.

    This is the naive construction whose level sizes multiply; the skeletal
    products exist to avoid it.
    """
    return _levelwise(gg1, gg2, box_product, kron, "levelwise-box")


def levelwise_oplus(gg1, gg2):
    """Per-level disjoint union; inter maps stay block-diagonal."""
    return _levelwise(gg1, gg2, disjoint_union, _block_diagonal, "levelwise-sum")


def _block_diagonal(a, b):
    return block_assemble({(0, 0): a, (1, 1): b}, [a.nrows, b.nrows], [a.ncols, b.ncols])


def grid2d_lineage(num_top_level):
    """Level l is the 2**l x 2**l grid: the per-level box square of a path lineage."""
    _check_top(num_top_level, "grid2d")
    p = path_lineage(num_top_level)
    gg = levelwise_product(p, p)
    # the root's two self-loops stack to weight 2; keep adjacencies 0/1
    levels = [Graph(pattern(g.adj)) for g in gg.levels]
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

# (manifest key, file name of matrix l, symmetric): levels, inter maps, prolongations;
# a symmetric file holds a level's adjacency, read back as its Graph
_FILES = (
    ("levelFiles", "level_{:02d}.mtx", True),
    ("interFiles", "inter_{:02d}_{:02d}.mtx", False),
    ("prolongFiles", "prolong_{:02d}_{:02d}.mtx", False),
)


def write_lineage(directory, gg, name=None):
    """Write a JSON manifest plus one Matrix Market file per stored matrix."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": name or gg.meta.get("name", "lineage"),
        "numLevels": gg.num_levels,
        "metadata": {
            k: v for k, v in gg.meta.items() if isinstance(v, (str, int, float, list, dict))
        },
    }
    matrices = ([g.adj for g in gg.levels], gg.inter, gg.prolong or ())
    for (key, pattern, symmetric), mats in zip(_FILES, matrices):
        manifest[key] = [pattern.format(l, l + 1) for l in range(len(mats))]
        for fname, m in zip(manifest[key], mats):
            write_matrix_market(directory / fname, m, symmetric=symmetric)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_lineage(directory):
    directory = Path(directory)
    where = directory / "manifest.json"
    with open(where) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise BadFileError(f"{where}: not valid JSON ({exc})") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("metadata", {}), dict):
        raise BadFileError(f"{where}: the manifest and its metadata must be JSON objects")
    for key, _, _ in _FILES:
        names = manifest.get(key)
        if not isinstance(names, list) or not all(
                isinstance(f, str) and f not in ("", "..") and Path(f).name == f for f in names):
            raise BadFileError(f"{where}: {key} must be a list of file names in its directory")
    if manifest.get("numLevels") != len(manifest["levelFiles"]):
        raise BadFileError(f"{where}: numLevels is missing or disagrees with levelFiles")
    if len(manifest["interFiles"]) != max(len(manifest["levelFiles"]) - 1, 0):
        raise BadFileError(f"{where}: interFiles must name one map per consecutive level pair")
    if manifest["prolongFiles"] and len(manifest["prolongFiles"]) != len(manifest["interFiles"]):
        raise BadFileError(f"{where}: prolongFiles must be empty or parallel interFiles")
    meta = dict(manifest.get("metadata", {}))
    meta.setdefault("name", manifest.get("name", "lineage"))
    if not isinstance(meta["name"], str):
        raise BadFileError(f"{where}: the lineage name must be a string")
    read = []  # the levels, inter maps and prolongations, file by file in manifest order
    for key, _, symmetric in _FILES:
        read.append([])
        for f in manifest[key]:
            m = read_matrix_market(directory / f)
            try:
                if max(m.shape) > MAX_TOP_ENTRIES:  # more vertices than any builder keeps
                    raise ValueError(f"shape {m.shape} exceeds {MAX_TOP_ENTRIES:,} (2**24) vertices")
                read[-1].append(Graph(m) if symmetric else m)
            except ValueError as exc:  # name the file, as the reader's own errors do
                raise BadFileError(f"{directory / f}: {exc}") from None
    levels, inter, prolong = read
    return GradedGraph(levels, inter, prolong or None, meta)
