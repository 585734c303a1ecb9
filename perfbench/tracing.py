"""Traced runs: spans around every call into the skelgraph modules.

Modules import each other's functions by name (``from .sparse import kron``),
so a wrapper is installed in every namespace that binds the original
function, in module-level dicts that hold it, and on the classes whose
methods are traced.  Spans nest by the call stack; a span's self time is its
duration minus the time covered by its child spans.  Counter hooks run
outside the span they describe and their time is booked to ``trace.hooks``,
so root self time + every layer's self time + hook time equals the summed
duration of the root spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

from skelgraph import cli, graphs, lineage, multigrid, skeletal, sparse

LAYER_MODULES = (sparse, graphs, lineage, skeletal, multigrid, cli)

# public functions whose span name differs from "<module>.<function>"; a
# callable names the span from the call's arguments
_RENAMED = {
    "write_matrix_market": "sparse.mm_write",
    "read_matrix_market": "sparse.mm_read",
    "write_lineage": "lineage.write",
    "read_lineage": "lineage.read",
    "product_via_flat_assembly": "skeletal.oracle",
    "skeletal_cross": "skeletal.product",
    "skeletal_box": "skeletal.product",
    "skeletal_strong": "skeletal.product",
    "skeletal_cross_nway": "skeletal.product",
    "skeletal_dilated": "skeletal.product",
    "gauss_seidel": "multigrid.gs",
    "make_solver": lambda args: f"multigrid.solver_init.{args[0]}",
}

ALGORITHMS = (
    "classical_mg_v",
    "classical_mg_w",
    "skeletal_recursive_v",
    "skeletal_levelwise_v",
    "skeletal_recursive_w",
)

# (metric, unit) reported by every traced run, in output order
LAYER_METRICS = [
    ("sparse.canon.self_s", "s"),
    ("sparse.canon.calls", "count"),
    ("sparse.canon.entries_in", "count"),
    ("sparse.canon.presorted_share", "ratio"),
    ("sparse.kron.self_s", "s"),
    ("sparse.kron.entries_out", "count"),
    ("skeletal.oracle.self_s", "s"),
    ("skeletal.oracle.kron_entries", "count"),
    ("skeletal.oracle.keep_ratio", "ratio"),
    ("sparse.block_assemble.self_s", "s"),
    ("sparse.matmul.self_s", "s"),
    ("sparse.permute.self_s", "s"),
    ("sparse.submatrix.self_s", "s"),
    ("sparse.support_union.self_s", "s"),
    ("sparse.mm_write.self_s", "s"),
    ("sparse.mm_write.ns_per_nnz", "ns/nnz"),
    ("sparse.mm_write.bytes", "B"),
    ("sparse.mm_read.self_s", "s"),
    ("sparse.mm_read.ns_per_nnz", "ns/nnz"),
    ("sparse.mm_read.bytes", "B"),
    ("lineage.write.self_s", "s"),
    ("lineage.read.self_s", "s"),
    ("graphs.graph_init.self_s", "s"),
    ("lineage.validate.self_s", "s"),
    ("lineage.assemble_flat.self_s", "s"),
    ("skeletal.product.self_s", "s"),
    ("multigrid.gs.self_s", "s"),
    ("multigrid.gs.calls", "count"),
    ("multigrid.gs.rows_per_call", "rows/call"),
    ("multigrid.gs.ns_per_nnz", "ns/nnz"),
    ("sparse.matvec.self_s", "s"),
    ("sparse.matvec.ns_per_nnz", "ns/nnz"),
    ("multigrid.energy.self_s", "s"),
    ("multigrid.energy.calls", "count"),
    ("multigrid.cycle.self_s", "s"),
    ("multigrid.build_problem.self_s", "s"),
    *[(f"multigrid.solver_init.{a}.self_s", "s") for a in ALGORITHMS],
    *[(f"multigrid.work_units.{a}", "work_unit") for a in ALGORITHMS],
    *[(f"multigrid.cycles.{a}", "count") for a in ALGORITHMS],
    ("cli.main.self_s", "s"),
    ("other.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.hooks_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """In-memory span recorder; spans are (label, start, end, parent)."""

    def __init__(self):
        self.label_ids = {}
        self.span_label = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack = []
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.hooks_s = 0.0
        self.top_level_s = 0.0

    def open(self, label):
        lid = self.label_ids.setdefault(label, len(self.label_ids))
        idx = len(self.span_start)
        self.span_label.append(lid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        now = perf_counter()
        self.span_start.append(now)
        frame = [idx, now, 0.0, label]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        now = perf_counter()
        self.stack.pop()
        idx, start, child, label = frame
        duration = now - start
        self.span_end[idx] = now
        self.self_s[label] += duration - child
        self.calls[label] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.top_level_s += duration

    @contextlib.contextmanager
    def span(self, label):
        frame = self.open(label)
        try:
            yield
        finally:
            self.close(frame)

    def hook(self, fn, *args):
        start = perf_counter()
        fn(self.counts, *args)
        if self.stack:
            spent = perf_counter() - start
            self.hooks_s += spent
            self.stack[-1][2] += spent

    def wrap(self, fn, label, pre=None, post=None):
        open_, close, hook = self.open, self.close, self.hook
        dynamic = callable(label)

        def traced(*args, **kwargs):
            if pre is not None:
                hook(pre, args, kwargs)
            frame = open_(label(args) if dynamic else label)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if post is not None:
                hook(post, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def save(self, path, workload):
        names = sorted(self.label_ids, key=self.label_ids.get)
        np.savez(
            path,
            workload=np.array(workload),
            labels=np.array(names),
            label=np.frombuffer(self.span_label, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )


# -- counter hooks: measured at the boundary of the call they describe ------

def _canon_pre(counts, args, kwargs):
    named = dict(zip(("self", "nrows", "ncols", "rows", "cols", "vals"), args), **kwargs)
    rows = np.asarray(named.get("rows", ()), dtype=np.int64).ravel()
    cols = np.asarray(named.get("cols", ()), dtype=np.int64).ravel()
    vals = np.asarray(named.get("vals", ()), dtype=np.float64).ravel()
    counts["sparse.canon.entries_in"] += rows.size
    if rows.size == cols.size == vals.size:
        keys = rows * max(int(named["ncols"]), 1) + cols
        if np.all(keys[1:] > keys[:-1]) and np.all(vals != 0.0):
            counts["sparse.canon.presorted"] += 1


def _kron_pre(counts, args, kwargs):
    a, b = args[:2]
    counts["sparse.kron.entries_out"] += a.nnz * b.nnz


def _mm_write_pre(counts, args, kwargs):
    counts["sparse.mm_write.nnz"] += args[1].nnz


def _mm_write_post(counts, args, kwargs, result):
    counts["sparse.mm_write.bytes"] += os.path.getsize(args[0])


def _mm_read_pre(counts, args, kwargs):
    counts["sparse.mm_read.bytes"] += os.path.getsize(args[0])


def _mm_read_post(counts, args, kwargs, result):
    counts["sparse.mm_read.nnz"] += result.nnz


def _gs_pre(counts, args, kwargs):
    a = args[0]
    sweeps = args[3] if len(args) > 3 else kwargs.get("sweeps", 1)
    counts["multigrid.gs.rows"] += a.nrows
    counts["multigrid.gs.nnz"] += sweeps * a.nnz


def _matvec_pre(counts, args, kwargs):
    counts["sparse.matvec.nnz"] += args[0].nnz


def _oracle_pre(counts, args, kwargs):
    counts["skeletal.oracle.kron_mark"] = counts["sparse.kron.entries_out"]


def _oracle_post(counts, args, kwargs, result):
    counts["skeletal.oracle.kron_entries"] += (
        counts["sparse.kron.entries_out"] - counts["skeletal.oracle.kron_mark"]
    )
    counts["skeletal.oracle.kept"] += sum(g.adj.nnz for g in result.levels) + sum(
        s.nnz for s in result.inter
    )


_HOOKS = {
    "sparse.canon": (_canon_pre, None),
    "sparse.kron": (_kron_pre, None),
    "sparse.mm_write": (_mm_write_pre, _mm_write_post),
    "sparse.mm_read": (_mm_read_pre, _mm_read_post),
    "multigrid.gs": (_gs_pre, None),
    "sparse.matvec": (_matvec_pre, None),
    "skeletal.oracle": (_oracle_pre, _oracle_post),
}


# -- installing and removing the wrappers ------------------------------------

def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _traced_functions():
    """(original, label) for every public function of the layer modules."""
    out = []
    for module in LAYER_MODULES:
        for name in getattr(module, "__all__", ["main"]):  # cli exports only main
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out.append((fn, _RENAMED.get(name, f"{_short(module)}.{name}")))
    energy = getattr(multigrid, "_energy_optimal_combination", None)
    if energy is not None:
        out.append((energy, "multigrid.energy"))
    return out


def _traced_methods():
    """(class, attribute, label) for the methods traced on their class."""
    out = [
        (sparse.SparseMatrix, "__init__", "sparse.canon"),
        (sparse.SparseMatrix, "matvec", "sparse.matvec"),
        (sparse.SparseMatrix, "matmul", "sparse.matmul"),
        (graphs.Graph, "__post_init__", "graphs.graph_init"),
    ]
    for cls in vars(multigrid).values():
        if inspect.isclass(cls) and cls.__module__ == multigrid.__name__:
            for attr in ("cycle", "residual"):
                if attr in cls.__dict__:
                    out.append((cls, attr, f"multigrid.{attr}"))
    return out


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def install(tracer):
    """Wrap every traced callable at each site that binds it; returns the undo list."""
    wrappers = {}
    for fn, label in _traced_functions():
        wrappers[id(fn)] = (fn, tracer.wrap(fn, label, *_HOOKS.get(label, (None, None))))
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "skelgraph" or name.startswith("skelgraph.")):
            sites += [(module, attr, v) for attr, v in vars(module).items() if not attr.startswith("__")]
    sites += [(d, key, v) for _, _, d in list(sites) if isinstance(d, dict) for key, v in d.items()]
    undo = []
    for owner, key, value in sites:
        wrapped = wrappers.get(id(value))
        if wrapped is not None and wrapped[0] is value:
            undo.append((owner, key, value))
            _set(owner, key, wrapped[1])
    for cls, attr, label in _traced_methods():
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, label, *_HOOKS.get(label, (None, None))))
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        _set(owner, key, original)


# -- per-layer metrics -------------------------------------------------------

def layer_metrics(tracer, passes, solve_counts, overhead_s):
    """Per-pass layer numbers; ratios are taken over totals."""
    listed = {m[: -len(".self_s")] for m, _ in LAYER_METRICS if m.endswith(".self_s")}
    s, n, c = tracer.self_s, tracer.calls, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    bench_self = sum(v for k, v in s.items() if k.startswith("bench."))
    other = sum(v for k, v in s.items() if k not in listed and not k.startswith("bench."))
    values = {f"{k}.self_s": s.get(k, 0.0) / passes for k in listed}
    values.update({
        "sparse.canon.calls": n["sparse.canon"] / passes,
        "sparse.canon.entries_in": c["sparse.canon.entries_in"] / passes,
        "sparse.canon.presorted_share": ratio(c["sparse.canon.presorted"], n["sparse.canon"]),
        "sparse.kron.entries_out": c["sparse.kron.entries_out"] / passes,
        "skeletal.oracle.kron_entries": c["skeletal.oracle.kron_entries"] / passes,
        "skeletal.oracle.keep_ratio": ratio(c["skeletal.oracle.kept"], c["skeletal.oracle.kron_entries"]),
        "sparse.mm_write.ns_per_nnz": ratio(1e9 * s["sparse.mm_write"], c["sparse.mm_write.nnz"]),
        "sparse.mm_write.bytes": c["sparse.mm_write.bytes"] / passes,
        "sparse.mm_read.ns_per_nnz": ratio(1e9 * s["sparse.mm_read"], c["sparse.mm_read.nnz"]),
        "sparse.mm_read.bytes": c["sparse.mm_read.bytes"] / passes,
        "multigrid.gs.calls": n["multigrid.gs"] / passes,
        "multigrid.gs.rows_per_call": ratio(c["multigrid.gs.rows"], n["multigrid.gs"]),
        "multigrid.gs.ns_per_nnz": ratio(1e9 * s["multigrid.gs"], c["multigrid.gs.nnz"]),
        "sparse.matvec.ns_per_nnz": ratio(1e9 * s["sparse.matvec"], c["sparse.matvec.nnz"]),
        "multigrid.energy.calls": n["multigrid.energy"] / passes,
        "other.self_s": other / passes,
        "bench.self_s": bench_self / passes,
        "trace.hooks_s": tracer.hooks_s / passes,
        "trace.pass_s": tracer.top_level_s / passes,
        "trace.spans": len(tracer.span_start) / passes,
        "trace.overhead_s": overhead_s,
    })
    for alg in ALGORITHMS:
        cycles, work = solve_counts.get(alg, (0, 0.0))
        values[f"multigrid.work_units.{alg}"] = float(work)
        values[f"multigrid.cycles.{alg}"] = float(cycles)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def self_time_gap(tracer):
    """Root spans' duration minus (every self time + hook time); zero up to rounding."""
    return tracer.top_level_s - (sum(tracer.self_s.values()) + tracer.hooks_s)
