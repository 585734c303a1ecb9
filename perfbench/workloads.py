"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup``, runs one round of
operations through skelgraph's public entry points in ``round``, and checks
the outputs in ``check`` without calling skelgraph (scipy is the independent
checker).  Library calls go through module attributes so that a traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from skelgraph import cli, lineage, multigrid
from skelgraph.graphs import Graph
from skelgraph.lineage import GradedGraph
from skelgraph.sparse import SparseMatrix

TOLERANCE = 1e-6        # relative residual every solve must reach
MAX_CYCLES = 160        # a solver still above tolerance after this many cycles fails
KINDS = ("cross", "box", "strong")


@dataclasses.dataclass
class Op:
    """One timed operation; ``error`` is None when it succeeded.

    ``seconds`` is the raw wall time; ``scale`` (set after the run from the
    host-speed probe, 1 without one) turns it into the scaled time.
    """

    name: str
    seconds: float
    value: object = None
    error: str | None = None
    probe_index: int | None = None
    scale: float = 1.0

    @property
    def scaled(self):
        return self.seconds * self.scale


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fail_nonzero_exit(op):
    if op.error is None and op.value[0] != 0:
        op.error = f"exit code {op.value[0]}: {op.value[2].strip()}"


def _median_sum(rounds, prefix):
    return statistics.median(
        sum(op.scaled for op in ops if op.name.startswith(prefix)) for ops in rounds
    )


class Workload:
    name = ""
    size_name = ""          # "L" (lineage depth) or "k" (grid refinement)
    full_size = 0
    size_reason = ""
    why = ""
    # reference kernels of the host-speed probe (see calibrate.py) for the
    # set-ups and for the rounds, matched to the layer that dominates each
    setup_kernel = "interpreter"
    kernel = "interpreter"

    def __init__(self, size, seed, workdir):
        self.size = size
        self.seed = seed
        self.workdir = Path(workdir)
        self.probe = None       # a calibrate.Probe while an untraced run measures

    def timed(self, name, fn, *args):
        """Run one operation, after the probe's kernel bunch for it."""
        index = None if self.probe is None else self.probe.before(name)
        start = perf_counter()
        try:
            value, error = fn(*args), None
        except Exception:
            value, error = None, traceback.format_exc()
        seconds = perf_counter() - start
        if self.probe is not None:
            self.probe.after(name, seconds)
        return Op(name, seconds, value, error, index)

    def setup(self):
        raise NotImplementedError

    def round(self, state):
        raise NotImplementedError

    def check(self, state, ops):
        """Set ``error`` on every op whose output is wrong."""

    def summary(self, rounds):
        """Workload-specific metrics: name -> (value, unit, samples)."""
        return {}

    def solve_counts(self, ops):
        """algorithm -> (cycles, work units) of the solves in one round."""
        return {}

    def sizes(self):
        return {self.size_name: self.size}


# -- product workloads --------------------------------------------------------

def _weighted(gg, rng):
    """Seeded positive weights on the generator's sparsity pattern; undirected
    levels get one weight per unordered vertex pair, so they stay symmetric."""
    levels = []
    for g in gg.levels:
        a = g.adj
        if g.undirected:
            pair = np.minimum(a.rows, a.cols) * a.ncols + np.maximum(a.rows, a.cols)
            uniq, inverse = np.unique(pair, return_inverse=True)
            vals = rng.uniform(0.5, 2.0, uniq.size)[inverse]
        else:
            vals = rng.uniform(0.5, 2.0, a.nnz)
        levels.append(Graph(SparseMatrix(a.nrows, a.ncols, a.rows, a.cols, vals), g.undirected))
    inter = [
        SparseMatrix(s.nrows, s.ncols, s.rows, s.cols, rng.uniform(0.5, 2.0, s.nnz))
        for s in gg.inter
    ]
    return GradedGraph(levels, inter, gg.prolong, dict(gg.meta))


def _digest(directory):
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _mtx_shape(path):
    with open(path) as fh:
        for line in fh:
            if not line.startswith("%"):
                return tuple(int(t) for t in line.split()[:2])
    raise ValueError(f"{path}: no size line")


class _Products(Workload):
    size_name = "L"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        for name, make in (("path", lineage.path_lineage), ("complete", lineage.complete_lineage)):
            lineage.write_lineage(self.workdir / name, _weighted(make(self.size), rng), name=name)
        return None

    def _product(self, kind, *flags):
        argv = ["product", kind, str(self.workdir / "path"), str(self.workdir / "complete"),
                "--out", str(self.workdir / kind), *flags]
        return self.timed(f"product {kind}", _cli, argv)

    def check(self, state, ops):
        for op in ops:
            _fail_nonzero_exit(op)

    def summary(self, rounds):
        return {"product_s": (_median_sum(rounds, "product"), "s", len(rounds))}


class ProductIO(_Products):
    name = "product-io"
    full_size = 8
    size_reason = ("one round (3 products, 3 validates) takes ~2 s, so a 20 s run holds ~8 "
                   "rounds; L=9 takes ~9 s a round")
    why = ("Matrix Market write (product) and read (validate) beside skeletal assembly, "
           "no multigrid: a writer gain that costs the reader shows here")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.digests = {}

    def round(self, state):
        ops = [self._product(kind) for kind in KINDS]
        ops += [self.timed(f"validate {kind}", _cli, ["validate", str(self.workdir / kind)]) for kind in KINDS]
        return ops

    def check(self, state, ops):
        super().check(state, ops)
        for op in ops:
            if op.error is not None:
                continue
            kind = op.name.split()[1]
            if op.name.startswith("validate"):
                if op.value[1].strip().rsplit("\n", 1)[-1] != "no issues":
                    op.error = f"validate reported issues: {op.value[1][-200:]}"
                continue
            out = self.workdir / kind
            digest = _digest(out)
            if self.digests.setdefault(kind, digest) != digest:
                op.error = f"{kind} output differs from the first round's"
            manifest = json.loads((out / "manifest.json").read_text())
            # path x complete: level L pairs (l1, L - l1), each 2**l1 * 2**(L - l1) vertices
            shapes = [_mtx_shape(out / f) for f in manifest["levelFiles"]]
            want = [((lv + 1) * 2 ** lv,) * 2 for lv in range(self.size + 1)]
            if shapes != want:
                op.error = f"{kind} level shapes {shapes}, expected {want}"

    def summary(self, rounds):
        out = super().summary(rounds)
        out["validate_s"] = (_median_sum(rounds, "validate"), "s", len(rounds))
        return out


class OracleCheck(_Products):
    name = "oracle-check"
    full_size = 6
    kernel = "memory"       # canonicalization of ~7 M-entry arrays dominates
    size_reason = ("the flat route materializes ~7 M Kronecker triplets per product and the run "
                   "peaks near 530 MB; L=7 takes 11.8 s for cross alone and 2.8 GB")
    why = ("flat Kronecker oracle far beyond cache; canonicalization and kron dominate and "
           "the oracle sets peak RSS")

    def round(self, state):
        return [self._product(kind, "--oracle-check") for kind in KINDS]

    def check(self, state, ops):
        super().check(state, ops)
        for op in ops:
            if op.error is None and "oracle check passed" not in op.value[1]:
                op.error = f"oracle check did not pass: {op.value[1][-200:]}"


# -- multigrid workloads ------------------------------------------------------

def _solve(solver, unknowns):
    x = np.zeros(unknowns)
    r0 = res = solver.residual(x)
    cycle_s, cycle_work = [], []
    while res > TOLERANCE * r0 and len(cycle_s) < MAX_CYCLES:
        start = perf_counter()
        x, work = solver.cycle(x)
        cycle_s.append(perf_counter() - start)
        cycle_work.append(work)
        res = solver.residual(x)
    return {"x": x, "cycle_s": cycle_s, "cycle_work": cycle_work,
            "cycle_cost": solver.cycle_cost}


def _scipy_operator(a):
    import scipy.sparse

    return scipy.sparse.csr_matrix(
        (np.array(a.vals), (np.array(a.rows), np.array(a.cols))), shape=a.shape
    )


class Solve(Workload):
    name = "solve"
    size_name = "k"
    full_size = 6
    w_size = 4              # recursive W runs at k = min(k, 4)
    algorithms = ("classical_mg_v", "classical_mg_w", "skeletal_recursive_v",
                  "skeletal_levelwise_v", "skeletal_recursive_w")
    size_reason = ("k=6 has 3969 unknowns and the V solvers need 11-68 cycles; one k=6 "
                   "recursive-W cycle takes ~32 s, so that solver runs at k=4 (225 unknowns, "
                   "8 cycles); a round takes ~5-7 s")
    why = ("Gauss-Seidel dominates in two regimes: V solvers sweep a few large grids, the "
           "recursive W solver makes ~36 k smoother calls on tiny grids")

    def sizes(self):
        return {"k": self.size, "k_recursive_w": min(self.size, self.w_size)}

    def _problem(self, k, rng):
        # seeded 1 % perturbation of the bc=1 right-hand side: with a white-noise
        # right-hand side classical V needs 49-79 cycles at k=6 depending on the
        # seed, so the draw, not the code, would set the solve time
        problem = multigrid.build_problem(k, 1)
        noise = rng.standard_normal(problem.n ** 2) * (0.01 * np.linalg.norm(problem.b) / problem.n)
        return dataclasses.replace(problem, b=problem.b + noise)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        sizes = self.sizes()
        problems = {k: self._problem(k, rng) for k in sorted(set(sizes.values()), reverse=True)}
        pairs = {}
        for alg in self.algorithms:
            problem = problems[sizes["k_recursive_w" if alg == "skeletal_recursive_w" else "k"]]
            pairs[alg] = (problem, multigrid.make_solver(alg, problem))
        return pairs

    def round(self, state):
        return [self.timed(f"solve {alg}", _solve, solver, problem.n ** 2)
                for alg, (problem, solver) in state.items()]

    def check(self, state, ops):
        for op in ops:
            if op.error is not None:
                continue
            problem = state[op.name.split()[1]][0]
            v = op.value
            cycles = len(v["cycle_s"])
            rel = np.linalg.norm(problem.b - _scipy_operator(problem.A) @ v["x"]) / np.linalg.norm(problem.b)
            if not rel <= TOLERANCE:
                op.error = f"relative residual {rel:.3e} after {cycles} cycles"
            elif sum(v["cycle_work"]) != cycles * v["cycle_cost"]:
                op.error = f"work {sum(v['cycle_work'])} != {cycles} x {v['cycle_cost']}"

    def summary(self, rounds):
        out = {}
        per_unit = [1e6 * op.scale * s / w
                    for ops in rounds for op in ops if op.error is None
                    for s, w in zip(op.value["cycle_s"], op.value["cycle_work"])]
        for alg in self.algorithms:
            times = [op.scaled for ops in rounds for op in ops if op.name == f"solve {alg}"]
            out[f"solve_s.{alg}"] = (statistics.median(times), "s", len(times))
        if len(per_unit) >= 2:
            q = statistics.quantiles(per_unit, n=10, method="inclusive")
            out["us_per_work_unit.p50"] = (statistics.median(per_unit), "us", len(per_unit))
            out["us_per_work_unit.p90"] = (q[8], "us", len(per_unit))
        return out

    def solve_counts(self, ops):
        return {op.name.split()[1]: (len(op.value["cycle_s"]), sum(op.value["cycle_work"]))
                for op in ops if op.error is None}


class SetupK9(Workload):
    name = "setup-k9"
    size_name = "k"
    full_size = 9
    setup_kernel = kernel = "memory"    # canonicalization of ~85 M entries a pass dominates
    algorithms = ("classical_mg_v", "skeletal_recursive_v", "skeletal_levelwise_v")
    size_reason = ("261121 unknowns; set-up takes ~2-3 s and the run peaks near 540 MB; k=10 "
                   "takes 15 s and 1.5 GB")
    why = ("multigrid set-up only: Galerkin products, dense prolongation copies, k^2 kron_sum "
           "grids and levelwise block_assemble")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bc = 1 + self.seed % 2
        self.operator_checked = False

    def setup(self):
        problem = multigrid.build_problem(self.size, self.bc)
        costs = {alg: multigrid.make_solver(alg, problem).cycle_cost for alg in self.algorithms}
        return problem, costs

    def round(self, state):
        return [self.timed("run_benchmark", multigrid.run_benchmark,
                           self.size, self.bc, list(self.algorithms), 0.0)]

    def check(self, state, ops):
        import scipy.sparse

        problem, costs = state
        n = 2 ** self.size - 1
        if not self.operator_checked:
            t = scipy.sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
            if (abs(scipy.sparse.kronsum(t, t).tocsr() - _scipy_operator(problem.A)) > 0).nnz:
                ops[0].error = "build_problem operator is not the five-point Laplacian"
            self.operator_checked = True
        bad = [alg for alg, c in costs.items() if not (np.isfinite(c) and c > 0)]
        if bad:
            ops[0].error = f"solvers {bad} have no positive cycle cost"
        want = [(alg, 0, 0.0, float(np.linalg.norm(problem.b))) for alg in sorted(self.algorithms)]
        if ops[0].error is None and ops[0].value.rows != want:
            ops[0].error = f"zero-budget trace {ops[0].value.rows}, expected {want}"


WORKLOADS = {w.name: w for w in (ProductIO, OracleCheck, Solve, SetupK9)}
