"""Smoke test of the benchmark at tiny sizes (L=3, k=3).

    python3 -m pytest perfbench -q

Each case starts the benchmark in a fresh process, as the benchmark is meant
to be run, and checks the reported metric names and units against
BENCHMARK.json and against the workload-specific metrics of the record.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SEED = 3

SOLVERS = ("classical_mg_v", "classical_mg_w", "skeletal_recursive_v",
           "skeletal_levelwise_v", "skeletal_recursive_w")
RECORD_ONLY = {
    "product-io": {"product_s", "validate_s"},
    "oracle-check": {"product_s"},
    "solve": {f"solve_s.{a}" for a in SOLVERS} | {"us_per_work_unit.p50", "us_per_work_unit.p90"}
    | {f"cycles.{a}" for a in SOLVERS} | {f"work_units.{a}" for a in SOLVERS},
    "setup-k9": set(),
}
# a per-layer metric that must be nonzero on each workload: the tracer saw the layer
LAYER_SEEN = {
    "product-io": ("sparse.mm_write.bytes", "sparse.mm_read.bytes", "lineage.validate.self_s",
                   "graphs.graph_init.self_s", "cli.main.self_s"),
    "oracle-check": ("skeletal.oracle.kron_entries", "skeletal.oracle.keep_ratio",
                     "sparse.permute.self_s", "sparse.submatrix.self_s"),
    "solve": ("multigrid.gs.calls", "multigrid.energy.calls", "sparse.matvec.ns_per_nnz",
              *(f"multigrid.work_units.{a}" for a in SOLVERS)),
    "setup-k9": ("multigrid.build_problem.self_s", "sparse.block_assemble.self_s",
                 "multigrid.solver_init.skeletal_levelwise_v.self_s"),
}


def _run(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_run(ROOT, workload, 0))
    want = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())

    record = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace0-tiny.json").read_text())
    for name in {"failed_share", "setup_s.raw", "wall_s.raw"} | RECORD_ONLY[workload]:
        assert record["metrics"][name]["unit"], name
    assert record["metrics"]["failed_share"]["value"] == 0
    machine = record["machine"]
    for key in ("nproc", "cpu_model", "python", "numpy", "blas_threads", "git_commit",
                "seed", "sizes", "size_reason", "why"):
        assert machine[key] is not None, key
    assert set(machine["sizes"].values()) == {3}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_run(ROOT, workload, 1))
    want = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in LAYER_SEEN[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert (BENCH / "out" / f"spans-{workload}-seed{SEED}-trace1-tiny.npz").is_file()


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
