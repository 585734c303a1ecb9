#!/usr/bin/env python3
"""skelgraph benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Load
model: one closed-loop client in this process, each operation starting when
the previous one returns.  With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run.  Lines before it are a readable report, and the
full record is written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3
MIN_SETUP_S = 0.5       # repeat set-up until at least this long in total
TINY_SIZE = 3           # --tiny: L=3 / k=3 for the smoke test
DEADLINE_S = 120.0      # start no new round after this long, whatever --seconds says
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")   # bounded in BENCHMARK.json


def _import_library():
    """Import skelgraph from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "skelgraph" / "__init__.py").is_file():
        sys.exit(f"error: no skelgraph sources under {src}")
    sys.path.insert(0, str(src))
    import skelgraph

    if Path(skelgraph.__file__).resolve().parent != (src / "skelgraph").resolve():
        sys.exit(f"error: skelgraph imported from {skelgraph.__file__}, not from {src}")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(args, workload):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": workload.name,
        "sizes": workload.sizes(),
        "size_reason": "smoke-test size" if args.tiny else workload.size_reason,
        "why": workload.why,
        "probe_kernels": {"setup": workload.setup_kernel, "round": workload.kernel},
    }


def _run_setups(workload):
    """Repeated set-ups; returns the last state and every set-up op."""
    ops, state = [], None
    while len(ops) < MIN_SETUPS or sum(op.seconds for op in ops) < MIN_SETUP_S:
        state = None
        op = workload.timed("setup", workload.setup)
        if op.error is not None:
            raise RuntimeError(f"set-up failed:\n{op.error}")
        state, op.value = op.value, None
        ops.append(op)
    return state, ops


def _run_rounds(workload, state, seconds, deadline):
    """Rounds of the workload's operations until ``seconds`` have passed."""
    rounds = []
    start = perf_counter()
    while not rounds or (perf_counter() - start < seconds and perf_counter() < deadline):
        ops = workload.round(state)
        workload.check(state, ops)
        rounds.append(ops)
    return rounds


def _failures(rounds):
    return [f"{op.name}: {op.error}" for ops in rounds for op in ops if op.error is not None]


def _median_total(groups, attr):
    return statistics.median(sum(getattr(op, attr) for op in ops) for ops in groups)


def measure(workload, seconds, deadline):
    """Untraced run: end-to-end metrics, as (value, unit, samples)."""
    import calibrate

    workload.probe = setup_probe = calibrate.Probe(workload.setup_kernel)
    state, setups = _run_setups(workload)
    setup_probe.finish()
    workload.probe = probe = calibrate.Probe(workload.kernel)
    rounds = _run_rounds(workload, state, seconds, deadline)
    probe.finish()
    for op in setups:
        op.scale = setup_probe.scale(op.probe_index)
    for op in (op for ops in rounds for op in ops):
        op.scale = probe.scale(op.probe_index)

    each_setup = [[op] for op in setups]
    metrics = {
        "setup_s": (_median_total(each_setup, "scaled"), "s", len(setups)),
        "wall_s": (_median_total(rounds, "scaled"), "s", len(rounds)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_s.raw": (_median_total(each_setup, "seconds"), "s", len(setups)),
        "wall_s.raw": (_median_total(rounds, "seconds"), "s", len(rounds)),
        "probe.kernel_s": (probe.mean_kernel_s(), "s", probe.passes),
        "probe.setup_kernel_s": (setup_probe.mean_kernel_s(), "s", setup_probe.passes),
    }
    metrics.update(workload.summary(rounds))
    attempted = len(setups) + sum(len(ops) for ops in rounds)
    failures = _failures(rounds)
    metrics["failed_share"] = (len(failures) / attempted, "ratio", attempted)
    for alg, (cycles, work) in workload.solve_counts(rounds[0]).items():
        metrics[f"cycles.{alg}"] = (cycles, "count", 1)
        metrics[f"work_units.{alg}"] = (work, "work_unit", 1)
    return metrics, attempted, failures


def measure_traced(workload, seconds, deadline, spans_path):
    """Traced run: untraced rounds for half the time, then traced set-up + round
    passes for the other half; per-layer metrics are per traced pass."""
    import tracing

    state = workload.setup()
    plain = _run_rounds(workload, state, seconds / 2, deadline)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    traced = []
    try:
        start = perf_counter()
        while not traced or (perf_counter() - start < seconds / 2 and perf_counter() < deadline):
            state = None
            with tracer.span("bench.setup"):
                state = workload.setup()
            with tracer.span("bench.round"):
                ops = workload.round(state)
            workload.check(state, ops)
            traced.append(ops)
    finally:
        tracing.uninstall(undo)
    tracer.save(spans_path, workload.name)

    overhead = _median_total(traced, "seconds") - _median_total(plain, "seconds")
    metrics = tracing.layer_metrics(tracer, len(traced), workload.solve_counts(traced[0]), overhead)
    attempted = 1 + len(traced) + sum(len(ops) for ops in plain + traced)
    failures = _failures(plain + traced)
    gap = tracing.self_time_gap(tracer)
    if abs(gap) > 1e-9 * max(tracer.top_level_s, 1.0):
        failures.append(f"self times miss the traced wall time by {gap:.3e} s")
    return metrics, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="L=3 / k=3 sizes for the smoke test")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ.setdefault(var, nproc)
    _import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workload = cls(TINY_SIZE if args.tiny else cls.full_size, args.seed, workdir)
    try:
        workdir.mkdir()
        if args.trace:
            metrics, attempted, failures = measure_traced(
                workload, args.seconds, deadline, OUT_DIR / f"spans-{tag}.npz")
            names = [name for name, _ in sys.modules["tracing"].LAYER_METRICS]
        else:
            metrics, attempted, failures = measure(workload, args.seconds, deadline)
            metrics = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "machine": machine_record(args, workload),
        "metrics": metrics,
        "digests": getattr(workload, "digests", {}),
        "failures": failures,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("machine " + json.dumps(record["machine"]))
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{samples}")
    for kind, digest in record["digests"].items():
        print(f"digest {kind} {digest}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    reported = {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in names}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
