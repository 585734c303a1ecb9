"""Peak memory and time of one solver's set-up plus a few cycles.

    python tools/solver_peak.py ALG K [--cycles N] [--limit-gb G] [--src SRC]

runs ``build_problem(K, 1)``, ``make_solver(ALG, problem)`` and N cycles
from a zero guess (default 2) in a fresh child process under an
address-space limit (``RLIMIT_AS``, default 6 GB), so a request that does
not fit ends in a ``MemoryError`` inside the child, not in the OOM killer.
skelgraph is imported from SRC (default: this tree's ``src``); pass the
``src`` of a ``git clone`` of another commit to compare two commits.

Prints one JSON line: the child's peak resident set (``ru_maxrss``,
``peak_mb``), its resident set after set-up and after the cycles
(``held_mb``), the set-up time, the time of each cycle, the final residual,
and ``error`` (null, or why the child failed).  Time and memory belong to
one process doing nothing else, so run one at a time on a quiet machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _held_mb():
    with open("/proc/self/statm") as fh:
        return round(int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20, 1)


def _child(record):
    """Set-up plus cycles in this process; fills in ``record`` and prints it."""
    try:
        import numpy as np

        from skelgraph.multigrid import build_problem, make_solver

        t0 = time.perf_counter()
        problem = build_problem(record["k"], 1)
        solver = make_solver(record["algorithm"], problem)
        record["setup_s"] = round(time.perf_counter() - t0, 3)
        record["held_mb"] = [_held_mb()]
        x, record["cycle_s"] = np.zeros(problem.n ** 2), []
        for _ in range(record["cycles"]):
            t0 = time.perf_counter()
            x, _work = solver.cycle(x)
            record["cycle_s"].append(round(time.perf_counter() - t0, 3))
        record["held_mb"].append(_held_mb())
        record["residual"] = solver.residual(x)
    except MemoryError:
        record["error"] = "MemoryError under the address-space limit"
    record["peak_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algorithm")
    parser.add_argument("k", type=int)
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--limit-gb", type=float, default=6.0)
    parser.add_argument("--src", default=str(SRC))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    record = {"algorithm": args.algorithm, "k": args.k, "cycles": args.cycles,
              "limit_gb": args.limit_gb, "error": None}
    if args.child:
        sys.path.insert(0, args.src)
        _child(record)
        return 0
    limit = int(args.limit_gb * 2 ** 30)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    cmd = [sys.executable, __file__, args.algorithm, str(args.k), "--cycles", str(args.cycles),
           "--limit-gb", str(args.limit_gb), "--src", args.src, "--child"]
    run = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=cap)
    lines = run.stdout.splitlines()
    if run.returncode == 0 and lines:
        record = json.loads(lines[-1])
    else:
        last = (run.stderr.strip().splitlines() or [""])[-1]
        record["error"] = f"child exited {run.returncode}: {last}"
    print(json.dumps(record))
    return 0 if record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
