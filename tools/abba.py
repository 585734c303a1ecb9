"""Compare two commits on one benchmark workload, in ABBA order.

    python tools/abba.py WORKLOAD BEFORE AFTER

exports both refs with ``git archive`` into one temporary directory, so that
both sides run from directories made the same way, and runs
``perfbench/run.py --workload WORKLOAD --seed P --seconds S`` in each for
the pairs P = 1..10.  Odd pairs run BEFORE first and even pairs AFTER
first, since the second run of a pair reads differently from the first.
S is ``run_seconds`` from this tree's ``BENCHMARK.json``.

For each end-to-end metric there it prints the medians of BEFORE and
AFTER, the quartile distance of the BEFORE runs (the quartiles of
``statistics.quantiles(values, n=4)``, as the perfbench README defines the
spread) and the pairs in which AFTER is better.  Then it prints the
medians of ``wall_s.raw`` and ``setup_s.raw``, read from each run's record
in its ``perfbench/out``: the unscaled times beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
RAW = ("wall_s.raw", "setup_s.raw")


def export(ref, into):
    """The tree of ``ref`` written to the new directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run(tree, workload, seed, seconds):
    """The metrics of one untraced run's record, by name."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds)], cwd=tree, check=True, stdout=subprocess.DEVNULL)
    record = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("workload", "before", "after"):
        parser.add_argument(name)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"before": [], "after": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in runs}
        for side in runs:
            export(getattr(args, side), trees[side])
        for pair in range(1, PAIRS + 1):
            for side in ("before", "after") if pair % 2 else ("after", "before"):
                runs[side].append(run(trees[side], args.workload, pair, bench["run_seconds"]))
                print(f"pair {pair} {side} done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.before} -> {args.after}, {PAIRS} ABBA pairs "
          f"at --seconds {bench['run_seconds']}")
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        b, a = ([r[name] for r in runs[side]] for side in ("before", "after"))
        q1, _, q3 = statistics.quantiles(b, n=4)
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, a))
        print(f"{name}: median {statistics.median(b):.6g} -> {statistics.median(a):.6g} "
              f"{metric['unit']}, before quartile distance {q3 - q1:.3g}, after better in {wins}/{PAIRS}")
    for name in RAW:
        b, a = ([r[name] for r in runs[side]] for side in ("before", "after"))
        print(f"{name}: median {statistics.median(b):.6g} -> {statistics.median(a):.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
