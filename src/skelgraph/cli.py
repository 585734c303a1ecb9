"""Command-line frontend.

Subcommands: gen, product, thicken, validate, export, cnn-structure, bench.
Exit codes: 0 on success, 1 on usage errors (bad arguments, missing
paths), 2 on validation or oracle failures and malformed input files.
Lineages live on disk as a directory holding manifest.json plus one Matrix
Market file per matrix.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from . import lineage as lin
from . import skeletal as skel
from .graphs import to_dot, to_edge_list
from .multigrid import run_benchmark
from .sparse import BadFileError, write_matrix_market

USAGE_ERROR = 1
CHECK_ERROR = 2

GENERATORS = {
    "path": lin.path_lineage,
    "complete": lin.complete_lineage,
    "grid2d": lin.grid2d_lineage,
    "nhat": lin.unit_lineage,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def _build_parser():
    parser = _Parser(prog="skelgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a structured lineage")
    p.add_argument("generator", choices=sorted(GENERATORS))
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("product", help="skeletal product of lineages on disk")
    p.add_argument(
        "kind",
        choices=["box", "cross", "strong", "nway-hat", "nway-tilde", "dilated"],
    )
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--levels", type=int, default=None, help="output depth")
    p.add_argument("--rho", type=float, nargs=2, default=(1.0, 1.0))
    # read "-1e-3" and "-inf" as rates, not options, so skeletal_dilated checks them
    p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    p.add_argument("--dilated-kind", choices=["box", "cross"], default="box")
    p.add_argument("--weights", choices=["pattern", "prolong"], default="pattern")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="rebuild via flat Kronecker assembly and fail on any mismatch",
    )

    p = sub.add_parser("thicken", help="thicken a lineage on disk")
    p.add_argument("input")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check a lineage directory")
    p.add_argument("input")

    p = sub.add_parser("export", help="export one level of a lineage")
    p.add_argument("input")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["mtx", "dot", "edges"], default="mtx")
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "cnn-structure",
        help="grid x feature-hierarchy architecture (strong skeletal product)",
    )
    p.add_argument("--grid-levels", type=int, required=True)
    p.add_argument("--feature-levels", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="work-versus-residual solver benchmark")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bc", type=int, choices=[1, 2], required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument(
        "--algorithms",
        nargs="+",
        default=["gauss_seidel", "classical_mg_v", "skeletal_recursive_v"],
    )
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen(args):
    if args.levels < 0:
        raise ValueError("--levels must be nonnegative")
    gg = GENERATORS[args.generator](args.levels)
    lin.write_lineage(args.out, gg, name=args.generator)
    print(f"wrote {args.generator} lineage with {gg.num_levels} levels to {args.out}")
    return 0


def _read_to_build(path):
    """A lineage to build on: a map of the wrong shape makes it a bad file."""
    gg = lin.read_lineage(path)
    issues = lin.shape_issues(gg)
    if issues:
        raise BadFileError(f"{path}: {issues[0]}")
    return gg


def _cmd_product(args):
    inputs = [_read_to_build(path) for path in args.inputs]
    binary = {
        "box": skel.skeletal_box,
        "cross": skel.skeletal_cross,
        "strong": skel.skeletal_strong,
    }
    if args.oracle_check and (args.kind not in binary or args.weights != "pattern"):
        raise ValueError("--oracle-check needs a pattern-weighted box/cross/strong product")
    if args.weights != "pattern" and args.kind not in ("box", "cross"):
        raise ValueError("--weights prolong needs a box or cross product")
    if args.kind in binary:
        if len(inputs) != 2:
            raise ValueError("binary products take exactly two inputs")
        if args.kind == "strong":
            gg = skel.skeletal_strong(inputs[0], inputs[1], args.levels)
        else:
            gg = binary[args.kind](inputs[0], inputs[1], args.levels, args.weights)
        if args.oracle_check:
            check = skel.product_via_flat_assembly(inputs[0], inputs[1], args.kind, gg.top)
            if gg != check:
                print("oracle check failed: constructions disagree", file=sys.stderr)
                return CHECK_ERROR
            print("oracle check passed")
    elif args.kind in ("nway-hat", "nway-tilde"):
        mode = args.kind.split("-")[1]
        gg = skel.skeletal_cross_nway(inputs, mode, args.levels)
    else:
        if len(inputs) != 2:
            raise ValueError("dilated products take exactly two inputs")
        gg = skel.skeletal_dilated(
            inputs[0], inputs[1], args.rho[0], args.rho[1],
            kind=args.dilated_kind, max_level=args.levels,
        )
    lin.write_lineage(args.out, gg)
    print(f"wrote {gg.meta.get('name')} with {gg.num_levels} levels to {args.out}")
    return 0


def _cmd_thicken(args):
    gg = skel.thicken(_read_to_build(args.input))
    lin.write_lineage(args.out, gg)
    sizes = ",".join(str(n) for n in gg.level_sizes())
    print(f"wrote thickened lineage (level sizes {sizes}) to {args.out}")
    return 0


def _cmd_validate(args):
    diag = lin.validate(lin.read_lineage(args.input))
    print(diag.report())
    return 0 if diag.ok else CHECK_ERROR


def _cmd_export(args):
    gg = lin.read_lineage(args.input)
    if not 0 <= args.level < gg.num_levels:
        raise ValueError(f"level {args.level} out of range")
    g = gg.levels[args.level]
    out = Path(args.out)
    if args.format == "mtx":
        write_matrix_market(out, g.adj, symmetric=True)
    elif args.format == "dot":
        out.write_text(to_dot(g, f"level_{args.level}"))
    else:
        out.write_text(to_edge_list(g))
    print(f"wrote level {args.level} as {args.format} to {out}")
    return 0


def _cmd_cnn_structure(args):
    if args.grid_levels < 0 or args.feature_levels < 0:
        raise ValueError("level counts must be nonnegative")
    # grid2d_lineage checks its own depth before building; check the features' first
    lin._check_top(args.feature_levels, "complete")
    grid = lin.grid2d_lineage(args.grid_levels)
    features = lin.complete_lineage(args.feature_levels)
    depth = min(args.grid_levels, args.feature_levels)
    gg = skel.skeletal_strong(grid, features, depth)
    lin.write_lineage(args.out, gg, name="cnn-structure")
    top = gg.levels[gg.top]
    (Path(args.out) / "top_level.dot").write_text(to_dot(top, "architecture"))
    sizes = ",".join(str(n) for n in gg.level_sizes())
    print(f"wrote architecture with level sizes {sizes} to {args.out}")
    return 0


def _cmd_bench(args):
    trace = run_benchmark(args.k, args.bc, args.algorithms, args.budget)
    Path(args.out).write_text(trace.to_csv())
    print(f"wrote {len(trace.rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "product": _cmd_product,
    "thicken": _cmd_thicken,
    "validate": _cmd_validate,
    "export": _cmd_export,
    "cnn-structure": _cmd_cnn_structure,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if argv is None:
            raise
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_ERROR if isinstance(exc, BadFileError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
