"""Command-line driver: ``dls <study> [options] --out DIR``.

Writes one CSV per study (plus optional Matrix Market dumps) into the
output directory.  Exit code 0 on completion, 1 when every requested
solver failed at some refinement (the failing level is reported), 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .studies import STUDIES, ConfigError, StudyConfig, run_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dls",
        description="Discrete least-squares FEM studies on the unit square.",
    )
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--formulation", default="ultraweak-dpg")
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument(
        "--dp",
        default="1",
        help="test enrichment; compare-fosls accepts a comma list (e.g. 1,2)",
    )
    parser.add_argument("--refinements", type=int, default=4)
    parser.add_argument("--precision", choices=("single", "double"), default="double")
    parser.add_argument("--solver", choices=("ne", "qr", "both"), default="qr")
    parser.add_argument("--no-condense", action="store_true")
    parser.add_argument("--dump-matrices", action="store_true")
    parser.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            dp_values = tuple(int(tok) for tok in str(args.dp).split(",") if tok != "")
        except ValueError:
            dp_values = ()
        if not dp_values:
            raise ConfigError("dp: a comma list of one or more integers required")
        config = StudyConfig(
            study=args.study,
            formulation=args.formulation,
            p=args.p,
            dp=dp_values[0],
            dp_list=dp_values,
            refinements=args.refinements,
            precision=args.precision,
            solvers=("ne", "qr") if args.solver == "both" else (args.solver,),
            condense=not args.no_condense,
            dump_matrices=args.dump_matrices,
            out_dir=args.out,
        )
        rows, csv_path = run_study(config)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path}")
    if args.study != "compare-fosls":
        dead = [
            row for row in rows
            if row.failed and row.err_ne is None and row.err_qr is None
        ]
        if dead:
            row = dead[0]
            print(
                f"all solvers failed at refinement n={row.n}: {row.failed}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
