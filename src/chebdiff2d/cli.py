"""Command-line harness.

Subcommands: ``differentiate`` (single coefficient file -> derivative
coefficients), ``experiment`` (noise-level sweep from a JSON config),
``cross`` (inspect a truncation index set), ``validate`` (run the invariant
suite).  Exit codes: 0 success, 1 invalid configuration, 2 I/O or usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness
from .hypercross import build_cross, cardinality
from .model import WienerSpec
from .transform import CoeffFileError
from .tuning import ProblemSpec, choose_n


def _resolve_level(args) -> int:
    if args.delta is None:
        return args.n
    missing = [name for name in ("mu1", "mu2", "p") if getattr(args, name) is None]
    if missing:
        raise ValueError("--delta needs --" + ", --".join(missing))
    problem = ProblemSpec(
        r=args.r,
        wiener=WienerSpec(s=args.s, mu1=args.mu1, mu2=args.mu2),
        noise_p=args.p,
        level_constant=args.level_constant,
    )
    n = choose_n(args.delta, problem)
    print(f"auto-chosen truncation level n = {n}")
    return n


def _cmd_differentiate(args) -> int:
    n = _resolve_level(args)
    result = harness.run_single(args.input, n, args.gamma, args.r,
                                args.output, eval_grid=args.eval_grid)
    print(f"wrote {result.nnz} derivative coefficients to {args.output}")
    if args.eval_grid is not None:
        print(f"wrote {args.eval_grid}x{args.eval_grid} point values to "
              f"{args.output}.values.csv")
    return 0


def _cmd_experiment(args) -> int:
    config = harness.load_config(args.config)
    result = harness.run_convergence(config)
    out_dir = args.output or config.output_path or "."
    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    report_path = os.path.join(out_dir, "report.json")
    harness.write_trials_csv(result.trials, trials_path)
    with open(report_path, "w") as fh:
        json.dump(harness.report_json_dict(result), fh, indent=2)
        fh.write("\n")

    for label, report in result.reports.items():
        print(f"metric {label}:")
        for row in report.rows:
            print(f"  delta={row.delta:<10g} n={row.n_used:<4d} "
                  f"card={row.cardinality:<6d} mean_error={row.mean_error:.6e} "
                  f"std={row.std_error:.2e}")
        lo, hi = report.slope_ci
        print(f"  fitted slope {report.fitted_slope:.4f} "
              f"(95% CI [{lo:.4f}, {hi:.4f}]), "
              f"predicted {report.theoretical_slope:.4f}")
    print(f"wrote {trials_path} and {report_path}")
    return 0


def _cmd_cross(args) -> int:
    if args.count:
        print(cardinality(args.n, args.gamma, args.r))
        return 0
    print("k,j")
    for k, j in build_cross(args.n, args.gamma, args.r):
        print(f"{k},{j}")
    return 0


def _cmd_validate(args) -> int:
    results = harness.validate_suite()
    if args.json:
        doc = [dataclasses.asdict(res) for res in results]
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(res.name) for res in results)
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {res.name:<{width}}  measured={res.measured:.6e}")
            print(f"       {res.detail}")
    failed = [res for res in results if not res.passed]
    if failed and not args.json:
        print(f"{len(failed)} of {len(results)} checks failed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebdiff2d",
        description="Stable differentiation of noisy bivariate data through "
                    "truncated Chebyshev expansions on hyperbolic crosses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("differentiate",
                       help="differentiate a coefficient file")
    p.add_argument("--input", required=True, help="coefficient CSV/JSON file")
    p.add_argument("--r", type=int, required=True, help="derivative order")
    p.add_argument("--gamma", type=float, required=True, help="cross shape")
    p.add_argument("--eval-grid", type=int, default=None,
                   help="also tabulate values on an MxM cosine grid")
    p.add_argument("--output", required=True, help="output coefficient CSV")
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--n", type=int, help="truncation level")
    level.add_argument("--delta", type=float,
                       help="noise magnitude: the level rule chooses the level")
    p.add_argument("--s", type=float, default=1.0,
                   help="class aggregation index for --delta")
    p.add_argument("--mu1", type=float, default=None,
                   help="first smoothness parameter for --delta")
    p.add_argument("--mu2", type=float, default=None,
                   help="second smoothness parameter for --delta")
    p.add_argument("--p", type=harness.parse_p, default=None,
                   help="noise norm index for --delta (number or 'inf')")
    p.add_argument("--level-constant", type=float, default=1.0,
                   help="multiplier in the level rule for --delta")
    p.set_defaults(func=_cmd_differentiate)

    p = sub.add_parser("experiment", help="run a noise-level sweep")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--output", default=None,
                   help="output directory (overrides config output_path)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("cross", help="emit a truncation index set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count", action="store_true",
                   help="print only the cardinality")
    p.set_defaults(func=_cmd_cross)

    p = sub.add_parser("validate", help="run the invariant validation suite")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CoeffFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
