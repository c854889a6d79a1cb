"""Command-line harness: argument parsing, every file a command reads or
writes, and the exit codes.

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
import re
import sys

from . import harness
from .basis import _check_table_size, _shown, _size
from .diffop import truncated_derivative
from .hypercross import build_cross
from .model import WienerSpec
from .norms import cosine_grid
from .transform import (CoeffFileError, _load_json, grid_synthesize, read_coeff_file,
                        write_coeff_csv, write_csv_table, write_value_table)
from .tuning import ProblemSpec, choose_n


def _resolve_level(args) -> int:
    given = {name: value for name in ("s", "mu1", "mu2", "p", "level_constant")
             if (value := getattr(args, name)) is not None}
    if args.delta is None:
        if given:
            raise ValueError("only --delta takes --" + ", --".join(
                name.replace("_", "-") for name in given))
        return args.n
    missing = [name for name in ("mu1", "mu2", "p") if name not in given]
    if missing:
        raise ValueError("--delta needs --" + ", --".join(missing))
    problem = ProblemSpec(
        r=args.r,
        wiener=WienerSpec(s=given.get("s", 1.0), mu1=args.mu1, mu2=args.mu2),
        noise_p=args.p,
        level_constant=given.get("level_constant", 1.0),
    )
    n = choose_n(args.delta, problem)
    print(f"auto-chosen truncation level n = {n}")
    return n


def _short(message: str) -> str:
    """``message`` with each quoted span or word of over 100 characters cut
    by ``_shown``: argparse and OSError quote a command-line value whole."""
    return re.sub(r"""'[^']{99,}'|"[^"]{99,}"|\S{101,}""",
                  lambda match: _shown(match[0].strip("'\"")), message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        super().error(_short(message))


def _cmd_differentiate(args) -> int:
    n = _resolve_level(args)
    m = args.eval_grid
    if m is not None:  # the value grid is refused before the input is read
        m = _size(m, "--eval-grid", 2)
        _check_table_size(m - 1, m - 1, "value grid")
        nodes = cosine_grid(m)
    result = truncated_derivative(read_coeff_file(args.input), n, args.gamma,
                                  args.r)
    write_coeff_csv(result, args.output)
    if m is not None:
        write_value_table(f"{args.output}.values.csv", nodes, nodes,
                          grid_synthesize(result, nodes, nodes))
    print(f"wrote {result.nnz} derivative coefficients to {args.output}")
    if m is not None:
        print(f"wrote {m}x{m} point values to {args.output}.values.csv")
    return 0


def _cmd_experiment(args) -> int:
    config = harness.config_from_dict(_load_json(args.config, ValueError))
    result = harness.run_convergence(config)
    out_dir = args.output or config.output_path or "."
    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    report_path = os.path.join(out_dir, "report.json")
    header = ",".join(field.name for field in dataclasses.fields(harness.TrialRecord))
    write_csv_table(trials_path, header, "%.17g,%d,%s,%d,%.17g,%d,%.17g",
                    *zip(*map(dataclasses.astuple, result.trials)))
    with open(report_path, "w") as fh:
        json.dump({label: dataclasses.asdict(report)
                   for label, report in result.reports.items()}, fh, indent=2)
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
    cross = build_cross(args.n, args.gamma, args.r)  # a refusal prints nothing
    if args.count:
        print(len(cross))
        return 0
    print("k,j")
    for k, j in cross:
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
    parser = _Parser(
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
    p.add_argument("--s", type=float, default=None,
                   help="class aggregation index for --delta (default 1)")
    p.add_argument("--mu1", type=float, default=None,
                   help="first smoothness parameter for --delta")
    p.add_argument("--mu2", type=float, default=None,
                   help="second smoothness parameter for --delta")
    p.add_argument("--p", type=float, default=None,
                   help="noise norm index for --delta (number or 'inf')")
    p.add_argument("--level-constant", type=float, default=None,
                   help="multiplier in the level rule for --delta (default 1)")
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
    except (ValueError, OSError, MemoryError) as exc:  # a bare MemoryError has no text
        print(f"error: {_short(str(exc) or 'out of memory')}", file=sys.stderr)
        return 2 if isinstance(exc, (CoeffFileError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
