"""Command-line batch driver.

    qretro <kind> --input scenario.json [--output report.json] [--quiet]
    qretro selftest [--seed N] [--output report.json] [--quiet]

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 invariant failure in selftest.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .operator_core import NumericalFailure, ValidationError
from .scenario import KINDS, load_scenario, run_scenario, serialize_report, write_report
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_SELFTEST = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qretro",
        description="Minimum mean-square retrodiction of quantum observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind!r} scenario file")
        p.add_argument("--input", required=True, help="scenario JSON file")
        _common_flags(p)
    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=0, help="seed of the random fixtures")
    _common_flags(p)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the report JSON here")
    p.add_argument("--quiet", action="store_true", help="suppress stdout report")


def _emit(report: dict, args) -> None:
    text = serialize_report(report)  # a report JSON cannot hold fails under --quiet too
    if args.output:
        write_report(report, args.output)
    if not args.quiet:
        print(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            report = run_selftest(seed=args.seed)
            _emit(report, args)
            if not args.quiet:
                for check in report["results"]["checks"]:
                    status = "pass" if check["passed"] else "FAIL"
                    worst = "not finite" if check["worst"] is None else f"{check['worst']:.3e}"
                    print(f"{status}  {check['name']}: worst {worst} "
                          f"(threshold {check['threshold']:.3e})", file=sys.stderr)
            return EXIT_OK if report["results"]["all_passed"] else EXIT_SELFTEST

        scenario = load_scenario(args.input)
        kind = scenario.get("kind") if isinstance(scenario, dict) else None
        if kind != args.command:
            raise ValidationError(
                "parse",
                f"scenario kind {kind!r} does not match subcommand {args.command!r}",
            )
        report = run_scenario(scenario)
        _emit(report, args)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
