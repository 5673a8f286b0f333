"""Command-line entry points: run scenarios, verify the numerics, export.

Exit codes: 0 success, 1 verification-check failure, 2 invalid config or
record, 3 I/O failure.  Data travels through files only; stdout carries
status and check lines, never results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenario import (
    ConfigInvalid,
    config_from_json,
    export_record,
    read_record,
    run_scenario,
)
from .verify import verify_all

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_bytes()
    except OSError as error:
        return _fail(f"cannot read config: {error}", EXIT_IO_ERROR)
    try:
        config = config_from_json(text)
    except ConfigInvalid as error:
        return _fail(f"invalid config: {error}", EXIT_CONFIG_ERROR)
    if args.seed < 0:
        return _fail("--seed must be non-negative", EXIT_CONFIG_ERROR)
    if args.gamma is not None:
        try:
            config = config.with_gamma(args.gamma)
        except ValueError as error:
            return _fail(f"--gamma: {error}", EXIT_CONFIG_ERROR)

    record = run_scenario(config, seed=args.seed)

    out_path = (
        Path(args.out)
        if args.out is not None
        else config_path.with_name(config_path.stem + ".record.json")
    )
    try:
        export_record(record, "json", str(out_path))
    except OSError as error:
        return _fail(f"cannot write record: {error}", EXIT_IO_ERROR)
    for kind, block in record.results.items():
        if isinstance(block, dict) and "warning" in block:
            print(f"warning: output {kind!r} degenerate -- see record annotation")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        return _fail("--seed must be non-negative", EXIT_CONFIG_ERROR)
    report = verify_all(seed=args.seed, corrupt_propagator=args.negative_control)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def _cmd_export(args: argparse.Namespace) -> int:
    try:
        record = read_record(args.record)
    except OSError as error:
        return _fail(f"cannot read record: {error}", EXIT_IO_ERROR)
    except ConfigInvalid as error:
        return _fail(f"invalid record: {error}", EXIT_CONFIG_ERROR)
    # ValueError also covers undecodable text and an overlong integer, and
    # RecursionError over-deep nesting.
    except (ValueError, RecursionError) as error:
        return _fail(f"record is not valid JSON: {error}", EXIT_CONFIG_ERROR)
    try:
        export_record(record, args.format, args.out)
    except OSError as error:
        return _fail(f"cannot write export: {error}", EXIT_IO_ERROR)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-torus",
        description="Exact two-spin Heisenberg evolution, torus geometry, "
        "and concurrence, with built-in verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config and write its record")
    run.add_argument("config", help="path to a scenario JSON config")
    run.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="override the metric length scale from the config",
    )
    run.add_argument("--seed", type=int, default=0, help="recorded; changes no result")
    run.add_argument(
        "--out",
        default=None,
        help="record output path (default: <config stem>.record.json)",
    )
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="run the numeric verification battery")
    verify.add_argument("--seed", type=int, default=0, help="seed for random draws")
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="deliberately corrupt one propagator entry; verification must fail",
    )
    verify.set_defaults(func=_cmd_verify)

    export = sub.add_parser("export", help="convert a record to CSV or JSON")
    export.add_argument("record", help="path to a record JSON file")
    export.add_argument("--format", choices=("csv", "json"), required=True)
    export.add_argument("--out", required=True, help="output file path")
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
