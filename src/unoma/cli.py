"""Command-line interface: run, preset, and validate subcommands."""

from __future__ import annotations

import argparse
import sys

from .config import PRESETS, ConfigError, load_config, preset_config
from .engine import default_output_dir, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="unoma",
                     description="Unified-NOMA HUDN Monte-Carlo experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # run's and preset's
    shared.add_argument("--output", default=None, help="output directory")
    for key, what in (("seed", "master seed"), ("workers", "worker count"),
                      ("trials", "trials per sweep point")):
        shared.add_argument(f"--{key}", type=int, default=None,
                            help=f"override {what}")

    run = sub.add_parser("run", parents=[shared],
                         help="run an experiment from a config file")
    run.add_argument("--config", required=True, help="path to a JSON config")
    pre = sub.add_parser("preset", parents=[shared],
                         help="run a built-in case-study preset")
    pre.add_argument("--name", required=True, choices=list(PRESETS))

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("--config", required=True, help="path to a JSON config")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    overrides = {key: getattr(args, key) for key in ("seed", "trials", "workers")
                 if getattr(args, key, None) is not None}
    try:
        if args.command == "preset":
            config = preset_config(args.name, overrides)
        else:
            config = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "validate":
        print(f"{args.config}: ok")
        return EXIT_OK

    output = args.output if args.output is not None else default_output_dir()
    try:
        csv_path, manifest_path, _ = run_experiment(config, output)
    except Exception as exc:  # noqa: BLE001 - report and map to exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
