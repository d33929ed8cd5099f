"""Command-line front end for the experiment runners.

Subcommands: ``spectrum``, ``convergence``, ``audits``, ``trace-snumbers``,
``entropy-lab``, ``validate-symbol``.  Every subcommand takes one or more
``--config`` files plus ``--out``, ``--jobs``, and ``--tolerance``; several
configs write to subdirectories named by their file stems, which must
differ.  Exit codes: 0 all verdicts pass, 1 a verdict failed, 2
configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .experiment import (
    ConfigError,
    StageFailure,
    config_from_dict,
    load_config,
    run_audits,
    run_convergence,
    run_entropy_lab,
    run_spectrum,
    run_trace_snumbers,
    run_validate_symbol,
)

__all__ = ["main", "build_parser"]

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_COMMANDS = (
    "spectrum",
    "convergence",
    "audits",
    "trace-snumbers",
    "entropy-lab",
    "validate-symbol",
)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspectra",
        description=(
            "Config-driven spectral experiments on self-similar fractal "
            "measures: eigenvalue decay, singular-value decay, entropy-number "
            "audits, and symbol validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "spectrum": "assemble the operator, eigensolve, fit the decay, judge it",
        "convergence": "repeat the spectrum fit across refinement levels",
        "audits": "run the configured inequality audits on the spectrum",
        "trace-snumbers": "singular-value decay of the restriction operator",
        "entropy-lab": "certified brute-force covering demos on a seeded corpus",
        "validate-symbol": "probe the configured symbol's derivative bounds",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument(
            "--config",
            dest="configs",
            action="append",
            required=True,
            metavar="PATH",
            help="experiment config (repeat to run several)",
        )
        cmd.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="output directory (default: the config's out_dir)",
        )
        cmd.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            metavar="N",
            help="run up to N configs concurrently (default 1)",
        )
        cmd.add_argument(
            "--tolerance",
            type=float,
            default=None,
            metavar="X",
            help="override the config's fit tolerance",
        )
        if name == "convergence":
            cmd.add_argument(
                "--levels",
                required=True,
                metavar="L1,L2,...",
                help="comma-separated ascending refinement levels",
            )
    return parser


def _parse_levels(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--levels must be comma-separated integers: {exc}") from exc


def _run_one(args, config_path: str, multi: bool) -> int:
    try:
        config = load_config(config_path)
        if args.tolerance is not None:
            # re-parse, so the override passes the checks a config file's value does
            raw = config.as_canonical_dict()
            raw["fit"]["tolerance"] = args.tolerance
            config = config_from_dict({**raw, "out_dir": config.out_dir})
        out = args.out or config.out_dir
        if out is not None and multi:
            out = str(Path(out) / Path(config_path).stem)

        if args.command in ("spectrum", "trace-snumbers"):
            run = run_spectrum if args.command == "spectrum" else run_trace_snumbers
            report, paths = run(config, out)
            verdict = report.verdict
            detail = (
                f"slope {report.fit.slope:.5f} vs predicted "
                f"{report.theoretical:.5f} (tolerance {report.tolerance})"
            )
        elif args.command == "convergence":
            rows, paths = run_convergence(config, _parse_levels(args.levels), out)
            verdict = "PASS"
            detail = f"{len(rows)} levels, final slope {rows[-1]['slope']:.5f}"
        elif args.command == "audits":
            bundle, paths = run_audits(config, out)
            verdict = bundle["verdict"]
            detail = ", ".join(
                f"{name}={entry['verdict']}" for name, entry in bundle["audits"].items()
            ) or "no audits configured"
        elif args.command == "entropy-lab":
            bundle, paths = run_entropy_lab(config, out)
            verdict = bundle["verdict"]
            detail = f"{len(bundle['trials'])} certified trials"
        elif args.command == "validate-symbol":
            payload, paths = run_validate_symbol(config, out)
            verdict = payload["verdict"]
            detail = f"symbol {payload['symbol']}"
        else:  # pragma: no cover - argparse restricts the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotImplementedError) as exc:
        print(f"{config_path}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (StageFailure, ArithmeticError, ValueError, RuntimeError) as exc:
        print(f"{config_path}: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR

    print(f"{config_path}: {args.command} {verdict}: {detail}")
    for label, path in paths.items():
        print(f"  {label}: {path}")
    return EXIT_PASS if verdict == "PASS" else EXIT_VERDICT_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configs = args.configs
    multi = len(configs) > 1
    seen: dict[str, str] = {}  # several configs write to subdirectories named by stem
    for path in configs:
        stem = Path(path).stem
        if stem in seen:
            print(
                f"{seen[stem]} and {path}: config error: both would write to "
                f"the output subdirectory {stem!r}",
                file=sys.stderr,
            )
            return EXIT_CONFIG_ERROR
        seen[stem] = path
    if args.jobs == 1 or not multi:
        codes = [_run_one(args, path, multi) for path in configs]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(lambda p: _run_one(args, p, multi), configs))
    return max(codes)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
