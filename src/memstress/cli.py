"""Command-line entry point.

    memstress run --config exp.cfg [--experiment NAME] [--out DIR] [--seed K] [--svg]
    memstress list

Flag precedence: command-line flags override config-file values, which
override the experiment defaults.  Exit codes: 0 all checks passed, 1 config
error, 2 invariant violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, load_config_file, run
from .spectral import NumericalError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memstress", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one named experiment")
    p_run.add_argument("--config", help="key = value config file")
    p_run.add_argument("--experiment", help="experiment name (overrides config)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, help="random seed (overrides config)")
    p_run.add_argument("--svg", action="store_true", help="also emit SVG plots")
    sub.add_parser("list", help="print experiment names and parameter schema")
    return parser


_KEY_HELP = {
    "experiment": "one of the names above",
    "N_range": "comma list ('3,4') or doubling span ('16..256')",
    "delta": "perturbation strength, in (0, 0.5]",
    "t_factor": "transfer time in units of pi/min_gap, >= 10",
    "threshold": "transfer fidelity threshold, in (0, 1]",
    "output_dir": "where CSV/JSON/SVG artifacts go",
    "seed": "nonnegative integer",
    "svg": "true/false",
}


def _default_text(value) -> str:
    """A default as a config file would spell it."""
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:g}" if isinstance(value, float) else str(value)


def _cmd_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        rule = (f"exactly one N from {list(spec.allowed_N)}" if spec.allowed_N
                else f"N >= {spec.min_N}")
        print(f"  {name:18s} N_range default {list(spec.default_N)}, {rule}")
        print(f"  {'':18s} {spec.summary}")
    print()
    print("config keys (key = value lines, # comments):")
    for f in dataclasses.fields(ExperimentConfig):
        default = "" if f.default is dataclasses.MISSING else f"   [{_default_text(f.default)}]"
        print(f"  {f.name:12s} {_KEY_HELP[f.name]}{default}")
    return 0


def _cmd_run(args) -> int:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    if args.experiment:
        values["experiment"] = args.experiment
    if args.out:
        values["output_dir"] = args.out
    if args.seed is not None:
        values["seed"] = args.seed
    if args.svg:
        values["svg"] = True
    if "experiment" not in values:
        raise ConfigError("experiment: missing (set it in the config file or via --experiment)")
    return run(ExperimentConfig(**values))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
