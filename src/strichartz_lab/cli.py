"""Command-line experiment runner.

One subcommand per experiment; `--config` supplies a complete key-value
config file (defaults are used only when no file is given), `--out` the
output directory, and `--seed` overrides the seed of an experiment that has
one.  Exit codes: 0 all checks pass, 1 a check failed (report still
written), 2 usage or config error (one `error:` line, no output directory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, default_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strichartz-lab",
        description="Reproducible experiments around the sharp 1D Strichartz "
                    "inequality and its Gaussian extremizers.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="key-value config file (must be complete)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default runs/<experiment>)")
        if "seed" in EXPERIMENTS[name]["defaults"]:
            p.add_argument("--seed", type=int, default=None, help="override the seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else Path("runs") / args.experiment
    try:
        if args.config is not None:
            config = ExperimentConfig.from_text(Path(args.config).read_text())
            if config.experiment != args.experiment:
                raise ConfigError(
                    f"config names experiment {config.experiment!r}, "
                    f"command line says {args.experiment!r}"
                )
        else:
            config = default_config(args.experiment)
        if getattr(args, "seed", None) is not None:
            config.entries["seed"] = str(args.seed)
        report = run(config, out_dir)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"report written to {Path(out_dir) / 'report.txt'}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
