"""Command-line front end.

Subcommands ``deconv2d``, ``adaptive`` and ``synthetic`` each accept
``--config PATH`` (a ``key = value`` file, ``#`` comments) plus flag
overrides.  On success the summary is printed as one JSON line; on
failure one machine-readable JSON error line goes to stderr and the exit
code is 2 (configuration) or 3 (divergence).
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

from .engine import DivergenceError
from .experiments import (
    ALGORITHMS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    resolve_config,
    run_experiment,
)

# config key -> value type, the non-None member of an optional field
_FIELD_TYPES = {
    name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    return _FIELD_TYPES[key](raw)


def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` config file into typed values."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in text.split("=", 1))
                try:
                    values[key] = _coerce(key, raw)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmls",
        description="Online penalized least-squares experiments "
                    "(majorize-minimize subspace solver and baselines).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--vartheta", type=float, help="forgetting factor in (0, 1]")
        p.add_argument("--strategy", choices=ALGORITHMS)
        p.add_argument("--blocksize", type=int, dest="block_size")
        p.add_argument("--penalty", help="penalty kind for identity-operator runs")
        p.add_argument("--lambda", type=float, dest="lam", help="penalty weight")
        p.add_argument("--delta", type=float, help="penalty scale")
        p.add_argument("--kappa", type=float)
        p.add_argument("--tau", type=float, help="ridge weight of the quadratic part")
        p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
        p.add_argument("--image-size", type=int, dest="image_size")
        p.add_argument("--kernel-size", type=int, dest="kernel_size")
        p.add_argument("--n-dim", type=int, dest="n_dim")
        p.add_argument("--samples", type=int, dest="n_samples")
        p.add_argument("--operator", choices=("tv2d", "identity", "none"))
        p.add_argument("--sgd-scale", type=float, dest="sgd_scale")
        p.add_argument("--out", help="CSV trace path (JSON sidecar written next to it)")
        p.add_argument(
            "--no-wall-time", action="store_true",
            help="zero the wall-time column for bit-identical reruns",
        )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = load_config_file(args.config) if args.config else {}
    if values.get("experiment", args.experiment) != args.experiment:
        raise ConfigError(
            f"config file names experiment {values['experiment']!r}, "
            f"not the subcommand {args.experiment!r}"
        )
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(**values)


def _fail(code: int, kind: str, exc: Exception) -> int:
    print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        resolved = resolve_config(config)
    except ValueError as exc:
        return _fail(2, "config", exc)
    try:
        trace = run_experiment(resolved, measure_time=not args.no_wall_time)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except DivergenceError as exc:
        print(
            json.dumps({"error": "divergence", "iteration": exc.iteration, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 3
    print(json.dumps({"experiment": resolved.experiment, **trace.summary()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
