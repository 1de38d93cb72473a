"""Command-line driver.

Verbs:
    synth   write a synthetic benchmark dataset to CSV
    run     run a full experiment from a JSON config
    select  run a transformation-selection experiment (kind = selection)
    rate    run a sample-size sweep (kind = rate_sweep)

Exit codes: 0 success, 1 configuration error, 2 some method failed (the
report still covers the methods that ran).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .data import DomainTag, generate_synthetic, kin_analog_spec, save_csv
from .experiment import (
    ConfigError,
    load_config,
    parse_seeds,
    run_experiment,
    synthetic_spec,
)

# the doppler datasets of ``synth``, each the ``data.truth`` of a config
_DOPPLER_TRUTHS = {
    "doppler_offset": {"transformation": {"family": "offset", "alpha": 1.0},
                       "w": {"slope": 1.0}},
    "doppler_scale": {"transformation": {"family": "scale", "alpha": 0.0},
                      "w": {"intercept": 5.0}},
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The verbs' parser, built on first use and kept for the process: a
    parse leaves it as it was, and each ``main`` call gets its own
    namespace."""
    parser = argparse.ArgumentParser(
        prog="htlreg",
        description="Transfer-learning regression benchmarks via "
        "transformation functions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    synth = sub.add_parser("synth", help="emit a synthetic dataset CSV")
    synth.add_argument("--dataset", choices=[*_DOPPLER_TRUTHS, "kin_analog"],
                       required=True)
    synth.add_argument("--domain", choices=[t.value for t in DomainTag],
                       default="target")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--noise", type=float,
                       help="label noise variance of the domain drawn")
    synth.add_argument("--out", required=True, help="output CSV path")

    for verb, kind in (("run", None), ("select", "selection"),
                       ("rate", "rate_sweep")):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seeds", help="comma-separated seeds (overrides config)")
        p.set_defaults(required_kind=kind)

    return parser


def _join_seeds_value(argv: list[str]) -> list[str]:
    """Spell ``--seeds V`` as ``--seeds=V``: argparse reads a value such as
    ``-1,2`` as an option and would exit before parse_seeds names the key."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--seeds":
            out[-1] = f"--seeds={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_seeds_value(argv))
    try:
        if args.verb == "synth":
            return _cmd_synth(args)
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def _cmd_synth(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n: expected a positive row count, got {args.n}")
    if args.noise is not None and not 0 <= args.noise < math.inf:
        raise ConfigError(f"--noise: expected a finite nonnegative variance, "
                          f"got {args.noise}")
    if args.seed < 0:
        raise ConfigError(f"--seed: expected a nonnegative integer, got {args.seed}")
    out = Path(args.out)
    if out.is_dir():
        raise ConfigError(f"--out: {out} is a directory, expected a file path")
    _check_output_dir(out.parent, "--out")
    if args.dataset == "kin_analog":
        spec = kin_analog_spec()
    else:
        spec = synthetic_spec({"truth": _DOPPLER_TRUTHS[args.dataset]})
    if args.noise is not None:
        spec = replace(spec, noise_variance_source=args.noise,
                       noise_variance_target=args.noise)
    data = generate_synthetic(spec, args.n, DomainTag(args.domain), args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(data, out)
    print(f"wrote {data.n} x {data.dim} {args.domain} rows to {out}")
    return 0


def _seed_list(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, "
                          f"got {text!r}") from None


def _check_output_dir(path: Path, where: str) -> None:
    """A ConfigError naming ``where`` unless ``path`` is a directory or can be
    made one, so that no seed runs for a report that cannot be written."""
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"{where}: {part} exists and is not a directory")
            return


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.required_kind and config.experiment_kind != args.required_kind:
        raise ConfigError(
            f"verb {args.verb!r} requires experiment_kind "
            f"{args.required_kind!r}, config has {config.experiment_kind!r}"
        )
    if args.out:
        config = replace(config, output_dir=Path(args.out))
    if args.seeds is not None:
        config = replace(config, seeds=parse_seeds(_seed_list(args.seeds), "--seeds"))
    _check_output_dir(config.output_dir, "--out" if args.out else "config.output_dir")
    report = run_experiment(config)
    n_rows = len(report.get("rows", []))
    n_errors = len(report.get("errors", []))
    print(f"wrote {config.output_dir}/report.json "
          f"({n_rows} rows, {n_errors} method failures)")
    if n_errors:
        for err in report["errors"]:
            print(f"  failed: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
