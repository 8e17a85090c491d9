"""Command-line entry point: simulate, capacity, sweep, calibrate."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import get_model_spec
from .experiment import (
    ConfigError,
    config_with,
    load_config,
    run_capacity,
    run_experiment,
    run_sweep,
    seed_list,
)
from .profiles import (
    CalibrationError,
    LatencyProfile,
    calibrate,
    load_calibration_targets,
    predict_breakdown,
    targets_from_dict,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _json_list(text: str, flag: str) -> list:
    """The values ``flag`` gives as comma-separated JSON, e.g. ``0.1,0.5`` or
    ``{"count": 7, "tp": 4},{"count": 6, "tp": 4}``; there must be one at least."""
    try:
        values = json.loads("[" + text + "]")
    except json.JSONDecodeError as e:
        raise ConfigError(flag, f"must be comma-separated JSON values ({e.msg}), got {text!r}")
    if not values:
        raise ConfigError(flag, "no values given")
    return values


def _parse_seeds(text: str) -> list[int]:
    """The ``--seeds`` list, checked as the config's ``seeds`` is."""
    return seed_list(_json_list(text, "--seeds"), "--seeds")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seeds is not None:
        cfg = config_with(cfg, "seeds", _parse_seeds(args.seeds))
    summary = run_experiment(cfg, out_dir=args.out)
    agg = summary["aggregate"]
    print(
        f"simulate: {agg['completed_total']} completed over {agg['n_seeds']} seed(s); "
        f"mean TTFT {agg['mean_ttft_ms']:.1f} ms, worst P99 {agg['p99_ttft_ms_worst']:.1f} ms, "
        f"min attainment {agg['attainment_min']:.4f}"
    )
    print(f"outputs in {args.out}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    cfg = load_config(args.config)
    result = run_capacity(cfg, out_dir=args.out)
    for rate, ok in result.probes:
        print(f"probe {rate:8.3f} req/s -> {'pass' if ok else 'fail'}")
    if not result.feasible:
        print("warning: SLO infeasible even at the minimum probed rate; capacity 0")
    print(f"capacity: {result.rate:.3f} req/s")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = run_sweep(cfg, args.axis, _json_list(args.values, "--values"), out_dir=args.out)
    for row in rows:
        print(
            f"{args.axis}={row['value']}: mean TTFT {row['mean_ttft_ms']:.1f} ms, "
            f"worst P99 {row['p99_ttft_ms_worst']:.1f} ms, attainment {row['attainment_min']:.4f}"
        )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model = get_model_spec(args.model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{model.name}.json"
    if path.exists() and not args.force:
        profile = LatencyProfile.load(path, model)
        print(f"reusing cached profile {path} (use --force to refit)")
    else:
        if args.targets:
            try:
                raw = json.loads(Path(args.targets).read_text())
                if isinstance(raw, dict) and model.name in raw:  # a file of targets per model
                    raw = raw[model.name]
                targets = targets_from_dict(raw)
            except (OSError, ValueError) as e:  # unreadable, not JSON, or a bad key
                raise ConfigError("--targets", str(e))
        else:
            targets = load_calibration_targets(model.name)
        profile = calibrate(targets, model)
        profile.save(path)
        print(f"wrote {path}")
    shares = predict_breakdown(profile)
    pretty = ", ".join(f"{k.value} {v:.1%}" for k, v in shares.items())
    print(f"single-request TTFT shares: {pretty}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmsim",
        description="Discrete-event simulator for multimodal model serving clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment config across seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("capacity", help="bisect the max request rate meeting SLOs")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sweep", help="grid over one config field")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, help="dotted config path, e.g. slo.slo_factor")
    p.add_argument("--values", required=True, help="comma-separated JSON values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="fit and store a latency profile")
    p.add_argument("--model", required=True)
    p.add_argument("--targets", help="JSON file overriding bundled targets")
    p.add_argument("--out", default="profiles")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CalibrationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
