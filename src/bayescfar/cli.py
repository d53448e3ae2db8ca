"""Command-line front end.

Subcommands: threshold, pfa, density, simulate, sweep, scan. Numeric output
uses shortest-round-trip float formatting so results diff bit-exactly across
runs; CSV is comma-separated with a mandatory header row and no quoting.

Exit codes: 0 success, 2 usage or configuration problem, 3 numeric failure.

A --config file (INI style, one section per subcommand, keys named after the
long options) fills in any option not given on the command line; explicit
flags always win.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from typing import Callable, Sequence

from .clutter_models import ExponentialClutter, ParetoClutter
from .detectors import DetectorSpec, Family, predictive_pfa, threshold
from .numerics import NumericsError
from .predictive import OsPredictive, os_predictive_density
from .simulate import (
    ConfigurationError,
    Scenario,
    TargetModel,
    WindowLayout,
    cfar_sweep,
    estimate_pd,
    estimate_pfa,
    max_pairwise_deviation_se,
    scan_profile,
)

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flags or config contents; maps to exit code 2."""


def _format_number(x: float) -> str:
    f = float(x)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _parse_grid(text: str) -> list[float]:
    """start:stop:steps with steps evenly spaced points inclusive of both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"could not parse grid {text!r}: {exc}") from exc
    if steps < 1:
        raise UsageError("grid needs at least one point")
    if not all(map(math.isfinite, (start, stop, stop - start))):
        raise UsageError(f"grid endpoints and their span must be finite, got {text!r}")
    if steps == 1:
        return [start]
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


def _parse_comma_list(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip() != ""]
    if not items:
        raise UsageError("expected a comma-separated list of numbers")
    try:
        return [float(piece) for piece in items]
    except ValueError as exc:
        raise UsageError(f"could not parse list {text!r}: {exc}") from exc


_CONVERTERS: dict[str, Callable[[str], object]] = {
    "family": str,
    "n": int,
    "k": int,
    "pfa": float,
    "t": float,
    "tau_grid": str,
    "z0_grid": str,
    "mode": str,
    "clutter": str,
    "rate": float,
    "alpha": float,
    "beta": float,
    "trials": int,
    "seed": int,
    "snr": float,
    "out": str,
    "lambda_grid": str,
    "profile": str,
    "leading": int,
    "trailing": int,
    "header": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
}


def _apply_config(args: argparse.Namespace, command: str) -> None:
    if args.config is None:
        return
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    parser = configparser.ConfigParser()
    try:
        parser.read(args.config)
    except configparser.Error as exc:
        raise UsageError(f"could not parse config {args.config}: {exc}") from exc
    if command not in parser:
        return
    for key, raw in parser[command].items():
        name = key.replace("-", "_")
        if name not in _CONVERTERS:
            raise UsageError(f"unknown config key {key!r} in section [{command}]")
        if getattr(args, name, None) is None or getattr(args, name) is False:
            try:
                setattr(args, name, _CONVERTERS[name](raw))
            except ValueError as exc:
                raise UsageError(f"bad config value {key} = {raw!r}: {exc}") from exc


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _detector_spec(args: argparse.Namespace,
                   placeholder_pfa: float | None = None) -> DetectorSpec:
    # the pfa and density curves do not depend on a design point; they pass a
    # placeholder for --pfa, so that (family, n, k) are still validated
    pfa = args.pfa if args.pfa is not None else placeholder_pfa
    _require(args, "family", "n")
    if pfa is None:
        raise UsageError("missing required option --pfa")
    try:
        family = Family(args.family)
    except ValueError as exc:
        raise UsageError(f"unknown family {args.family!r}") from exc
    return DetectorSpec(family=family, n=args.n, design_pfa=pfa, k=args.k)


def _statistic(args: argparse.Namespace) -> float:
    if not (0 < args.t < math.inf):
        raise UsageError(f"--t must be finite and positive, got {args.t}")
    return args.t


def _clutter_model(args: argparse.Namespace):
    kind = args.clutter or "exponential"
    if kind == "exponential":
        _require(args, "rate")
        return ExponentialClutter(rate_lambda=args.rate)
    if kind == "pareto":
        _require(args, "alpha", "beta")
        return ParetoClutter(shape_alpha=args.alpha, scale_beta=args.beta)
    raise UsageError(f"unknown clutter model {kind!r}")


def cmd_threshold(args: argparse.Namespace) -> int:
    spec = _detector_spec(args)
    _require(args, "t")
    tau = threshold(spec, _statistic(args))
    record = {
        "family": spec.family.value,
        "n": spec.n,
        "k": spec.k,
        "pfa": spec.design_pfa,
        "t": args.t,
        "tau": tau,
    }
    print(json.dumps(record))
    print(f"tau = {_format_number(tau)}", file=sys.stderr)
    return 0


def cmd_pfa(args: argparse.Namespace) -> int:
    spec = _detector_spec(args, placeholder_pfa=0.5)
    _require(args, "t", "tau_grid")
    t = _statistic(args)
    # every row is computed before the header, so a bad grid prints nothing
    rows = [(tau, predictive_pfa(spec, tau, t)) for tau in _parse_grid(args.tau_grid)]
    print("tau,pfa")
    for tau, pfa in rows:
        print(f"{_format_number(tau)},{_format_number(pfa)}")
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    spec = _detector_spec(args, placeholder_pfa=0.5)
    _require(args, "t", "z0_grid")
    if spec.family is not Family.BAYES_OS:
        raise UsageError("density is available for the bayes_os family only")
    os_data = OsPredictive(spec.n, spec.k, _statistic(args))
    rows = [(z0, os_predictive_density(z0, os_data)) for z0 in _parse_grid(args.z0_grid)]
    print("z0,density")
    for z0, density in rows:
        print(f"{_format_number(z0)},{_format_number(density)}")
    return 0


def _append_csv(path: str, report) -> None:
    header = "estimate,wilson_low,wilson_high,trials,seed,degenerate_redraws\n"
    row = (
        f"{_format_number(report.estimate)},{_format_number(report.wilson_low)},"
        f"{_format_number(report.wilson_high)},{report.trials},{report.seed},"
        f"{report.degenerate_redraws}\n"
    )
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="ascii", newline="") as sink:
        if fresh:
            sink.write(header)
        sink.write(row)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _detector_spec(args)
    clutter = _clutter_model(args)
    _require(args, "trials", "seed")
    mode = args.mode or "pfa"
    if mode not in ("pfa", "pd"):
        raise UsageError(f"--mode must be pfa or pd, got {mode!r}")
    target = None
    if mode == "pd":
        _require(args, "snr")
        target = TargetModel(kind="swerling1", snr_linear=args.snr)
    scenario = Scenario(
        clutter=clutter, detector=spec, trials=args.trials, seed=args.seed, target=target
    )
    report = estimate_pfa(scenario) if mode == "pfa" else estimate_pd(scenario)
    print(json.dumps(report.to_dict()))
    if args.out:
        _append_csv(args.out, report)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _detector_spec(args)
    _require(args, "trials", "seed", "lambda_grid")
    grid = _parse_comma_list(args.lambda_grid)
    scenario = Scenario(
        clutter=ExponentialClutter(rate_lambda=grid[0]),
        detector=spec,
        trials=args.trials,
        seed=args.seed,
    )
    reports = cfar_sweep(scenario, grid)
    print("lambda,estimate,wilson_low,wilson_high,trials")
    for rate, report in zip(grid, reports):
        print(
            f"{_format_number(rate)},{_format_number(report.estimate)},"
            f"{_format_number(report.wilson_low)},{_format_number(report.wilson_high)},"
            f"{report.trials}"
        )
    deviation = max_pairwise_deviation_se(reports)
    print(f"max pairwise deviation: {deviation:.3f} SE", file=sys.stderr)
    return 0


def _read_profile(path: str, skip_header: bool) -> list[float]:
    if not os.path.exists(path):
        raise UsageError(f"profile file not found: {path}")
    values: list[float] = []
    with open(path, "r", encoding="ascii") as source:
        for lineno, line in enumerate(source, start=1):
            if skip_header and lineno == 1:
                continue
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise UsageError(f"line {lineno}: not a number: {text!r}") from exc
            if not (value >= 0) or not math.isfinite(value):
                raise UsageError(
                    f"line {lineno}: profile values must be finite and nonnegative, got {text}"
                )
            values.append(value)
    return values


def cmd_scan(args: argparse.Namespace) -> int:
    spec = _detector_spec(args)
    _require(args, "profile", "leading", "trailing")
    profile = _read_profile(args.profile, bool(args.header))
    layout = WindowLayout(leading=args.leading, trailing=args.trailing)
    decisions = scan_profile(profile, spec, layout)
    print("cell_index,z0,comparison_value,verdict")
    for offset, decision in enumerate(decisions):
        index = layout.leading + offset
        print(
            f"{index},{_format_number(decision.statistic_z0)},"
            f"{_format_number(decision.comparison_value)},{decision.verdict.value}"
        )
    return 0


def _add_detector_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=[f.value for f in Family])
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--pfa", type=float)


def _add_clutter_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--clutter", choices=["exponential", "pareto"])
    sub.add_argument("--lambda", dest="rate", type=float,
                     help="exponential clutter rate")
    sub.add_argument("--alpha", type=float, help="Pareto shape")
    sub.add_argument("--beta", type=float, help="Pareto scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayescfar",
        description="Bayesian sliding-window CFAR detectors and calibration tools",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("threshold", help="solve for the detection threshold")
    _add_detector_flags(p)
    p.add_argument("--t", type=float, help="observed window statistic")

    p = subs.add_parser("pfa", help="false-alarm probability over a threshold grid")
    _add_detector_flags(p)
    p.add_argument("--t", type=float, help="observed window statistic")
    p.add_argument("--tau-grid", dest="tau_grid", help="start:stop:steps")

    p = subs.add_parser("density", help="predictive density over a cell-value grid")
    _add_detector_flags(p)
    p.add_argument("--t", type=float, help="observed order statistic")
    p.add_argument("--z0-grid", dest="z0_grid", help="start:stop:steps")

    p = subs.add_parser("simulate", help="Monte Carlo Pfa or Pd estimate")
    _add_detector_flags(p)
    _add_clutter_flags(p)
    p.add_argument("--mode", choices=["pfa", "pd"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--snr", type=float, help="linear SNR for pd mode")
    p.add_argument("--out", help="append a CSV summary row to this file")

    p = subs.add_parser("sweep", help="Pfa estimates across clutter powers")
    _add_detector_flags(p)
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="comma-separated exponential rates")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = subs.add_parser("scan", help="run the detector across a range profile")
    _add_detector_flags(p)
    p.add_argument("--profile", help="CSV file, one nonnegative value per line")
    p.add_argument("--header", action="store_true", default=False,
                   help="skip the first profile line")
    p.add_argument("--leading", type=int)
    p.add_argument("--trailing", type=int)

    for sub in subs.choices.values():
        sub.add_argument("--config", help="INI file supplying defaults for missing flags")
    return parser


_COMMANDS = {
    "threshold": cmd_threshold,
    "pfa": cmd_pfa,
    "density": cmd_density,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "scan": cmd_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, args.command)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
