"""Command-line front end.

Subcommands: threshold, pfa, density, simulate, sweep, scan, each with its
handler bound on its subparser. Every CSV table (pfa, density, sweep, scan,
and the row simulate --out appends) is written by _write_csv, every JSON
record (threshold, simulate) formed by _json_line; each forms its whole
output before writing, so a failure prints nothing. CSV is comma-separated
with a mandatory header row and no quoting; floats take shortest-round-trip
formatting so results diff bit-exactly across runs. JSON is strict
(RFC 8259): a record holding inf or nan is a numeric failure.

Exit codes: 0 success, 2 usage or configuration problem (a --config,
--profile or --out file that cannot be opened, or an --out file that cannot
be written, among them), 3 numeric failure:
a solver or quadrature that does not converge, or a threshold multiplier or
threshold that is not finite.

A --config file (INI style, one section per subcommand, keys named after
that subcommand's long options, with - or _ alike) fills in any option not
given on the command line; explicit flags always win.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from typing import Iterable, Sequence, TextIO

from .clutter_models import ExponentialClutter, ParetoClutter
from .detectors import DetectorSpec, Family, Verdict, predictive_pfa, threshold
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


def _csv_line(fields: Sequence) -> str:
    # str, not _format_number, for ints: a seed up to 2**64 - 1 stays exact
    return ",".join([_format_number(x) if isinstance(x, float) else str(x) for x in fields])


def _write_csv(sink: TextIO, header: Sequence[str] | None, rows: Iterable[Sequence]) -> None:
    """Write a header row (None leaves it out), then rows, as CSV lines.

    Every line is formed before the first is written, so a row that fails
    to compute or to format leaves sink untouched.
    """
    table = [] if header is None else [header]
    table.extend(rows)
    sink.write("".join([_csv_line(fields) + "\n" for fields in table]))


def _json_line(record: dict) -> str:
    """record as one line of strict JSON; a non-finite value is a NumericsError."""
    try:
        return json.dumps(record, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"a value is not finite in {record}") from exc


def _open_named(flag: str, path: str, mode: str, **options) -> TextIO:
    """open(path, mode, **options) for the file a flag names; an OSError is a UsageError."""
    try:
        return open(path, mode, **options)
    except OSError as exc:
        raise UsageError(f"cannot open {flag} {path}: {exc.strerror or exc}") from exc


# every grid point is a row of output, and every row is formed before the
# first is written: a pfa grid of 10**6 points took about 4 s and 290 MB
# peak RSS on a 2-vCPU machine, so this bound keeps a table within memory
_GRID_POINTS = 10**6


def _parse_grid(text: str) -> list[float]:
    """start:stop:steps with steps evenly spaced points inclusive of both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"could not parse grid {text!r}: {exc}") from exc
    if not 1 <= steps <= _GRID_POINTS:
        raise UsageError(f"grid needs 1 to {_GRID_POINTS} points, got {steps}")
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


def _config_keys(sub: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    # a config key is a long option's name; --config and --help are not keys
    return {
        option[2:]: action
        for action in sub._actions
        if action.dest not in ("config", "help")
        for option in action.option_strings
        if option.startswith("--")
    }


def _config_value(action: argparse.Action, raw: str) -> object:
    if action.nargs == 0:  # a store_true flag
        state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
        if state is None:
            raise ValueError("not a boolean")
        return state
    value = (action.type or str)(raw)
    # the check argparse makes on a flag's value
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice (choose from {', '.join(map(repr, action.choices))})")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    parser = configparser.ConfigParser()
    # no encoding given, as ConfigParser.read opens a file
    with _open_named("--config", args.config, "r") as source:
        try:
            parser.read_file(source)
        except configparser.Error as exc:
            raise UsageError(f"could not parse config {args.config}: {exc}") from exc
    if args.command not in parser:
        return
    for key, raw in parser[args.command].items():
        action = args.config_keys.get(key.replace("_", "-"))
        if action is None:
            raise UsageError(f"unknown config key {key!r} in section [{args.command}]")
        # explicit flags win: a flag left out is None, or False for store_true
        given = getattr(args, action.dest)
        if given is None or given is False:
            try:
                setattr(args, action.dest, _config_value(action, raw))
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
    return DetectorSpec(family=Family(args.family), n=args.n, design_pfa=pfa, k=args.k)


def _statistic(args: argparse.Namespace) -> float:
    if not (0 < args.t < math.inf):
        raise UsageError(f"--t must be finite and positive, got {args.t}")
    return args.t


def _clutter_model(args: argparse.Namespace):
    if args.clutter == "pareto":
        _require(args, "alpha", "beta")
        return ParetoClutter(shape_alpha=args.alpha, scale_beta=args.beta)
    _require(args, "rate")
    return ExponentialClutter(rate_lambda=args.rate)


def cmd_threshold(args: argparse.Namespace) -> int:
    spec = _detector_spec(args)
    _require(args, "t")
    tau = threshold(spec, _statistic(args))
    print(_json_line({"family": spec.family.value, "n": spec.n, "k": spec.k,
                      "pfa": spec.design_pfa, "t": args.t, "tau": tau}))
    print(f"tau = {_format_number(tau)}", file=sys.stderr)
    return 0


def cmd_pfa(args: argparse.Namespace) -> int:
    spec = _detector_spec(args, placeholder_pfa=0.5)
    _require(args, "t", "tau_grid")
    t = _statistic(args)
    grid = _parse_grid(args.tau_grid)
    _write_csv(sys.stdout, ("tau", "pfa"), ((tau, predictive_pfa(spec, tau, t)) for tau in grid))
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    spec = _detector_spec(args, placeholder_pfa=0.5)
    _require(args, "t", "z0_grid")
    if spec.family is not Family.BAYES_OS:
        raise UsageError("density is available for the bayes_os family only")
    os_data = OsPredictive(spec.n, spec.k, _statistic(args))
    grid = _parse_grid(args.z0_grid)
    _write_csv(sys.stdout, ("z0", "density"),
               ((z0, os_predictive_density(z0, os_data)) for z0 in grid))
    return 0


# the columns of the row simulate --out appends
_OUT_COLUMNS = ("estimate", "wilson_low", "wilson_high", "trials", "seed", "degenerate_redraws")


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _detector_spec(args)
    clutter = _clutter_model(args)
    _require(args, "trials", "seed")
    target = None
    if args.mode == "pd":
        _require(args, "snr")
        target = TargetModel(snr_linear=args.snr)
    scenario = Scenario(
        clutter=clutter, detector=spec, trials=args.trials, seed=args.seed, target=target
    )
    report = estimate_pd(scenario) if args.mode == "pd" else estimate_pfa(scenario)
    record = report.to_dict()
    line = _json_line(record)
    # the --out row is written and closed before the record is printed, so a
    # file that cannot take it fails with nothing on stdout; append mode opens
    # at the end, so the header goes only into a file that is empty
    if args.out:
        sink = _open_named("--out", args.out, "a", encoding="ascii", newline="")
        try:
            with sink:
                _write_csv(sink, _OUT_COLUMNS if sink.tell() == 0 else None,
                           [[record[name] for name in _OUT_COLUMNS]])
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    print(line)
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
    _write_csv(sys.stdout, ("lambda", "estimate", "wilson_low", "wilson_high", "trials"),
               ((rate, r.estimate, r.wilson_low, r.wilson_high, r.trials)
                for rate, r in zip(grid, reports)))
    deviation = max_pairwise_deviation_se(reports)
    print(f"max pairwise deviation: {deviation:.3f} SE", file=sys.stderr)
    return 0


def _read_profile(path: str, skip_header: bool) -> list[float]:
    values: list[float] = []
    with _open_named("--profile", path, "r", encoding="ascii") as source:
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
    result = scan_profile(profile, spec, layout)
    verdicts = (Verdict.H0.value, Verdict.H1.value)
    _write_csv(sys.stdout, ("cell_index", "z0", "comparison_value", "verdict"),
               zip(range(layout.leading, layout.leading + len(result)),
                   result.statistic_z0.tolist(), result.comparison_value.tolist(),
                   map(verdicts.__getitem__, result.h1.tolist())))
    return 0


def _add_subcommand(subs, name: str, handler, help: str) -> argparse.ArgumentParser:
    # every subcommand takes the detector flags
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    sub.add_argument("--family", choices=[f.value for f in Family])
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--pfa", type=float)
    return sub


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

    p = _add_subcommand(subs, "threshold", cmd_threshold, "solve for the detection threshold")
    p.add_argument("--t", type=float, help="observed window statistic")

    p = _add_subcommand(subs, "pfa", cmd_pfa, "false-alarm probability over a threshold grid")
    p.add_argument("--t", type=float, help="observed window statistic")
    p.add_argument("--tau-grid", dest="tau_grid", help="start:stop:steps")

    p = _add_subcommand(subs, "density", cmd_density,
                        "predictive density over a cell-value grid")
    p.add_argument("--t", type=float, help="observed order statistic")
    p.add_argument("--z0-grid", dest="z0_grid", help="start:stop:steps")

    p = _add_subcommand(subs, "simulate", cmd_simulate, "Monte Carlo Pfa or Pd estimate")
    _add_clutter_flags(p)
    p.add_argument("--mode", choices=["pfa", "pd"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--snr", type=float, help="linear SNR for pd mode")
    p.add_argument("--out", help="append a CSV summary row to this file")

    p = _add_subcommand(subs, "sweep", cmd_sweep, "Pfa estimates across clutter powers")
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="comma-separated exponential rates")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = _add_subcommand(subs, "scan", cmd_scan, "run the detector across a range profile")
    p.add_argument("--profile", help="CSV file, one nonnegative value per line")
    p.add_argument("--header", action="store_true", default=False,
                   help="skip the first profile line")
    p.add_argument("--leading", type=int)
    p.add_argument("--trailing", type=int)

    for sub in subs.choices.values():
        sub.add_argument("--config", help="INI file supplying defaults for missing flags")
        sub.set_defaults(config_keys=_config_keys(sub))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.handler(args)
    except (UsageError, ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
