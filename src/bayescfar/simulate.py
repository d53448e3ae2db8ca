"""Monte Carlo calibration harness.

Trials are partitioned into fixed 65536-trial blocks. Block b of a run with
master seed s draws from a Philox stream keyed by SeedSequence((s, 0, b)),
and results are combined by integer counting, so the outcome is identical
for any worker count and any scheduling order. Grid sweeps derive one child
seed per grid point from SeedSequence((s, 1, i)) so the points are
independent but still reproducible from the master seed alone.

A trial never builds its window: a block of m trials draws m window
statistics straight from their distribution (the family's draw entry in
detectors.FAMILIES: clutter_models.kth_smallest_draws or window_sum_draws),
then m cells under test as intensity_from_uniform of 1 - U[0, 1). Trials
whose statistic must be positive and is not are redrawn the same way,
statistics first, from the same stream.

Detector evaluation inside a block is vectorized: the Bayesian OS rule is
applied through its threshold multiplier (threshold = multiplier * observed
order statistic), which by strict monotonicity of the predictive Pfa gives
the same verdicts as the probability-comparison path; the equivalence is
property-tested rather than assumed.

scan_profile is columnar too: the windows of a range profile are the rows
of a sliding-window matrix, built SCAN_BLOCK_ROWS cells at a time, and the
family's scan entry in detectors.FAMILIES evaluates each block in one pass,
with the same comparison values and verdicts as the per-cell decide
functions, which stay as the tests' oracle. The ca_cfar entry forms every
window sum at once as a certified compensated sum, and only the rows it
cannot certify exactly rounded (and blocks of under 128 rows, where that is
faster) are summed one at a time with math.fsum. The immutable Decision
NamedTuples are then built from the result columns without a Python call
per cell. The scan also answers the two windows decide does not: a zero
k-th order statistic under bayes_os takes the t -> 0+ limit (H1 for a
positive cell, H0 for a zero one), and a ca_cfar window sum beyond the
float range gives an exact threshold, inf (H0) only when the threshold
itself overflows.
"""

from __future__ import annotations

import logging
import math
import os as _os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clutter_models import (
    ClutterModel,
    ExponentialClutter,
    ParetoClutter,
    intensity_from_uniform,
)
from .detectors import FAMILIES, Decision, DetectorSpec, Verdict, threshold_multiplier

__all__ = [
    "ConfigurationError",
    "TargetModel",
    "Scenario",
    "SimReport",
    "WindowLayout",
    "WILSON_Z",
    "BLOCK_SIZE",
    "SCAN_BLOCK_ROWS",
    "WORKERS_ENV_VAR",
    "wilson_interval",
    "estimate_pfa",
    "estimate_pd",
    "cfar_sweep",
    "max_pairwise_deviation_se",
    "scan_profile",
]

logger = logging.getLogger(__name__)

WILSON_Z = 3.0
BLOCK_SIZE = 65536
# cells per window matrix in scan_profile: bounds its size for long profiles
# and windows in the hundreds
SCAN_BLOCK_ROWS = 4096
WORKERS_ENV_VAR = "BAYESCFAR_WORKERS"
# give up if a block cannot produce nondegenerate windows
_MAX_REDRAW_ROUNDS = 1000


class ConfigurationError(ValueError):
    """A scenario or profile request that cannot be run as configured."""


@dataclass(frozen=True)
class TargetModel:
    """Fluctuating point target: received power exponential, mean scaled by 1 + SNR."""

    kind: str = "swerling1"
    snr_linear: float = 1.0

    def __post_init__(self) -> None:
        if self.kind != "swerling1":
            raise ValueError(f"unsupported target kind {self.kind!r}")
        if not (0 < self.snr_linear < math.inf):
            raise ValueError(f"snr_linear must be finite and positive, got {self.snr_linear}")


@dataclass(frozen=True)
class Scenario:
    clutter: ClutterModel
    detector: DetectorSpec
    trials: int
    seed: int
    target: TargetModel | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not isinstance(self.clutter, (ExponentialClutter, ParetoClutter)):
            raise ConfigurationError(f"unsupported clutter model: {type(self.clutter).__name__}")


@dataclass(frozen=True)
class SimReport:
    """An estimated proportion with its 3-sigma Wilson interval.

    degenerate_redraws counts trials that were thrown away and redrawn
    because the window statistic the detector divides through was zero;
    they are diagnostics, not part of the estimate.
    """

    estimate: float
    trials: int
    wilson_low: float
    wilson_high: float
    seed: int
    scenario_digest: str
    degenerate_redraws: int = 0

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "trials": self.trials,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "seed": self.seed,
            "scenario_digest": self.scenario_digest,
            "degenerate_redraws": self.degenerate_redraws,
        }

    def standard_error(self) -> float:
        return (self.wilson_high - self.wilson_low) / (2.0 * WILSON_Z)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval; always contains the sample proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes {successes} outside 0..{trials}")
    p = successes / trials
    zz = z * z / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials)) / (1.0 + zz)
    # round-off can push an endpoint past the sample proportion at 0 or 1
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def _scenario_digest(scenario: Scenario) -> str:
    c = scenario.clutter
    if isinstance(c, ExponentialClutter):
        clutter = f"exponential(rate_lambda={c.rate_lambda!r})"
    else:
        clutter = f"pareto(shape_alpha={c.shape_alpha!r},scale_beta={c.scale_beta!r})"
    d = scenario.detector
    det = f"{d.family.value}(n={d.n},k={d.k},design_pfa={d.design_pfa!r})"
    tgt = "none" if scenario.target is None else \
        f"{scenario.target.kind}(snr_linear={scenario.target.snr_linear!r})"
    return (
        f"clutter={clutter}|detector={det}|trials={scenario.trials}"
        f"|seed={scenario.seed}|target={tgt}"
    )


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ConfigurationError(f"worker count must be at least 1, got {workers}")
        return workers
    env = _os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            parsed = int(env)
        except ValueError as exc:
            raise ConfigurationError(f"{WORKERS_ENV_VAR}={env!r} is not an integer") from exc
        if parsed < 1:
            raise ConfigurationError(f"{WORKERS_ENV_VAR} must be at least 1, got {parsed}")
        return parsed
    return _os.cpu_count() or 1


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0, block_index))))


def _child_seed(seed: int, grid_index: int) -> int:
    return int(np.random.SeedSequence((seed, 1, grid_index)).generate_state(1, np.uint64)[0])


def _run_block(scenario: Scenario, multiplier: float, cut_scale: float,
               block_index: int, size: int) -> tuple[int, int]:
    spec = scenario.detector
    row = FAMILIES[spec.family]
    rng = _block_generator(scenario.seed, block_index)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        stat = row.draw(scenario.clutter, spec, rng, rows)
        cut = intensity_from_uniform(scenario.clutter, 1.0 - rng.random(rows))
        return stat, cut * cut_scale

    stat, cut = draw(size)
    redraws = 0
    if row.positive_statistic:
        bad = stat <= 0.0
        rounds = 0
        while bad.any():
            rounds += 1
            if rounds > _MAX_REDRAW_ROUNDS:
                raise ConfigurationError(
                    "window statistic degenerate in every redraw; "
                    "the clutter model keeps producing zero samples"
                )
            count = int(bad.sum())
            redraws += count
            stat[bad], cut[bad] = draw(count)
            bad = stat <= 0.0
    hits = int(np.count_nonzero(cut > multiplier * stat))
    return hits, redraws


def _run_blocks(scenario: Scenario, cut_scale: float, workers: int | None) -> tuple[int, int]:
    multiplier = threshold_multiplier(scenario.detector)
    trials = scenario.trials
    sizes = [
        min(BLOCK_SIZE, trials - start) for start in range(0, trials, BLOCK_SIZE)
    ]
    nworkers = min(_worker_count(workers), len(sizes))
    if nworkers == 1:
        results = [
            _run_block(scenario, multiplier, cut_scale, b, size)
            for b, size in enumerate(sizes)
        ]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            results = list(
                pool.map(
                    lambda item: _run_block(scenario, multiplier, cut_scale, *item),
                    enumerate(sizes),
                )
            )
    hits = sum(r[0] for r in results)
    redraws = sum(r[1] for r in results)
    return hits, redraws


def _report(scenario: Scenario, hits: int, redraws: int) -> SimReport:
    low, high = wilson_interval(hits, scenario.trials)
    return SimReport(
        estimate=hits / scenario.trials,
        trials=scenario.trials,
        wilson_low=low,
        wilson_high=high,
        seed=scenario.seed,
        scenario_digest=_scenario_digest(scenario),
        degenerate_redraws=redraws,
    )


def estimate_pfa(scenario: Scenario, workers: int | None = None) -> SimReport:
    """Empirical false-alarm fraction under clutter-only trials.

    Each trial draws the statistic of a window of i.i.d. clutter samples and
    an independent cell under test from the clutter model and runs the
    detector. Deterministic given the seed.
    """
    if scenario.target is not None:
        raise ConfigurationError("estimate_pfa runs clutter-only trials; drop the target")
    hits, redraws = _run_blocks(scenario, cut_scale=1.0, workers=workers)
    return _report(scenario, hits, redraws)


def estimate_pd(scenario: Scenario, workers: int | None = None) -> SimReport:
    """Empirical detection fraction with a fluctuating target in the cell.

    The cell under test is exponential with mean (1 + snr) times the clutter
    mean; the window stays clutter-only. Requires exponential clutter.
    """
    if scenario.target is None:
        raise ConfigurationError("estimate_pd needs a target model")
    if not isinstance(scenario.clutter, ExponentialClutter):
        raise ConfigurationError(
            "the swerling1 target is defined against exponential clutter only"
        )
    scale = 1.0 + scenario.target.snr_linear
    hits, redraws = _run_blocks(scenario, cut_scale=scale, workers=workers)
    return _report(scenario, hits, redraws)


def max_pairwise_deviation_se(reports: Sequence[SimReport]) -> float:
    """Largest |estimate_i - estimate_j| over combined standard errors."""
    worst = 0.0
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            se = math.hypot(reports[i].standard_error(), reports[j].standard_error())
            if se == 0.0:
                continue
            worst = max(worst, abs(reports[i].estimate - reports[j].estimate) / se)
    return worst


def cfar_sweep(scenario: Scenario, lambda_grid: Sequence[float],
               workers: int | None = None) -> list[SimReport]:
    """estimate_pfa at each clutter power; the estimates should not move.

    Each grid point gets an independent child seed derived from the master
    seed, so the whole sweep is reproducible from (seed, grid).
    """
    if not isinstance(scenario.clutter, ExponentialClutter):
        raise ConfigurationError("cfar_sweep varies the exponential rate; use exponential clutter")
    if len(lambda_grid) == 0:
        raise ConfigurationError("lambda_grid must not be empty")
    for rate in lambda_grid:
        if not (0 < rate < math.inf):
            raise ConfigurationError(f"clutter rates must be finite and positive, got {rate}")
    reports = []
    for i, rate in enumerate(lambda_grid):
        point = replace(
            scenario,
            clutter=ExponentialClutter(rate_lambda=float(rate)),
            seed=_child_seed(scenario.seed, i),
        )
        reports.append(estimate_pfa(point, workers=workers))
    logger.info(
        "cfar_sweep over %d rates: max pairwise deviation %.3f SE",
        len(reports), max_pairwise_deviation_se(reports),
    )
    return reports


@dataclass(frozen=True)
class WindowLayout:
    """How many neighbors on each side of the cell under test form the window."""

    leading: int
    trailing: int

    def __post_init__(self) -> None:
        if self.leading < 0 or self.trailing < 0:
            raise ValueError("leading and trailing counts must be nonnegative")
        if self.leading + self.trailing < 1:
            raise ValueError("the window must contain at least one cell")


def scan_profile(profile: Sequence[float] | np.ndarray, spec: DetectorSpec,
                 window_layout: WindowLayout) -> list[Decision]:
    """Slide the detector across a range profile; one Decision per eligible cell.

    The window is the leading cells immediately before the cell under test
    plus the trailing cells immediately after, no guard cells. Cells without
    a full complement of neighbors are skipped, so a profile of exactly
    leading + trailing cells yields an empty list; anything shorter cannot
    hold a single window and is a configuration error. The profile is a
    sequence of floats or a 1-D array; a value that is negative or not
    finite is a ValueError naming the first such value.

    Evaluation is columnar: the windows of up to SCAN_BLOCK_ROWS cells at a
    time form the rows of one matrix, and the family's scan entry in
    FAMILIES gives every comparison value and verdict of the block at once,
    with the same bits as the family's per-cell decide. For ca_cfar that
    means the exactly rounded window sums: a compensated (TwoSum) sum of all
    rows at once, certified row by row, with math.fsum for the rows it cannot
    certify and for blocks of under 128 rows. The Decisions, immutable
    NamedTuples, are built from the result columns by C-level iteration.
    Two cases that decide does not answer have defined outcomes here:

    - bayes_os at a window whose k-th order statistic is zero takes the
      t -> 0+ limit of its false-alarm probability: a cell z0 > 0 gets
      comparison value 0.0 and H1, a cell z0 = 0 gets 1.0 and H0 (the
      threshold form m * t is 0 there, as for min_cfar at a zero minimum);
    - ca_cfar at a window whose sum exceeds the float range still forms the
      threshold m * sum exactly, and it is inf, so H0, only if that product
      overflows (as min_cfar prints for an overflowing m * min).
    """
    values = np.asarray(profile, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"the profile must be one-dimensional, got shape {values.shape}")
    bad = ~(np.isfinite(values) & (values >= 0))
    if bad.any():
        first = float(values[np.argmax(bad)])
        raise ValueError(f"profile values must be finite and nonnegative, got {first}")
    lead, trail = window_layout.leading, window_layout.trailing
    if lead + trail != spec.n:
        raise ConfigurationError(
            f"window layout supplies {lead + trail} cells but the detector expects {spec.n}"
        )
    if len(values) < lead + trail:
        raise ConfigurationError(
            f"profile of {len(values)} cells cannot hold a {lead}+{trail} window"
        )
    if len(values) == lead + trail:
        return []
    scan = FAMILIES[spec.family].scan
    rows = sliding_window_view(values, spec.n + 1)
    verdicts = np.array((Verdict.H0, Verdict.H1), dtype=object)
    decisions: list[Decision] = []
    for start in range(0, len(rows), SCAN_BLOCK_ROWS):
        block = rows[start:start + SCAN_BLOCK_ROWS]
        z0 = block[:, lead]
        # the concatenated copy is ours: + 0.0 turns a -0.0 sample into 0.0, as
        # CrpWindow does, so the statistic's sign agrees with decide's
        windows = np.concatenate((block[:, :lead], block[:, lead + 1:]), axis=1)
        windows += 0.0
        comparison, h1, path = scan(z0, windows, spec)
        # tuple.__new__ through map builds each Decision without a Python call
        columns = (verdicts[h1.astype(np.intp)].tolist(), z0.tolist(),
                   comparison.tolist(), repeat(path))
        decisions.extend(map(tuple.__new__, repeat(Decision), zip(*columns)))
    return decisions
