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
then m cells under test as intensity_from_uniform of 1 - U[0, 1). Under the
pfa-comparison rule, which divides by the statistic, trials whose statistic
is zero are redrawn the same way, statistics first, from the same stream.

Detector evaluation inside a block is vectorized: the Bayesian OS rule is
applied through its threshold multiplier (threshold = multiplier * observed
order statistic), which by strict monotonicity of the predictive Pfa gives
the same verdicts as the probability-comparison path; the equivalence is
property-tested rather than assumed.

scan_profile is columnar too: it validates the profile, copies it once and
hands it to detectors.scan_windows, which gives every comparison value and
verdict with the same bits as the per-cell decide functions (they stay as
the tests' oracle), in blocks it sizes itself, since it builds the arrays
they bound. The result, a ScanResult, keeps those columns and builds a
Decision only when one is read, so a scan makes no per-cell object for the
cyclic garbage collector to count. The scan also answers the one window
decide does not: a zero k-th order statistic under bayes_os takes the
t -> 0+ limit (H1 for a positive cell, H0 for a zero one). A ca_cfar window
sum beyond the float range gives, in the scan as in decide, an exact
threshold, inf (H0) only when the threshold itself overflows; a Monte Carlo
draw beyond the float range is inf, and takes the same rule.

numpy is imported by the functions that make arrays (the block streams,
a block's draws, scan_profile's copy) when they first run, not with the
module.
"""

from __future__ import annotations

import logging
import math
import os as _os
from dataclasses import asdict, dataclass, replace
import operator
from collections.abc import Iterator, Sequence
from itertools import repeat
from typing import TYPE_CHECKING

from .clutter_models import (
    ClutterModel,
    ExponentialClutter,
    ParetoClutter,
    intensity_from_uniform,
)
from .detectors import (
    FAMILIES,
    Decision,
    DecisionPath,
    DetectorSpec,
    Verdict,
    scan_windows,
    threshold_multiplier,
)

__all__ = [
    "ConfigurationError",
    "TargetModel",
    "Scenario",
    "SimReport",
    "WindowLayout",
    "WILSON_Z",
    "BLOCK_SIZE",
    "WORKERS_ENV_VAR",
    "wilson_interval",
    "estimate_pfa",
    "estimate_pd",
    "cfar_sweep",
    "max_pairwise_deviation_se",
    "scan_profile",
    "ScanResult",
]

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

WILSON_Z = 3.0
BLOCK_SIZE = 65536
WORKERS_ENV_VAR = "BAYESCFAR_WORKERS"
# give up if a block cannot produce nondegenerate windows
_MAX_REDRAW_ROUNDS = 1000


class ConfigurationError(ValueError):
    """A scenario or profile request that cannot be run as configured."""


@dataclass(frozen=True)
class TargetModel:
    """Swerling-1 point target: received power exponential, mean scaled by 1 + SNR."""

    snr_linear: float = 1.0

    def __post_init__(self) -> None:
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
        return asdict(self)

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
        f"swerling1(snr_linear={scenario.target.snr_linear!r})"
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
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0, block_index))))


def _child_seed(seed: int, grid_index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence((seed, 1, grid_index)).generate_state(1, np.uint64)[0])


def _run_block(scenario: Scenario, multiplier: float, cut_scale: float,
               block_index: int, size: int) -> tuple[int, int]:
    import numpy as np

    spec = scenario.detector
    row = FAMILIES[spec.family]
    rng = _block_generator(scenario.seed, block_index)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        stat = row.draw(scenario.clutter, spec, rng, rows)
        cut = intensity_from_uniform(scenario.clutter, 1.0 - rng.random(rows))
        return stat, cut * cut_scale

    # a draw beyond the float range (the Pareto power, or a divide by a tiny
    # rate) is inf, and an inf statistic makes an inf threshold, so H0, the
    # rule scan_profile applies to an overflowing ca_cfar sum; a multiplier
    # that rounds to 0 times inf is nan, also H0
    with np.errstate(over="ignore", invalid="ignore"):
        stat, cut = draw(size)
        redraws = 0
        if row.path is DecisionPath.PFA_COMPARISON:
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
        from concurrent.futures import ThreadPoolExecutor

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


@dataclass(frozen=True, eq=False)
class ScanResult(Sequence):
    """scan_profile's Decisions, held as columns and built only when read.

    h1 (bool), statistic_z0 and comparison_value (float64) are read-only
    arrays with one entry per eligible cell; path is the family's one
    DecisionPath. An int index gives a Decision, a slice a list of them,
    and iteration builds them one at a time by C-level iteration over the
    columns, with Python floats. A reader that drops each Decision after
    reading it leaves nothing for the cyclic garbage collector, and one that
    reads the columns builds no Decision at all. list(result) is the list
    of Decisions. A ScanResult equals a list or ScanResult holding equal
    Decisions in the same order, and, like a list, it is unhashable.
    """

    __slots__ = ("h1", "statistic_z0", "comparison_value", "path")

    h1: np.ndarray
    statistic_z0: np.ndarray
    comparison_value: np.ndarray
    path: DecisionPath

    def __post_init__(self) -> None:
        for column in (self.h1, self.statistic_z0, self.comparison_value):
            column.flags.writeable = False

    def _decisions(self, cells: slice) -> Iterator[Decision]:
        import numpy as np

        # tuple.__new__ through map builds each Decision without a Python call
        verdicts = np.array((Verdict.H0, Verdict.H1), dtype=object)[self.h1[cells].astype(np.intp)]
        columns = (verdicts.tolist(), self.statistic_z0[cells].tolist(),
                   self.comparison_value[cells].tolist(), repeat(self.path))
        return map(tuple.__new__, repeat(Decision), zip(*columns))

    def __len__(self) -> int:
        return len(self.h1)

    def __iter__(self) -> Iterator[Decision]:
        return self._decisions(slice(None))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._decisions(index))
        cell = operator.index(index)
        if cell < 0:
            cell += len(self)
        if not 0 <= cell < len(self):
            raise IndexError("ScanResult index out of range")
        return next(self._decisions(slice(cell, cell + 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, ScanResult)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __reduce__(self):
        # copy and pickle through __init__, which a frozen dataclass's slots need
        return ScanResult, (self.h1, self.statistic_z0, self.comparison_value, self.path)


def scan_profile(profile: Sequence[float] | np.ndarray, spec: DetectorSpec,
                 window_layout: WindowLayout) -> ScanResult:
    """Slide the detector across a range profile; one Decision per eligible cell.

    The window is the leading cells immediately before the cell under test
    plus the trailing cells immediately after, no guard cells. Cells without
    a full complement of neighbors are skipped, so a profile of exactly
    leading + trailing cells yields an empty result; anything shorter cannot
    hold a single window and is a configuration error. The profile is a
    sequence of floats or a 1-D array; a value that is negative or not
    finite is a ValueError naming the first such value.

    Evaluation is columnar: detectors.scan_windows takes the whole profile
    and gives every comparison value and verdict at once, with the same
    bits as the family's per-cell decide (for ca_cfar, the exactly rounded
    window sums), in blocks it sizes itself. -0.0 samples are 0.0 in the
    statistics, as in CrpWindow, while statistic_z0 keeps the profile's
    values. No per-cell object is built: a Decision is made when it is
    read from the returned ScanResult.

    One case that decide does not answer has a defined outcome here:
    bayes_os at a window whose k-th order statistic is zero takes the
    t -> 0+ limit of its false-alarm probability. A cell z0 > 0 gets
    comparison value 0.0 and H1, a cell z0 = 0 gets 1.0 and H0 (the
    threshold form m * t is 0 there, as for min_cfar at a zero minimum).
    ca_cfar at a window whose sum exceeds the float range forms the
    threshold m * sum exactly, as ca_cfar_decide does, and it is inf, so
    H0, only if that product overflows (as min_cfar prints for an
    overflowing m * min).
    """
    import numpy as np

    # our own copy: the result's statistic_z0 column is a view of it
    values = np.array(profile, dtype=float)
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
    comparison, h1 = scan_windows(values, window_layout, spec)
    return ScanResult(h1, values[lead:len(values) - trail], comparison,
                      FAMILIES[spec.family].path)
