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

numpy is imported by the functions that make arrays (the block streams,
a block's draws) when they first run, not with the module.

scan_profile, WindowLayout, ScanResult and ConfigurationError are detectors'
objects, exported here too under the names this module has always had.
"""

from __future__ import annotations

import logging
import math
import os as _os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

from .clutter_models import (
    ClutterModel,
    ExponentialClutter,
    ParetoClutter,
    intensity_from_uniform,
)
from .detectors import (
    FAMILIES,
    ConfigurationError,
    DecisionPath,
    DetectorSpec,
    ScanResult,
    WindowLayout,
    _require_integer,
    scan_profile,
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
        _require_integer("trials", self.trials)
        _require_integer("seed", self.seed)
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
