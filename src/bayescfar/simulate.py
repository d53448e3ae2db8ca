"""Monte Carlo calibration harness.

Trials are partitioned into fixed 65536-trial blocks. Block b of a run with
master seed s draws from a Philox stream keyed by SeedSequence((s, 0, b)),
and results are combined by integer counting, so the outcome is identical
for any worker count and any scheduling order. Grid sweeps derive one child
seed per grid point from SeedSequence((s, 1, i)) so the points are
independent but still reproducible from the master seed alone.

One call schedules all of its blocks at once: a sweep's worker loops, one
per worker up to the number of blocks, take every block of every grid point
from one shared queue, in one thread pool for the call (the calling thread
alone at one worker), and add each block's counts to its point as it
finishes, so no point waits on the slowest block of the one before and
memory does not grow with the number of blocks.

A trial never builds its window: a block of m trials draws m window
statistics straight from their distribution (the family's draw entry in
detectors.FAMILIES: clutter_models.kth_smallest_draws or window_sum_draws),
then m cells under test as intensity_from_uniform of 1 - U[0, 1). Under the
pfa-comparison rule, which divides by the statistic, trials whose statistic
is zero are redrawn the same way, statistics first, from the same stream.

A block runs in place: its cells are drawn, reflected and transformed in a
buffer its worker loop owns, its threshold is formed in the statistic
array, and its redraw and hit flags go to a second buffer of the loop's,
so the per-element operations are those of the formulas, without a new
array for each. Redraws take fresh arrays, never the buffers they are
scattered into.

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
import operator
import os as _os
import threading
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING

from .clutter_models import (
    ClutterModel,
    ExponentialClutter,
    ParetoClutter,
    _draw_intensities,
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
        try:  # an int or a numpy integer, not 1.5 or "2"
            workers = operator.index(workers)
        except TypeError:
            raise ConfigurationError(
                f"worker count must be an integer, got {workers!r}"
            ) from None
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


def _run_block(scenario: Scenario, multiplier: float, block_index: int,
               size: int, cells: np.ndarray, flags: np.ndarray) -> tuple[int, int]:
    # cells (float) and flags (bool) are the worker's own buffers of at least
    # size elements; the block writes only their first size
    import numpy as np

    spec = scenario.detector
    row = FAMILIES[spec.family]
    clutter = scenario.clutter
    rng = _block_generator(scenario.seed, block_index)

    def draw_cells(count: int, out: np.ndarray | None = None) -> np.ndarray:
        # count cells' intensities, drawn and transformed in out if given
        u = _draw_intensities(clutter, rng, count, out)
        if scenario.target is not None:
            # a Swerling-1 cell under test is clutter scaled by 1 + snr
            u *= 1.0 + scenario.target.snr_linear
        return u

    # a draw beyond the float range (the Pareto power, or a divide by a tiny
    # rate) is inf, and an inf statistic makes an inf threshold, so H0, the
    # rule scan_profile applies to an overflowing ca_cfar sum; a multiplier
    # that rounds to 0 times inf is nan, also H0
    with np.errstate(over="ignore", invalid="ignore"):
        stat = row.draw(clutter, spec, rng, size)
        cut = draw_cells(size, cells[:size])
        redraws = 0
        if row.path is DecisionPath.PFA_COMPARISON:
            bad = np.less_equal(stat, 0.0, out=flags[:size])
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
                # fresh arrays, never the buffers indexed here
                stat[bad] = row.draw(clutter, spec, rng, count)
                cut[bad] = draw_cells(count)
                bad = np.less_equal(stat, 0.0, out=flags[:size])
        threshold = np.multiply(stat, multiplier, out=stat)
        hits = int(np.count_nonzero(np.greater(cut, threshold, out=flags[:size])))
    return hits, redraws


def _run_blocks(points: Sequence[Scenario], workers: int | None) -> list[tuple[int, int]]:
    """(hits, redraws) of each point, from one schedule of all their blocks."""
    import numpy as np

    start = perf_counter()
    multipliers = [threshold_multiplier(point.detector) for point in points]
    blocks = sum(-(-point.trials // BLOCK_SIZE) for point in points)
    jobs = (
        (i, b, min(BLOCK_SIZE, point.trials - first))
        for i, point in enumerate(points)
        for b, first in enumerate(range(0, point.trials, BLOCK_SIZE))
    )
    hits = [0] * len(points)
    redraws = [0] * len(points)
    lock = threading.Lock()

    def worker_loop() -> None:
        # takes blocks until none are left, in buffers of its own
        cells = np.empty(BLOCK_SIZE)
        flags = np.empty(BLOCK_SIZE, dtype=bool)
        while True:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            i, block_index, size = job
            block_hits, block_redraws = _run_block(
                points[i], multipliers[i], block_index, size, cells, flags
            )
            with lock:
                hits[i] += block_hits
                redraws[i] += block_redraws

    nworkers = min(_worker_count(workers), blocks)
    if nworkers == 1:
        worker_loop()
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            loops = [pool.submit(worker_loop) for _ in range(nworkers)]
            for loop in loops:
                loop.result()
    if logger.isEnabledFor(logging.DEBUG):
        seconds = perf_counter() - start
        trials = sum(point.trials for point in points)
        logger.debug(
            "%d points, %d blocks, %d workers: %.3f s, %.4g trials/s, %d redraws",
            len(points), blocks, nworkers, seconds,
            trials / seconds if seconds > 0 else math.inf, sum(redraws),
        )
    return list(zip(hits, redraws))


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
    [(hits, redraws)] = _run_blocks([scenario], workers)
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
    [(hits, redraws)] = _run_blocks([scenario], workers)
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
    seed, so the whole sweep is reproducible from (seed, grid): report i
    equals estimate_pfa of point i. The blocks of every point run in one
    schedule (one thread pool for the call, none at one worker), and the
    reports do not depend on the worker count or on the order blocks finish.
    """
    if not isinstance(scenario.clutter, ExponentialClutter):
        raise ConfigurationError("cfar_sweep varies the exponential rate; use exponential clutter")
    if len(lambda_grid) == 0:
        raise ConfigurationError("lambda_grid must not be empty")
    for rate in lambda_grid:
        if not (0 < rate < math.inf):
            raise ConfigurationError(f"clutter rates must be finite and positive, got {rate}")
    if scenario.target is not None:
        raise ConfigurationError("estimate_pfa runs clutter-only trials; drop the target")
    points = [
        replace(
            scenario,
            clutter=ExponentialClutter(rate_lambda=float(rate)),
            seed=_child_seed(scenario.seed, i),
        )
        for i, rate in enumerate(lambda_grid)
    ]
    reports = [
        _report(point, hits, redraws)
        for point, (hits, redraws) in zip(points, _run_blocks(points, workers))
    ]
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "cfar_sweep over %d rates: max pairwise deviation %.3f SE",
            len(reports), max_pairwise_deviation_se(reports),
        )
    return reports
