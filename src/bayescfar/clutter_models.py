"""Clutter distributions and window statistics.

Exponential and Pareto Type II (Lomax) intensity models, inverse-CDF
sampling off a caller-supplied random stream, the order-statistic / sum
statistics extracted from a clutter range profile window (one window or a
whole window matrix), and direct draws of those statistics from their
distributions for the Monte Carlo harness.

Pareto convention used throughout: survival function (1 + t/beta)^(-alpha),
with shape alpha and scale beta. Conventions differ between texts, so tests
pin this one down.

The scalar statistics and densities are plain float arithmetic; numpy is
imported by the array functions (the inverse-CDF transform and the window
matrix sums) when they first run, not with the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

from .predictive import OsPredictive, posterior_lambda_os

__all__ = [
    "ExponentialClutter",
    "ParetoClutter",
    "ClutterModel",
    "CrpWindow",
    "intensity_from_uniform",
    "sample",
    "kth_smallest_draws",
    "window_sum_draws",
    "kth_order_statistic",
    "os_density",
    "window_sum",
]

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ExponentialClutter:
    """Exponential intensity with rate rate_lambda (mean 1/rate_lambda)."""

    rate_lambda: float

    def __post_init__(self) -> None:
        if not (0 < self.rate_lambda < math.inf):
            raise ValueError(f"rate_lambda must be finite and positive, got {self.rate_lambda}")

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.rate_lambda * math.exp(-self.rate_lambda * x)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-self.rate_lambda * x)

    def mean(self) -> float:
        return 1.0 / self.rate_lambda


@dataclass(frozen=True)
class ParetoClutter:
    """Pareto Type II (Lomax) intensity: survival (1 + x/beta)^(-alpha)."""

    shape_alpha: float
    scale_beta: float

    def __post_init__(self) -> None:
        if not (0 < self.shape_alpha < math.inf):
            raise ValueError(f"shape_alpha must be finite and positive, got {self.shape_alpha}")
        if not (0 < self.scale_beta < math.inf):
            raise ValueError(f"scale_beta must be finite and positive, got {self.scale_beta}")

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        a, b = self.shape_alpha, self.scale_beta
        return (a / b) * (1.0 + x / b) ** -(a + 1.0)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-self.shape_alpha * math.log1p(x / self.scale_beta))

    def mean(self) -> float:
        # finite only for alpha > 1
        if self.shape_alpha <= 1:
            return math.inf
        return self.scale_beta / (self.shape_alpha - 1.0)


ClutterModel = Union[ExponentialClutter, ParetoClutter]


@dataclass(frozen=True)
class CrpWindow:
    """A clutter range profile window: N nonnegative intensity samples."""

    samples: tuple[float, ...]

    def __init__(self, samples: Sequence[float]):
        # + 0.0 stores a -0.0 sample as 0.0, so min and sums see one zero
        vals = tuple(float(s) + 0.0 for s in samples)
        if len(vals) < 1:
            raise ValueError("window must contain at least one sample")
        for s in vals:
            if not (s >= 0) or not math.isfinite(s):
                raise ValueError(f"window samples must be finite and nonnegative, got {s}")
        object.__setattr__(self, "samples", vals)

    @property
    def n(self) -> int:
        return len(self.samples)


def intensity_from_uniform(model: ClutterModel, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform of uniforms on (0, 1] to intensities of model.

    Exponential uses -ln(U)/lambda and Pareto Type II uses beta*(U^(-1/alpha) - 1).
    The (0, 1] convention keeps ln and the negative power finite; U = 1 maps
    to the distribution's lower endpoint 0.
    """
    import numpy as np

    if isinstance(model, ExponentialClutter):
        return -np.log(u) / model.rate_lambda
    if isinstance(model, ParetoClutter):
        return model.scale_beta * (u ** (-1.0 / model.shape_alpha) - 1.0)
    raise TypeError(f"unsupported clutter model: {type(model).__name__}")


def sample(model: ClutterModel, count: int, rng_stream: np.random.Generator) -> list[float]:
    """Draw count i.i.d. intensities from model: intensity_from_uniform of 1 - U[0, 1)."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return intensity_from_uniform(model, 1.0 - rng_stream.random(count)).tolist()


def kth_smallest_draws(model: ClutterModel, n: int, k: int,
                       rng_stream: np.random.Generator, size: int) -> np.ndarray:
    """size draws of the k-th smallest of n i.i.d. intensities of model.

    The k-th largest of n uniforms is Beta(n - k + 1, k) (David & Nagaraja,
    Order Statistics), and intensity_from_uniform is decreasing, so it maps
    that uniform to the k-th smallest intensity: one draw instead of n.
    """
    return intensity_from_uniform(model, rng_stream.beta(n - k + 1, k, size))


def window_sum_draws(model: ClutterModel, n: int,
                     rng_stream: np.random.Generator, size: int) -> np.ndarray:
    """size draws of the sum of n i.i.d. intensities of model.

    An exponential sum is Gamma(n, 1/lambda), one draw; a Pareto sum has no
    closed form and is summed from n transformed uniforms on (0, 1].
    """
    if isinstance(model, ExponentialClutter):
        return rng_stream.standard_gamma(n, size) / model.rate_lambda
    return intensity_from_uniform(model, 1.0 - rng_stream.random((size, n))).sum(axis=1)


def kth_order_statistic(window: CrpWindow, k: int) -> float:
    """k-th smallest sample of the window; duplicates keep their multiplicity."""
    if not (1 <= k <= window.n):
        raise ValueError(f"k={k} outside 1..{window.n}")
    return sorted(window.samples)[k - 1]


def os_density(t: float, n: int, k: int, rate_lambda: float) -> float:
    """Density of the k-th order statistic of n i.i.d. exponential(rate) draws.

    f(t) = lambda * k * C(n,k) * (1 - e^{-lambda t})^{k-1} * e^{-lambda t (n-k+1)}.
    That is (lambda/t) * posterior_lambda_os(lambda; t), and since the
    posterior depends on lambda and t only through lambda * t, it is the
    posterior with the two swapped, which is how it is evaluated. At t = 0
    the (k-1)-th power limit gives lambda*n for k = 1 and 0 for k > 1.
    """
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside 1..{n}")
    if not (t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    if not (0 < rate_lambda < math.inf):
        raise ValueError(f"rate_lambda must be finite and positive, got {rate_lambda}")
    if t == 0.0:
        return rate_lambda * n if k == 1 else 0.0
    return posterior_lambda_os(t, OsPredictive(n, k, rate_lambda))


def window_sum(window: CrpWindow) -> float:
    """Sum of all window samples (the cell-averaging statistic up to 1/N).

    The exactly rounded sum, or inf where the exact sum is beyond the float
    range.
    """
    return _scaled_window_sum(1.0, window.samples)


def _scaled_window_sum(multiplier: float, samples: Sequence[float]) -> float:
    # multiplier * the exactly rounded sum. A sum beyond the float range is
    # formed at scale 2**-shift: exact for every sample above 2**(shift - 1022),
    # and smaller ones lie far under the rounding of so large a sum
    try:
        return multiplier * math.fsum(samples)
    except OverflowError:
        shift = len(samples).bit_length()
        scaled = math.fsum(math.ldexp(s, -shift) for s in samples)
        try:
            return math.ldexp(multiplier * scaled, shift)
        except OverflowError:
            return math.inf


def _row_sums(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The sum of every row at once, and which rows it is certified exactly
    # rounded for. A TwoSum cascade (Ogita, Rump & Oishi, "Accurate sum and dot
    # product", SIAM J. Sci. Comput. 26(6), 2005) keeps the running sum s and
    # each step's exact error e_j; the row sum is then exactly s + sum(e_j).
    # c and a are the rounded sums of e_j and |e_j|, so c is off by at most
    # gamma * a, and (r, d) = TwoSum(s, c) leaves the sum within |d| + gamma * a
    # of r. That bound lies strictly inside r's rounding interval (the smaller
    # half-spacing, below r) or is zero (c then exact, and r = fl(s + c) is the
    # rounded sum); other rows, and any that overflowed, are not certified.
    import numpy as np

    rows, n = windows.shape
    # c adds n - 1 errors with n - 2 roundings of unit roundoff 2**-53; the
    # factor 2 covers the rounding of a and of gamma * a
    gamma = 2.0 * max(n - 2, 0) * 2.0 ** -53
    with np.errstate(over="ignore", invalid="ignore"):
        s = windows[:, 0]
        c = np.zeros(rows)
        a = np.zeros(rows)
        for w in windows.T[1:]:
            t = s + w
            tw = t - s
            e = (s - (t - tw)) + (w - tw)
            s = t
            c += e
            a += np.abs(e)
        r = s + c
        rc = r - s
        d = (s - (r - rc)) + (c - rc)
        bound = gamma * a
        half_spacing = 0.5 * (r - np.nextafter(r, 0.0))
        certified = ((bound == 0.0) | (np.abs(d) + bound < half_spacing)) & np.isfinite(r)
    return r, certified


def _scaled_window_sums(multiplier: float, windows: np.ndarray) -> np.ndarray:
    # _scaled_window_sum of every row, with its bits: certified rows take
    # multiplier * the cascade sum, the rest (near ties, overflow) go through
    # _scaled_window_sum
    import numpy as np

    sums, certified = _row_sums(windows)
    # a multiplier that rounds to 0 times an overflowed sum is nan; that row
    # is not certified and is redone below
    with np.errstate(invalid="ignore"):
        limit = multiplier * sums
    for i in np.flatnonzero(~certified).tolist():
        limit[i] = _scaled_window_sum(multiplier, windows[i].tolist())
    return limit
