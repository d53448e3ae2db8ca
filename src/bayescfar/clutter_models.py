"""Clutter distributions and window statistics.

Exponential and Pareto Type II (Lomax) intensity models, inverse-CDF
sampling off a caller-supplied random stream, the order-statistic / sum
statistics extracted from a clutter range profile window, and direct draws
of those statistics from their distributions for the Monte Carlo harness.

Pareto convention used throughout: survival function (1 + t/beta)^(-alpha),
with shape alpha and scale beta. Conventions differ between texts, so tests
pin this one down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .numerics import binom

__all__ = [
    "ExponentialClutter",
    "ParetoClutter",
    "ClutterModel",
    "CrpWindow",
    "OsStatistic",
    "intensity_from_uniform",
    "sample",
    "kth_smallest_draws",
    "window_sum_draws",
    "kth_order_statistic",
    "os_density",
    "window_sum",
]


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


@dataclass(frozen=True)
class OsStatistic:
    """The k-th smallest window sample, tagged with the (k, n) it came from."""

    value_t: float
    index_k: int
    window_size_n: int

    def __post_init__(self) -> None:
        if not (1 <= self.index_k <= self.window_size_n):
            raise ValueError(
                f"order statistic index {self.index_k} outside 1..{self.window_size_n}"
            )
        if not (self.value_t >= 0):
            raise ValueError(f"order statistic value must be nonnegative, got {self.value_t}")


def intensity_from_uniform(model: ClutterModel, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform of uniforms on (0, 1] to intensities of model.

    Exponential uses -ln(U)/lambda and Pareto Type II uses beta*(U^(-1/alpha) - 1).
    The (0, 1] convention keeps ln and the negative power finite; U = 1 maps
    to the distribution's lower endpoint 0.
    """
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


def kth_order_statistic(window: CrpWindow, k: int) -> OsStatistic:
    """k-th smallest sample of the window; duplicates keep their multiplicity."""
    if not (1 <= k <= window.n):
        raise ValueError(f"k={k} outside 1..{window.n}")
    ordered = sorted(window.samples)
    return OsStatistic(ordered[k - 1], k, window.n)


def os_density(t: float, n: int, k: int, rate_lambda: float) -> float:
    """Density of the k-th order statistic of n i.i.d. exponential(rate) draws.

    f(t) = lambda * k * C(n,k) * (1 - e^{-lambda t})^{k-1} * e^{-lambda t (n-k+1)}.
    At t = 0 the (k-1)-th power limit gives lambda*n for k = 1 and 0 for k > 1.
    """
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside 1..{n}")
    if not (t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    if not (rate_lambda > 0):
        raise ValueError(f"rate_lambda must be positive, got {rate_lambda}")
    lt = rate_lambda * t
    c = binom(n, k)
    grow = -math.expm1(-lt)  # 1 - e^{-lt}, accurate near 0
    decay = -lt * (n - k + 1)
    if k > 1 and grow == 0.0:
        return 0.0
    if c.exact:
        val = rate_lambda * k * c.value * grow ** (k - 1) * math.exp(decay)
        if math.isfinite(val) and val > 0.0:
            return val
        if t == 0.0 or decay < -745.0:
            return val if math.isfinite(val) else 0.0
    log_body = decay if k == 1 else (k - 1) * math.log(grow) + decay
    log_val = math.log(rate_lambda * k) + c.log() + log_body
    return math.exp(log_val) if log_val > -745.0 else 0.0


def window_sum(window: CrpWindow) -> float:
    """Sum of all window samples (the cell-averaging statistic up to 1/N)."""
    return math.fsum(window.samples)
