"""Sliding-window decision rules and the table of detector families.

A family is one choice of clutter-level measure g (the k-th order
statistic, the minimum or the sum of the window), the multiplier m of the
threshold m * g, and the false-alarm curve they imply: one FamilyRow in
FAMILIES, which every consumer reads instead of branching on the family.
Each row decides one cell at a time (decide, the reference) and a whole
block of windows at once (scan, which simulate.scan_profile uses); the two
give the same bits.

All rules declare a detection when the cell under test strictly exceeds
m * g. The Bayesian order-statistic rule is evaluated the other way round,
by comparing the predictive false-alarm probability of the observed cell
against the design value, which avoids inverting the Pfa curve; strict
monotonicity makes the two phrasings equivalent.

Ties sit with H0 everywhere: H1 requires a strict inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .clutter_models import (
    ClutterModel,
    CrpWindow,
    kth_order_statistic,
    kth_smallest_draws,
    window_sum_draws,
)
from .numerics import solve_monotone_decreasing
from .predictive import OsPredictive, _os_product, os_pfa

__all__ = [
    "FAMILIES",
    "Family",
    "FamilyRow",
    "Verdict",
    "DecisionPath",
    "DetectorSpec",
    "Decision",
    "DegenerateWindowError",
    "bayes_os_decide",
    "bayes_os_threshold",
    "min_cfar_decide",
    "ca_cfar_decide",
    "custom_g_decide",
    "threshold_multiplier",
]


class Family(str, Enum):
    BAYES_OS = "bayes_os"
    MIN_CFAR = "min_cfar"
    CA_CFAR = "ca_cfar"


class Verdict(str, Enum):
    H0 = "H0"
    H1 = "H1"


class DecisionPath(str, Enum):
    THRESHOLD = "threshold"
    PFA_COMPARISON = "pfa_comparison"


class DegenerateWindowError(ValueError):
    """The window statistic is zero where the rule needs it positive."""


@dataclass(frozen=True)
class DetectorSpec:
    """Detector family, window size, order index (OS families), design Pfa."""

    family: Family
    n: int
    design_pfa: float
    k: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if self.n < 1:
            raise ValueError(f"window size n must be at least 1, got {self.n}")
        if not (0.0 < self.design_pfa < 1.0):
            raise ValueError(f"design_pfa must lie in (0, 1), got {self.design_pfa}")
        if self.family is Family.BAYES_OS:
            if self.k is None:
                raise ValueError("bayes_os requires an order index k")
            if not (1 <= self.k <= self.n):
                raise ValueError(f"k={self.k} outside 1..{self.n}")
        elif self.family is Family.MIN_CFAR:
            if self.k not in (None, 1):
                raise ValueError("min_cfar is the k=1 rule; leave k unset or 1")
        elif self.k is not None:
            raise ValueError(f"{self.family.value} takes no order index k")


@dataclass(frozen=True)
class Decision:
    """One verdict with the quantity the cell was compared against.

    comparison_value is the evaluated false-alarm probability on the
    pfa_comparison path and the threshold tau*g on the threshold path.
    """

    verdict: Verdict
    statistic_z0: float
    comparison_value: float
    path: DecisionPath


def _require_window(window: CrpWindow, spec: DetectorSpec) -> None:
    if window.n != spec.n:
        raise ValueError(f"window has {window.n} samples but the detector expects {spec.n}")


def _require_z0(z0: float) -> None:
    if not (z0 >= 0) or not math.isfinite(z0):
        raise ValueError(f"z0 must be finite and nonnegative, got {z0}")


def bayes_os_decide(z0: float, window: CrpWindow, spec: DetectorSpec) -> Decision:
    """Bayesian order-statistic rule via the comparison shortcut.

    Evaluates the predictive false-alarm probability at the observed cell
    and rejects H0 when it falls strictly below the design value. No
    threshold is ever solved for.
    """
    if spec.family is not Family.BAYES_OS:
        raise ValueError(f"bayes_os_decide needs a bayes_os spec, got {spec.family.value}")
    _require_z0(z0)
    _require_window(window, spec)
    t = kth_order_statistic(window, spec.k).value_t
    if t == 0.0:
        raise DegenerateWindowError(
            f"order statistic k={spec.k} of the window is zero; the rule is undefined"
        )
    pfa_at_z0 = os_pfa(z0, OsPredictive(spec.n, spec.k, t))
    verdict = Verdict.H1 if pfa_at_z0 < spec.design_pfa else Verdict.H0
    return Decision(verdict, z0, pfa_at_z0, DecisionPath.PFA_COMPARISON)


@lru_cache(maxsize=4096)
def _bayes_multiplier(n: int, k: int, design_pfa: float) -> float:
    # tau for unit order statistic; thresholds scale linearly in t
    unit = OsPredictive(n, k, 1.0)
    return solve_monotone_decreasing(lambda m: os_pfa(m, unit), design_pfa)


def bayes_os_threshold(spec: DetectorSpec, t: float) -> float:
    """Explicit threshold tau with os_pfa(tau; n, k, t) = design_pfa.

    k = 1 has the closed form t*n*(1/pfa - 1); other k invert the Pfa curve
    by bisection. The multiplier tau/t depends only on (n, k, pfa), so it is
    solved once at t = 1 and cached.
    """
    if spec.family is not Family.BAYES_OS:
        raise ValueError(f"bayes_os_threshold needs a bayes_os spec, got {spec.family.value}")
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"observed order statistic must be positive, got {t}")
    if spec.k == 1:
        return t * spec.n * (1.0 / spec.design_pfa - 1.0)
    return t * _bayes_multiplier(spec.n, spec.k, spec.design_pfa)


def _bayes_os_scan(z0: np.ndarray, windows: np.ndarray,
                   spec: DetectorSpec) -> tuple[np.ndarray, np.ndarray, DecisionPath]:
    # a zero order statistic takes the t -> 0+ limit of the product: x = inf
    # (Pfa 0, H1) for z0 > 0 and x = 0 (Pfa 1, H0) for z0 = 0
    t = np.partition(windows, spec.k - 1, axis=1)[:, spec.k - 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.where(z0 > 0.0, z0 / t, 0.0)
    pfa = _os_product(x, spec.n, spec.k)
    return pfa, pfa < spec.design_pfa, DecisionPath.PFA_COMPARISON


def _ca_threshold(multiplier: float, samples: Sequence[float]) -> float:
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


def _threshold_rule(family: Family, threshold: Callable[[float, Sequence[float]], float],
                    doc: str) -> Callable[[float, CrpWindow, DetectorSpec], Decision]:
    def decide(z0: float, window: CrpWindow, spec: DetectorSpec) -> Decision:
        if spec.family is not family:
            raise ValueError(
                f"{family.value}_decide needs a {family.value} spec, got {spec.family.value}"
            )
        _require_z0(z0)
        _require_window(window, spec)
        limit = threshold(FAMILIES[family].multiplier(spec), window.samples)
        verdict = Verdict.H1 if z0 > limit else Verdict.H0
        return Decision(verdict, z0, limit, DecisionPath.THRESHOLD)

    decide.__name__ = decide.__qualname__ = f"{family.value}_decide"
    decide.__doc__ = doc
    return decide


def _threshold_scan(
    thresholds: Callable[[float, np.ndarray], np.ndarray],
) -> Callable[[np.ndarray, np.ndarray, DetectorSpec], tuple[np.ndarray, np.ndarray, DecisionPath]]:
    def scan(z0: np.ndarray, windows: np.ndarray,
             spec: DetectorSpec) -> tuple[np.ndarray, np.ndarray, DecisionPath]:
        with np.errstate(over="ignore"):
            limit = thresholds(FAMILIES[spec.family].multiplier(spec), windows)
        return limit, z0 > limit, DecisionPath.THRESHOLD

    return scan


min_cfar_decide = _threshold_rule(
    Family.MIN_CFAR, lambda m, samples: m * min(samples),
    "Minimum-based rule: H1 iff z0 > n*(1/pfa - 1) * min(window).",
)
ca_cfar_decide = _threshold_rule(
    Family.CA_CFAR, _ca_threshold,
    """Cell-averaging rule: H1 iff z0 > (pfa^(-1/n) - 1) * sum(window).

    The multiplier is exactly calibrated in exponential clutter; the
    simulation harness certifies that rather than trusting it. The sum is
    exactly rounded; where it exceeds the float range the threshold is still
    formed exactly, and is inf (so H0) only if it overflows itself.
    """,
)


def custom_g_decide(z0: float, window: CrpWindow, tau: float,
                    g: Callable[[CrpWindow], float]) -> Decision:
    """General rule H1 iff z0 > tau * g(window), for a caller-supplied g."""
    _require_z0(z0)
    if not (tau >= 0) or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    threshold = tau * g(window)
    verdict = Verdict.H1 if z0 > threshold else Verdict.H0
    return Decision(verdict, z0, threshold, DecisionPath.THRESHOLD)


class FamilyRow(NamedTuple):
    """Everything that differs between detector families.

    scan is the columnar counterpart of decide: given the cells under test
    z0 and their windows as the rows of a (rows, n) matrix, it returns each
    cell's comparison value, whether it is H1, and the DecisionPath, with
    the same bits decide gives cell by cell (bayes_os also answers at a zero
    statistic, where decide raises; see simulate.scan_profile).
    draw(clutter, spec, rng, rows) gives rows independent draws of the
    statistic decide uses, taken over a window of spec.n clutter samples,
    straight from its distribution (see clutter_models.kth_smallest_draws
    and window_sum_draws); pfa(tau, t, spec) is the false-alarm probability
    of threshold tau at statistic t, so pfa(multiplier(spec), 1, spec) is the
    design value; positive_statistic marks a rule undefined at a zero statistic.
    """

    decide: Callable[[float, CrpWindow, DetectorSpec], Decision]
    scan: Callable[[np.ndarray, np.ndarray, DetectorSpec],
                   tuple[np.ndarray, np.ndarray, DecisionPath]]
    draw: Callable[[ClutterModel, DetectorSpec, np.random.Generator, int], np.ndarray]
    multiplier: Callable[[DetectorSpec], float]
    pfa: Callable[[float, float, DetectorSpec], float]
    positive_statistic: bool = False


FAMILIES: dict[Family, FamilyRow] = {
    Family.BAYES_OS: FamilyRow(
        bayes_os_decide,
        _bayes_os_scan,
        lambda clutter, spec, rng, rows: kth_smallest_draws(clutter, spec.n, spec.k, rng, rows),
        lambda spec: bayes_os_threshold(spec, 1.0),
        lambda tau, t, spec: os_pfa(tau, OsPredictive(spec.n, spec.k, t)),
        positive_statistic=True,
    ),
    Family.MIN_CFAR: FamilyRow(
        min_cfar_decide,
        _threshold_scan(lambda m, w: m * w.min(axis=1)),
        lambda clutter, spec, rng, rows: kth_smallest_draws(clutter, spec.n, 1, rng, rows),
        lambda spec: spec.n * (1.0 / spec.design_pfa - 1.0),
        lambda tau, t, spec: os_pfa(tau, OsPredictive(spec.n, 1, t)),
    ),
    Family.CA_CFAR: FamilyRow(
        ca_cfar_decide,
        _threshold_scan(
            lambda m, w: np.fromiter((_ca_threshold(m, r) for r in w.tolist()), float, len(w))
        ),
        lambda clutter, spec, rng, rows: window_sum_draws(clutter, spec.n, rng, rows),
        lambda spec: spec.design_pfa ** (-1.0 / spec.n) - 1.0,
        lambda tau, t, spec: (1.0 + tau / t) ** -spec.n,
    ),
}


def threshold_multiplier(spec: DetectorSpec) -> float:
    """The scalar m with threshold = m * (window statistic) for spec's family.

    The statistic is the k-th order statistic for bayes_os, the minimum for
    min_cfar, and the window sum for ca_cfar.
    """
    return FAMILIES[spec.family].multiplier(spec)
