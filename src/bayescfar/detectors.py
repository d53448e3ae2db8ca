"""Sliding-window decision rules, built once from a table of detector families.

Every rule here is one construction: a measure g of the clutter level in the
window, and the predictive false-alarm probability of a threshold tau on the
cell under test, which under the reciprocal prior depends only on x = tau/g.
bayes_os takes the k-th order statistic, with Pfa(x) = prod_{j=n-k+1}^{n}
j/(j+x); min_cfar is its k = 1 case (criterion 2); ca_cfar takes the window
sum, with Pfa(x) = (1 + x)^-n. A FamilyRow in FAMILIES holds just these
ingredients, and decide, the columnar scan_windows, the multiplier and the
threshold are built from them once, for every family.

A threshold-path rule declares a detection when the cell under test strictly
exceeds m * g. The Bayesian order-statistic rule compares Pfa(z0/g) against
the design value instead, which avoids inverting the curve; strict
monotonicity makes the two phrasings equivalent. Ties sit with H0
everywhere: H1 requires a strict inequality.

A decision and a threshold are float arithmetic on the rows' scalar
entries; numpy is imported by the columnar entries and scan_windows when
they first run, not with the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .clutter_models import (
    ClutterModel,
    CrpWindow,
    _scaled_window_sum,
    _scaled_window_sums,
    _window_minima,
    kth_order_statistic,
    kth_smallest_draws,
    window_sum_draws,
)
from .numerics import NumericsError, solve_monotone_decreasing
from .predictive import _os_product, _require_order_bound
from .predictive import os_pfa  # noqa: F401  (perfbench traces os_pfa here)

__all__ = [
    "FAMILIES",
    "SCAN_BLOCK_ROWS",
    "Family",
    "FamilyRow",
    "KRule",
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
    "predictive_pfa",
    "scan_windows",
    "threshold",
    "threshold_multiplier",
]

if TYPE_CHECKING:
    import numpy as np

    from .simulate import WindowLayout


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


class KRule(str, Enum):
    """The order index k a family takes: 1..n, unset or 1, or none."""

    REQUIRED = "required"
    ONE = "one"
    NONE = "none"


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
        name, rule = self.family.value, FAMILIES[self.family].k_rule
        if rule is KRule.REQUIRED and self.k is None:
            raise ValueError(f"{name} requires an order index k")
        if rule is KRule.REQUIRED and not (1 <= self.k <= self.n):
            raise ValueError(f"k={self.k} outside 1..{self.n}")
        if rule is KRule.REQUIRED:
            _require_order_bound(self.k)
        if rule is KRule.ONE and self.k not in (None, 1):
            raise ValueError(f"{name} is the k=1 rule; leave k unset or 1")
        if rule is KRule.NONE and self.k is not None:
            raise ValueError(f"{name} takes no order index k")


class Decision(NamedTuple):
    """One verdict with the quantity the cell was compared against.

    comparison_value is the evaluated false-alarm probability on the
    pfa_comparison path and the threshold tau*g on the threshold path.
    An immutable NamedTuple: a simulate.ScanResult builds one from its
    columns, without a Python call, only when the Decision is read.
    """

    verdict: Verdict
    statistic_z0: float
    comparison_value: float
    path: DecisionPath


def _require_z0(z0: float) -> None:
    if not (z0 >= 0) or not math.isfinite(z0):
        raise ValueError(f"z0 must be finite and nonnegative, got {z0}")


def _require_statistic(t: float) -> None:
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"the window statistic must be finite and positive, got {t}")


def _order(spec: DetectorSpec) -> int:
    # min_cfar leaves k unset for its fixed k = 1
    return spec.k or 1


# cells per block of scan_windows: sums and minima take arrays of about
# cells + n samples, but a k-th order statistic with k > 1 partitions a
# (cells, n) window matrix and takes (k, cells) Pfa factors, so its blocks
# hold at most _SCAN_BLOCK_FLOATS samples (and at least one cell)
SCAN_BLOCK_ROWS = 4096
_SCAN_BLOCK_FLOATS = 2**20


def _os_statistic_rows(m: float, samples: np.ndarray, layout: WindowLayout,
                       spec: DetectorSpec) -> np.ndarray:
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    k, lead = _order(spec), layout.leading
    if k == 1:
        return m * _window_minima(samples, lead, layout.trailing)
    # the segment's windows as the rows of a matrix, which scan_windows'
    # blocks keep to at most _SCAN_BLOCK_FLOATS samples
    block = sliding_window_view(samples, spec.n + 1)
    windows = np.concatenate((block[:, :lead], block[:, lead + 1:]), axis=1)
    return m * np.partition(windows, k - 1, axis=1)[:, k - 1]


class FamilyRow(NamedTuple):
    """A family as the note builds it: a clutter-level statistic g and Pfa(x).

    statistic(m, window, spec) is m * g of one CrpWindow in scalar code, the
    per-cell reference (g itself is the m = 1 call); statistic_rows(m,
    samples, layout, spec) is the same, with the same bits, for every window
    of a 1-D segment of a profile, a block of scan_windows. The sum and the
    minimum are formed from the segment with O(log n) array steps and no
    window matrix; the k-th order statistic for k > 1 partitions a matrix
    of the segment's windows, which scan_windows' blocks bound.
    draw(clutter, spec, rng, rows) gives rows draws of g over spec.n clutter
    samples straight from its law; pfa(x, spec) is the predictive Pfa at
    x = tau/g, for a float or an array; k_rule is the order index the family
    takes; multiplier(spec) is the closed-form m with pfa(m) = design_pfa,
    or None to solve for it. path says how decide compares: z0 against the
    threshold m * g, or pfa(z0/g) against the design value, the one path
    that divides by g and so needs it positive.
    """

    statistic: Callable[[float, CrpWindow, DetectorSpec], float]
    statistic_rows: Callable[[float, np.ndarray, WindowLayout, DetectorSpec], np.ndarray]
    draw: Callable[[ClutterModel, DetectorSpec, np.random.Generator, int], np.ndarray]
    pfa: Callable[[Any, DetectorSpec], Any]
    k_rule: KRule
    path: DecisionPath
    multiplier: Callable[[DetectorSpec], float | None]


# bayes_os and min_cfar share the k-th order statistic, its draws, the curve
# prod j/(j+x) and, at k = 1 where that curve is n/(n+x), the closed form
_ORDER_STATISTIC = dict(
    statistic=lambda m, window, spec: m * kth_order_statistic(window, _order(spec)),
    statistic_rows=_os_statistic_rows,
    draw=lambda clutter, spec, rng, rows: kth_smallest_draws(
        clutter, spec.n, _order(spec), rng, rows),
    pfa=lambda x, spec: _os_product(x, spec.n, _order(spec)),
    multiplier=lambda spec: (spec.n * (1.0 / spec.design_pfa - 1.0)
                             if _order(spec) == 1 else None),
)

FAMILIES: dict[Family, FamilyRow] = {
    Family.BAYES_OS: FamilyRow(**_ORDER_STATISTIC, k_rule=KRule.REQUIRED,
                               path=DecisionPath.PFA_COMPARISON),
    Family.MIN_CFAR: FamilyRow(**_ORDER_STATISTIC, k_rule=KRule.ONE,
                               path=DecisionPath.THRESHOLD),
    Family.CA_CFAR: FamilyRow(
        statistic=lambda m, window, spec: _scaled_window_sum(m, window.samples),
        statistic_rows=lambda m, samples, layout, spec: _scaled_window_sums(
            m, samples, layout.leading, layout.trailing),
        draw=lambda clutter, spec, rng, rows: window_sum_draws(clutter, spec.n, rng, rows),
        pfa=lambda x, spec: (1.0 + x) ** -spec.n,
        k_rule=KRule.NONE,
        path=DecisionPath.THRESHOLD,
        multiplier=lambda spec: spec.design_pfa ** (-1.0 / spec.n) - 1.0,
    ),
}


@lru_cache(maxsize=4096)
def threshold_multiplier(spec: DetectorSpec) -> float:
    """The m with Pfa(m) = design_pfa, so that the threshold is m * g.

    The family's closed form where it has one, else the Pfa curve inverted
    by bisection; cached per spec. A closed form that overflows or is not
    finite raises NumericsError, as bisection does when it cannot reach the
    design value: 0 < pfa < 1 is valid input, and a multiplier beyond the
    float range is a numeric failure, not a usage error.
    """
    row = FAMILIES[spec.family]
    try:
        m = row.multiplier(spec)
    except OverflowError:  # ca_cfar's pfa ** (-1/n)
        m = math.inf
    if m is None:
        return solve_monotone_decreasing(lambda x: row.pfa(x, spec), spec.design_pfa)
    if not math.isfinite(m):
        raise NumericsError(
            f"the {spec.family.value} multiplier at design_pfa={spec.design_pfa!r} "
            "is beyond the float range"
        )
    return m


def threshold(spec: DetectorSpec, t: float) -> float:
    """The threshold tau = m * t at window statistic t, so Pfa(tau/t) = design_pfa.

    NumericsError where threshold_multiplier raises it; a finite m * t may still be inf.
    """
    _require_statistic(t)
    m = threshold_multiplier(spec)
    # the one override: bayes_os at k = 1 has always formed t * n * (1/pfa - 1),
    # which rounds differently from m * t on about 31% of inputs, and keeps it
    # so that its printed thresholds do not move
    if spec.family is Family.BAYES_OS and spec.k == 1:
        return t * spec.n * (1.0 / spec.design_pfa - 1.0)
    return m * t


# the name the library has always exported for the order-statistic threshold
bayes_os_threshold = threshold


def predictive_pfa(spec: DetectorSpec, tau: float, t: float) -> float:
    """False-alarm probability of threshold tau at window statistic t."""
    if not (tau >= 0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    _require_statistic(t)
    return FAMILIES[spec.family].pfa(tau / t, spec)


def _decide(family: Family, doc: str) -> Callable[[float, CrpWindow, DetectorSpec], Decision]:
    def decide(z0: float, window: CrpWindow, spec: DetectorSpec) -> Decision:
        if spec.family is not family:
            raise ValueError(
                f"{family.value}_decide needs a {family.value} spec, got {spec.family.value}"
            )
        _require_z0(z0)
        if window.n != spec.n:
            raise ValueError(f"window has {window.n} samples but the detector expects {spec.n}")
        row = FAMILIES[family]
        if row.path is DecisionPath.THRESHOLD:
            limit = row.statistic(threshold_multiplier(spec), window, spec)
            return Decision(Verdict.H1 if z0 > limit else Verdict.H0, z0, limit, row.path)
        g = row.statistic(1.0, window, spec)
        if g == 0.0:
            raise DegenerateWindowError(
                f"the {family.value} window statistic is zero; the rule is undefined"
            )
        pfa = row.pfa(z0 / g, spec)
        return Decision(Verdict.H1 if pfa < spec.design_pfa else Verdict.H0, z0, pfa, row.path)

    decide.__name__ = decide.__qualname__ = f"{family.value}_decide"
    decide.__doc__ = doc
    return decide


bayes_os_decide = _decide(
    Family.BAYES_OS,
    "Bayesian order-statistic rule: H1 iff os_pfa(z0; n, k, t) < pfa, no threshold solved.",
)
min_cfar_decide = _decide(
    Family.MIN_CFAR, "Minimum-based rule: H1 iff z0 > n*(1/pfa - 1) * min(window).",
)
ca_cfar_decide = _decide(
    Family.CA_CFAR,
    """Cell-averaging rule: H1 iff z0 > (pfa^(-1/n) - 1) * sum(window).

    The sum is exactly rounded (math.fsum); beyond the float range the
    threshold is still formed exactly, and is inf (H0) only if it overflows.
    """,
)


def scan_windows(samples: np.ndarray, layout: WindowLayout,
                 spec: DetectorSpec) -> tuple[np.ndarray, np.ndarray]:
    """decide for every cell of a profile with a full window: comparison values and H1.

    samples is a 1-D float array of at least spec.n values, and cell i of
    the result is samples[layout.leading + i], with the layout.leading
    samples before it and the layout.trailing after it as its window, for
    every i below len(samples) - spec.n. Statistics are formed a block of
    cells at a time (see SCAN_BLOCK_ROWS) from the segment its windows
    span, with -0.0 turned into 0.0 as in CrpWindow. The bits are decide's,
    cell by cell. A zero statistic on the pfa_comparison path, where decide
    raises, takes the g -> 0+ limit: Pfa 0 (H1) for z0 > 0 and Pfa 1 (H0)
    for z0 = 0.
    """
    import numpy as np

    row = FAMILIES[spec.family]
    cells = len(samples) - spec.n
    z0 = samples[layout.leading:layout.leading + cells]
    comparison = np.empty(cells)
    rows = (SCAN_BLOCK_ROWS if spec.k in (None, 1)
            else max(1, min(SCAN_BLOCK_ROWS, _SCAN_BLOCK_FLOATS // spec.n)))
    # an overflowing threshold is inf (H0); z0 / g at g = 0 is replaced by the limit
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, cells, rows):
            block = slice(start, min(start + rows, cells))
            segment = samples[start:block.stop + spec.n] + 0.0
            if row.path is DecisionPath.THRESHOLD:
                comparison[block] = row.statistic_rows(
                    threshold_multiplier(spec), segment, layout, spec)
            else:
                g = row.statistic_rows(1.0, segment, layout, spec)
                comparison[block] = row.pfa(np.where(z0[block] > 0.0, z0[block] / g, 0.0), spec)
    if row.path is DecisionPath.THRESHOLD:
        return comparison, z0 > comparison
    return comparison, comparison < spec.design_pfa


def custom_g_decide(z0: float, window: CrpWindow, tau: float,
                    g: Callable[[CrpWindow], float]) -> Decision:
    """General rule H1 iff z0 > tau * g(window), for a caller-supplied g."""
    _require_z0(z0)
    if not (tau >= 0) or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    limit = tau * g(window)
    verdict = Verdict.H1 if z0 > limit else Verdict.H0
    return Decision(verdict, z0, limit, DecisionPath.THRESHOLD)
