"""Sliding-window decision rules, built once from a table of detector families.

Every rule here is one construction: a measure g of the clutter level in the
window, and the predictive false-alarm probability of a threshold tau on the
cell under test, which under the reciprocal prior depends only on x = tau/g.
bayes_os takes the k-th order statistic, with Pfa(x) = prod_{j=n-k+1}^{n}
j/(j+x); min_cfar is its k = 1 case (criterion 2); ca_cfar takes the window
sum, with Pfa(x) = (1 + x)^-n. A FamilyRow in FAMILIES holds just these
ingredients, and decide, the scan, the multiplier and the threshold are
built from them once, for every family.

A threshold-path rule declares a detection when the cell under test strictly
exceeds m * g. The Bayesian order-statistic rule compares Pfa(z0/g) against
the design value instead, which avoids inverting the curve; strict
monotonicity makes the two phrasings equivalent. Ties sit with H0
everywhere: H1 requires a strict inequality.

scan_profile, the scan's one home, checks a profile and its WindowLayout,
slides a rule along it a block of cells at a time, with each block's
window statistics from clutter_models' one engine of dyadic runs, and
returns a ScanResult, which builds a Decision only when one is read; decide
stays its oracle.

A decision and a threshold are float arithmetic on the rows' scalar
entries; numpy is imported by the columnar entries and scan_profile when
they first run, not with the module.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .clutter_models import (
    ClutterModel,
    CrpWindow,
    _scaled_window_sum,
    _scaled_window_sums,
    _window_kth_smallest,
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
    "ConfigurationError",
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
    "scan_profile",
    "ScanResult",
    "threshold",
    "threshold_multiplier",
    "WindowLayout",
]

if TYPE_CHECKING:
    import numpy as np


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


class ConfigurationError(ValueError):
    """A scenario or profile request that cannot be run as configured."""


def _require_integer(name: str, value: Any) -> None:
    try:  # an int or a numpy integer, as a sequence index takes
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class DetectorSpec:
    """Detector family, window size, order index (OS families), design Pfa."""

    family: Family
    n: int
    design_pfa: float
    k: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        _require_integer("window size n", self.n)
        if self.k is not None:
            _require_integer("order index k", self.k)
        if self.n < 1:
            raise ValueError(f"window size n must be at least 1, got {self.n}")
        if not (0.0 < self.design_pfa < 1.0):
            raise ValueError(f"design_pfa must lie in (0, 1), got {self.design_pfa}")
        object.__setattr__(self, "design_pfa", float(self.design_pfa))
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


@dataclass(frozen=True)
class WindowLayout:
    """How many neighbors on each side of the cell under test form the window."""

    leading: int
    trailing: int

    def __post_init__(self) -> None:
        _require_integer("leading", self.leading)
        _require_integer("trailing", self.trailing)
        if self.leading < 0 or self.trailing < 0:
            raise ValueError("leading and trailing counts must be nonnegative")
        if self.leading + self.trailing < 1:
            raise ValueError("the window must contain at least one cell")


class Decision(NamedTuple):
    """One verdict with the quantity the cell was compared against.

    comparison_value is the evaluated false-alarm probability on the
    pfa_comparison path and the threshold tau*g on the threshold path.
    An immutable NamedTuple: a ScanResult builds one from its
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


# cells per block of scan_profile, whose statistics take about cells + n samples
SCAN_BLOCK_ROWS = 4096


class FamilyRow(NamedTuple):
    """A family as the note builds it: a clutter-level statistic g and Pfa(x).

    statistic(m, window, spec) is m * g of one CrpWindow in scalar code, the
    per-cell reference (g itself is the m = 1 call); statistic_rows(m,
    samples, layout, spec) is the same, with the same bits, for every window
    of a 1-D segment of a profile, one block of scan_profile. It points at
    clutter_models, where one fold over dyadic runs of the segment's cells,
    planned once per layout and k, gives each window's sum, minimum or
    sorted runs (as far as its k-th smallest reads them) in O(log n) array
    steps and no window matrix; only the k-th smallest for k > 1 over long
    runs builds a matrix of the segment's windows, a chunk at a time. A
    product past the float range is inf, and it raises no floating-point
    warning: each statistic sets its own np.errstate.
    draw(clutter, spec, rng, rows) gives rows draws of g over spec.n clutter
    samples straight from its law; pfa(x, spec) is the predictive Pfa at
    x = tau/g, for a float or a 1-D array; k_rule is the order index the
    family takes; multiplier(spec) is the m with pfa(m) = design_pfa,
    always a float (inf past the float range), from a closed form or the
    family's own bisection of its curve. path says how decide compares: z0
    against the threshold m * g, or pfa(z0/g) against the design value, the
    one path that divides by g and so needs it positive.
    """

    statistic: Callable[[float, CrpWindow, DetectorSpec], float]
    statistic_rows: Callable[[float, np.ndarray, WindowLayout, DetectorSpec], np.ndarray]
    draw: Callable[[ClutterModel, DetectorSpec, np.random.Generator, int], np.ndarray]
    pfa: Callable[[Any, DetectorSpec], Any]
    k_rule: KRule
    path: DecisionPath
    multiplier: Callable[[DetectorSpec], float]


# Near design Pfa 1 the closed forms subtract nearly equal numbers: pfa**(-1/n)
# - 1 lost every digit at pfa = 1 - 2**-53, n = 200, giving m = 0.0. Where
# that difference is below 2**-10, forms without the subtraction take over;
# above it the ordinary forms stand, so printed thresholds keep their bytes
_CANCELLATION = 2.0**-10


def _ca_multiplier(spec: DetectorSpec) -> float:
    # (1 + m)^-n = pfa; inf where pfa ** (-1/n) overflows
    try:
        m = spec.design_pfa ** (-1.0 / spec.n) - 1.0
    except OverflowError:
        return math.inf
    return m if m >= _CANCELLATION else math.expm1(-math.log(spec.design_pfa) / spec.n)


def _odds(pfa: float) -> float:
    # 1/pfa - 1, the reciprocal rule's multiplier over n; 1 - pfa is exact
    # for pfa above 1/2
    odds = 1.0 / pfa - 1.0
    return odds if odds >= _CANCELLATION else (1.0 - pfa) / pfa


def _os_multiplier(spec: DetectorSpec) -> float:
    # n (1/pfa - 1) at k = 1, else the curve prod j/(j+x) bisected; but where
    # 1/pfa - 1 < _CANCELLATION, whose steps of 2**-53 put that solve off by
    # 0.57 at n = 5, k = 3, pfa = 1 - 2**-53, its log against log1p(pfa - 1)
    k, pfa = _order(spec), spec.design_pfa
    if k == 1:
        return spec.n * _odds(pfa)
    if 1.0 / pfa - 1.0 >= _CANCELLATION:
        return solve_monotone_decreasing(lambda x: _os_product(x, spec.n, k), pfa)
    j = range(spec.n - k + 1, spec.n + 1)
    return solve_monotone_decreasing(lambda x: -sum(math.log1p(x / i) for i in j),
                                     math.log1p(pfa - 1.0))


def _kth_smallest_rows(m: float, samples: np.ndarray, layout: WindowLayout,
                       spec: DetectorSpec) -> np.ndarray:
    # m * the k-th smallest of every window, inf where the product
    # overflows. At m = 1, the Pfa path's g, the product would have g's bits
    # and is not formed, so g may be a view of samples
    import numpy as np

    g = _window_kth_smallest(samples, layout.leading, layout.trailing, _order(spec))
    if m == 1.0:
        return g
    with np.errstate(over="ignore"):
        return m * g


# bayes_os and min_cfar share the k-th order statistic, its draws, the curve
# prod j/(j+x) and, at k = 1 where that curve is n/(n+x), the closed form
_ORDER_STATISTIC = dict(
    statistic=lambda m, window, spec: m * kth_order_statistic(window, _order(spec)),
    statistic_rows=_kth_smallest_rows,
    draw=lambda clutter, spec, rng, rows: kth_smallest_draws(
        clutter, spec.n, _order(spec), rng, rows),
    pfa=lambda x, spec: _os_product(x, spec.n, _order(spec)),
    multiplier=_os_multiplier,
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
        multiplier=_ca_multiplier,
    ),
}


@lru_cache(maxsize=4096)
def threshold_multiplier(spec: DetectorSpec) -> float:
    """The m with Pfa(m) = design_pfa, so that the threshold is m * g.

    The family row's multiplier, a closed form or its own bisection of the
    Pfa curve (near design Pfa 1 its log); cached per spec. A multiplier
    that is not finite raises NumericsError, as bisection does when it
    cannot reach the design value: 0 < pfa < 1 is valid input, and a
    multiplier beyond the float range is a numeric failure, not a usage
    error.
    """
    m = FAMILIES[spec.family].multiplier(spec)
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
    t, m = float(t), threshold_multiplier(spec)
    # the one override: bayes_os at k = 1 has always formed t * n * (1/pfa - 1),
    # which rounds differently from m * t on about 31% of inputs, and keeps it
    # so that its printed thresholds do not move
    if spec.family is Family.BAYES_OS and spec.k == 1:
        return t * spec.n * _odds(spec.design_pfa)
    return m * t


# the name the library has always exported for the order-statistic threshold
bayes_os_threshold = threshold


def predictive_pfa(spec: DetectorSpec, tau: float, t: float) -> float:
    """False-alarm probability of threshold tau at window statistic t."""
    if not (tau >= 0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    _require_statistic(t)
    return FAMILIES[spec.family].pfa(float(tau) / float(t), spec)


def _decide(family: Family, doc: str) -> Callable[[float, CrpWindow, DetectorSpec], Decision]:
    def decide(z0: float, window: CrpWindow, spec: DetectorSpec) -> Decision:
        if spec.family is not family:
            raise ValueError(
                f"{family.value}_decide needs a {family.value} spec, got {spec.family.value}"
            )
        _require_z0(z0)
        z0 = float(z0)
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
            column.setflags(write=False)

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


def _profile_values(profile: Sequence[float] | np.ndarray) -> np.ndarray:
    # the profile as a new float array. A list or tuple is packed as C doubles
    # by struct, one loop of PyFloat_AsDouble, and read back in place, so the
    # array is read-only; one struct cannot pack (an entry that is None, a
    # string or bytes, a sequence, or a number whose float conversion raises
    # or overflows) is left to np.array, whose values and errors scan_profile
    # keeps
    import numpy as np

    if type(profile) in (list, tuple):
        try:
            return np.frombuffer(struct.pack(f"{len(profile)}d", *profile), float)
        except struct.error:
            pass
    return np.array(profile, dtype=float)


def scan_profile(profile: Sequence[float] | np.ndarray, spec: DetectorSpec,
                 window_layout: WindowLayout) -> ScanResult:
    """Slide the detector across a range profile; one Decision per eligible cell.

    The window is the leading cells immediately before the cell under test
    plus the trailing cells immediately after, no guard cells. Cells without
    a full window are skipped, so a profile of exactly leading + trailing
    cells yields an empty result. A shorter profile, or a layout that does
    not supply spec.n cells, is a ConfigurationError. The profile is a
    sequence of floats or a 1-D array; a value that is negative or not
    finite is a ValueError naming the first such value. A list or tuple is
    packed as C doubles by struct.pack, which reads a float as it is and
    another number by its __float__ or __index__; one it cannot pack
    (holding None, a string or bytes, a sequence, or a number whose
    conversion raises) is read by np.array. So a profile gives the values
    and the errors of np.array(profile, dtype=float): a nested list is a
    ValueError naming its shape, None is nan, "2.5" and b"2.5" are 2.5, and
    10**400 is numpy's OverflowError. Two entries read otherwise: a float
    subclass that overrides __float__ is the float it holds, and an array
    of one element is that element where float() still reads one (a
    conversion older numpy allows and later numpy refuses).

    Statistics are formed a block of cells at a time (see SCAN_BLOCK_ROWS)
    from the segment its windows span, with -0.0 turned into 0.0 as in
    CrpWindow; statistic_z0 keeps the profile's values. Comparison values
    and verdicts have decide's bits, cell by cell (for ca_cfar, the exactly
    rounded window sums), and a Decision is built only when one is read.

    Where decide raises, at a zero k-th order statistic under bayes_os, the
    scan takes the t -> 0+ limit of the false-alarm probability: comparison
    value 0.0 and H1 for z0 > 0, 1.0 and H0 for z0 = 0 (as min_cfar's m * t
    is 0 there). ca_cfar at a window sum beyond the float range forms
    m * sum exactly, as ca_cfar_decide does; it is inf, so H0, only if that
    product overflows.
    """
    import numpy as np

    # our own copy: the result's statistic_z0 column is a view of it
    values = _profile_values(profile)
    if values.ndim != 1:
        raise ValueError(f"the profile must be one-dimensional, got shape {values.shape}")
    # two reductions vouch for every value (NaN fails the first); the first
    # bad one is looked for only when they do not
    if values.size and not (values.min() >= 0.0 and values.max() < math.inf):
        bad = ~(np.isfinite(values) & (values >= 0))
        first = float(values[np.argmax(bad)])
        raise ValueError(f"profile values must be finite and nonnegative, got {first}")
    # the statistics take Python ints; a layout of numpy integers is rebuilt
    lead, trail = operator.index(window_layout.leading), operator.index(window_layout.trailing)
    if lead is not window_layout.leading or trail is not window_layout.trailing:
        window_layout = WindowLayout(lead, trail)
    if lead + trail != spec.n:
        raise ConfigurationError(
            f"window layout supplies {lead + trail} cells but the detector expects {spec.n}"
        )
    if len(values) < lead + trail:
        raise ConfigurationError(
            f"profile of {len(values)} cells cannot hold a {lead}+{trail} window"
        )
    row = FAMILIES[spec.family]
    cells = len(values) - spec.n
    z0 = values[lead:lead + cells]
    blocks = range(0, cells, SCAN_BLOCK_ROWS)
    # one block's statistic, an array of its own and never a view of the
    # profile, is the column itself; several are stored into one column
    # (none, at an exact fit, is empty)
    comparison = None if len(blocks) == 1 else np.empty(cells)
    for start in blocks:
        block = slice(start, min(start + SCAN_BLOCK_ROWS, cells))
        segment = values[start:block.stop + spec.n] + 0.0
        if row.path is DecisionPath.THRESHOLD:
            # an overflowing threshold is inf (H0), under the statistic's own errstate
            column = row.statistic_rows(threshold_multiplier(spec), segment, window_layout, spec)
        else:
            g = row.statistic_rows(1.0, segment, window_layout, spec)
            # z0 / g at g = 0 takes the limit: 0 / 0 is NaN, which fmax
            # makes 0.0, Pfa 1, and z0 > 0 gives inf, Pfa 0. A -0.0 cell
            # gives -0.0 or 0.0, Pfa 1 either way
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x = np.divide(z0[block], g)
                column = row.pfa(np.fmax(x, 0.0, out=x), spec)
        if comparison is None:
            comparison = column
        else:
            comparison[block] = column
    if row.path is DecisionPath.THRESHOLD:
        h1 = z0 > comparison
    else:
        h1 = comparison < spec.design_pfa
    return ScanResult(h1, z0, comparison, row.path)


def custom_g_decide(z0: float, window: CrpWindow, tau: float,
                    g: Callable[[CrpWindow], float]) -> Decision:
    """General rule H1 iff z0 > tau * g(window), for a caller-supplied g."""
    _require_z0(z0)
    if not (tau >= 0) or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    z0, tau = float(z0), float(tau)
    limit = tau * g(window)
    verdict = Verdict.H1 if z0 > limit else Verdict.H0
    return Decision(verdict, z0, limit, DecisionPath.THRESHOLD)
