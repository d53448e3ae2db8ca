"""Clutter distributions and window statistics.

Exponential and Pareto Type II (Lomax) intensity models, inverse-CDF
sampling off a caller-supplied random stream, the order-statistic / sum
statistics extracted from a clutter range profile window (one window, or
the sum, minimum or k-th smallest of every window of a profile segment at
once, from one fold over the segment's dyadic runs), and direct draws of
those statistics from their distributions for the Monte Carlo harness.

Pareto convention used throughout: survival function (1 + t/beta)^(-alpha),
with shape alpha and scale beta. Conventions differ between texts, so tests
pin this one down.

The scalar statistics and densities are plain float arithmetic; numpy is
imported by the array functions (the inverse-CDF transform and the sliding
window statistics) when they first run, not with the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence, Union

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

# uniforms per chunk of a Pareto window_sum_draws
_DRAW_CHUNK_FLOATS = 2**20


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


def intensity_from_uniform(model: ClutterModel, u: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF transform of uniforms on (0, 1] to intensities of model.

    Exponential uses -ln(U)/lambda and Pareto Type II uses beta*(U^(-1/alpha) - 1).
    The (0, 1] convention keeps ln and the negative power finite; U = 1 maps
    to the distribution's lower endpoint 0.

    As with numpy's ufuncs, out (which may be u itself) receives the result
    and is returned; without it a new array is. The bits are those of the
    formulas above either way: ln(U) divided by -lambda is -ln(U)/lambda, as
    negation is exact, and the Pareto power is taken as u ** (-1/alpha), so
    numpy's scalar-power paths stay the same.
    """
    import numpy as np

    if isinstance(model, ExponentialClutter):
        x = np.log(u, out=out)
        return np.divide(x, -model.rate_lambda, out=x)
    if isinstance(model, ParetoClutter):
        x = u ** (-1.0 / model.shape_alpha)
        np.subtract(x, 1.0, out=x)
        return np.multiply(x, model.scale_beta, out=x if out is None else out)
    raise TypeError(f"unsupported clutter model: {type(model).__name__}")


def _draw_intensities(model: ClutterModel, rng_stream: np.random.Generator,
                      shape: int | tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    # clutter's one sampling transform: intensity_from_uniform of 1 - U for
    # U[0, 1) of the given shape, drawn into out (or a new array) and
    # transformed there in place
    import numpy as np

    u = rng_stream.random(shape, out=out)
    np.subtract(1.0, u, out=u)
    return intensity_from_uniform(model, u, out=u)


def sample(model: ClutterModel, count: int, rng_stream: np.random.Generator) -> list[float]:
    """Draw count i.i.d. intensities from model: intensity_from_uniform of 1 - U[0, 1)."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return _draw_intensities(model, rng_stream, count).tolist()


def kth_smallest_draws(model: ClutterModel, n: int, k: int,
                       rng_stream: np.random.Generator, size: int) -> np.ndarray:
    """size draws of the k-th smallest of n i.i.d. intensities of model.

    The k-th largest of n uniforms is Beta(n - k + 1, k) (David & Nagaraja,
    Order Statistics), and intensity_from_uniform is decreasing, so it maps
    that uniform to the k-th smallest intensity: one draw instead of n.
    """
    # Generator.beta has no out=, so its array is the one this allocates
    u = rng_stream.beta(n - k + 1, k, size)
    return intensity_from_uniform(model, u, out=u)


def window_sum_draws(model: ClutterModel, n: int,
                     rng_stream: np.random.Generator, size: int) -> np.ndarray:
    """size draws of the sum of n i.i.d. intensities of model.

    An exponential sum is Gamma(n, 1/lambda), one draw; a Pareto sum has no
    closed form and is summed from n transformed uniforms on (0, 1]. Those
    are drawn in chunks of at most 2**20 uniforms, and at least one row of n,
    so memory does not grow with size; the stream yields the same uniforms
    in chunks as in one draw, and each row is summed alike.
    """
    import numpy as np

    if isinstance(model, ExponentialClutter):
        sums = rng_stream.standard_gamma(n, size)
        return np.divide(sums, model.rate_lambda, out=sums)

    sums = np.empty(size)
    rows = max(1, _DRAW_CHUNK_FLOATS // n)
    for start in range(0, size, rows):
        chunk = min(rows, size - start)
        sums[start:start + chunk] = _draw_intensities(model, rng_stream, (chunk, n)).sum(axis=1)
    return sums


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


@lru_cache(maxsize=4096)
def _fold_plan(lead: int, trail: int,
               k: int) -> tuple[bool, tuple[tuple[int, int, tuple | None], ...]]:
    # _window_runs' fold for one layout, planned once per (lead, trail, k):
    # whether equal sides are one shared run, and the steps (run, shift,
    # net) in order. Run -1 joins the dyadic block with itself shift cells
    # on, doubling its width; run r joins onto its state the block's runs
    # from cell shift, its next uncovered cell. A run of length L takes the
    # blocks named by L's binary digits, low first, and the block doubles
    # only while a run needs more. net is None at k = 1, for the sums and
    # the minima. At k > 1 it is the join's merge network as comparators
    # (i, j, low, high), low np.minimum where the comparator's min is formed
    # and high np.maximum where its max is, else None. Liveness runs
    # backward from the wires the splits read, leading wires k - trail - 1
    # .. k - 1 and trailing wires k - lead - 1 .. k - 1 within each run: a
    # comparator half whose wire nothing later reads is not formed
    shared = bool(lead == trail and lead & (lead - 1))
    runs = ((0, lead),) if shared else ((0, lead), (lead + 1, trail))
    # each step with the lengths of the two runs it joins: the block's and
    # the run's so far, the blocks of the run length's lower digits
    steps, width = [], 1
    while True:
        for r, (start, length) in enumerate(runs):
            if length & width:
                done = length & (width - 1)
                steps.append((r, start + done, width, done))
        if 2 * width > max(lead, trail):
            break
        steps.append((-1, width, width, width))
        width *= 2
    if k == 1:
        return shared, tuple((run, shift, None) for run, shift, _, _ in steps)
    import numpy as np

    live = [set(range(max(0, k - trail - 1), min(lead, k))),
            set(range(max(0, k - lead - 1), min(trail, k)))]
    if shared:
        live[0] |= live[1]
    block, plan = set(), []
    for run, shift, ny, nx in reversed(steps):
        out = set(block if run < 0 else live[run])
        if not nx:
            # a run's first slice: it reads what the run's later steps do
            plan.append((run, shift, None))
            block |= out
            continue
        comparators = []
        for i, j in reversed(_merge_network(ny + nx)):
            if i in out or j in out:
                comparators.append((i, j, np.minimum if i in out else None,
                                    np.maximum if j in out else None))
                out |= {i, j}
        plan.append((run, shift, tuple(reversed(comparators))))
        ys, xs = {w for w in out if w < ny}, {w - ny for w in out if w >= ny}
        if run < 0:
            block = ys | xs
        else:
            block |= ys
            live[run] = xs
    return shared, tuple(reversed(plan))


def _window_runs(cells: list, lead: int, trail: int,
                 join: Callable[..., list], plan: tuple) -> tuple:
    # The states of every window's leading run, cells i .. i + lead - 1, and
    # trailing run, i + lead + 1 .. i + lead + trail, for each i up to
    # len(segment) - lead - trail, from the states of a segment's cells; an
    # empty side's is None. A state is a list of equal-length arrays, and
    # join(x, y, shift, rows, net) is the state of run x[i] followed by run
    # y[i + shift], for i < rows, from slices it takes itself. Dyadic blocks
    # B_0 = cells, B_{j+1}[i] = join(B_j[i], B_j[i + 2**j]) hold the runs of
    # 2**j cells, and a run of length L joins the blocks named by L's binary
    # digits: O(log n) whole-array steps, not O(n), in the order plan, the
    # layout's _fold_plan, gives, each join handed its step's net. Equal
    # sides are one run, read lead + 1 apart, where they take joins: a power
    # of two is a slice of one block, with no join to share
    rows = len(cells[0]) - lead - trail
    shared, steps = plan
    span = rows + lead + 1 if shared else rows
    states, block = [None, None], cells
    for run, shift, net in steps:
        if run < 0:
            block = join(block, block, shift, len(block[0]) - shift, net)
        elif states[run] is None:
            states[run] = [a[shift:shift + span] for a in block]
        else:
            states[run] = join(states[run], block, shift, span, net)
    if not shared:
        return states[0], states[1]
    run = states[0]
    return [a[:rows] for a in run], [a[lead + 1:] for a in run]


def _two_sum_join(x: list, y: list, shift: int, rows: int, net: None = None) -> list:
    # run x[i] followed by run y[i + shift], each a (sum, error sum) state:
    # the sums by TwoSum (Knuth), whose error e is exact, and e added to the
    # error sums. A single cell's state is [sample], its error sum an
    # implicit zero
    s1, s2 = x[0][:rows], y[0][shift:shift + rows]
    s = s1 + s2
    z = s - s1
    e = (s1 - (s - z)) + (s2 - z)
    if len(x) > 1:
        e += x[1][:rows]
    if len(y) > 1:
        e += y[1][shift:shift + rows]
    return [s, e]


def _certified_sums(samples: np.ndarray, lead: int,
                    trail: int) -> tuple[np.ndarray, np.ndarray, bool]:
    # The sum of every window of a segment (see _window_runs), which
    # windows it is certified exactly rounded for, and whether that is
    # every window. The caller sets np.errstate(over="ignore",
    # invalid="ignore"): sums may overflow. Samples must be >= 0,
    # which scan_profile guarantees. Each window's (s, c) comes from exactly
    # n - 1 TwoSums (Ogita, Rump & Oishi, "Accurate sum and dot product",
    # SIAM J. Sci. Comput. 26(6), 2005), one per join of two disjoint runs,
    # so the window sum is exactly S = s + sum(e_j) over its n - 1 errors,
    # and c sums the e_j by a tree of n - 2 additions. With u = 2**-53:
    # - Samples are >= 0 and rounding is monotone, so every partial sum s_j
    #   of the join tree is <= the root s, and |e_j| <= u * s_j <= u * s:
    #   sum |e_j| <= (n - 1) * u * s, which bounds every exact partial sum
    #   of c.
    # - Every sample is a multiple of q, the ulp of the least nonzero
    #   sample, and so is every rounded sum of multiples of q: one under
    #   2**53 * q is a float, and a float above that has a spacing that q
    #   divides. So every e_j is a multiple of q, and where
    #   (n - 1) * u * s < 2**53 * q every partial sum of c is exact, c =
    #   sum(e_j), and r = fl(s + c) is S rounded, ties included. These
    #   windows, all-zero ones among them, are certified outright below
    #   q * 2**(106 - bit_length(n - 2)), a power of two at most that bound,
    #   and below 2**1023, so that r cannot overflow where fsum would not.
    # - Elsewhere c is off by at most B = gamma_{n-2} * (n - 1) * u * s, with
    #   gamma_m = m * u / (1 - m * u) (Higham, Accuracy and Stability of
    #   Numerical Algorithms, 2nd ed., section 4.2).
    # - |c| <= n * u * s <= s, so (r, d) = FastTwoSum(s, c) (Dekker) is
    #   exact, r + d = s + c, and |S - r| <= |d| + B.
    # - h, half the spacing below r, is a power of two, so if |d| +
    #   fl(kappa * s) rounds to less than h, then |d| + B < h provided
    #   fl(kappa * s) >= B, and r is S rounded. kappa = 4 (n - 2)(n - 1) u**2
    #   has a factor 2 over B, far more than a normal product's rounding
    #   takes; and outside the outright windows kappa * s >= 2**-1073, so a
    #   subnormal product is off by at most a quarter of it.
    # Other exact ties (|d| = h), overflowed sums and NaN fail both tests
    # and are not certified
    import numpy as np

    n = lead + trail
    kappa = 4.0 * max(n - 2, 0) * (n - 1) * 2.0 ** -106
    least = samples.min()
    if least == 0.0:
        least = np.min(samples, where=samples > 0.0, initial=math.inf)
    q = math.ulp(least)
    exact = min(q * 2.0 ** (106 - (n - 2).bit_length()), 2.0 ** 1023)
    leading, trailing = _window_runs([samples], lead, trail, _two_sum_join,
                                     _fold_plan(lead, trail, 1))
    state = (_two_sum_join(leading, trailing, 0, len(leading[0])) if lead and trail
             else leading or trailing)
    s, c = state if len(state) == 2 else (state[0], 0.0)
    r = s + c
    certified = s < exact
    every = bool(certified.all())
    # the bound on c's rounding, for windows whose c may have rounded
    if not every:
        d = c - (r - s)
        # the float below a positive r has r's bits less 1; at r = 0
        # this is NaN, and such windows rest on the test of s
        below = (r.view(np.int64) - 1).view(np.float64)
        half_spacing = 0.5 * (r - below)
        certified |= np.abs(d) + kappa * s < half_spacing
        every = bool(certified.all())
    return r, certified, every


def _scaled_window_sums(multiplier: float, samples: np.ndarray, lead: int,
                        trail: int) -> np.ndarray:
    # _scaled_window_sum of every window of a segment (see _window_runs), with
    # its bits: certified windows take multiplier * their certified sum, the
    # rest (near ties, overflow) go through _scaled_window_sum
    import numpy as np

    # the sums are this call's own array, and the products take their place:
    # one past the float range is inf, and a multiplier that rounds to 0
    # times an overflowed sum is nan, a window that is not certified
    with np.errstate(over="ignore", invalid="ignore"):
        sums, certified, every = _certified_sums(samples, lead, trail)
        limit = np.multiply(multiplier, sums, out=sums)
    if not every:
        for i in np.flatnonzero(~certified).tolist():
            window = (samples[i:i + lead].tolist()
                      + samples[i + lead + 1:i + lead + 1 + trail].tolist())
            limit[i] = _scaled_window_sum(multiplier, window)
    return limit


# the longest run sorted by networks: the largest that beat np.partition in
# every repeat on 1 008 and 4 096 cells (at 13 and 14 the two tie in noise)
_NETWORK_MAX_RUN = 12


@lru_cache(maxsize=None)
def _merge_network(length: int) -> tuple[tuple[int, int], ...]:
    # the last stage of Batcher's odd-even merge sort (AFIPS 1968) on length
    # wires: it merges the sorted first `half` with the sorted rest, as
    # comparators (i, j), i < j, that put the smaller value on wire i, less
    # those that touch padding (+inf, which none moves)
    half = 1 << (length - 1).bit_length() - 1
    pairs, k = [], half
    while k:
        pairs += [(i, i + k) for j in range(k % half, 2 * half - k, 2 * k)
                  for i in range(j, min(j + k, 2 * half - k)) if i + k < length]
        k //= 2
    return tuple(pairs)


def _merge_join(x: list, y: list, shift: int, rows: int, net: tuple) -> list:
    # sorted runs x[i] and y[i + shift] as one sorted run, as far as the
    # comparators of net form it (see _fold_plan): wire i holds its (i+1)-th
    # smallest wherever a later step reads it, and a value nothing reads
    # elsewhere. In every join of _window_runs, y is a dyadic block of the
    # largest power of two below the total length, Batcher's sorted first
    # `half`, so it takes the first wires; order does not change a sorted run
    wires = [a[shift:shift + rows] for a in y] + [a[:rows] for a in x]
    for i, j, low, high in net:
        a, b = wires[i], wires[j]
        if low:
            wires[i] = low(a, b)
        if high:
            wires[j] = high(a, b)
    return wires


def _window_kth_smallest(samples: np.ndarray, lead: int, trail: int, k: int) -> np.ndarray:
    # The k-th smallest of every window of a segment (see _window_runs), with
    # sorted(window)[k - 1]'s bits: np.minimum, np.maximum and partition
    # each return one of their inputs, so any grouping gives its value
    import numpy as np

    if k > 1 and max(lead, trail) > _NETWORK_MAX_RUN:
        # the segment's windows as the rows of a matrix, which scan_profile's
        # blocks keep to at most 2**20 samples, partitioned in place
        from numpy.lib.stride_tricks import sliding_window_view

        block = sliding_window_view(samples, lead + trail + 1)
        windows = np.concatenate((block[:, :lead], block[:, lead + 1:]), axis=1)
        windows.partition(k - 1, axis=1)
        return windows[:, k - 1]
    # at k = 1 each side's run is its least alone, on one wire
    if k == 1:
        leading, trailing = _window_runs([samples], lead, trail, lambda x, y, shift, rows, net: [
            np.minimum(x[0][:rows], y[0][shift:shift + rows])], _fold_plan(lead, trail, 1))
        return np.minimum(trailing[0], leading[0]) if lead and trail else (leading or trailing)[0]
    # at k > 1 each is sorted by networks pruned to the wires the splits
    # read. The k-th smallest of sorted runs A and B together is the least
    # max(A_i, B_{k-i}) over the splits i, with A_0 = B_0 = -inf
    leading, trailing = _window_runs([samples], lead, trail, _merge_join,
                                     _fold_plan(lead, trail, k))
    if not (lead and trail):
        return (leading or trailing)[k - 1]
    # the splits 0 < i < k, of which there is at least one, are reduced into
    # the first one's array, which is this call's own; the splits i = 0 and
    # i = k are wires, views of dyadic blocks both runs share, and are only
    # read
    inner = range(max(1, k - trail), min(lead, k - 1) + 1)
    least = np.maximum(leading[inner[0] - 1], trailing[k - inner[0] - 1])
    if len(inner) > 1:
        split = np.empty_like(least)
        for i in inner[1:]:
            np.minimum(least, np.maximum(leading[i - 1], trailing[k - i - 1], out=split),
                       out=least)
    if k <= trail:
        np.minimum(least, trailing[k - 1], out=least)
    if k <= lead:
        np.minimum(least, leading[k - 1], out=least)
    return least
