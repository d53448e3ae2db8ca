"""Shared numerical routines.

Adaptive quadrature on (0, inf) and bracketed bisection for strictly
decreasing functions. The bisection's tolerance (1e-12 relative to the
root) and its iteration limit (200) are fixed: every threshold in the
package is solved to the same precision.

The quadrature is QUADPACK's QAGP (Piessens et al., 1983), ported here:
dqagpe's adaptive bisection, with qpsrt's ordering of the error estimates,
qelg's epsilon-algorithm extrapolation and the qk21 Gauss-Kronrod rule, on
the map u = x/(1+x). Its results, error estimates, evaluation points and
failures are QUADPACK's bit for bit; scipy is never imported. The first
pass of QAGP is a fixed rule on the breakpoint intervals, FirstPassRule: it
takes the integrand's values at its nodes, so a caller that integrates many
products f(x) * g(x) with one fixed g evaluates g once. Where that pass
does not meet QAGP's acceptance test, QAGP continues from it, seeded with
the pass's per-interval results, and calls f only at the points it adds.
One columnar qk21 serves the first pass and every bisection: it lays out
the nodes of a set of intervals in u, and sums f's values there, interval
by interval, in QUADPACK's order.

Inside this module every integrand takes an array of points and returns
the array of its values there, so each bisection makes one call for the 42
nodes of its two halves. The scalar API, integrate_semi_infinite and
FirstPassRule.integrate, wraps a scalar callable once, where it comes in,
calling it at each point in turn, in QUADPACK's order. Every other integral
goes through the rule's one private rows entry: many integrals at once, one
per row of a matrix of values, whose qk21 sums it forms for a chunk of rows
in one set of array operations. A row whose pass a rounded-up bound on
QAGP's error estimate certifies keeps the pass's sum, and every other row
runs QAGP from its pass, exactly as FirstPassRule.integrate does.

Everything here is a pure function or a rule fixed when it is built;
nothing holds state between calls. numpy is not imported with the module
but by the first FirstPassRule built, so the closed-form chain and the
bisection run without it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NumericsError",
    "EvaluationError",
    "QuadratureError",
    "RootFindingError",
    "TargetUnreachableError",
    "QuadratureSettings",
    "QuadratureResult",
    "FirstPassRule",
    "integrate_semi_infinite",
    "solve_monotone_decreasing",
]

# solve_monotone_decreasing bisects until its bracket is narrower than
# _ROOT_TOLERANCE relative to the root, in at most _ROOT_MAX_ITERATIONS steps
_ROOT_TOLERANCE = 1e-12
_ROOT_MAX_ITERATIONS = 200


class NumericsError(RuntimeError):
    """Base class for runtime numerical failures (as opposed to bad inputs)."""


class EvaluationError(NumericsError):
    """A supplied callable produced a non-finite or otherwise unusable value."""


class QuadratureError(NumericsError):
    """Quadrature failed to converge.

    Carries the best available estimate so callers can decide whether to
    proceed anyway.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class RootFindingError(NumericsError):
    """Root bracketing or bisection failed."""


class TargetUnreachableError(RootFindingError):
    """The target value lies above f(0), so no nonnegative root exists."""


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for adaptive quadrature.

    relative_tolerance and absolute_tolerance, finite and positive, mirror
    the usual epsrel/epsabs pair; max_subdivisions, an integer, bounds the
    adaptive refinement.
    """

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        for name in ("relative_tolerance", "absolute_tolerance"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")
        try:  # an int or a numpy integer, as a list's repetition takes
            operator.index(self.max_subdivisions)
        except TypeError:
            raise ValueError(
                f"max_subdivisions must be an integer, got {self.max_subdivisions!r}") from None
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


def _to_unit_interval(breakpoints: Sequence[float]) -> list[float]:
    # map x in (0, inf) to u = x/(1+x) in (0, 1), dropping degenerate images
    pts = sorted({x / (1.0 + x) for x in breakpoints if x > 0.0 and math.isfinite(x)})
    return [u for u in pts if 0.0 < u < 1.0]


# QUADPACK qk21 (Piessens et al., 1983): Kronrod abscissae on [-1, 1] from
# the outside in, with the centre last; entries 1, 3, ..., 9 are the
# 10-point Gauss nodes, whose weights are _WG
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980053640, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# qk21 adds the Gauss-node pairs first, then the Kronrod-only pairs; the
# rows of _Qk21Nodes are the centre, then centre - offset and
# centre + offset for the abscissae _XGK[_QK21_ORDER]
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max


@cache
def _qk21_columns() -> tuple[np.ndarray, ...]:
    # the tables as the column arrays _Qk21Nodes broadcasts against its
    # intervals, made when the first nodes are laid out: the abscissae and the
    # Kronrod weights in _QK21_ORDER, the Gauss weights, and the permutation
    # that puts pair rows back in abscissa order, as the spread term of
    # qk21's error estimate adds them
    import numpy as np

    order = np.array(_QK21_ORDER)
    return (np.array(_XGK)[order, None], np.array(_WGK)[order, None],
            np.array(_WG)[:, None], np.argsort(order))


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    # terms[..., 0] + terms[..., 1] + ... left to right, as QAGP's loops
    # add: an accumulation forms every partial sum in turn, where numpy
    # would reduce this contiguous axis pairwise
    import numpy as np

    return np.add.accumulate(terms, axis=-1)[..., -1]


# qk21 floors its error estimate at 50 epsilon times the integral of |f|,
# where that integral is above _UFLOW / (50 epsilon)
_ROUND_OFF = 50.0 * _EPMACH
_NEGLIGIBLE = _UFLOW / _ROUND_OFF


def _qk21_error(difference: float, magnitude: float, spread: float) -> float:
    # qk21's error estimate from |Kronrod - Gauss|, the integral of |f| and
    # that of |f - mean| over the interval; ** is C's pow, as in QUADPACK.
    # QUADPACK's min and max written out, NaN falling as theirs do, since
    # every interval qk21 takes goes through here
    error = difference
    if spread != 0.0 and error != 0.0:
        ratio = 200.0 * error / spread
        error = spread * ratio**1.5 if ratio < 1.0 else spread
    if magnitude > _NEGLIGIBLE:
        floor = _ROUND_OFF * magnitude
        if not error > floor:
            error = floor
    return error


# the rows pass bounds ratio**1.5 from above with numpy's power, which may
# differ from C's pow by an ulp: scaled up by 8 ulps, and raised by 16 of
# the subnormal spacing where the power is subnormal
_POW_SLACK = 1.0 + 2.0**-49
_POW_LIFT = 2.0**-1070


def _divide(a: float, b: float) -> float:
    # a / b in IEEE arithmetic, where Python raises on a zero divisor
    if b != 0.0:
        return a / b
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _qelg(n: int, table: list[float], last3: list[float], calls: int
          ) -> tuple[float, float, int, int]:
    # QUADPACK's qelg: Wynn's epsilon algorithm on the n partial sums in
    # table, updated in place. Returns the extrapolated value, its error
    # estimate, the new table length and the new call count; last3 holds the
    # last three extrapolated values, which the error estimate compares
    calls += 1
    error = _OFLOW
    result = table[n - 1]
    if n >= 3:
        table[n + 1] = table[n - 1]
        new = (n - 1) // 2
        table[n - 1] = _OFLOW
        num = k1 = n
        for i in range(1, new + 1):
            res = table[k1 + 1]
            e0, e1, e2 = table[k1 - 3], table[k1 - 2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged. qelg
                # leaves a full table full here, and the next call would write
                # past it (NaN sums get here every time, and scipy's QUADPACK
                # then crashes); the table is cut as the loop's end cuts it
                result, error = res, err2 + err3
                return result, max(error, 5.0 * _EPMACH * abs(result)), min(n, 49), calls
            e3 = table[k1 - 1]
            table[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: drop the table's tail
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            table[k1 - 1] = res
            k1 -= 2
            candidate = err2 + abs(res - e2) + err3
            if not candidate > error:
                error, result = candidate, res
        # shift the table
        if n == 50:
            n = 49
        start = 0 if num % 2 else 1
        for i in range(start, start + 2 * new + 2, 2):
            table[i] = table[i + 2]
        if num != n:
            table[:n] = table[num - n:num]
        if calls < 4:
            last3[calls - 1] = result
            error = _OFLOW
        else:
            error = abs(result - last3[2]) + abs(result - last3[1]) + abs(result - last3[0])
            last3[:] = last3[1], last3[2], result
    return result, max(error, 5.0 * _EPMACH * abs(result)), n, calls


def _qpsrt(limit: int, last: int, maxerr: int, elist: list[float], iord: list[int],
           nrmax: int) -> tuple[int, int]:
    # QUADPACK's qpsrt: keep iord, the interval indices by decreasing error,
    # in order after interval maxerr was bisected into itself and interval
    # last - 1; returns the interval to bisect next and its rank nrmax. As
    # QAGP calls it, last is at least 3
    errmax = elist[maxerr]
    for _ in range(nrmax):
        successor = iord[nrmax - 1]
        if errmax <= elist[successor]:
            break
        iord[nrmax] = successor
        nrmax -= 1
    # only as many ranks stay sorted as bisections remain
    bound = last if last <= limit // 2 + 2 else limit + 3 - last
    errmin = elist[last - 1]
    for i in range(nrmax + 1, bound - 1):
        successor = iord[i]
        if errmax >= elist[successor]:
            iord[i - 1] = maxerr
            k = bound - 2
            for _ in range(i, bound - 1):
                successor = iord[k]
                if errmin < elist[successor]:
                    iord[k + 1] = last - 1
                    break
                iord[k + 1] = successor
                k -= 1
            else:
                iord[i] = last - 1
            break
        iord[i - 1] = successor
    else:
        iord[bound - 2] = maxerr
        iord[bound - 1] = last - 1
    return iord[nrmax], nrmax


_QAGP_FAILURES = {
    1: "the subdivision limit was reached",
    2: "round-off error prevents the requested tolerance",
    3: "the integrand behaves extremely badly inside the interval",
    4: "the extrapolation table does not converge; round-off error",
    5: "the integral is probably divergent or slowly convergent",
}


def _qagp(
    f: Callable[[np.ndarray], np.ndarray],
    edges: list[float],
    first_pass: tuple[list[float], ...],
    settings: QuadratureSettings,
) -> QuadratureResult:
    # QUADPACK's dqagpe on (0, 1) in u from its first pass, which qk21 took
    # on the intervals between edges: their results, error estimates and
    # integrals of |f| and |f - mean|. Bisects the interval with the largest
    # error estimate, extrapolating with qelg once the smallest intervals
    # carry the largest errors, until the error estimate meets the tolerance;
    # raises QuadratureError, with the best estimate, when dqagpe sets ier > 0.
    # f takes an array of points. Names are dqagpe's; indices count from 0
    # where QUADPACK's count from 1
    epsabs, epsrel = settings.absolute_tolerance, settings.relative_tolerance
    rlist, elist, magnitudes, spreads = first_pass
    result = abserr = resabs = 0.0
    for area, error, magnitude in zip(rlist, elist, magnitudes):
        result += area
        abserr += error
        resabs += magnitude
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    # dqagpe accepts the first pass, or fails it to round-off, on these sums
    # alone: nothing below changes them
    ier = 2 if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd else 0
    if ier or abserr <= errbnd:
        return _settled(result, abserr, ier)

    nint = len(rlist)
    # at least two subintervals per interval, so dqagpe's own check that
    # the limit exceeds the breakpoints always passes
    limit = max(settings.max_subdivisions, 2 * nint)
    # an interval whose error estimate is its spread takes the whole error
    errsum = 0.0
    for i, (error, spread) in enumerate(zip(elist, spreads)):
        if error == spread and error != 0.0:
            elist[i] = abserr
        errsum += elist[i]
    last = nint
    # rank the intervals by error, a selection sort as dqagpe's
    iord = list(range(nint))
    for i in range(nint - 1):
        top, k = iord[i], i
        for j in range(i + 1, nint):
            if not elist[top] > elist[iord[j]]:
                top, k = iord[j], j
        iord[k], iord[i] = iord[i], top

    # qelg's table: up to 50 partial sums and the two slots it works in
    table = [0.0] * 52
    table[0] = result
    last3 = [0.0] * 3
    maxerr = iord[0]
    errmax = elist[maxerr]
    area = result
    nrmax = nres = ktmin = 0
    numrl2 = 1
    extrap = noext = False
    erlarg, ertest = errsum, errbnd
    levmax = 1
    iroff1 = iroff2 = iroff3 = ierro = 0
    abserr = _OFLOW
    correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1
    # room for every interval the limit allows
    pad = limit - nint
    alist, blist, rlist, elist = (column + [0.0] * pad
                                  for column in (edges[:-1], edges[1:], rlist, elist))
    level, iord = [0] * limit, iord + [0] * pad

    summed = False
    for last in range(nint + 1, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, area2), (error1, error2), _, (spread1, spread2) = _bisected(f, a1, b1, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (spread1 == error1 or spread2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] += 1
        level[last - 1] = level[maxerr]
        rlist[maxerr] = area1
        rlist[last - 1] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # round-off, the subdivision limit, or an interval too small to halve
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last - 1] = a1
            blist[last - 1] = b1
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist[last - 1] = error1
        else:
            alist[last - 1] = a2
            blist[maxerr] = b1
            blist[last - 1] = b2
            elist[maxerr] = error1
            elist[last - 1] = error2
        maxerr, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        errmax = elist[maxerr]
        if errsum <= errbnd:
            summed = True
            break
        if ier:
            break
        if noext:
            continue
        erlarg -= erlast
        if level[last - 1] + 1 <= levmax:
            erlarg += erro12
        if not extrap:
            # go on bisecting until the next interval is a smallest one
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 1
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest intervals carry the largest errors: bisect any
            # larger interval that is still among the worst first
            bound = last if last <= 2 + limit // 2 else limit + 3 - last
            larger = False
            for _ in range(nrmax, bound):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        table[numrl2 - 1] = area
        if numrl2 > 2:
            reseps, abseps, numrl2, nres = _qelg(numrl2, table, last3, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if not abseps >= abserr:
                ktmin = 0
                abserr, result, correc = abseps, reseps, erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier == 5:
                break
        # go on to bisect the smallest intervals
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        levmax += 1
        erlarg = errsum

    # no extrapolation succeeded: the intervals' sum stands
    summed = summed or abserr == _OFLOW
    if not summed:
        # the extrapolated value stands unless the intervals' sum is better
        # by its error estimate; then dqagpe's divergence test
        diverging = True
        if ier + ierro:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
                diverging = not summed
            elif abserr > errsum:
                summed, diverging = True, False
            elif area == 0.0:
                diverging = False
        if diverging and not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
            ratio = _divide(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        result = 0.0
        for value in rlist[:last]:
            result += value
        abserr = errsum
    return _settled(result, abserr, ier - 1 if ier > 2 else ier)


def _settled(result: float, abserr: float, ier: int) -> QuadratureResult:
    # QAGP's outcome: its estimates, or QuadratureError carrying them
    if ier:
        raise QuadratureError(
            f"semi-infinite quadrature did not converge: {_QAGP_FAILURES[ier]}",
            best_estimate=result,
            error_estimate=abserr,
        )
    return QuadratureResult(result, abserr)


class _Qk21Nodes:
    # qk21 on the intervals (lower, upper) of (0, 1) in u: nodes holds the
    # points in x = u/(1-u) where f is called, and columns turns f's values
    # there into qk21's per-interval sums. The first pass lays out its
    # breakpoint intervals, and each QAGP bisection the two halves it makes

    def __init__(self, lower: np.ndarray, upper: np.ndarray):
        import numpy as np

        centre = 0.5 * (lower + upper)
        self._half_length = 0.5 * (upper - lower)
        offset = self._half_length * _qk21_columns()[0]
        # rows: the centre, then centre - offset and centre + offset per abscissa
        u = np.concatenate((centre[None], centre - offset, centre + offset))
        # in an interval a few ulp wide next to u = 1 (or u = 0) a node can
        # round onto the end, where the integrand in u is 0 and f is not called
        self._inside = (0.0 < u) & (u < 1.0)
        self._all_inside = bool(self._inside.all())
        w = 1.0 - u[self._inside]
        self.nodes = u[self._inside] / w
        self._jacobian = w * w

    def _sums(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        # qk21's result, |Kronrod - Gauss|, integral of |f| and integral of
        # |f - mean| on each interval, in u, from f's values at nodes: one
        # function's values give (interval,) arrays and a (row, node) matrix
        # of many functions' gives (row, interval) arrays. qk21 sums over
        # the node pairs, axis -2 of a (pair, interval) or (row, pair,
        # interval) array, which numpy adds one pair after another: the
        # contiguous axis after it, the intervals (two at least), is not
        # reduced. So each row takes the operations it would take alone
        import numpy as np

        _, kronrod_weights, gauss_weights, abscissa_order = _qk21_columns()
        # non-finite values make a non-finite error estimate, which QAGP
        # declines, so their warnings are moot
        with np.errstate(all="ignore"):
            scaled = values / self._jacobian
            shape = scaled.shape[:-1] + self._inside.shape
            if self._all_inside:
                f = scaled.reshape(shape)
            else:
                f = np.zeros(shape)
                f[..., self._inside] = scaled
            h = self._half_length
            # qk21's sums, in its order: the centre term, then the node pairs
            centre = f[..., 0, :]
            pair_sum = f[..., 1:11, :] + f[..., 11:, :]
            pairs = kronrod_weights * pair_sum
            pairs[..., 0, :] += _WGK[10] * centre
            kronrod = np.add.reduce(pairs, axis=-2)
            gauss = np.add.reduce(gauss_weights * pair_sum[..., :5, :], axis=-2)
            size = np.abs(f)
            pairs = kronrod_weights * (size[..., 1:11, :] + size[..., 11:, :])
            pairs[..., 0, :] += np.abs(_WGK[10] * centre)
            magnitude = np.add.reduce(pairs, axis=-2) * h
            deviation = np.abs(f - 0.5 * kronrod[..., None, :])
            pairs = kronrod_weights * (deviation[..., 1:11, :] + deviation[..., 11:, :])
            pairs = pairs[..., abscissa_order, :]
            pairs[..., 0, :] += _WGK[10] * deviation[..., 0, :]
            spread = np.add.reduce(pairs, axis=-2) * h
            difference = np.abs((kronrod - gauss) * h)
            return kronrod * h, difference, magnitude, spread

    def columns(self, values: np.ndarray) -> tuple[list[float], ...]:
        # qk21's result, error estimate, integral of |f| and integral of
        # |f - mean| on each interval, in u, from f's values at nodes
        area, difference, magnitude, spread = (column.tolist() for column in self._sums(values))
        # the error estimates in Python floats, whose ** is C's pow, as
        # QUADPACK's is; numpy's may differ in the last bit
        return area, list(map(_qk21_error, difference, magnitude, spread)), magnitude, spread

    def certified(self, values: np.ndarray, settings: QuadratureSettings
                  ) -> tuple[np.ndarray, np.ndarray]:
        # the first pass's sum for each row of values, and whether QAGP is
        # sure to accept that pass. _qagp accepts when its abserr, the sum
        # of _qk21_error over the intervals, is within max(epsabs, epsrel *
        # |result|). Here each term is bounded from above: the same
        # operations, with numpy's power rounded up, and the floor taken by
        # a maximum, which is monotone; the terms are added in _qagp's order,
        # and rounding is monotone, so the sum bounds abserr too. A bound
        # within the tolerance certifies the row; NaN, inf and a bound past
        # the tolerance leave it to _qagp
        import numpy as np

        area, difference, magnitude, spread = self._sums(values)
        with np.errstate(all="ignore"):
            # _qagp adds from 0.0, which turns an all -0.0 sum into 0.0
            result = _sequential_sum(area) + 0.0
            ratio = 200.0 * difference / spread
            scaled = spread * (np.power(ratio, 1.5) * _POW_SLACK + _POW_LIFT)
            error = np.where(ratio < 1.0, scaled, spread)
            error = np.where((spread != 0.0) & (difference != 0.0), error, difference)
            error = np.where(magnitude > _NEGLIGIBLE,
                             np.maximum(error, _ROUND_OFF * magnitude), error)
            bound = _sequential_sum(error)
            tolerance = np.maximum(settings.absolute_tolerance,
                                   settings.relative_tolerance * np.abs(result))
        return result, np.isfinite(result) & (bound <= tolerance)


def _elementwise(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    # a scalar integrand as this module's array one: f at each point in turn
    import numpy as np

    return lambda x: np.fromiter(map(f, x.tolist()), dtype=float, count=len(x))


def _bisected(f: Callable[[np.ndarray], np.ndarray], a1: float, b1: float, b2: float
              ) -> tuple[list[float], ...]:
    # qk21's columns on the halves (a1, b1) and (b1, b2) of a bisected
    # interval in u, from one call of f at their nodes
    import numpy as np

    halves = _Qk21Nodes(np.array([a1, b1]), np.array([b1, b2]))
    return halves.columns(f(halves.nodes))


# rows per chunk of the rows pass: a chunk's (row, node, interval) arrays
# stay within a few hundred KiB at 50 intervals
_ROW_CHUNK = 32


class FirstPassRule:
    """QAGP over (0, inf) on given breakpoints, from a first pass of fixed nodes.

    The breakpoints are mapped to u = x/(1+x), and each of the intervals
    they cut (0, 1) into carries QUADPACK's 21-point Gauss-Kronrod rule.
    nodes holds the 21 points of every interval in the original variable x,
    where QAGP's first pass evaluates f, less any that round onto u = 1 in
    a last interval a few ulp wide: there the integrand in u is 0 and f is
    not called, as in QUADPACK's transformed integrand. integrate takes f's
    values there and runs QAGP from that pass: it returns the pass's result,
    summed and error-estimated as qk21 and QAGP do it, when QAGP accepts it,
    and otherwise continues QAGP's adaptive bisection from that same pass,
    calling f only at the points QAGP adds. So a caller that integrates many
    products f(x) * g(x) with one fixed g evaluates g once. The first pass
    and each bisection's two halves go through the same qk21 code.

    A private rows entry integrates many functions, one per row of a matrix
    of their values at nodes, each function taking an array of points, with
    the results integrate gives each row. It forms qk21's sums for up to 32
    rows in one set of array operations, and decides acceptance for them in
    arrays too, so a pass takes about a quarter of the time integrate takes
    row by row; only rows whose pass it cannot certify as accepted go
    through QAGP one by one. It calls no integrand for a certified row, and
    the rest call theirs at the points integrate would, so call counts do
    not change.
    """

    def __init__(self, breakpoints: Sequence[float]):
        import numpy as np

        points = _to_unit_interval(breakpoints)
        if not points:
            raise ValueError("the rule needs at least one finite breakpoint in (0, inf)")
        edges = np.array([0.0, *points, 1.0])
        self._qk21 = _Qk21Nodes(edges[:-1], edges[1:])
        self.breakpoints = tuple(breakpoints)
        self.nodes = self._qk21.nodes
        self._edges = edges.tolist()

    def integrate(
        self,
        values: np.ndarray,
        f: Callable[[float], float],
        settings: QuadratureSettings = QuadratureSettings(),
    ) -> QuadratureResult:
        """Integral of f over (0, inf), given f's values at nodes.

        The first pass when QAGP accepts it, without calling f; otherwise
        QAGP's bisection, continued from that pass, which calls f only at the
        points it adds and raises QuadratureError, carrying the best
        estimate, where QAGP reports failure.
        """
        return _qagp(_elementwise(f), self._edges, self._qk21.columns(values), settings)

    def _integrate_rows(self, values: np.ndarray,
                        integrand: Callable[[int], Callable[[np.ndarray], np.ndarray]],
                        settings: QuadratureSettings) -> np.ndarray:
        # integrate's value for each row i of the (row, node) matrix values,
        # in row order, integrand(i) taking arrays: the first pass's sum where
        # the bound certifies that QAGP accepts it, else QAGP from that pass,
        # which raises where integrate would
        import numpy as np

        out = np.empty(len(values))
        for start in range(0, len(values), _ROW_CHUNK):
            chunk = values[start:start + _ROW_CHUNK]
            out[start:start + len(chunk)], certified = self._qk21.certified(chunk, settings)
            for i in np.flatnonzero(~certified).tolist():
                out[start + i] = _qagp(integrand(start + i), self._edges,
                                       self._qk21.columns(chunk[i]), settings).value
        return out


def integrate_semi_infinite(
    f: Callable[[float], float],
    settings: QuadratureSettings,
    breakpoints: Sequence[float],
) -> QuadratureResult:
    """Adaptive integral of f over (0, inf): QUADPACK's QAGP.

    Uses the substitution x = u/(1-u), which maps the domain to (0, 1) and
    tames both tails of Gamma-type integrands. Breakpoints (in the original
    variable) force subdivision there, which matters for integrands
    concentrated on a region the global rule would step over. This is
    FirstPassRule(breakpoints).integrate on f's values at the rule's nodes.

    Raises QuadratureError, carrying the best estimate, if the requested
    tolerance cannot be certified, and ValueError if no breakpoint lies in
    (0, inf).
    """
    rule = FirstPassRule(breakpoints)
    return rule.integrate(_elementwise(f)(rule.nodes), f, settings)


def solve_monotone_decreasing(f: Callable[[float], float], target: float) -> float:
    """Solve f(tau) = target for a strictly decreasing f on [0, inf).

    Brackets the root by doubling from [0, 1] while the bracket is finite,
    then bisects until the bracket is narrower than 1e-12 relative to the
    root. Requires f(0) >= target; raises TargetUnreachableError otherwise,
    and RootFindingError for a root past 2**1023 and for a subnormal target,
    whose few significant bits, like those of f near it, define no root to
    that width.
    """
    f0 = f(0.0)
    if not math.isfinite(f0):
        raise EvaluationError(f"f(0) is not finite: {f0!r}")
    if f0 < target:
        raise TargetUnreachableError(
            f"f(0) = {f0!r} is below the target {target!r}; no nonnegative root"
        )
    if f0 == target:
        return 0.0
    if 0.0 < target < _UFLOW:
        raise RootFindingError(f"target {target!r} is subnormal; no root is solved for it")

    lo, hi = 0.0, 1.0
    while f(hi) > target:
        lo = hi
        hi *= 2.0
        if not math.isfinite(hi):
            raise RootFindingError(
                f"bracket expansion reached the float range without enclosing target {target!r}"
            )

    # invariant: f(lo) > target >= f(hi)
    for _ in range(_ROOT_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= _ROOT_TOLERANCE * hi:
            break
    return 0.5 * (lo + hi)
