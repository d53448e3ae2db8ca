"""Shared numerical routines.

Adaptive quadrature on (0, inf) and bracketed bisection for strictly
decreasing functions. The bisection's tolerance (1e-12 relative to the
root) and its iteration limit (200) are fixed: every threshold in the
package is solved to the same precision.

The quadrature comes in two forms. integrate_semi_infinite calls QUADPACK's
QAGP on the map u = x/(1+x). FirstPassRule is QAGP's first pass over the
same breakpoint intervals as a fixed 21-point Gauss-Kronrod rule: it takes
the integrand's values at its nodes, so a caller that integrates many
products f(x) * g(x) with one fixed g evaluates g once. Where that pass
does not meet QAGP's own acceptance test, FirstPassRule.integrate calls
integrate_semi_infinite, so every value returned has passed the same test;
that call is given the node values already held, looked up by node, so f is
evaluated only at the points where QAGP refines.

Everything here is a pure function or a rule fixed when it is built;
nothing holds state between calls. Neither numpy nor scipy is imported with
the module: scipy by integrate_semi_infinite's first call, numpy by the
first FirstPassRule built, so the closed-form chain and the bisection run
without either.
"""

from __future__ import annotations

import math
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
# _ROOT_TOLERANCE relative to the root; _ROOT_MAX_ITERATIONS bounds both the
# doublings that bracket the root and the bisection steps
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

    relative_tolerance and absolute_tolerance mirror the usual epsrel/epsabs
    pair; max_subdivisions bounds the adaptive refinement.
    """

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.relative_tolerance > 0):
            raise ValueError("relative_tolerance must be positive")
        if not (self.absolute_tolerance > 0):
            raise ValueError("absolute_tolerance must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


def _to_unit_interval(breakpoints: Sequence[float]) -> list[float]:
    # map x in (0, inf) to u = x/(1+x) in (0, 1), dropping degenerate images
    pts = sorted({x / (1.0 + x) for x in breakpoints if x > 0.0 and math.isfinite(x)})
    return [u for u in pts if 0.0 < u < 1.0]


def integrate_semi_infinite(
    f: Callable[[float], float],
    settings: QuadratureSettings = QuadratureSettings(),
    breakpoints: Sequence[float] | None = None,
) -> QuadratureResult:
    """Adaptive integral of f over (0, inf).

    Uses the substitution x = u/(1-u), which maps the domain to (0, 1) and
    tames both tails of Gamma-type integrands. Optional breakpoints (in the
    original variable) force subdivision there, which matters for integrands
    concentrated on a region the global rule would step over.

    Raises QuadratureError, carrying the best estimate, if the requested
    tolerance cannot be certified.
    """
    # imported here so that importing the package does not load scipy
    from scipy.integrate import quad

    def transformed(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        w = 1.0 - u
        return f(u / w) / (w * w)

    points = _to_unit_interval(breakpoints) if breakpoints else None
    limit = max(settings.max_subdivisions, (len(points) + 1) * 2 if points else 1)
    out = quad(
        transformed,
        0.0,
        1.0,
        epsabs=settings.absolute_tolerance,
        epsrel=settings.relative_tolerance,
        limit=limit,
        points=points,
        full_output=1,
    )
    value, error_estimate = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(
            f"semi-infinite quadrature did not converge: {out[3]}",
            best_estimate=value,
            error_estimate=error_estimate,
        )
    return QuadratureResult(value, error_estimate)


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
# qk21 adds the Gauss-node pairs first, then the Kronrod-only pairs; a
# FirstPassRule's rows are its centre, then centre - offset and
# centre + offset for the abscissae _XGK[_QK21_ORDER]
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


@cache
def _qk21_columns() -> tuple[np.ndarray, ...]:
    # the tables as the column arrays a FirstPassRule broadcasts against its
    # intervals, made when the first rule is built: the abscissae and the
    # Kronrod weights in _QK21_ORDER, the Gauss weights, and the permutation
    # that puts pair rows back in abscissa order, as the spread term of
    # qk21's error estimate adds them
    import numpy as np

    order = np.array(_QK21_ORDER)
    return (np.array(_XGK)[order, None], np.array(_WGK)[order, None],
            np.array(_WG)[:, None], np.argsort(order))


def _sequential_sum(rows: np.ndarray) -> np.ndarray:
    # rows[0] + rows[1] + ... left to right, as QUADPACK's loops add: numpy
    # sums pairwise only along the contiguous axis, never across C-order rows
    import numpy as np

    return np.add.reduce(rows, axis=0)


class FirstPassRule:
    """QAGP's first pass over (0, inf) as a fixed rule on given breakpoints.

    The breakpoints are mapped to u = x/(1+x) as integrate_semi_infinite
    maps them, and each of the intervals they cut (0, 1) into carries
    QUADPACK's 21-point Gauss-Kronrod rule. nodes holds the 21 points of
    every interval in the original variable x. integrate takes f's values
    at those nodes and returns QAGP's first-pass result, summed and
    error-estimated as qk21 and QAGP do it, when QAGP would accept it:
    every value finite and the summed error estimate within
    max(absolute_tolerance, relative_tolerance * |value|). Otherwise it
    returns integrate_semi_infinite(f, settings, breakpoints), which is
    QAGP itself and refines from the same first pass; QAGP's first pass
    evaluates f at these nodes bit for bit, so it is handed the values
    already given there and calls f only at the points it refines.
    """

    def __init__(self, breakpoints: Sequence[float]):
        import numpy as np

        points = _to_unit_interval(breakpoints)
        if not points:
            raise ValueError("the rule needs at least one finite breakpoint in (0, inf)")
        edges = np.array([0.0, *points, 1.0])
        centre = 0.5 * (edges[:-1] + edges[1:])
        self._half_length = 0.5 * (edges[1:] - edges[:-1])
        offset = self._half_length * _qk21_columns()[0]
        # rows: the centre, then centre - offset and centre + offset per abscissa
        u = np.concatenate((centre[None], centre - offset, centre + offset))
        w = 1.0 - u
        self.breakpoints = tuple(breakpoints)
        self.nodes = (u / w).ravel()
        self._jacobian = w * w

    def first_pass(
        self, values: np.ndarray, settings: QuadratureSettings = QuadratureSettings()
    ) -> QuadratureResult | None:
        """The first-pass result for f's values at nodes, or None if QAGP would refine."""
        import numpy as np

        _, kronrod_weights, gauss_weights, abscissa_order = _qk21_columns()
        # a non-finite value sends the integral to QAGP, so its warnings are moot
        with np.errstate(all="ignore"):
            f = np.reshape(values, self._jacobian.shape) / self._jacobian
            if not np.isfinite(f).all():
                return None
            h = self._half_length
            # qk21's sums, in its order: the centre term, then the node pairs
            pair_sum = f[1:11] + f[11:]
            pairs = kronrod_weights * pair_sum
            pairs[0] += _WGK[10] * f[0]
            kronrod = _sequential_sum(pairs)
            gauss = _sequential_sum(gauss_weights * pair_sum[:5])
            size = np.abs(f)
            pairs = kronrod_weights * (size[1:11] + size[11:])
            pairs[0] += np.abs(_WGK[10] * f[0])
            magnitude = _sequential_sum(pairs) * h
            deviation = np.abs(f - 0.5 * kronrod)
            pairs = (kronrod_weights * (deviation[1:11] + deviation[11:]))[abscissa_order]
            pairs[0] += _WGK[10] * deviation[0]
            spread = _sequential_sum(pairs) * h
            error = np.abs((kronrod - gauss) * h)
            error = np.where(
                spread != 0.0,
                spread * np.minimum(1.0, (200.0 * error / spread) ** 1.5),
                error,
            )
            error = np.where(
                magnitude > _UFLOW / (50.0 * _EPMACH),
                np.maximum(_EPMACH * 50.0 * magnitude, error),
                error,
            )
            value = float(np.cumsum(kronrod * h)[-1])
            error_estimate = float(np.cumsum(error)[-1])
        bound = max(settings.absolute_tolerance, settings.relative_tolerance * abs(value))
        if not error_estimate <= bound:
            return None
        return QuadratureResult(value, error_estimate)

    def integrate(
        self,
        values: np.ndarray,
        f: Callable[[float], float],
        settings: QuadratureSettings = QuadratureSettings(),
    ) -> QuadratureResult:
        """Integral of f over (0, inf), given f's values at nodes.

        The first pass when QAGP would accept it; otherwise
        integrate_semi_infinite(f, settings, breakpoints), which raises
        QuadratureError as it does. That call takes f's values at the
        nodes from values and calls f only at the points QAGP adds.
        """
        result = self.first_pass(values, settings)
        if result is None:
            import numpy as np

            known = dict(zip(self.nodes.tolist(), np.ravel(values).tolist()))

            def refined(x: float) -> float:
                value = known.get(x)
                return f(x) if value is None else value

            result = integrate_semi_infinite(refined, settings, self.breakpoints)
        return result


def solve_monotone_decreasing(f: Callable[[float], float], target: float) -> float:
    """Solve f(tau) = target for a strictly decreasing f on [0, inf).

    Brackets the root by doubling from [0, 1], then bisects until the bracket
    is narrower than 1e-12 relative to the root. Requires f(0) >= target;
    raises TargetUnreachableError otherwise and RootFindingError if 200
    doublings do not enclose the root.
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

    lo, hi = 0.0, 1.0
    expansions = 0
    while f(hi) > target:
        lo = hi
        hi *= 2.0
        expansions += 1
        if expansions > _ROOT_MAX_ITERATIONS or not math.isfinite(hi):
            raise RootFindingError(
                f"bracket expansion exceeded {_ROOT_MAX_ITERATIONS} doublings "
                f"without enclosing target {target!r}"
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
