"""Shared numerical routines.

Binomial coefficients (exact where they fit, log-domain beyond), adaptive
quadrature on (0, inf), and bracketed bisection for strictly decreasing
functions.

Everything here is a pure function; nothing holds state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "NumericsError",
    "EvaluationError",
    "QuadratureError",
    "RootFindingError",
    "TargetUnreachableError",
    "QuadratureSettings",
    "RootSettings",
    "Binomial",
    "QuadratureResult",
    "binom",
    "integrate_semi_infinite",
    "solve_monotone_decreasing",
]

# Largest n for which every C(n, r) fits a 64-bit signed integer.
EXACT_BINOM_LIMIT = 62


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


@dataclass(frozen=True)
class RootSettings:
    """Tolerances for threshold root-finding (relative on the root itself)."""

    tolerance_on_tau: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not (self.tolerance_on_tau > 0):
            raise ValueError("tolerance_on_tau must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class Binomial(NamedTuple):
    """Binomial coefficient with its representation flag.

    value is the exact integer C(n, r) when exact is True, otherwise the
    natural log of C(n, r) as a float.
    """

    value: int | float
    exact: bool

    def as_float(self) -> float:
        return float(self.value) if self.exact else math.exp(self.value)

    def log(self) -> float:
        return math.log(self.value) if self.exact else float(self.value)


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


def binom(n: int, r: int) -> Binomial:
    """C(n, r), exact up to n = 62, log-domain beyond.

    Raises ValueError outside 0 <= r <= n.
    """
    if n < 0 or r < 0 or r > n:
        raise ValueError(f"binom requires 0 <= r <= n, got n={n}, r={r}")
    if n <= EXACT_BINOM_LIMIT:
        return Binomial(math.comb(n, r), True)
    logc = math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    return Binomial(logc, False)


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


def solve_monotone_decreasing(
    f: Callable[[float], float],
    target: float,
    settings: RootSettings = RootSettings(),
) -> float:
    """Solve f(tau) = target for a strictly decreasing f on [0, inf).

    Brackets the root by doubling from [0, 1], then bisects until the bracket
    is narrower than tolerance_on_tau relative to the root. Requires
    f(0) >= target; raises TargetUnreachableError otherwise and
    RootFindingError if the bracket never closes.
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
        if expansions > settings.max_iterations or not math.isfinite(hi):
            raise RootFindingError(
                f"bracket expansion exceeded {settings.max_iterations} doublings "
                f"without enclosing target {target!r}"
            )

    # invariant: f(lo) > target >= f(hi)
    for _ in range(settings.max_iterations):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= settings.tolerance_on_tau * hi:
            break
    return 0.5 * (lo + hi)
