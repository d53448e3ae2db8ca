"""Bayesian predictive densities and false-alarm integrals.

Two routes to the same quantities live here on purpose. The order-statistic
chain for exponential clutter has closed forms; the generic machinery
integrates likelihood times posterior numerically for any one- or
two-parameter clutter model. Each route is used to check the other in the
test suite.

Closed form of the order-statistic chain: with x = tau/t, substituting
u = e^{-lambda t} in the false-alarm integral leaves the Beta-function ratio
k C(n,k) B(k, x+n-k+1), which multiplies out to the product of k positive
factors prod_{j=n-k+1}^{n} j/(j+x). Nothing cancels, so the product is
evaluated directly in floating point; os_pfa_quadrature integrates the same
probability numerically as an independent check.

The closed forms are plain float arithmetic. numpy is imported by the
generic machinery's support scans and θ integrals, and by the first
quadrature, when they first run, so it does not load with the module.
Every quadrature here is numerics' port of QUADPACK's QAGP; scipy is never
imported. A θ integral whose first pass QAGP declines continues the same
adaptive state from that pass, so it calls the likelihood and the
posterior only at the points QAGP adds. Every θ integral, in one or two
dimensions, is one nested pass of the rules' rows entry over as many
integrands as fill one 2-D grid: every z0 node of one pass of generic_pfa's
outer integral in 1-D, one z0 in 2-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, product, repeat, starmap
from typing import TYPE_CHECKING, Callable

from .numerics import FirstPassRule, QuadratureSettings, integrate_semi_infinite

__all__ = [
    "OsPredictive",
    "PredictiveModel",
    "posterior_lambda_os",
    "os_predictive_density",
    "os_pfa",
    "os_pfa_quadrature",
    "generic_predictive_density",
    "generic_pfa",
]

if TYPE_CHECKING:
    import numpy as np

# Pure-relative control for the quadrature oracle: false-alarm probabilities
# spanning many decades need the error budget tied to the value, not to an
# absolute floor.
_OS_QUAD = QuadratureSettings(
    relative_tolerance=1e-10, absolute_tolerance=1e-300, max_subdivisions=200
)

_NORMALIZATION_TOLERANCE = 1e-6

# the largest order index k: the order-statistic Pfa loops k times per
# evaluation, and a threshold solve at k = 10**6 already takes about 4 s
_MAX_ORDER = 10**6


def _require_order_bound(k: int) -> None:
    if k > _MAX_ORDER:
        raise ValueError(f"k={k} above {_MAX_ORDER}, the largest order index")


def _log_comb(n: int, k: int) -> float:
    # log C(n, k). Up to n = 62, where every C(n, r) fits 64 bits, the log of
    # the exact integer, as the posterior's constant has always been formed,
    # so its bits do not move; beyond, lgamma, whose cost does not grow with n
    # as the exact integer's does (about 2 ms at n = 10**4, 10 s at 10**6)
    if n <= 62:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class OsPredictive:
    """Conditioning data for the order-statistic chain.

    n window cells, order index k, and the observed value t of the k-th
    order statistic. t = 0 is rejected: the posterior it would induce is not
    normalizable, and a zero order statistic has probability zero under any
    continuous clutter model.
    """

    n: int
    k: int
    t: float
    # log k + log t + log C(n, k), the posterior's constant term
    _log_constant: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"k={self.k} outside 1..{self.n}")
        _require_order_bound(self.k)
        if not (self.t > 0) or not math.isfinite(self.t):
            raise ValueError(f"observed order statistic must be positive, got {self.t}")
        # log k + log t, not log(k t): k t overflows for t near the float maximum
        constant = math.log(self.k) + math.log(self.t) + _log_comb(self.n, self.k)
        object.__setattr__(self, "_log_constant", constant)


def _log_posterior_os(rate_lambda: float, os: OsPredictive) -> float:
    # log of posterior_lambda_os, also the oracle's integrand; -inf for k > 1
    # where lambda t is too small for 1 - e^{-lambda t} to be nonzero
    lt = rate_lambda * os.t
    grow = -math.expm1(-lt)
    if os.k > 1 and grow == 0.0:
        return -math.inf
    log_body = -lt * (os.n - os.k + 1)
    if os.k > 1:
        log_body += (os.k - 1) * math.log(grow)
    return os._log_constant + log_body


def posterior_lambda_os(rate_lambda: float, os: OsPredictive) -> float:
    """Posterior density of the exponential rate given the k-th order statistic.

    Under the scale-invariant reciprocal prior the posterior is

        t * k * C(n,k) * (1 - e^{-lambda t})^{k-1} * e^{-lambda t (n-k+1)},

    normalized to integrate to 1 over lambda in (0, inf) for every (n, k, t).
    It depends on lambda and t only through their product, which is what
    makes every detector built on it scale-free.
    """
    if not (rate_lambda > 0):
        raise ValueError(f"rate_lambda must be positive, got {rate_lambda}")
    log_val = _log_posterior_os(rate_lambda, os)
    return math.exp(log_val) if log_val > -745.0 else 0.0


def os_predictive_density(z0: float, os: OsPredictive) -> float:
    """Predictive density of the cell under test given the order statistic.

    The negated derivative of os_pfa in z0: with x = z0/t,

        Pfa(x) * sum_{j=n-k+1}^{n} 1/(j+x) / t,

    a product of positive terms, so it keeps full relative accuracy for
    every (n, k) and is exactly 0 where Pfa underflows.
    """
    if not (z0 >= 0):
        raise ValueError(f"z0 must be nonnegative, got {z0}")
    x = z0 / os.t
    rate = sum(1.0 / (j + x) for j in range(os.n - os.k + 1, os.n + 1))
    return os_pfa(z0, os) * rate / os.t


def _os_product(x, n: int, k: int):
    # prod_{j=n-k+1}^{n} j/(j+x) in plain * and /, multiplied left to right.
    # A float takes a loop; an ndarray forms its k factors as one array and
    # multiplies them with one reduce over axis 0, which numpy does row after
    # row, in the loop's order, so both give the same bits. A scan's x is one
    # block of detectors.scan_profile, whose factors stay under 2**20 floats: by
    # its block cap past _NETWORK_MAX_RUN cells a run, and at most 24 * 4 096 below
    if isinstance(x, (int, float)):
        value = 1.0
        for j in range(n - k + 1, n + 1):
            value *= j / (j + x)
        return value
    import numpy as np

    j = np.arange(n - k + 1, n + 1, dtype=float).reshape((k,) + (1,) * np.ndim(x))
    factors = j + x
    np.divide(j, factors, out=factors)
    return np.multiply.reduce(factors, axis=0)


def os_pfa(tau: float, os: OsPredictive) -> float:
    """False-alarm probability of the threshold tau under the predictive law.

    With x = tau/t, the probability is the product of k positive factors

        prod_{j=n-k+1}^{n} j/(j+x),

    which is k C(n,k) B(k, x+n-k+1) multiplied out. It is 1 at tau = 0,
    decreasing in tau, 0 at tau = inf, and depends on tau and t only
    through x; the factors are all positive, so no digits are lost to
    cancellation for any (n, k). The threshold multiplier x for a design
    value pfa therefore solves

        sum_{j=n-k+1}^{n} log1p(x/j) = -log(pfa),

    which is the classical OS-CFAR design equation (Rohling 1983): the
    Bayesian order-statistic rule under the reciprocal prior is OS-CFAR.
    """
    if not (tau >= 0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    # every factor lies in [0, 1] in floating point too, and x = 0 gives 1.0
    return _os_product(tau / os.t, os.n, os.k)


def os_pfa_quadrature(tau: float, os: OsPredictive) -> float:
    """Independent oracle for os_pfa: the same probability as one integral.

    Integrates posterior_lambda_os(lambda) * e^{-lambda tau}, the chance the
    cell under test exceeds tau averaged over the posterior, over lambda in
    (0, inf), written in s = lambda t:

        k C(n,k) (1 - e^{-s})^{k-1} e^{-s (n-k+1)} e^{-s tau/t},

    so the integral, its breakpoints and its accuracy do not depend on the
    scale t. The integrand is positive, so nothing cancels. The quadrature
    tolerance is pure-relative so small probabilities keep full relative
    accuracy.
    """
    if not (tau >= 0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    x = tau / os.t
    # the posterior at t = 1 is the density of s
    unit = OsPredictive(os.n, os.k, 1.0)

    def f(s: float) -> float:
        log_val = _log_posterior_os(s, unit) - s * x
        return math.exp(log_val) if log_val > -745.0 else 0.0

    ladder = [10.0**e for e in range(-6, 7)]
    value = integrate_semi_infinite(f, _OS_QUAD, breakpoints=ladder).value
    return min(max(value, 0.0), 1.0)


def _scan_axis(values: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    import numpy as np

    peak = values.max()
    idx = np.nonzero(values > peak * 1e-280)[0]
    lo = grid[max(idx[0] - 1, 0)]
    hi = grid[min(idx[-1] + 1, len(grid) - 1)]
    return float(lo), float(hi)


# per parameter dimension: scan points per axis, most scan rounds, and the
# breakpoints per axis that the rules are built on
_SUPPORT_SCAN = {1: (131073, 1, 49), 2: (129, 4, 33)}


def _at_nodes(f: Callable, axes: list[list[float]]) -> np.ndarray:
    # f at every theta node of axes, as one array: at floats in 1-D, at (a,
    # b) pairs with b fastest in 2-D, made as they are consumed rather than
    # held as 714² tuples
    import numpy as np

    nodes = iter(axes[0]) if len(axes) == 1 else product(*axes)
    return np.fromiter(map(f, nodes), dtype=float, count=math.prod(map(len, axes)))


def _locate_support(density: Callable, dimension: int) -> list[list[float]]:
    # scan a geometric grid over (1e-12, 1e12) per axis, then narrow each axis
    # to where the density's maximum over the other axes is above 1e-280 of
    # its peak; repeat while some axis shrinks by half, up to the round limit
    import numpy as np

    points, rounds, breakpoints = _SUPPORT_SCAN[dimension]
    lo, hi = [1e-12] * dimension, [1e12] * dimension
    for _ in range(rounds):
        grids = [np.geomspace(a, b, points) for a, b in zip(lo, hi)]
        vals = _at_nodes(density, [grid.tolist() for grid in grids]).reshape((points,) * dimension)
        if not np.all(np.isfinite(vals)):
            raise ValueError("posterior evaluated to a non-finite value during support scan")
        if vals.max() <= 0.0:
            raise ValueError(
                f"posterior support not found on (1e-12, 1e12)^{dimension}; density may be "
                "zero everywhere, concentrated outside the scanned range, or a spike "
                "narrower than the scan's grid spacing"
            )
        spans = [_scan_axis(np.moveaxis(vals, axis, 0).reshape(points, -1).max(axis=1), grid)
                 for axis, grid in enumerate(grids)]
        shrunk = any(b / a < 0.5 * h / l for (a, b), l, h in zip(spans, lo, hi))
        lo, hi = [a for a, _ in spans], [b for _, b in spans]
        if not shrunk:
            break
    return [list(np.geomspace(a, b, breakpoints)) for a, b in zip(lo, hi)]


def _theta_integrals(model: PredictiveModel, values: np.ndarray,
                     functions: list[Callable]) -> np.ndarray:
    # the nested QAGP over theta of each functions[r], from its values at
    # the model's nodes in row r of values, shaped (row, *node axes): the
    # innermost axis of every row by its rule's rows entry, then in 2-D the
    # marginals by the outer rule's. A declined pass goes on as QAGP does;
    # an outer bisection's new a nodes get their rows from f, a after a,
    # before any of them is integrated
    settings = model.integration
    *outer, rule = model._rules

    def section(f: Callable, lead: list[list[float]]) -> Callable:
        # f along the innermost axis, at the outer coordinate in lead in 2-D
        return lambda x: _at_nodes(f, [*lead, x.tolist()])

    if not outer:
        return rule._integrate_rows(values, lambda r: section(functions[r], []), settings)
    (outer,), (a_nodes, b_nodes) = outer, model._axes

    def marginals(f: Callable, a: np.ndarray) -> np.ndarray:
        a = a.tolist()
        rows = _at_nodes(f, [a, b_nodes]).reshape(len(a), -1)
        return rule._integrate_rows(rows, lambda i: section(f, [[a[i]]]), settings)

    width = len(a_nodes)
    inner = rule._integrate_rows(values.reshape(-1, len(b_nodes)), lambda j: section(
        functions[j // width], [[a_nodes[j % width]]]), settings)
    return outer._integrate_rows(inner.reshape(-1, width),
                                 lambda r: lambda a: marginals(functions[r], a), settings)


def _densities(z0s: list[float], model: PredictiveModel) -> np.ndarray:
    # generic_predictive_density at each z0. The likelihood products of as
    # many z0 as one 2-D grid's floats, 714² ≈ 2**19, hold (every z0 node of
    # a 1-D outer pass) are filled z0 after z0 and θ node after θ node,
    # weighed by the posterior samples and integrated in one nested pass; a
    # declined integral calls likelihood and posterior at the points QAGP
    # adds once its fill is made
    import numpy as np

    likelihood, posterior, axes = model.likelihood, model.posterior, model._axes
    sampled = model._posterior_at_nodes
    fill = max(1, 2**19 // sampled.size)
    out = []
    for start in range(0, len(z0s), fill):
        chunk = z0s[start:start + fill]
        # product, the fastest pairing, holds its inputs: in 2-D only the axes
        pairs = (product(chunk, axes[0]) if len(axes) == 1 else
                 chain.from_iterable(zip(repeat(z0), product(*axes)) for z0 in chunk))
        values = np.fromiter(starmap(likelihood, pairs), dtype=float,
                             count=len(chunk) * sampled.size).reshape(len(chunk), *sampled.shape)
        # a non-finite product sends the integral to QAGP, as its warning would
        with np.errstate(all="ignore"):
            values *= sampled
        out.append(_theta_integrals(model, values, [
            lambda th, z0=z0: likelihood(z0, th) * posterior(th) for z0 in chunk]))
    return np.concatenate(out)


class PredictiveModel:
    """A predictive density defined by a likelihood and a normalized posterior.

    likelihood(z0, theta) is the clutter density of the cell under test given
    the parameter; posterior(theta) is the parameter density given the
    observed window, prior already folded in. theta is a positive float when
    parameter_dimension is 1 and a pair of positive floats when it is 2.

    Construction scans for the posterior's support on a dense logarithmic
    grid (so that sharply concentrated posteriors are not stepped over by
    the quadrature rule) and then verifies the posterior integrates to 1,
    within a small multiple of the integration tolerance floored at 1e-6.
    Both failures raise ValueError.

    The scan's breakpoints fix one FirstPassRule per parameter, and the θ
    integral is nested first passes, the innermost axis first. Construction
    samples the posterior once at the rules' nodes, in 2-D the product grid
    with b varying fastest; the normalization check and every later density
    and Pfa integral reuse the samples. The posterior must therefore be a
    pure function of theta. With one parameter a build calls it 131 073
    times for the scan and 1 050 for the samples (49 breakpoints); with two,
    129² per scan round and 714² for the samples (33 breakpoints per axis).
    Only an integral whose first pass QAGP would refine calls it again.

    Every θ integral, the normalization and each density in either
    dimension, is one nested pass of the rules' rows entry: the innermost
    axis of every integrand at once, then in 2-D the outer axis over their
    marginals. Every call count stays as it was with one integral at a time.
    """

    def __init__(
        self,
        likelihood: Callable[..., float],
        posterior: Callable[..., float],
        parameter_dimension: int,
        integration: QuadratureSettings = QuadratureSettings(),
    ):
        if parameter_dimension not in (1, 2):
            raise ValueError(
                f"parameter_dimension must be 1 or 2, got {parameter_dimension}"
            )
        self.likelihood = likelihood
        self.posterior = posterior
        self.parameter_dimension = parameter_dimension
        self.integration = integration
        self._rules = tuple(map(FirstPassRule, _locate_support(posterior, parameter_dimension)))
        self._axes = [rule.nodes.tolist() for rule in self._rules]
        # shaped (*node axes), b varying fastest in 2-D
        self._posterior_at_nodes = _at_nodes(posterior, self._axes).reshape(
            tuple(map(len, self._axes)))
        norm = _theta_integrals(self, self._posterior_at_nodes[None], [posterior]).item()
        tol = max(_NORMALIZATION_TOLERANCE, 100.0 * integration.relative_tolerance)
        if abs(norm - 1.0) > tol:
            raise ValueError(
                f"posterior integrates to {norm!r}, not 1 (tolerance {tol:g}); "
                "pass a normalized posterior"
            )


def generic_predictive_density(z0: float, model: PredictiveModel) -> float:
    """Predictive density: integral of likelihood(z0, theta) * posterior(theta).

    In either dimension this calls the likelihood once per rule node and
    weighs it by the posterior samples taken when the model was built; the
    posterior is called again only where QAGP would refine a first pass.
    In 1-D that is 1 050 likelihood calls and one θ integral; in 2-D 714²
    calls, a rows pass over the grid's 714 rows and one over their
    marginals, holding the grid and one chunk of rows' qk21 sums at a time.
    """
    if not (z0 >= 0):
        raise ValueError(f"z0 must be nonnegative, got {z0}")
    return _densities([z0], model).item()


# z0-axis subdivision hints for the tail integral; spans any desk-scale unit.
_Z0_LADDER = [10.0**e for e in range(-9, 10)]


def generic_pfa(tau: float, model: PredictiveModel) -> float:
    """Probability that the cell under test exceeds tau, under the model.

    Integrates the predictive density over (tau, inf). The outer tolerance
    is kept a factor 30 looser than the inner one so that round-off noise
    from the inner quadrature cannot stall the outer refinement. The outer
    integral is adaptive; each inner one reuses the model's posterior
    samples (see generic_predictive_density), so a call costs likelihood
    evaluations and no posterior ones.

    The outer integral is one row of the rules' rows entry, whose passes
    take the densities at all their z0 nodes at once: the first pass's 420,
    then 42 per bisection. A pass fills the likelihood products of as many
    z0 as one 2-D grid holds, z0 after z0: in 1-D all of them, 441 000
    calls for the first pass; in 2-D one z0. The likelihood is called as
    often, with the same arguments and in the same order, as with one
    density at a time, and the posterior only where an inner pass is
    declined. Such a pass's added calls come once its fill is made; and
    where an inner integral raises, the rest of its fill has been made.
    """
    if not (tau >= 0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    inner = model.integration
    outer = QuadratureSettings(
        relative_tolerance=min(30.0 * inner.relative_tolerance, 1e-2),
        absolute_tolerance=inner.absolute_tolerance,
        max_subdivisions=inner.max_subdivisions,
    )
    def densities(x: np.ndarray) -> np.ndarray:
        return _densities((tau + x).tolist(), model)

    rule = FirstPassRule(_Z0_LADDER)
    value = rule._integrate_rows(densities(rule.nodes)[None], lambda _: densities, outer).item()
    return min(max(value, 0.0), 1.0)
