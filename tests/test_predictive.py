"""Predictive density and false-alarm curve tests.

The library evaluates the order-statistic false-alarm curve as the product
prod_{j=n-k+1}^{n} j/(j+m) with m = tau/t. Its oracles share no code with
that path: exact rational evaluations of the same product, the alternating
binomial series it multiplies out from, evaluated here in exact rationals,
and the quadrature route os_pfa_quadrature.
"""

import functools
import logging
import math
import operator
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from bayescfar.numerics import QuadratureError, QuadratureSettings, integrate_semi_infinite
from bayescfar.predictive import (
    OsPredictive,
    PredictiveModel,
    _os_product,
    generic_pfa,
    generic_predictive_density,
    os_pfa,
    os_pfa_quadrature,
    os_predictive_density,
    posterior_lambda_os,
)


def product_form(m: float, n: int, k: int) -> float:
    out = 1.0
    for j in range(n - k + 1, n + 1):
        out *= j / (j + m)
    return out


def product_form_exact(m: Fraction, n: int, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(n - k + 1, n + 1):
        out *= Fraction(j, 1) / (j + m)
    return out


def alternating_series_exact(m: Fraction, n: int, k: int, power: int) -> Fraction:
    # k C(n,k) sum_i (-1)^i C(k-1,i) (m + n-k+1+i)^(-power) at unit t: the
    # Pfa for power 1, t times the predictive density for power 2
    total = sum(
        Fraction((-1) ** i * math.comb(k - 1, i)) / (m + n - k + 1 + i) ** power
        for i in range(k)
    )
    return k * math.comb(n, k) * total


def built_normalization(likelihood, posterior, dimension):
    """The θ integral of the posterior that building a model checks
    against 1, as the model's nested θ pass returns it."""
    from bayescfar import predictive

    seen, nested = [], predictive._theta_integrals

    def recording(*args):
        seen.append(nested(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictive, "_theta_integrals", recording)
        PredictiveModel(likelihood, posterior, parameter_dimension=dimension)
    (normalization,) = seen
    return normalization.item()


def log_gamma_pdf(x: float, shape: float, rate: float) -> float:
    return (
        shape * math.log(rate)
        + (shape - 1.0) * math.log(x)
        - rate * x
        - math.lgamma(shape)
    )


class TestPosterior:
    def test_point_value(self):
        got = posterior_lambda_os(1.0, OsPredictive(1, 1, 1.0))
        assert math.isclose(got, math.exp(-1.0), rel_tol=1e-15)

    def test_underflowing_growth_term_gives_zero(self):
        # lambda t rounds to 0, so 1 - e^{-lambda t} is 0 and k > 1 takes log 0
        assert posterior_lambda_os(5e-324, OsPredictive(4, 2, 1e-300)) == 0.0

    def test_normalizes_for_any_conditioning(self):
        for n, k, t in [(1, 1, 1.0), (4, 2, 0.3), (8, 8, 2.0), (32, 17, 10.0), (12, 1, 0.05)]:
            osd = OsPredictive(n, k, t)
            out = integrate_semi_infinite(
                lambda lam: posterior_lambda_os(lam, osd),
                QuadratureSettings(),
                breakpoints=[10.0**e / t for e in range(-3, 4)],
            )
            assert math.isclose(out.value, 1.0, rel_tol=1e-9), (n, k, t)

    def test_scale_identity(self):
        # posterior(lam/c | c t) / c == posterior(lam | t)
        osd = OsPredictive(6, 3, 0.8)
        for c in (0.125, 3.7, 512.0):
            scaled = OsPredictive(6, 3, c * 0.8)
            for lam in (0.2, 1.0, 9.0):
                assert math.isclose(
                    posterior_lambda_os(lam / c, scaled) / c,
                    posterior_lambda_os(lam, osd),
                    rel_tol=1e-12,
                )

    def test_no_overflow_when_k_times_t_passes_the_float_range(self):
        # k t overflows in both cases; lambda t is moderate, so the written-out
        # formula stays in range when t multiplies last
        for lam, n, k, t in [(1e-308, 5, 3, 1e308), (4.5e-308, 300, 200, 1e307)]:
            x = lam * t
            want = t * (k * math.comb(n, k) * (-math.expm1(-x)) ** (k - 1)
                        * math.exp(-x * (n - k + 1)))
            got = posterior_lambda_os(lam, OsPredictive(n, k, t))
            assert math.isfinite(want) and want > 1e280
            assert math.isclose(got, want, rel_tol=1e-12), (n, k)

    def test_rejects_bad_conditioning(self):
        with pytest.raises(ValueError):
            OsPredictive(4, 0, 1.0)
        with pytest.raises(ValueError):
            OsPredictive(4, 5, 1.0)
        with pytest.raises(ValueError):
            OsPredictive(0, 1, 1.0)
        with pytest.raises(ValueError):
            OsPredictive(4, 2, 0.0)
        with pytest.raises(ValueError):
            OsPredictive(4, 2, -1.0)
        with pytest.raises(ValueError):
            posterior_lambda_os(0.0, OsPredictive(4, 2, 1.0))

    def test_order_index_is_bounded(self):
        # the Pfa product loops k times per evaluation; k = 10**6 is the largest
        assert OsPredictive(10**6, 10**6, 1.0).k == 10**6
        for n, k in ((10**6 + 1, 10**6 + 1), (2**64, 2**64), (2**64, 3 * 10**6)):
            with pytest.raises(ValueError, match="above 1000000, the largest order index"):
                OsPredictive(n, k, 1.0)
        assert OsPredictive(2**64, 3, 1.0).k == 3


def written_out_constant(n: int, k: int, t: float) -> float:
    # log k + log t + log C(n, k): the exact integer's log up to n = 62
    if n <= 62:
        log_comb = math.log(math.comb(n, k))
    else:
        log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.log(k) + math.log(t) + log_comb


def written_out_log_posterior(lam: float, n: int, k: int, t: float) -> float:
    # the OS log posterior as it was formed before the underflow exit:
    # expm1 and log at every lambda, the constant added last
    constant = written_out_constant(n, k, t)
    lt = lam * t
    grow = -math.expm1(-lt)
    if k > 1 and grow == 0.0:
        return -math.inf
    body = -lt * (n - k + 1)
    if k > 1:
        body += (k - 1) * math.log(grow)
    return constant + body


def written_out_posterior(lam: float, n: int, k: int, t: float) -> float:
    log_val = written_out_log_posterior(lam, n, k, t)
    return math.exp(log_val) if log_val > -745.0 else 0.0


def written_out_density_of_s(s: float, n: int, k: int, x: float) -> float:
    # os_pfa_quadrature's integrand: the posterior at t = 1 times e^{-s x}
    log_val = written_out_log_posterior(s, n, k, 1.0) - s * x
    return math.exp(log_val) if log_val > -745.0 else 0.0


class _CountingMath:
    """math, counting the calls of expm1 and log."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def expm1(self, x):
        self.calls += 1
        return math.expm1(x)

    def log(self, x):
        self.calls += 1
        return math.log(x)


# (n, k): k = 1, k = n, and n on both sides of _log_comb's exact-integer limit
EXIT_SHAPES = [(1, 1), (4, 2), (16, 12), (24, 18), (62, 1), (62, 31), (62, 62),
               (63, 1), (63, 40), (63, 63), (300, 200)]
EXIT_SCALES = [1e-300, 1e-150, 1e-10, 1.37, 1e10, 1e150, 1e300]


def lambdas_across_the_underflow_line(n: int, k: int, t: float) -> list[float]:
    # 5e-324 to the float maximum and inf, eight a decade; then a few ulp
    # either side of each point where the constant plus the decay term, or
    # the whole log posterior, crosses -745 (the latter bisected between the
    # sweep points it falls between)
    sweep = [5e-324, 1e-320, *(10.0 ** (e / 8) for e in range(-8 * 323, 8 * 308)),
             1.7976931348623157e308, math.inf]

    def kept(lam):
        return written_out_log_posterior(lam, n, k, t) > -745.0

    crossings = [(written_out_constant(n, k, t) + 745.0) / (t * (n - k + 1))]
    for lo, hi in zip(sweep, sweep[1:]):
        if kept(lo) != kept(hi):
            side = kept(lo)
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                lo, hi = (mid, hi) if kept(mid) == side else (lo, mid)
                mid = 0.5 * (lo + hi)
            crossings.append(hi)
    near = []
    for c in crossings:
        if 0.0 < c < math.inf:
            near += [c * scale for scale in (0.5, 0.99, 0.999999, 1.0, 1.000001, 1.01, 2.0)]
            below = above = c
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                near += [below, above]
    return [lam for lam in sweep + near if lam > 0.0]


class TestLogPosteriorUnderflowExit:
    """The log posterior returns -inf once its constant plus the decay term
    is at or below -745, before expm1 and log. Every value the callers
    return keeps the bits of the written-out formula."""

    @pytest.mark.parametrize("n, k", EXIT_SHAPES)
    def test_posterior_keeps_its_bits(self, n, k):
        zeros = positives = 0
        for t in EXIT_SCALES:
            osd = OsPredictive(n, k, t)
            for lam in lambdas_across_the_underflow_line(n, k, t):
                want = written_out_posterior(lam, n, k, t)
                assert posterior_lambda_os(lam, osd).hex() == want.hex(), (n, k, t, lam)
                zeros += want == 0.0
                positives += want > 0.0
        # both sides of the line are reached
        assert zeros > 100 and positives > 100

    @pytest.mark.parametrize("n, k", EXIT_SHAPES)
    def test_quadrature_integrand_keeps_its_bits(self, n, k, monkeypatch):
        from bayescfar import predictive

        integrands = []

        def recording(f, *args, **kwargs):
            integrands.append(f)
            return integrate_semi_infinite(f, *args, **kwargs)

        monkeypatch.setattr(predictive, "integrate_semi_infinite", recording)
        for ratio in (0.0, 0.5, 6.0, 1e3):
            tau = ratio * 1.37
            os_pfa_quadrature(tau, OsPredictive(n, k, 1.37))
            f, x = integrands.pop(), tau / 1.37
            for s in lambdas_across_the_underflow_line(n, k, 1.0):
                want = written_out_density_of_s(s, n, k, x)
                assert f(s).hex() == want.hex(), (n, k, x, s)

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (24, 18), (62, 62), (63, 40)])
    def test_quadrature_keeps_its_bits(self, n, k):
        settings = QuadratureSettings(
            relative_tolerance=1e-10, absolute_tolerance=1e-300, max_subdivisions=200)
        ladder = [10.0**e for e in range(-6, 7)]
        for t in (1e-300, 1.37, 1e300):
            for ratio in (0.0, 0.5, 6.0, 1e3):
                tau = ratio * t
                value = integrate_semi_infinite(
                    lambda s: written_out_density_of_s(s, n, k, tau / t), settings,
                    breakpoints=ladder).value
                want = min(max(value, 0.0), 1.0)
                got = os_pfa_quadrature(tau, OsPredictive(n, k, t))
                assert got.hex() == want.hex(), (n, k, t, ratio)

    def test_underflowing_lambda_t(self):
        # lambda t rounds to 0: the constant alone decides for k = 1, and
        # 1 - e^{-lambda t} = 0 gives 0.0 for k > 1
        for n, k in ((4, 1), (4, 2), (63, 63)):
            for t in (1e-300, 1e-30):
                want = written_out_posterior(5e-324, n, k, t)
                assert posterior_lambda_os(5e-324, OsPredictive(n, k, t)).hex() == want.hex()
        assert posterior_lambda_os(5e-324, OsPredictive(4, 2, 1e-300)) == 0.0
        assert posterior_lambda_os(5e-324, OsPredictive(4, 1, 1e30)) > 0.0

    @pytest.mark.parametrize("lam", [0.0, -0.0, -5e-324, -1.0, -math.inf, math.nan])
    def test_rejects_nonpositive_and_nan_rates(self, lam):
        for osd in (OsPredictive(4, 2, 1.0), OsPredictive(1, 1, 1e300)):
            with pytest.raises(ValueError, match="rate_lambda must be positive"):
                posterior_lambda_os(lam, osd)

    @pytest.mark.parametrize("n, k, decade", [(4, 2, -2), (8, 6, 0), (16, 12, 2), (24, 18, 4)])
    def test_exit_fires_where_the_support_scan_read_zero(self, n, k, decade, monkeypatch):
        # crosscheck's shapes on the 1-D support scan's grid: expm1 and log
        # are skipped at exactly the points where the written-out formula
        # gives 0.0, and that is a third or more of them
        from bayescfar import predictive

        t = 1.37 * 10.0**decade
        osd = OsPredictive(n, k, t)
        grid = np.geomspace(1e-12, 1e12, 131_073).tolist()
        counting = _CountingMath()
        monkeypatch.setattr(predictive, "math", counting)
        skipped = []
        for lam in grid:
            before = counting.calls
            posterior_lambda_os(lam, osd)
            skipped.append(counting.calls == before)
        monkeypatch.undo()
        zero = [written_out_posterior(lam, n, k, t) == 0.0 for lam in grid]
        assert skipped == zero
        assert sum(skipped) > 0.3 * len(grid)


class TestOsPredictiveDensity:
    def test_single_cell_at_origin(self):
        assert os_predictive_density(0.0, OsPredictive(1, 1, 1.0)) == 1.0

    def test_two_of_two_hand_value(self):
        # 2*1*C(2,2)*[ (z0+t)^{-2} - (z0+2t)^{-2} ] at z0 = t = 1: 2(1/4 - 1/9)
        got = os_predictive_density(1.0, OsPredictive(2, 2, 1.0))
        assert math.isclose(got, 5.0 / 18.0, rel_tol=1e-14)

    def test_normalization_full_grid(self):
        # every conditioning up to n = 32 integrates to 1
        worst = 0.0
        for n in range(1, 33):
            for k in range(1, n + 1):
                for t in (0.1, 1.0, 10.0):
                    osd = OsPredictive(n, k, t)
                    out = integrate_semi_infinite(
                        lambda z, osd=osd: os_predictive_density(z, osd),
                        QuadratureSettings(),
                        breakpoints=[0.1 * t, t, 10.0 * t],
                    )
                    worst = max(worst, abs(out.value - 1.0))
        assert worst < 1e-9

    def test_matches_pfa_derivative_numerically(self):
        osd = OsPredictive(5, 3, 1.7)
        z0, h = 2.0, 1e-5
        slope = (os_pfa(z0 - h, osd) - os_pfa(z0 + h, osd)) / (2 * h)
        assert math.isclose(slope, os_predictive_density(z0, osd), rel_tol=1e-8)

    def test_rejects_negative_z0(self):
        with pytest.raises(ValueError):
            os_predictive_density(-0.1, OsPredictive(2, 1, 1.0))


class TestOsPfa:
    def test_two_of_two_hand_value(self):
        got = os_pfa(1.0, OsPredictive(2, 2, 1.0))
        assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-14)

    def test_minimum_reduces_to_single_ratio(self):
        # k = 1: Pfa = n t / (tau + n t)
        assert os_pfa(36.0, OsPredictive(4, 1, 1.0)) == 0.1
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(1, 32)
            t = 10.0 ** rng.uniform(-2, 2)
            tau = rng.uniform(0.0, 50.0) * t
            got = os_pfa(tau, OsPredictive(n, 1, t))
            assert math.isclose(got, n * t / (tau + n * t), rel_tol=1e-12)

    def test_zero_threshold_is_certain_alarm(self):
        for n, k, t in [(1, 1, 0.3), (7, 4, 1.0), (32, 32, 10.0), (32, 1, 0.1)]:
            assert os_pfa(0.0, OsPredictive(n, k, t)) == 1.0

    def test_alternating_sum_telescopes_exactly(self):
        # k t C(n,k) sum_i (-1)^i C(k-1,i) / (t (n-k+1+i)) == 1, as rationals
        for n in range(1, 13):
            for k in range(1, n + 1):
                total = sum(
                    Fraction((-1) ** i * math.comb(k - 1, i), n - k + 1 + i)
                    for i in range(k)
                )
                assert k * math.comb(n, k) * total == 1, (n, k)

    def test_matches_product_form_oracle(self):
        rng = random.Random(31337)
        worst = 0.0
        for _ in range(2000):
            n = rng.randint(1, 32)
            k = rng.randint(1, n)
            t = 10.0 ** rng.uniform(-1, 1)
            m = rng.uniform(0.0, 8.0)
            got = os_pfa(m * t, OsPredictive(n, k, t))
            want = float(product_form_exact(Fraction(m * t) / Fraction(t), n, k))
            rel = abs(got - want) / want
            worst = max(worst, rel)
        assert worst < 1e-10

    def test_heavy_cancellation_case(self):
        # deep alternating cancellation; frozen from the exact product form
        got = os_pfa(11.1, OsPredictive(32, 28, 3.7))
        want = float(product_form_exact(Fraction(11.1) / Fraction(3.7), 32, 28))
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_strictly_decreasing_in_threshold(self):
        osd = OsPredictive(9, 6, 1.3)
        taus = [0.0, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]
        vals = [os_pfa(tau, osd) for tau in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_power_of_two_scaling_is_bit_exact(self):
        for n, k, tau, t in [(4, 2, 3.0, 1.0), (8, 8, 2.5, 0.7), (16, 11, 9.0, 2.0)]:
            base = os_pfa(tau, OsPredictive(n, k, t))
            for c in (0.25, 2.0, 64.0):
                assert os_pfa(c * tau, OsPredictive(n, k, c * t)) == base

    def test_general_scaling_within_rounding(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 24)
            k = rng.randint(1, n)
            t = 10.0 ** rng.uniform(-1, 1)
            tau = rng.uniform(0.0, 6.0) * t
            c = 10.0 ** rng.uniform(-3, 3)
            a = os_pfa(tau, OsPredictive(n, k, t))
            b = os_pfa(c * tau, OsPredictive(n, k, c * t))
            assert math.isclose(a, b, rel_tol=1e-11)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            os_pfa(-1.0, OsPredictive(2, 1, 1.0))


class TestOsProductEdges:
    def test_matches_exact_alternating_series(self):
        rng = random.Random(2718)
        worst = 0.0
        for _ in range(300):
            n = rng.randint(1, 64)
            k = rng.randint(1, n)
            t = 10.0 ** rng.uniform(-3, 3)
            z = rng.uniform(0.0, 10.0) * t
            osd = OsPredictive(n, k, t)
            m = Fraction(z) / Fraction(t)
            pfa = float(alternating_series_exact(m, n, k, 1))
            density = float(alternating_series_exact(m, n, k, 2) / Fraction(t))
            worst = max(
                worst,
                abs(os_pfa(z, osd) - pfa) / pfa,
                abs(os_predictive_density(z, osd) - density) / density,
            )
        assert worst < 1e-12

    def test_large_windows_match_quadrature(self):
        for n, k, t in [(256, 200, 2.5), (200, 1, 0.04), (300, 150, 70.0)]:
            osd = OsPredictive(n, k, t)
            for m in (0.5, 5.0, 30.0):
                want = os_pfa_quadrature(m * t, osd)
                assert math.isclose(os_pfa(m * t, osd), want, rel_tol=1e-8), (n, k, m)

    def test_infinite_threshold_is_zero(self):
        for n, k in [(1, 1), (16, 12), (256, 200)]:
            osd = OsPredictive(n, k, 1.5)
            assert os_pfa(math.inf, osd) == 0.0
            assert os_predictive_density(math.inf, osd) == 0.0

    def test_underflow_stays_bounded_and_nonincreasing(self):
        # Pfa ~ (150/m)^200 underflows near m = 5e3, through the subnormals
        osd = OsPredictive(256, 200, 1.0)
        vals = [os_pfa(1.01**i, osd) for i in range(1400)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert 0.0 < min(v for v in vals if v > 0.0) < 2.3e-308
        assert vals[-1] == 0.0
        densities = [os_predictive_density(1.01**i, osd) for i in range(1400)]
        assert all(math.isfinite(d) and d >= 0.0 for d in densities)

    @pytest.mark.parametrize("n, k", [(16, 12), (16, 1), (5, 5), (300, 200), (4000, 3000)])
    def test_array_product_equals_the_float_loop(self, n, k):
        # the scan evaluates the curve on arrays, one reduce per chunk of
        # 2**20 // k cells; every element must keep the bits of the float
        # loop that decide runs. 1 048 cells are four chunks at k = 3000
        # (349, 349, 349 and 1)
        rng = np.random.default_rng(n + k)
        short = np.concatenate(([0.0, 1.0, 1e300, math.inf, 5e-324],
                                10.0 ** rng.uniform(-6, 6, 40) * rng.random(40)))
        long = 10.0 ** rng.uniform(-6, 6, 3 * (2**20 // 3000) + 1)
        for x in (short, long):
            got = _os_product(x, n, k)
            want = [_os_product(v, n, k) for v in x.tolist()]
            assert got.shape == x.shape
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert _os_product(np.float64(2.5), n, k) == _os_product(2.5, n, k)
        assert _os_product(np.float32(2.5), n, k) == _os_product(2.5, n, k)


def _pairwise(op, terms):
    # terms combined by halves, as numpy sums along a contiguous axis
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return op(_pairwise(op, terms[:half]), _pairwise(op, terms[half:]))


@pytest.mark.parametrize("ufunc, op", [(np.add, operator.add), (np.multiply, operator.mul)])
def test_axis_zero_reductions_run_left_to_right(ufunc, op):
    # _os_product and numerics' qk21 pair sums rely on numpy reducing over
    # axis 0 of a C-order matrix one row after another, bit for bit as a loop
    rng = np.random.default_rng(53)
    rows = np.vstack((np.ones(40), rng.uniform(0.5, 2.0, (199, 40))))
    if ufunc is np.add:
        rows[1:, :20] = 2.0 ** -53
    columns = rows.T.tolist()
    sequential = [functools.reduce(op, column) for column in columns]
    pairwise = [_pairwise(op, column) for column in columns]
    # the data tell the orders apart
    assert sum(a != b for a, b in zip(sequential, pairwise)) > 10
    got = ufunc.reduce(np.ascontiguousarray(rows), axis=0)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in sequential]


class TestOsPfaQuadrature:
    def test_two_of_two_hand_value(self):
        got = os_pfa_quadrature(1.0, OsPredictive(2, 2, 1.0))
        assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-9)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            os_pfa_quadrature(-1.0, OsPredictive(4, 2, 1.0))

    def test_zero_threshold(self):
        got = os_pfa_quadrature(0.0, OsPredictive(6, 4, 0.5))
        assert math.isclose(got, 1.0, rel_tol=1e-9)

    def test_agrees_with_series_on_cancellation_heavy_case(self):
        osd = OsPredictive(32, 28, 3.7)
        a = os_pfa(11.1, osd)
        b = os_pfa_quadrature(11.1, osd)
        assert math.isclose(a, b, rel_tol=1e-8)

    def test_scale_free_over_24_decades_of_clutter_power(self):
        # the integrand depends on lambda t only, so the accuracy must not
        # fall as t moves away from 1
        for e in range(-12, 13):
            t = 10.0**e
            for n, k in ((8, 6), (4, 2), (24, 18)):
                osd = OsPredictive(n, k, t)
                for ratio in (0.5, 2.0, 6.0):
                    want = os_pfa(ratio * t, osd)
                    got = os_pfa_quadrature(ratio * t, osd)
                    assert math.isclose(got, want, rel_tol=1e-10), (t, n, k, ratio)


class TestPredictiveModel:
    # the normalization check's tolerance is 1e-6 at the default settings:
    # posteriors off by 1e-4 on either side are refused, and ones off by
    # 1e-8 and 5e-7 are taken
    @pytest.mark.parametrize("scale, accepted", [
        (2.0, False), (1.0 + 1e-4, False), (1.0 - 1e-4, False),
        (1.0 + 1e-8, True), (1.0 + 5e-7, True)])
    def test_rejects_unnormalized_posterior(self, scale, accepted):
        def build():
            return PredictiveModel(
                likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
                posterior=lambda lam: scale * math.exp(-lam),
                parameter_dimension=1,
            )

        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="normalized"):
                build()

    def test_rejects_negative_arguments(self):
        model = PredictiveModel(
            likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
            posterior=lambda lam: math.exp(-lam),
            parameter_dimension=1,
        )
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            generic_pfa(-1.0, model)
        with pytest.raises(ValueError, match="z0 must be nonnegative"):
            generic_predictive_density(-1.0, model)

    @pytest.mark.parametrize("value, message", [
        (math.nan, "non-finite value during support scan"),
        (0.0, "posterior support not found"),
    ])
    def test_rejects_posterior_without_a_support(self, value, message):
        with pytest.raises(ValueError, match=message):
            PredictiveModel(
                likelihood=lambda z0, lam: 1.0,
                posterior=lambda lam: value,
                parameter_dimension=1,
            )

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            PredictiveModel(
                likelihood=lambda z0, th: 1.0,
                posterior=lambda th: 1.0,
                parameter_dimension=3,
            )

    def test_narrow_posterior_approaches_plug_in(self):
        # Gamma posterior with shape 1e6: mass within ~0.2% of lambda = 2,
        # so the predictive is the plug-in exponential to O(1/shape)
        shape = 1e6

        def posterior(lam):
            if lam <= 0:
                return 0.0
            s = log_gamma_pdf(lam, shape, shape / 2.0)
            return math.exp(s) if s > -700 else 0.0

        model = PredictiveModel(
            likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
            posterior=posterior,
            parameter_dimension=1,
        )
        for z0 in (0.1, 1.0):
            want = 2.0 * math.exp(-2.0 * z0)
            got = generic_predictive_density(z0, model)
            assert abs(got - want) / want < 1e-3

    def test_gamma_posterior_conjugate_chain(self):
        # exponential likelihood with Gamma(n, rate s) posterior has the
        # closed predictive n s^n (z0+s)^{-(n+1)} and tail (1 + tau/s)^{-n}
        n, s = 4, 3.0

        def posterior(lam):
            if lam <= 0:
                return 0.0
            return math.exp(log_gamma_pdf(lam, float(n), s))

        model = PredictiveModel(
            likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
            posterior=posterior,
            parameter_dimension=1,
        )
        for z0 in (0.0, 0.4, 2.0, 11.0):
            want = n * s**n / (z0 + s) ** (n + 1)
            assert math.isclose(generic_predictive_density(z0, model), want, rel_tol=1e-8)
        for tau in (0.0, 2.5, 9.0):
            want = (1.0 + tau / s) ** (-n)
            assert math.isclose(generic_pfa(tau, model), want, rel_tol=1e-8)

    def test_generic_route_matches_series_route(self):
        osd = OsPredictive(6, 4, 1.3)
        model = PredictiveModel(
            likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
            posterior=lambda lam: posterior_lambda_os(lam, osd),
            parameter_dimension=1,
        )
        for tau in (0.0, 0.7, 4.0):
            assert math.isclose(generic_pfa(tau, model), os_pfa(tau, osd), rel_tol=1e-8)
        for z0 in (0.05, 1.0, 6.0):
            assert math.isclose(
                generic_predictive_density(z0, model),
                os_predictive_density(z0, osd),
                rel_tol=1e-8,
            )

    def test_posterior_is_sampled_once_per_model(self):
        osd = OsPredictive(6, 4, 1.3)
        calls = [0]

        def posterior(lam):
            calls[0] += 1
            return posterior_lambda_os(lam, osd)

        model = PredictiveModel(
            likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
            posterior=posterior,
            parameter_dimension=1,
        )
        # the support scan, then the 21-node rule on each of 50 intervals
        assert calls[0] == 131_073 + 1_050
        for tau in (0.0, 0.7, 4.0):
            generic_pfa(tau, model)
        for z0 in (0.05, 1.0, 6.0):
            generic_predictive_density(z0, model)
        assert calls[0] == 131_073 + 1_050

    def test_non_finite_product_fails_as_qagp_does(self):
        # inf * 0 past the posterior's support makes the product NaN at the
        # outermost rule nodes; the integral goes to QAGP, which reports it
        n, s = 4, 3.0

        def posterior(lam):
            return math.exp(log_gamma_pdf(lam, float(n), s)) if lam > 0 else 0.0

        model = PredictiveModel(
            likelihood=lambda z0, lam: math.inf if lam > 1e3 else lam * math.exp(-lam * z0),
            posterior=posterior,
            parameter_dimension=1,
        )
        with pytest.raises(QuadratureError):
            generic_predictive_density(1.0, model)

    def test_matches_nested_quadrature(self):
        # test-local nested scipy quad over lambda and z0, on this test's own
        # map u = x/(1+x) and breakpoints, with tighter tolerances
        osd = OsPredictive(6, 4, 1.3)

        def likelihood(z0, lam):
            return lam * math.exp(-lam * z0)

        def posterior(lam):
            return posterior_lambda_os(lam, osd)

        model = PredictiveModel(likelihood, posterior, parameter_dimension=1)

        def semi_infinite(f, points, epsrel):
            def transformed(u):
                w = 1.0 - u
                return f(u / w) / (w * w) if 0.0 < u < 1.0 else 0.0

            u_points = [x / (1.0 + x) for x in points]
            return integrate.quad(transformed, 0.0, 1.0, points=u_points,
                                  epsabs=0.0, epsrel=epsrel, limit=500)[0]

        def density(z0):
            return semi_infinite(lambda lam: likelihood(z0, lam) * posterior(lam),
                                 [10.0 ** (e / 4.0) / 1.3 for e in range(-12, 9)], 1e-13)

        for z0 in (0.05, 1.0, 6.0):
            want = density(z0)
            assert math.isclose(generic_predictive_density(z0, model), want, rel_tol=1e-12)
        for tau in (0.0, 0.7, 4.0):
            want = semi_infinite(lambda x: density(tau + x),
                                 [10.0 ** e * 1.3 for e in range(-3, 4)], 1e-12)
            assert math.isclose(generic_pfa(tau, model), want, rel_tol=1e-12), tau

    def test_two_parameter_narrow_posterior(self):
        # independent Gamma factors concentrated at (1, 2); the compound
        # rate r = a + b concentrates at 3, so the predictive approaches
        # 3 e^{-3 z0}
        shape = 2500.0

        def posterior(theta):
            a, b = theta
            if a <= 0 or b <= 0:
                return 0.0
            s = log_gamma_pdf(a, shape, shape) + log_gamma_pdf(b, shape, shape / 2.0)
            return math.exp(s) if s > -700 else 0.0

        def likelihood(z0, theta):
            a, b = theta
            r = a + b
            return r * math.exp(-r * z0)

        model = PredictiveModel(
            likelihood,
            posterior,
            parameter_dimension=2,
            integration=QuadratureSettings(
                relative_tolerance=1e-8, absolute_tolerance=1e-300
            ),
        )
        for z0 in (0.1, 1.0):
            want = 3.0 * math.exp(-3.0 * z0)
            got = generic_predictive_density(z0, model)
            assert abs(got - want) / want < 1e-3, z0


# generic_pfa on the crosscheck benchmark's four shapes, (n, k) with t =
# 1.37 * 10**decade, as one density at a time gave them before outer passes
# were batched: the first and last θ node, and per tau = ratio * t the value
# and each outer pass's first and last z0, all in hex
GENERIC_PFA_PINS = {
    (4, 2, -2): ("0x1.19799812de065p-41", "0x1.5cac5189105c1p+15", {
        0.5: ("0x1.8618618618622p-1", [
            ("0x1.c0ebf020057b7p-8", "0x1.51e432a8e2bfdp+31"),
        ]),
        2.0: ("0x1.99999999999a1p-2", [
            ("0x1.c0ebee83b45dbp-6", "0x1.51e432a8ed456p+31"),
        ]),
        6.0: ("0x1.1111111111114p-3", [
            ("0x1.50b0f29e0f16ap-4", "0x1.51e432a909542p+31"),
        ]),
    }),
    (8, 6, 0): ("0x1.19799812de065p-41", "0x1.c2211660cb9f2p+8", {
        0.5: ("0x1.1f8e8cc27746fp-1", [
            ("0x1.5eb851efd0a1cp-1", "0x1.51e432aa3df65p+31"),
        ]),
        2.0: ("0x1.1111111111112p-3", [
            ("0x1.5eb851ec97ff8p+1", "0x1.51e432ae5a1f4p+31"),
        ]),
        6.0: ("0x1.3187758e9ebb9p-7", [
            ("0x1.070a3d70e88f4p+3", "0x1.51e432b94fe1dp+31"),
        ]),
    }),
    (16, 12, 2): ("0x1.19799812de065p-41", "0x1.22ce6a2548153p+2", {
        0.5: ("0x1.10d3289f81ba9p-1", [
            ("0x1.1200000008970p+6", "0x1.51e43331df3e0p+31"),
            ("0x1.469c88f7d8dddp+6", "0x1.b359db10589e6p+6"),
            ("0x1.8b91d07eae2e9p+7", "0x1.c8b4f508eb532p+8"),
            ("0x1.180ea0ea0ea0fp+6", "0x1.268760f4f6e4cp+6"),
        ]),
        2.0: ("0x1.9191919191942p-4", [
            ("0x1.120000000225cp+8", "0x1.51e434ccdf3e0p+31"),
            ("0x1.1f27223df6377p+8", "0x1.3a5676c41627ap+8"),
            ("0x1.9348e83f57174p+8", "0x1.4b1a7a8475a99p+9"),
            ("0x1.1383a83a83a84p+8", "0x1.1721d83d3db93p+8"),
            ("0x1.29d3aa30a02dcp+8", "0x1.4baa34db2f0b0p+8"),
        ]),
        6.0: ("0x1.70e7b7f2be14cp-9", [
            ("0x1.9b0000000112ep+9", "0x1.51e43914df3e0p+31"),
            ("0x1.dba4741fab8bap+9", "0x1.2e8d3d423ad4cp+10"),
            ("0x1.a193911efb1bcp+9", "0x1.af2b3b620b13dp+9"),
            ("0x1.9bc1d41d41d42p+9", "0x1.9d90ec1e9edc9p+9"),
        ]),
    }),
    (24, 18, 4): ("0x1.19799812de065p-41", "0x1.da9b0b67e790fp+0", {
        0.5: ("0x1.0b77c59406cf1p-1", [
            ("0x1.ac20000000227p+12", "0x1.51e4682cdf3e0p+31"),
            ("0x1.b4348e83f5718p+12", "0x1.c4634f508eb54p+12"),
            ("0x1.fcc934e0b8edep+12", "0x1.4ee28ae26a852p+13"),
            ("0x1.acf27223df638p+12", "0x1.aea5676c41629p+12"),
            ("0x1.34a5ea271a671p+14", "0x1.6372bbefb036dp+15"),
            ("0x1.ba78f9deb9112p+12", "0x1.cf17c897add28p+12"),
            ("0x1.1d85a5acb1d0bp+13", "0x1.84560bff2ffe0p+13"),
        ]),
        2.0: ("0x1.60e2dafa7c701p-4", [
            ("0x1.ac2000000008ap+14", "0x1.51e508b8df3e0p+31"),
            ("0x1.ae2523a0fd5c7p+14", "0x1.b230d3d423ad6p+14"),
            ("0x1.c04a4d382e3b8p+14", "0x1.e88945713542ap+14"),
            ("0x1.ac549c88f7d8fp+14", "0x1.acc159db1058bp+14"),
            ("0x1.3adef5138d339p+15", "0x1.01ff5df7d81b7p+16"),
            ("0x1.afb63e77ae445p+14", "0x1.b4ddf225eb74bp+14"),
            ("0x1.cfdad2d658e86p+14", "0x1.01a182ffcbff8p+15"),
        ]),
        6.0: ("0x1.97ef1f9b7707ap-10", [
            ("0x1.4118000000023p+16", "0x1.51e6b4d8df3e0p+31"),
            ("0x1.419948e83f572p+16", "0x1.429c34f508eb6p+16"),
            ("0x1.4622934e0b8efp+16", "0x1.5032515c4d50bp+16"),
            ("0x1.737f7a89c699dp+16", "0x1.d80f5df7d81b8p+16"),
            ("0x1.412527223df64p+16", "0x1.41405676c4163p+16"),
            ("0x1.41fd8f9deb912p+16", "0x1.43477c897add3p+16"),
            ("0x1.4a06b4b5963a2p+16", "0x1.56e0c17fe5ffdp+16"),
        ]),
    }),
}
# the normalization of each shape's posterior, as built before the θ
# integrals of both dimensions went through one nested pass
NORMALIZATION_PINS = {
    (4, 2, -2): "0x1.0000000000008p+0",
    (8, 6, 0): "0x1.0000000000001p+0",
    (16, 12, 2): "0x1.0000000000007p+0",
    (24, 18, 4): "0x1.fffffffffffe3p-1",
}
# likelihood calls per op, the three generic_pfa calls together
GENERIC_PFA_LIKELIHOOD_CALLS = {
    (4, 2): 1_323_000,
    (8, 6): 1_323_000,
    (16, 12): 1_764_000,
    (24, 18): 2_116_800,
}


class TestGenericPfaPinned:
    """generic_pfa's outer passes take their densities many z0 at a time;
    the values, the call counts and the order of likelihood calls stay as
    they were with one density at a time."""

    @pytest.mark.parametrize("n, k, decade", list(GENERIC_PFA_PINS))
    def test_values_calls_and_pass_order(self, n, k, decade):
        theta_first, theta_last, pinned = GENERIC_PFA_PINS[n, k, decade]
        t = 1.37 * 10.0**decade
        osd = OsPredictive(n, k, t)
        calls = {"likelihood": 0, "posterior": 0}
        # likelihood arguments at the call indices in ends, in hex
        ends, seen = set(), {}

        def likelihood(z0, lam):
            if calls["likelihood"] in ends:
                seen[calls["likelihood"]] = (z0.hex(), lam.hex())
            calls["likelihood"] += 1
            return lam * math.exp(-lam * z0)

        def posterior(lam):
            calls["posterior"] += 1
            return posterior_lambda_os(lam, osd)

        model = PredictiveModel(likelihood, posterior, parameter_dimension=1)
        assert calls["posterior"] == 131_073 + 1_050
        op_calls = 0
        for ratio, (value, passes) in pinned.items():
            # a pass over r z0 nodes calls the likelihood at r * 1 050 (z0,
            # θ) pairs, z0 after z0: 420 nodes, then 42 per outer bisection
            starts = np.cumsum([0, 420] + [42] * (len(passes) - 1)) * 1_050
            ends.clear()
            ends.update(starts[:-1].tolist() + (starts[1:] - 1).tolist())
            seen.clear()
            calls["likelihood"] = 0
            assert generic_pfa(ratio * t, model).hex() == value
            assert calls["likelihood"] == starts[-1]
            op_calls += calls["likelihood"]
            got = [(seen[a], seen[b - 1]) for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]
            assert got == [((first, theta_first), (last, theta_last)) for first, last in passes]
        assert op_calls == GENERIC_PFA_LIKELIHOOD_CALLS[n, k]
        # the three integrals call the posterior nowhere: no inner pass is declined
        assert calls["posterior"] == 131_073 + 1_050

    @pytest.mark.parametrize("n, k, decade", list(NORMALIZATION_PINS))
    def test_normalization(self, n, k, decade):
        osd = OsPredictive(n, k, 1.37 * 10.0**decade)
        got = built_normalization(lambda z0, lam: lam * math.exp(-lam * z0),
                                  lambda lam: posterior_lambda_os(lam, osd), 1)
        assert got.hex() == NORMALIZATION_PINS[n, k, decade]


class TestBuildRecord:
    """One DEBUG record per PredictiveModel build: the dimension, the
    support per axis, the posterior calls and the seconds taken."""

    @staticmethod
    def build(dimension):
        calls = [0]
        if dimension == 1:
            osd = OsPredictive(8, 6, 1.37)

            def posterior(lam):
                calls[0] += 1
                return posterior_lambda_os(lam, osd)

            def likelihood(z0, lam):
                return lam * math.exp(-lam * z0)
        else:
            def posterior(theta):
                calls[0] += 1
                return TestTwoParameterModel.posterior(theta)

            likelihood = TestTwoParameterModel.likelihood
        return PredictiveModel(likelihood, posterior, parameter_dimension=dimension), calls[0]

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_one_record_with_its_fields(self, dimension, caplog):
        caplog.set_level(logging.DEBUG, logger="bayescfar.predictive")
        model, calls = self.build(dimension)
        [record] = caplog.records
        assert (record.name, record.levelno) == ("bayescfar.predictive", logging.DEBUG)
        got_dimension, spans, posterior_calls, points, rounds, nodes, seconds = record.args
        assert got_dimension == dimension
        assert spans == [(rule.breakpoints[0], rule.breakpoints[-1]) for rule in model._rules]
        assert all(type(v) is float and 1e-12 <= v < w <= 1e12 for v, w in spans)
        # counted without wrapping the posterior, and equal to the calls it took
        assert posterior_calls == calls == rounds * points + nodes
        assert (points, nodes) == ((131_073, 1_050) if dimension == 1 else (129**2, 714**2))
        assert 1 <= rounds <= (1 if dimension == 1 else 4)
        assert 0.0 < seconds < 60.0
        assert re.fullmatch(rf"{dimension}-D posterior support \[.+\]: {calls} posterior calls "
                            rf"\({points} scan points per round, {rounds} rounds; {nodes} nodes\), "
                            r"\d+\.\d{3} s", record.getMessage()), record.getMessage()

    def test_stdout_is_byte_identical_at_debug(self, capsys):
        def report():
            model, _ = self.build(1)
            print(generic_predictive_density(0.4, model).hex())
            print(generic_pfa(2.0, model).hex())

        report()
        quiet = capsys.readouterr()
        handler = logging.StreamHandler(sys.stderr)
        log = logging.getLogger("bayescfar.predictive")
        level = log.level
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        try:
            report()
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.out.count("\n") == 2
        assert quiet.err == ""
        assert loud.err.startswith("1-D posterior support [(")

    def test_off_the_build_reads_no_clock(self, monkeypatch, caplog):
        from bayescfar import predictive

        def unused():
            raise AssertionError("timed with DEBUG disabled")

        monkeypatch.setattr(predictive, "perf_counter", unused)
        caplog.set_level(logging.INFO, logger="bayescfar.predictive")
        self.build(1)
        assert caplog.records == []


class TestTwoParameterModel:
    """The 2-D route against the closed form of a Gamma x Gamma posterior.

    With a ~ Gamma(s1, rate r1) and b ~ Gamma(s2, rate r2) independent and
    the likelihood r e^{-r z0} at r = a + b, the predictive survival is
    E[e^{-a z0}] E[e^{-b z0}] = (1 + z0/r1)^{-s1} (1 + z0/r2)^{-s2}, and the
    predictive density is minus its derivative.
    """

    S1, R1, S2, R2 = 3.0, 3.0, 5.0, 2.5

    @classmethod
    def posterior(cls, theta):
        a, b = theta
        return math.exp(log_gamma_pdf(a, cls.S1, cls.R1) + log_gamma_pdf(b, cls.S2, cls.R2))

    @staticmethod
    def likelihood(z0, theta):
        r = theta[0] + theta[1]
        return r * math.exp(-r * z0)

    @pytest.fixture(scope="class")
    def counted(self):
        calls = {"likelihood": 0, "posterior": 0}

        def likelihood(z0, theta):
            calls["likelihood"] += 1
            return self.likelihood(z0, theta)

        def posterior(theta):
            calls["posterior"] += 1
            return self.posterior(theta)

        return PredictiveModel(likelihood, posterior, parameter_dimension=2), calls

    # the densities and the normalization, in hex, as they were before the
    # θ integrals of both dimensions went through one nested pass
    DENSITY_PINS = {
        0.0: "0x1.8000000000008p+1",
        0.3: "0x1.261a51af20d1bp+0",
        2.0: "0x1.4078b271c0743p-6",
        10.0: "0x1.4cf0440c58902p-19",
    }
    NORMALIZATION_PIN = "0x1.0000000000006p+0"

    @pytest.mark.parametrize("z0", list(DENSITY_PINS))
    def test_density_is_pinned(self, counted, z0):
        assert generic_predictive_density(z0, counted[0]).hex() == self.DENSITY_PINS[z0]

    def test_normalization_is_pinned(self):
        got = built_normalization(self.likelihood, self.posterior, 2)
        assert got.hex() == self.NORMALIZATION_PIN

    @pytest.mark.parametrize("z0", [0.0, 0.3, 2.0, 10.0])
    def test_density_matches_closed_form(self, counted, z0):
        s1, r1, s2, r2 = self.S1, self.R1, self.S2, self.R2
        want = (
            (s1 / r1) * (1.0 + z0 / r1) ** (-s1 - 1.0) * (1.0 + z0 / r2) ** (-s2)
            + (1.0 + z0 / r1) ** (-s1) * (s2 / r2) * (1.0 + z0 / r2) ** (-s2 - 1.0)
        )
        got = generic_predictive_density(z0, counted[0])
        assert math.isclose(got, want, rel_tol=1e-10), (z0, got, want)

    def test_density_reuses_the_posterior_samples(self, counted):
        # 33 breakpoints per axis cut each into 34 intervals of 21 nodes
        model, calls = counted
        calls["likelihood"] = calls["posterior"] = 0
        generic_predictive_density(0.7, model)
        assert calls == {"likelihood": 714**2, "posterior": 0}

    def test_density_holds_one_grid_of_likelihoods(self, counted):
        # the 714² likelihood products take 3.9 MiB; the marginals are
        # integrated 32 rows at a time, whose qk21 sums are 0.2 MiB each, so
        # the peak stays well under two grids, as no (z0 or row) x 714²
        # stack of them could
        model = counted[0]
        tracemalloc.start()
        try:
            generic_predictive_density(0.7, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 714**2 * 8, peak

    def nested_quadrature(self, axis, centre, width):
        """generic_predictive_density at z0 = 0.5 with a narrow bump on one
        axis of the likelihood, and scipy's nested QAGP of the same integral.

        Returns both values, scipy's outer QAGP, and the likelihood and
        posterior calls each made.
        """
        from test_numerics import qagp_oracle

        calls = {"likelihood": 0, "posterior": 0}

        def likelihood(z0, theta):
            calls["likelihood"] += 1
            bump = 1.0 + 50.0 * math.exp(-(((theta[axis] - centre) / width) ** 2))
            return self.likelihood(z0, theta) * bump

        def posterior(theta):
            calls["posterior"] += 1
            return self.posterior(theta)

        model = PredictiveModel(likelihood, posterior, parameter_dimension=2)
        z0, settings = 0.5, model.integration
        a_points, b_points = (rule.breakpoints for rule in model._rules)

        def converged(oracle):
            assert oracle.converged
            return oracle.value

        def marginal(a):
            return converged(qagp_oracle(
                lambda b: likelihood(z0, (a, b)) * posterior((a, b)), b_points, settings
            ))

        calls["likelihood"] = calls["posterior"] = 0
        outer = qagp_oracle(marginal, a_points, settings)
        want = converged(outer)
        nested = dict(calls)
        calls["likelihood"] = calls["posterior"] = 0
        got = generic_predictive_density(z0, model)
        return got, want, outer, nested, calls

    def test_declined_inner_passes_equal_nested_quadrature(self):
        # a narrow bump in b that the inner first passes cannot resolve; each
        # declined pass must go on as QAGP does from the values its first
        # pass already holds, so the result is scipy's nested QAGP bit for bit
        got, want, _, nested, calls = self.nested_quadrature(1, 2.0, 0.05)
        assert got.hex() == want.hex()
        # the likelihood is called where the nested quadrature calls it; the
        # posterior only at the points the declined passes add to the samples
        assert nested == {"likelihood": 601_230, "posterior": 601_230}
        assert calls == {"likelihood": 601_230, "posterior": 91_434}

    def test_declined_outer_pass_equals_nested_quadrature(self):
        # a narrow bump in a declines the outer first pass: each a that QAGP
        # adds gets its inner integral from scratch, as scipy's nested QAGP
        # does, and the result is scipy's bit for bit
        got, want, outer, nested, calls = self.nested_quadrature(0, 1.0, 0.02)
        assert outer.neval > 21 * outer.intervals
        assert got.hex() == want.hex()
        assert calls["likelihood"] == nested["likelihood"]
        assert calls["posterior"] < nested["posterior"]
