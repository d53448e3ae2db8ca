"""Predictive density and false-alarm curve tests.

The library evaluates the order-statistic false-alarm curve as the product
prod_{j=n-k+1}^{n} j/(j+m) with m = tau/t. Its oracles share no code with
that path: exact rational evaluations of the same product, the alternating
binomial series it multiplies out from, evaluated here in exact rationals,
and the quadrature route os_pfa_quadrature.
"""

import math
import random
from fractions import Fraction

import pytest
from scipy import integrate

from bayescfar.numerics import QuadratureError, QuadratureSettings, integrate_semi_infinite
from bayescfar.predictive import (
    OsPredictive,
    PredictiveModel,
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

    def test_normalizes_for_any_conditioning(self):
        for n, k, t in [(1, 1, 1.0), (4, 2, 0.3), (8, 8, 2.0), (32, 17, 10.0), (12, 1, 0.05)]:
            osd = OsPredictive(n, k, t)
            out = integrate_semi_infinite(
                lambda lam: posterior_lambda_os(lam, osd),
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


class TestOsPfaQuadrature:
    def test_two_of_two_hand_value(self):
        got = os_pfa_quadrature(1.0, OsPredictive(2, 2, 1.0))
        assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-9)

    def test_zero_threshold(self):
        got = os_pfa_quadrature(0.0, OsPredictive(6, 4, 0.5))
        assert math.isclose(got, 1.0, rel_tol=1e-9)

    def test_agrees_with_series_on_cancellation_heavy_case(self):
        osd = OsPredictive(32, 28, 3.7)
        a = os_pfa(11.1, osd)
        b = os_pfa_quadrature(11.1, osd)
        assert math.isclose(a, b, rel_tol=1e-8)


class TestPredictiveModel:
    def test_rejects_unnormalized_posterior(self):
        with pytest.raises(ValueError, match="normalized"):
            PredictiveModel(
                likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
                posterior=lambda lam: 2.0 * math.exp(-lam),
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

    def test_declined_inner_passes_equal_nested_quadrature(self, monkeypatch):
        # a narrow bump in b that the inner first passes cannot resolve; each
        # declined pass must be the nested integrate_semi_infinite call itself
        import bayescfar.numerics as numerics

        def likelihood(z0, theta):
            bump = 1.0 + 50.0 * math.exp(-(((theta[1] - 2.0) / 0.05) ** 2))
            return self.likelihood(z0, theta) * bump

        model = PredictiveModel(likelihood, self.posterior, parameter_dimension=2)
        z0, settings = 0.5, model.integration
        a_points, b_points = (rule.breakpoints for rule in model._rules)

        def marginal(a):
            return integrate_semi_infinite(
                lambda b: likelihood(z0, (a, b)) * self.posterior((a, b)), settings, b_points
            ).value

        want = integrate_semi_infinite(marginal, settings, a_points).value
        declined = [0]
        original = numerics.integrate_semi_infinite

        def counting(*args):
            declined[0] += 1
            return original(*args)

        monkeypatch.setattr(numerics, "integrate_semi_infinite", counting)
        got = generic_predictive_density(z0, model)
        assert declined[0] > 0
        assert got.hex() == want.hex()
