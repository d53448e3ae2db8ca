"""Clutter model and window statistic tests.

Sampling checks use fixed seeds; distributional assertions run at the 1%
level so a correct implementation passes with margin on these seeds.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bayescfar.clutter_models import (
    CrpWindow,
    ExponentialClutter,
    ParetoClutter,
    intensity_from_uniform,
    kth_order_statistic,
    os_density,
    sample,
    window_sum,
)
from bayescfar.numerics import QuadratureSettings, integrate_semi_infinite


class TestModels:
    def test_exponential_pdf_cdf_mean(self):
        m = ExponentialClutter(2.0)
        assert m.pdf(0.0) == 2.0
        assert math.isclose(m.pdf(1.0), 2.0 * math.exp(-2.0), rel_tol=1e-15)
        assert math.isclose(m.cdf(1.0), -math.expm1(-2.0), rel_tol=1e-15)
        assert m.cdf(0.0) == 0.0
        assert m.mean() == 0.5

    def test_pareto_pdf_cdf_mean(self):
        m = ParetoClutter(3.0, 2.0)
        assert m.pdf(0.0) == 1.5
        # alpha beta^alpha / (x + beta)^{alpha+1} at x = 2
        assert math.isclose(m.pdf(2.0), 3.0 * 8.0 / 4.0**4, rel_tol=1e-14)
        assert math.isclose(m.cdf(2.0), 1.0 - (2.0 / 4.0) ** 3, rel_tol=1e-14)
        assert m.mean() == 1.0
        assert ParetoClutter(1.0, 5.0).mean() == math.inf

    @pytest.mark.parametrize("model", [ExponentialClutter(2.0), ParetoClutter(3.0, 2.0)])
    def test_no_mass_below_zero(self, model):
        assert model.pdf(-1.0) == 0.0
        assert model.cdf(0.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialClutter(0.0)
        with pytest.raises(ValueError):
            ExponentialClutter(-1.0)
        with pytest.raises(ValueError):
            ParetoClutter(0.0, 1.0)
        with pytest.raises(ValueError):
            ParetoClutter(2.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="rate_lambda must be finite and positive"):
            ExponentialClutter(bad)
        with pytest.raises(ValueError, match="shape_alpha must be finite and positive"):
            ParetoClutter(bad, 1.0)
        with pytest.raises(ValueError, match="scale_beta must be finite and positive"):
            ParetoClutter(2.0, bad)


class TestSampling:
    def test_unsupported_model_and_empty_draw_rejected(self):
        with pytest.raises(TypeError, match="unsupported clutter model"):
            intensity_from_uniform(object(), np.array([0.5]))
        with pytest.raises(ValueError, match="count must be at least 1"):
            sample(ExponentialClutter(1.0), 0, np.random.default_rng(1))

    def test_deterministic_given_stream(self):
        m = ExponentialClutter(1.5)
        a = sample(m, 16, np.random.default_rng(99))
        b = sample(m, 16, np.random.default_rng(99))
        assert a == b
        assert all(x > 0 for x in a)

    def test_exponential_sample_mean(self):
        m = ExponentialClutter(1.0)
        xs = sample(m, 1_000_000, np.random.default_rng(7))
        # mean 1, sd 1: three sigma of the sample mean
        assert abs(np.mean(xs) - 1.0) < 3.0 / 1000.0

    def test_pareto_sample_mean(self):
        m = ParetoClutter(3.0, 2.0)
        xs = sample(m, 1_000_000, np.random.default_rng(11))
        # mean 1, variance alpha beta^2 / ((alpha-1)^2 (alpha-2)) = 3
        assert abs(np.mean(xs) - 1.0) < 3.0 * math.sqrt(3.0) / 1000.0

    @pytest.mark.parametrize(
        "model",
        [
            ExponentialClutter(0.5),
            ExponentialClutter(2.0),
            ParetoClutter(3.0, 2.0),
            ParetoClutter(1.5, 1.0),
        ],
    )
    def test_kolmogorov_smirnov(self, model):
        xs = sample(model, 100_000, np.random.default_rng(23))
        out = stats.kstest(xs, np.vectorize(model.cdf))
        # 1% critical value ~ 1.628/sqrt(n)
        assert out.statistic < 1.628 / math.sqrt(100_000)


class TestTransformBits:
    # intensity_from_uniform against the formulas written out here, byte for
    # byte, whichever array receives the result: a new one, u itself, or a
    # view one element into a larger buffer
    DESTINATIONS = ["none", "fresh", "u", "offset"]
    LENGTHS = [1, 7, 65_536]

    @staticmethod
    def uniforms(length):
        u = 1.0 - np.random.default_rng(length).random(length)
        if length > 2:
            # the lower endpoint, and the smallest uniform a float holds
            u[0], u[1] = 1.0, 5e-324
        return u

    @staticmethod
    def transform(model, u, destination):
        if destination == "none":
            return intensity_from_uniform(model, u)
        if destination == "fresh":
            out = np.empty_like(u)
        elif destination == "u":
            out = u
        else:
            big = np.full(len(u) + 2, np.nan)
            out = big[1:-1]
        result = intensity_from_uniform(model, u, out=out)
        assert result is out
        if destination == "offset":
            assert np.isnan(big[0]) and np.isnan(big[-1])
        return result

    @pytest.mark.parametrize("destination", DESTINATIONS)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("lam", [1e-300, 0.1, 1.0, 3.7e200])
    def test_exponential(self, lam, length, destination):
        u = self.uniforms(length)
        want = -np.log(u) / lam
        result = self.transform(ExponentialClutter(lam), u, destination)
        assert result.tobytes() == want.tobytes()

    @pytest.mark.parametrize("destination", DESTINATIONS)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_pareto(self, alpha, length, destination):
        u = self.uniforms(length)
        beta = 2.5
        # the smallest uniform's power overflows to inf at alpha = 0.5
        with np.errstate(over="ignore"):
            want = beta * (u ** (-1 / alpha) - 1.0)
            result = self.transform(ParetoClutter(alpha, beta), u, destination)
        assert result.tobytes() == want.tobytes()


class TestWindowStatistics:
    def test_crp_window_validation(self):
        w = CrpWindow([3.0, 1.0, 2.0])
        assert w.n == 3
        assert w.samples == (3.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            CrpWindow([])
        with pytest.raises(ValueError):
            CrpWindow([1.0, -0.5])
        with pytest.raises(ValueError):
            CrpWindow([1.0, math.inf])

    def test_kth_order_statistic_examples(self):
        w = CrpWindow([3.0, 1.0, 2.0])
        assert kth_order_statistic(w, 1) == 1.0
        assert kth_order_statistic(w, 2) == 2.0
        assert kth_order_statistic(w, 3) == 3.0
        # ties occupy adjacent ranks
        assert kth_order_statistic(CrpWindow([5.0, 5.0, 2.0]), 2) == 5.0

    def test_kth_order_statistic_bounds(self):
        w = CrpWindow([1.0, 2.0])
        with pytest.raises(ValueError):
            kth_order_statistic(w, 0)
        with pytest.raises(ValueError):
            kth_order_statistic(w, 3)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=24,
        )
    )
    def test_kth_order_statistic_monotone_in_k(self, xs):
        w = CrpWindow(xs)
        ranked = [kth_order_statistic(w, k) for k in range(1, w.n + 1)]
        assert ranked == sorted(xs)

    def test_window_sum_examples(self):
        assert window_sum(CrpWindow([1.0, 2.0, 3.5])) == 6.5
        assert window_sum(CrpWindow([0.0])) == 0.0
        # an exact sum beyond the float range is inf, where fsum overflows;
        # one just inside it keeps fsum's bits
        assert window_sum(CrpWindow([1.7e308, 1.7e308])) == math.inf
        top = sys.float_info.max
        assert window_sum(CrpWindow([top, 2.0 ** 970])) == math.inf
        assert window_sum(CrpWindow([top, 2.0 ** 969])) == top

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from([0.25, 0.5, 2.0, 4.0, 1024.0]),
    )
    def test_power_of_two_scaling_is_exact(self, xs, c):
        w = CrpWindow(xs)
        scaled = CrpWindow([c * x for x in xs])
        for k in range(1, w.n + 1):
            assert kth_order_statistic(scaled, k) == c * kth_order_statistic(w, k)
        assert window_sum(scaled) == c * window_sum(w)

    def test_general_scaling_within_rounding(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            xs = rng.exponential(size=8).tolist()
            c = float(rng.uniform(0.1, 10.0))
            w, scaled = CrpWindow(xs), CrpWindow([c * x for x in xs])
            for k in (1, 4, 8):
                got = kth_order_statistic(scaled, k)
                want = c * kth_order_statistic(w, k)
                assert math.isclose(got, want, rel_tol=4e-16)
            assert math.isclose(window_sum(scaled), c * window_sum(w), rel_tol=4e-16)


class TestOsDensity:
    def test_single_cell_is_plain_exponential(self):
        assert math.isclose(
            os_density(0.5, 1, 1, 2.0), 2.0 * math.exp(-1.0), rel_tol=1e-15
        )

    def test_minimum_of_three(self):
        # minimum of n exponentials is exponential with rate n lambda
        assert math.isclose(os_density(1.0, 3, 1, 1.0), 3.0 * math.exp(-3.0), rel_tol=1e-15)

    def test_minimum_matches_rescaled_exponential_on_grid(self):
        for n in (1, 2, 5, 17):
            for lam in (0.3, 1.0, 4.0):
                for t in (0.01, 0.7, 3.0):
                    want = n * lam * math.exp(-n * lam * t)
                    assert math.isclose(
                        os_density(t, n, 1, lam), want, rel_tol=1e-12
                    ), (n, lam, t)

    def test_at_origin(self):
        assert os_density(0.0, 4, 1, 2.0) == 8.0
        assert os_density(0.0, 4, 2, 2.0) == 0.0

    def test_normalizes_to_one(self):
        for n in (1, 2, 4, 8):
            for k in range(1, n + 1):
                for lam in (0.5, 2.0):
                    scale = 1.0 / (n * lam)
                    out = integrate_semi_infinite(
                        lambda t, n=n, k=k, lam=lam: os_density(t, n, k, lam),
                        QuadratureSettings(),
                        breakpoints=[scale * 10.0**e for e in range(-3, 4)],
                    )
                    assert math.isclose(out.value, 1.0, rel_tol=1e-9), (n, k, lam)

    def test_sampled_order_statistic_follows_density(self):
        # empirical CDF of the 2nd smallest of 4 vs the integrated density
        n, k, lam = 4, 2, 1.3
        rng = np.random.default_rng(51)
        draws = [
            kth_order_statistic(CrpWindow(sample(ExponentialClutter(lam), n, rng)), k)
            for _ in range(20_000)
        ]

        def cdf(t):
            u = -math.expm1(-lam * t)
            return sum(
                math.comb(n, j) * u**j * (1.0 - u) ** (n - j) for j in range(k, n + 1)
            )

        out = stats.kstest(draws, np.vectorize(cdf))
        assert out.statistic < 1.628 / math.sqrt(20_000)

    def test_matches_the_written_out_formula(self):
        for n, k in ((2, 2), (5, 3), (17, 9), (40, 40)):
            for lam in (0.3, 4.0):
                for t in (0.01, 0.7, 3.0):
                    u = -math.expm1(-lam * t)
                    want = (lam * k * math.comb(n, k) * u ** (k - 1)
                            * math.exp(-lam * t * (n - k + 1)))
                    got = os_density(t, n, k, lam)
                    assert math.isclose(got, want, rel_tol=1e-12), (n, k, lam, t)

    def test_no_overflow_when_k_times_rate_passes_the_float_range(self):
        # k lambda = 3e308 overflows; lambda t = 1, so the density is near 6e307
        t, n, k, lam = 1e-308, 5, 3, 1e308
        x = lam * t
        want = lam * (k * math.comb(n, k) * (-math.expm1(-x)) ** (k - 1)
                      * math.exp(-x * (n - k + 1)))
        got = os_density(t, n, k, lam)
        assert math.isfinite(got)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_far_tail_and_rate_domain(self):
        assert os_density(math.inf, 3, 1, 1.0) == 0.0
        assert os_density(math.inf, 3, 2, 1.0) == 0.0
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rate_lambda"):
                os_density(1.0, 3, 1, bad)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            os_density(-1.0, 3, 1, 1.0)
        with pytest.raises(ValueError):
            os_density(1.0, 3, 0, 1.0)
        with pytest.raises(ValueError):
            os_density(1.0, 3, 4, 1.0)
        with pytest.raises(ValueError):
            os_density(1.0, 3, 1, 0.0)
