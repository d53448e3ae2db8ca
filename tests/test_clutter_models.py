"""Clutter model and window statistic tests.

Sampling checks use fixed seeds; distributional assertions run at the 1%
level so a correct implementation passes with margin on these seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bayescfar.clutter_models import (
    CrpWindow,
    ExponentialClutter,
    ParetoClutter,
    kth_order_statistic,
    os_density,
    sample,
    window_sum,
)
from bayescfar.numerics import integrate_semi_infinite


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
        first = kth_order_statistic(w, 1)
        assert first.value_t == 1.0
        assert first.index_k == 1
        assert first.window_size_n == 3
        assert kth_order_statistic(w, 2).value_t == 2.0
        assert kth_order_statistic(w, 3).value_t == 3.0
        # ties occupy adjacent ranks
        assert kth_order_statistic(CrpWindow([5.0, 5.0, 2.0]), 2).value_t == 5.0

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
        ranked = [kth_order_statistic(w, k).value_t for k in range(1, w.n + 1)]
        assert ranked == sorted(xs)

    def test_window_sum_examples(self):
        assert window_sum(CrpWindow([1.0, 2.0, 3.5])) == 6.5
        assert window_sum(CrpWindow([0.0])) == 0.0

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
            assert (
                kth_order_statistic(scaled, k).value_t
                == c * kth_order_statistic(w, k).value_t
            )
        assert window_sum(scaled) == c * window_sum(w)

    def test_general_scaling_within_rounding(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            xs = rng.exponential(size=8).tolist()
            c = float(rng.uniform(0.1, 10.0))
            w, scaled = CrpWindow(xs), CrpWindow([c * x for x in xs])
            for k in (1, 4, 8):
                got = kth_order_statistic(scaled, k).value_t
                want = c * kth_order_statistic(w, k).value_t
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
                        breakpoints=[scale * 10.0**e for e in range(-3, 4)],
                    )
                    assert math.isclose(out.value, 1.0, rel_tol=1e-9), (n, k, lam)

    def test_sampled_order_statistic_follows_density(self):
        # empirical CDF of the 2nd smallest of 4 vs the integrated density
        n, k, lam = 4, 2, 1.3
        rng = np.random.default_rng(51)
        draws = [
            kth_order_statistic(
                CrpWindow(sample(ExponentialClutter(lam), n, rng)), k
            ).value_t
            for _ in range(20_000)
        ]

        def cdf(t):
            u = -math.expm1(-lam * t)
            return sum(
                math.comb(n, j) * u**j * (1.0 - u) ** (n - j) for j in range(k, n + 1)
            )

        out = stats.kstest(draws, np.vectorize(cdf))
        assert out.statistic < 1.628 / math.sqrt(20_000)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            os_density(-1.0, 3, 1, 1.0)
        with pytest.raises(ValueError):
            os_density(1.0, 3, 0, 1.0)
        with pytest.raises(ValueError):
            os_density(1.0, 3, 4, 1.0)
        with pytest.raises(ValueError):
            os_density(1.0, 3, 1, 0.0)
