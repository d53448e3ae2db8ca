"""Detector decision rule tests."""

import contextlib
import functools
import io
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayescfar import cli
from bayescfar.clutter_models import CrpWindow, window_sum
from bayescfar.detectors import (
    FAMILIES,
    Decision,
    DecisionPath,
    DegenerateWindowError,
    DetectorSpec,
    Family,
    KRule,
    Verdict,
    bayes_os_decide,
    bayes_os_threshold,
    ca_cfar_decide,
    custom_g_decide,
    min_cfar_decide,
    predictive_pfa,
    threshold,
    threshold_multiplier,
)
from bayescfar.numerics import NumericsError, solve_monotone_decreasing
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


class TestDetectorSpec:
    def test_family_coerces_from_string(self):
        spec = DetectorSpec("bayes_os", 4, 0.1, k=1)
        assert spec.family is Family.BAYES_OS

    def test_unknown_family_rejected(self):
        for name in ("median_cfar", "custom_g"):
            with pytest.raises(ValueError):
                DetectorSpec(name, 4, 0.1)

    def test_bayes_os_requires_k(self):
        with pytest.raises(ValueError):
            DetectorSpec(Family.BAYES_OS, 4, 0.1)
        with pytest.raises(ValueError):
            DetectorSpec(Family.BAYES_OS, 4, 0.1, k=5)
        with pytest.raises(ValueError):
            DetectorSpec(Family.BAYES_OS, 4, 0.1, k=0)

    def test_order_index_is_bounded(self):
        assert DetectorSpec(Family.BAYES_OS, 10**6, 0.1, k=10**6).k == 10**6
        with pytest.raises(ValueError, match="above 1000000, the largest order index"):
            DetectorSpec(Family.BAYES_OS, 2**64, 0.1, k=2**64)

    def test_min_cfar_k_is_fixed(self):
        assert DetectorSpec(Family.MIN_CFAR, 4, 0.1).k is None
        assert DetectorSpec(Family.MIN_CFAR, 4, 0.1, k=1).k == 1
        with pytest.raises(ValueError):
            DetectorSpec(Family.MIN_CFAR, 4, 0.1, k=2)

    def test_sum_families_take_no_k(self):
        with pytest.raises(ValueError):
            DetectorSpec(Family.CA_CFAR, 4, 0.1, k=1)

    def test_pfa_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                DetectorSpec(Family.CA_CFAR, 4, bad)

    def test_window_size_bounds(self):
        with pytest.raises(ValueError):
            DetectorSpec(Family.CA_CFAR, 0, 0.1)

    @pytest.mark.parametrize("family, n, k, field", [
        (Family.CA_CFAR, 2.5, None, "window size n"),
        (Family.CA_CFAR, 4.0, None, "window size n"),
        (Family.MIN_CFAR, "4", None, "window size n"),
        (Family.BAYES_OS, 4, 2.5, "order index k"),
        (Family.BAYES_OS, 4, 2.0, "order index k"),
        (Family.BAYES_OS, 4.5, 2, "window size n"),
    ])
    def test_sizes_must_be_integers(self, family, n, k, field):
        # unchecked, a fractional n gives a threshold for a window of 2.5
        # cells, and a fractional k a TypeError from range() inside threshold
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            DetectorSpec(family, n, 0.1, k=k)
        # numpy integers are sizes too, and are stored as given
        spec = DetectorSpec(family, np.int64(4), 0.1, k=None if k is None else np.int32(2))
        assert type(spec.n) is np.int64
        assert threshold(spec, 1.0) == threshold(DetectorSpec(family, 4, 0.1, k=spec.k and 2), 1.0)


class TestBayesOsDecide:
    SPEC = DetectorSpec(Family.BAYES_OS, 4, 0.1, k=1)
    WINDOW = CrpWindow([1.0, 2.0, 3.0, 4.0])  # min = 1, threshold would be 36

    def test_fires_above_equivalent_threshold(self):
        d = bayes_os_decide(40.0, self.WINDOW, self.SPEC)
        assert d.verdict is Verdict.H1
        assert d.path is DecisionPath.PFA_COMPARISON
        assert math.isclose(d.comparison_value, 4.0 / 44.0, rel_tol=1e-12)

    def test_holds_at_equality(self):
        # os_pfa(36) equals the design value exactly; not strictly below
        d = bayes_os_decide(36.0, self.WINDOW, self.SPEC)
        assert d.verdict is Verdict.H0
        assert d.comparison_value == 0.1

    def test_holds_at_zero(self):
        d = bayes_os_decide(0.0, self.WINDOW, self.SPEC)
        assert d.verdict is Verdict.H0
        assert d.comparison_value == 1.0

    def test_degenerate_window_rejected(self):
        with pytest.raises(DegenerateWindowError):
            bayes_os_decide(1.0, CrpWindow([0.0, 2.0, 3.0, 4.0]), self.SPEC)
        # zero cells are fine as long as the k-th order statistic is positive
        spec2 = DetectorSpec(Family.BAYES_OS, 4, 0.1, k=2)
        d = bayes_os_decide(1.0, CrpWindow([0.0, 2.0, 3.0, 4.0]), spec2)
        assert isinstance(d, Decision)

    def test_spec_and_window_validation(self):
        with pytest.raises(ValueError):
            bayes_os_decide(1.0, CrpWindow([1.0, 2.0]), self.SPEC)
        with pytest.raises(ValueError):
            bayes_os_decide(-1.0, self.WINDOW, self.SPEC)
        with pytest.raises(ValueError):
            bayes_os_decide(1.0, self.WINDOW, DetectorSpec(Family.MIN_CFAR, 4, 0.1))


class TestBayesOsThreshold:
    def test_minimum_closed_form(self):
        spec = DetectorSpec(Family.BAYES_OS, 4, 0.1, k=1)
        assert bayes_os_threshold(spec, 2.0) == 72.0

    def test_two_of_two_inverts_to_one(self):
        spec = DetectorSpec(Family.BAYES_OS, 2, 1.0 / 3.0, k=2)
        assert math.isclose(bayes_os_threshold(spec, 1.0), 1.0, rel_tol=1e-9)

    def test_closed_form_matches_root_finder(self):
        # bisecting the k = 1 curve must land on the closed form
        from bayescfar.numerics import solve_monotone_decreasing

        rng = random.Random(62)
        for _ in range(40):
            n = rng.randint(1, 32)
            p = rng.choice([0.5, 0.1, 0.01, 0.001])
            t = 10.0 ** rng.uniform(-1, 1)
            spec = DetectorSpec(Family.BAYES_OS, n, p, k=1)
            closed = bayes_os_threshold(spec, t)
            solved = solve_monotone_decreasing(
                lambda tau: n * t / (tau + n * t), p
            )
            assert math.isclose(closed, solved, rel_tol=1e-9)

    def test_threshold_inverts_pfa(self):
        from bayescfar.predictive import OsPredictive, os_pfa

        for n, k, p, t in [(8, 5, 0.05, 1.0), (16, 12, 0.01, 0.3), (3, 2, 0.4, 7.0),
                           (256, 200, 1e-6, 3.0)]:
            spec = DetectorSpec(Family.BAYES_OS, n, p, k=k)
            tau = bayes_os_threshold(spec, t)
            assert math.isclose(os_pfa(tau, OsPredictive(n, k, t)), p, rel_tol=1e-9)

    def test_loose_design_gives_small_threshold(self):
        spec = DetectorSpec(Family.BAYES_OS, 4, 0.999999, k=2)
        tau = bayes_os_threshold(spec, 1.0)
        assert 0.0 <= tau < 1e-3

    def test_strictly_decreasing_in_design_pfa(self):
        taus = [
            bayes_os_threshold(DetectorSpec(Family.BAYES_OS, 6, p, k=4), 1.0)
            for p in (0.001, 0.01, 0.1, 0.5, 0.9)
        ]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_k_one_keeps_the_rounding_of_its_closed_form(self):
        # t * n * (1/pfa - 1), not m * t: the two differ in the last digit on
        # about a third of inputs, and printed thresholds must not move
        rng = random.Random(31)
        differ = 0
        for _ in range(200):
            n, p, t = rng.randint(1, 64), 10.0 ** rng.uniform(-6, -0.05), 10.0 ** rng.uniform(-3, 3)
            spec = DetectorSpec(Family.BAYES_OS, n, p, k=1)
            want = t * n * (1.0 / p - 1.0)
            assert bayes_os_threshold(spec, t) == want
            differ += want != threshold_multiplier(spec) * t
        assert differ > 0

    def test_rejects_nonpositive_statistic(self):
        spec = DetectorSpec(Family.BAYES_OS, 4, 0.1, k=1)
        with pytest.raises(ValueError):
            bayes_os_threshold(spec, 0.0)


class TestMinCfar:
    SPEC = DetectorSpec(Family.MIN_CFAR, 4, 0.1)
    WINDOW = CrpWindow([1.0, 2.0, 3.0, 4.0])

    def test_hand_threshold(self):
        d = min_cfar_decide(37.0, self.WINDOW, self.SPEC)
        assert d.verdict is Verdict.H1
        assert d.comparison_value == 36.0
        assert d.path is DecisionPath.THRESHOLD
        assert min_cfar_decide(36.0, self.WINDOW, self.SPEC).verdict is Verdict.H0

    def test_zero_minimum_fires_on_any_positive_cell(self):
        w = CrpWindow([0.0, 2.0, 3.0, 4.0])
        assert min_cfar_decide(1e-300, w, self.SPEC).verdict is Verdict.H1
        assert min_cfar_decide(0.0, w, self.SPEC).verdict is Verdict.H0

    def test_agrees_with_bayes_os_at_k_one(self):
        rng = random.Random(77)
        bayes = DetectorSpec(Family.BAYES_OS, 6, 0.03, k=1)
        plain = DetectorSpec(Family.MIN_CFAR, 6, 0.03)
        for _ in range(2000):
            w = CrpWindow([rng.expovariate(1.0) for _ in range(6)])
            z0 = rng.expovariate(rng.choice([1.0, 0.01]))
            assert (
                bayes_os_decide(z0, w, bayes).verdict
                == min_cfar_decide(z0, w, plain).verdict
            )


class TestCaCfar:
    def test_single_cell_unit_multiplier(self):
        # n = 1, pfa = 0.5: multiplier is exactly 1
        spec = DetectorSpec(Family.CA_CFAR, 1, 0.5)
        w = CrpWindow([1.0])
        assert ca_cfar_decide(1.1, w, spec).verdict is Verdict.H1
        assert ca_cfar_decide(1.0, w, spec).verdict is Verdict.H0
        assert ca_cfar_decide(1.0, w, spec).comparison_value == 1.0

    def test_threshold_value(self):
        spec = DetectorSpec(Family.CA_CFAR, 4, 0.1)
        d = ca_cfar_decide(0.0, CrpWindow([1.0, 2.0, 3.0, 4.0]), spec)
        assert math.isclose(d.comparison_value, (0.1 ** -0.25 - 1.0) * 10.0, rel_tol=1e-15)

    def test_sum_beyond_the_float_range(self):
        # 4 * 1e308 overflows a float sum; the threshold is m * sum, formed
        # exactly, and inf only where that product overflows
        w = CrpWindow([1e308] * 4)
        loose = DetectorSpec(Family.CA_CFAR, 4, 0.9)
        m = threshold_multiplier(loose)
        d = ca_cfar_decide(1e308, w, loose)
        assert d.comparison_value == 4.0 * (m * 1e308)
        assert d.verdict is Verdict.H1
        d = ca_cfar_decide(1e308, w, DetectorSpec(Family.CA_CFAR, 4, 0.1))
        assert d.comparison_value == math.inf
        assert d.verdict is Verdict.H0


class TestCustomG:
    def test_threshold_rule(self):
        w = CrpWindow([2.0, 8.0])
        d = custom_g_decide(17.0, w, 2.0, lambda win: max(win.samples))
        assert d.verdict is Verdict.H1
        assert d.comparison_value == 16.0
        assert custom_g_decide(16.0, w, 2.0, lambda win: max(win.samples)).verdict is Verdict.H0

    def test_mean_g_reproduces_cell_averaging(self):
        rng = random.Random(5)
        spec = DetectorSpec(Family.CA_CFAR, 8, 0.05)
        mult = threshold_multiplier(spec)
        for _ in range(500):
            w = CrpWindow([rng.expovariate(1.0) for _ in range(8)])
            z0 = rng.expovariate(0.2)
            via_mean = custom_g_decide(
                z0, w, 8.0 * mult, lambda win: window_sum(win) / win.n
            )
            assert via_mean.verdict == ca_cfar_decide(z0, w, spec).verdict

    def test_validation(self):
        w = CrpWindow([1.0])
        with pytest.raises(ValueError):
            custom_g_decide(1.0, w, -1.0, lambda win: 1.0)
        with pytest.raises(ValueError):
            custom_g_decide(math.nan, w, 1.0, lambda win: 1.0)


class TestPathEquivalence:
    def test_comparison_and_threshold_paths_agree(self):
        rng = random.Random(13)
        for _ in range(500):
            n = rng.randint(1, 12)
            k = rng.randint(1, n)
            p = rng.choice([0.2, 0.05, 0.01])
            spec = DetectorSpec(Family.BAYES_OS, n, p, k=k)
            w = CrpWindow([rng.expovariate(1.0) + 1e-12 for _ in range(n)])
            z0 = rng.expovariate(rng.choice([1.0, 0.05]))
            t = sorted(w.samples)[k - 1]
            via_pfa = bayes_os_decide(z0, w, spec).verdict
            via_tau = (
                Verdict.H1 if z0 > bayes_os_threshold(spec, t) else Verdict.H0
            )
            assert via_pfa == via_tau


class TestScaleEquivariance:
    def test_verdicts_survive_unit_changes(self):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(2, 10)
            k = rng.randint(1, n)
            p = rng.choice([0.3, 0.08, 0.01])
            c = 10.0 ** rng.uniform(-3, 3)
            xs = [rng.expovariate(1.0) + 1e-9 for _ in range(n)]
            z0 = rng.expovariate(rng.choice([1.0, 0.05]))
            w, cw = CrpWindow(xs), CrpWindow([c * x for x in xs])
            cases = [
                (bayes_os_decide, DetectorSpec(Family.BAYES_OS, n, p, k=k)),
                (min_cfar_decide, DetectorSpec(Family.MIN_CFAR, n, p)),
                (ca_cfar_decide, DetectorSpec(Family.CA_CFAR, n, p)),
            ]
            for decide, spec in cases:
                assert (
                    decide(c * z0, cw, spec).verdict == decide(z0, w, spec).verdict
                ), (decide.__name__, n, k, p, c)


class TestThresholdMultiplier:
    def test_known_values(self):
        assert threshold_multiplier(DetectorSpec(Family.MIN_CFAR, 4, 0.1)) == 36.0
        assert math.isclose(
            threshold_multiplier(DetectorSpec(Family.CA_CFAR, 2, 0.25)), 1.0, rel_tol=1e-15
        )
        assert threshold_multiplier(DetectorSpec(Family.BAYES_OS, 4, 0.1, k=1)) == 36.0

    @pytest.mark.parametrize("spec", [
        DetectorSpec(Family.CA_CFAR, 1, 1e-320),  # pfa ** (-1/n) overflows
        DetectorSpec(Family.MIN_CFAR, 3, 1e-320),  # n (1/pfa - 1) is inf
        DetectorSpec(Family.BAYES_OS, 1, 1e-320, k=1),
    ], ids=lambda spec: spec.family.value)
    def test_closed_form_beyond_the_float_range_is_numeric_failure(self, spec):
        with pytest.raises(NumericsError, match="beyond the float range"):
            threshold_multiplier(spec)
        with pytest.raises(NumericsError, match="beyond the float range"):
            threshold(spec, 1.0)

    def test_decide_takes_no_inf_multiplier(self):
        # an inf multiplier times a zero minimum would compare z0 against nan
        spec = DetectorSpec(Family.MIN_CFAR, 3, 1e-320)
        with pytest.raises(NumericsError):
            min_cfar_decide(5.0, CrpWindow([0.0, 0.0, 0.0]), spec)

    def test_finite_multiplier_may_give_an_infinite_threshold(self):
        spec = DetectorSpec(Family.MIN_CFAR, 1, 1e-300)
        assert math.isclose(threshold_multiplier(spec), 1e300, rel_tol=1e-15)
        assert threshold(spec, 1e300) == math.inf


def _decimal_multiplier(family, n, pfa, k=1):
    """The multiplier in 50-digit decimal arithmetic: m with (1 + m)^-n =
    pfa for ca_cfar, n (1/pfa - 1) for the reciprocal rules, and for
    bayes_os at k > 1 the root of sum_{j=n-k+1}^{n} ln(1 + m/j) = -ln pfa by
    Newton's method, which rises to it from m = -ln pfa / sum 1/j, where
    the concave left side's tangent at 0 meets it."""
    with localcontext() as ctx:
        ctx.prec = 50
        p = Decimal(pfa)
        if family is Family.CA_CFAR:
            return float((-p.ln() / n).exp() - 1)
        if k == 1:
            return float(n * (1 / p - 1))
        target, j = -p.ln(), [Decimal(j) for j in range(n - k + 1, n + 1)]
        m = target / sum(1 / i for i in j)
        for _ in range(100):
            step = (sum((1 + m / i).ln() for i in j) - target) / sum(1 / (i + m) for i in j)
            m -= step
            if abs(step) <= Decimal(10) ** -30 * m:
                return float(m)
        raise AssertionError("Newton's method did not settle")


NEAR_ONE = [1.0 - 2.0**-j for j in range(10, 54)] + [1.0 - 3.0 * 2.0**-40, 0.999999, 0.9999999999]
RECIPROCAL = [(Family.CA_CFAR, None), (Family.MIN_CFAR, None), (Family.BAYES_OS, 1)]


class TestClosedFormsNearPfaOne:
    """The closed-form multipliers at design Pfa up to 1 - 2^-53."""

    @pytest.mark.parametrize("family, k", RECIPROCAL)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 100, 200, 500])
    def test_hold_a_decimal_oracle(self, family, k, n):
        for pfa in NEAR_ONE:
            spec = DetectorSpec(family, n, pfa, k=k)
            want = _decimal_multiplier(family, n, pfa)
            # the difference that cancels in the ordinary form: m, or m / n
            difference = want if family is Family.CA_CFAR else want / n
            # below 2^-10 the forms without it are good to a few ulps; above,
            # the ordinary form loses at most 10 bits
            bound = 2.0**-50 if difference < 2.0**-10 * (1.0 - 2.0**-20) else 2.0**-40
            got = threshold_multiplier(spec)
            assert abs(got - want) <= bound * want, (pfa, got, want)
            t = 3.7
            assert abs(threshold(spec, t) - t * want) <= 2.0 * bound * t * want, pfa

    @pytest.mark.parametrize("n, k", [(2, 2), (5, 3), (16, 12), (100, 50)])
    def test_bayes_os_solve_holds_a_decimal_oracle(self, n, k):
        # the curve prod j/(j+x) steps by 2^-53 next to 1, so its solve was
        # off by 0.57 relative at n = 5, k = 3, pfa = 1 - 2^-53. Where 1/pfa
        # - 1 is below 2^-10 the log is solved, and held to its bisection's
        # width of 1e-12 and k roundings of 2^-53 in the log sum
        bound = 1e-12 + 2.0 * k * 2.0**-53
        for pfa in [p for p in NEAR_ONE if 1.0 / p - 1.0 < 2.0**-10]:
            spec = DetectorSpec(Family.BAYES_OS, n, pfa, k=k)
            want = _decimal_multiplier(Family.BAYES_OS, n, pfa, k)
            got = threshold_multiplier(spec)
            assert abs(got - want) <= bound * want, (pfa, got, want)
            t = 3.7
            assert abs(threshold(spec, t) - t * want) <= 2.0 * bound * t * want, pfa

    def test_no_multiplier_rounds_to_zero(self):
        # pfa**(-1/n) - 1 gave m = 0.0 here, so every positive cell was H1
        spec = DetectorSpec(Family.CA_CFAR, 200, 1.0 - 2.0**-53)
        assert math.isclose(threshold_multiplier(spec), 2.0**-53 / 200, rel_tol=1e-15)
        # the threshold over a window sum of 200 is 2^-53: a cell below it is H0
        window = CrpWindow([1.0] * 200)
        assert ca_cfar_decide(1e-17, window, spec).verdict is Verdict.H0
        assert ca_cfar_decide(1e-15, window, spec).verdict is Verdict.H1

    @pytest.mark.parametrize("n", [1, 2, 16, 100, 500])
    def test_ordinary_forms_keep_their_bits(self, n):
        # printed thresholds at ordinary design values do not move: the
        # reciprocal rules' forms at every pfa up to 1 - 2^-10, and ca_cfar's
        # wherever its multiplier is 2^-10 or more
        for pfa in (1e-300, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 2.0**-10):
            odds = 1.0 / pfa - 1.0
            assert threshold_multiplier(DetectorSpec(Family.MIN_CFAR, n, pfa)) == n * odds
            assert threshold_multiplier(DetectorSpec(Family.BAYES_OS, n, pfa, k=1)) == n * odds
            assert threshold(DetectorSpec(Family.BAYES_OS, n, pfa, k=1), 2.3) == 2.3 * n * odds
            m = pfa ** (-1.0 / n) - 1.0
            if m >= 2.0**-10:
                assert threshold_multiplier(DetectorSpec(Family.CA_CFAR, n, pfa)) == m


def _log_inverse_pfa(x, family, n, k):
    # -log Pfa(x) by log1p and fsum, sharing no code with the curves or the
    # solve: n log1p(x) for ca_cfar, sum_{j=n-k+1}^{n} log1p(x/j) otherwise
    if family is Family.CA_CFAR:
        return n * math.log1p(x)
    return math.fsum(math.log1p(x / j) for j in range(n - k + 1, n + 1))


@st.composite
def _design_points(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 500))
    k = draw(st.integers(1, n)) if family is Family.BAYES_OS else None
    # log-uniform on [1e-300, 1 - 2**-53], both ends included
    log_pfa = draw(st.floats(math.log(1e-300), math.log1p(-(2.0 ** -53))))
    pfa = min(max(math.exp(log_pfa), 1e-300), 1.0 - 2.0 ** -53)
    return family, n, k, pfa


class TestEveryFiniteMultiplier:
    """threshold_multiplier reaches the multiplier at every normal design Pfa.

    The oracle shares no code with the library. Every OS factor j/(j+x) lies
    between (n-k+1)/(n-k+1+x) and n/(n+x), so m lies in [(n-k+1) e, n e]
    with e = p^(-1/k) - 1; ca_cfar's m is e at k = n. The curves are
    evaluated in floats, with at most 3k roundings of 2**-53 in the product
    and |log p| + 2n in ca_cfar's power, below 1e-12 relative for n, k <= 500
    and p >= 1e-300: so m is checked as the multiplier of a design value
    within 1e-12 of p, to the solve's width (1e-11 covers its 1e-12). Near
    p = 1 that is loose, as it must be: there m moves by (1 - p)^-1 times
    any relative change of p.
    """

    ROUNDING = 1e-12
    WIDTH = 1e-11

    @settings(max_examples=200, deadline=None)
    @given(_design_points())
    @example((Family.BAYES_OS, 4, 2, 1e-300))
    @example((Family.BAYES_OS, 8, 4, 1e-300))
    @example((Family.BAYES_OS, 500, 2, 1e-300))
    @example((Family.CA_CFAR, 200, None, 1.0 - 2.0 ** -53))
    @example((Family.MIN_CFAR, 500, None, 1e-300))
    def test_multiplier_brackets_the_design_value(self, point):
        family, n, k, pfa = point
        spec = DetectorSpec(family, n, pfa, k=k)
        m = threshold_multiplier(spec)
        assert math.isfinite(m) and m >= 0.0
        order = n if family is Family.CA_CFAR else (k or 1)
        low, high = (math.expm1(-math.log(pfa * (1.0 + s * self.ROUNDING)) / order)
                     for s in (1.0, -1.0))
        if family is not Family.CA_CFAR:
            low, high = (n - order + 1) * low, n * high
        assert low * (1.0 - self.WIDTH) <= m <= high * (1.0 + self.WIDTH), (low, m, high)
        curve = (_log_inverse_pfa(m * (1.0 + s * self.WIDTH), family, n, order)
                 for s in (-1.0, 1.0))
        assert next(curve) < -math.log(pfa * (1.0 - self.ROUNDING))
        assert next(curve) > -math.log(pfa * (1.0 + self.ROUNDING))
        argv = ["threshold", "--family", family.value, "--n", str(n),
                *(["--k", str(k)] if k else []), "--pfa", repr(pfa), "--t", "1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0

    @pytest.mark.parametrize("pfa", [5e-324, 1e-320, 2.0 ** -1022 - 5e-324])
    def test_subnormal_design_value_has_no_solved_multiplier(self, pfa):
        # the solved curve near a subnormal value has fewer than 53
        # significant bits, so the solve refuses it (CLI exit 3); the closed
        # forms take it as it is
        with pytest.raises(NumericsError, match="subnormal"):
            threshold_multiplier(DetectorSpec(Family.BAYES_OS, 4, pfa, k=2))
        m = threshold_multiplier(DetectorSpec(Family.CA_CFAR, 4, pfa))
        assert m == pfa ** -0.25 - 1.0


class TestFamilyTable:
    @staticmethod
    def random_spec(rng, family):
        n = rng.randint(1, 40)
        k = rng.randint(1, n) if family is Family.BAYES_OS else None
        return DetectorSpec(family, n, 10.0 ** rng.uniform(-6, -0.05), k=k)

    def test_every_family_has_a_row(self):
        assert set(FAMILIES) == set(Family)

    def test_multiplier_inverts_the_pfa_curve(self):
        # closed (min_cfar, ca_cfar, bayes_os at k = 1) or solved (bayes_os
        # at k > 1), the multiplier m puts the row's curve at the design value
        rng = random.Random(41)
        solved = 0
        for family, row in FAMILIES.items():
            for _ in range(60):
                spec = self.random_spec(rng, family)
                solved += family is Family.BAYES_OS and spec.k > 1
                got = row.pfa(threshold_multiplier(spec), spec)
                assert math.isclose(got, spec.design_pfa, rel_tol=1e-9), spec
        assert solved > 0

    def test_every_row_forms_its_own_multiplier(self):
        # each row's multiplier is a float, the one threshold_multiplier
        # returns, bit for bit, wherever it is finite; near design Pfa 1 too
        rng = random.Random(42)
        for family, row in FAMILIES.items():
            specs = [self.random_spec(rng, family) for _ in range(40)]
            specs += [DetectorSpec(family, n, 1.0 - 2.0**-53,
                                   k=k if family is Family.BAYES_OS else None)
                      for n, k in ((1, 1), (5, 3), (16, 12))]
            for spec in specs:
                m = row.multiplier(spec)
                assert type(m) is float and math.isfinite(m), spec
                assert m.hex() == threshold_multiplier(spec).hex(), spec

    def test_an_overflowing_closed_form_is_inf_not_an_error(self):
        # the ca_cfar row returns inf where pfa ** (-1/n) overflows, and
        # threshold_multiplier turns that into the numeric failure
        spec = DetectorSpec(Family.CA_CFAR, 1, 1e-320)
        assert FAMILIES[Family.CA_CFAR].multiplier(spec) == math.inf
        with pytest.raises(NumericsError, match="beyond the float range"):
            threshold_multiplier(spec)

    def test_order_statistic_families_differ_only_in_path_and_k_rule(self):
        bayes, plain = FAMILIES[Family.BAYES_OS], FAMILIES[Family.MIN_CFAR]
        assert bayes._replace(path=plain.path, k_rule=plain.k_rule) == plain
        assert (bayes.path, bayes.k_rule) == (DecisionPath.PFA_COMPARISON, KRule.REQUIRED)
        assert (plain.path, plain.k_rule) == (DecisionPath.THRESHOLD, KRule.ONE)

    def test_solved_multiplier_is_the_bayes_os_threshold_at_unit_statistic(self):
        # bit for bit, and equal to bisecting os_pfa itself at t = 1
        rng = random.Random(606)
        for _ in range(60):
            n = rng.randint(2, 64)
            k = rng.randint(2, n)
            spec = DetectorSpec(Family.BAYES_OS, n, 10.0 ** rng.uniform(-6, -0.05), k=k)
            unit = OsPredictive(n, k, 1.0)
            want = solve_monotone_decreasing(lambda m: os_pfa(m, unit), spec.design_pfa)
            assert threshold_multiplier(spec).hex() == bayes_os_threshold(spec, 1.0).hex()
            assert threshold_multiplier(spec).hex() == want.hex(), spec

    @pytest.mark.parametrize("family", list(Family))
    def test_pfa_rejects_a_threshold_outside_its_domain(self, family):
        spec = DetectorSpec(family, 4, 0.1, k=1 if family is Family.BAYES_OS else None)
        assert predictive_pfa(spec, 0.0, 1.0) == 1.0
        for tau in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be nonnegative"):
                predictive_pfa(spec, tau, 1.0)
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                predictive_pfa(spec, 1.0, t)
            with pytest.raises(ValueError):
                threshold(spec, t)


@functools.cache
def _exponential_model() -> PredictiveModel:
    # the 1-D exponential-clutter model whose posterior is the order statistic's
    given = OsPredictive(8, 6, 1.3)
    return PredictiveModel(lambda z0, lam: lam * math.exp(-lam * z0),
                           lambda lam: posterior_lambda_os(lam, given), 1)


_OS = OsPredictive(16, 12, 1.3)
_WINDOW = CrpWindow([1.0, 2.0, 3.0, 4.0])
_CA = DetectorSpec(Family.CA_CFAR, 16, 1e-3)

# every public entry of predictive and detectors that takes tau, z0, t or
# lambda, as a function of how a Python float argument is passed
_FLOAT_ENTRIES = {
    "os_pfa": lambda v: os_pfa(v(1.7), _OS),
    "OsPredictive.t": lambda v: os_pfa(1.7, OsPredictive(16, 12, v(1.3))),
    "os_predictive_density": lambda v: os_predictive_density(v(1.7), _OS),
    "os_pfa_quadrature.tau": lambda v: os_pfa_quadrature(v(1.7), _OS),
    "os_pfa_quadrature.t": lambda v: os_pfa_quadrature(1.7, OsPredictive(16, 12, v(1.3))),
    "posterior_lambda_os": lambda v: posterior_lambda_os(v(0.9), _OS),
    "generic_predictive_density": lambda v: generic_predictive_density(
        v(1.7), _exponential_model()),
    "generic_pfa": lambda v: generic_pfa(v(1.7), _exponential_model()),
    "threshold": lambda v: threshold(_CA, v(1.3)),
    "predictive_pfa.ca_cfar": lambda v: predictive_pfa(_CA, v(1.7), v(1.3)),
    "predictive_pfa.bayes_os": lambda v: predictive_pfa(
        DetectorSpec(Family.BAYES_OS, 16, 1e-3, k=12), v(1.7), v(1.3)),
    "bayes_os_decide": lambda v: bayes_os_decide(
        v(1.7), _WINDOW, DetectorSpec(Family.BAYES_OS, 4, 0.1, k=3)).comparison_value,
    "ca_cfar_decide": lambda v: ca_cfar_decide(
        v(1.7), _WINDOW, DetectorSpec(Family.CA_CFAR, 4, 0.1)).statistic_z0,
    "custom_g_decide": lambda v: custom_g_decide(
        v(1.7), _WINDOW, v(1.3), lambda window: 1.1).comparison_value,
    "DetectorSpec.design_pfa": lambda v: threshold_multiplier(
        DetectorSpec(Family.CA_CFAR, 16, v(1.3e-3))),
}


class TestNumpyFloatScalars:
    """A numpy float scalar is read by its value, as a Python float.

    numpy 2 keeps np.float32 arithmetic in float32, and numpy 1 promoted it
    to float64, so a scalar carried into the arithmetic would make the
    answer depend on the numpy version.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.float64])
    @pytest.mark.parametrize("entry", list(_FLOAT_ENTRIES))
    def test_same_bits_as_the_python_float(self, entry, dtype):
        got = _FLOAT_ENTRIES[entry](dtype)
        want = _FLOAT_ENTRIES[entry](lambda x: float(dtype(x)))
        assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.float64])
    def test_stored_as_python_floats(self, dtype):
        assert type(DetectorSpec(Family.CA_CFAR, 4, dtype(0.1)).design_pfa) is float
        assert type(OsPredictive(4, 2, dtype(1.5)).t) is float

    def test_a_numpy_design_value_leaves_no_cache_entry_of_its_own(self):
        # np.float32(pfa) equals and hashes as the Python float pfa it holds,
        # so a spec that stored it would hand its float32 multiplier to the
        # Python-float spec through threshold_multiplier's cache
        spec = DetectorSpec(Family.CA_CFAR, 16, float(np.float32(0.54)))
        threshold_multiplier.cache_clear()
        want = threshold_multiplier(spec)
        threshold_multiplier.cache_clear()
        threshold_multiplier(DetectorSpec(Family.CA_CFAR, 16, np.float32(0.54)))
        got = threshold_multiplier(spec)
        assert type(got) is float and got.hex() == want.hex()
