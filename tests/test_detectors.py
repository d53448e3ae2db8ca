"""Detector decision rule tests."""

import math
import random

import numpy as np
import pytest

from bayescfar.clutter_models import CrpWindow, kth_order_statistic, window_sum
from bayescfar.detectors import (
    FAMILIES,
    Decision,
    DecisionPath,
    DegenerateWindowError,
    DetectorSpec,
    Family,
    Verdict,
    bayes_os_decide,
    bayes_os_threshold,
    ca_cfar_decide,
    custom_g_decide,
    min_cfar_decide,
    threshold_multiplier,
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


class TestFamilyTable:
    @staticmethod
    def random_spec(rng, family):
        n = rng.randint(1, 40)
        k = rng.randint(1, n) if family is Family.BAYES_OS else None
        return DetectorSpec(family, n, 10.0 ** rng.uniform(-6, -0.05), k=k)

    def test_every_family_has_a_row(self):
        assert set(FAMILIES) == set(Family)

    def test_multiplier_inverts_the_pfa_curve(self):
        rng = random.Random(41)
        for family, row in FAMILIES.items():
            for _ in range(60):
                spec = self.random_spec(rng, family)
                got = row.pfa(row.multiplier(spec), 1.0, spec)
                assert math.isclose(got, spec.design_pfa, rel_tol=1e-9), spec

    def test_block_statistic_matches_the_per_cell_rule(self):
        rng = random.Random(42)
        per_cell = {
            Family.BAYES_OS: lambda w, spec: kth_order_statistic(w, spec.k).value_t,
            Family.MIN_CFAR: lambda w, spec: min(w.samples),
            Family.CA_CFAR: lambda w, spec: window_sum(w),
        }
        for family, row in FAMILIES.items():
            for _ in range(20):
                spec = self.random_spec(rng, family)
                windows = np.random.default_rng(rng.randrange(2**32)).exponential(
                    size=(50, spec.n))
                got = row.block_statistic(windows, spec)
                for values, stat in zip(windows, got):
                    want = per_cell[family](CrpWindow(values), spec)
                    if family is Family.CA_CFAR:
                        assert math.isclose(stat, want, rel_tol=1e-12)
                    else:
                        assert stat == want
