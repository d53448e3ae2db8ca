"""Monte Carlo harness tests.

The analytic oracles: the cell-averaging and minimum multipliers are exact
in exponential clutter, and the minimum rule under a Swerling-I target has
detection probability (1+s) / ((1+s) + (1/p - 1)), found by integrating the
two competing exponentials directly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.special import betainc, gammainc

from bayescfar.clutter_models import CrpWindow, ExponentialClutter, ParetoClutter
from bayescfar.detectors import (
    FAMILIES,
    Decision,
    DecisionPath,
    DegenerateWindowError,
    DetectorSpec,
    Family,
    Verdict,
    bayes_os_decide,
    ca_cfar_decide,
    min_cfar_decide,
    threshold_multiplier,
)
from bayescfar.simulate import (
    SCAN_BLOCK_ROWS,
    ConfigurationError,
    Scenario,
    SimReport,
    TargetModel,
    WindowLayout,
    cfar_sweep,
    estimate_pd,
    estimate_pfa,
    max_pairwise_deviation_se,
    scan_profile,
    wilson_interval,
)


def scenario(family=Family.CA_CFAR, n=8, pfa=0.05, k=None, trials=100_000,
             seed=1234, rate=1.0, target=None):
    return Scenario(
        clutter=ExponentialClutter(rate),
        detector=DetectorSpec(family, n, pfa, k=k),
        trials=trials,
        seed=seed,
        target=target,
    )


class TestWilsonInterval:
    def test_contains_sample_proportion(self):
        for successes, trials in [(0, 10), (10, 10), (3, 7), (500, 100_000)]:
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_hand_value(self):
        # z = 1: successes 5 of 10 gives 0.5 -+ 0.5/sqrt(11)... center 0.5
        low, high = wilson_interval(5, 10, z=1.0)
        assert math.isclose((low + high) / 2.0, 0.5, rel_tol=1e-12)
        assert math.isclose(high - low, 1.0 / math.sqrt(11.0), rel_tol=1e-12)

    def test_degenerate_counts(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(100, 100)
        assert high == 1.0 and low < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestScenarioValidation:
    def test_trials_and_seed(self):
        with pytest.raises(ValueError):
            scenario(trials=0)
        with pytest.raises(ValueError):
            scenario(seed=-1)
        with pytest.raises(ValueError):
            scenario(seed=2**64)

    def test_target_kind(self):
        with pytest.raises(ValueError):
            TargetModel(kind="swerling3", snr_linear=1.0)
        with pytest.raises(ValueError):
            TargetModel(snr_linear=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="snr_linear must be finite and positive"):
                TargetModel(snr_linear=bad)

    def test_mode_and_model_mismatches(self):
        with pytest.raises(ConfigurationError):
            estimate_pfa(scenario(target=TargetModel(snr_linear=2.0), trials=10))
        with pytest.raises(ConfigurationError):
            estimate_pd(scenario(trials=10))
        pareto = Scenario(
            clutter=ParetoClutter(3.0, 2.0),
            detector=DetectorSpec(Family.CA_CFAR, 4, 0.1),
            trials=10,
            seed=1,
            target=TargetModel(snr_linear=2.0),
        )
        with pytest.raises(ConfigurationError):
            estimate_pd(pareto)

    def test_unsupported_clutter_model_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(clutter=object(), detector=DetectorSpec(Family.CA_CFAR, 4, 0.1),
                     trials=10, seed=1)


class TestEstimatePfa:
    def test_cell_averaging_hits_design_point(self):
        report = estimate_pfa(scenario(family=Family.CA_CFAR, n=16, pfa=0.01,
                                       trials=1_000_000, seed=20240815))
        assert abs(report.estimate - 0.01) < 3.0 * report.standard_error()
        assert report.wilson_low < 0.01 < report.wilson_high

    def test_minimum_rule_hits_design_point(self):
        report = estimate_pfa(scenario(family=Family.MIN_CFAR, n=4, pfa=0.1,
                                       trials=400_000, seed=55))
        assert abs(report.estimate - 0.1) < 3.0 * report.standard_error()

    def test_bayes_os_hits_design_point(self):
        report = estimate_pfa(scenario(family=Family.BAYES_OS, n=8, k=5, pfa=0.05,
                                       trials=400_000, seed=77))
        assert abs(report.estimate - 0.05) < 3.0 * report.standard_error()

    def test_single_trial(self):
        report = estimate_pfa(scenario(trials=1))
        assert report.estimate in (0.0, 1.0)
        assert report.wilson_low <= report.estimate <= report.wilson_high

    def test_deterministic_across_runs_and_workers(self):
        sc = scenario(family=Family.BAYES_OS, n=8, k=5, pfa=0.05,
                      trials=200_000, seed=9001)
        a = estimate_pfa(sc, workers=1)
        b = estimate_pfa(sc, workers=4)
        c = estimate_pfa(sc, workers=1)
        assert a == b == c

    def test_worker_env_variable(self, monkeypatch):
        sc = scenario(trials=150_000, seed=31)
        base = estimate_pfa(sc, workers=1)
        monkeypatch.setenv("BAYESCFAR_WORKERS", "3")
        assert estimate_pfa(sc) == base

    def test_report_fields_round_trip(self):
        report = estimate_pfa(scenario(trials=1000, seed=5))
        d = report.to_dict()
        assert list(d) == [
            "estimate", "trials", "wilson_low", "wilson_high",
            "seed", "scenario_digest", "degenerate_redraws",
        ]
        assert d["trials"] == 1000
        assert d["seed"] == 5
        assert report.standard_error() == (report.wilson_high - report.wilson_low) / 6.0

    def test_digest_tracks_scenario(self):
        a = estimate_pfa(scenario(trials=100, seed=5))
        b = estimate_pfa(scenario(trials=100, seed=6))
        c = estimate_pfa(scenario(trials=100, seed=5, pfa=0.04))
        assert a.scenario_digest != b.scenario_digest
        assert a.scenario_digest != c.scenario_digest

    @staticmethod
    def block_streams(seed, trials):
        # the documented keying: block b of master seed s is a Philox stream
        # keyed by SeedSequence((s, 0, b)), every block but the last 65536 trials
        start, block = 0, 0
        while start < trials:
            size = min(65536, trials - start)
            yield size, np.random.Generator(
                np.random.Philox(np.random.SeedSequence((seed, 0, block)))
            )
            start += size
            block += 1

    def test_independent_replication_of_the_stream(self):
        # regenerate the trial stream by hand and verify the hit count, trial
        # by trial, on the threshold path and on the false-alarm-comparison
        # path (k = 1: Pfa(z0) < p iff z0 > n t (1/p-1)). A block draws its
        # minima first, as the largest of n uniforms, Beta(n, 1), through
        # -ln(.)/lambda, then its cells under test from 1 - U[0, 1)
        n, p, lam, trials, seed = 4, 0.1, 2.0, 70_000, 4242
        sc = scenario(family=Family.MIN_CFAR, n=n, pfa=p, trials=trials,
                      seed=seed, rate=lam)
        report = estimate_pfa(sc, workers=1)

        hits_threshold = 0
        hits_pfa_rule = 0
        for size, rng in self.block_streams(seed, trials):
            t = -np.log(rng.beta(n, 1, size)) / lam
            cut = -np.log(1.0 - rng.random(size)) / lam
            multiplier = n * (1.0 / p - 1.0)
            via_threshold = cut > multiplier * t
            via_pfa = (n * t / (cut + n * t)) < p
            assert np.array_equal(via_threshold, via_pfa)
            hits_threshold += int(via_threshold.sum())
            hits_pfa_rule += int(via_pfa.sum())
        assert report.estimate == hits_threshold / trials
        assert hits_threshold == hits_pfa_rule

    def test_independent_replication_of_the_pareto_window_stream(self):
        # a Pareto window sum has no closed form, so a block still draws its
        # (rows, n) window matrix, beta (U^(-1/alpha) - 1) with U in (0, 1],
        # sums each row, then draws its cells under test the same way
        n, p, alpha, beta, trials, seed = 6, 0.05, 3.0, 2.0, 70_000, 2718
        sc = Scenario(
            clutter=ParetoClutter(alpha, beta),
            detector=DetectorSpec(Family.CA_CFAR, n, p),
            trials=trials,
            seed=seed,
        )
        report = estimate_pfa(sc, workers=1)

        hits = 0
        for size, rng in self.block_streams(seed, trials):
            window = beta * ((1.0 - rng.random((size, n))) ** (-1.0 / alpha) - 1.0)
            cut = beta * ((1.0 - rng.random(size)) ** (-1.0 / alpha) - 1.0)
            multiplier = p ** (-1.0 / n) - 1.0
            hits += int(np.count_nonzero(cut > multiplier * window.sum(axis=1)))
        assert report.estimate == hits / trials

    def test_wilson_coverage_meta(self):
        # the 3-sigma interval should cover the known truth essentially always
        truth = 0.02
        covered = 0
        for seed in range(200):
            report = estimate_pfa(scenario(family=Family.CA_CFAR, n=8, pfa=truth,
                                           trials=100_000, seed=seed))
            covered += report.wilson_low <= truth <= report.wilson_high
        assert covered >= 198


def _os_pfa_oracle(x, n, k):
    # prod_{j=n-k+1}^{n} j/(j+x), the OS false-alarm curve, written out here
    j = np.arange(n - k + 1, n + 1, dtype=float)
    return np.prod(j / (j + np.asarray(x, dtype=float)[..., None]), axis=-1)


def _family_spec(family, n, k, pfa=0.01):
    # k is the order index of the statistic: bayes_os takes it, min_cfar is
    # the k = 1 rule and ca_cfar takes none
    return DetectorSpec(family, n, pfa, k=k if family is Family.BAYES_OS else None)


_OS_DRAW_CASES = [(Family.BAYES_OS, 4, 1), (Family.BAYES_OS, 16, 12), (Family.BAYES_OS, 256, 200),
                  (Family.MIN_CFAR, 4, 1), (Family.MIN_CFAR, 16, 1), (Family.MIN_CFAR, 256, 1)]


class TestStatisticDraws:
    """Each family's draw against the exact law of its window statistic.

    The k-th smallest of n i.i.d. samples with CDF F has CDF
    I_{F(t)}(k, n - k + 1) (a binomial tail), and the sum of n exponential
    samples of rate lambda has CDF P(n, lambda t); both come from scipy here,
    with F written out, so the oracle shares no code with the draws.
    """

    SIZE = 20_000

    @staticmethod
    def draws(clutter, spec, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        return FAMILIES[spec.family].draw(clutter, spec, rng, TestStatisticDraws.SIZE)

    @staticmethod
    def assert_ks(sample, cdf):
        assert sample.shape == (TestStatisticDraws.SIZE,)
        result = stats.kstest(sample, cdf)
        assert result.pvalue > 1e-3, result

    @pytest.mark.parametrize("family, n, k", _OS_DRAW_CASES)
    def test_order_statistic_in_exponential_clutter(self, family, n, k):
        lam = 1.7
        sample = self.draws(ExponentialClutter(lam), _family_spec(family, n, k), 100 * n + k)
        self.assert_ks(sample, lambda t: betainc(k, n - k + 1, -np.expm1(-lam * t)))

    @pytest.mark.parametrize("family, k", [(Family.BAYES_OS, 5), (Family.MIN_CFAR, 1)])
    def test_order_statistic_in_pareto_clutter(self, family, k):
        n, alpha, beta = 8, 3.0, 2.0
        sample = self.draws(ParetoClutter(alpha, beta), _family_spec(family, n, k), 800 + k)
        self.assert_ks(
            sample,
            lambda t: betainc(k, n - k + 1, -np.expm1(-alpha * np.log1p(t / beta))),
        )

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_window_sum_in_exponential_clutter(self, n):
        lam = 0.6
        sample = self.draws(ExponentialClutter(lam), DetectorSpec(Family.CA_CFAR, n, 0.01), n)
        self.assert_ks(sample, lambda t: gammainc(n, lam * t))

    @pytest.mark.parametrize("family", list(Family))
    def test_hit_rate_matches_brute_window_monte_carlo(self, family):
        # whole windows drawn here with their own generator; the statistic,
        # the threshold and the OS false-alarm curve are written out locally
        n, k, p, lam, trials = 8, 5, 0.05, 1.5, 400_000
        spec = _family_spec(family, n, k, p)
        rng = np.random.default_rng(8088)
        hits = 0
        for _ in range(trials // 100_000):
            window = rng.exponential(1.0 / lam, size=(100_000, n))
            cut = rng.exponential(1.0 / lam, size=100_000)
            if family is Family.BAYES_OS:
                t = np.partition(window, k - 1, axis=1)[:, k - 1]
                hit = _os_pfa_oracle(cut / t, n, k) < p
            elif family is Family.MIN_CFAR:
                hit = cut > n * (1.0 / p - 1.0) * window.min(axis=1)
            else:
                hit = cut > (p ** (-1.0 / n) - 1.0) * window.sum(axis=1)
            hits += int(np.count_nonzero(hit))
        brute = hits / trials
        se_brute = math.sqrt(brute * (1.0 - brute) / trials)

        report = estimate_pfa(Scenario(ExponentialClutter(lam), spec, trials, seed=606))
        gap = abs(report.estimate - brute)
        assert gap < 3.0 * math.hypot(report.standard_error(), se_brute)

    @pytest.mark.parametrize("family, k", [(Family.BAYES_OS, 200), (Family.CA_CFAR, None)])
    def test_design_point_with_a_window_in_the_hundreds(self, family, k):
        report = estimate_pfa(scenario(family=family, n=256, k=k, pfa=0.01,
                                       trials=1_000_000, seed=256))
        assert abs(report.estimate - 0.01) < 3.0 * report.standard_error()


class TestDegenerateRedraws:
    # the window statistic is drawn through clutter_models' transform, so
    # that is where a clutter model producing zero samples is simulated
    def test_zero_statistics_are_redrawn_and_counted(self, monkeypatch):
        import bayescfar.clutter_models as clutter_models

        original = clutter_models.intensity_from_uniform

        def lossy(model, u):
            x = original(model, u)
            x[u > 0.9] = 0.0
            return x

        monkeypatch.setattr(clutter_models, "intensity_from_uniform", lossy)
        sc = scenario(family=Family.BAYES_OS, n=4, k=1, pfa=0.1,
                      trials=20_000, seed=3)
        report = estimate_pfa(sc, workers=1)
        assert report.degenerate_redraws > 0
        assert report.trials == 20_000
        assert estimate_pfa(sc, workers=4) == report

    def test_never_positive_statistic_gives_up(self, monkeypatch):
        import bayescfar.clutter_models as clutter_models

        monkeypatch.setattr(
            clutter_models, "intensity_from_uniform", lambda model, u: np.zeros_like(u)
        )
        sc = scenario(family=Family.BAYES_OS, n=4, k=1, pfa=0.1, trials=10, seed=3)
        with pytest.raises(ConfigurationError):
            estimate_pfa(sc)

    def test_clean_streams_never_redraw(self):
        report = estimate_pfa(scenario(family=Family.BAYES_OS, n=4, k=1,
                                       pfa=0.1, trials=50_000, seed=12))
        assert report.degenerate_redraws == 0


class TestEstimatePd:
    def test_minimum_rule_matches_analytic_value(self):
        # Pd = (1+s) / ((1+s) + (1/p - 1)); s = 10, p = 0.1 gives 0.55
        sc = scenario(family=Family.MIN_CFAR, n=4, pfa=0.1, trials=1_000_000,
                      seed=808, target=TargetModel(snr_linear=10.0))
        report = estimate_pd(sc)
        assert abs(report.estimate - 0.55) < 3.0 * report.standard_error()

    def test_agrees_with_independent_harness(self):
        # same quantity, separately coded: flat chunked numpy passes with its
        # own generator, no block scheme, no shared helpers
        n, p, s, lam = 4, 0.1, 10.0, 0.7
        rng = np.random.default_rng(2025)
        trials = 100_000_000
        chunk = 2_000_000
        mult = n * (1.0 / p - 1.0)
        hits = 0
        for _ in range(trials // chunk):
            window = rng.exponential(1.0 / lam, size=(chunk, n))
            cut = rng.exponential((1.0 + s) / lam, size=chunk)
            hits += int(np.count_nonzero(cut > mult * window.min(axis=1)))
        brute = hits / trials
        se_brute = math.sqrt(brute * (1.0 - brute) / trials)

        sc = scenario(family=Family.MIN_CFAR, n=n, pfa=p, trials=1_000_000,
                      seed=31337, rate=lam, target=TargetModel(snr_linear=s))
        report = estimate_pd(sc)
        gap = abs(report.estimate - brute)
        assert gap < 3.0 * math.hypot(report.standard_error(), se_brute)

    def test_vanishing_target_recovers_false_alarm_rate(self):
        sc = scenario(family=Family.BAYES_OS, n=8, k=6, pfa=0.05, trials=400_000,
                      seed=6, target=TargetModel(snr_linear=1e-9))
        report = estimate_pd(sc)
        assert abs(report.estimate - 0.05) < 3.0 * report.standard_error()

    def test_monotone_in_snr_with_common_randomness(self):
        estimates = []
        for s in (1.0, 2.0, 4.0, 8.0, 16.0):
            sc = scenario(family=Family.MIN_CFAR, n=4, pfa=0.1, trials=100_000,
                          seed=99, target=TargetModel(snr_linear=s))
            estimates.append(estimate_pd(sc).estimate)
        assert all(a <= b for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] > estimates[0]


def _os_multiplier(n, k, pfa):
    # the x with prod_{j=n-k+1}^{n} j/(j+x) = pfa, from its log form
    j = np.arange(n - k + 1, n + 1, dtype=float)
    return optimize.brentq(lambda x: np.log1p(x / j).sum() + math.log(pfa), 0.0, 1e12,
                           rtol=1e-14)


def _pareto_pfa_oracle(m, n, k, alpha):
    # E[S(m t)] for the k-th smallest t of n Lomax samples: V = S(t) is
    # Beta(n-k+1, k) and t = beta (V^(-1/alpha) - 1), so beta cancels
    law = stats.beta(n - k + 1, k)
    value, _ = integrate.quad(
        lambda v: (1.0 + m * (v ** (-1.0 / alpha) - 1.0)) ** -alpha * law.pdf(v),
        0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    return value


class TestAnalyticOracles:
    """Estimates against 1-D integrals over the law of the window statistic.

    A rule with threshold m * t fires with probability E[S(m t)], where S is
    the survival function of the cell under test: in Pareto clutter the
    integral above, and for a Swerling-1 target in exponential clutter the
    OS product at x = m/(1+SNR), or (1 + m/(1+SNR))^-n for a window sum. The
    multipliers are solved here too, so no oracle shares code with the draws.
    """

    @pytest.mark.parametrize("family, n, k, pfa, alpha, beta, trials, seed", [
        (Family.BAYES_OS, 16, 12, 0.01, 3.0, 2.0, 1_000_000, 9101),
        (Family.MIN_CFAR, 8, 1, 0.05, 2.5, 1.0, 1_000_000, 9102),
        (Family.BAYES_OS, 24, 18, 0.001, 4.0, 0.5, 2_000_000, 9103),
    ])
    def test_pfa_in_pareto_clutter(self, family, n, k, pfa, alpha, beta, trials, seed):
        m = _os_multiplier(n, k, pfa) if family is Family.BAYES_OS else n * (1.0 / pfa - 1.0)
        want = _pareto_pfa_oracle(m, n, k, alpha)
        spec = _family_spec(family, n, k, pfa)
        report = estimate_pfa(Scenario(ParetoClutter(alpha, beta), spec, trials, seed))
        assert abs(report.estimate - want) < 3.0 * report.standard_error(), (report, want)

    @pytest.mark.parametrize("family, n, k, pfa, snr, rate, seed", [
        (Family.BAYES_OS, 16, 12, 0.01, 10.0, 1.3, 9104),
        (Family.CA_CFAR, 16, None, 0.01, 5.0, 0.7, 9105),
        (Family.BAYES_OS, 8, 6, 0.001, 20.0, 1.0, 9106),
    ])
    def test_swerling1_pd_in_exponential_clutter(self, family, n, k, pfa, snr, rate, seed):
        if family is Family.BAYES_OS:
            want = float(_os_pfa_oracle(_os_multiplier(n, k, pfa) / (1.0 + snr), n, k))
        else:
            want = (1.0 + (pfa ** (-1.0 / n) - 1.0) / (1.0 + snr)) ** -n
        report = estimate_pd(scenario(family=family, n=n, k=k, pfa=pfa, trials=1_000_000,
                                      seed=seed, rate=rate, target=TargetModel(snr_linear=snr)))
        assert abs(report.estimate - want) < 3.0 * report.standard_error(), (report, want)


class TestCfarSweep:
    def test_estimates_do_not_track_clutter_power(self):
        sc = scenario(family=Family.CA_CFAR, n=16, pfa=0.01, trials=200_000, seed=17)
        reports = cfar_sweep(sc, [0.5, 1.0, 2.0, 10.0])
        assert len(reports) == 4
        for r in reports:
            assert abs(r.estimate - 0.01) < 3.0 * r.standard_error()
        assert max_pairwise_deviation_se(reports) < 3.0

    def test_single_point_sweep(self):
        reports = cfar_sweep(scenario(trials=10_000, seed=2), [1.0])
        assert len(reports) == 1
        assert max_pairwise_deviation_se(reports) == 0.0

    def test_sweep_is_reproducible(self):
        sc = scenario(trials=50_000, seed=5)
        assert cfar_sweep(sc, [0.5, 2.0]) == cfar_sweep(sc, [0.5, 2.0])

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            cfar_sweep(scenario(trials=10), [])
        with pytest.raises(ConfigurationError):
            cfar_sweep(scenario(trials=10), [1.0, -2.0])
        with pytest.raises(ConfigurationError, match="finite and positive"):
            cfar_sweep(scenario(trials=10), [1.0, math.inf])
        pareto = Scenario(
            clutter=ParetoClutter(3.0, 2.0),
            detector=DetectorSpec(Family.CA_CFAR, 4, 0.1),
            trials=10,
            seed=1,
        )
        with pytest.raises(ConfigurationError):
            cfar_sweep(pareto, [1.0])


class TestScanProfile:
    SPEC = DetectorSpec(Family.MIN_CFAR, 4, 0.1)
    LAYOUT = WindowLayout(2, 2)

    def test_flat_profile_stays_quiet(self):
        decisions = scan_profile([1.0] * 40, self.SPEC, self.LAYOUT)
        assert len(decisions) == 36
        assert all(d.verdict is Verdict.H0 for d in decisions)

    def test_spike_is_flagged(self):
        profile = [1.0] * 20
        profile[9] = 1e6
        decisions = scan_profile(profile, self.SPEC, self.LAYOUT)
        # eligible cells start at index 2; decision j covers cell j + 2
        assert decisions[7].verdict is Verdict.H1
        flagged = [j for j, d in enumerate(decisions) if d.verdict is Verdict.H1]
        assert flagged == [7]

    def test_spike_in_window_masks_nothing_for_min_rule(self):
        # the spike enters neighboring windows but the minimum ignores it
        profile = [1.0] * 20
        profile[9] = 1e6
        decisions = scan_profile(profile, self.SPEC, self.LAYOUT)
        assert decisions[6].verdict is Verdict.H0
        assert decisions[8].verdict is Verdict.H0

    def test_exact_fit_has_no_eligible_cell(self):
        assert scan_profile([1.0] * 4, self.SPEC, self.LAYOUT) == []

    def test_too_short_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            scan_profile([1.0] * 3, self.SPEC, self.LAYOUT)

    def test_layout_must_match_window_size(self):
        with pytest.raises(ConfigurationError):
            scan_profile([1.0] * 10, self.SPEC, WindowLayout(3, 2))

    def test_asymmetric_layout(self):
        spec = DetectorSpec(Family.CA_CFAR, 3, 0.2)
        decisions = scan_profile([1.0, 2.0, 3.0, 4.0, 5.0], spec, WindowLayout(3, 0))
        assert len(decisions) == 2

    def test_value_and_layout_validation(self):
        with pytest.raises(ValueError):
            scan_profile([1.0, -1.0, 2.0, 3.0, 4.0], self.SPEC, self.LAYOUT)
        with pytest.raises(ValueError):
            WindowLayout(-1, 2)
        with pytest.raises(ValueError):
            WindowLayout(0, 0)
        # the first bad value is named as a plain float
        with pytest.raises(ValueError, match=r"got -1\.0$"):
            scan_profile(np.array([1.0, 2.0, -1.0, math.nan, 4.0]), self.SPEC, self.LAYOUT)
        with pytest.raises(ValueError, match=r"got nan$"):
            scan_profile([1.0, math.nan, -1.0, 3.0, 4.0], self.SPEC, self.LAYOUT)
        with pytest.raises(ValueError, match="one-dimensional"):
            scan_profile(np.ones((6, 4)), self.SPEC, self.LAYOUT)
        with pytest.raises(ValueError, match="one-dimensional"):
            scan_profile([[1.0] * 6] * 4, self.SPEC, self.LAYOUT)

    def test_sequences_and_arrays_scan_alike(self):
        values = [1.0, 3.0, 2.0, 40.0, 1.0, 0.5, 2.0, 1.0]
        want = scan_profile(values, self.SPEC, self.LAYOUT)
        assert len(want) == 4 and want[1].verdict is Verdict.H1
        for profile in (tuple(values), np.array(values), np.array(values, dtype=np.float32)):
            assert scan_profile(profile, self.SPEC, self.LAYOUT) == want
        assert all(type(d.statistic_z0) is float and type(d.comparison_value) is float
                   for d in want)

    def test_zero_order_statistic_takes_the_limit(self):
        # k = 2 of 4: wherever the window holds two zeros the statistic is 0;
        # z0 > 0 there gives Pfa 0 and H1, z0 = 0 gives Pfa 1 and H0
        spec = DetectorSpec(Family.BAYES_OS, 4, 0.1, k=2)
        profile = [1.0, 2.0, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 3.0, 4.0, 5.0]
        decisions = scan_profile(profile, spec, self.LAYOUT)
        limit = {2: (Verdict.H0, 1.0), 3: (Verdict.H0, 1.0), 4: (Verdict.H0, 1.0),
                 5: (Verdict.H1, 0.0), 6: (Verdict.H0, 1.0), 8: (Verdict.H1, 0.0)}
        for j, d in enumerate(decisions):
            cell = j + 2
            if cell in limit:
                verdict, pfa = limit[cell]
                assert d == Decision(verdict, profile[cell], pfa, DecisionPath.PFA_COMPARISON)
            else:
                window = CrpWindow(profile[cell - 2:cell] + profile[cell + 1:cell + 3])
                assert d == bayes_os_decide(profile[cell], window, spec)
        assert len(decisions) == 7

    def test_negative_zero_sample_counts_as_zero(self):
        # numpy's min keeps the later of two signed zeros and Python's the
        # first; a -0.0 window sample is 0.0 on both paths, while a -0.0
        # cell under test keeps its sign in statistic_z0
        spec = DetectorSpec(Family.MIN_CFAR, 2, 0.1)
        profile = [0.0, -0.0, 1.0, -0.0, 3.0]
        decisions = scan_profile(profile, spec, WindowLayout(2, 0))
        assert decisions == _per_cell(profile, spec, WindowLayout(2, 0))
        assert [d.comparison_value.hex() for d in decisions] == [0.0.hex()] * 3
        assert math.copysign(1.0, decisions[1].statistic_z0) == -1.0
        assert math.copysign(1.0, CrpWindow([-0.0]).samples[0]) == 1.0

    @pytest.mark.parametrize("pfa, threshold", [(0.9, None), (0.1, math.inf)])
    def test_cell_averaging_sum_beyond_the_float_range(self, pfa, threshold):
        spec = DetectorSpec(Family.CA_CFAR, 4, pfa)
        if threshold is None:
            threshold = 4.0 * (threshold_multiplier(spec) * 1e308)
        decisions = scan_profile([1e308] * 12, spec, self.LAYOUT)
        assert len(decisions) == 8
        verdict = Verdict.H1 if 1e308 > threshold else Verdict.H0
        assert all(d == Decision(verdict, 1e308, threshold, DecisionPath.THRESHOLD)
                   for d in decisions)


class TestDecisionContract:
    def test_scan_and_decide_give_equal_immutable_decisions(self):
        spec = DetectorSpec(Family.CA_CFAR, 2, 0.1)
        profile = [1.0, 2.0, 40.0, 0.5]
        got = scan_profile(profile, spec, WindowLayout(2, 0))
        want = _per_cell(profile, spec, WindowLayout(2, 0))
        assert got == want
        assert [hash(d) for d in got] == [hash(d) for d in want]
        assert len(set(got + want)) == 2
        d = got[0]
        assert repr(d) == ("Decision(verdict=<Verdict.H1: 'H1'>, statistic_z0=40.0, "
                           "comparison_value=%r, path=<DecisionPath.THRESHOLD: 'threshold'>)"
                           % d.comparison_value)
        for field in Decision._fields:
            with pytest.raises(AttributeError):
                setattr(d, field, None)
        with pytest.raises(AttributeError):
            d.extra = 1.0
        assert Decision._fields == ("verdict", "statistic_z0", "comparison_value", "path")


def _per_cell(profile, spec, layout):
    """The per-cell decide of every eligible cell, the zero-statistic limit added."""
    decide = {Family.BAYES_OS: bayes_os_decide, Family.MIN_CFAR: min_cfar_decide,
              Family.CA_CFAR: ca_cfar_decide}[spec.family]
    lead, trail = layout.leading, layout.trailing
    out = []
    for i in range(lead, len(profile) - trail):
        window = CrpWindow(profile[i - lead:i] + profile[i + 1:i + 1 + trail])
        try:
            out.append(decide(profile[i], window, spec))
        except DegenerateWindowError:
            z0 = profile[i]
            out.append(Decision(Verdict.H1 if z0 > 0 else Verdict.H0, z0,
                                0.0 if z0 > 0 else 1.0, DecisionPath.PFA_COMPARISON))
    return out


def _assert_matches_per_cell(profile, spec, layout):
    got = scan_profile(profile, spec, layout)
    want = _per_cell(profile, spec, layout)
    assert len(got) == len(want)
    for cell, (g, w) in enumerate(zip(got, want), start=layout.leading):
        assert g == w, (cell, g, w)
        assert g.comparison_value.hex() == w.comparison_value.hex(), (cell, g, w)


@st.composite
def _scan_cases(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n)) if family is Family.BAYES_OS else None
    spec = DetectorSpec(family, n, 10.0 ** draw(st.floats(-6.0, -0.05)), k=k)
    lead = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    spread = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-150, 150))
    pool = draw(st.lists(spread, min_size=1, max_size=3))
    value = st.one_of(spread, st.sampled_from(pool), st.just(0.0), st.just(-0.0))
    # up to 300 eligible cells, so the ca_cfar scan runs both its per-row
    # fsum (few rows) and its certified vectorized sum (many rows)
    cells = draw(st.integers(n, n + 300))
    profile = draw(st.lists(value, min_size=cells, max_size=cells))
    return profile, spec, WindowLayout(lead, n - lead)


def _long_window_case():
    rng = np.random.default_rng(256)
    profile = (rng.exponential(size=300) * 10.0 ** rng.uniform(-150, 150, 300)).tolist()
    profile[100:150] = [0.0] * 50
    return profile, DetectorSpec(Family.BAYES_OS, 256, 1e-3, k=200), WindowLayout(128, 128)


def _adversarial_ca_cases():
    # windows whose exactly rounded sum a plain or compensated running sum
    # gets wrong, or whose sum the certified cascade cannot vouch for; with
    # the (n, 0) layout every window of a repeated pattern is a rotation of
    # it, and 300 cells give the scan a block long enough for its vectorized sum
    tiny = 2.0 ** -113
    rng = np.random.default_rng(8)
    cases = {
        "tie-to-even": [1.0, 2.0 ** -53],
        "near-tie-above-power-of-two": [1.0, 2.0 ** -53, tiny],
        "near-tie-split": [1.0, 2.0 ** -54, 2.0 ** -54, tiny],
        "near-tie-odd-mantissa": [3.0, 2.0 ** -52, 2.0 ** -52 * tiny, 0.0],
        "near-tie-many-terms": [1.0] + [2.0 ** -57] * 8 + [tiny],
        "just-below-power-of-two": [0.5, 0.5 - 2.0 ** -54, 2.0 ** -110],
        # the sum is 1 - 2**-54 - 2**-108, so it rounds down to 1 - 2**-53,
        # while the cascade's c rounds up and fl(s + c) is 1.0
        "below-power-of-two-lost-error": [1.0 - 2.0 ** -53, 2.0 ** -55, 2.0 ** -55 - 2.0 ** -108],
        "just-below-tie": [0.5, 0.5 - 2.0 ** -54, 0.0],
        "below-power-of-two-many-terms": [1.0 - 2.0 ** -53] + [2.0 ** -58] * 15,
        "quantized-eighths": (rng.integers(0, 80, 48) / 8.0).tolist(),
        "all-zero": [0.0] * 5,
        "subnormal": [5e-324, 2.5e-323, 0.0, 2.0 ** -1022 - 5e-324, 2.0 ** -1060],
        "mixed-1e300-1e-300": rng.choice([1e300, 1e-300, 3e300, 7e-301], 12).tolist(),
        "sum-overflows": [1e308, 1e308, 1.0, 5e-324],
    }
    params = [pytest.param((p * 300)[:300], len(p), 1e-3, id=name) for name, p in cases.items()]
    # a multiplier below one keeps an overflowing sum's threshold finite
    params.append(pytest.param([1e308] * 300, 4, 0.9, id="sum-overflows-threshold-finite"))
    for n in (256, 300):
        scale = 10.0 ** rng.uniform(-100, 100, 2 * n)
        near_ties = np.where(rng.random(2 * n) < 0.5, 2.0 ** -53, tiny)
        profile = np.where(rng.random(2 * n) < 0.1, near_ties, rng.exponential(size=2 * n) * scale)
        params.append(pytest.param(profile.tolist(), n, 1e-3, id=f"n={n}"))
    return params


class TestScanMatchesPerCell:
    # ties, zeros (with and without a zero statistic), one-sided layouts and
    # values over 300 decades; every Decision must equal the per-cell one
    @settings(max_examples=150, deadline=None)
    @given(_scan_cases())
    @example(_long_window_case())
    def test_random_profiles(self, case):
        _assert_matches_per_cell(*case)

    @pytest.mark.parametrize("family", list(Family))
    def test_profile_longer_than_one_block(self, family):
        n = 16
        spec = DetectorSpec(family, n, 1e-3, k=12 if family is Family.BAYES_OS else None)
        rng = np.random.default_rng(4096)
        profile = rng.exponential(size=2 * SCAN_BLOCK_ROWS + 37 + n)
        profile[rng.random(profile.size) < 0.01] *= 1000.0
        _assert_matches_per_cell(profile.tolist(), spec, WindowLayout(9, 7))

    @pytest.mark.parametrize("profile, n, pfa", _adversarial_ca_cases())
    def test_adversarial_cell_averaging_windows(self, profile, n, pfa):
        spec = DetectorSpec(Family.CA_CFAR, n, pfa)
        _assert_matches_per_cell(profile, spec, WindowLayout(n, 0))
        _assert_matches_per_cell(profile, spec, WindowLayout(n // 2, n - n // 2))
