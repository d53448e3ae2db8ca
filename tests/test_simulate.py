"""Monte Carlo harness tests.

The analytic oracles: the cell-averaging and minimum multipliers are exact
in exponential clutter, and the minimum rule under a Swerling-I target has
detection probability (1+s) / ((1+s) + (1/p - 1)), found by integrating the
two competing exponentials directly.
"""

import copy
import gc
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.special import betainc, gammainc

from bayescfar.clutter_models import (
    CrpWindow,
    ExponentialClutter,
    ParetoClutter,
    _scaled_window_sum,
    _scaled_window_sums,
    _window_minima,
    _window_sums,
)
from bayescfar.detectors import (
    FAMILIES,
    SCAN_BLOCK_ROWS,
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
    ConfigurationError,
    ScanResult,
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

    @pytest.mark.parametrize("field, value", [
        ("trials", 10.5), ("trials", 10.0), ("seed", 1.5), ("seed", "7"),
    ])
    def test_trials_and_seed_must_be_integers(self, field, value):
        # unchecked, a fractional count fails only inside estimate_pfa, as a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            scenario(**{field: value})
        # numpy integers are counts too: stored as given, with the same digest
        sc = scenario(trials=np.int64(1000), seed=np.uint64(7))
        assert type(sc.trials) is np.int64
        assert estimate_pfa(sc) == estimate_pfa(scenario(trials=1000, seed=7))

    def test_target_kind(self):
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

    @pytest.mark.parametrize("workers, env, message", [
        (0, None, "worker count must be at least 1, got 0"),
        (None, "abc", "BAYESCFAR_WORKERS='abc' is not an integer"),
        (None, "0", "BAYESCFAR_WORKERS must be at least 1, got 0"),
    ])
    def test_bad_worker_count_rejected(self, monkeypatch, workers, env, message):
        if env is None:
            monkeypatch.delenv("BAYESCFAR_WORKERS", raising=False)
        else:
            monkeypatch.setenv("BAYESCFAR_WORKERS", env)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            estimate_pfa(scenario(trials=100, seed=5), workers=workers)

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

    @pytest.mark.parametrize("clutter, spec", [
        (ParetoClutter(1e-12, 1.0), DetectorSpec(Family.BAYES_OS, 4, 0.1, k=2)),
        (ExponentialClutter(5e-324), DetectorSpec(Family.CA_CFAR, 4, 0.1)),
        # the multiplier rounds to 0, and 0 * inf is nan
        (ExponentialClutter(5e-324), DetectorSpec(Family.CA_CFAR, 100, 0.9999999999999999)),
    ], ids=["pareto-power-overflows", "rate-divide-overflows", "zero-multiplier"])
    def test_infinite_clutter_draws_are_h0_without_warnings(self, clutter, spec):
        # the draws overflow to inf, and an inf statistic makes an inf (or nan)
        # threshold, so H0; tier-1 turns any leaked RuntimeWarning into a failure
        report = estimate_pfa(Scenario(clutter, spec, trials=1000, seed=1))
        assert report.estimate == 0.0

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


class TestParetoWindowSumChunks:
    # window_sum_draws sums Pareto windows from chunks of at most 2**20
    # uniforms, and at least one row; the oracle draws every row at once
    @staticmethod
    def one_shot(alpha, beta, n, seed, size):
        rng = np.random.Generator(np.random.Philox(seed))
        window = beta * ((1.0 - rng.random((size, n))) ** (-1.0 / alpha) - 1.0)
        return window.sum(axis=1), rng

    @pytest.mark.parametrize("n, size, cap", [
        (3, 1000, 2**20), (3000, 1000, 2**20), (37, 500, 1000), (300, 77, 1000), (37, 9, 10),
    ], ids=["one-chunk", "3-chunks", "19-chunks", "one-row-chunks", "row-wider-than-cap"])
    def test_chunks_equal_one_draw(self, monkeypatch, n, size, cap):
        import bayescfar.clutter_models as clutter_models

        monkeypatch.setattr(clutter_models, "_DRAW_CHUNK_FLOATS", cap)
        alpha, beta, seed = 2.5, 3.0, 100 + n
        rng = np.random.Generator(np.random.Philox(seed))
        got = clutter_models.window_sum_draws(ParetoClutter(alpha, beta), n, rng, size)
        want, after = self.one_shot(alpha, beta, n, seed, size)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
        # and the stream is left where one draw leaves it
        assert rng.random(4).tolist() == after.random(4).tolist()

    @pytest.mark.parametrize("n, trials", [(2000, 2000), (20_000, 600)])
    def test_estimate_memory_is_bounded(self, n, trials):
        # drawing every window at once holds trials * n floats two or three
        # times over, and peaked at 68 MiB for n = 2000 with 2000 trials and
        # at 92 MiB for n = 20000 with only 300; a chunk of 2**20 uniforms is
        # 8 MiB, and the transform holds three at a time
        sc = Scenario(ParetoClutter(3.0, 2.0), DetectorSpec(Family.CA_CFAR, n, 1e-3), trials, 7)
        tracemalloc.start()
        try:
            report = estimate_pfa(sc, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == trials
        assert peak < 40 * 2**20, peak


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
    @pytest.mark.parametrize("rate, seed", [(1.0, 808), (0.7, 31337)])
    def test_minimum_rule_matches_analytic_value(self, rate, seed):
        # Pd = n / (n + m/(1+s)) with m = n(1/p - 1) at every clutter rate
        # (Gandhi & Kassam, IEEE TAES 24(4), 1988); s = 10, p = 0.1 gives 0.55
        sc = scenario(family=Family.MIN_CFAR, n=4, pfa=0.1, trials=1_000_000,
                      seed=seed, rate=rate, target=TargetModel(snr_linear=10.0))
        report = estimate_pd(sc)
        assert abs(report.estimate - 0.55) < 3.0 * report.standard_error()

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

    @pytest.mark.parametrize("leading, trailing, field", [
        (1.5, 2.5, "leading"), (2, 2.0, "trailing"), ("2", 2, "leading"),
    ])
    def test_layout_sizes_must_be_integers(self, leading, trailing, field):
        # unchecked, a fractional layout fails only inside the scan's slicing
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            WindowLayout(leading, trailing)
        layout = WindowLayout(np.int64(2), np.int32(2))
        assert type(layout.leading) is np.int64
        profile = [1.0, 3.0, 2.0, 40.0, 1.0, 0.5, 2.0, 1.0]
        assert (scan_profile(profile, self.SPEC, layout)
                == scan_profile(profile, self.SPEC, self.LAYOUT))

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
        assert len(set([*got, *want])) == 2
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



def _scan_case(family, cells=1024, n=16, seed=1024):
    spec = DetectorSpec(family, n, 1e-3, k=12 if family is Family.BAYES_OS else None)
    rng = np.random.default_rng(seed)
    profile = rng.exponential(size=cells)
    profile[rng.random(cells) < 0.02] *= 1000.0
    return profile.tolist(), spec, WindowLayout(n // 2, n - n // 2)


def _hex(decisions):
    return [(d.verdict, d.statistic_z0.hex(), d.comparison_value.hex(), d.path)
            for d in decisions]


class TestScanResult:
    @pytest.mark.parametrize("family", list(Family))
    def test_iteration_indexing_and_slicing_equal_decide(self, family):
        profile, spec, layout = _scan_case(family, cells=200)
        result = scan_profile(profile, spec, layout)
        want = _per_cell(profile, spec, layout)
        assert isinstance(result, ScanResult) and len(result) == len(want) == 184
        assert _hex(result) == _hex(want)
        assert _hex(result[i] for i in range(len(result))) == _hex(want)
        assert _hex(result[-i] for i in range(1, len(result) + 1)) == _hex(want[::-1])
        for cells in (slice(None), slice(3, 40), slice(-5, None), slice(None, None, -3),
                      slice(170, 500), slice(50, 10)):
            assert _hex(result[cells]) == _hex(want[cells])
            assert result[cells] == list(result)[cells]

    def test_sequence_contract(self):
        profile, spec, layout = _scan_case(Family.MIN_CFAR, cells=40, n=4)
        result = scan_profile(profile, spec, layout)
        decisions = list(result)
        assert len(result) == 36
        assert result[-1] == decisions[-1] and result[-36] == decisions[0]
        for index in (36, -37, 10**20):
            with pytest.raises(IndexError):
                result[index]
        with pytest.raises(TypeError):
            result[1.0]
        assert type(result[5].statistic_z0) is float and type(result[5].comparison_value) is float
        assert all(type(d.statistic_z0) is float and type(d.comparison_value) is float
                   for d in result)
        assert result == decisions and decisions == result
        assert result == scan_profile(profile, spec, layout)
        assert not (result != decisions) and not (decisions != result)
        other = decisions[:-1] + [decisions[-1]._replace(comparison_value=-1.0)]
        assert result != other and other != result
        assert result != decisions[:-1] and decisions[:-1] != result
        assert result != tuple(decisions)
        with pytest.raises(TypeError):
            hash(result)
        assert copy.deepcopy(result) == pickle.loads(pickle.dumps(result)) == decisions

    def test_columns_are_read_only(self):
        profile, spec, layout = _scan_case(Family.CA_CFAR, cells=40, n=4)
        result = scan_profile(profile, spec, layout)
        assert (result.h1.dtype, result.statistic_z0.dtype, result.comparison_value.dtype) == (
            np.dtype(bool), np.dtype(float), np.dtype(float))
        for column in (result.h1, result.statistic_z0, result.comparison_value):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        assert result.path is DecisionPath.THRESHOLD
        with pytest.raises(AttributeError):
            result.h1 = np.ones(36, dtype=bool)
        # the result holds its own copy of the profile
        values = np.array(profile)
        held = scan_profile(values, spec, layout)
        values[:] = 0.0
        assert held == result

    @pytest.mark.parametrize("family", list(Family))
    def test_exact_fit_is_empty(self, family):
        profile, spec, layout = _scan_case(family, cells=16)
        result = scan_profile(profile, spec, layout)
        assert isinstance(result, ScanResult) and len(result) == 0
        assert result == [] and [] == result and list(result) == [] and result[:] == []
        assert result.path is FAMILIES[family].path


class TestScanAllocations:
    # a tracked allocation raises the collector's generation-0 count and
    # freeing one lowers it, so with the collector off the count shows how
    # many container objects a scan leaves behind
    @pytest.mark.parametrize("family", list(Family))
    def test_a_scan_builds_no_per_cell_objects(self, family):
        profile, spec, layout = _scan_case(family)
        scan_profile(profile, spec, layout)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            result = scan_profile(profile, spec, layout)
            scanned = gc.get_count()[0]
            for decision in result:
                assert decision.path is result.path
            streamed = gc.get_count()[0]
        finally:
            gc.enable()
        assert len(result) == 1008
        assert scanned - before < 100
        # each Decision is freed when the next one replaces it
        assert streamed - scanned < 10

    @pytest.mark.parametrize("family", list(Family))
    def test_long_windows_bound_the_window_matrix(self, family):
        # a matrix of SCAN_BLOCK_ROWS windows of 4000 samples is 125 MiB;
        # bayes_os at k = 3000 partitions blocks of at most 2**20 samples
        # (8 MiB), and the sums and minima build no matrix, so the peak
        # stays small whatever the window size
        profile, spec, layout = _long_window_scan_case(family, SCAN_BLOCK_ROWS)
        tracemalloc.start()
        try:
            result = scan_profile(profile, spec, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == SCAN_BLOCK_ROWS
        assert peak < 32 * 2**20, peak

    @pytest.mark.parametrize("family", [Family.CA_CFAR, Family.MIN_CFAR])
    def test_sums_and_minima_build_no_window_matrix(self, family):
        # a matrix of this scan's 4096 windows of 4000 samples would be
        # 125 MiB; the sums and minima are formed from one block's segment
        # of 8096 samples instead
        profile, spec, layout = _long_window_scan_case(family, SCAN_BLOCK_ROWS)
        tracemalloc.start()
        try:
            result = scan_profile(profile, spec, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == SCAN_BLOCK_ROWS
        assert peak < 2 * 2**20, peak


class TestScanBlocks:
    # scan_profile takes SCAN_BLOCK_ROWS cells to a block, and only a k-th
    # order statistic with k > 1, which partitions a matrix of the block's
    # windows, caps a block at 2**20 // n cells
    @pytest.mark.parametrize("family, k, blocks", [
        (Family.CA_CFAR, None, 1),
        (Family.MIN_CFAR, None, 1),
        (Family.BAYES_OS, 1, 1),
        (Family.BAYES_OS, 3000, 16),
    ])
    def test_blocks_per_scan(self, monkeypatch, family, k, blocks):
        row = FAMILIES[family]
        cells = []

        def statistic_rows(m, samples, layout, spec):
            cells.append(len(samples) - spec.n)
            return row.statistic_rows(m, samples, layout, spec)

        monkeypatch.setitem(FAMILIES, family, row._replace(statistic_rows=statistic_rows))
        profile, _, layout = _long_window_scan_case(family, SCAN_BLOCK_ROWS)
        scan_profile(profile, DetectorSpec(family, 4000, 1e-3, k=k), layout)
        assert len(cells) == blocks
        assert sum(cells) == SCAN_BLOCK_ROWS
        assert max(cells) <= (SCAN_BLOCK_ROWS if blocks == 1 else 2**20 // 4000)


def _long_window_scan_case(family, cells):
    # windows of 4000 cells over a profile with outliers; bayes_os at
    # k = 3000 takes them 262 to a block
    n = 4000
    spec = DetectorSpec(family, n, 1e-3, k=3000 if family is Family.BAYES_OS else None)
    rng = np.random.default_rng(n)
    profile = rng.exponential(size=cells + n)
    profile[rng.random(profile.size) < 0.01] *= 1000.0
    return profile, spec, WindowLayout(2500, n - 2500)


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
    # from 0 to 300 eligible cells; the ca_cfar scan sums every window of a
    # block from dyadic TwoSum blocks and redoes with fsum only the windows
    # whose sum it cannot certify
    cells = draw(st.integers(n, n + 300))
    profile = draw(st.lists(value, min_size=cells, max_size=cells))
    return profile, spec, WindowLayout(lead, n - lead)


def _long_window_case():
    rng = np.random.default_rng(256)
    profile = (rng.exponential(size=300) * 10.0 ** rng.uniform(-150, 150, 300)).tolist()
    profile[100:150] = [0.0] * 50
    return profile, DetectorSpec(Family.BAYES_OS, 256, 1e-3, k=200), WindowLayout(128, 128)


def _near_tie_patterns(rng):
    # windows whose exactly rounded sum a plain or compensated running sum
    # gets wrong, or whose sum the scan's certificate cannot vouch for
    tiny = 2.0 ** -113
    return {
        "tie-to-even": [1.0, 2.0 ** -53],
        "near-tie-above-power-of-two": [1.0, 2.0 ** -53, tiny],
        "near-tie-split": [1.0, 2.0 ** -54, 2.0 ** -54, tiny],
        "near-tie-odd-mantissa": [3.0, 2.0 ** -52, 2.0 ** -52 * tiny, 0.0],
        "near-tie-many-terms": [1.0] + [2.0 ** -57] * 8 + [tiny],
        "just-below-power-of-two": [0.5, 0.5 - 2.0 ** -54, 2.0 ** -110],
        # the sum is 1 - 2**-54 - 2**-108, so it rounds down to 1 - 2**-53,
        # while a left-to-right TwoSum cascade's c rounds up and fl(s + c) is 1.0
        "below-power-of-two-lost-error": [1.0 - 2.0 ** -53, 2.0 ** -55, 2.0 ** -55 - 2.0 ** -108],
        "just-below-tie": [0.5, 0.5 - 2.0 ** -54, 0.0],
        "below-power-of-two-many-terms": [1.0 - 2.0 ** -53] + [2.0 ** -58] * 15,
        "quantized-eighths": (rng.integers(0, 80, 48) / 8.0).tolist(),
        "all-zero": [0.0] * 5,
        "subnormal": [5e-324, 2.5e-323, 0.0, 2.0 ** -1022 - 5e-324, 2.0 ** -1060],
        "mixed-1e300-1e-300": rng.choice([1e300, 1e-300, 3e300, 7e-301], 12).tolist(),
        "sum-overflows": [1e308, 1e308, 1.0, 5e-324],
    }


def _adversarial_ca_cases():
    # the near-tie patterns; with the (n, 0) layout every window of a
    # repeated pattern is a rotation of it, repeated over 300 cells
    tiny = 2.0 ** -113
    rng = np.random.default_rng(8)
    cases = _near_tie_patterns(rng)
    params = [pytest.param((p * 300)[:300], len(p), 1e-3, id=name) for name, p in cases.items()]
    # a multiplier below one keeps an overflowing sum's threshold finite
    params.append(pytest.param([1e308] * 300, 4, 0.9, id="sum-overflows-threshold-finite"))
    for n in (256, 300):
        scale = 10.0 ** rng.uniform(-100, 100, 2 * n)
        near_ties = np.where(rng.random(2 * n) < 0.5, 2.0 ** -53, tiny)
        profile = np.where(rng.random(2 * n) < 0.1, near_ties, rng.exponential(size=2 * n) * scale)
        params.append(pytest.param(profile.tolist(), n, 1e-3, id=f"n={n}"))
    return params


def _window_list(samples, lead, trail, i):
    return samples[i:i + lead] + samples[i + lead + 1:i + lead + 1 + trail]


@st.composite
def _segments(draw):
    # a segment of rows + lead + trail samples: values over 600 decades with
    # ties, or a near-tie pattern repeated, either with 0.0 and -0.0 mixed in
    lead = draw(st.one_of(st.just(0), st.integers(0, 600)))
    trail = draw(st.one_of(st.just(0), st.integers(0, 600)).filter(lambda t: lead + t > 0))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rows + lead + trail
    patterns = _near_tie_patterns(np.random.default_rng(8))
    name = draw(st.sampled_from([None, *patterns]))
    if name is None:
        values = rng.exponential(size=size) * 10.0 ** rng.uniform(-300, 300, size)
        pool = rng.choice(values, 3)
        values = np.where(rng.random(size) < 0.3, rng.choice(pool, size), values)
    else:
        values = np.resize(patterns[name], size)
    zeros = rng.random(size) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return values, lead, trail


class TestSlidingStatistics:
    # the scan's window sums and minima come from dyadic blocks of a
    # segment; each window's is checked here against the window written out
    @settings(max_examples=200, deadline=None)
    @given(_segments())
    def test_certified_sums_are_fsum_and_minima_are_min(self, case):
        samples, lead, trail = case
        sums, certified = _window_sums(samples, lead, trail)
        minima = _window_minima(samples, lead, trail)
        limits = _scaled_window_sums(0.75, samples, lead, trail)
        values = samples.tolist()
        assert len(sums) == len(minima) == len(limits) == len(values) - lead - trail
        for i in range(len(sums)):
            window = _window_list(values, lead, trail, i)
            # a -0.0 sample is the caller's to turn into 0.0, so zeros are
            # compared without their sign
            assert (minima[i] + 0.0).hex() == (min(window) + 0.0).hex()
            if certified[i]:
                assert (sums[i] + 0.0).hex() == (math.fsum(window) + 0.0).hex()
            want = _scaled_window_sum(0.75, [x + 0.0 for x in window])
            assert limits[i].hex() == want.hex()


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

    @pytest.mark.parametrize("family", list(Family))
    def test_long_windows_across_a_block_edge(self, family):
        profile, spec, layout = _long_window_scan_case(family, 300)
        _assert_matches_per_cell(profile.tolist(), spec, layout)

    @pytest.mark.parametrize("family", [Family.CA_CFAR, Family.MIN_CFAR])
    def test_sums_and_minima_across_a_scan_block_edge(self, family):
        # sums and minima take SCAN_BLOCK_ROWS cells to a block at any n, so
        # these 600-cell windows cross one block edge
        n = 600
        spec = DetectorSpec(family, n, 1e-3)
        rng = np.random.default_rng(n)
        profile = rng.exponential(size=SCAN_BLOCK_ROWS + 37 + n)
        profile[rng.random(profile.size) < 0.01] *= 1000.0
        _assert_matches_per_cell(profile.tolist(), spec, WindowLayout(350, 250))

    @pytest.mark.parametrize("profile, n, pfa", _adversarial_ca_cases())
    def test_adversarial_cell_averaging_windows(self, profile, n, pfa):
        spec = DetectorSpec(Family.CA_CFAR, n, pfa)
        _assert_matches_per_cell(profile, spec, WindowLayout(n, 0))
        _assert_matches_per_cell(profile, spec, WindowLayout(n // 2, n - n // 2))
