"""Monte Carlo harness tests.

The analytic oracles: the cell-averaging and minimum multipliers are exact
in exponential clutter, and the minimum rule under a Swerling-I target has
detection probability (1+s) / ((1+s) + (1/p - 1)), found by integrating the
two competing exponentials directly.
"""

import copy
import gc
import logging
import math
import pickle
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.special import betainc, gammainc

from bayescfar import clutter_models, simulate
from bayescfar.clutter_models import (
    _NETWORK_MAX_RUN,
    CrpWindow,
    ExponentialClutter,
    ParetoClutter,
    _certified_sums,
    _fold_plan,
    _merge_join,
    _merge_network,
    _scaled_window_sum,
    _scaled_window_sums,
    _window_kth_smallest,
    _window_runs,
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
        (1.5, None, "worker count must be an integer, got 1.5"),
        ("2", None, "worker count must be an integer, got '2'"),
        (2.0, "2", "worker count must be an integer, got 2.0"),
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

        def lossy(model, u, out=None):
            # the mask is taken first: out may be u itself
            lost = u > 0.9
            x = original(model, u, out=out)
            x[lost] = 0.0
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
            clutter_models, "intensity_from_uniform",
            lambda model, u, out=None: np.zeros_like(u)
        )
        sc = scenario(family=Family.BAYES_OS, n=4, k=1, pfa=0.1, trials=10, seed=3)
        with pytest.raises(ConfigurationError):
            estimate_pfa(sc)

    @pytest.mark.parametrize("zeroed", [slice(None), slice(None, None, 2)],
                             ids=["every-trial", "every-other-trial"])
    def test_redraws_land_on_the_trials_they_replace(self, monkeypatch, zeroed):
        # every block's first statistic draw is zero on the zeroed trials
        # (on all of them, the redraw has the block's size), and the report's
        # hits are those of the stream replicated here: each zeroed trial
        # takes the redraw's statistic and cell in turn (k = 1: the largest
        # of n uniforms is Beta(n, 1), and the multiplier is n (1/p - 1)).
        # A redraw drawn into the buffer it is scattered into gives others
        n, p, lam, trials, seed = 4, 0.1, 2.0, 2 * 65_536 + 17, 6
        row = FAMILIES[Family.BAYES_OS]
        seen = set()
        lock = threading.Lock()

        def zero_first(clutter, spec, rng, rows):
            stat = row.draw(clutter, spec, rng, rows)
            # a block's stream is the only one with its Philox key
            key = tuple(rng.bit_generator.state["state"]["key"].tolist())
            with lock:
                first = key not in seen
                seen.add(key)
            if first:
                stat[zeroed] = 0.0
            return stat

        monkeypatch.setitem(FAMILIES, Family.BAYES_OS, row._replace(draw=zero_first))
        sc = scenario(family=Family.BAYES_OS, n=n, k=1, pfa=p, trials=trials,
                      seed=seed, rate=lam)
        report = estimate_pfa(sc, workers=1)
        seen.clear()
        assert estimate_pfa(sc, workers=4) == report

        hits = redraws = 0
        for size, rng in TestEstimatePfa.block_streams(seed, trials):
            t = -np.log(rng.beta(n, 1, size)) / lam
            cut = -np.log(1.0 - rng.random(size)) / lam
            lost = np.zeros(size, dtype=bool)
            lost[zeroed] = True
            count = int(lost.sum())
            t[lost] = -np.log(rng.beta(n, 1, count)) / lam
            cut[lost] = -np.log(1.0 - rng.random(count)) / lam
            hits += int(np.count_nonzero(cut > n * (1.0 / p - 1.0) * t))
            redraws += count
        assert report.degenerate_redraws == redraws
        if zeroed == slice(None):
            assert redraws == trials
        assert report.estimate == hits / trials

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

    def test_target_is_rejected_before_any_block(self, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(simulate, "_run_block", no_block)
        sc = scenario(trials=200_000, seed=3, target=TargetModel(snr_linear=2.0))
        with pytest.raises(ConfigurationError,
                           match=re.escape("estimate_pfa runs clutter-only trials; drop the target")):
            cfar_sweep(sc, [0.5, 1.0, 2.0], workers=2)

    @pytest.mark.parametrize("trials", [100, 65_536, 2 * 65_536 + 17])
    @pytest.mark.parametrize("grid", [[2.0], [0.5, 1.0, 4.0], [0.25, 1.0, 3.0, 9.0]])
    def test_reports_do_not_depend_on_schedule(self, grid, trials):
        sc = scenario(family=Family.BAYES_OS, n=8, k=5, pfa=0.05, trials=trials, seed=4242)
        want = [
            estimate_pfa(replace(sc, clutter=ExponentialClutter(rate),
                                 seed=simulate._child_seed(sc.seed, i)), workers=1)
            for i, rate in enumerate(grid)
        ]
        for workers in (1, 2, 3, 4):
            assert cfar_sweep(sc, grid, workers=workers) == want, workers

    def test_one_debug_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bayescfar.simulate")
        cfar_sweep(scenario(trials=2 * 65_536 + 17, seed=8), [0.5, 1.0], workers=2)
        [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert record.name == "bayescfar.simulate"
        assert re.fullmatch(r"2 points, 6 blocks, 2 workers: \d+\.\d{3} s, \S+ trials/s, "
                            r"0 redraws", record.getMessage()), record.getMessage()
        [info] = [r for r in caplog.records if r.levelno == logging.INFO]
        assert info.getMessage().startswith("cfar_sweep over 2 rates: max pairwise deviation")

    def test_deviation_is_formed_only_for_its_record(self, monkeypatch, caplog):
        def unused(reports):
            raise AssertionError("formed with INFO disabled")

        monkeypatch.setattr(simulate, "max_pairwise_deviation_se", unused)
        caplog.set_level(logging.WARNING, logger="bayescfar.simulate")
        assert len(cfar_sweep(scenario(trials=1000, seed=8), [0.5, 1.0])) == 2
        assert caplog.records == []

    def test_many_worker_loops_lose_no_block(self):
        # more worker loops than cores, switching threads every microsecond:
        # a block taken twice or a lost update of a point's counts would show
        sc = scenario(family=Family.MIN_CFAR, n=16, pfa=0.05, trials=2 * 65_536 + 17, seed=21)
        grid = [0.25 * (i + 1) for i in range(12)]
        want = cfar_sweep(sc, grid, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = cfar_sweep(sc, grid, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_sweep(self, monkeypatch, workers, pools):
        import concurrent.futures

        built = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        sc = scenario(trials=2 * 65_536 + 17, seed=8)
        reports = cfar_sweep(sc, [0.5, 1.0, 2.0, 10.0], workers=workers)
        assert len(reports) == 4
        assert len(built) == pools


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
        # a list np.fromiter cannot read goes to np.array, and its errors stand
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)$"):
            scan_profile([[1.0, 2.0], [3.0, 4.0]], self.SPEC, self.LAYOUT)
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            scan_profile([1.0, [2.0, 3.0], 4.0, 5.0, 6.0], self.SPEC, self.LAYOUT)
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            scan_profile(["x", 1.0, 2.0, 3.0, 4.0], self.SPEC, self.LAYOUT)
        with pytest.raises(TypeError):
            scan_profile([1.0, 2.0 + 0j, 2.0, 3.0, 4.0], self.SPEC, self.LAYOUT)
        # None reads as nan, which the check names
        with pytest.raises(ValueError, match=r"got nan$"):
            scan_profile([1.0, None, 2.0, 3.0, 4.0], self.SPEC, self.LAYOUT)

        # an entry struct cannot pack sends a list or tuple to np.array,
        # whose exception, type and message alike, the scan raises
        class NoFloat:
            def __float__(self):
                raise RuntimeError("no float here")

        for entry in (10**400, NoFloat(), Decimal("sNaN"), 2.0 + 0j, "x", [2.0]):
            for profile in ([1.0, entry, 2.0, 3.0, 4.0], (1.0, entry, 2.0, 3.0, 4.0)):
                with pytest.raises(Exception) as want:
                    np.array(profile, dtype=float)
                with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                    scan_profile(profile, self.SPEC, self.LAYOUT)
        with pytest.raises(ConfigurationError, match="profile of 0 cells"):
            scan_profile([], self.SPEC, self.LAYOUT)

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
        # every family and the networks at k > 1 scan alike: numpy integers
        # have no int.bit_length, which the window sums' bound takes of n
        for spec in (self.SPEC, DetectorSpec(Family.CA_CFAR, 4, 0.1),
                     DetectorSpec(Family.BAYES_OS, 4, 0.1, k=1),
                     DetectorSpec(Family.BAYES_OS, 4, 0.1, k=3)):
            assert (scan_profile(profile, spec, layout)
                    == scan_profile(profile, spec, self.LAYOUT)), spec

    def test_sequences_and_arrays_scan_alike(self):
        values = [1.0, 3.0, 2.0, 40.0, 1.0, 0.5, 2.0, 1.0]
        want = scan_profile(values, self.SPEC, self.LAYOUT)
        assert len(want) == 4 and want[1].verdict is Verdict.H1
        for profile in (tuple(values), np.array(values), np.array(values, dtype=np.float32),
                        ["1", 3, 2.0, "4e1", 1, 0.5, np.float32(2.0), np.int64(1)],
                        [np.float64(v) for v in values], [np.float32(v) for v in values]):
            assert scan_profile(profile, self.SPEC, self.LAYOUT) == want
        # each entry is read as its float: strings, ints, bools and numpy
        # scalars give the columns of the floats they stand for
        floats = [2.5, 1.0, 0.0, 1.0, 3.0, 1.0, 1.0, 0.0]
        for profile in (["2.5", True, False, 1, 3, np.int32(1), np.bool_(True), 0],
                        tuple(floats), [np.float16(v) for v in floats]):
            for spec in (self.SPEC, DetectorSpec(Family.CA_CFAR, 4, 0.1),
                         DetectorSpec(Family.BAYES_OS, 4, 0.1, k=3)):
                got, expected = (scan_profile(p, spec, self.LAYOUT) for p in (profile, floats))
                for column in ("h1", "statistic_z0", "comparison_value"):
                    assert getattr(got, column).tobytes() == getattr(expected, column).tobytes()
        assert all(type(d.statistic_z0) is float and type(d.comparison_value) is float
                   for d in want)

        # struct packs a float, or a number by its __float__ or __index__, and
        # np.array reads the rest (bytes among them): either way a list or
        # tuple gives the columns of np.array(profile, dtype=float)
        class Real(float):
            pass

        for entry in (Real(2.5), np.float32(0.1), np.float16(0.1), np.longdouble(1) / 3,
                      Decimal("0.1"), Fraction(1, 3), 2**53 + 1, 2**1000 + 1,
                      np.uint64(2**64 - 1), np.array(0.7), b"2.5"):
            values = [1.0, 3.0, 2.0, entry, 1.0, 0.5, 2.0, 1.0]
            read = np.array(values, dtype=float)
            for spec in (self.SPEC, DetectorSpec(Family.CA_CFAR, 4, 0.1),
                         DetectorSpec(Family.BAYES_OS, 4, 0.1, k=3)):
                expected = scan_profile(read, spec, self.LAYOUT)
                for profile in (values, tuple(values)):
                    got = scan_profile(profile, spec, self.LAYOUT)
                    for column in ("h1", "statistic_z0", "comparison_value"):
                        assert (getattr(got, column).tobytes()
                                == getattr(expected, column).tobytes()), (entry, spec)
        # the one documented exception: struct reads a float subclass by the
        # float it holds, and np.array calls its __float__
        class Overriding(float):
            def __float__(self):
                return 7.0

        values = [1.0, 3.0, 2.0, Overriding(2.5), 1.0, 0.5, 2.0, 1.0]
        assert np.array(values, dtype=float)[3] == 7.0
        assert scan_profile(values, self.SPEC, self.LAYOUT).statistic_z0[1] == 2.5

    def test_zero_order_statistic_takes_the_limit(self):
        # k = 2 of 4: wherever the window holds two zeros the statistic is 0;
        # z0 > 0 there gives Pfa 0 and H1, z0 = 0 gives Pfa 1 and H0. In the
        # second profile cells 2 and 4 are -0.0 at g = 0 and cell 7 is -0.0
        # at g = 3, and each reads as z0 = 0. Comparison values are compared
        # by their bits
        spec = DetectorSpec(Family.BAYES_OS, 4, 0.1, k=2)
        limit = {2: (Verdict.H0, 1.0), 3: (Verdict.H0, 1.0), 4: (Verdict.H0, 1.0),
                 5: (Verdict.H1, 0.0), 6: (Verdict.H0, 1.0), 8: (Verdict.H1, 0.0)}
        for profile in ([1.0, 2.0, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 3.0, 4.0, 5.0],
                        [1.0, 2.0, -0.0, 0.0, -0.0, 7.0, 0.0, -0.0, 3.0, 4.0, 5.0]):
            decisions = scan_profile(profile, spec, self.LAYOUT)
            for j, d in enumerate(decisions):
                cell = j + 2
                if cell in limit:
                    verdict, pfa = limit[cell]
                    want = Decision(verdict, profile[cell], pfa, DecisionPath.PFA_COMPARISON)
                else:
                    window = CrpWindow(profile[cell - 2:cell] + profile[cell + 1:cell + 3])
                    want = bayes_os_decide(profile[cell], window, spec)
                assert d == want
                assert d.comparison_value.hex() == want.comparison_value.hex()
                assert d.statistic_z0.hex() == profile[cell].hex()
            assert len(decisions) == 7
        assert decisions[5].comparison_value.hex() == 1.0.hex()

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
    def test_a_list_scan_pickles_and_copies(self, family):
        # the z0 column is a view of the packed profile's bytes
        profile, spec, layout = _scan_case(family, cells=200)
        result = scan_profile(profile, spec, layout)
        for back in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert back == result and back.path is result.path
            for column in ("h1", "statistic_z0", "comparison_value"):
                assert getattr(back, column).tobytes() == getattr(result, column).tobytes()
                assert not getattr(back, column).flags.writeable

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("cells", [200, SCAN_BLOCK_ROWS + 16, 2 * SCAN_BLOCK_ROWS + 100])
    def test_the_comparison_column_is_its_own(self, family, cells):
        # one block's statistic is the column itself, several are stored
        # into one; neither shares the profile's memory, z0's
        profile, spec, layout = _scan_case(family, cells=cells)
        for values in (profile, np.array(profile)):
            result = scan_profile(values, spec, layout)
            assert len(result) == cells - 16
            assert not result.comparison_value.flags.writeable
            assert not np.shares_memory(result.comparison_value, result.statistic_z0)
            assert result.comparison_value.shape == (cells - 16,)
            assert _hex(result[:50]) == _hex(_per_cell(profile[:66], spec, layout))

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
    def test_a_long_list_is_read_without_a_lasting_copy(self, family):
        # 10**5 floats are 800 kB as an array. struct's argument tuple and
        # its packed bytes are as large, but the tuple is freed once packed;
        # the profile, the comparison column and one block's temporaries
        # keep the peak under three such arrays
        profile, spec, layout = _scan_case(family, cells=10**5)
        scan_profile(profile[:100], spec, layout)
        tracemalloc.start()
        try:
            result = scan_profile(profile, spec, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 10**5 - 16
        assert peak < 3 * 8 * 10**5, peak

    @pytest.mark.parametrize("family", list(Family))
    def test_long_windows_bound_the_window_matrix(self, family):
        # a matrix of SCAN_BLOCK_ROWS windows of 4000 samples is 125 MiB;
        # bayes_os at k = 3000 partitions in place blocks of at most 2**20
        # samples, 8 MiB a matrix. A block's column of k-th smallest is a
        # view that keeps its matrix until the next block's statistic
        # replaces it, so two matrices are held at once (16 MiB), and a
        # copy made by the partition would be a third. The sums and minima
        # build no matrix, so the peak stays small whatever the window size
        profile, spec, layout = _long_window_scan_case(family, SCAN_BLOCK_ROWS)
        tracemalloc.start()
        try:
            result = scan_profile(profile, spec, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == SCAN_BLOCK_ROWS
        assert peak < 20 * 2**20, peak

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
    # order statistic with k > 1 over runs too long for sorting networks,
    # which partitions a matrix of the block's windows, caps a block at
    # 2**20 // n cells
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
        with np.errstate(over="ignore", invalid="ignore"):
            sums, certified, _ = _certified_sums(samples, lead, trail)
        minima = FAMILIES[Family.MIN_CFAR].statistic_rows(
            1.0, samples, WindowLayout(lead, trail), DetectorSpec(Family.MIN_CFAR, lead + trail, 1e-3))
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

    def test_rounded_error_sum_is_not_certified(self):
        # the errors of 3 + x1 and x2 + x3 (x2 + x3 rounds up) and of their
        # join are 2**-60 + 3 * 2**-107, -5 * 2**-108 and 2**-52 - 2**-60, and
        # sum to just over half an ulp of s = 3 + 2**-10; their rounded sum c
        # is 2**-52 - 2**-105, just under it, so fl(s + c) = s and |d| is
        # under half an ulp: only the bound on c's rounding withholds the
        # certificate, and the sum rounds up
        window = [3.0, 2.0 ** -60 + 3 * 2.0 ** -107,
                  2.0 ** -10 + 2.0 ** -52 - 2.0 ** -60 - 2.0 ** -62, 2.0 ** -62 - 5 * 2.0 ** -108]
        samples = np.array(window + [0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            sums, certified, _ = _certified_sums(samples, 4, 0)
        assert sums[0] == 3.0 + 2.0 ** -10 and not certified[0]
        assert _scaled_window_sums(1.0, samples, 4, 0)[0] == math.fsum(window) == 3.0 + 2.0 ** -10 + 2.0 ** -51

    @pytest.mark.parametrize("tail", [[], [0.0]], ids=["no-zero", "zero"])
    def test_exact_ties_are_certified_where_the_error_sum_is_exact(self, tail):
        # every sample is a multiple of 2**-105, the ulp of the least nonzero
        # one, so the error sum of 1 + 2**-53 is exact and its tie rounds to
        # even: 1.0
        samples = np.array(np.resize([1.0, 2.0 ** -53], 9).tolist() + tail)
        with np.errstate(over="ignore", invalid="ignore"):
            sums, certified, _ = _certified_sums(samples, 2, 0)
        assert certified.all() and (sums == 1.0).all()

    def test_overflowing_rounded_sum_is_not_certified(self):
        # s is the largest float and c = 2**970 exactly, so fl(s + c) is inf
        # while fsum overflows and the scaled sum is finite; the samples'
        # ulp would certify the sum outright below 2**1023, so only that
        # cap withholds it
        window = [2.0 ** 1022 + 2.0 ** 970, 2.0 ** 1022, 2.0 ** 1022, 2.0 ** 1022 - 2.0 ** 971]
        samples = np.array(window + [2.0 ** 1022])
        with np.errstate(over="ignore", invalid="ignore"):
            sums, certified, _ = _certified_sums(samples, 4, 0)
        assert sums[0] == math.inf and not certified[0]
        assert _scaled_window_sums(0.5, samples, 4, 0)[0] == _scaled_window_sum(0.5, window) < math.inf


def _fallback_profiles():
    # n = 4000 profiles whose every window sum the certificate vouches for
    rng = np.random.default_rng(5)
    size = 4000 + 1024
    return {
        "exponential": rng.standard_exponential(size),
        "constant": np.full(size, 0.1),
        "16-decade-mixture": rng.standard_exponential(size) * 10.0 ** rng.uniform(-8, 8, size),
        "dyadic-ties": rng.integers(0, 2**20, size) * 2.0 ** -10,
        "one-and-2**-53": np.resize([1.0, 2.0 ** -53], size),
    }


class TestWindowSumFallbacks:
    # how many ca_cfar window sums a scan leaves to _scaled_window_sum, the
    # fsum fallback for windows the certificate does not vouch for

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        real = clutter_models._scaled_window_sum

        def counted(multiplier, samples):
            calls.append(len(samples))
            return real(multiplier, samples)

        monkeypatch.setattr(clutter_models, "_scaled_window_sum", counted)

        def scan(profile, lead, trail):
            calls.clear()
            spec = DetectorSpec(Family.CA_CFAR, lead + trail, 1e-3)
            scan_profile(profile, spec, WindowLayout(leading=lead, trailing=trail))
            return len(calls)

        return scan

    @pytest.mark.parametrize("lead, trail", [(8, 8), (2000, 2000), (4000, 0)])
    def test_none_on_zero_and_subnormal_stretches(self, fallbacks, lead, trail):
        size = lead + trail + 1024
        # subnormals up to the largest, whose sums pass 2**-1021
        subnormal = np.random.default_rng(6).integers(0, 2**52, size) * 5e-324
        assert fallbacks(np.zeros(size), lead, trail) == 0
        assert fallbacks(subnormal, lead, trail) == 0

    @pytest.mark.parametrize("name", list(_fallback_profiles()))
    @pytest.mark.parametrize("lead, trail", [(2000, 2000), (4000, 0), (1, 3999)])
    def test_none_on_long_windows(self, fallbacks, name, lead, trail):
        assert fallbacks(_fallback_profiles()[name], lead, trail) == 0

    def test_all_certified_exit(self, fallbacks):
        # every window of an exponential profile is certified, so no window
        # reaches the fallback; near ties still do, and keep decide's bits
        assert fallbacks(np.random.default_rng(9).standard_exponential(1024), 8, 8) == 0
        pattern = _near_tie_patterns(np.random.default_rng(8))["near-tie-above-power-of-two"]
        profile = (pattern * 100)[:300]
        assert fallbacks(profile, 3, 0) > 0
        _assert_matches_per_cell(profile, DetectorSpec(Family.CA_CFAR, 3, 1e-3), WindowLayout(3, 0))

    def test_few_on_exponential_profiles(self, fallbacks):
        # at n = 16 about 0.4% of these windows (77) are exact ties, |c| =
        # half an ulp of s. Every window's s lies below the bound under which
        # the samples' ulp makes c exact, so each is certified outright, ties
        # included, and none of the 20 160 falls back
        rng = np.random.default_rng(7)
        windows = calls = 0
        for _ in range(20):
            profile = rng.standard_exponential(1024) * 10.0 ** (2.0 * rng.random())
            calls += fallbacks(profile, 8, 8)
            windows += 1024 - 16
        assert windows == 20_160
        assert calls == 0


def _comparators(length):
    # the comparators of Batcher's network on one run: both parts' and the merge
    if length < 2:
        return 0
    half = 1 << (length - 1).bit_length() - 1
    return _comparators(half) + _comparators(length - half) + len(_merge_network(length))


class TestSortingNetwork:
    # the networks a bayes_os scan sorts its short runs with
    @pytest.mark.parametrize("length", range(1, _NETWORK_MAX_RUN + 1))
    def test_sorts_every_zero_one_row(self, length):
        # by the 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4) a comparator
        # network whose wire gives the k-th smallest of every row of zeros and
        # ones gives it of any input, so this checks each k's network, pruned
        # to that wire: a row with s ones has 1 as its k-th smallest iff
        # k > length - s. The 2**length rows are laid end to end, and one
        # cell after them stands for the cell under test, so the leading runs
        # starting at multiples of length are the rows
        rows = (np.arange(2 ** length)[:, None] >> np.arange(length)) & 1
        cells = np.append(rows.ravel(), 0).astype(float)
        ones = rows.sum(axis=1)
        for k in range(1, length + 1):
            kth = _window_kth_smallest(cells, length, 0, k)[::length]
            assert np.array_equal(kth, (ones > length - k).astype(float)), k
        for k in range(2, length + 1):
            wires, trailing = _window_runs([cells], length, 0, _merge_join,
                                           _fold_plan(length, 0, k))
            assert trailing is None
            assert len(wires) == length

    def test_batcher_sizes(self):
        # 12 is one short of the padded 16-wire network's 42: its parts are
        # sorted as 8 and 4 wires, and the 4 need no fifth-wire comparator
        assert [_comparators(n) for n in (8, 12, 16)] == [19, 41, 63]
        for n in range(2, _NETWORK_MAX_RUN + 1):
            for i, j in _merge_network(n):
                assert 0 <= i < j < n

    @pytest.mark.parametrize("lead, trail, k, halves", [
        (8, 8, 12, 2 + 6 + 13), (8, 8, 8, 2 + 6 + 18), (8, 0, 8, 1 + 1 + 1)])
    def test_plan_forms_only_the_halves_the_splits_read(self, lead, trail, k, halves):
        # at (8, 8, 12) the splits read wires 3..7 of each run, so the 4+4
        # merge drops five of its 18 halves; at (8, 8, 8) they read every
        # wire. One run of 8 read at k = 8 is its largest: each merge of two
        # sorted runs takes the max of their largest wires alone
        formed = [(low is not None) + (high is not None)
                  for _, _, net in _fold_plan(lead, trail, k)[1] if net
                  for _, _, low, high in net]
        assert sum(formed) == halves

    def test_kth_smallest_of_every_short_layout(self):
        # every layout with sides up to _NETWORK_MAX_RUN and n >= 2, at every
        # k >= 2, against sorted(window)[k - 1], bit for bit, on one profile
        # with ties, zeros, -0.0 and values over 600 decades. The samples
        # are the profile + 0.0, as scan_profile forms its segments, and
        # they are left as they were: the dyadic blocks both runs share are
        # views of them
        rng = np.random.default_rng(31)
        pool = [0.0, -0.0, 1.0, 2.0, 2.0, 3.0, 1e-300, 1e300]
        profile = np.where(rng.random(3 * _NETWORK_MAX_RUN) < 0.6,
                           rng.choice(pool, 3 * _NETWORK_MAX_RUN),
                           rng.exponential(size=3 * _NETWORK_MAX_RUN))
        assert (np.signbit(profile) & (profile == 0.0)).any()
        samples = profile + 0.0
        before = samples.tobytes()
        sides = range(_NETWORK_MAX_RUN + 1)
        for lead, trail in ((a, b) for a in sides for b in sides if a + b >= 2):
            windows = [profile[i:i + lead].tolist() + profile[i + lead + 1:i + lead + 1 + trail].tolist()
                       for i in range(profile.size - lead - trail)]
            for k in range(2, lead + trail + 1):
                got = _window_kth_smallest(samples, lead, trail, k).tolist()
                want = [sorted(window)[k - 1] + 0.0 for window in windows]
                assert [v.hex() for v in got] == [v.hex() for v in want], (lead, trail, k)
        assert samples.tobytes() == before

    def test_each_length_is_built_once_and_merged_once_a_block(self, monkeypatch):
        # a plan builds each network it needs, once per (lead, trail, k), and
        # every scan block merges each length its fold joins once
        _merge_network.cache_clear()
        _fold_plan.cache_clear()
        merged = []
        join = clutter_models._merge_join
        monkeypatch.setattr(clutter_models, "_merge_join", lambda x, y, *rest: (
            merged.append(len(x) + len(y)) or join(x, y, *rest)))
        profile = np.random.default_rng(3).exponential(size=200).tolist()
        for _ in range(2):
            for lead, trail, lengths in ((8, 8, [2, 4, 8]), (5, 7, [2, 3, 4, 5, 7])):
                spec = DetectorSpec(Family.BAYES_OS, lead + trail, 1e-3, k=lead + 2)
                merged.clear()
                scan_profile(profile, spec, WindowLayout(lead, trail))
                assert merged == lengths
        # a (8, 8) scan merges lengths 8, 4 and 2; a (5, 7) scan 5, 4, 2, 7
        # and 3, each once, though both sides hold runs of 4
        info = _merge_network.cache_info()
        assert (info.misses, info.hits) == (6, 2)
        # the two runs of a (6, 6) scan are one: it merges 6, 4 and 2, each once
        _merge_network.cache_clear()
        for _ in range(2):
            merged.clear()
            scan_profile(profile, DetectorSpec(Family.BAYES_OS, 12, 1e-3, k=8), WindowLayout(6, 6))
            assert merged == [2, 4, 6]
        info = _merge_network.cache_info()
        assert (info.misses, info.hits) == (3, 0)
        # the sums, the minima and bayes_os at k = 1 plan at k = 1, where no
        # step carries a net, and so merge nothing and build no network
        _merge_network.cache_clear()
        _fold_plan.cache_clear()
        merged.clear()
        for lead, trail in ((8, 8), (5, 7), (6, 6), (0, 12)):
            for family in Family:
                spec = DetectorSpec(family, lead + trail, 1e-3, k=1 if family is Family.BAYES_OS else None)
                scan_profile(profile, spec, WindowLayout(lead, trail))
            assert all(net is None for _, _, net in _fold_plan(lead, trail, 1)[1])
        assert merged == []
        info = _merge_network.cache_info()
        assert (info.misses, info.hits) == (0, 0)


@st.composite
def _short_run_cases(draw):
    # bayes_os at k >= 2 on both sides of the sorting-network crossover, with
    # any layout, over integer-valued profiles (ties), zeros and -0.0; one
    # profile in a few spans more than one scan block
    n = draw(st.integers(2, 2 * _NETWORK_MAX_RUN + 2))
    k = draw(st.integers(2, n))
    lead = draw(st.one_of(st.just(0), st.just(n), st.just(n // 2), st.integers(0, n)))
    cells = draw(st.one_of(st.integers(1, 300), st.just(SCAN_BLOCK_ROWS + 37)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profile = rng.integers(0, draw(st.sampled_from([1, 2, 4, 50])), cells + n).astype(float)
    zeros = rng.random(profile.size) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    profile[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    spec = DetectorSpec(Family.BAYES_OS, n, 0.05, k=k)
    return profile.tolist(), spec, WindowLayout(lead, n - lead)


def _edge_cases():
    # (profile, spec, layout): windows in the hundreds, design Pfa at the
    # ends of (0, 1), profiles at the end of the float range, and an
    # all-zero profile, whose every statistic is 0
    rng = np.random.default_rng(600)
    profile = rng.exponential(size=1040).tolist()
    near_one = 1.0 - 2.0 ** -53
    cases = {
        "bayes_os-600-599": (profile[:640], DetectorSpec(Family.BAYES_OS, 600, 1e-3, k=599)),
        "bayes_os-600-600": (profile[:640], DetectorSpec(Family.BAYES_OS, 600, 1e-3, k=600)),
        "bayes_os-1000-500-pfa-5e-324": (profile, DetectorSpec(Family.BAYES_OS, 1000, 5e-324, k=500)),
        "bayes_os-2-2-pfa-near-1": (profile[:60], DetectorSpec(Family.BAYES_OS, 2, near_one, k=2)),
        "min_cfar-pfa-near-1": (profile[:60], DetectorSpec(Family.MIN_CFAR, 16, near_one)),
        "ca_cfar-pfa-near-1": (profile[:60], DetectorSpec(Family.CA_CFAR, 16, near_one)),
        "min_cfar-pfa-1e-300": (profile[:60], DetectorSpec(Family.MIN_CFAR, 16, 1e-300)),
        "ca_cfar-pfa-1e-300": (profile[:60], DetectorSpec(Family.CA_CFAR, 16, 1e-300)),
        "min_cfar-1e308-pfa-0.1": ([1e308] * 12, DetectorSpec(Family.MIN_CFAR, 4, 0.1)),
        "min_cfar-1e308-pfa-0.9": ([1e308] * 12, DetectorSpec(Family.MIN_CFAR, 4, 0.9)),
        "bayes_os-all-zero": ([0.0] * 40, DetectorSpec(Family.BAYES_OS, 16, 1e-3, k=12)),
    }
    return [pytest.param(profile, spec, WindowLayout(spec.n // 2, spec.n - spec.n // 2), id=name)
            for name, (profile, spec) in cases.items()]


class TestScanMatchesPerCell:
    # ties, zeros (with and without a zero statistic), one-sided layouts and
    # values over 300 decades; every Decision must equal the per-cell one
    @settings(max_examples=150, deadline=None)
    @given(_scan_cases())
    @example(_long_window_case())
    def test_random_profiles(self, case):
        _assert_matches_per_cell(*case)

    @settings(max_examples=100, deadline=None)
    @given(_short_run_cases())
    def test_short_runs_against_sorted_windows(self, case):
        # the per-cell oracle takes sorted(window)[k - 1]
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

    @pytest.mark.parametrize("profile, spec, layout", _edge_cases())
    def test_edge_inputs(self, profile, spec, layout):
        _assert_matches_per_cell(profile, spec, layout)
        if not any(profile):
            # the zero-statistic limit: z0 = 0 over g = 0 reads Pfa 1, H0
            result = scan_profile(profile, spec, layout)
            assert (result.comparison_value == 1.0).all() and not result.h1.any()

    @pytest.mark.parametrize("profile, n, pfa", _adversarial_ca_cases())
    def test_adversarial_cell_averaging_windows(self, profile, n, pfa):
        spec = DetectorSpec(Family.CA_CFAR, n, pfa)
        _assert_matches_per_cell(profile, spec, WindowLayout(n, 0))
        _assert_matches_per_cell(profile, spec, WindowLayout(n // 2, n - n // 2))
