"""Acceptance gate: the end-to-end guarantees, one test per criterion.

Each test prints an explicit PASS line (bypassing capture) once its
assertions hold, so a `pytest -v` run shows one line per criterion either
way: the printed PASS line or pytest's FAILED line.

Tolerances are stated inline next to each assertion. Oracles are
independent of the library: the exact product form of the false-alarm
curve, exact rationals, closed Gamma-posterior formulas, and the simulation
harness itself is certified against known ground truth.
"""

import json
import math
import random
import subprocess
import sys

from child_env import child_env

from bayescfar.clutter_models import CrpWindow, window_sum
from bayescfar.detectors import (
    DetectorSpec,
    Family,
    Verdict,
    bayes_os_decide,
    bayes_os_threshold,
    ca_cfar_decide,
    custom_g_decide,
    min_cfar_decide,
)
from bayescfar.numerics import solve_monotone_decreasing
from bayescfar.predictive import (
    OsPredictive,
    PredictiveModel,
    generic_pfa,
    os_pfa,
    os_pfa_quadrature,
)
from bayescfar.simulate import (
    Scenario,
    TargetModel,
    cfar_sweep,
    estimate_pd,
)
from bayescfar.clutter_models import ExponentialClutter


def _passed(capfd, criterion: int, description: str) -> None:
    # emit one visible line per criterion even under pytest's fd capture
    with capfd.disabled():
        print(f"ACCEPTANCE PASS criterion {criterion}: {description}", flush=True)


def test_criterion_01_zero_threshold_normalization(capfd):
    worst = 0.0
    for n in range(1, 33):
        for k in range(1, n + 1):
            for t in (0.1, 1.0, 10.0):
                worst = max(worst, abs(os_pfa(0.0, OsPredictive(n, k, t)) - 1.0))
    assert worst <= 1e-12, worst
    _passed(capfd, 1, f"Pfa(0) = 1 for every n <= 32, k, t (worst dev {worst:.1e}, tol 1e-12)")


def test_criterion_02_minimum_rule_closed_chain(capfd):
    rng = random.Random(202)
    worst_pfa = 0.0
    for _ in range(2000):
        n = rng.randint(1, 32)
        t = 10.0 ** rng.uniform(-2, 2)
        tau = rng.uniform(0.0, 60.0) * t
        got = os_pfa(tau, OsPredictive(n, 1, t))
        want = n * t / (tau + n * t)
        worst_pfa = max(worst_pfa, abs(got - want) / want)
    assert worst_pfa <= 1e-12, worst_pfa

    worst_tau = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        for p in (0.5, 0.1, 0.01, 0.001):
            for t in (0.3, 1.0, 7.0):
                spec = DetectorSpec(Family.BAYES_OS, n, p, k=1)
                closed = bayes_os_threshold(spec, t)
                want = t * n * (1.0 / p - 1.0)
                worst_tau = max(worst_tau, abs(closed - want) / want)
                solved = solve_monotone_decreasing(
                    lambda tau, n=n, t=t: n * t / (tau + n * t), p
                )
                worst_tau = max(worst_tau, abs(closed - solved) / solved)
    assert worst_tau <= 1e-9, worst_tau
    _passed(capfd, 2, "k=1 collapses to n*t/(tau+n*t) (tol 1e-12) and its threshold "
               f"inverts exactly (worst dev {worst_tau:.1e}, tol 1e-9)")


def test_criterion_03_series_equals_quadrature(capfd):
    rng = random.Random(303)
    worst = 0.0
    for _ in range(10_000):
        n = rng.randint(1, 32)
        k = rng.randint(1, n)
        t = 10.0 ** rng.uniform(-1, 1)
        tau = rng.uniform(0.0, 8.0) * t
        osd = OsPredictive(n, k, t)
        a = os_pfa(tau, osd)
        b = os_pfa_quadrature(tau, osd)
        worst = max(worst, abs(a - b) / b)
    assert worst <= 1e-8, worst
    _passed(capfd, 3, f"closed-form Pfa matches quadrature on 10^4 draws "
               f"(worst rel dev {worst:.1e}, tol 1e-8)")


def test_criterion_04_generic_machinery_on_conjugate_model(capfd):
    rng = random.Random(404)
    worst = 0.0
    for n in range(1, 17):
        s = rng.uniform(0.5, 20.0)

        def posterior(lam, n=n, s=s):
            if lam <= 0:
                return 0.0
            logpdf = n * math.log(s) + (n - 1) * math.log(lam) - s * lam - math.lgamma(n)
            return math.exp(logpdf) if logpdf > -700 else 0.0

        model = PredictiveModel(
            likelihood=lambda z0, lam: lam * math.exp(-lam * z0),
            posterior=posterior,
            parameter_dimension=1,
        )
        for ratio in (0.0, 0.4, 1.7):
            tau = ratio * s
            got = generic_pfa(tau, model)
            want = (1.0 + tau / s) ** (-n)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-8, worst
    _passed(capfd, 4, f"generic quadrature Pfa matches the Gamma-posterior closed form "
               f"for n <= 16 (worst rel dev {worst:.1e}, tol 1e-8)")


def test_criterion_05_constant_false_alarm_rate(capfd):
    grid = [0.5, 1.0, 2.0, 10.0]
    worst = 0.0
    for family, k in ((Family.BAYES_OS, 12), (Family.CA_CFAR, None)):
        scenario = Scenario(
            clutter=ExponentialClutter(1.0),
            detector=DetectorSpec(family, 16, 0.01, k=k),
            trials=1_000_000,
            seed=515,
        )
        for report in cfar_sweep(scenario, grid):
            dev = abs(report.estimate - 0.01) / report.standard_error()
            worst = max(worst, dev)
    assert worst <= 3.0, worst
    _passed(capfd, 5, "estimated Pfa sits on the design point across a 20x clutter "
               f"power sweep, 10^6 trials/point (worst {worst:.2f} SE, tol 3 SE)")


def test_criterion_06_decision_paths_agree(capfd):
    rng = random.Random(606)
    combos = [
        (rng.randint(1, 12), None, rng.choice([0.2, 0.05, 0.01])) for _ in range(40)
    ]
    combos = [(n, rng.randint(1, n), p) for n, _, p in combos]
    checked = 0
    for i in range(10_000):
        n, k, p = combos[i % len(combos)]
        spec = DetectorSpec(Family.BAYES_OS, n, p, k=k)
        w = CrpWindow([rng.expovariate(1.0) + 1e-12 for _ in range(n)])
        z0 = rng.expovariate(1.0 if i % 2 else 0.02)
        t = sorted(w.samples)[k - 1]
        via_pfa = bayes_os_decide(z0, w, spec).verdict
        via_tau = Verdict.H1 if z0 > bayes_os_threshold(spec, t) else Verdict.H0
        assert via_pfa == via_tau, (n, k, p, z0, t)
        if k == 1:
            plain = min_cfar_decide(z0, w, DetectorSpec(Family.MIN_CFAR, n, p))
            assert plain.verdict == via_pfa
        checked += 1
    assert checked == 10_000
    _passed(capfd, 6, "comparison path and threshold path agree verdict-for-verdict "
               "on 10^4 random cases (k=1 also matches the minimum rule)")


def test_criterion_07_scale_equivariance_of_verdicts(capfd):
    rng = random.Random(707)
    cases = 0
    for _ in range(10_000):
        n = rng.randint(2, 10)
        k = rng.randint(1, n)
        p = rng.choice([0.3, 0.05, 0.01])
        c = 10.0 ** rng.uniform(-3, 3)
        xs = [rng.expovariate(1.0) + 1e-9 for _ in range(n)]
        z0 = rng.expovariate(1.0 if cases % 2 else 0.02)
        w, cw = CrpWindow(xs), CrpWindow([c * x for x in xs])
        tau_g = n * (1.0 / p - 1.0)
        pairs = [
            bayes_os_decide(z0, w, DetectorSpec(Family.BAYES_OS, n, p, k=k)).verdict
            == bayes_os_decide(c * z0, cw, DetectorSpec(Family.BAYES_OS, n, p, k=k)).verdict,
            min_cfar_decide(z0, w, DetectorSpec(Family.MIN_CFAR, n, p)).verdict
            == min_cfar_decide(c * z0, cw, DetectorSpec(Family.MIN_CFAR, n, p)).verdict,
            ca_cfar_decide(z0, w, DetectorSpec(Family.CA_CFAR, n, p)).verdict
            == ca_cfar_decide(c * z0, cw, DetectorSpec(Family.CA_CFAR, n, p)).verdict,
            custom_g_decide(z0, w, tau_g, lambda win: window_sum(win) / win.n).verdict
            == custom_g_decide(c * z0, cw, tau_g, lambda win: window_sum(win) / win.n).verdict,
        ]
        assert all(pairs), (n, k, p, c)
        cases += 1
    assert cases == 10_000
    _passed(capfd, 7, "unit changes over six decades never flip a verdict in any "
               "family, 10^4 random cases")


def test_criterion_08_detection_probability_sanity(capfd):
    base = Scenario(
        clutter=ExponentialClutter(2.0),
        detector=DetectorSpec(Family.MIN_CFAR, 4, 0.1),
        trials=1_000_000,
        seed=818,
        target=TargetModel(snr_linear=1e-9),
    )
    report = estimate_pd(base)
    dev = abs(report.estimate - 0.1) / report.standard_error()
    assert dev <= 3.0, dev

    estimates = []
    for snr in (1.0, 2.0, 4.0, 8.0, 16.0):
        sc = Scenario(
            clutter=ExponentialClutter(2.0),
            detector=DetectorSpec(Family.MIN_CFAR, 4, 0.1),
            trials=200_000,
            seed=818,
            target=TargetModel(snr_linear=snr),
        )
        estimates.append(estimate_pd(sc).estimate)
    assert all(a <= b for a, b in zip(estimates, estimates[1:])), estimates
    assert estimates[-1] > estimates[0]
    _passed(capfd, 8, f"Pd at vanishing SNR recovers the design Pfa ({dev:.2f} SE, "
               "tol 3 SE) and Pd is monotone in SNR under common randomness")


def test_criterion_09_simulation_reproducibility(capfd):
    argv = [
        sys.executable, "-m", "bayescfar.cli", "simulate",
        "--family", "bayes_os", "--n", "8", "--k", "6", "--pfa", "0.05",
        "--lambda", "1", "--trials", "1000000", "--seed", "42",
    ]
    outputs = []
    for workers in ("1", "4", "1", "4"):
        result = subprocess.run(
            argv, capture_output=True, text=True,
            env=child_env(BAYESCFAR_WORKERS=workers), timeout=600,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert len(set(outputs)) == 1, outputs
    record = json.loads(outputs[0])
    assert record["trials"] == 1_000_000
    _passed(capfd, 9, "simulate output is byte-identical across repeated runs and "
               "1-vs-4 worker schedules at 10^6 trials")
