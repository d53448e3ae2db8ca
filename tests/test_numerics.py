"""Foundation routine tests.

Expected values are frozen from independent evaluations: Pascal-triangle
recursion for binomial coefficients and hand-done Gamma integrals for the
quadrature cases.
"""

import math
import random
import subprocess
import sys

import numpy as np
import pytest
from child_env import child_env
from scipy import integrate

from bayescfar.numerics import (
    FirstPassRule,
    QuadratureError,
    QuadratureSettings,
    RootFindingError,
    TargetUnreachableError,
    integrate_semi_infinite,
    solve_monotone_decreasing,
)
from bayescfar.predictive import _log_comb


def pascal_rows(limit: int):
    row = [1]
    yield row
    for _ in range(limit):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        yield row


class TestBinom:
    """_log_comb, the log C(n, k) of the order-statistic posterior's constant."""

    def test_small_exact_cases(self):
        assert _log_comb(4, 2) == math.log(6)
        assert _log_comb(10, 0) == 0.0
        assert _log_comb(1, 1) == 0.0
        assert _log_comb(0, 0) == 0.0

    def test_pascal_brute_force_value(self):
        # independently recomputed by additive recursion
        assert _log_comb(60, 30) == math.log(118264581564861424)

    def test_pascal_identity_exhaustive(self):
        # up to n = 62 the log of the exact integer, bit for bit
        for n, row in enumerate(pascal_rows(62)):
            for r in range(n + 1):
                assert _log_comb(n, r) == math.log(row[r]), (n, r)

    def test_log_domain_matches_exact_arithmetic(self):
        for n in (63, 64, 100, 300, 1000):
            for r in (1, n // 3, n // 2, n - 1):
                want = math.log(math.comb(n, r))
                assert math.isclose(_log_comb(n, r), want, rel_tol=1e-12), (n, r)

    def test_domain_errors(self):
        for n, r in ((3, 4), (-1, 0), (3, -1), (70, 71), (70, -1)):
            with pytest.raises(ValueError):
                _log_comb(n, r)


class TestIntegrateSemiInfinite:
    def test_unit_exponential(self):
        out = integrate_semi_infinite(lambda x: math.exp(-x))
        assert math.isclose(out.value, 1.0, rel_tol=1e-10)
        assert out.error_estimate < 1e-8

    def test_gamma_two_rate_two(self):
        out = integrate_semi_infinite(lambda x: x * math.exp(-2.0 * x))
        assert math.isclose(out.value, 0.25, rel_tol=1e-10)

    def test_binomial_expansion_case(self):
        # x(1-e^{-x})e^{-3x} = x e^{-3x} - x e^{-4x}; 1/9 - 1/16 = 7/144
        out = integrate_semi_infinite(lambda x: x * (-math.expm1(-x)) * math.exp(-3.0 * x))
        assert math.isclose(out.value, 7.0 / 144.0, rel_tol=1e-12)

    def test_gamma_family_within_ten_rel_tol(self):
        settings = QuadratureSettings()
        for n in range(1, 7):
            for r in (0.5, 1.0, 2.0, 10.0):
                out = integrate_semi_infinite(
                    lambda x, n=n, r=r: x ** (n - 1) * math.exp(-r * x), settings
                )
                want = math.gamma(n) / r**n
                assert math.isclose(
                    out.value, want, rel_tol=10 * settings.relative_tolerance
                ), (n, r)

    def test_breakpoints_resolve_concentrated_mass(self):
        # unit-mass bump of width ~1e-3 at x = 50; without hints the global
        # rule integrates this to ~0
        center, width = 50.0, 5e-4

        def bump(x):
            return math.exp(-0.5 * ((x - center) / width) ** 2) / (
                width * math.sqrt(2 * math.pi)
            )

        out = integrate_semi_infinite(
            bump, breakpoints=[center - 10 * width, center, center + 10 * width]
        )
        assert math.isclose(out.value, 1.0, rel_tol=1e-9)

    def test_divergent_integrand_raises_with_best_estimate(self):
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda x: 1.0 / (1.0 + x))
        assert hasattr(err.value, "best_estimate")
        assert err.value.best_estimate > 0

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(absolute_tolerance=-1.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)

    def test_package_import_leaves_scipy_unloaded(self):
        # scipy is loaded by the first quadrature, not by importing the package
        code = "import sys, bayescfar; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


def qagp_oracle(f, breakpoints, settings):
    """scipy's QAGP on the map u = x/(1+x), written out here.

    Returns (value, error estimate, whether QAGP stopped after its first
    pass of 21 nodes per interval with no warning).
    """
    points = sorted({x / (1.0 + x) for x in breakpoints})

    def transformed(u):
        w = 1.0 - u
        return f(u / w) / (w * w)

    out = integrate.quad(
        transformed, 0.0, 1.0, points=points, full_output=1,
        epsabs=settings.absolute_tolerance, epsrel=settings.relative_tolerance,
        limit=settings.max_subdivisions,
    )
    first_pass = out[2]["neval"] == 21 * (len(points) + 1) and len(out) == 3
    return out[0], out[1], first_pass


def random_breakpoints(rng, lo, hi):
    return sorted(10.0 ** rng.uniform(lo, hi) for _ in range(rng.randint(1, 60)))


def outcome(call):
    # a result, or the estimates a QuadratureError carries
    try:
        return call()
    except QuadratureError as err:
        return ("QuadratureError", err.best_estimate, err.error_estimate)


class TestFirstPassRule:
    def test_agrees_with_qagp_on_random_gamma_and_lognormal_integrands(self):
        rng = random.Random(1983)
        settings = QuadratureSettings()
        accepted = declined = 0
        for case in range(120):
            if case % 2:
                shape, rate = rng.uniform(0.5, 30.0), 10.0 ** rng.uniform(-3, 3)

                def f(x, shape=shape, rate=rate):
                    log_val = (shape * math.log(rate) + (shape - 1.0) * math.log(x)
                               - rate * x - math.lgamma(shape))
                    return math.exp(log_val) if log_val > -745.0 else 0.0

                centre = math.log10(shape / rate)
            else:
                mu, sigma = rng.uniform(-5, 5), rng.uniform(0.05, 2.0)

                def f(x, mu=mu, sigma=sigma):
                    z = (math.log(x) - mu) / sigma
                    return math.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2 * math.pi))

                centre = mu / math.log(10.0)
            breakpoints = random_breakpoints(rng, centre - 3.0, centre + 3.0)
            rule = FirstPassRule(breakpoints)
            values = np.array([f(x) for x in rule.nodes])
            want, want_error, qagp_first_pass = qagp_oracle(f, breakpoints, settings)
            got = rule.first_pass(values, settings)
            assert (got is not None) == qagp_first_pass, case
            if got is None:
                declined += 1
                continue
            accepted += 1
            assert math.isclose(got.value, want, rel_tol=1e-15, abs_tol=1e-300), case
            assert math.isclose(got.error_estimate, want_error, rel_tol=1e-12), case
            # every law here has unit mass
            assert math.isclose(got.value, 1.0, rel_tol=1e-9), case
        assert accepted >= 30 and declined >= 10, (accepted, declined)

    def test_nodes_are_the_points_qagp_evaluates(self):
        breakpoints = [0.3, 2.0, 7.5, 40.0]
        seen = []

        def f(x):
            seen.append(x)
            return x * math.exp(-x)

        qagp_oracle(f, breakpoints, QuadratureSettings(relative_tolerance=1e-3))
        rule = FirstPassRule(breakpoints)
        assert len(seen) == len(rule.nodes) == 21 * 5
        assert sorted(seen) == sorted(rule.nodes.tolist())

    def test_exact_for_polynomials_up_to_degree_31_on_one_interval(self):
        # (1 + s)^d on the middle interval u in (1/2, 3/4) and zero elsewhere,
        # s the interval's local coordinate; the integral is 2^(d+1)/(d+1) h
        rule = FirstPassRule([1.0, 3.0])
        centre, half = 0.625, 0.125
        loose = QuadratureSettings(relative_tolerance=1e-3)
        for d in range(32):
            def f(x, d=d):
                u = x / (1.0 + x)
                if not (0.5 < u < 0.75):
                    return 0.0
                return (1.0 + (u - centre) / half) ** d * (1.0 - u) ** 2

            got = rule.first_pass(np.array([f(x) for x in rule.nodes]), loose)
            want = half * 2.0 ** (d + 1) / (d + 1)
            assert got is not None, d
            assert math.isclose(got.value, want, rel_tol=2e-15), d

    @pytest.mark.parametrize("settings", [
        QuadratureSettings(relative_tolerance=1e-15),
        QuadratureSettings(),
    ])
    def test_declined_first_pass_returns_the_qagp_value_bit_for_bit(self, settings):
        breakpoints = [0.1, 1.0, 10.0]
        cases = {
            "gamma": lambda x: x * math.exp(-x),
            # a spike at x = 0.63, far narrower than the interval (0.1, 1)
            "spike": lambda x: math.exp(-0.5 * ((x - 0.63) / 2e-3) ** 2) + math.exp(-x),
        }
        for name, f in cases.items():
            rule = FirstPassRule(breakpoints)
            values = np.array([f(x) for x in rule.nodes])
            assert rule.first_pass(values, settings) is None, name
            got = outcome(lambda: rule.integrate(values, f, settings))
            want = outcome(lambda: integrate_semi_infinite(f, settings, breakpoints))
            assert got == want, name

    def test_declined_first_pass_calls_f_only_where_qagp_refines(self):
        # QAGP evaluates f once per point, neval in all; its first pass takes
        # the 21 nodes of each interval, whose values the rule already holds
        breakpoints = [0.1, 1.0, 10.0]
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.exp(-0.5 * ((x - 0.63) / 2e-3) ** 2) + math.exp(-x)

        want = integrate_semi_infinite(f, breakpoints=breakpoints)
        neval = calls[0]
        rule = FirstPassRule(breakpoints)
        values = np.array([f(x) for x in rule.nodes])
        calls[0] = 0
        got = rule.integrate(values, f)
        first_pass = 21 * (len(breakpoints) + 1)
        assert neval > first_pass
        assert calls[0] == neval - first_pass
        assert (got.value.hex(), got.error_estimate.hex()) == (
            want.value.hex(), want.error_estimate.hex())

    def test_non_finite_values_fail_as_qagp_does(self):
        def f(x):
            return math.nan if 1.0 < x < 2.0 else math.exp(-x)

        rule = FirstPassRule([0.5, 1.5, 4.0])
        values = np.array([f(x) for x in rule.nodes])
        assert rule.first_pass(values) is None
        got = outcome(lambda: rule.integrate(values, f))
        want = outcome(lambda: integrate_semi_infinite(f, breakpoints=[0.5, 1.5, 4.0]))
        assert got[0] == want[0] == "QuadratureError"
        assert repr(got) == repr(want)

    def test_needs_a_breakpoint(self):
        for bad in ([], [0.0], [-1.0, math.inf, math.nan]):
            with pytest.raises(ValueError, match="breakpoint"):
                FirstPassRule(bad)


def os_pfa_product_form(m: float, n: int, k: int) -> float:
    """Independent closed form for the order-statistic false-alarm curve.

    Multiplying out the Beta-function representation gives
    prod_{j=n-k+1}^{n} j/(j+m) with m the threshold in units of the observed
    statistic. Used here purely as a test oracle.
    """
    out = 1.0
    for j in range(n - k + 1, n + 1):
        out *= j / (j + m)
    return out


class TestSolveMonotoneDecreasing:
    def test_reciprocal_curve(self):
        root = solve_monotone_decreasing(lambda t: 1.0 / (1.0 + t), 0.5)
        assert math.isclose(root, 1.0, rel_tol=1e-9)

    def test_exponential_curve(self):
        root = solve_monotone_decreasing(lambda t: math.exp(-t), 0.1)
        assert math.isclose(root, math.log(10.0), rel_tol=1e-9)

    def test_two_cell_hand_case(self):
        # 2[(t+1)^{-1} - (t+2)^{-1}] equals 1/3 at t = 1
        def f(t):
            return 2.0 * (1.0 / (t + 1.0) - 1.0 / (t + 2.0))

        root = solve_monotone_decreasing(f, 1.0 / 3.0)
        assert math.isclose(root, 1.0, rel_tol=1e-9)

    def test_recovers_target_across_pfa_family(self):
        import random

        rng = random.Random(20240817)
        for n in range(2, 33):
            for k in range(1, n + 1):
                t = 10.0 ** rng.uniform(-1, 1)
                target = rng.uniform(0.001, 0.9)

                def f(tau, n=n, k=k, t=t):
                    return os_pfa_product_form(tau / t, n, k)

                root = solve_monotone_decreasing(f, target)
                assert math.isclose(f(root), target, rel_tol=1e-9), (n, k, t)

    def test_target_above_f0_rejected(self):
        with pytest.raises(TargetUnreachableError):
            solve_monotone_decreasing(lambda t: 0.5 / (1.0 + t), 0.9)

    def test_target_equal_to_f0_returns_zero(self):
        assert solve_monotone_decreasing(lambda t: 1.0 / (1.0 + t), 1.0) == 0.0

    def test_bracket_expansion_gives_up(self):
        # the root is 1e300, about 997 doublings out; the limit is 200
        with pytest.raises(RootFindingError, match="200 doublings"):
            solve_monotone_decreasing(lambda t: 1.0 / (1.0 + 1e-300 * t), 0.5)
