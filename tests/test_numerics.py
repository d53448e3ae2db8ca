"""Foundation routine tests.

Expected values are frozen from independent evaluations: Pascal-triangle
recursion for binomial coefficients and hand-done Gamma integrals for the
quadrature cases.
"""

import math
import subprocess
import sys

import pytest
from child_env import child_env

from bayescfar.numerics import (
    QuadratureError,
    QuadratureSettings,
    RootFindingError,
    RootSettings,
    TargetUnreachableError,
    binom,
    integrate_semi_infinite,
    solve_monotone_decreasing,
)


def pascal_rows(limit: int):
    row = [1]
    yield row
    for _ in range(limit):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        yield row


class TestBinom:
    def test_small_exact_cases(self):
        assert binom(4, 2).value == 6
        assert binom(10, 0).value == 1
        assert binom(1, 1).value == 1
        assert binom(0, 0).value == 1

    def test_pascal_brute_force_value(self):
        # independently recomputed by additive recursion
        assert binom(60, 30).value == 118264581564861424

    def test_pascal_identity_exhaustive(self):
        rows = list(pascal_rows(62))
        for n in range(63):
            for r in range(n + 1):
                assert binom(n, r).value == rows[n][r]
        for n in range(1, 63):
            for r in range(1, n):
                assert binom(n, r).value == binom(n - 1, r - 1).value + binom(n - 1, r).value

    def test_exact_flag_boundary(self):
        assert binom(62, 31).exact
        assert not binom(63, 31).exact

    def test_log_domain_matches_exact_arithmetic(self):
        got = binom(63, 31)
        want = math.comb(63, 31)
        assert math.isclose(math.exp(got.value), want, rel_tol=1e-12)
        assert math.isclose(got.as_float(), want, rel_tol=1e-12)
        assert math.isclose(got.log(), math.log(want), rel_tol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom(3, 4)
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -1)


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
        settings = RootSettings(max_iterations=20)
        with pytest.raises(RootFindingError):
            solve_monotone_decreasing(lambda t: 1.0 / (1.0 + 1e-12 * t), 0.5, settings)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            RootSettings(tolerance_on_tau=0.0)
        with pytest.raises(ValueError):
            RootSettings(max_iterations=0)
