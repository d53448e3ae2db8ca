"""Foundation routine tests.

Expected values are frozen from independent evaluations: Pascal-triangle
recursion for binomial coefficients and hand-done Gamma integrals for the
quadrature cases. The QAGP port is checked against scipy's QUADPACK
(scipy.integrate.quad), which the library itself never imports.
"""

import functools
import math
import random
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest
from child_env import child_env
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bayescfar import numerics
from bayescfar.numerics import (
    EvaluationError,
    FirstPassRule,
    QuadratureError,
    QuadratureResult,
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
        out = integrate_semi_infinite(lambda x: math.exp(-x), QuadratureSettings(), [1.0])
        assert math.isclose(out.value, 1.0, rel_tol=1e-10)
        assert out.error_estimate < 1e-8

    def test_gamma_two_rate_two(self):
        out = integrate_semi_infinite(lambda x: x * math.exp(-2.0 * x), QuadratureSettings(), [1.0])
        assert math.isclose(out.value, 0.25, rel_tol=1e-10)

    def test_binomial_expansion_case(self):
        # x(1-e^{-x})e^{-3x} = x e^{-3x} - x e^{-4x}; 1/9 - 1/16 = 7/144
        out = integrate_semi_infinite(
            lambda x: x * (-math.expm1(-x)) * math.exp(-3.0 * x), QuadratureSettings(), [1.0]
        )
        assert math.isclose(out.value, 7.0 / 144.0, rel_tol=1e-12)

    def test_gamma_family_within_ten_rel_tol(self):
        settings = QuadratureSettings()
        for n in range(1, 7):
            for r in (0.5, 1.0, 2.0, 10.0):
                out = integrate_semi_infinite(
                    lambda x, n=n, r=r: x ** (n - 1) * math.exp(-r * x), settings, [1.0]
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
            bump, QuadratureSettings(), [center - 10 * width, center, center + 10 * width]
        )
        assert math.isclose(out.value, 1.0, rel_tol=1e-9)

    def test_divergent_integrand_raises_with_best_estimate(self):
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), QuadratureSettings(), [1.0])
        assert hasattr(err.value, "best_estimate")
        assert err.value.best_estimate > 0

    def test_nan_partial_sums_fail_inside_the_extrapolation_table(self):
        # NaN on (500, 1000) makes every extrapolated value NaN, which qelg
        # takes as converged while its table fills; QUADPACK then writes past
        # the table's 52 entries (scipy's quad crashes on this integral)
        def f(x):
            if 500.0 < x < 1000.0:
                return math.nan
            log_val = 0.5 * math.log(1e-3) - 0.5 * math.log(x) - 1e-3 * x - math.lgamma(0.5)
            return math.exp(log_val)

        settings = QuadratureSettings(relative_tolerance=1e-4, absolute_tolerance=1e-10)
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(f, settings, [1.0])

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(absolute_tolerance=-1.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)
        # a float limit reached QAGP's bisection, whose first declined
        # integral raised TypeError, and an infinite tolerance accepted the
        # divergent integral of 1/(1+x) as 8.41
        for bad, name in ((dict(max_subdivisions=200.0), "integer"),
                          (dict(max_subdivisions="200"), "integer"),
                          (dict(relative_tolerance=math.inf), "finite"),
                          (dict(relative_tolerance=math.nan), "finite"),
                          (dict(absolute_tolerance=math.inf), "finite")):
            with pytest.raises(ValueError, match=name):
                QuadratureSettings(**bad)
        # a numpy integer is an integer, and bisects as an int does
        bump = lambda x: math.exp(-(((x - 3.0) / 1e-2) ** 2))  # noqa: E731
        got = integrate_semi_infinite(bump, QuadratureSettings(max_subdivisions=np.int64(200)),
                                      [3.0])
        want = integrate_semi_infinite(bump, QuadratureSettings(max_subdivisions=200), [3.0])
        assert got == want
        assert math.isclose(got.value, math.sqrt(math.pi) * 1e-2, rel_tol=1e-10)

    def test_package_import_leaves_scipy_unloaded(self):
        # no library call loads scipy: the OS quadrature oracle, a 1-D model
        # and its Pfa, a declined first pass, and a quadrature that fails
        out = subprocess.run(
            [sys.executable, "-c", LIBRARY_CALLS_IN_FRESH_INTERPRETER], capture_output=True,
            text=True, env=child_env(), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"] * 5


LIBRARY_CALLS_IN_FRESH_INTERPRETER = """
import math, sys
import bayescfar
from bayescfar import numerics, predictive
print('scipy' in sys.modules)
osd = predictive.OsPredictive(8, 6, 1.0)
predictive.os_pfa_quadrature(2.0, osd)
print('scipy' in sys.modules)
model = predictive.PredictiveModel(
    lambda z0, lam: lam * math.exp(-lam * z0),
    lambda lam: predictive.posterior_lambda_os(lam, osd), 1)
predictive.generic_pfa(2.0, model)
print('scipy' in sys.modules)
import numpy as np
spike = lambda x: math.exp(-0.5 * ((x - 0.63) / 2e-3) ** 2) + math.exp(-x)
rule = numerics.FirstPassRule([0.1, 1.0, 10.0])
values = np.array([[spike(x) for x in rule.nodes]])
settings = numerics.QuadratureSettings()
def refuse(x):
    raise LookupError(x)
try:
    rule.integrate_rows(values, lambda i: refuse, settings)
except LookupError:
    pass
else:
    raise AssertionError('the first pass was accepted')
rule.integrate_rows(values, lambda i: lambda x: np.array([spike(v) for v in x]), settings)
print('scipy' in sys.modules)
try:
    numerics.integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), numerics.QuadratureSettings(), [1.0])
except numerics.QuadratureError:
    print('scipy' in sys.modules)
"""


class Qagp(NamedTuple):
    value: float
    error_estimate: float
    neval: int
    last: int
    converged: bool
    intervals: int
    info: dict


def qagp_oracle(f, breakpoints, settings):
    """scipy's QAGP on the map u = x/(1+x), written out here.

    The subdivision limit is integrate_semi_infinite's: the settings' limit,
    raised to two per breakpoint interval. info is quad's infodict, whose
    rlist, elist, iord and level show where a port parts from QUADPACK.
    """
    # quad keeps only the points inside (0, 1): a breakpoint past about 1e16
    # maps onto u = 1 and adds no interval
    points = [u for u in sorted({x / (1.0 + x) for x in breakpoints}) if 0.0 < u < 1.0]

    def transformed(u):
        # QUADPACK's nodes can round onto u = 1 in a tiny last interval
        if not 0.0 < u < 1.0:
            return 0.0
        w = 1.0 - u
        return f(u / w) / (w * w)

    out = integrate.quad(
        transformed, 0.0, 1.0, points=points, full_output=1,
        epsabs=settings.absolute_tolerance, epsrel=settings.relative_tolerance,
        limit=max(settings.max_subdivisions, 2 * (len(points) + 1)),
    )
    info = out[2]
    return Qagp(out[0], out[1], info["neval"], info["last"], len(out) == 3,
                len(points) + 1, info)


def accepts_first_pass(oracle):
    # QAGP stopped after its first pass of 21 nodes per interval, with no warning
    return oracle.converged and oracle.neval == 21 * oracle.intervals


class Refused(Exception):
    """f was called: QAGP declined the first pass."""


def refuse(x):
    raise Refused(x)


def integrate_from(rule, values, f, settings=QuadratureSettings()):
    """QAGP on f from the rule's first pass of values: integrate_semi_infinite
    on the rule's breakpoints, given values at the first pass's nodes, which
    QAGP takes first and in order, and f at each point QAGP adds."""
    pending = iter(zip(rule.nodes.tolist(), list(values)))

    def integrand(x):
        node = next(pending, None)
        if node is None:
            return f(x)
        assert x == node[0]
        return node[1]

    return integrate_semi_infinite(integrand, settings, rule.breakpoints)


def first_pass(rule, values, settings=QuadratureSettings()):
    """The rule's result when QAGP accepts its first pass, else None.

    An accepted pass returns without calling f; a QuadratureError raised
    before any call fails the pass, so it counts as declined.
    """
    try:
        return integrate_from(rule, values, refuse, settings)
    except (Refused, QuadratureError):
        return None


def hexed(outcome):
    # a result, or the estimates a QuadratureError carries, as exact hex
    return tuple(x.hex() if isinstance(x, float) else x for x in outcome)


def expected(oracle):
    # what the library returns or raises where scipy reports this outcome
    if oracle.converged:
        return hexed(QuadratureResult(oracle.value, oracle.error_estimate))
    return hexed(("QuadratureError", oracle.value, oracle.error_estimate))


def random_breakpoints(rng, lo, hi):
    return sorted(10.0 ** rng.uniform(lo, hi) for _ in range(rng.randint(1, 60)))


def random_law(rng, case):
    """A unit-mass density, a Gamma law for odd case and a lognormal one for
    even, with 1 to 60 random breakpoints over six decades around its bulk."""
    if case % 2:
        shape, rate = rng.uniform(0.5, 30.0), 10.0 ** rng.uniform(-3, 3)

        def f(x):
            log_val = (shape * math.log(rate) + (shape - 1.0) * math.log(x)
                       - rate * x - math.lgamma(shape))
            return math.exp(log_val) if log_val > -745.0 else 0.0

        centre = math.log10(shape / rate)
    else:
        mu, sigma = rng.uniform(-5, 5), rng.uniform(0.05, 2.0)

        def f(x):
            z = (math.log(x) - mu) / sigma
            return math.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2 * math.pi))

        centre = mu / math.log(10.0)
    return f, random_breakpoints(rng, centre - 3.0, centre + 3.0)


def outcome(call):
    # a result, or the estimates a QuadratureError carries
    try:
        return call()
    except QuadratureError as err:
        return ("QuadratureError", err.best_estimate, err.error_estimate)


def elementwise(f):
    """f as an array integrand, integrate_rows' contract: f at each point in turn."""
    return lambda x: np.array([f(v) for v in x.tolist()], dtype=float)


def recorded(f):
    # f, and a list of the points it is called at
    points = []

    def wrapper(x):
        points.append(x)
        return f(x)

    return wrapper, points


def spike(x):
    # a spike at x = 0.63, far narrower than the interval (0.1, 1)
    return math.exp(-0.5 * ((x - 0.63) / 2e-3) ** 2) + math.exp(-x)


class TestFirstPassRule:
    def test_agrees_with_qagp_on_random_gamma_and_lognormal_integrands(self):
        rng = random.Random(1983)
        settings = QuadratureSettings()
        accepted = declined = 0
        for case in range(120):
            f, breakpoints = random_law(rng, case)
            rule = FirstPassRule(breakpoints)
            values = np.array([f(x) for x in rule.nodes])
            oracle = qagp_oracle(f, breakpoints, settings)
            got = first_pass(rule, values, settings)
            assert (got is not None) == accepts_first_pass(oracle), case
            if got is None:
                declined += 1
                continue
            accepted += 1
            assert hexed(got) == expected(oracle), case
            # integrate_rows certifies each of these passes: it asks for no integrand
            (value,) = rule.integrate_rows(values[None], refuse, settings).tolist()
            assert value.hex() == got.value.hex(), case
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

            got = first_pass(rule, np.array([f(x) for x in rule.nodes]), loose)
            want = half * 2.0 ** (d + 1) / (d + 1)
            assert got is not None, d
            assert math.isclose(got.value, want, rel_tol=2e-15), d

    @pytest.mark.parametrize("settings", [
        QuadratureSettings(relative_tolerance=1e-15),
        QuadratureSettings(),
    ])
    def test_declined_first_pass_returns_the_qagp_value_bit_for_bit(self, settings):
        breakpoints = [0.1, 1.0, 10.0]
        cases = {"gamma": lambda x: x * math.exp(-x), "spike": spike}
        for name, f in cases.items():
            rule = FirstPassRule(breakpoints)
            values = np.array([f(x) for x in rule.nodes])
            assert first_pass(rule, values, settings) is None, name
            got = outcome(lambda: integrate_from(rule, values, f, settings))
            assert hexed(got) == expected(qagp_oracle(f, breakpoints, settings)), name

    def test_declined_first_pass_calls_f_only_where_qagp_refines(self):
        # QAGP evaluates f once per point, neval in all; its first pass takes
        # the 21 nodes of each interval, whose values the rule already holds
        breakpoints = [0.1, 1.0, 10.0]
        oracle = qagp_oracle(spike, breakpoints, QuadratureSettings())
        rule = FirstPassRule(breakpoints)
        values = np.array([spike(x) for x in rule.nodes])
        f, points = recorded(spike)
        got = integrate_from(rule, values, f)
        pass_nodes = 21 * (len(breakpoints) + 1)
        assert oracle.neval > pass_nodes
        assert len(points) == oracle.neval - pass_nodes
        assert hexed(got) == expected(oracle)

    def test_non_finite_values_fail_as_qagp_does(self):
        def f(x):
            return math.nan if 1.0 < x < 2.0 else math.exp(-x)

        rule = FirstPassRule([0.5, 1.5, 4.0])
        values = np.array([f(x) for x in rule.nodes])
        assert first_pass(rule, values) is None
        got = outcome(lambda: integrate_from(rule, values, f))
        oracle = qagp_oracle(f, [0.5, 1.5, 4.0], QuadratureSettings())
        assert not oracle.converged
        assert got[0] == "QuadratureError"
        assert hexed(got) == expected(oracle)

    def test_nodes_that_round_onto_u_one_are_dropped(self):
        # the interval below u = 1 is a few ulp wide past x = 1e14; QUADPACK's
        # integrand in u is 0 at a node that rounds onto u = 1, so f gets no
        # point there, and the rule makes none (nor a divide-by-zero warning)
        for top, nodes in ((1e13, 42), (1e14, 41), (1e15, 37)):
            rule = FirstPassRule([top])
            assert len(rule.nodes) == nodes, top
            assert np.all(np.isfinite(rule.nodes)), top

    def test_needs_a_breakpoint(self):
        for bad in ([], [0.0], [-1.0, math.inf, math.nan]):
            with pytest.raises(ValueError, match="breakpoint"):
                FirstPassRule(bad)


def library_integrals(run):
    """The integrals run() makes through predictive's integrate_semi_infinite,
    and generic_pfa's outer ones, each an integrate_rows of one row on the rule
    over predictive._Z0_LADDER, as (f, settings, breakpoints) in call order.
    f is a memoized scalar function that holds the values the library
    computed, so integrating it again costs no likelihood calls. A call
    that raises QuadratureError is recorded too."""
    from bayescfar import predictive

    recorded = []
    semi_infinite, rows_pass = predictive.integrate_semi_infinite, FirstPassRule.integrate_rows

    def recording_semi_infinite(f, settings, breakpoints):
        memoized = functools.cache(f)
        recorded.append((memoized, settings, breakpoints))
        return semi_infinite(memoized, settings, breakpoints)

    def recording_rows_pass(rule, values, integrand, settings):
        if rule.breakpoints != tuple(predictive._Z0_LADDER):
            return rows_pass(rule, values, integrand, settings)
        (row,), array = values, integrand(0)
        # the first pass's values, then one point at a time
        memo = dict(zip(rule.nodes.tolist(), row.tolist()))

        def memoized(x):
            if x not in memo:
                memo[x] = array(np.array([x])).item()
            return memo[x]

        recorded.append((memoized, settings, list(rule.breakpoints)))
        return rows_pass(rule, values, lambda i: elementwise(memoized), settings)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictive, "integrate_semi_infinite", recording_semi_infinite)
        patch.setattr(FirstPassRule, "integrate_rows", recording_rows_pass)
        outcome(run)
    return recorded


def crosscheck_integrals():
    """The integrals the crosscheck benchmark's four shapes and three
    thresholds make: os_pfa_quadrature's, and generic_pfa's outer one, each
    as (name, f, settings, breakpoints)."""
    from bayescfar import predictive

    shapes = [((4, 2), 1e-2), ((8, 6), 1.0), ((16, 12), 1e2), ((24, 18), 1e4)]
    cases = []
    for (n, k), t in shapes:
        osd = predictive.OsPredictive(n, k, t)
        model = predictive.PredictiveModel(
            lambda z0, lam: lam * math.exp(-lam * z0),
            lambda lam, osd=osd: predictive.posterior_lambda_os(lam, osd), 1,
        )
        for ratio in (0.5, 2.0, 6.0):
            for label, run in (
                ("os_pfa_quadrature", lambda: predictive.os_pfa_quadrature(ratio * t, osd)),
                ("generic_pfa", lambda: predictive.generic_pfa(ratio * t, model)),
            ):
                (integral,) = library_integrals(run)
                cases.append((f"{label} n={n} k={k} tau={ratio}t", *integral))
    return cases


def qagp_corpus():
    """(name, f, settings, breakpoints): the integrals the port is held to
    QUADPACK on, converging, declining their first pass, or failing."""
    rng = random.Random(1983)
    for case in range(180):
        f, breakpoints = random_law(rng, case)
        settings = QuadratureSettings(
            relative_tolerance=10.0 ** rng.uniform(-13, -4),
            absolute_tolerance=10.0 ** rng.uniform(-300, -10),
            max_subdivisions=rng.choice([3, 10, 50, 200]),
        )
        yield f"random law {case}", f, settings, breakpoints
    for settings in (QuadratureSettings(), QuadratureSettings(relative_tolerance=1e-15)):
        yield f"spike at {settings.relative_tolerance}", spike, settings, [0.1, 1.0, 10.0]
    divergent = lambda x: 1.0 / (1.0 + x)  # noqa: E731
    yield "divergent", divergent, QuadratureSettings(), [1.0]
    yield "divergent on a ladder", divergent, QuadratureSettings(), [10.0**e for e in range(-3, 4)]
    yield ("nan on (1, 2)", lambda x: math.nan if 1.0 < x < 2.0 else math.exp(-x),
           QuadratureSettings(), [0.5, 1.5, 4.0])
    yield ("inf on (0.5, 0.6)", lambda x: math.inf if 0.5 < x < 0.6 else math.exp(-x),
           QuadratureSettings(), [2.0])
    yield from crosscheck_integrals()
    # breakpoints far enough out that the last interval is a few ulp wide
    # below u = 1, and some of its nodes round onto u = 1
    for top in (1e14, 1e15):
        yield f"exp(-x) on [{top:g}]", lambda x: math.exp(-x), QuadratureSettings(), [top]
    from bayescfar import predictive

    for t in (1e-8, 1e-9, 1e-12):
        osd = predictive.OsPredictive(8, 6, t)
        (integral,) = library_integrals(lambda: predictive.os_pfa_quadrature(2.0 * t, osd))
        yield (f"os_pfa_quadrature n=8 k=6 t={t:g}", *integral)


class TestQagpPort:
    def test_matches_quadpack_bit_for_bit(self, monkeypatch):
        # value and error estimate hex-equal to scipy's, f called at the same
        # points, and as many qk21 passes (neval) and intervals (last); each
        # bisection is two qk21 passes, one per half
        passes = [0]
        bisected = numerics._bisected

        def counting(*args):
            passes[0] += 2
            return bisected(*args)

        monkeypatch.setattr(numerics, "_bisected", counting)
        outcomes = {"accepted": 0, "refined": 0, "failed": 0}
        for name, f, settings, breakpoints in qagp_corpus():
            quadpack, want_points = recorded(f)
            oracle = qagp_oracle(quadpack, breakpoints, settings)
            port, points = recorded(f)
            passes[0] = 0
            got = outcome(lambda: integrate_semi_infinite(port, settings, breakpoints))
            assert hexed(got) == expected(oracle), name
            assert sorted(points) == sorted(want_points), name
            assert 21 * (oracle.intervals + passes[0]) == oracle.neval, name
            assert oracle.intervals + passes[0] // 2 == oracle.last, name
            kind = ("failed" if not oracle.converged
                    else "accepted" if passes[0] == 0 else "refined")
            outcomes[kind] += 1
        assert sum(outcomes.values()) >= 200
        assert min(outcomes.values()) >= 10, outcomes


def row_law(kind, a, b):
    """One function of the rows pass, from two parameters in [0, 1]: a
    smooth law, a spike QAGP refines, NaN or inf on an interval, or a
    constant -0.0 or 0.0."""
    if kind in ("gamma", "nan", "inf", "negative"):
        shape, rate = 0.5 + 30.0 * a, 10.0 ** (6.0 * b - 3.0)

        def f(x):
            log_val = (shape * math.log(rate) + (shape - 1.0) * math.log(x)
                       - rate * x - math.lgamma(shape))
            return math.exp(log_val) if log_val > -745.0 else 0.0

        centre = shape / rate
        if kind == "nan":
            return lambda x: math.nan if centre < x < 2.0 * centre else f(x)
        if kind == "inf":
            return lambda x: math.inf if centre < x < 1.1 * centre else f(x)
        if kind == "negative":
            return lambda x: -1e-3 * f(x)
        return f
    if kind == "lognormal":
        mu, sigma = 10.0 * a - 5.0, 0.05 + 2.0 * b
        return lambda x: math.exp(-0.5 * ((math.log(x) - mu) / sigma) ** 2) / (x * sigma)
    if kind == "spike":
        centre = 10.0 ** (4.0 * a - 2.0)
        width = centre * 10.0 ** (-2.0 - 2.0 * b)
        return lambda x: math.exp(-0.5 * ((x - centre) / width) ** 2) + math.exp(-x)
    return {"negzero": lambda x: -0.0, "zeros": lambda x: 0.0}[kind]


ROW_KINDS = ["gamma", "gamma", "lognormal", "negative", "spike", "nan", "inf", "negzero", "zeros"]


@st.composite
def rows_cases(draw):
    """(breakpoints, settings, functions) for the rows pass. In half the
    cases each row is a random law under random tolerances; in the other
    half the rows are one smooth law scaled by 1 + i 2^-52, under a
    relative tolerance that puts that law's first pass on QAGP's
    acceptance boundary, so the rows fall either side of it."""
    unit = st.floats(0.0, 1.0)
    breakpoints = draw(st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
                                min_size=1, max_size=12))
    if draw(st.booleans()):
        laws = draw(st.lists(st.tuples(st.sampled_from(ROW_KINDS), unit, unit),
                             min_size=1, max_size=40))
        tolerances = QuadratureSettings(
            relative_tolerance=10.0 ** draw(st.floats(-13.0, -4.0)),
            absolute_tolerance=10.0 ** draw(st.floats(-300.0, -10.0)))
        return breakpoints, tolerances, [row_law(*law) for law in laws]
    base = row_law(draw(st.sampled_from(["gamma", "lognormal"])), draw(unit), draw(unit))
    rule = FirstPassRule(breakpoints)
    loose = QuadratureSettings(relative_tolerance=1.0, absolute_tolerance=1e300)
    accepted = first_pass(rule, [base(x) for x in rule.nodes], loose)
    if accepted is None or not (math.isfinite(accepted.value) and accepted.value != 0.0
                                and accepted.error_estimate > 0.0):
        return breakpoints, QuadratureSettings(), [base]
    value, error = accepted
    tolerances = QuadratureSettings(relative_tolerance=error / abs(value),
                                    absolute_tolerance=1e-300)
    steps = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=40))
    scales = [1.0 + i * 2.0**-52 for i in steps]
    return breakpoints, tolerances, [lambda x, c=c: c * base(x) for c in scales]


class TestRowsPass:
    """FirstPassRule.integrate_rows against integrate_semi_infinite, row by row."""

    @settings(max_examples=200, deadline=None)
    @given(rows_cases())
    def test_equals_integrate_row_by_row(self, case):
        breakpoints, tolerances, functions = case
        rule = FirstPassRule(breakpoints)
        values = np.array([[f(x) for x in rule.nodes.tolist()] for f in functions])
        want, want_points, exact = [], [], set()
        for i, (f, row) in enumerate(zip(functions, values)):
            counted, points = recorded(f)
            want.append(hexed(outcome(lambda: integrate_from(rule, row, counted, tolerances))))
            want_points.append(points)
            # declined, failed or non-finite: such a row must take QAGP itself
            if points or want[-1][0] == "QuadratureError" or not np.all(np.isfinite(row)):
                exact.add(i)
        got_points = [[] for _ in functions]
        taken = set()

        def integrand(i):
            taken.add(i)
            counted, got_points[i] = recorded(functions[i])
            return elementwise(counted)

        failures = [w for w in want if w[0] == "QuadratureError"]
        got = outcome(lambda: rule.integrate_rows(values, integrand, tolerances))
        if failures:
            # rows go in order, so the first failing row's error is raised
            assert hexed(got) == failures[0]
            return
        assert [v.hex() for v in got.tolist()] == [w[0] for w in want]
        assert got_points == want_points
        assert exact <= taken

    def test_chunks_take_the_bits_of_single_rows(self):
        # 105 rows are chunks of 32, 32, 32 and 9; each row alone is a chunk
        # of one, whose sums over intervals numpy would otherwise add
        # pairwise. QAGP declines the first pass of all 70 Gamma rows, and
        # accepts that of most lognormal rows about mu = 0, one row in three,
        # so every chunk has rows the certificate vouches for and rows it
        # leaves to QAGP
        rule = FirstPassRule([10.0**e for e in range(-3, 4)])
        gamma = [row_law("gamma", a, b) for a in np.linspace(0, 1, 7) for b in np.linspace(0, 1, 10)]
        lognormal = [row_law("lognormal", a, b)
                     for a in np.linspace(0.4, 0.6, 5) for b in np.linspace(0.3, 0.5, 7)]
        laws = [f for row in zip(gamma[::2], gamma[1::2], lognormal) for f in row]
        values = np.array([[f(x) for x in rule.nodes.tolist()] for f in laws])
        asked = set()

        def integrand(i):
            asked.add(i)
            return elementwise(laws[i])

        together = rule.integrate_rows(values, integrand, QuadratureSettings())
        assert 0 < len(asked) < len(laws)
        alone = [rule.integrate_rows(row[None], lambda i, f=f: elementwise(f),
                                     QuadratureSettings()).item()
                 for f, row in zip(laws, values)]
        want = [integrate_semi_infinite(f, QuadratureSettings(), rule.breakpoints).value
                for f in laws]
        assert [v.hex() for v in together.tolist()] == [v.hex() for v in want]
        assert [v.hex() for v in alone] == [v.hex() for v in want]

    def test_values_must_be_a_row_per_integral_at_every_node(self):
        # a 1-D row or a short one had failed inside numpy, on shapes that
        # could not be broadcast together
        rule = FirstPassRule([1.0, 3.0])
        row = np.exp(-rule.nodes)
        for bad in (row, row[None, :-1], row[None, None], np.append(row, 0.0)[None]):
            with pytest.raises(ValueError, match=rf"\(rows, {len(rule.nodes)}\) matrix"):
                rule.integrate_rows(bad, lambda i: refuse, QuadratureSettings())
        got = rule.integrate_rows(np.empty((0, len(rule.nodes))), lambda i: refuse,
                                  QuadratureSettings())
        assert got.shape == (0,)


def _pairwise(terms):
    # terms summed by halves, as numpy reduces a contiguous axis
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return _pairwise(terms[:half]) + _pairwise(terms[half:])


def test_qk21_sums_run_left_to_right():
    # the rows pass sums node pairs over axis -2 of (row, pair, interval)
    # arrays, and intervals through numerics._sequential_sum; both must add
    # term after term, as QUADPACK's loops do, for one row or many
    rng = np.random.default_rng(21)
    terms = rng.uniform(0.5, 2.0, (3, 200, 40))
    terms[:, 0] = 1.0
    terms[:, 1:, :20] = 2.0**-53
    sequential = [[functools.reduce(float.__add__, terms[r, :, c].tolist()) for c in range(40)]
                  for r in range(3)]
    pairwise = [[_pairwise(terms[r, :, c].tolist()) for c in range(40)] for r in range(3)]
    # the data tell the orders apart
    assert sequential != pairwise
    for rows in (slice(0, 3), slice(0, 1)):
        for columns in (slice(0, 40), slice(0, 2)):
            got = np.add.reduce(np.ascontiguousarray(terms[rows, :, columns]), axis=-2)
            want = [row[columns] for row in sequential[rows]]
            assert [[v.hex() for v in row] for row in got.tolist()] == \
                [[v.hex() for v in row] for row in want]
    for rows in (slice(0, 3), slice(0, 1)):
        # a (row, interval) array, whose contiguous axis numpy reduces pairwise
        along = np.ascontiguousarray(terms[rows, :, 0])
        got = numerics._sequential_sum(along)
        want = [row[0] for row in sequential[rows]]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


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
    def test_non_finite_curve_raises(self):
        with pytest.raises(EvaluationError):
            solve_monotone_decreasing(lambda x: math.nan, 0.5)

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

    def test_bracket_expansion_reaches_every_finite_doubling(self):
        # the root is 1e300, about 997 doublings out, past 2**200
        root = solve_monotone_decreasing(lambda t: 1.0 / (1.0 + 1e-300 * t), 0.5)
        assert math.isclose(root, 1e300, rel_tol=1e-11)

    def test_bracket_expansion_gives_up(self):
        # the root is 1e310, past the float maximum: doubling reaches inf first
        with pytest.raises(RootFindingError, match="reached the float range"):
            solve_monotone_decreasing(lambda t: 1.0 / (1.0 + 1e-310 * t), 0.5)

    @pytest.mark.parametrize("target", [5e-324, 1e-320, 2.0 ** -1022 - 5e-324])
    def test_subnormal_target_is_refused(self, target):
        # a subnormal target has fewer than 53 significant bits, and so has
        # the curve near it; 2**-1022, the smallest normal float, is solved
        with pytest.raises(RootFindingError, match="subnormal"):
            solve_monotone_decreasing(lambda t: 1.0 / (1.0 + t), target)
        root = solve_monotone_decreasing(lambda t: 1.0 / (1.0 + t), 2.0 ** -1022)
        assert math.isclose(root, 2.0 ** 1022, rel_tol=1e-11)
