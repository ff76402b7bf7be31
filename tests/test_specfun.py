"""specfun: Gamma, 2F3, quadrature, Brent, Bessel, and the named constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postrig import (K_closed, P_closed, alpha0, alpha0_prime, bessel_j,
                     bessel_zero, brent_root, expansion_fit, gamma_fn, h_corr,
                     hyp2f3, lambda_prime, quad_singular)
from postrig.errors import (BracketError, ConvergenceError, ParameterDomainError,
                            PoleError, RootOutOfRangeError)
from postrig.specfun import THREE_PI_OVER_2, _weighted_integral

ALPHA0 = 0.308443779561986  # frozen from the dual-route solve


class TestGamma:
    def test_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_one_minus_alpha0_recurrence(self):
        x = 1 - 0.3084437
        assert gamma_fn(x) == pytest.approx(gamma_fn(x + 1) / x, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 20.0))
    def test_recurrence_property(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)

    def test_recurrence_bulk(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(0.1, 20.0, 1000):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)

    def test_reflection_negative(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-13)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_fn(x)


class TestHyp2f3:
    def test_z_zero(self):
        assert hyp2f3(0.3, 0.7, 0.5, 1.1, 1.7, 0.0) == 1.0

    def test_terminating_a1_zero(self):
        for z in (-3.0, 2.0, 50.0):
            assert hyp2f3(0.0, 1.3, 0.5, 1.1, 1.7, z) == 1.0

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            hyp2f3(0.1, 0.2, -1.0, 0.5, 0.5, 1.0)

    def test_nonconvergence_reported(self):
        with pytest.raises(ConvergenceError):
            hyp2f3(1.0, 1.0, 0.5, 0.5, 0.5, 40.0, max_terms=5)

    def test_zero_matches_alpha0_when_b_equals_c(self):
        # the 2F3 route reduces to the alpha0 equation at d = 0
        val = hyp2f3(0.5 * (1 - ALPHA0), 1 - 0.5 * ALPHA0, 0.5,
                     0.5 * (2 - ALPHA0), 0.5 * (3 - ALPHA0),
                     -9 * math.pi ** 2 / 16)
        assert abs(val) < 1e-8


class TestQuadSingular:
    def test_plain_cosine(self):
        got = quad_singular(np.cos, 0.0, THREE_PI_OVER_2, 1e-13)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_inverse_sqrt(self):
        got = quad_singular(lambda t: t ** -0.5, 0.0, 1.0, 1e-13)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_alpha0_residual(self):
        # at the 7-digit printed constant the residual reflects the truncation
        got = quad_singular(lambda t: np.cos(t) * t ** -0.3084437,
                            0.0, THREE_PI_OVER_2, 1e-13)
        assert abs(got) < 1e-6
        # at the full-precision root it vanishes to the quadrature tolerance
        got = quad_singular(lambda t: np.cos(t) * t ** -ALPHA0,
                            0.0, THREE_PI_OVER_2, 1e-13)
        assert abs(got) < 1e-8

    def test_both_endpoints_singular(self):
        # Beta(1/2, 1/2) = pi; f sees only x, so the 1-t cancellation near 1
        # caps the attainable accuracy below the usual 1e-12
        got = quad_singular(lambda t: (t * (1 - t)) ** -0.5, 0.0, 1.0, 1e-7)
        assert got == pytest.approx(math.pi, abs=1e-7)

    def test_tolerance_self_consistency(self):
        f = lambda t: np.cos(t) * t ** -0.4
        loose = quad_singular(f, 0.0, THREE_PI_OVER_2, 1e-8)
        tight = quad_singular(f, 0.0, THREE_PI_OVER_2, 1e-14)
        assert abs(loose - tight) < 1e-8

    def test_invalid_interval(self):
        with pytest.raises(ParameterDomainError):
            quad_singular(np.cos, 1.0, 1.0)


class TestBrent:
    def test_cosine_root(self):
        got = brent_root(math.cos, 1.0, 2.0, tol=1e-12)
        assert got == pytest.approx(math.pi / 2, abs=1e-11)

    def test_sqrt2(self):
        got = brent_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12)
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_integral_root_is_alpha0(self):
        f = lambda a: quad_singular(lambda t: np.cos(t) * t ** -a,
                                    0.0, THREE_PI_OVER_2, 1e-13)
        got = brent_root(f, 0.2, 0.4, tol=1e-11)
        assert got == pytest.approx(0.3084437, abs=1e-6)

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            brent_root(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_endpoint_root(self):
        assert brent_root(lambda x: x, 0.0, 1.0) == 0.0


class TestAlpha0:
    def test_reference_value_and_residual(self):
        c = alpha0()
        assert c.value == pytest.approx(0.3084437, abs=1e-6)
        assert c.residual <= 1e-8
        assert c.route == "quadrature-root"

    def test_dual_route_agreement(self):
        q = alpha0("quadrature-root")
        h = alpha0("hyp2f3-root")
        assert abs(q.value - h.value) <= 1e-8
        assert h.route == "hyp2f3-root"

    def test_unknown_route(self):
        with pytest.raises(ParameterDomainError):
            alpha0("bogus")


class TestAlpha0Prime:
    def test_d_zero_is_alpha0(self):
        assert alpha0_prime(0.0).value == pytest.approx(alpha0().value, abs=1e-8)

    def test_boundary_d_gives_zero(self):
        c = alpha0_prime(1.0 - ALPHA0)
        assert abs(c.value) <= 1e-6

    def test_golden_d_tenth(self):
        # frozen after dual-route agreement at build time
        c = alpha0_prime(0.1)
        assert c.value == pytest.approx(0.2648826044715211, abs=1e-9)

    def test_routes_agree_on_grid(self):
        for d in (0.0, 0.1, 0.25, 0.5):
            q = alpha0_prime(d, "quadrature-root")
            h = alpha0_prime(d, "hyp2f3-root")
            assert abs(q.value - h.value) <= 1e-8

    def test_monotone_decreasing_in_d(self):
        ds = np.linspace(0.0, 1.0 - ALPHA0, 11)
        roots = [alpha0_prime(float(d)).value for d in ds]
        assert all(x > y for x, y in zip(roots, roots[1:]))

    def test_negative_d_rejected(self):
        with pytest.raises(ParameterDomainError):
            alpha0_prime(-0.1)

    def test_root_out_of_range(self):
        with pytest.raises(RootOutOfRangeError):
            alpha0_prime(4.0)


class TestClosedForms:
    def test_K_at_zero(self):
        assert K_closed(0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_h_vanishes_at_d_zero(self):
        for a in (0.1, 0.3, 0.7):
            assert h_corr(a, 0.0) == 0.0

    def test_h_at_zero_boundary(self):
        assert h_corr(0.0, 1.0 - ALPHA0) == pytest.approx(1.0, abs=1e-6)

    def test_P_reduces_to_K(self):
        for a in np.linspace(0.02, 0.97, 20):
            assert P_closed(float(a), 0.0) == pytest.approx(
                K_closed(float(a)), rel=1e-10, abs=1e-10)

    def test_dual_route_identity(self):
        """quadrature of the weighted integrand = K + h = P, on the grid."""
        for a in (0.1, 0.3, 0.5):
            for d in (0.0, 0.25, 0.5):
                quad = _weighted_integral(a, d, 1e-13)
                assert quad == pytest.approx(K_closed(a) + h_corr(a, d), abs=1e-8)
                assert quad == pytest.approx(P_closed(a, d), abs=1e-8)


class TestExpansionFit:
    def test_reference_constants(self):
        beta0, beta1 = expansion_fit()
        assert beta0.value == pytest.approx(0.4334739, abs=1e-3)
        assert beta1.value == pytest.approx(0.02203153, abs=1e-3)
        assert beta0.route == "expansion-fit"

    def test_constant_term_is_alpha0(self):
        # re-run the fit capturing the constant coefficient
        ds = np.array([0.02 * i for i in range(11)])
        roots = np.array([alpha0_prime(float(d)).value for d in ds])
        coef = np.polynomial.polynomial.polyfit(ds, roots, 3)
        assert coef[0] == pytest.approx(alpha0().value, abs=1e-6)


class TestBessel:
    def test_half_order_closed_form(self):
        for t in (1.0, 2.0, 5.0):
            want = math.sqrt(2.0 / (math.pi * t)) * math.sin(t)
            assert bessel_j(0.5, t) == pytest.approx(want, abs=1e-10)

    def test_zero_arguments(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.5, 0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ParameterDomainError):
            bessel_j(0.5, 31.0)
        with pytest.raises(ParameterDomainError):
            bessel_j(-1.2, 1.0)

    def test_second_zero_of_half_order(self):
        assert bessel_zero(0.5, 2) == pytest.approx(2 * math.pi, abs=1e-8)

    def test_first_zero_of_J0(self):
        assert bessel_zero(0.0, 1) == pytest.approx(2.404825557695773, abs=1e-8)

    def test_zero_index_validated(self):
        with pytest.raises(ParameterDomainError):
            bessel_zero(0.0, 3)


class TestLambdaPrime:
    def test_reference_value(self):
        c = lambda_prime()
        assert c.value == pytest.approx(0.23061297, abs=1e-6)
        assert c.residual <= 1e-8
        assert c.route == "bessel-quadrature-root"

    def test_alpha_hat_relation(self):
        c = lambda_prime()
        assert c.value - 0.5 == pytest.approx(-0.26938703, abs=1e-6)


# ---------------------------------------------------------------------------
# the array contract of quad_singular, bessel_j and bessel_zero

def _reference_quad(f, a, b, tol, max_level=12):
    """Tanh-sinh level by level with one scalar call of f per abscissa: the
    loop quad_singular batches, with the same nodes and stopping rule.
    Returns the estimate, its level, the number of abscissae and the same
    estimate for |f|."""
    halfw = 0.5 * (b - a)
    g = lambda x: float(f(np.array([x]))[0])

    def sample(offset, w):
        nonlocal calls, mass
        lo = a + halfw * offset
        hi = b - halfw * offset
        v = 0.0
        for x in [lo] * (a < lo < b) + [hi] * (a < hi < b and hi > lo):
            fx = g(x)
            v += fx
            mass += w * abs(fx)
            calls += 1
        return v

    mid = g(a + halfw)
    total = 0.5 * math.pi * mid
    mass = 0.5 * math.pi * abs(mid)
    calls = 1
    prev = math.inf
    for level in range(max_level + 1):
        h = 0.5 ** level
        k = 1
        while True:
            t = k * h
            eu = math.exp(-math.pi * math.sinh(t))
            offset = 2.0 * eu / (1.0 + eu)
            if offset < 5e-305:
                break
            w = 0.5 * math.pi * math.cosh(t) * offset * (2.0 - offset)
            total += w * sample(offset, w)
            k += 1 if level == 0 else 2
        est = halfw * h * total
        if level >= 2 and abs(est - prev) <= tol:
            return est, level, calls, halfw * h * mass
        prev = est
    raise AssertionError("reference did not converge")


def _bessel_loop(nu, t):
    """The term-by-term ascending series bessel_j evaluates as one table;
    its first term uses numpy's power, as bessel_j does."""
    if t == 0.0:
        return 1.0 if nu == 0.0 else (0.0 if nu > 0 else math.inf)
    term = float(np.power(0.5 * t, nu)) / gamma_fn(nu + 1.0)
    acc = term
    q = -0.25 * t * t
    small = 0
    for m in range(500):
        term *= q / ((m + 1.0) * (nu + m + 1.0))
        acc += term
        if abs(term) <= 1e-17 * max(abs(acc), 1e-300):
            small += 1
            if small >= 5:
                return acc
        else:
            small = 0
    raise AssertionError("reference series did not converge")


BESSEL_ORDERS = (-0.9, -0.3, 0.0, 0.5, 2.5)


class TestArrayContract:
    @pytest.mark.parametrize("alpha, d", [(-0.5, 0.0), (-0.3, 0.5), (0.0, 0.25),
                                          (ALPHA0, 0.0), (0.5, 0.3), (0.85, 0.0),
                                          (0.85, 0.6)])
    def test_weighted_integrand_against_mpmath(self, alpha, d):
        """t^-a cos t (1 - 2t/3pi)^d on (0, 3pi/2) to 1e-13; the mpmath
        reference substitutes t = u^(1/(1-a)) for a > 0, which removes the
        t^-a singularity that mpmath.quad alone resolves only to ~1e-4 at
        a = 0.85."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        c = 2.0 / (3.0 * math.pi)
        got = quad_singular(lambda t: np.cos(t) * t ** -alpha * (1.0 - c * t) ** d,
                            0.0, THREE_PI_OVER_2, 1e-13)
        p = 1 / (1 - mp.mpf(max(alpha, 0.0)))
        g = lambda t: t ** -alpha * mp.cos(t) * mp.re((1 - 2 * t / (3 * mp.pi)) ** d)
        want = mp.quad(lambda u: p * u ** (p - 1) * g(u ** p),
                       [0, (1.5 * mp.pi) ** (1 / p)])
        assert abs(got - float(want)) <= 1e-13

    @pytest.mark.parametrize("f, a, b, tol", [
        (lambda t: np.cos(t) * t ** -0.4, 0.0, THREE_PI_OVER_2, 1e-13),
        (lambda t: t ** -0.5, 0.0, 1.0, 1e-13),
        (np.log, 0.0, 1.0, 1e-14),
        (np.exp, -1.0, 2.0, 1e-13),
        (lambda t: t ** 0.3 * bessel_j(-0.3, t), 0.0, 5.0, 1e-13),
        # converges only at level 10, past the first batch
        (lambda t: (t * (1 - t)) ** -0.5, 0.0, 1.0, 1e-10),
    ])
    def test_batch_matches_level_by_level_loop(self, f, a, b, tol):
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        """Equal up to summation order: 1e-15 of the integral of |f| while
        the first batch converges; past it the reference adds thousands of
        terms one by one, so the recursive-summation bound, their count times
        2^-53."""
        want, level, count, mass = _reference_quad(f, a, b, tol)
        got = quad_singular(counted, a, b, tol)
        assert len(calls) == max(1, level - 3)
        if level >= 4:
            assert sum(calls) == count
        rel = 1e-15 if level <= 4 else count * 2.0 ** -53
        assert abs(got - want) <= rel * mass

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.5, 3.7), (1.0, 1.0 + 2 ** -40),
                                      (1e-300, 3e-300), (1e6, 1e6 + 1e-3),
                                      (-1e300, 1e300), (0.0, 5e-324)])
    def test_integrand_sees_only_interior_arrays(self, a, b):
        def f(x):
            if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64):
                raise TypeError(f"not a 1-D float64 array: {x!r}")
            if not np.all((a < x) & (x < b)):
                raise ValueError(f"abscissa outside ({a}, {b})")
            return np.ones_like(x)

        got = quad_singular(f, a, b, 1e-6 * (b - a))
        # intervals a few thousand doubles wide lose the nodes that round onto
        # an endpoint, so only three digits are checked; no double lies
        # strictly inside (0, 2^-1074), so there is nothing to sample
        assert got == pytest.approx(b - a if b > 5e-324 else 0.0, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("nu", BESSEL_ORDERS + (-0.27, 7.3))
    def test_bessel_array_equals_scalar_and_loop(self, nu):
        rng = np.random.default_rng(7)
        ts = np.concatenate([np.linspace(0.0, 30.0, 301), rng.uniform(0.0, 30.0, 200),
                             rng.uniform(0.0, 1e-3, 19)])
        got = bessel_j(nu, ts)
        assert got.shape == ts.shape
        assert np.array_equal(got, [bessel_j(nu, float(t)) for t in ts])
        assert np.array_equal(got, [_bessel_loop(nu, float(t)) for t in ts])
        assert isinstance(bessel_j(nu, 1.5), float)
        assert isinstance(bessel_j(nu, np.float64(1.5)), float)
        assert bessel_j(nu, ts.reshape(-1, 4)).shape == (ts.size // 4, 4)

    @pytest.mark.parametrize("nu", BESSEL_ORDERS)
    def test_bessel_against_mpmath(self, nu):
        """Within 1e-13 + 1e-15 I_nu(t) on [0, 30]: the series alternates, so
        cancellation grows its error with the sum of |terms|, I_nu(t) (8e11 at
        t = 30); on the range lambda' uses, t <= 6, that is <= 1.7e-13."""
        mpmath = pytest.importorskip("mpmath")
        ts = np.linspace(0.0, 30.0, 121)[1:]
        got = bessel_j(nu, ts)
        for t, v in zip(ts, got):
            t_mp = mpmath.mpf(float(t))
            want = mpmath.besselj(nu, t_mp)
            tol = 1e-13 + 1e-15 * float(mpmath.besseli(nu, t_mp))
            assert abs(v - float(want)) <= tol, (nu, t)

    def test_bessel_zero_argument_in_arrays(self):
        ts = np.array([0.0, 1.0, 0.0])
        assert bessel_j(0.0, ts)[[0, 2]].tolist() == [1.0, 1.0]
        assert bessel_j(2.5, ts)[[0, 2]].tolist() == [0.0, 0.0]
        assert bessel_j(-0.3, ts)[[0, 2]].tolist() == [math.inf, math.inf]
        assert bessel_j(-0.3, ts)[1] == bessel_j(-0.3, 1.0)

    @pytest.mark.parametrize("ts", [[1.0, 31.0], [-1e-9, 1.0], [2.0, math.nan],
                                    [[0.5], [30.5]]])
    def test_bessel_rejects_any_point_out_of_range(self, ts):
        with pytest.raises(ParameterDomainError):
            bessel_j(0.5, np.array(ts))

    @pytest.mark.parametrize("nu", BESSEL_ORDERS)
    @pytest.mark.parametrize("m", [1, 2])
    def test_bessel_zero_against_mpmath(self, nu, m):
        """mpmath.besseljzero for nu >= 0; below it (which besseljzero does
        not take) the m-th sign change of mpmath.besselj on a 0.01 grid,
        refined by mpmath.findroot."""
        mpmath = pytest.importorskip("mpmath")
        if nu >= 0:
            want = mpmath.besseljzero(nu, m)
        else:
            f = lambda t: mpmath.besselj(nu, t)
            grid = [0.01 * k for k in range(1, 1000)]
            changes = [(x, y) for x, y in zip(grid, grid[1:]) if f(x) * f(y) < 0]
            want = mpmath.findroot(f, changes[m - 1], solver="anderson")
        assert bessel_zero(nu, m) == pytest.approx(float(want), abs=1e-11)
