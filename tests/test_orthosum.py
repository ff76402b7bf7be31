"""orthosum: recurrences, Fejer-type sums, the OPUC generating function."""

import math

import mpmath
import numpy as np
import pytest

from postrig import cosine_poly, orthosum, qk_sequence, seqkit
from postrig.errors import ParameterDomainError
from postrig.orthosum import (SeriesCoefficients, _chebyshev_table, _gegenbauer_table,
                              _jacobi_table, chebyshev_qk_sum, gegenbauer_fejer_sum,
                              gegenbauer_normalized_sum, jacobi_sum_check, opuc_coeffs,
                              opuc_cumulative_positive,
                              opuc_log_route_cumulative,
                              scan_normalized_gegenbauer)
from postrig.seqkit import _rising_ratios
from conftest import contour_coeffs


def poch_over_factorial(x, k):
    """(x)_k / k! in 30-digit mpmath."""
    with mpmath.workdps(30):
        return float(mpmath.rf(x, k) / mpmath.factorial(k))


class TestRecurrences:
    """The table builders' P_k(x), against closed forms and the
    Gegenbauer-Jacobi relation."""

    def test_chebyshev_T2(self):
        assert _chebyshev_table(2, 0.3)[-1] == pytest.approx(-0.82, abs=1e-15)

    def test_chebyshev_cosine_identity(self):
        for k in (0, 1, 5, 13):
            for theta in (0.2, 1.1, 2.9):
                assert _chebyshev_table(k, math.cos(theta))[-1] == pytest.approx(
                    math.cos(k * theta), abs=1e-12)

    def test_gegenbauer_degree_one(self):
        for lam, x in ((0.3, 0.5), (1.2, -0.7)):
            assert _gegenbauer_table(1, lam, x)[-1] == pytest.approx(2 * lam * x, abs=1e-15)

    def test_gegenbauer_at_one_pochhammer(self):
        # C_k^lam(1) = (2 lam)_k / k!, by the recurrence and by the ratios
        for lam in (0.3, 0.5, 1.2):
            for k in range(51):
                want = poch_over_factorial(2 * lam, k)
                assert _gegenbauer_table(k, lam, 1.0)[-1] == pytest.approx(want, rel=1e-12)
                assert _rising_ratios(k, 2 * lam - 1)[-1] == pytest.approx(want, rel=1e-12)

    def test_gegenbauer_half_is_legendre(self):
        # C_k^{1/2} = Legendre P_k; P_2(x) = (3x^2 - 1)/2
        assert _gegenbauer_table(2, 0.5, 0.4)[-1] == pytest.approx(
            0.5 * (3 * 0.16 - 1), abs=1e-14)

    def test_jacobi_against_gegenbauer(self):
        # C_k^lam(x) = ((2lam)_k / (lam+1/2)_k) P_k^{(lam-1/2, lam-1/2)}(x)
        lam = 0.8
        for k in (0, 1, 2, 5, 9):
            with mpmath.workdps(30):
                scale = float(mpmath.rf(2 * lam, k) / mpmath.rf(lam + 0.5, k))
            got = scale * _jacobi_table(k, lam - 0.5, lam - 0.5, 0.37)[-1]
            assert _gegenbauer_table(k, lam, 0.37)[-1] == pytest.approx(got, rel=1e-12)

    def test_jacobi_value_at_one(self):
        for k in (0, 1, 4, 8):
            want = poch_over_factorial(1.6 + 1, k)
            assert _jacobi_table(k, 1.6, 0.4, 1.0)[-1] == pytest.approx(want, rel=1e-12)

    def test_domains(self):
        xs = np.linspace(-0.9, 0.9, 7)
        for lam, n_max, grid in ((0.0, 10, xs), (-0.3, 10, xs), (0.3, 0, xs),
                                 (0.3, 10, np.append(xs, 1.5)), (0.3, 10, np.append(xs, -1.0)),
                                 (0.3, 10, np.array([]))):
            with pytest.raises(ParameterDomainError):
                scan_normalized_gegenbauer(lam, n_max, grid)


class TestMpmathReferences:
    """Each recurrence and sum against 30-digit mpmath, to 1e-12 relative."""

    POINTS = ((0, 0.3, 0.5), (1, 1.2, -0.7), (7, 0.3, 0.41), (25, 0.05, 0.93),
              (60, 2.5, -0.37), (200, 0.45, 0.12))
    JACOBI = ((0, 1.6, 0.4, 0.3), (1, -0.5, 0.7, -0.8), (6, 1.0, 0.5, 0.2),
              (17, 2.3, -0.6, 0.83), (40, 0.25, 0.25, -0.47))

    @staticmethod
    def geg_mp(k, lam, x):
        return mpmath.gegenbauer(k, mpmath.mpf(lam), mpmath.mpf(x))

    def test_gegenbauer_C(self):
        # the table at a float and at an ndarray x, and the norm C_k^lam(1)
        with mpmath.workdps(30):
            for k, lam, x in self.POINTS:
                want = float(self.geg_mp(k, lam, x))
                assert _gegenbauer_table(k, lam, x)[-1] == pytest.approx(want, rel=1e-12)
                assert _gegenbauer_table(k, lam, np.array([x]))[-1][0] == pytest.approx(
                    want, rel=1e-12)
                assert _rising_ratios(k, 2 * lam - 1)[-1] == pytest.approx(
                    float(self.geg_mp(k, lam, 1)), rel=1e-12)

    def test_jacobi_P(self):
        with mpmath.workdps(30):
            for k, a, b, x in self.JACOBI:
                want = float(mpmath.jacobi(k, mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)))
                assert _jacobi_table(k, a, b, x)[-1] == pytest.approx(want, rel=1e-12)

    def test_fejer_sum(self):
        with mpmath.workdps(30):
            for n, lam, x in self.POINTS:
                want = float(mpmath.fsum(self.geg_mp(k, lam, x) for k in range(n + 1)))
                assert gegenbauer_fejer_sum(n, lam, x) == pytest.approx(want, rel=1e-12)

    def test_normalized_sum(self):
        a = [1.0 / (k + 1) ** 0.5 for k in range(201)]
        with mpmath.workdps(30):
            for n, lam, x in self.POINTS:
                want = float(mpmath.fsum(
                    mpmath.mpf(a[k]) * self.geg_mp(k, lam, x) / self.geg_mp(k, lam, 1)
                    for k in range(n + 1)))
                assert gegenbauer_normalized_sum(a, n, lam, x) == pytest.approx(want, rel=1e-12)

    def test_jacobi_sum_check(self):
        cases = ((0, 0.5, 1.0, 1.0, 0.5, 0.3, 1.2), (5, 0.75, 1.0, 1.0, 0.5, -0.4, 2.5),
                 (12, 1.5, 1.0, 2.0, 1.0, 0.9, 0.3), (20, 0.2, 2.0, 0.6, 0.1, -0.95, 5.9))
        with mpmath.workdps(30):
            for n, lam_p, delta, a, b, x, ang in cases:
                w = [mpmath.rf(1 + mpmath.mpf(lam_p), k) / mpmath.rf(1 + mpmath.mpf(delta), k)
                     for k in range(n + 1)]
                z = mpmath.expj(mpmath.mpf(ang))
                want = float(abs(mpmath.fsum(
                    w[n - k] * w[k] * mpmath.jacobi(k, a, b, mpmath.mpf(x))
                    / mpmath.jacobi(k, a, b, 1) * z ** k for k in range(n + 1))))
                got = jacobi_sum_check(n, lam_p, delta, a, b, x, ang)
                assert got == pytest.approx(want, rel=1e-12)


class TestChebyshevPullback:
    def test_matches_cosine_sum(self):
        for n in (5, 20, 100):
            seq = qk_sequence(n, 0.2, 0.4, 0.3, 0.7)
            for theta in np.linspace(0.05, math.pi - 0.05, 9):
                via_t = chebyshev_qk_sum(n, 0.2, 0.4, 0.3, 0.7, math.cos(theta))
                direct = cosine_poly(seq.values[0], seq.values[1:]).value(theta)
                assert via_t == pytest.approx(direct, abs=1e-12)

    def test_n1_positive(self):
        for t in np.linspace(-0.99, 0.99, 21):
            assert chebyshev_qk_sum(1, 0, 0, 1, 0, t) == pytest.approx(1 + t, abs=1e-14)

    def test_figure_params_positive_grid(self):
        ts = np.linspace(-0.999, 0.999, 1001)
        vals = [chebyshev_qk_sum(40, 0.2, 0.4, 0.3, 0.7, float(t)) for t in ts]
        assert min(vals) > 0


class TestGegenbauerSums:
    def test_fejer_n1(self):
        for x in (-0.9, 0.0, 0.7):
            assert gegenbauer_fejer_sum(1, 0.5, x) == pytest.approx(1 + x, abs=1e-14)

    def test_fejer_positive_in_range(self):
        xs = np.linspace(-0.999, 0.999, 1001)
        for lam in (0.1, 0.3, 0.5):
            for n in (5, 17, 50):
                vals = [gegenbauer_fejer_sum(n, lam, float(x)) for x in xs[::10]]
                assert min(vals) > 0, (lam, n)

    def test_outside_fejer_range_goes_negative(self):
        # lam = 2 exceeds the 1/2 threshold; the sum does dip below zero
        xs = np.linspace(-0.999, 0.999, 2001)
        m = min(gegenbauer_fejer_sum(6, 2.0, float(x)) for x in xs)
        assert m < 0  # recorded: no positivity claim holds out here

    def test_normalized_all_ones_above_threshold(self):
        xs = np.linspace(-0.999, 0.999, 501)
        ones = [1.0] * 51
        for n in (10, 30, 50):
            vals = [gegenbauer_normalized_sum(ones, n, 0.25, float(x)) for x in xs]
            assert min(vals) > 0

    def test_scan_below_threshold_finds_negative(self):
        xs = np.cos(np.linspace(1e-4, math.pi - 1e-4, 4001))
        hit = scan_normalized_gegenbauer(0.15, 400, xs)
        assert hit is not None
        n, x, value = hit
        assert n <= 400 and value < 0
        # re-evaluate through the summation API
        assert gegenbauer_normalized_sum([1.0] * (n + 1), n, 0.15, x) < 0

    def test_scan_above_threshold_clean(self):
        xs = np.cos(np.linspace(1e-3, math.pi - 1e-3, 801))
        assert scan_normalized_gegenbauer(0.25, 50, xs) is None

    def test_taper_compliant_weights_positive_small_lambda(self):
        from postrig import ck_sequence
        a = ck_sequence(25, 0.35, 2.0, 1.0).pair_values()
        xs = np.linspace(-0.999, 0.999, 401)
        vals = [gegenbauer_normalized_sum(a, 25, 0.05, float(x)) for x in xs]
        assert min(vals) > 0


class TestOpucCoefficients:
    def test_b0_omega0_all_ones(self):
        out = opuc_coeffs(0.0, 0.0, 10)
        assert out.coeffs == tuple([1.0] * 11)

    def test_omega_one_binomial_identity(self):
        # (1-z)^-2(b+1): F_k = (2b+2)_k / k!
        b = 0.7
        out = opuc_coeffs(b, 1.0, 12)
        for k, got in enumerate(out.coeffs):
            assert got == pytest.approx(poch_over_factorial(2 * b + 2, k), rel=1e-12)

    def test_contour_oracle(self):
        b, omega = 0.5, 0.3
        out = opuc_coeffs(b, omega, 50)
        fn = lambda z: (1 - omega * z) ** -(b + 1) * (1 - z) ** -(b + 1)
        oracle = contour_coeffs(fn, 50)
        assert np.max(np.abs(np.asarray(out.coeffs) - oracle)) < 1e-10

    def test_quadratic_factorization_identity(self):
        # coefficients of (1 - (omega+1) z + omega z^2)^-(b+1) by the
        # J.C.P. Miller recurrence must match the two-factor Cauchy product
        b, omega, N = 0.8, -0.6, 100
        s = b + 1.0
        p, q = omega + 1.0, -omega
        c = np.empty(N + 1)
        c[0] = 1.0
        for n in range(1, N + 1):
            acc = p * (n - 1 + s) * c[n - 1]
            if n >= 2:
                acc += q * (n - 2 + 2 * s) * c[n - 2]
            c[n] = acc / n
        got = np.asarray(opuc_coeffs(b, omega, N).coeffs)
        assert np.max(np.abs(got - c) / np.maximum(1.0, np.abs(c))) < 1e-10

    def test_flushing_subnormal_factors_moves_no_coefficient(self):
        # at omega = -0.6 the factor omega^m (b+1)_m/m! is subnormal for
        # hundreds of m below N; flushed or not, F is the same to the bit
        b, omega, N = 0.5, -0.6, 2000
        fa = np.fromiter(seqkit._rising_ratios(N, b, 0.0, omega), np.float64, N + 1)
        fb = np.fromiter(seqkit._rising_ratios(N, b), np.float64, N + 1)
        tiny = np.finfo(np.float64).tiny
        assert np.count_nonzero((fa != 0.0) & (np.abs(fa) < tiny)) > 500
        want = np.convolve(fa, fb)[: N + 1]
        got = np.asarray(opuc_coeffs(b, omega, N).coeffs)
        assert got.tobytes() == want.tobytes()

    def test_tail_bound_nonnegative(self):
        out = opuc_coeffs(0.5, 0.3, 20)
        assert out.tail_bound >= 0

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            opuc_coeffs(-1.0, 0.5, 5)


class TestOpucPositivity:
    def test_b0_omega0_counts(self):
        rep = opuc_cumulative_positive(0.0, 0.0, 10)
        assert rep.satisfied
        assert rep.partial_sums == tuple(float(n + 1) for n in range(11))

    def test_acceptance_grid(self):
        for b in (-0.49, -0.25, 0.0, 1.0, 3.0):
            for omega in (-0.99, -0.5, 0.0, 0.5, 0.99):
                rep = opuc_cumulative_positive(b, omega, 200)
                assert rep.satisfied, (b, omega, rep.margin)
                assert rep.margin > 0

    def test_routes_agree(self):
        for b, omega in ((-0.4, 0.7), (0.5, 0.3), (2.0, -0.8)):
            cum = np.cumsum(np.asarray(opuc_coeffs(b, omega, 100).coeffs))
            psi = opuc_log_route_cumulative(b, omega, 100)
            rel = np.max(np.abs(cum - psi) / np.maximum(1.0, np.abs(psi)))
            assert rel < 1e-13

    def test_partial_sums_are_route_two(self):
        for b, omega, N in ((-0.49, -0.99, 2000), (3.0, 0.5, 200), (0.5, 0.3, 0)):
            rep = opuc_cumulative_positive(b, omega, N)
            want = opuc_log_route_cumulative(b, omega, N)
            assert np.array(rep.partial_sums).tobytes() == want.tobytes()

    def test_partial_sums_against_mpmath_where_route_one_cancels(self):
        # route one is 4.1e-9 relative off at n = 1846 here
        N = 2000
        rep = opuc_cumulative_positive(3.0, -0.99, N)
        indices = (0, 1, 500, 1846, N)
        for n, want in zip(indices, _mp_cumulative(3.0, -0.99, N, indices)):
            assert abs(rep.partial_sums[n] - want) <= 1e-13 * want, n

    def test_weighted_with_taper_compliant_coefficients(self):
        # Abel reduction: positive cumulative sums + admissible weights
        from postrig import ck_sequence
        a = ck_sequence(20, 0.35, 2.0, 1.0).pair_values()
        F = np.asarray(opuc_coeffs(0.5, 0.3, 20).coeffs)
        weighted = float(np.dot(np.asarray(a)[:21], F))
        assert weighted > 0
        rep = opuc_cumulative_positive(0.5, 0.3, 20)
        assert rep.satisfied

    def test_nan_is_a_violation(self, monkeypatch):
        # the criteria's verdict policy: a NaN cumulative sum proves nothing
        def log_route(b, omega, N):
            psi = opuc_log_route_cumulative(b, omega, N)
            psi[3] = math.nan
            return psi
        monkeypatch.setattr(orthosum, "opuc_log_route_cumulative", log_route)
        rep = opuc_cumulative_positive(0.0, 0.0, 10)
        assert not rep.satisfied
        assert rep.first_violation_index == 3
        assert math.isnan(rep.margin)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            opuc_cumulative_positive(-0.5, 0.3, 10)
        with pytest.raises(ParameterDomainError):
            opuc_cumulative_positive(0.5, 1.0, 10)


def _dot_product_route(b, omega, N):
    """The log route as one dot product per n: n psi_n = sum_m g'_m psi_{n-m}."""
    gp = np.empty(N + 1)
    pw = 1.0
    for m in range(1, N + 1):
        pw *= omega
        gp[m] = (b + 2.0) + (b + 1.0) * pw
    psi = np.empty(N + 1)
    psi[0] = 1.0
    for n in range(1, N + 1):
        psi[n] = float(np.dot(gp[1:n + 1], psi[n - 1::-1])) / n
    return psi


CRITERION_8_B = (-0.49, -0.25, 0.0, 1.0, 3.0)
CRITERION_8_OMEGA = (-0.99, -0.5, 0.0, 0.5, 0.99)


def _mp_cumulative(b, omega, N, indices):
    """The cumulative sums at `indices` in 40 digits: the coefficients of
    (1 - omega z)^-(b+1) (1 - z)^-(b+2)."""
    with mpmath.workdps(40):
        bm, om = mpmath.mpf(b), mpmath.mpf(omega)
        fa, fb = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for m in range(N):
            fa.append(fa[-1] * (bm + 1 + m) / (m + 1) * om)
            fb.append(fb[-1] * (bm + 2 + m) / (m + 1))
        return [mpmath.fsum(fa[j] * fb[n - j] for j in range(n + 1)) for n in indices]


class TestOpucLogRoute:
    @pytest.mark.parametrize("b", CRITERION_8_B)
    @pytest.mark.parametrize("omega", CRITERION_8_OMEGA)
    def test_matches_the_dot_product_recurrence(self, b, omega):
        for N in (0, 1, 2, 200, 2000):
            got = opuc_log_route_cumulative(b, omega, N)
            want = _dot_product_route(b, omega, N)
            assert np.max(np.abs(got - want) / want) <= 1e-13, N

    @pytest.mark.parametrize("b", CRITERION_8_B)
    @pytest.mark.parametrize("omega", CRITERION_8_OMEGA)
    def test_positive(self, b, omega):
        assert (opuc_log_route_cumulative(b, omega, 2000) > 0).all()

    @pytest.mark.parametrize("N", [0, 1, 200])
    def test_writable_float64_of_length_n_plus_one(self, N):
        psi = opuc_log_route_cumulative(0.5, 0.3, N)
        assert psi.dtype == np.float64
        assert psi.shape == (N + 1,)
        assert psi.flags.writeable

    @pytest.mark.parametrize("b, omega", [(-0.49, -0.99), (-0.49, 0.99),
                                          (3.0, -0.99), (3.0, 0.99)])
    def test_against_mpmath(self, b, omega):
        N = 2000
        psi = opuc_log_route_cumulative(b, omega, N)
        for n, want in zip((0, 1, N), _mp_cumulative(b, omega, N, (0, 1, N))):
            assert abs(psi[n] - want) <= 1e-13 * want, n

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            opuc_log_route_cumulative(0.5, 0.3, -1)


class TestJacobiSumCheck:
    def test_n0_is_one(self):
        assert jacobi_sum_check(0, 0.5, 1.0, 1.0, 0.5, 0.3, 1.2) == pytest.approx(1.0)

    def test_validated_regime_nonvanishing(self):
        # delta = 1, 0 <= lam <= a + b, a >= b: scan stays away from zero
        a, b = 1.0, 0.5
        angles = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        smallest = math.inf
        for lam in (0.0, 0.75, 1.5):
            for n in (1, 5, 12, 20):
                for x in np.linspace(-1.0, 1.0, 9):
                    for ang in angles[::4]:
                        smallest = min(smallest, jacobi_sum_check(
                            n, lam, 1.0, a, b, float(x), float(ang)))
        assert smallest > 0

    def test_exploratory_delta_two_recorded(self):
        # outside the cited regime: magnitude only, no positivity assertion
        val = jacobi_sum_check(8, 0.75, 2.0, 1.0, 0.5, 0.2, 0.9)
        assert math.isfinite(val) and val >= 0


def test_series_coefficients_validation():
    with pytest.raises(ParameterDomainError):
        SeriesCoefficients((math.nan,), 0)
    with pytest.raises(ParameterDomainError):
        SeriesCoefficients(np.array([1.0, math.inf]), 1)
    with pytest.raises(ParameterDomainError):
        SeriesCoefficients(np.ones((2, 2)), 3)
    with pytest.raises(ParameterDomainError):
        SeriesCoefficients((1.0,), 0, tail_bound=-1.0)


def test_series_coefficients_store_python_floats():
    out = SeriesCoefficients(np.array([1.0, 0.5]), 1)
    assert out.coeffs == (1.0, 0.5)
    assert all(type(v) is float for v in out.coeffs)
