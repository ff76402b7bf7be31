"""certify: Lipschitz bounds, the certification engine, find_min, zero brackets."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postrig import (CertifyOptions, PositivityReport, TrigPolynomial, bracket_zeros,
                     certify_positive, cosine_poly, find_min, lipschitz_bound,
                     koumandos_bk, qk_sequence, shifted_poly, sine_poly)
from postrig.certify import (CERTIFIED, INCONCLUSIVE, REFUTED, coefficient_mass,
                             curvature_bound, derivative_poly, roundoff_bound,
                             second_derivative_value, vanishes_structurally)
from postrig.kernels import chirp_cheaper
from postrig.errors import ParameterDomainError
from conftest import naive_terms

PI = math.pi


def fig1_polys(n):
    seq = qk_sequence(n, 0.2, 0.4, 0.3, 0.7)
    return (sine_poly(seq.values[1:]),
            cosine_poly(seq.values[0], seq.values[1:]))


class TestLipschitz:
    def test_sine_example(self):
        assert lipschitz_bound(sine_poly([1.0, 0.5])) == pytest.approx(2.0, abs=0)

    def test_constant_poly(self):
        assert lipschitz_bound(cosine_poly(2.0, [])) == 0.0

    def test_dominates_sampled_derivative(self):
        s40, _ = fig1_polys(40)
        L = lipschitz_bound(s40)
        ths = np.linspace(0.0, 2 * PI, 10_000)
        deriv = np.array([s40.derivative_value(t) for t in ths[::7]])
        assert np.max(np.abs(deriv)) <= L


class TestArrayView:
    """Bounds and derivative values from the (nu, c) array view against the
    term-by-term fsum definitions."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           st.lists(st.floats(-5, 5), max_size=40), st.floats(-3, 3),
           st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.sampled_from([1, 2]),
           st.floats(-7.0, 7.0))
    def test_matches_termwise_fsum(self, cc, sc, a0, shift, stride, t):
        poly = TrigPolynomial(a0, tuple(cc), tuple(sc), shift, stride)
        terms = naive_terms(poly)

        def fsum(f):
            return math.fsum(f(kind, nu, c) for kind, nu, c in terms)

        def close(got, want, scale):
            assert abs(got - want) <= 1e-14 * (scale + 1e-300)

        L = fsum(lambda k, nu, c: nu * abs(c))
        L2 = fsum(lambda k, nu, c: nu * nu * abs(c))
        close(lipschitz_bound(poly), L, L)
        close(curvature_bound(poly), L2, L2)
        mass = 0.5 * abs(a0) + fsum(lambda k, nu, c: abs(c))
        close(coefficient_mass(poly), mass, mass)
        d1 = fsum(lambda k, nu, c: -c * nu * math.sin(nu * t) if k == "cos"
                  else c * nu * math.cos(nu * t))
        d2 = fsum(lambda k, nu, c: -c * nu * nu * (math.cos(nu * t) if k == "cos"
                                                    else math.sin(nu * t)))
        close(poly.derivative_value(t), d1, L)
        close(second_derivative_value(poly, t), d2, L2)
        assert list(poly.frequencies("cos")) == [nu for k, nu, _ in terms if k == "cos"]
        deriv = derivative_poly(poly)
        new_cos = [nu * c for k, nu, c in terms if k == "sin"]
        new_sin = [-nu * c for k, nu, c in terms if k == "cos"]
        if not any(new_cos) and not any(new_sin):
            assert deriv is None
        else:
            assert (deriv.cos_coeffs, deriv.sin_coeffs) == (tuple(new_cos), tuple(new_sin))
            assert (deriv.shift, deriv.stride, deriv.a0) == (shift, stride, 0.0)

    def test_view_is_read_only(self):
        poly = sine_poly([1.0, 0.5])
        (nu, c), _ = poly.terms()
        with pytest.raises(ValueError):
            c[0] = 2.0
        with pytest.raises(ValueError):
            nu[0] = 2.0

    def test_rejects_nested_coefficients(self):
        with pytest.raises(ParameterDomainError):
            TrigPolynomial(cos_coeffs=((1.0, 2.0),))


class TestVanishDetection:
    def test_sine_at_multiples_of_pi(self):
        p = sine_poly([1.0, 0.3])
        for t, want in ((0.0, True), (PI, True), (2 * PI, True), (1.0, False)):
            assert vanishes_structurally(p, t) is want

    def test_cosine_never(self):
        p = cosine_poly(2.0, [1.0])
        for t in (0.0, PI, 2 * PI):
            assert not vanishes_structurally(p, t)

    def test_quarter_shift_cosine_at_two_pi(self):
        p = shifted_poly([1.0, 0.5], 0.25, "cosine")
        assert vanishes_structurally(p, 2 * PI)
        assert not vanishes_structurally(p, 0.0)

    def test_half_shift_sine_at_two_pi(self):
        p = shifted_poly([1.0, 0.5], 0.5, "sine")
        assert vanishes_structurally(p, 2 * PI)
        assert vanishes_structurally(p, 0.0)

    def test_double_stride_half_shift_at_pi(self):
        p = shifted_poly([1.0, 0.5], 0.5, "cosine", stride=2)
        assert vanishes_structurally(p, PI)
        assert not vanishes_structurally(p, 0.0)


class TestCertifyPositive:
    def test_single_sine(self):
        rep = certify_positive(sine_poly([1.0]), 0.0, PI)
        assert rep.verdict == CERTIFIED
        assert rep.lower_bound > 0.99 * math.sin(1e-4)
        assert "vanishes" in rep.boundary_notes

    def test_fig1_sine_certified(self):
        s40, _ = fig1_polys(40)
        rep = certify_positive(s40, 0.0, PI)
        assert rep.verdict == CERTIFIED
        assert rep.lower_bound > 0

    def test_two_term_refuted_near_pi(self):
        rep = certify_positive(sine_poly([1.0, 1.0]), 0.0, PI)
        assert rep.verdict == REFUTED
        theta, value = rep.witness
        assert value <= 0
        assert theta > 2 * PI / 3  # sin(t)(1 + 2cos t) < 0 beyond 2pi/3

    def test_interior_dip_refuted(self):
        # cos sum dipping below zero mid-interval
        rep = certify_positive(cosine_poly(0.2, [1.0]), 0.0, PI)
        assert rep.verdict == REFUTED
        theta, value = rep.witness
        assert value <= 0
        assert 0 < theta <= PI

    def test_witness_reevaluates_nonpositive(self):
        rep = certify_positive(sine_poly([1.0, 1.0]), 0.0, PI)
        poly = sine_poly([1.0, 1.0])
        assert poly.value(rep.witness[0]) <= 0
        assert rep.witness[0] >= 0.0 and rep.witness[0] <= PI

    def test_soundness_fine_rescan(self):
        for n in (20, 40):
            for poly in fig1_polys(n):
                rep = certify_positive(poly, 0.0, PI)
                assert rep.verdict == CERTIFIED
                lo = 1e-4 if vanishes_structurally(poly, 0.0) else 0.0
                hi = PI - (1e-4 if vanishes_structurally(poly, PI) else 0.0)
                xs = np.linspace(lo, hi, 10 * 4096)
                assert poly.values(xs).min() >= rep.lower_bound

    def test_lower_bound_below_grid_min(self):
        s20, _ = fig1_polys(20)
        rep = certify_positive(s20, 0.0, PI)
        xs = np.linspace(1e-4, PI - 1e-4, rep.grid_points)
        assert rep.lower_bound <= s20.values(xs).min()

    def test_inconclusive_at_depth_zero(self):
        s40, _ = fig1_polys(40)
        rep = certify_positive(s40, 0.0, PI,
                               CertifyOptions(grid0=64, max_depth=0))
        assert rep.verdict == INCONCLUSIVE
        assert rep.lower_bound is None

    def test_eps_too_large(self):
        with pytest.raises(ParameterDomainError):
            certify_positive(sine_poly([1.0]), 0.0, 1.0, CertifyOptions(eps=0.3))

    def test_invalid_interval(self):
        with pytest.raises(ParameterDomainError):
            certify_positive(sine_poly([1.0]), 1.0, 1.0)

    def test_belov_slope_reported_at_pi(self):
        # inward slope at pi for a sine sum is the alternating Belov sum
        coeffs = [1.0, 0.4, 0.2]
        rep = certify_positive(sine_poly(coeffs), 0.0, PI)
        belov = sum((-1) ** k * (k + 1) * c for k, c in enumerate(coeffs))
        assert f"{belov:.9g}"[:8] in rep.boundary_notes

    def test_shifted_suite_certifies(self):
        from postrig import ck_sequence
        e = ck_sequence(8, 0.35, 2.0, 1.0).pair_values()
        for shift in (0.0, 0.125, 0.25):
            poly = shifted_poly(e, shift, "cosine")
            rep = certify_positive(poly, 0.0, 2 * PI)
            assert rep.verdict == CERTIFIED, (shift, rep.boundary_notes)
        for shift in (0.25, 0.375, 0.5):
            poly = shifted_poly(e, shift, "sine")
            rep = certify_positive(poly, 0.0, 2 * PI)
            assert rep.verdict == CERTIFIED, (shift, rep.boundary_notes)

    def test_determinism_across_workers(self):
        s40, c40 = fig1_polys(40)
        for poly in (s40, c40):
            reports = [certify_positive(poly, 0.0, PI,
                                        CertifyOptions(workers=w))
                       for w in (1, 4, 8)]
            assert reports[0] == reports[1] == reports[2]
            payloads = {json.dumps(r.to_dict(), sort_keys=True) for r in reports}
            assert len(payloads) == 1

    def test_fejer_jackson_gronwall_even_n_not_refuted(self):
        # sum_{k<=8} sin(k t)/k > 0 on (0, pi) but touches 0 at pi to third
        # order; samples there are pure roundoff and are no witness
        poly = sine_poly([1.0 / k for k in range(1, 9)])
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict != REFUTED, rep.witness

    def test_witness_lies_below_roundoff_bound(self):
        for poly in (sine_poly([1.0, 1.0]), cosine_poly(0.2, [1.0])):
            rep = certify_positive(poly, 0.0, PI)
            assert rep.verdict == REFUTED
            assert rep.witness[1] < -roundoff_bound(poly)

    def test_determinism_across_workers_on_chirp_grids(self):
        # degree 600: both the initial grid and the refinement levels run
        # through the chirp-z grid kernel, and the thread split comes after
        b = koumandos_bk(600, 0.5).values
        poly = cosine_poly(2.0 * b[0], b[1:])
        assert chirp_cheaper(600, np.arange(4096))
        reports = [certify_positive(poly, 0.0, PI, CertifyOptions(workers=w))
                   for w in (1, 2, 3)]
        assert reports[0].verdict == CERTIFIED
        assert reports[0] == reports[1] == reports[2]

    def test_report_roundtrip(self):
        s20, _ = fig1_polys(20)
        rep = certify_positive(s20, 0.0, PI)
        clone = PositivityReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert clone == rep


class TestFindMin:
    def test_sine_on_open_interval(self):
        theta, m = find_min(sine_poly([1.0]), 0.0, PI)
        assert m == pytest.approx(math.sin(1e-4), rel=1e-6)
        assert min(abs(theta - 1e-4), abs(theta - (PI - 1e-4))) < 1e-6

    def test_cosine_min_at_pi(self):
        theta, m = find_min(cosine_poly(0.0, [1.0]), 0.0, PI)
        assert theta == pytest.approx(PI, abs=1e-7)
        assert m == pytest.approx(-1.0, abs=1e-12)

    def test_c30_golden_minimum(self):
        # frozen from a 2e6-point dense-grid oracle scan
        _, c30 = fig1_polys(30)
        theta, m = find_min(c30, 0.0, PI)
        assert m == pytest.approx(0.242148015546, abs=1e-9)
        assert theta == pytest.approx(3.0411811, abs=1e-4)
        assert m > 0

    @pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1e-8}, {"tol": math.nan},
                                    {"tol": math.inf}, {"grid0": 0}, {"grid0": 1}])
    def test_rejects_bad_tol_and_grid(self, kw):
        _, c30 = fig1_polys(30)
        with pytest.raises(ParameterDomainError):
            find_min(c30, 0.0, PI, **kw)

    @pytest.mark.parametrize("tol", [1e-17, 5e-324])
    def test_tol_below_resolution_returns(self, tol):
        # the bracket cannot shrink below an ulp of theta; the search stops there
        _, c30 = fig1_polys(30)
        theta, m = find_min(c30, 0.0, PI, tol=tol)
        assert m == pytest.approx(0.242148015546, abs=1e-9)
        assert theta == pytest.approx(3.0411811, abs=1e-4)


class TestTaperedFamilyThresholds:
    """The tapered-coefficient cosine sums: where positivity really holds.

    With theta = T/(2n) the sums follow J(alpha, d, T) = int_0^1 u^-alpha
    (1-u)^d cos(Tu) du, d = b - c, so the threshold that holds is alpha*(d),
    where min over T of J reaches 0 (conftest.alpha_star).  alpha*(0) = alpha0,
    alpha*(1) = 0, and for 0 < d < 1 alpha*(d) lies above alpha0'(d), which
    only forces J(., d, 3pi/2) = 0.  Acceptance criterion 7 certifies the
    tapered families just above alpha*(d); below it, at alpha0'(0.5) + 0.01,
    the engine refutes and the witness re-verifies by plain fsum arithmetic.
    """

    def test_alpha_star_oracle(self):
        from conftest import alpha_star, taper_integral
        from postrig import alpha0, alpha0_prime
        a0, T0 = alpha_star(0.0)
        assert abs(a0 - alpha0().value) <= 1e-9
        assert T0 == pytest.approx(1.5 * PI, abs=1e-9)
        assert alpha_star(0.25)[0] == pytest.approx(0.2097748, abs=1e-6)
        assert alpha_star(0.5)[0] == pytest.approx(0.1275621, abs=1e-6)
        a1, T1 = alpha_star(1.0)
        assert abs(a1) <= 1e-12 and T1 == pytest.approx(2 * PI, abs=1e-9)
        # alpha0'(d) zeroes J at 3pi/2, but J is negative at its minimum
        for d in (0.25, 0.5):
            ap = alpha0_prime(d).value
            assert abs(taper_integral(ap, d, 1.5 * PI)) <= 1e-8
            assert taper_integral(ap, d, alpha_star(d)[1]) < 0

    def test_rigorous_regime_certifies(self):
        from postrig import alpha0, ck_sequence
        a0 = alpha0().value
        for d in (0.0, 0.25, 0.5, 1.0):
            for n in (8, 20, 40):
                seq = ck_sequence(n, a0 + 0.01, 1.0 + d, 1.0)
                rep = certify_positive(
                    cosine_poly(2 * seq.values[0], seq.values[1:]), 0.0, PI,
                    CertifyOptions(max_depth=14))
                assert rep.verdict == CERTIFIED, (d, n, rep.boundary_notes)

    def test_below_alpha0_counterexample_is_real(self):
        from postrig import alpha0_prime, ck_sequence
        alpha = alpha0_prime(0.5).value + 0.01
        seq = ck_sequence(20, alpha, 1.5, 1.0)
        poly = cosine_poly(2 * seq.values[0], seq.values[1:])
        rep = certify_positive(poly, 0.0, PI, CertifyOptions(max_depth=14))
        assert rep.verdict == REFUTED
        theta, value = rep.witness
        naive = math.fsum(
            [seq.values[0]] + [seq.values[k] * math.cos(k * theta)
                               for k in range(1, len(seq.values))])
        assert naive < -0.05
        assert value == pytest.approx(naive, abs=1e-10)


def _reference_brackets(kind, coeffs, lo, hi, grid):
    """bracket_zeros' scan as a loop over the grid, one nudge at a time."""
    a = [float(v) for v in coeffs]
    if kind == "p":
        poly = TrigPolynomial(a0=2.0 * a[-1], cos_coeffs=tuple(reversed(a[:-1])))
    else:
        poly = TrigPolynomial(sin_coeffs=tuple(reversed(a)))
    xs = np.linspace(lo, hi, grid + 1)
    vals = poly.values(xs)
    h = (hi - lo) / grid
    for i in np.nonzero(vals == 0.0)[0]:
        xs[i] += -1e-6 * h if i == grid else 1e-6 * h
        vals[i] = poly.value(float(xs[i]))
    out = []
    for i in range(grid):
        if vals[i] * vals[i + 1] < 0.0:
            out.append((float(xs[i]), float(xs[i + 1]), 1 if vals[i] > 0 else -1,
                        1 if vals[i + 1] > 0 else -1))
    return tuple(out)


class TestBracketZeros:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        a = np.sort(rng.uniform(0.1, 2.0, n + 1))[::-1]
        a[0] += 0.5
        kind = ("p", "q")[seed % 2]
        # q vanishes exactly at 0: a left or right endpoint sample of 0.0
        lo, hi = ((0.0, 2 * PI), (-PI, 0.0), (0.3, 5.0))[seed % 3]
        grid = 16 * (n + 1) + int(rng.integers(0, 50))
        got = bracket_zeros(kind, a, lo, hi, grid)
        assert got.brackets == _reference_brackets(kind, a, lo, hi, grid)
        assert got.brackets

    def test_exact_zero_sample_is_nudged(self):
        # q is odd, so it vanishes exactly at the grid point 0.0 of this
        # grid; only the nudge turns that sample into a bracket around 0
        a = [3.0, 2.0, 1.5, 1.0]
        lo, hi, grid = -PI, PI, 64
        assert np.linspace(lo, hi, grid + 1)[grid // 2] == 0.0
        got = bracket_zeros("q", a, lo, hi, grid)
        assert got.brackets == _reference_brackets("q", a, lo, hi, grid)
        assert any(b[0] < 0.0 < b[1] for b in got.brackets)

    def test_constant_p_has_no_zeros(self):
        out = bracket_zeros("p", [1.0], 0.0, 2 * PI, 512)
        assert out.brackets == ()

    def test_single_sine_q(self):
        out = bracket_zeros("q", [1.0], 0.0, 2 * PI, 512)
        assert len(out.brackets) == 1
        lo, hi, s_lo, s_hi = out.brackets[0]
        assert lo <= PI <= hi  # float(pi) can land exactly on a grid point
        assert s_lo * s_hi < 0

    def test_p_two_coefficients(self):
        out = bracket_zeros("p", [2.0, 1.0], 0.0, 2 * PI, 512)
        assert len(out.brackets) == 2
        assert out.brackets[0][0] < 2 * PI / 3 < out.brackets[0][1]
        assert out.brackets[1][0] < 4 * PI / 3 < out.brackets[1][1]

    def test_brackets_sorted_disjoint(self):
        out = bracket_zeros("q", [3.0, 2.0, 1.5, 1.0], 0.0, 2 * PI, 1024)
        spans = out.brackets
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    def test_ordering_violation(self):
        with pytest.raises(ParameterDomainError):
            bracket_zeros("p", [1.0, 2.0], 0.0, 2 * PI, 512)

    def test_undersampled_grid(self):
        with pytest.raises(ParameterDomainError):
            bracket_zeros("p", [9, 8, 7, 6, 5, 4, 3, 2, 1.5, 1.2, 1.0],
                          0.0, 2 * PI, 32)
