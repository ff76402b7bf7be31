"""certify: Lipschitz bounds, the certification engine, find_min, zero brackets."""

import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from postrig import (CertifyOptions, PositivityReport, TrigPolynomial, bracket_zeros,
                     certify_positive, ck_sequence, cosine_poly, find_min, lipschitz_bound,
                     koumandos_bk, qk_sequence, shifted_poly, sine_poly)
from postrig.certify import (CERTIFIED, EPS, INCONCLUSIVE, REFUTED, _cell_ends,
                             _hermite_bound, _level0, vanishing_endpoint)
from postrig.trigeval import (coefficient_mass, curvature_bound, fourth_derivative_bound,
                              roundoff_bound, unit_scale)
from postrig.kernels import SUBNORMAL, error_bound, period_lattice
from postrig import certify, trigeval
from postrig.errors import ParameterDomainError
from conftest import naive_terms, naive_trig_value, stride_layout

PI = math.pi


def fig1_polys(n):
    seq = qk_sequence(n, 0.2, 0.4, 0.3, 0.7)
    return (sine_poly(seq.values[1:]),
            cosine_poly(seq.values[0], seq.values[1:]))


class TestLipschitz:
    def test_sine_example(self):
        # 1*1 + 2*0.5 = 2, rounded up by the bound's few ulps
        assert 2.0 <= lipschitz_bound(sine_poly([1.0, 0.5])) <= 2.0 + 8 * math.ulp(2.0)

    def test_constant_poly(self):
        assert lipschitz_bound(cosine_poly(2.0, [])) == 0.0

    def test_dominates_sampled_derivative(self):
        s40, _ = fig1_polys(40)
        L = lipschitz_bound(s40)
        ths = np.linspace(0.0, 2 * PI, 10_000)
        deriv = s40.derivative().values(ths[::7])
        assert np.max(np.abs(deriv)) <= L


class TestArrayView:
    """Bounds from the (nu, c) array view, and f' from `derivative()`,
    against the term-by-term fsum definitions."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           st.lists(st.floats(-5, 5), max_size=40), st.floats(-3, 3),
           st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.sampled_from([1, 2]),
           st.floats(-7.0, 7.0))
    def test_matches_termwise_fsum(self, cc, sc, a0, shift, stride, t):
        poly = stride_layout(a0, cc, sc, shift, stride)
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
        close(poly.derivative().values([t])[0], d1, L)
        assert poly.derivative_value(t) == poly.derivative().value(t)
        assert [list(nu) for nu, _ in poly.terms()] == [
            [nu for k, nu, _ in terms if k == kind] for kind in ("cos", "sin")]

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


def _vanishes(poly, t):
    return vanishing_endpoint(poly, t) is not None


#: cos(m*pi/2) for m mod 4, exactly
_QUARTER_TURN = (1, 0, -1, 0)


def _exact_value(poly, q):
    """The sum at q*pi/2 in Fractions, None when shift*q is no integer (the
    phases are then no multiples of pi/2)."""
    shift = Fraction(poly.shift) * q
    if shift.denominator != 1:
        return None
    k0 = 0 if poly.shift != 0.0 else 1
    value = Fraction(poly.a0) / 2
    for part, coeffs in enumerate((poly.cos_coeffs, poly.sin_coeffs)):
        for j, c in enumerate(coeffs):
            m = (j + k0) * q + int(shift) - part  # sin x = cos(x - pi/2)
            value += Fraction(c) * _QUARTER_TURN[m % 4]
    return value


_DYADIC = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_COEFF = st.one_of(_DYADIC, st.floats(-5, 5))


class TestVanishDetection:
    def test_sine_at_multiples_of_pi(self):
        p = sine_poly([1.0, 0.3])
        for t, want in ((0.0, True), (PI, True), (2 * PI, True), (1.0, False)):
            assert _vanishes(p, t) is want

    def test_cosine_never(self):
        p = cosine_poly(2.0, [1.0])
        for t in (0.0, 2 * PI):
            assert not _vanishes(p, t)

    def test_cosine_cancelling_at_pi_is_exact(self):
        # 1 + cos(pi) = 0 exactly: value, slope and curvature (1 + cos)'' = 1
        assert vanishing_endpoint(cosine_poly(2.0, [1.0]), PI) == (0.0, 1.0)

    def test_quarter_shift_cosine_at_two_pi(self):
        p = shifted_poly([1.0, 0.5], 0.25, "cosine")
        assert _vanishes(p, 2 * PI)
        assert not _vanishes(p, 0.0)

    def test_half_shift_sine_at_two_pi(self):
        p = shifted_poly([1.0, 0.5], 0.5, "sine")
        assert _vanishes(p, 2 * PI)
        assert _vanishes(p, 0.0)

    def test_double_stride_half_shift_at_pi(self):
        p = shifted_poly([1.0, 0.5], 0.5, "cosine", stride=2)
        assert _vanishes(p, PI)
        assert not _vanishes(p, 0.0)

    def test_subnormal_constant(self):
        # a0/2 rounds to 0.0 for a0 = 2^-1074, yet the sum is 2^-1075 > 0
        assert not _vanishes(cosine_poly(2.0 ** -1074), 0.0)
        # a0 = 2^-1073 halves exactly and cancels against cos(pi)*2^-1074
        assert _vanishes(cosine_poly(2.0 ** -1073, [2.0 ** -1074]), PI)

    def test_partial_sums_beyond_float_range(self):
        # the signed terms 1e308, 1e308, -1e308, -1e308 cancel exactly,
        # although their running sum overflows: the engine decides it on the
        # unit-scale copy, where no partial sum does
        for last, vanishes in ((-1e308, True), (-0.5e308, False)):
            poly = cosine_poly(0.0, [-1e308, 1e308, 1e308, last])
            assert _vanishes(unit_scale(poly)[0], PI) == vanishes
            rep = certify_positive(poly, 0.0, PI)
            assert ("right endpoint 3.14159265 vanishes" in rep.boundary_notes) == vanishes

    def test_only_the_rounded_multiple_counts(self):
        # -2 + cos + sin is exactly 0 at 0 with slope 1, so it is negative on
        # (-5e-10, 0): an endpoint near a multiple of pi/2 is not that multiple
        p = TrigPolynomial(-2.0, (1.0,), (1.0,))
        assert vanishing_endpoint(p, 0.0) == (1.0, -1.0)
        for t in (-5e-10, 5e-324, 1e-12):
            assert not _vanishes(p, t)
        s = sine_poly([1.0, 0.3])
        for t in (PI, 2 * PI, -PI, math.radians(360)):
            assert _vanishes(s, t), t
        for t in (math.nextafter(PI, 4.0), math.nextafter(2 * PI, 0.0), PI + 4e-10):
            assert not _vanishes(s, t), t

    def test_inexact_phase_is_sampled(self):
        # shift 0.1 at 2*pi: 0.4 turns of a quarter, no exact factor
        p = shifted_poly([1.0, 0.5], 0.1, "sine")
        assert _exact_value(p, 4) is None
        assert not _vanishes(p, 2 * PI)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_DYADIC, st.floats(-3, 3), st.just(2.0 ** -1074)),
           st.lists(_COEFF, max_size=12), st.lists(_COEFF, max_size=12),
           st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.sampled_from([1, 2]),
           st.sampled_from([None, 0, 1, 2, 3, 4]))
    # subnormal terms: the fsum reference rounds each product, then the sum,
    # and 1e-12 * L2 underflows to 0
    @example(a0=0.0, cc=[], sc=[0.0, 2.2250738585e-313], shift=0.75, stride=1,
             cancel_at=4)
    def test_matches_exact_reference(self, a0, cc, sc, shift, stride, cancel_at):
        assume(a0 != 0.0 or cc or sc)
        poly = stride_layout(a0, cc, sc, shift, stride)
        exact = _exact_value(poly, cancel_at) if cancel_at is not None else None
        if (cc or sc) and exact is not None and float(a0 - 2 * exact) == a0 - 2 * exact:
            # the a0 that cancels the rest exactly at cancel_at*pi/2
            poly = stride_layout(float(a0 - 2 * exact), cc, sc, shift, stride)
        L, L2 = lipschitz_bound(poly), curvature_bound(poly)
        for q in range(5):
            t = q * PI / 2
            exact = _exact_value(poly, q)
            got = vanishing_endpoint(poly, t)
            assert (got is not None) is (exact == 0), (q, exact)
            if got is None:
                continue
            slope, curv = got
            terms = naive_terms(poly)
            d1 = math.fsum(-c * nu * math.sin(nu * t) if k == "cos"
                           else c * nu * math.cos(nu * t) for k, nu, c in terms)
            d2 = math.fsum(-c * nu * nu * (math.cos(nu * t) if k == "cos"
                                           else math.sin(nu * t)) for k, nu, c in terms)
            # the kernel contract, underflow term included
            assert abs(slope - d1) <= error_bound(L, len(terms))
            assert abs(curv - d2) <= error_bound(L2, len(terms))


class TestCertifyPositive:
    def test_single_sine(self):
        # the eps-zone's lower bound is within 1% of sin(EPS) on 4096 points
        rep = certify_positive(sine_poly([1.0]), 0.0, PI, CertifyOptions(grid0=4096))
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
                lo = 1e-4 if _vanishes(poly, 0.0) else 0.0
                hi = PI - (1e-4 if _vanishes(poly, PI) else 0.0)
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

    def test_window_narrower_than_four_eps(self):
        for width in (4 * EPS, 3e-4):
            with pytest.raises(ParameterDomainError):
                certify_positive(cosine_poly(2.0, [1.0]), 1.0, 1.0 + width)

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

    @pytest.mark.parametrize("excess", [2.0 ** -52, 2.0 ** -40])
    def test_roundoff_zero_at_pi_is_not_certified(self, excess):
        # f = 1 + (1 + excess) cos(theta) is -excess at pi: within roundoff of
        # 0 but not 0, so pi is sampled and the eps-zone is not inset
        poly = cosine_poly(2.0, [1.0 + excess])
        assert not _vanishes(poly, PI)
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict != CERTIFIED
        assert "right endpoint 3.14159265 sampled directly" in rep.boundary_notes

    def test_cancelling_zero_just_outside_is_refuted(self):
        # -2 + cos + sin vanishes at 0 with inward slope 1, and is negative on
        # (-5e-10, 0); a 1e-9 window around 0 would inset lo and certify it
        poly = TrigPolynomial(-2.0, (1.0,), (1.0,))
        rep = certify_positive(poly, -5e-10, 1.0)
        assert rep.verdict == REFUTED
        assert rep.witness[0] < 0.0
        assert certify_positive(poly, 0.0, 1.0).verdict == CERTIFIED

    def test_fejer_jackson_gronwall_even_n_not_refuted(self):
        # sum_{k<=8} sin(k t)/k > 0 on (0, pi) but touches 0 at pi to third
        # order; samples there are pure roundoff and are no witness
        poly = sine_poly([1.0 / k for k in range(1, 9)])
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict != REFUTED, rep.witness

    def test_negative_slope_vanishing_endpoint_refuted_by_the_grid(self):
        # Belov's sum fails for the even-length Koumandos sine sum, so its
        # inward slope at pi is negative: pi is sampled, not inset, and the
        # default level 0, 16 points per unit of frequency, holds the witness
        poly = sine_poly(koumandos_bk(86, 0.45).values[1:])
        slope, _ = vanishing_endpoint(poly, PI)
        assert slope > 0.0  # the inward slope is -slope
        rep = certify_positive(poly, 0.0, PI)
        assert (rep.verdict, rep.refinement_depth) == (REFUTED, 0)
        assert rep.grid_points >= 16 * 86
        assert rep.witness[1] < -roundoff_bound(poly)
        assert "right endpoint 3.14159265 vanishes identically; inward slope -" \
            in rep.boundary_notes
        assert "not inset, sampled directly" in rep.boundary_notes

    def test_negative_zone_narrower_than_finest_cell_is_inconclusive(self):
        # f = (1 - cos t) + 4(1 - cos 10t) - 3e-4 sin t vanishes at 0 with
        # inward slope -3e-4; it is negative on (0, ~1.5e-6), down to ~-1.1e-10
        # (five times the roundoff bound), and positive on the rest of (0, pi).
        # The finest cell is pi/4096/2^8 ~ 3e-6 wide, so no sample lands in
        # the zone: no witness, and no certificate either
        poly = TrigPolynomial(10.0, (-1.0,) + (0.0,) * 8 + (-4.0,), (-3e-4,))
        assert vanishing_endpoint(poly, 0.0) == (-3e-4, 401.0)
        assert naive_trig_value(poly, 7.5e-7) < -5 * roundoff_bound(poly)
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == INCONCLUSIVE
        assert rep.refinement_depth == 8
        assert "left endpoint 0 vanishes identically; inward slope -0.0003, " \
            "curvature 401: not inset, sampled directly" in rep.boundary_notes

    def test_witness_lies_below_roundoff_bound(self):
        for poly in (sine_poly([1.0, 1.0]), cosine_poly(0.2, [1.0])):
            rep = certify_positive(poly, 0.0, PI)
            assert rep.verdict == REFUTED
            assert rep.witness[1] < -roundoff_bound(poly)

    def test_report_roundtrip(self):
        s20, _ = fig1_polys(20)
        rep = certify_positive(s20, 0.0, PI)
        clone = PositivityReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert clone == rep


def _koumandos_cosine(n, alpha):
    b = koumandos_bk(n, alpha).values
    return cosine_poly(2.0 * b[0], b[1:])


class TestSecondOrderCells:
    """The cell bound min(f_l, f_r) - L2*w^2/8 and the sums it certifies."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.lists(st.floats(-5, 5), max_size=6), st.floats(-3, 3),
           st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([1, 2]),
           st.floats(-PI, PI), st.floats(-7.0, 0.5))
    def test_curvature_bound_under_cell_minimum(self, cc, sc, a0, shift, stride,
                                                left, log_w):
        poly = stride_layout(a0, cc, sc, shift, stride)
        w = math.exp(log_w)
        fl, fr = poly.values(np.array([left, left + w]))
        bound = min(fl, fr) - curvature_bound(poly) * w * w / 8.0
        cell_min = min(naive_trig_value(poly, t)
                       for t in np.linspace(left, left + w, 129))
        assert bound <= cell_min + roundoff_bound(poly)

    def test_tight_at_a_midpoint_minimum(self):
        # f = 1.001 - cos(theta - c) on [0, pi], with c the midpoint of the
        # level-0 cell [2047 h, 2048 h], h = pi/4096: at the minimum c, f'' =
        # L2 and the second-order bound is exact up to O(w^4); a looser factor
        # than 1/8 would put the lower bound above the minimum, the
        # first-order bound alone 4e-4 below
        c = 2047.5 * PI / 4096
        m, _, _, _, xs, _, _ = _level0(cosine_poly(2.0, [1.0]), 0.0, PI, 4096, 0.0)
        h = 2 * PI / m
        assert (h, xs[2047], xs[2048]) == (PI / 4096, c - h / 2, c + h / 2)
        poly = TrigPolynomial(2.002, (-math.cos(c),), (-math.sin(c),))
        rep = certify_positive(poly, 0.0, PI, CertifyOptions(grid0=4096))
        f_min = naive_trig_value(poly, c)
        assert f_min - 1e-9 <= rep.lower_bound <= f_min

    def test_koumandos_cosine_n8000_certified(self):
        # positive by Koumandos' theorem; certified at the default depth limit
        poly = _koumandos_cosine(8000, 0.4)
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == CERTIFIED
        theta, _ = find_min(poly, 0.0, PI)
        step = PI / 4096 / 2 ** 8  # the finest cell width, h = 2 pi/8192
        naive_min = min(naive_trig_value(poly, theta + k * step) for k in range(-20, 21))
        assert rep.lower_bound <= naive_min

    @pytest.mark.parametrize("poly, note", [
        (_koumandos_cosine(2029, 0.45), "vanishes to second order"),
        (sine_poly(qk_sequence(4000, 0.2, 0.4, 0.3, 0.7).values[1:]), "to first order"),
    ])
    def test_high_degree_certified_endpoint_note_kept(self, poly, note):
        # the cells certify; the eps-zone at the vanishing endpoint is still
        # settled by the weaker argument, and the note says so
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == CERTIFIED
        assert note in rep.boundary_notes

    @staticmethod
    def _record_batches(monkeypatch):
        """A list that records (kind, poly, M or None, points) for every
        values_period batch and every values batch that is not one of its
        direct fallbacks."""
        calls, inside = [], []
        period, values = TrigPolynomial.values_period, TrigPolynomial.values

        def recorded_period(self, M, idx):
            calls.append(("values_period", self, M, np.array(idx)))
            inside.append(1)
            try:
                return period(self, M, idx)
            finally:
                inside.pop()

        def recorded_values(self, theta):
            if not inside:
                calls.append(("values", self, None, np.array(theta, dtype=float)))
            return values(self, theta)

        monkeypatch.setattr(TrigPolynomial, "values_period", recorded_period)
        monkeypatch.setattr(TrigPolynomial, "values", recorded_values)
        return calls

    def test_one_kernel_batch_per_level(self, monkeypatch):
        # level 0: one batch of f on the lattice and f at whi, then one f'
        # batch at the unique lattice ends of its failing cells and f' at whi,
        # the end of the failing partial cell; every deeper level d: one f
        # batch at the midpoints, then one f' batch at the same midpoints,
        # both on the lattice of 8192*2^d points
        poly = _koumandos_cosine(2029, 0.45)
        calls = self._record_batches(monkeypatch)
        rep = certify_positive(poly, 0.0, PI)
        whi = PI - EPS
        assert rep.refinement_depth >= 2
        assert [(c[0], c[1] is poly) for c in calls] == \
            [("values_period", True), ("values", True), ("values_period", False),
             ("values", False)] + [("values_period", True), ("values_period", False)] \
            * rep.refinement_depth
        assert calls[0][2] == 8192 and np.array_equal(calls[0][3], np.arange(4096))
        assert calls[1][3].tolist() == calls[3][3].tolist() == [whi]
        assert calls[2][2] == 8192
        ends = calls[2][3]
        assert 0 < ends.size <= 4096 and (np.diff(ends) > 0).all() and ends[-1] == 4095
        for d, (f_call, g_call) in enumerate(zip(calls[4::2], calls[5::2]), 1):
            assert f_call[2] == g_call[2] == 8192 << d
            assert np.array_equal(f_call[3], g_call[3])
        assert sum(c[3].size for c in calls) == rep.grid_points
        slopes = sum(c[3].size for c in calls if c[1] is not poly)
        assert f"f' sampled at {slopes} points from depth 0" in rep.boundary_notes

    def test_window_ends_take_one_direct_batch(self, monkeypatch):
        # at degree 8000 every level-0 cell of [0.1, pi - 0.1] fails, the two
        # partial cells included: f and then f' are sampled at both window
        # ends, neither of them a lattice point, in one direct batch each
        poly = _koumandos_cosine(8000, 0.4)
        lo, hi = 0.1, PI - 0.1
        m, _, ends, gaps, _, _, _ = _level0(poly, lo, hi, 4096, 0.0)
        assert m == 8748 and gaps[0] > 0 and gaps[1] > 0
        calls = self._record_batches(monkeypatch)
        rep = certify_positive(poly, lo, hi, CertifyOptions(grid0=4096, max_depth=0))
        assert rep.verdict == INCONCLUSIVE
        assert [c[0] for c in calls] == ["values_period", "values"] * 2
        assert calls[1][1] is poly and calls[3][1] is not poly
        assert calls[1][3].tolist() == calls[3][3].tolist() == [lo, hi]
        assert np.array_equal(calls[0][3], np.arange(ends[0] + 1, ends[1]))
        assert np.array_equal(calls[2][3], calls[0][3])
        assert rep.grid_points == 2 * (calls[0][3].size + 2)

    @pytest.mark.parametrize("hi", [PI - 1e-4, PI])
    def test_partial_last_cell_samples_whi(self, hi):
        # the lattice's last point x_J = J h falls short of hi, both as the
        # FFT's point 2 pi J/m and on the float step h; hi itself is then
        # sampled, and f = 2 + cos falls into hi, so the partial cell
        # [x_J, hi], bounded with its own width, holds the minimum
        poly = cosine_poly(4.0, [1.0])
        lo = 1e-4
        m, idx, ends, gaps, xs, vals, _ = _level0(poly, lo, hi, 4096, 0.0)
        h = 2 * PI / m
        assert (m, idx[1], idx[-2], ends) == (8192, 1, 4095, (0, 4096))
        assert gaps[1] == Fraction(hi) - 4095 * Fraction(h) > 0
        assert xs[-2] < xs[-1] == hi and vals[-1] == poly.value(hi)
        two_pi_down = Fraction("6.283185307179586476925286766")
        assert Fraction(hi) * 8192 / 4096 < two_pi_down  # the point 4096 lies past hi
        rep = certify_positive(poly, lo, hi, CertifyOptions(grid0=4096))
        assert rep.verdict == CERTIFIED
        noise = roundoff_bound(poly)
        L2 = curvature_bound(poly)
        assert vals[-1] - L2 * float(gaps[1]) ** 2 / 8 - 2 * noise <= rep.lower_bound
        assert rep.lower_bound <= vals[-1] - noise

    def test_level_zero_noise_holds_the_abscissa_term(self):
        # f = 2 + cos falls into pi, so the partial cell [4095 pi/4096, pi]
        # holds the lower bound, net of the roundoff bound and of the FFT's
        # abscissa term L max(|wlo|, |whi|) 2.38 2^-53
        poly = cosine_poly(4.0, [1.0])
        _, _, _, gaps, _, vals, _ = _level0(poly, 0.0, PI, 4096, 0.0)
        drift = certify._drift(poly, 0.0, PI)
        assert drift == lipschitz_bound(poly) * PI * (2.38 * 2.0 ** -53)
        assert certify._drift(poly, -2.0, 1.0) == \
            lipschitz_bound(poly) * 2.0 * (2.38 * 2.0 ** -53)
        assert gaps[0] == 0
        w = float(gaps[1])
        w = w if Fraction(w) >= gaps[1] else math.nextafter(w, math.inf)
        noise = roundoff_bound(poly) + drift
        rep = certify_positive(poly, 0.0, PI, CertifyOptions(grid0=4096))
        assert rep.lower_bound == vals[-1] - 0.125 * curvature_bound(poly) * w * w - noise

    @pytest.mark.parametrize("lo, hi", [(0.0, PI), (EPS, PI - EPS), (0.0, 2 * PI),
                                        (0.1, PI - 0.1), (-1.0, 1.0), (1.0, 1.3)])
    def test_level_zero_runs_one_fft(self, rng, monkeypatch, lo, hi):
        # one real FFT per scan of every benchmark window and of a window
        # across 0; the direct sums take only the window ends off the
        # lattice, in one batch
        ffts, points = [], []
        period, direct = trigeval.pair_sums_period, trigeval.pair_sums
        monkeypatch.setattr(trigeval, "pair_sums_period",
                            lambda *args: ffts.append(args[1]) or period(*args))
        monkeypatch.setattr(trigeval, "pair_sums",
                            lambda c, x: points.append(np.size(x)) or direct(c, x))
        for poly in (sine_poly(rng.normal(size=400)),
                     shifted_poly(rng.normal(size=300), 0.25, "cosine", 2)):
            del ffts[:], points[:]
            m, _, _, gaps, _, _, _ = _level0(poly, lo, hi, 4096, 0.0)
            off = bool(gaps[0]) + bool(gaps[1])
            assert ffts == [m] and points == [off] * bool(off)

    @pytest.mark.parametrize("n", [20, 400, 4000])
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.3), (1.0, 1.1), (2.0, 2.01)])
    def test_narrow_window_certifies_at_level_zero(self, n, lo, hi):
        # a window that holds few of its lattice's m points takes the long
        # FFT or the direct sums, whichever the cost model finds cheaper,
        # and certifies from its default level 0's lattice points and both
        # ends alone
        poly = _koumandos_cosine(n, 0.5)
        count, _ = certify._level0_size(poly, lo, hi, None)
        assert count == (1024 if n == 20 else 4096)
        m, first, last = period_lattice(lo, hi, count)
        rep = certify_positive(poly, lo, hi)
        assert (rep.verdict, rep.refinement_depth, rep.grid_points) == \
            (CERTIFIED, 0, last - first + 3)
        assert last - first + 1 >= count - 1
        theta, value = find_min(poly, lo, hi)
        assert lo <= theta <= hi and rep.lower_bound <= value

    @staticmethod
    def _record_points(monkeypatch):
        """A list that records (M, j) for every lattice point evaluated."""
        points = []
        period = TrigPolynomial.values_period

        def recorded(self, M, idx):
            points.extend((M, int(j)) for j in idx)
            return period(self, M, idx)

        monkeypatch.setattr(TrigPolynomial, "values_period", recorded)
        return points

    def test_dip_inside_the_partial_cell_never_certifies(self, monkeypatch):
        # f = a - cos(theta - c) with a = 1 - 1e-9 is negative only within
        # ~4.5e-5 of c, the middle of the partial cell (x_J, 3) of the window
        # [0, 3], and positive at both its ends
        m, _, _, gaps, xs, _, _ = _level0(cosine_poly(2.0, [1.0]), 0.0, 3.0, 4096, 0.0)
        h = 2 * PI / m
        assert 2e-4 < gaps[1] < h
        c = 0.5 * (xs[-2] + 3.0)
        a = 1.0 - 1e-9
        poly = TrigPolynomial(2.0 * a, (-math.cos(c),), (-math.sin(c),))
        assert naive_trig_value(poly, c) < 0 < min(naive_trig_value(poly, xs[-2]),
                                                   naive_trig_value(poly, 3.0))
        # the cell is too narrow to take the depth-1 midpoint x_J + h/2, which
        # lies past 3: no sample is taken there
        assert gaps[1] < h / 2
        points = self._record_points(monkeypatch)
        rep = certify_positive(poly, 0.0, 3.0)
        assert rep.verdict == REFUTED and rep.refinement_depth >= 2
        assert xs[-2] < rep.witness[0] < 3.0
        assert max(j * Fraction(2 * PI / M) for M, j in points) < 3
        for opts in (CertifyOptions(max_depth=0), CertifyOptions(max_depth=2)):
            assert certify_positive(poly, 0.0, 3.0, opts).verdict != CERTIFIED

    @pytest.mark.parametrize("share", [0.3, 0.7])
    def test_dip_inside_the_partial_first_cell_never_certifies(self, monkeypatch, share):
        # the mirror at wlo: lo = (1 - share) h puts the first lattice point
        # at h, and the partial first cell (lo, h) of width share*h holds the
        # dip of a - cos(theta - c) at its middle c.  It is bisected at the
        # depth whose new lattice point falls inside it, h/2 at depth 1 for
        # share 0.7 and 3h/4 at depth 2 for share 0.3, and stays whole before
        h = 2 * PI / 8192
        lo = (1.0 - share) * h
        m, idx, ends, gaps, xs, _, _ = _level0(cosine_poly(2.0, [1.0]), lo, PI, 4096, 0.0)
        assert (m, idx[1], ends[0], xs[0]) == (8192, 1, 0, lo)
        assert gaps[0] == Fraction(h) - Fraction(lo)
        c = 0.5 * (lo + h)
        poly = TrigPolynomial(2.0 * (1.0 - 1e-9), (-math.cos(c),), (-math.sin(c),))
        assert naive_trig_value(poly, c) < 0 < min(naive_trig_value(poly, lo),
                                                   naive_trig_value(poly, h))
        points = self._record_points(monkeypatch)
        rep = certify_positive(poly, lo, PI)
        assert rep.verdict == REFUTED and rep.refinement_depth >= 2
        assert lo < rep.witness[0] < h
        assert min(j * Fraction(2 * PI / M) for M, j in points) >= lo
        first_mid = (16384, 1) if share > 0.5 else (32768, 3)
        assert first_mid in points
        if share < 0.5:
            assert (16384, 1) not in points  # h/2 lies before lo: the cell stays whole
        for opts in (CertifyOptions(max_depth=0), CertifyOptions(max_depth=2)):
            assert certify_positive(poly, lo, PI, opts).verdict != CERTIFIED

    def test_lower_bound_is_net_of_roundoff(self):
        poly = cosine_poly(2.0, [])  # f = 1: every cell bound is exactly 1
        rep = certify_positive(poly, 0.0, PI)
        assert rep.lower_bound == 1.0 - roundoff_bound(poly)

    def test_margin_inside_roundoff_never_certifies(self):
        # f = 1 + (1 - 2^-50) cos(theta) > 0, but its minimum 2^-50 at pi is
        # inside the roundoff bound: no proof
        poly = cosine_poly(2.0, [1.0 - 2.0 ** -50])
        assert 2.0 ** -50 <= roundoff_bound(poly)
        rep = certify_positive(poly, 0.0, PI, CertifyOptions(grid0=16, max_depth=2))
        assert rep.verdict == INCONCLUSIVE

    def test_constant_sum_is_decided_at_depth_zero(self):
        # L = 0: no cell bound depends on the cell width, so bisecting cannot
        # help and the initial grid decides; the zero sum is no witness
        poly = cosine_poly(0.0, [0.0])
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == INCONCLUSIVE
        # the 1024 floor: lattice points from 0, the last 1023 pi/1024, and
        # pi itself
        assert (rep.grid_points, rep.refinement_depth) == (1025, 0)
        assert "constant" in rep.boundary_notes


def _hermite_cell(poly, left, w):
    """The Hermite bound of the cell [left, left + w] of poly."""
    xs = np.array([left, left + w])
    deriv = poly.derivative()
    (fl, fr), (gl, gr) = poly.values(xs), deriv.values(xs)
    return float(_hermite_bound(fl, fr, gl, gr, w, fourth_derivative_bound(poly),
                                roundoff_bound(poly), roundoff_bound(deriv)))


def _product_error(a, b):
    """a*b - fl(a*b), exactly, for float arrays whose products neither
    overflow nor underflow (Dekker's two-product)."""
    def halves(v):
        t = 134217729.0 * v  # 2^27 + 1
        hi = t - (t - v)
        return hi, v - hi
    p = a * b
    (ah, al), (bh, bl) = halves(a), halves(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


class TestDrift:
    """certify._drift against the exact distance of every float that
    values_period takes from its lattice point 2 pi j/M."""

    @pytest.mark.parametrize("depth", [0, 1, 3])
    @pytest.mark.parametrize("lo, hi", [(0.0, PI), (1e-4, PI - 1e-4), (0.1, PI - 0.1),
                                        (1.0, 1.3), (2.0, 2.01), (1.2, 8.966370614359173),
                                        (-1.0, 1.0)])
    def test_drift_covers_every_lattice_float(self, lo, hi, depth):
        # every index j of the lattice of M = m*2^depth on the window, the
        # engine's level-0 lattice at depth 0: x = j*h rounded, h = 2 pi/M
        # rounded, lies within _drift/L of 2 pi j/M.  x - 2 pi j/M = (x - j h)
        # + j (h - 2 pi/M), the first term exact by the two-product and the
        # second from 30-digit mpmath; a few points check the split in full
        import mpmath as mp
        poly = cosine_poly(2.0, [1.0, -0.5])
        m, first, last = period_lattice(lo, hi, 4096)
        M = m << depth
        h = 2 * PI / M
        j = np.arange((first - 1) << depth, ((last + 1) << depth) + 1)
        x = j * h
        j, x = j[(x >= lo) & (x <= hi)], x[(x >= lo) & (x <= hi)]
        assert j.size >= 4095 << depth
        with mp.workdps(30):
            delta = float(mp.mpf(h) - 2 * mp.pi / M)
        dist = np.abs(j * delta - _product_error(j.astype(float), np.full(j.size, h)))
        worst = int(np.argmax(dist))
        with mp.workdps(30):
            for i in {0, worst, j.size - 1}:
                exact = abs(mp.mpf(float(x[i])) - 2 * mp.pi * int(j[i]) / M)
                assert float(exact) == pytest.approx(dist[i], rel=1e-6, abs=1e-40)
        allowed = certify._drift(poly, lo, hi) / lipschitz_bound(poly)
        assert dist.max() <= allowed
        # the derivation's 2.37 u max(|lo|, |hi|) is what the floats can reach
        assert dist.max() <= 2.37 * 2.0 ** -53 * max(abs(lo), abs(hi))


@pytest.mark.parametrize("lo, hi", [(0.0, PI), (EPS, PI - EPS), (0.1, PI - 0.1),
                                    (1.0, 1.3), (-1.0, 1.0)])
def test_no_complex_fft(monkeypatch, tmp_path, lo, hi):
    """Every lattice is anchored at 0, so every FFT is a real one: with the
    complex transforms made to raise, the three entry points run on windows
    at and away from 0 and across it, a shifted sum runs on (0, 2 pi), and
    plotdata writes both figures."""
    from postrig import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("a complex FFT was called")

    monkeypatch.setattr(np.fft, "ifft", forbidden)
    monkeypatch.setattr(np.fft, "fft", forbidden)
    a = np.linspace(2.0, 0.5, 40)
    polys = (cosine_poly(2.0 * a[-1], a[:-1][::-1]),
             sine_poly(qk_sequence(400, 0.2, 0.4, 0.3, 0.7).values[1:]),
             _koumandos_cosine(4000, 0.5))
    for poly in polys:
        rep = certify_positive(poly, lo, hi)
        assert rep.verdict in (CERTIFIED, REFUTED, INCONCLUSIVE)
        theta, _ = find_min(poly, lo, hi)
        assert lo <= theta <= hi
    for kind in ("p", "q"):
        bracket_zeros(kind, a, lo, hi, 16 * 41)
    shifted = shifted_poly(np.linspace(1.0, 0.2, 300), 0.25, "sine")
    certify_positive(shifted, 0.0, 2 * PI, CertifyOptions(max_depth=2))
    find_min(shifted, 0.0, 2 * PI)
    for figure in ("fig1", "fig2"):
        assert cli.main(["plotdata", "--figure", figure, "--n", "30", "--points", "500",
                         "--outdir", str(tmp_path)]) == 0


class TestHermiteCells:
    """The third cell bound, from the cubic Hermite interpolant of (f, f'),
    on the cells that fail the first two."""

    # left and w on a 2^-40 lattice, so the cell's right end left + w is exact
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-5, 5), max_size=32), st.lists(st.floats(-5, 5), max_size=32),
           st.floats(-3, 3), st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([1, 2]),
           st.integers(-2 ** 41, 2 ** 41), st.integers(0, 20), st.integers(0, 1023))
    @example(cc=[0.0, 1.0], sc=[], a0=2.5, shift=0.0, stride=1, left_units=0,
             halvings=1, mantissa=0)
    def test_under_the_cell_minimum(self, cc, sc, a0, shift, stride, left_units,
                                    halvings, mantissa):
        poly = stride_layout(0.0 if shift else a0, cc, sc or [0.5], shift, stride)
        left = left_units * 2.0 ** -40
        w = (1 + mantissa / 1024) * 2.0 ** -halvings
        cell_min = min(naive_trig_value(poly, t) for t in np.linspace(left, left + w, 65))
        assert _hermite_cell(poly, left, w) <= cell_min

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(-50, 50), min_size=1))
    @example({0})
    @example({-3, -2, -1})
    @example({1, 3, 5})
    def test_cell_ends_are_the_sorted_union(self, cells):
        il = np.array(sorted(cells))
        at, left = _cell_ends(il)
        assert at.dtype == il.dtype
        assert at.tobytes() == np.unique(np.concatenate((il, il + 1))).tobytes()
        assert at[left].tobytes() == il.tobytes()
        assert at[left + 1].tobytes() == (il + 1).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda k: st.tuples(*[st.lists(
        st.floats(-1e150, 1e150) | st.just(math.nan), min_size=k, max_size=k)] * 4)),
        st.floats(0.0, 8.0), st.sampled_from([(0.0, 0.0, 0.0), (1e-3, 1e-12, 2e-12)]))
    @example(([0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]), 1.0, (0.0, 0.0, 0.0))
    # d0 = d1 = 2^-1074, and their halved sum, the split's middle point, is 0
    @example(([2e-323], [2e-323], [-2e-323], [2e-323]), 3.0, (0.0, 0.0, 0.0))
    def test_hull_is_the_seven_point_minimum(self, ends, w, terms):
        # the pairwise minima give the bits of one minimum over the stacked
        # control points, NaN and the sign of zero included: the bound below
        # is the one taken with np.minimum.reduce
        fl, fr, gl, gr = (np.array(v) for v in ends)
        L4, noise, dnoise = terms
        t = w / 3.0
        b1, b2 = fl + t * gl, fr - t * gr
        c01, c12, c23 = 0.5 * fl + 0.5 * b1, 0.5 * b1 + 0.5 * b2, 0.5 * b2 + 0.5 * fr
        d0, d1 = 0.5 * c01 + 0.5 * c12, 0.5 * c12 + 0.5 * c23
        hull = np.minimum.reduce([fl, c01, d0, 0.5 * d0 + 0.5 * d1, d1, c23, fr])
        scale = np.abs(fl) + np.abs(fr) + w * (np.abs(gl) + np.abs(gr))
        w2 = w * w
        expected = hull - (L4 * w2 * w2 / 384.0 + 0.25 * w * dnoise + noise
                           + certify._HULL_ROUNDING * scale + 4 * SUBNORMAL)
        got = _hermite_bound(fl, fr, gl, gr, w, L4, noise, dnoise)
        assert got.tobytes() == expected.tobytes()

    def test_tighter_than_second_order_on_a_fine_cell(self):
        # f = 2 + cos(8 theta) on a cell of width 2^-6 around its minimum
        poly = cosine_poly(4.0, [0.0] * 7 + [1.0])
        left, w = PI / 8 - 2.0 ** -7, 2.0 ** -6
        fl, fr = poly.values(np.array([left, left + w]))
        second = min(fl, fr) - curvature_bound(poly) * w * w / 8 - roundoff_bound(poly)
        assert second < _hermite_cell(poly, left, w) <= 1.0

    @pytest.mark.parametrize("poly, hermite", [
        (cosine_poly(1.78e308, [0.0, 0.0, 0.0, 0.5e308]), False),  # f' = -2e308 sin(4 theta)
        (cosine_poly(2.0002e303, [0.0] * 99 + [1e303]), True),     # L4 = 1e311
    ])
    def test_overflowing_slopes_certified_without_warning(self, poly, hermite):
        # nu*c and L4 leave the float range at the caller's scale, not at
        # the unit scale the engine runs on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(poly, 0.0, PI, CertifyOptions(grid0=64))
        assert rep.verdict == CERTIFIED
        assert ("f' sampled" in rep.boundary_notes) == hermite

    @pytest.mark.parametrize("poly, lower_at_most", [
        (_koumandos_cosine(20000, 0.4), 6.7e-3),  # the dense-grid minimum
        (sine_poly(qk_sequence(20000, 0.2, 0.4, 0.3, 0.7).values[1:]), math.inf),
    ])
    def test_degree_20000_certified_by_default(self, poly, lower_at_most):
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == CERTIFIED
        assert rep.lower_bound <= lower_at_most
        assert "f' sampled" in rep.boundary_notes

    @pytest.mark.parametrize("poly", [
        *(sine_poly([1.0 / k for k in range(1, n + 1)]) for n in (8, 92, 114)),
        cosine_poly(2.0, [1.0000000000002]),  # 1 + (1 + 2e-13) cos: -2e-13 at pi
    ])
    def test_touching_or_dipping_sums_never_certified(self, poly):
        # even Fejer-Jackson-Gronwall sums touch 0 at pi to third order
        assert certify_positive(poly, 0.0, PI).verdict != CERTIFIED


class TestLevelZeroSize:
    """The default level 0: max(1024, min(4096, 16*ceil(nu)), ceil(nu*W/pi))
    points, nu the top frequency and W the window's width."""

    @pytest.mark.parametrize("nu, counts", [
        (5, (1024, 1024, 1024)),
        (100, (1600, 1600, 1600)),
        (300, (4096, 4096, 4096)),
        (3000, (4096, 6000, 4096)),
        (10 ** 5, (100000, 200000, 4096)),
    ])
    def test_point_count(self, nu, counts):
        poly = cosine_poly(2.0, [0.0] * (nu - 1) + [1.0])
        windows = ((0.0, PI), (0.0, 2 * PI), (2.0, 2.01))
        assert tuple(certify._level0_size(poly, lo, hi, None)[0]
                     for lo, hi in windows) == counts
        assert certify._level0_size(poly, 0.0, PI, 4096) == (4096, "explicit grid0")

    def test_top_frequency_counts_the_shift_and_stride(self):
        poly = shifted_poly([1.0] * 51, 0.5, "cosine", 2)  # nu = 2*50 + 0.5
        assert certify._level0_size(poly, 0.0, PI, None) == \
            (1616, "16 per unit of frequency 100.5")
        assert certify._level0_size(cosine_poly(3.0, []), 0.0, PI, None) == \
            (1024, "the 1024 floor")

    @pytest.mark.parametrize("poly, opts, note", [
        (cosine_poly(4.0, [1.0]), None, "level 0: 1024 points, m = 2048 (the 1024 floor)"),
        (cosine_poly(4.0, [1.0]), CertifyOptions(grid0=4096),
         "level 0: 4096 points, m = 8192 (explicit grid0)"),
        (_koumandos_cosine(100, 0.5), None,
         "level 0: 1600 points, m = 3200 (16 per unit of frequency 100)"),
        (_koumandos_cosine(3000, 0.5), CertifyOptions(max_depth=0),
         "level 0: 4096 points, m = 8192 (the 4096 cap)"),
        (_koumandos_cosine(10000, 0.5), CertifyOptions(max_depth=0),
         "level 0: 10000 points, m = 20000 (two per period of frequency 10000)"),
    ])
    def test_note_names_the_term(self, poly, opts, note):
        notes = certify_positive(poly, 0.0, PI, opts).boundary_notes.split("; ")
        assert [n for n in notes if n.startswith("level 0:")] == [note]

    # the reports of the 4096-point default, frozen before the level 0 was
    # sized by the degree; the level-0 note is new
    FROZEN = [
        (_koumandos_cosine(2000, 0.4), 0.0, PI, {
            "verdict": "certified-positive", "lower_bound": 0.00012330965501608504,
            "witness": None, "grid_points": 8701, "refinement_depth": 1,
            "lipschitz": 105959.46369613291, "interval": {"lo": 0.0, "hi": PI},
            "boundary_notes": "left endpoint 0 sampled directly; right endpoint "
                              "3.14159265 sampled directly; f' sampled at 4345 points "
                              "from depth 0; L4 = 2.95073045e+14"}),
        (sine_poly(koumandos_bk(86, 0.45).values[1:]), 0.0, PI, {
            "verdict": "refuted", "lower_bound": None,
            "witness": {"theta": 3.133922749650365, "value": -0.004587397212750588},
            "grid_points": 4097, "refinement_depth": 0, "lipschitz": 547.8943729948808,
            "interval": {"lo": 0.0, "hi": PI},
            "boundary_notes": "left endpoint 0 vanishes identically; inward slope "
                              "547.894373 covers the eps-zone rigorously (slope > "
                              "curvature*eps); right endpoint 3.14159265 vanishes "
                              "identically; inward slope -0.887811696, curvature 0: "
                              "not inset, sampled directly"}),
        (_koumandos_cosine(400, 0.5), 1.0, 1.1, {
            "verdict": "certified-positive", "lower_bound": 0.8675639837689728,
            "witness": None, "grid_points": 4128, "refinement_depth": 0,
            "lipschitz": 4263.357356661594, "interval": {"lo": 1.0, "hi": 1.1},
            "boundary_notes": "left endpoint 1 sampled directly; right endpoint 1.1 "
                              "sampled directly"}),
    ]

    @pytest.mark.parametrize("poly, lo, hi, frozen", FROZEN)
    def test_explicit_4096_reproduces_the_frozen_report(self, poly, lo, hi, frozen):
        got = certify_positive(poly, lo, hi, CertifyOptions(grid0=4096)).to_dict()
        notes = got["boundary_notes"].split("; ")
        level0 = [n for n in notes if n.startswith("level 0:")]
        assert len(level0) == 1 and level0[0].startswith("level 0: 4096 points")
        got["boundary_notes"] = "; ".join(n for n in notes if n not in level0)
        assert got == frozen

    @pytest.mark.parametrize("poly", [
        _koumandos_cosine(100000, 0.4),
        sine_poly(koumandos_bk(100001, 0.4).values[1:]),
    ])
    def test_degree_100000_certified_by_default(self, poly):
        # positive by Koumandos' theorem; the 4096-point level 0 ran out of
        # depth here
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == CERTIFIED
        assert "points, m = 2" in rep.boundary_notes
        assert "(two per period of frequency 10000" in rep.boundary_notes


#: a slope, curvature or L4 printed in the notes
_NOTE_NUMBER = re.compile(r"(?:(?<=slope )|(?<=curvature )|(?<=L4 = ))-?(?:inf|\d[\d.e+-]*)")


def _times_power_of_two(poly, k):
    """2^k * poly, checked to be exact."""
    a0, cc, sc = (np.ldexp(np.array(c, dtype=float), k)
                  for c in ([poly.a0], poly.cos_coeffs, poly.sin_coeffs))
    for scaled, c in ((a0, [poly.a0]), (cc, poly.cos_coeffs), (sc, poly.sin_coeffs)):
        assert np.array_equal(np.ldexp(scaled, -k), c)
    return TrigPolynomial(a0[0], cc, sc, poly.shift)


class TestHugeCoefficients:
    """Sums whose values, means or bounds leave the float range."""

    def test_overflowing_cell_mean_is_refuted(self):
        # a0/2 + c cos(theta) is -8.99e306 at pi; the mean of two samples
        # near 1e308 overflowed as (f_l + f_r)/2, whose bound then read +inf
        # and certified the sum.  The level-0 lattice is j pi, and its first
        # point in the window, pi, refutes
        poly = cosine_poly(1.6179238213760842e308, [8.988465674311579e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(poly, 1.2, 8.966370614359173, CertifyOptions(grid0=3))
        assert rep.verdict == REFUTED and rep.refinement_depth == 0
        theta = PI
        assert rep.witness == (theta, pytest.approx(naive_trig_value(poly, theta), rel=1e-12))
        assert rep.witness[1] < -2.8e306

    def test_mass_beyond_the_float_range_is_refuted_like_its_unit_shape(self):
        # the coefficient mass 2e308 and L = 3e308 overflow; at the unit
        # scale the sum is refuted at the witness of sin + sin 2theta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(sine_poly([1e308, 1e308]), 0.0, PI)
        unit = certify_positive(sine_poly([1.0, 1.0]), 0.0, PI)
        assert rep.verdict == unit.verdict == REFUTED
        assert rep.witness[0] == unit.witness[0]
        assert rep.witness[1] == pytest.approx(1e308 * unit.witness[1], rel=1e-12)
        assert (rep.grid_points, rep.refinement_depth) == (unit.grid_points, 0)

    @pytest.mark.parametrize("coeffs, verdict", [([0.0, 1e308], REFUTED),
                                                 ([1e308], CERTIFIED)])
    def test_verdicts_kept_without_warnings(self, coeffs, verdict):
        # L = 2e308 overflows for sin(2 theta); the mass 1e308 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(sine_poly(coeffs), 0.0, PI)
        assert rep.verdict == verdict

    def test_find_min_beyond_the_float_range_returns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, value = find_min(sine_poly([1e308, 1e308]), 0.0, PI)
        unit = find_min(sine_poly([1.0, 1.0]), 0.0, PI)
        assert theta == unit[0]
        assert value == pytest.approx(1e308 * unit[1], rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, 1000, 1015])
    @pytest.mark.parametrize("poly, hi", [
        (_koumandos_cosine(400, 0.4), PI),
        (sine_poly(qk_sequence(400, 0.2, 0.4, 0.3, 0.7).values[1:]), PI),
        (sine_poly(koumandos_bk(2001, 0.4).values[1:]), PI),
        (shifted_poly(ck_sequence(8, 0.35, 2.0, 1.0).pair_values(), 0.375, "sine"), 2 * PI),
        (sine_poly([1.0, 1.0]), PI),
        (cosine_poly(1.78, [0.0, 0.0, 0.0, 0.5]), PI),
    ])
    def test_verdicts_do_not_depend_on_scale(self, poly, hi, k):
        big = _times_power_of_two(poly, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_min = certify_positive(big, 0.0, hi), find_min(big, 0.0, hi)
        want, want_min = certify_positive(poly, 0.0, hi), find_min(poly, 0.0, hi)
        assert (got.verdict, got.grid_points, got.refinement_depth) == \
            (want.verdict, want.grid_points, want.refinement_depth)
        if want.lower_bound is None:
            assert got.lower_bound is None
        else:
            assert got.lower_bound == math.ldexp(want.lower_bound, k)
        if want.witness is None:
            assert got.witness is None
        else:
            assert got.witness == (want.witness[0], math.ldexp(want.witness[1], k))
        assert got_min == (want_min[0], math.ldexp(want_min[1], k))
        # the notes print the slopes, curvatures and L4 at the caller's scale
        assert _NOTE_NUMBER.sub("#", got.boundary_notes) == \
            _NOTE_NUMBER.sub("#", want.boundary_notes)
        for a, b in zip(_NOTE_NUMBER.findall(want.boundary_notes),
                        _NOTE_NUMBER.findall(got.boundary_notes)):
            try:
                expected = math.ldexp(float(a), k)
            except OverflowError:
                expected = math.copysign(math.inf, float(a))
            assert float(b) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("poly", [sine_poly([1.0, 0.5, 0.25]), cosine_poly(3.0, [1.0, -0.75]),
                                      shifted_poly([1.0, 0.375, 0.25], 0.25, "sine", 2)])
    @pytest.mark.parametrize("k", [-1071, -1070, -1000, 0, 300, 1022])
    def test_report_lipschitz_takes_one_pass(self, monkeypatch, poly, k):
        # the copy is exact, so the report's L is the copy's scaled back,
        # rounded up, inf past the float range: one pass over the terms, and
        # still at least the caller's exact sum of nu |c|
        big = _times_power_of_two(poly, k)
        passes = []
        moments = trigeval._moments
        monkeypatch.setattr(trigeval, "_moments", lambda view: passes.append(view) or moments(view))
        rep = certify_positive(big, 0.0, PI)
        assert len(passes) == 1
        exact = sum(Fraction(float(nu)) * abs(Fraction(float(c)))
                    for nus, cs in big.terms() for nu, c in zip(nus, cs))
        assert exact <= Fraction(rep.lipschitz) <= \
            exact * (1 + Fraction(1, 10 ** 12)) + Fraction(2 * SUBNORMAL)

    def test_report_lipschitz_beyond_the_float_range_is_inf(self):
        # nu |c| sums to 3e308; the copy's L times 2^1023 overflows
        rep = certify_positive(sine_poly([1e308, 1e308]), 0.0, PI)
        assert rep.lipschitz == math.inf

    def test_report_lipschitz_of_a_rounded_copy_is_the_callers(self, monkeypatch):
        # scaling 1e308 into [1, 2) takes 5e-324 to 0: the copy's L is no
        # bound for the caller's sum, so the caller's own pass gives it
        poly = sine_poly([1e308, 5e-324])
        passes = []
        moments = trigeval._moments
        monkeypatch.setattr(trigeval, "_moments", lambda view: passes.append(view) or moments(view))
        rep = certify_positive(poly, 0.0, PI)
        assert len(passes) == 2
        assert rep.lipschitz == lipschitz_bound(sine_poly([1e308, 5e-324]))

    def test_rounded_coefficient_never_certifies_a_negative_sum(self):
        # 2^100 (1 - cos theta) - 2^-1000 cos(2 theta) is -2^-1000 at 0 and
        # negative on (0, ~2^-550); the unit-scale copy flushes the last
        # coefficient to 0 and vanishes at 0 to second order, but the
        # caller's coefficients decide the endpoint, and they do not vanish
        poly = cosine_poly(2.0 ** 101, [-2.0 ** 100, -2.0 ** -1000])
        copy, e, rounding = unit_scale(poly)
        assert (e, list(copy.cos_coeffs), rounding) == (100, [-1.0, 0.0], 3 * 2.0 ** -1074)
        assert _vanishes(copy, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict != CERTIFIED
        assert "left endpoint 0 sampled directly" in rep.boundary_notes
        assert "rounds a coefficient" in rep.boundary_notes

    def test_rounded_coefficient_keeps_the_callers_vanishing_endpoint(self):
        # 2 sin theta + 2^-1074 sin 2theta vanishes at 0 and pi with slope 2;
        # its copy sin theta flushes the last coefficient, and the caller's
        # jet still insets both ends rigorously
        rep = certify_positive(sine_poly([2.0, 5e-324]), 0.0, PI)
        assert rep.verdict == CERTIFIED
        for side in ("left endpoint 0", "right endpoint 3.14159265"):
            assert f"{side} vanishes identically; inward slope 2 covers the eps-zone " \
                "rigorously" in rep.boundary_notes
        assert "rounds a coefficient" in rep.boundary_notes

    def test_rounded_coefficient_with_overflowing_partial_sums_is_sampled(self):
        # the caller's signed terms cancel at pi, but their running sum
        # overflows: the endpoint is sampled, without a warning
        poly = cosine_poly(0.0, [-1e308, 1e308, 1e308, -1e308, 5e-324])
        assert unit_scale(poly)[2] and vanishing_endpoint(poly, PI) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(poly, 0.0, PI)
        assert "right endpoint 3.14159265 sampled directly" in rep.boundary_notes

    @pytest.mark.parametrize("k, value", [(-1074, -SUBNORMAL), (-1070, -6 * SUBNORMAL)])
    def test_subnormal_witness_is_rounded_to_nearest_below_zero(self, k, value):
        # sin + sin 2theta dips to -0.369: at 2^-1074 that rounds to -0, so
        # the witness is clamped to -2^-1074; at 2^-1070, -5.9 spacings round
        # to -6 (toward zero they would be -5)
        unit = certify_positive(sine_poly([1.0, 1.0]), 0.0, PI)
        rep = certify_positive(sine_poly([math.ldexp(1.0, k)] * 2), 0.0, PI)
        assert rep.verdict == REFUTED
        assert rep.witness == (unit.witness[0], value)
        theta, v = find_min(sine_poly([math.ldexp(1.0, k)] * 2), 0.0, PI)
        unit_min = find_min(sine_poly([1.0, 1.0]), 0.0, PI)
        assert (theta, v) == (unit_min[0], math.ldexp(unit_min[1], k))

    def test_lower_bound_rounds_toward_zero_at_the_caller_scale(self):
        # f = 4*2^-1074: the unit-scale bound 1 - noise scales back to a
        # subnormal, rounded down to 3*2^-1074
        rep = certify_positive(cosine_poly(8 * 2.0 ** -1074), 0.0, PI)
        assert (rep.verdict, rep.lower_bound) == (CERTIFIED, 3 * 2.0 ** -1074)

    def test_lower_bound_underflowing_to_zero_is_inconclusive(self):
        # f = 2^-1074: the bound 2^-1074 (1 - noise) is no float above 0
        rep = certify_positive(cosine_poly(2.0 ** -1073), 0.0, PI)
        assert (rep.verdict, rep.lower_bound) == (INCONCLUSIVE, None)
        assert "underflows to 0" in rep.boundary_notes

    def test_overflowing_lower_bound_is_clamped(self):
        # 1.7e308 (sin + sin 2theta) exceeds 2.7e308 on [0.7, 1.2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_positive(sine_poly([1.7e308, 1.7e308]), 0.7, 1.2)
        assert (rep.verdict, rep.lower_bound) == (CERTIFIED, sys.float_info.max)

    def test_zero_brackets_near_the_float_limit(self):
        # 3 sin 2t + 2 sin t scaled to 1.5e308: its values reach 2.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bracket_zeros("q", [1.5e308, 1e308], 0.0, 2 * PI, 512)
        assert len(got.brackets) == 3
        assert got == bracket_zeros("q", [3.0, 2.0], 0.0, 2 * PI, 512)

    def test_p_zero_brackets_near_the_float_limit(self):
        # p is built from the scaled a_k, so its a0 = 2*a_1 = 2e308 never is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bracket_zeros("p", [1.5e308, 1e308], 0.0, 2 * PI, 512)
        assert len(got.brackets) == 2
        assert got == bracket_zeros("p", [1.5, 1.0], 0.0, 2 * PI, 512)

    @pytest.mark.parametrize("kind, coeffs", [("p", [2.0, 1.0]), ("p", [3.0, 2.0, 1.0]),
                                              ("q", [3.0, 2.0, 1.0]),
                                              ("q", [5.0, 4.0, 2.5, 1.0, 0.5])])
    def test_zero_brackets_do_not_depend_on_scale(self, kind, coeffs):
        # the products of neighbouring samples under- or overflow at these
        # scales; their signs do not.  At 2^-1070 the coefficients are
        # subnormal, and only a copy scaled up keeps every bracket
        want = bracket_zeros(kind, coeffs, 0.0, 2 * PI, 512)
        assert want.brackets
        for e in (560, -560, -1070):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = bracket_zeros(kind, [math.ldexp(c, e) for c in coeffs],
                                    0.0, 2 * PI, 512)
            assert got == want


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

    def test_window_narrower_than_four_eps(self):
        for lo, hi in ((1.0, 1.0 + 4 * EPS), (0.0, 3e-4), (PI, 0.0), (0.0, math.nan)):
            with pytest.raises(ParameterDomainError):
                find_min(sine_poly([1.0]), lo, hi)

    def test_negative_slope_vanishing_endpoint_is_sampled(self):
        # the sum of the certifier's narrow-zone test: 0 is not inset, so
        # the descent from the level-0 sample at 0 enters the negative zone
        poly = TrigPolynomial(10.0, (-1.0,) + (0.0,) * 8 + (-4.0,), (-3e-4,))
        theta, m = find_min(poly, 0.0, PI)
        assert 0.0 <= theta < 1.5e-6
        assert m <= naive_trig_value(poly, 0.0) == 0.0
        assert m == pytest.approx(naive_trig_value(poly, theta), abs=roundoff_bound(poly))

    @pytest.mark.parametrize("end", ["hi", "lo", "eps"])
    def test_descent_stops_at_float_resolution(self, monkeypatch, end):
        # sin(64 theta) has slope ~ 61 in size through the ends of a window
        # near theta = 2000 and falls toward the end named, so a midpoint half
        # an ulp inside still reads measurably higher: only theta's float
        # spacing stops the descent.  Near EPS, the inset end of (0, 0.01),
        # its ulp is 1.4e-20, below what the roundoff bound tells apart; with
        # that bound taken to 0 the descent runs some 48 halvings of the
        # level-0 step 2.4e-6 down to EPS's float spacing
        if end == "eps":
            monkeypatch.setattr(certify, "roundoff_bound", lambda poly: 0.0)
            monkeypatch.setattr(certify, "_DRIFT", 0.0)
        batches = []
        values = TrigPolynomial.values

        def counted(self, theta):
            batches.append(np.array(theta, dtype=float))
            return values(self, theta)

        monkeypatch.setattr(TrigPolynomial, "values", counted)
        poly = sine_poly([0.0] * 63 + [1.0])
        # 64c is an odd multiple of pi for a minimum at hi, an even one for lo
        c = (40743 if end == "hi" else 40742) * PI / 64
        lo, hi = (c - 0.005, c + 0.005) if end != "eps" else (0.0, 0.01)
        theta, m = find_min(poly, lo, hi)
        if end == "hi":
            assert hi - 4 * math.ulp(hi) <= theta <= hi
        else:
            start = EPS if end == "eps" else lo
            assert start <= theta <= start + 4 * math.ulp(start)
        assert m == pytest.approx(naive_trig_value(poly, theta), abs=roundoff_bound(poly))
        # the last midpoints lie one or two steps from theta
        assert np.abs(batches[-1] - theta).max() <= 2 * math.ulp(theta)

    def test_one_kernel_batch_per_level(self, monkeypatch):
        # the level-0 scan is one FFT batch on the lattice and one direct
        # batch at pi, past its last point 4095 pi/4096; each descent level is
        # one batch of 1-2 midpoints by the direct sums
        calls = []
        values, period = TrigPolynomial.values, TrigPolynomial.values_period

        def counted_values(self, theta):
            calls.append(("values", np.size(theta)))
            return values(self, theta)

        def counted_period(self, m, idx):
            calls.append(("period", np.size(idx)))
            return period(self, m, idx)

        monkeypatch.setattr(TrigPolynomial, "values", counted_values)
        monkeypatch.setattr(TrigPolynomial, "values_period", counted_period)
        _, c30 = fig1_polys(30)
        theta, m = find_min(c30, 0.0, PI)
        assert calls[:2] == [("period", 4096), ("values", 1)]
        assert len(calls) >= 12
        assert all(kind == "values" and 1 <= k <= 2 for kind, k in calls[2:])

    @pytest.mark.parametrize("lo, hi", [(0.1, 3.0), (-1.0, 1.0), (1.0, 1.3)])
    def test_minimum_at_wlo(self, lo, hi):
        # 2 - cos(theta - lo + 0.1) rises from lo across the window: its
        # minimum is the window end lo, no lattice point, sampled directly,
        # and the descent from lo toward the first lattice point keeps it
        poly = TrigPolynomial(4.0, (-math.cos(lo - 0.1),), (-math.sin(lo - 0.1),))
        _, _, _, gaps, xs, _, _ = _level0(poly, lo, hi, 4096, 0.0)
        assert gaps[0] > 0 and xs[0] == lo
        theta, value = find_min(poly, lo, hi)
        assert theta == lo
        assert value == pytest.approx(naive_trig_value(poly, lo), abs=roundoff_bound(poly))

    def test_flat_minimum_at_pi(self):
        # a qk cosine sum of degree 213 has f' = 0 at its minimum theta = pi,
        # where values within roundoff span ~1e-7 of theta: the descent stops
        # there, and the value it returns is the sum's at the theta returned
        seq = qk_sequence(213, 3.27, 4.24, 0.1, 1.17)
        poly = cosine_poly(seq.values[0], seq.values[1:])
        noise = roundoff_bound(poly)
        theta, m = find_min(poly, 0.0, PI)
        assert abs(theta - PI) < 1e-6
        assert abs(m - naive_trig_value(poly, theta)) <= noise
        assert m <= naive_trig_value(poly, PI) + noise


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
                    cosine_poly(2 * seq.values[0], seq.values[1:]), 0.0, PI)
                assert rep.verdict == CERTIFIED, (d, n, rep.boundary_notes)

    def test_below_alpha0_counterexample_is_real(self):
        from postrig import alpha0_prime, ck_sequence
        alpha = alpha0_prime(0.5).value + 0.01
        seq = ck_sequence(20, alpha, 1.5, 1.0)
        poly = cosine_poly(2 * seq.values[0], seq.values[1:])
        rep = certify_positive(poly, 0.0, PI)
        assert rep.verdict == REFUTED
        theta, value = rep.witness
        naive = math.fsum(
            [seq.values[0]] + [seq.values[k] * math.cos(k * theta)
                               for k in range(1, len(seq.values))])
        assert naive < -0.05
        assert value == pytest.approx(naive, abs=1e-10)


def _qp_poly(kind, a):
    """p(theta) = sum a_k cos((n-k)theta) or q(theta) = sum a_k sin((n-k)theta)."""
    a = [float(v) for v in a]
    if kind == "p":
        return TrigPolynomial(a0=2.0 * a[-1], cos_coeffs=tuple(reversed(a[:-1])))
    return TrigPolynomial(sin_coeffs=tuple(reversed(a)))


def _reference_brackets(kind, coeffs, lo, hi, grid):
    """bracket_zeros' scan as a loop over its grid, one nudge at a time: the
    points j h (h = 2 pi/m) on [lo, hi] of the lattice of at least grid + 1
    points, and lo and hi where the lattice falls short of them by more than
    the nudge.  A sample within the roundoff bound (and the FFT's abscissa
    term) of 0 has no reliable sign and is nudged by a millionth of h,
    toward lo at hi and at the lattice point before hi, toward hi elsewhere
    (the direct sums here, one FFT in the library, differ by roundoff)."""
    poly = _qp_poly(kind, coeffs)
    m, first, last = period_lattice(lo, hi, grid + 1)
    h = 2 * PI / m
    nudge = 1e-6 * h
    head = first * Fraction(h) - Fraction(lo) > nudge
    tail = Fraction(hi) - last * Fraction(h) > nudge
    xs = np.concatenate(([lo] * head, np.arange(first, last + 1) * h, [hi] * tail))
    vals = poly.values(xs)
    end = xs.size - 1
    drift = lipschitz_bound(poly) * max(abs(lo), abs(hi)) * 2.38 * 2.0 ** -53
    for i in np.nonzero(np.abs(vals) <= roundoff_bound(poly) + drift)[0]:
        xs[i] += -nudge if i >= end - tail else nudge
        vals[i] = poly.value(float(xs[i]))
    out = []
    for i in range(end):
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
        # q is odd, so it vanishes exactly at the lattice point 0 of this
        # grid (h = 2 pi/72), the 36th sample after -pi and the 35 points
        # -35 h .. -h, where the FFT gives roundoff; only the nudge turns that
        # sample into a bracket around 0
        a = [3.0, 2.0, 1.5, 1.0]
        lo, hi, grid = -PI, PI, 64
        m, idx, _, _, xs, vals, _ = _level0(_qp_poly("q", a), lo, hi, grid + 1, 0.0)
        assert (m, idx[36], xs[0], xs[36]) == (72, 0, -PI, 0.0)
        assert abs(vals[36]) <= roundoff_bound(_qp_poly("q", a))
        got = bracket_zeros("q", a, lo, hi, grid)
        assert got.brackets == _reference_brackets("q", a, lo, hi, grid)
        assert any(b[0] < 0.0 < b[1] for b in got.brackets)

    def test_q_on_the_full_circle_has_every_zero_once(self):
        """q of degree 300 on [0, 2pi] has 2n - 1 simple zeros inside.  q
        vanishes at 0 and 2pi, where the FFT and the direct sample at 2pi
        give roundoff of either sign; the roundoff zero rule nudges those
        samples inward instead of taking their sign."""
        n = 300
        a = np.linspace(1.0, 0.1, n)
        a[0] += 0.5
        for grid in (4800, 4808, 4813):
            m, _, last = period_lattice(0.0, 2 * PI, grid + 1)
            assert last * Fraction(2 * PI / m) < 2 * PI  # 2pi sampled directly
            got = bracket_zeros("q", a, 0.0, 2 * PI, grid).brackets
            assert len(got) == 2 * n - 1, grid
            for lo, hi, s_lo, s_hi in got:
                for theta, sign in ((lo, s_lo), (hi, s_hi)):
                    value = math.fsum(ak * math.sin((n - k) * theta)
                                      for k, ak in enumerate(a))
                    assert value * sign > 0, (grid, theta, value, sign)

    @pytest.mark.parametrize("lo, hi", [(-1e-12, PI), (-4e-9, PI), (1.0, 2 * PI + 1e-12),
                                        (1.0, 2 * PI + 4e-9)])
    def test_zero_samples_beside_a_partial_cell_within_the_nudge(self, monkeypatch, lo, hi):
        """q vanishes at 0 and 2 pi, lattice points that lie within the
        nudge of these lo or hi, so that they and the window end read
        roundoff alike.  The window end is dropped, and the lattice point
        moves by a millionth of h inward, toward hi at 0 and toward lo at
        2 pi; nudged both, a zero at lo could pass the lattice point beside
        it and fake a crossing at the open end."""
        a = np.linspace(1.0, 0.1, 40)
        a[0] += 0.5
        grid = 16 * 40
        m, idx, _, gaps, _, _, _ = _level0(_qp_poly("q", a), lo, hi, grid + 1, 0.0)
        h = 2 * PI / m
        nudge = 1e-6 * h
        end, at = (0, 0.0) if lo < 0 else (1, 2 * PI)
        assert 0 < gaps[end] <= nudge and idx[-2 if end else 1] * h == at
        want = _reference_brackets("q", a, lo, hi, grid)
        probes, values = [], TrigPolynomial.values

        def counted(self, theta):
            probes.append(np.array(theta, dtype=float))
            return values(self, theta)

        monkeypatch.setattr(TrigPolynomial, "values", counted)
        got = bracket_zeros("q", a, lo, hi, grid).brackets
        nudged = probes[-1].max() if end else probes[-1].min()
        assert nudged == pytest.approx(at - nudge if end else nudge, abs=4 * math.ulp(2 * PI))
        assert got == want and got
        assert (got[-1][1] <= nudged) if end else (got[0][0] >= nudged)  # no end crossing
        for b_lo, b_hi, s_lo, s_hi in got:
            for theta, sign in ((b_lo, s_lo), (b_hi, s_hi)):
                assert sign * math.fsum(ak * math.sin((40 - k) * theta)
                                        for k, ak in enumerate(a)) > 0

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
