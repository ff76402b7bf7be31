"""trigeval: TrigPolynomial values, shifted sums, helper kernels, Abel identity."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import postrig
from postrig import (TrigPolynomial, abel_resum, cosine_poly, lipschitz_bound, qk_sequence, shifted_poly, sine_poly,
                     halfangle_product_negated_poly, trigeval)
from postrig.errors import ParameterDomainError, SizeError
from postrig.kernels import SUBNORMAL, error_bound, period_lattice
from postrig.trigeval import (coefficient_mass, curvature_bound, fourth_derivative_bound,
                              qk_weight, roundoff_bound, unit_scale)
from conftest import (mp_derivative, naive_cosine_sum, naive_halfangle_derivative,
                      naive_terms, naive_trig_value, naive_sine_sum, stride_layout)

PI = math.pi


class TestEvalSums:
    """sine_poly and cosine_poly values against exact values and the naive
    term-by-term sums."""

    def test_single_sine(self):
        assert sine_poly([1.0]).value(PI / 2) == pytest.approx(1.0, abs=1e-15)
        assert sine_poly([1.0]).value(PI / 2) == pytest.approx(
            naive_sine_sum([1.0], PI / 2), abs=1e-15)

    def test_two_term_sine(self):
        assert sine_poly([1.0, 1.0]).value(PI / 2) == pytest.approx(1.0, abs=1e-15)

    def test_qk_tail_matches_naive(self):
        seq = qk_sequence(40, 0.2, 0.4, 0.3, 0.7)
        coeffs = seq.values[1:]  # the sine-sum coefficients
        mass = sum(abs(c) for c in coeffs)
        got = sine_poly(coeffs).value(0.1)
        assert abs(got - naive_sine_sum(coeffs, 0.1)) <= 1e-12 * mass

    def test_cosine_constant_only(self):
        assert cosine_poly(2.0, []).value(1.234) == pytest.approx(1.0, abs=0)

    def test_cosine_single(self):
        assert cosine_poly(0.0, [1.0]).value(PI) == pytest.approx(-1.0, abs=1e-15)
        assert cosine_poly(0.0, [1.0]).value(PI) == pytest.approx(
            naive_cosine_sum(0.0, [1.0], PI), abs=1e-15)

    def test_cosine_exact_quarter(self):
        got = cosine_poly(2.0, [1.0, 0.5]).value(2 * PI / 3)
        assert got == pytest.approx(0.25, abs=1e-14)
        assert got == pytest.approx(naive_cosine_sum(2.0, [1.0, 0.5], 2 * PI / 3),
                                    abs=1e-14)

    def test_array_evaluation(self):
        ths = np.linspace(0.1, 3.0, 7)
        vals = sine_poly([1.0, 0.5]).values(ths)
        assert vals.shape == ths.shape
        assert vals[0] == pytest.approx(sine_poly([1.0, 0.5]).value(ths[0]))
        assert vals == pytest.approx([naive_sine_sum([1.0, 0.5], t) for t in ths])


class TestTrigPolynomial:
    def test_rejects_empty(self):
        with pytest.raises(ParameterDomainError):
            TrigPolynomial()

    def test_rejects_bad_shift(self):
        with pytest.raises(ParameterDomainError):
            TrigPolynomial(sin_coeffs=(1.0,), shift=1.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterDomainError):
            TrigPolynomial(cos_coeffs=(math.nan,))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30),
           st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5]),
           st.sampled_from([1, 2]),
           st.floats(0.0, 7.0))
    def test_values_match_naive(self, coeffs, shift, stride, theta):
        poly = stride_layout(0.4, coeffs, coeffs[::-1], shift, stride)
        mass = 0.4 + 2 * sum(abs(c) for c in coeffs) or 1.0
        assert abs(poly.value(theta) - naive_trig_value(poly, theta)) <= 1e-12 * mass

    def test_stores_a_read_only_copy(self):
        cc, sc = np.array([1.0, 0.5]), np.array([0.25])
        poly = TrigPolynomial(2.0, cc, sc)
        before = poly.values(np.linspace(0.0, 7.0, 9))
        cc[:], sc[:] = 9.0, 9.0  # the caller's arrays, not the polynomial's
        assert np.array_equal(poly.values(np.linspace(0.0, 7.0, 9)), before)
        for q in (poly, poly.derivative(), unit_scale(cosine_poly(8.0, [3.0]))[0]):
            for c in (q.cos_coeffs, q.sin_coeffs):
                assert c.dtype == np.float64 and not c.flags.writeable
                with pytest.raises(ValueError):
                    c[...] = 0.0

    def test_terms_are_the_stored_arrays(self):
        poly = TrigPolynomial(2.0, [1.0, 0.5], [0.25], 0.0)
        (_, cc), (_, sc) = poly.terms()
        assert cc is poly.cos_coeffs and sc is poly.sin_coeffs
        assert np.shares_memory(cc, poly.cos_coeffs) and np.shares_memory(sc, poly.sin_coeffs)


_LAYOUT = dict(
    a0=st.floats(-3, 3), cc=st.lists(st.floats(-5, 5), max_size=30),
    sc=st.lists(st.floats(-5, 5), max_size=30),
    shift=st.sampled_from([0.0, 0.125, 0.25, 0.5]), stride=st.sampled_from([1, 2]))


def _layout(a0, cc, sc, shift, stride):
    """A TrigPolynomial of any layout (a0 only when unshifted; stride 2
    through `shifted_poly`, see `stride_layout`); one with nothing else to
    hold gets a single zero sine term."""
    a0 = 0.0 if shift else a0
    if not (cc or sc or a0):
        sc = [0.0]
    return stride_layout(a0, cc, sc, shift, stride)


class TestDerivative:
    """TrigPolynomial.derivative: f' as a polynomial in the same layout."""

    @settings(max_examples=80, deadline=None)
    @given(**_LAYOUT, thetas=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=5))
    def test_matches_mpmath_every_layout(self, a0, cc, sc, shift, stride, thetas):
        poly = _layout(a0, cc, sc, shift, stride)
        d1, d2 = poly.derivative(), poly.derivative().derivative()
        n = len(naive_terms(poly))
        for t in thetas:
            assert abs(d1.value(t) - mp_derivative(poly, t, 1)) <= \
                error_bound(lipschitz_bound(poly), n)
            assert abs(d2.value(t) - mp_derivative(poly, t, 2)) <= \
                error_bound(curvature_bound(poly), n)
        assert (d1.shift, d1.a0) == (shift, 0.0)

    @settings(max_examples=80, deadline=None)
    @given(**_LAYOUT)
    @example(a0=0.0, cc=[], sc=[1.1125369292536007e-308], shift=0.125, stride=1)
    @example(a0=0.0, cc=[], sc=[0.0, 0.0, 5e-324], shift=0.125, stride=1)
    def test_bounds_are_the_mass_of_the_derivatives(self, a0, cc, sc, shift, stride):
        # L and L2 bound the masses of f' and f'', the exact sums of nu |c|
        # and nu^2 |c|, from above.  By design (trigeval._moments) they add
        # n + 1 subnormal spacings and round up once more, which 1e-14 of a
        # subnormal bound does not hold, and a product nu^p |c| that
        # underflows rounds to nearest, up to half a spacing above its exact
        # value: at sc = [0, 0, 5e-324], shift 1/8, L2 is 10 spacings
        # and the exact sum 4.52
        poly = _layout(a0, cc, sc, shift, stride)
        terms = sum(c.size for _, c in poly.terms())
        for bound, p in ((lipschitz_bound(poly), 1), (curvature_bound(poly), 2)):
            exact = sum(Fraction(float(nu)) ** p * abs(Fraction(float(c)))
                        for nus, cs in poly.terms() for nu, c in zip(nus, cs))
            assert exact <= bound
            assert Fraction(bound) - exact <= \
                Fraction(1e-14 * bound) + Fraction(3 * terms + 4, 2) * Fraction(SUBNORMAL)

    @pytest.mark.parametrize("poly", [cosine_poly(2.0),
                                      shifted_poly([-1.5], 0.0, "cosine", stride=2)])
    def test_constant_gives_the_zero_polynomial(self, poly):
        d = poly.derivative()
        assert (d.a0, list(d.cos_coeffs), list(d.sin_coeffs)) == (0.0, [], [0.0])
        assert d.shift == poly.shift
        assert not d.values(np.linspace(-7.0, 7.0, 50)).any()

    def test_the_shift_term_keeps_its_slot(self):
        # nu = shift + k from k = 0: cos(theta/4) -> -sin(theta/4)/4
        d = TrigPolynomial(cos_coeffs=(2.0, 1.0), shift=0.25).derivative()
        assert (list(d.cos_coeffs), list(d.sin_coeffs), d.shift) == ([], [-0.5, -1.25], 0.25)
        # stride 2: the zero at nu = 1.5 keeps its slot
        d = shifted_poly([1.0, 3.0], 0.5, "sine", stride=2).derivative()
        assert (list(d.cos_coeffs), list(d.sin_coeffs)) == ([0.5, 0.0, 7.5], [])
        # the standard layout starts at k = 1, the constant drops
        d = TrigPolynomial(a0=4.0, cos_coeffs=(1.0,), sin_coeffs=(1.0, 1.0)).derivative()
        assert (d.a0, list(d.cos_coeffs), list(d.sin_coeffs)) == (0.0, [1.0, 2.0], [-1.0])

    @pytest.mark.parametrize("poly", [cosine_poly(0.0, [1.0, 1e308]),
                                      shifted_poly([1e308, 1e308], 0.5, "sine", stride=2)])
    def test_overflowing_product_raises_without_warning(self, poly):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError):
                poly.derivative()

    @pytest.mark.parametrize("shift, stride", [(0.0, 1), (0.25, 2)])
    def test_levels_zero_and_one_run_one_real_fft_each(self, rng, shift, stride):
        # what refinement with f' samples relies on: f' on the level-0
        # lattice of m points and f at the depth-1 midpoints, the odd points
        # of the lattice of 2m, each run real FFTs of that lattice's length
        # and no direct sums
        poly = _layout(1.0, list(rng.normal(size=400)), list(rng.normal(size=300)),
                       shift, stride)
        m, first, last = period_lattice(0.0, math.pi, 4096)
        h, idx = 2 * math.pi / m, np.arange(first, last + 1)
        with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft, \
                mock.patch.object(trigeval, "pair_sums") as direct:
            got = poly.derivative().values_period(m, idx)
            mid = poly.values_period(2 * m, 2 * idx + 1)
        lengths = [c.args[0].size for c in rfft.call_args_list]
        # one for the cosine and one for the sine part of each batch
        assert not direct.called and lengths == [m, m, 2 * m, 2 * m]
        want = poly.derivative().values(idx * h)
        assert np.abs(got - want).max() <= 2 * error_bound(lipschitz_bound(poly), 700) + \
            lipschitz_bound(poly.derivative()) * math.pi * 2.0 ** -51
        want = poly.values((2 * idx + 1) * (h / 2))
        assert np.abs(mid - want).max() <= 2 * roundoff_bound(poly) + \
            lipschitz_bound(poly) * math.pi * 2.0 ** -51


class TestBoundsRoundedUp:
    """L, L2, L4 and the coefficient mass: float sums of non-negative terms,
    rounded up so that each is at least the exact sum over the exact
    frequencies."""

    @pytest.mark.parametrize("seed", range(8))
    def test_at_or_above_the_exact_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2001))
        shift = [0.0, 0.25, 0.5, 0.3][seed % 4]  # 0.3: stride*k + shift rounds
        stride = 1 + seed // 4
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        split = int(rng.integers(0, n + 1))
        poly = stride_layout(0.0 if shift else 1.0, c[:split], c[split:], shift, stride)
        k0 = 0 if shift else 1
        nus = [stride * (j + k0) + Fraction(shift) for j in range(split)]
        nus += [stride * (j + k0) + Fraction(shift) for j in range(n - split)]
        mags = [abs(Fraction(v)) for v in c]
        for p, bound in ((1, lipschitz_bound), (2, curvature_bound),
                         (4, fourth_derivative_bound)):
            exact = sum(nu ** p * m for nu, m in zip(nus, mags))
            got = Fraction(bound(poly))
            assert exact <= got <= exact * (1 + Fraction(1, 10 ** 13)), p

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3) | st.floats(-1e-307, 1e-307),
           st.lists(st.floats(-5, 5) | st.floats(-1e-307, 1e-307), max_size=30),
           st.lists(st.floats(-5, 5) | st.floats(-1e-307, 1e-307), max_size=30),
           st.sampled_from([0.0, 0.125, 0.5]))
    @example(a0=5e-324, cc=[], sc=[], shift=0.0)
    @example(a0=0.0, cc=[], sc=[5e-324, 0.1, 0.2], shift=0.25)
    @example(a0=2.0, cc=[2.0 ** -53], sc=[], shift=0.0)
    def test_mass_at_or_above_the_exact_sum(self, a0, cc, sc, shift):
        # 0.5|a0| + sum |c|, subnormal coefficients and a0 included, from
        # above, and within 1e-13 of it and a few subnormal spacings
        poly = TrigPolynomial(0.0 if shift else a0, cc, sc or [0.0], shift)
        exact = abs(Fraction(poly.a0)) / 2 + sum(
            abs(Fraction(float(c))) for _, cs in poly.terms() for c in cs)
        terms = sum(c.size for _, c in poly.terms())
        mass = Fraction(coefficient_mass(poly))
        assert exact <= mass <= exact * (1 + Fraction(1, 10 ** 13)) + \
            (terms + 4) * Fraction(SUBNORMAL)

    def test_zero_sum_stays_zero(self):
        for poly in (cosine_poly(2.0), TrigPolynomial(sin_coeffs=(0.0, 0.0), shift=0.5)):
            assert (lipschitz_bound(poly), curvature_bound(poly),
                    fourth_derivative_bound(poly)) == (0.0, 0.0, 0.0)

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_bound(sine_poly([0.0, 1e308])) == math.inf  # a product
            # finite products, a sum beyond the float range
            assert lipschitz_bound(TrigPolynomial(0.0, (1e308,), (1e308,))) == math.inf
            assert fourth_derivative_bound(cosine_poly(2.0, [0.0] * 99 + [1e303])) == math.inf
            assert fourth_derivative_bound(sine_poly([1e308] * 3)) == math.inf


class TestUnitScale:
    """The one power of two the engine scales by."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-5, 5), max_size=8), st.lists(st.floats(-5, 5), max_size=8),
           st.floats(-3, 3), st.sampled_from([0.0, 0.25]), st.integers(-1060, 1020))
    def test_largest_coefficient_in_one_to_two(self, cc, sc, a0, shift, k):
        poly = TrigPolynomial(0.0 if shift else math.ldexp(a0, k),
                              tuple(math.ldexp(c, k) for c in cc),
                              tuple(math.ldexp(c, k) for c in sc) or (1.0,), shift)
        assume(poly.a0 or any(poly.cos_coeffs) or any(poly.sin_coeffs))
        copy, e, rounding = unit_scale(poly)
        top = max([abs(copy.a0) / 2, *map(abs, copy.cos_coeffs), *map(abs, copy.sin_coeffs)])
        assert 1.0 <= top < 2.0
        assert copy.shift == poly.shift
        # every coefficient is 2^-e times the caller's, or rounded within `rounding`
        pairs = zip((copy.a0, *copy.cos_coeffs, *copy.sin_coeffs),
                    (poly.a0, *poly.cos_coeffs, *poly.sin_coeffs))
        slack = sum(abs(Fraction(c) - Fraction(p) / Fraction(2) ** e) for c, p in pairs)
        assert slack <= rounding
        assert (rounding == 0.0) == (slack == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert roundoff_bound(copy) < math.inf
            assert fourth_derivative_bound(copy) < 2.0 ** 166

    def test_unit_sums_are_used_as_they_are(self):
        for poly in (cosine_poly(2.0, [1.5]), sine_poly([1.0, -1.99]),
                     TrigPolynomial(sin_coeffs=(0.0,))):  # the zero polynomial
            assert unit_scale(poly) == (poly, 0, 0.0)
            assert unit_scale(poly)[0] is poly

    def test_the_constant_counts_as_a0_over_2(self):
        copy, e, _ = unit_scale(cosine_poly(2.0 ** -1073, [2.0 ** -1074]))
        assert (copy.a0, list(copy.cos_coeffs), e) == (2.0, [1.0], -1074)


class TestShiftedSums:
    def test_single_coefficient(self):
        poly = shifted_poly([1.0], 0.25, "cosine")
        assert poly.value(PI) == pytest.approx(math.cos(PI / 4), abs=1e-15)

    def test_shift_zero_reduces_to_cosine(self):
        e = [0.9, 0.5, 0.2]
        poly = shifted_poly(e, 0.0, "cosine")
        for theta in (0.3, 1.0, 2.5, 5.0):
            assert poly.value(theta) == cosine_poly(2 * e[0], e[1:]).value(theta)
            assert poly.value(theta) == pytest.approx(
                naive_cosine_sum(2 * e[0], e[1:], theta), abs=1e-15)

    def test_shift_zero_reduces_to_sine(self):
        e = [0.9, 0.5, 0.2]
        poly = shifted_poly(e, 0.0, "sine")
        for theta in (0.3, 1.0, 2.5):
            assert poly.value(theta) == sine_poly(e[1:]).value(theta)
            assert poly.value(theta) == pytest.approx(
                naive_sine_sum(e[1:], theta), abs=1e-15)

    def test_two_route_agreement_stride2(self):
        # direct angle evaluation vs the angle-addition decomposition
        poly = shifted_poly([1.0, 1.0], 0.25, "cosine", stride=2)
        theta = PI / 3
        direct = math.fsum(math.cos((2 * k + 0.25) * theta) for k in range(2))
        assert poly.value(theta) == pytest.approx(direct, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 3), min_size=1, max_size=25),
           st.sampled_from([0.125, 0.25, 0.375, 0.5]),
           st.sampled_from([1, 2]),
           st.floats(0.0, 6.2))
    def test_two_route_agreement_property(self, e, shift, stride, theta):
        poly = shifted_poly(e, shift, "sine", stride=stride)
        direct = math.fsum(ek * math.sin((stride * k + shift) * theta)
                           for k, ek in enumerate(e))
        mass = sum(map(abs, e))
        assert abs(poly.value(theta) - direct) <= 1e-12 * mass
        assert abs(poly.value(theta) - naive_trig_value(poly, theta)) <= 1e-12 * mass

    def test_rejects_bad_stride(self):
        for stride in (0, 3):
            with pytest.raises(ParameterDomainError):
                shifted_poly([1.0], 0.25, "sine", stride=stride)

    def test_kind_mismatch_raises(self):
        # the kind is checked once, where the sum is built
        with pytest.raises(ParameterDomainError):
            shifted_poly([1.0, 0.5], 0.25, "tangent")


class TestHalfangleProduct:
    """halfangle_product_negated_poly is minus the derivative of
    cos(theta/2) * (1 + cos(theta) + sum_{k=2}^n cos(k theta)/(k w_k))."""

    def test_closed_form_n1(self):
        # d/dtheta [cos(theta/2)(1 + cos theta)] at pi/2
        want = -0.5 * math.sin(PI / 4) - math.cos(PI / 4)
        for got in (naive_halfangle_derivative(1, 0.7, 1.3, 0.2, 0.9, PI / 2),
                    -halfangle_product_negated_poly(1, 0.7, 1.3, 0.2, 0.9).value(PI / 2)):
            assert got == pytest.approx(want, abs=1e-14)
            assert got == pytest.approx(-1.5 * math.sqrt(2) / 2, abs=1e-14)

    def test_finite_difference_oracle(self, rng):
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(1, 51))
            alpha, beta = rng.uniform(0, 3, 2)
            lam, mu = rng.uniform(0, 1.5, 2)
            theta = rng.uniform(0.05, PI - 0.05)

            def bracket(t):
                c = naive_cosine_sum(
                    2.0, [1.0] + [1.0 / (k * qk_weight(k, alpha, beta, lam, mu))
                                  for k in range(2, n + 1)], t)
                return math.cos(0.5 * t) * c

            fd = (bracket(theta + h) - bracket(theta - h)) / (2 * h)
            poly = halfangle_product_negated_poly(n, alpha, beta, lam, mu)
            assert -poly.value(theta) == pytest.approx(fd, abs=1e-6)

    def test_brown_koumandos_case_negative(self):
        # lam = mu = 0 special case: derivative stays negative
        got = -halfangle_product_negated_poly(10, 0.0, 0.0, 0.0, 0.0).value(1.0)
        assert got < 0

    def test_negated_poly_matches(self, rng):
        for n in (1, 5, 20):
            poly = halfangle_product_negated_poly(n, 0.2, 0.4, 0.3, 0.7)
            for theta in rng.uniform(0.01, PI, 10):
                direct = naive_halfangle_derivative(n, 0.2, 0.4, 0.3, 0.7, theta)
                assert poly.value(theta) == pytest.approx(-direct, abs=1e-12)


class TestFejerKernels:
    """The Fejer-Jackson-Gronwall sum sigma_k(x) = sum_{j<=k} (k - j + 1) sin(jx)
    and h_k(x) = sin(x) + ... + sin((k-1)x) + sin(kx)/2 as sine sums."""

    @staticmethod
    def sigma(k):
        return sine_poly(np.arange(k, 0, -1.0))

    @staticmethod
    def h(k):
        return sine_poly(np.append(np.ones(k - 1), 0.5))

    def test_sigma_1_is_sine(self):
        for x in (0.1, 1.0, 2.5):
            assert self.sigma(1).value(x) == pytest.approx(math.sin(x), abs=1e-15)

    def test_h_2(self):
        for x in (0.2, 1.3):
            assert self.h(2).value(x) == pytest.approx(
                math.sin(x) + 0.5 * math.sin(2 * x), abs=1e-15)


class TestAbel:
    def test_constant_b(self):
        assert abel_resum([1.0, 1.0], [2.5, -0.5]) == pytest.approx(2.0, abs=0)

    def test_small_case(self):
        assert abel_resum([2.0, 1.0], [1.0, 1.0]) == pytest.approx(3.0, abs=0)

    def test_length_mismatch(self):
        with pytest.raises(SizeError):
            abel_resum([1.0], [1.0, 2.0])

    def test_random_dot_product_oracle(self, rng):
        for _ in range(20):
            b = rng.normal(size=100)
            c = rng.normal(size=100)
            dot = math.fsum(bk * ck for bk, ck in zip(b, c))
            assert abs(abel_resum(b, c) - dot) <= 1e-12 * np.abs(b * c).sum()

    @staticmethod
    def _roundoff_scale(b, c):
        # the rearranged route accumulates Delta-b times prefix sums; its
        # roundoff scales with those magnitudes, not with the dot product's
        cmass = sum(abs(v) for v in c)
        dmass = sum(abs(x - y) for x, y in zip(b, b[1:])) + abs(b[-1])
        return dmass * cmass + sum(abs(bk * ck) for bk, ck in zip(b, c)) + 1.0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.data())
    def test_identity_property(self, b, data):
        c = data.draw(st.lists(st.floats(-100, 100),
                               min_size=len(b), max_size=len(b)))
        dot = math.fsum(bk * ck for bk, ck in zip(b, c))
        assert abs(abel_resum(b, c) - dot) <= 1e-12 * self._roundoff_scale(b, c)


class TestProofRearrangements:
    def test_sine_symmetry_at_pi_minus_t(self):
        """S(pi - t) equals the alternating-coefficient sum at t."""
        seq = qk_sequence(25, 0.2, 0.4, 0.3, 0.7)
        coeffs = seq.values[1:]
        alt = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
        for t in (0.05, 0.4, 1.1):
            assert sine_poly(coeffs).value(PI - t) == pytest.approx(
                sine_poly(alt).value(t), abs=1e-13)

    def test_cosine_double_abel_rearrangement(self):
        """The summation-by-parts decomposition of the cosine sum (first in
        the (k+alpha)^-lam factor) equals direct evaluation."""
        alpha, beta, lam, mu = 0.6, 1.1, 0.8, 0.5
        for n in (3, 10, 47, 100):
            for theta in (0.3, 1.7, 2.9):
                b = {k: (k + alpha) ** (-lam) for k in range(2, n + 1)}
                inner = lambda k: 1.0 + math.cos(theta) + math.fsum(
                    math.cos(j * theta) / (j + beta) ** mu for j in range(2, k + 1))
                parts = (1.0 - b[2]) * (1.0 + math.cos(theta)) + b[n] * inner(n)
                parts += math.fsum((b[k] - b[k + 1]) * inner(k)
                                   for k in range(2, n))
                seq = qk_sequence(n, alpha, beta, lam, mu)
                direct = cosine_poly(seq.values[0], seq.values[1:]).value(theta)
                assert direct == pytest.approx(parts, abs=1e-10)


def test_public_surface():
    """The wrapper evaluators are gone; the bounds and closed forms stay."""
    for name in ("eval_sine_sum", "eval_cosine_sum", "eval_shifted_sum",
                 "eval_halfangle_product_derivative"):
        assert not hasattr(postrig, name)
        assert not hasattr(postrig.trigeval, name)
    assert not hasattr(TrigPolynomial, "frequencies")
    assert not hasattr(postrig.specfun, "hyp_route_fn")
    from postrig import K_closed, P_closed, lipschitz_bound
    assert lipschitz_bound is postrig.trigeval.lipschitz_bound
    assert K_closed(0.25) == P_closed(0.25, 0.0)
