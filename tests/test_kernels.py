"""Kernel contracts: the direct sums and the period FFT against naive and
exact sums, and the cost model between them."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from postrig import TrigPolynomial, kernels, sine_poly, trigeval
from conftest import naive_sine_sum, naive_cosine_sum, naive_trig_value, stride_layout

PI = math.pi


def test_empty_inputs():
    C, S = kernels.pair_sums(np.array([]), np.array([0.5, 1.0]))
    assert not C.any() and not S.any()
    C, S = kernels.pair_sums(np.array([1.0]), np.array([]))
    assert C.size == 0 and S.size == 0


def test_against_naive_small():
    coeffs = [0.7, -0.3, 0.2, 1.5]
    for theta in (0.0, 1e-8, 0.3, math.pi / 2, math.pi - 1e-7, math.pi,
                  4.0, 2 * math.pi - 1e-9, 7.5, -2.3, 123.456):
        C, S = kernels.pair_sums(np.array(coeffs), np.array([theta]))
        assert C[0] == pytest.approx(naive_cosine_sum(0.0, coeffs, theta), abs=1e-13)
        assert S[0] == pytest.approx(naive_sine_sum(coeffs, theta), abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=60),
       st.floats(-20.0, 20.0))
@example(coeffs=[2.2250738585e-313] * 2, theta=3.0)
@example(coeffs=[0.0, 2.2250738585e-313], theta=1.0)
def test_against_naive_property(coeffs, theta):
    """Within the contract of the fsum reference, whose own n products may
    also underflow by a subnormal spacing each."""
    C, S = kernels.pair_sums(np.array(coeffs), np.array([theta]))
    n = len(coeffs)
    tol = kernels.error_bound(sum(abs(c) for c in coeffs), n) + n * kernels.SUBNORMAL
    assert abs(C[0] - naive_cosine_sum(0.0, coeffs, theta)) <= tol
    assert abs(S[0] - naive_sine_sum(coeffs, theta)) <= tol


def test_large_n_tolerance_contract():
    """Relative error <= 1e-12 of sum|c| for n = 1e4 on a 1000-point grid."""
    rng = np.random.default_rng(3)
    n = 10_000
    coeffs = rng.uniform(0.0, 1.0, n) / np.arange(1, n + 1) ** 0.5
    mass = np.abs(coeffs).sum()
    thetas = np.linspace(0.0, 2.0 * math.pi, 1002)[1:-1]
    C, S = kernels.pair_sums(coeffs, thetas)
    # naive reference, different summation route (per-frequency accumulation)
    ref_c = np.zeros_like(thetas)
    ref_s = np.zeros_like(thetas)
    for k in range(n):
        ref_c += coeffs[k] * np.cos((k + 1) * thetas)
        ref_s += coeffs[k] * np.sin((k + 1) * thetas)
    assert np.max(np.abs(C - ref_c)) <= 1e-12 * mass
    assert np.max(np.abs(S - ref_s)) <= 1e-12 * mass


def test_angle_reduction():
    coeffs = np.array([1.0, 0.5, 0.25])
    base = np.array([0.7])
    C0, S0 = kernels.pair_sums(coeffs, base)
    C1, S1 = kernels.pair_sums(coeffs, base + 6 * math.pi)
    assert C1[0] == pytest.approx(C0[0], abs=5e-13)
    assert S1[0] == pytest.approx(S0[0], abs=5e-13)


def test_inverse_two_pi_constant():
    import mpmath as mp
    with mp.workprec(400):
        assert kernels._INV_TWO_PI == int(mp.floor(mp.mpf(2) ** 256 / (2 * mp.pi)))


# ---------------------------------------------------------------------------
# the direct path of pair_sums

def _exact_pair(coeffs, x, bits=256):
    """(C, S) at the double (or mpmath) angle x: mpmath's cis(x) to `bits`
    bits, then the sum of c_k w^k by Horner's rule in `bits`-bit fixed-point
    Python integers."""
    import mpmath as mp
    with mp.workprec(bits + 64):
        w = mp.expj(x if isinstance(x, mp.mpf) else mp.mpf(float(x)))
        wr = int(mp.nint(w.real * 2 ** bits))
        wi = int(mp.nint(w.imag * 2 ** bits))
    re = im = 0
    for c in reversed(coeffs.tolist()):  # acc = (acc + c_k) * w, k = n .. 1
        p, q = c.as_integer_ratio()
        re += (p << bits) // q
        re, im = (re * wr - im * wi) >> bits, (re * wi + im * wr) >> bits
    return re / 2.0 ** bits, im / 2.0 ** bits


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=60),
       st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
def test_direct_against_naive_property(coeffs, thetas):
    C, S = kernels._direct_sums(np.array(coeffs), np.array(thetas))
    tol = kernels.KERNEL_TOL * (sum(abs(c) for c in coeffs) or 1.0)
    for i, t in enumerate(thetas):
        assert abs(C[i] - naive_trig_value(TrigPolynomial(cos_coeffs=coeffs), t)) <= tol
        assert abs(S[i] - naive_trig_value(TrigPolynomial(sin_coeffs=coeffs), t)) <= tol


@pytest.mark.parametrize("n", [10_000, 65_535])
def test_direct_contract_against_mpmath(n):
    """The direct sums within the contract of exact sums near 0, pi and
    2 pi, at negative angles and at |x| ~ 1e6, where the phases k x are
    largest."""
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1.0, 1.0, n) / np.arange(1, n + 1) ** 0.25
    xs = np.array([0.0, 1e-9, -1e-7, math.pi, math.pi - 1e-9, math.pi + 1e-7,
                   2 * math.pi - 1e-9, 2 * math.pi, -2.5, 1e6 + 0.1234, -1e6 - 0.7])
    tol = kernels.error_bound(np.abs(coeffs).sum(), n)
    C, S = kernels._direct_sums(coeffs, xs)
    for i, x in enumerate(xs):
        ref_c, ref_s = _exact_pair(coeffs, x)
        assert abs(C[i] - ref_c) <= tol and abs(S[i] - ref_s) <= tol, x


@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097])
def test_factored_direct_sums_at_split_edges(n):
    """k = rT + s + 1 with T = ceil(sqrt(n)), R = ceil(n/T): at n = T*R, one
    short of it and one past a square, the factored sums stay within the
    contract of exact sums."""
    T, R, ks = kernels._split(n)
    assert (T - 1) ** 2 < n <= T * T and (R - 1) * T < n <= R * T
    assert ks.tolist() == list(range(1, T + 1)) + list(range(0, R * T, T))
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1.0, 1.0, n)
    xs = np.array([1e-9, 0.7, math.pi - 1e-9, -2.5, 1e6 + 0.1234])
    tol = kernels.error_bound(np.abs(coeffs).sum(), n)
    C, S = kernels._direct_sums(coeffs, xs)
    for i, x in enumerate(xs):
        ref_c, ref_s = _exact_pair(coeffs, x)
        assert abs(C[i] - ref_c) <= tol and abs(S[i] - ref_s) <= tol, x


@pytest.mark.parametrize("n", [7, 400, 20_000])
def test_direct_value_does_not_depend_on_the_batch(n):
    """A point's sums are bitwise the same alone, in another batch and in
    another row chunk, so `find_min`'s single-point probes
    (`TrigPolynomial.value`) get the value `values` gives in any batch."""
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1.0, 1.0, n)
    xs = rng.uniform(-4.0, 4.0, 600)
    C, S = kernels._direct_sums(coeffs, xs)
    for i in (0, 17, 599):
        c1, s1 = kernels._direct_sums(coeffs, xs[i:i + 1])
        assert (c1[0], s1[0]) == (C[i], S[i])
    c2, s2 = kernels._direct_sums(coeffs, xs[::-1][:301])
    assert np.array_equal(c2, C[::-1][:301]) and np.array_equal(s2, S[::-1][:301])


def test_direct_nonfinite_angles_give_nan():
    coeffs = [0.5, -1.0, 2.0]
    xs = np.array([[math.inf, 0.3], [math.nan, -math.inf]])
    C, S = kernels._direct_sums(np.array(coeffs), xs)
    assert C.shape == S.shape == xs.shape
    assert (np.isnan(C) == np.isnan(S)).all()
    assert np.isnan(C).sum() == 3
    assert C[0, 1] == pytest.approx(naive_cosine_sum(0.0, coeffs, 0.3), abs=1e-15)
    assert S[0, 1] == pytest.approx(naive_sine_sum(coeffs, 0.3), abs=1e-15)


# ---------------------------------------------------------------------------
# the period FFT

def _mp_pair(coeffs, theta):
    """(C, S) at the mpmath angle theta, by Horner's rule in 30 digits."""
    import mpmath as mp
    with mp.workdps(30):
        z, acc = mp.expj(theta), mp.mpc(0)
        for c in coeffs[::-1]:
            acc = (acc + mp.mpf(float(c))) * z
        return acc.real, acc.imag


def _mp_lattice(M, j):
    """2 pi j/M in 30 digits."""
    import mpmath as mp
    with mp.workdps(30):
        return 2 * mp.pi * j / M


#: the distance of the float of a lattice point from the point, per unit of
#: its modulus (`certify._drift` derives it)
_ABSCISSA = 2.38 * 2.0 ** -53


@pytest.mark.parametrize("m", [2, 5, 4096, 8192, 8748])
@pytest.mark.parametrize("start", [0, 1, -1, 3])
@pytest.mark.parametrize("fold", [False, True])
def test_period_kernel_at_the_exact_lattice(m, start, fold):
    """The sums at 2 pi j/m themselves, within error_bound, for n < m and
    n >= m (the coefficients folded mod m), on index runs that start at
    start*m + 1 (start*m for start = 0): negative indices and indices past m
    are the points of their residues, and m = 2 and 5 take points past pi
    and past 2 pi."""
    n = m + 37 if fold else min(m - 1, 300)
    rng = np.random.default_rng(m + n)
    coeffs = rng.uniform(-1.0, 1.0, n) / np.arange(1, n + 1) ** 0.5
    count = 2 * m + 1 if m < 10 else m // 2 + 3
    idx = start * m + bool(start) + np.arange(count)
    C, S = kernels.pair_sums_period(coeffs, m, idx)
    assert C.shape == S.shape == (count,)
    bound = kernels.error_bound(np.abs(coeffs).sum(), n)
    for i in sorted({0, count // 3, count - 1}):
        ref_c, ref_s = _mp_pair(coeffs, _mp_lattice(m, int(idx[i])))
        assert abs(C[i] - float(ref_c)) <= bound and abs(S[i] - float(ref_s)) <= bound, i


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=120), st.integers(1, 3000),
       st.lists(st.integers(-20_000, 20_000), min_size=1, max_size=60),
       st.sampled_from([0.0, 0.25, 0.5]), st.data())
@example(coeffs=[1.0] * 50, M=3, idx=list(range(-30, 30)), shift=0.0, data=None)
@example(coeffs=[0.3, -1.0, 2.0, 0.5], M=7, idx=list(range(-20, 40)), shift=0.0,
         data=None)  # odd M, and sums past half its length
@example(coeffs=[0.5, -1.0, 2.0], M=4006, idx=[-4007, -1, 0, 2003, 2004, 4005, 4006, 12001],
         shift=0.25, data=None)  # a length with a large prime factor, shifted
def test_lattice_kernel_against_mpmath(coeffs, M, idx, shift, data):
    """At any indices, negative or past M, on lattices of any length M (odd,
    not 5-smooth, often shorter than the degree, so folded), the kernel is
    within error_bound of the exact sums at 2 pi idx/M.  A sum through
    values_period on the FFT, shifted or not, is within its roundoff bound of
    the exact sum at the floats x of its points, and of L times their
    distance from the FFT's points, at most 2.37 2^-53 |x|."""
    import mpmath as mp
    c = np.array(coeffs)
    j = np.array(idx)
    C, S = kernels.pair_sums_period(c, M, j)
    bound = kernels.error_bound(np.abs(c).sum(), c.size)
    picks = range(min(j.size, 7)) if data is None else \
        data.draw(st.lists(st.integers(0, j.size - 1), min_size=1, max_size=4))
    for i in picks:
        ref_c, ref_s = _mp_pair(c, _mp_lattice(M, int(j[i])))
        assert abs(C[i] - float(ref_c)) <= bound and abs(S[i] - float(ref_s)) <= bound, i
    # a point's value does not depend on the order or the shape of its batch
    C2, S2 = kernels.pair_sums_period(c, M, j[::-1, None])
    assert np.array_equal(C2[::-1, 0], C) and np.array_equal(S2[::-1, 0], S)
    poly = TrigPolynomial(cos_coeffs=c[::-1], sin_coeffs=c, shift=shift) if shift else \
        TrigPolynomial(1.0, c[::-1], c)
    with mock.patch.object(trigeval, "period_cheaper", lambda n, M, idx: True):
        got = poly.values_period(M, j)
    x = j * (2 * math.pi / M)
    for i in picks:
        with mp.workdps(30):
            theta = mp.mpf(float(x[i]))
            want = 0.5 * mp.mpf(poly.a0) + sum(
                mp.mpf(float(cf)) * trig(mp.mpf(float(nu)) * theta)
                for (nus, cs), trig in zip(poly.terms(), (mp.cos, mp.sin))
                for nu, cf in zip(nus, cs))
        tol = trigeval.roundoff_bound(poly) + \
            trigeval.lipschitz_bound(poly) * _ABSCISSA * abs(float(x[i]))
        assert abs(got[i] - float(want)) <= tol, i


@pytest.mark.parametrize("n", [10_000, 20_000, 70_000])
def test_period_kernel_contract_at_large_n(n):
    """<= error_bound against exact sums (256-bit Horner) on the certifier's
    level-0 lattice and on its level-1 midpoints, one real FFT of twice the
    length; the coefficients are folded over up to 9 periods, and above
    degree 65535 the multipliers k pass 2^16."""
    import mpmath as mp
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(0.0, 1.0, n) / np.arange(1, n + 1) ** 0.5
    bound = kernels.error_bound(np.abs(coeffs).sum(), n)
    for M, idx in ((8192, np.arange(1, 4096)), (16384, np.arange(1, 8190, 2))):
        C, S = kernels.pair_sums_period(coeffs, M, idx)
        for i in (0, 1234, idx.size - 1):
            with mp.workprec(320):
                theta = 2 * mp.pi * int(idx[i]) / M
            ref_c, ref_s = _exact_pair(coeffs, theta)
            assert abs(C[i] - ref_c) <= bound and abs(S[i] - ref_s) <= bound, (M, i)


@pytest.mark.parametrize("M", [8160, 8191, 4006, 1])
def test_period_kernel_any_index(M):
    """Within error_bound of the exact sums at 2 pi idx/M for negative
    indices, indices past M and both halves of the real FFT's range, on a
    5-smooth, a prime, a non-5-smooth and the one-point lattice."""
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=300)
    idx = np.array([-123456, -M - 1, -M, -5, -1, 0, 1, M // 2, M // 2 + 1, M - 1, M,
                    M + 3, 9000, 123456])
    C, S = kernels.pair_sums_period(coeffs, M, idx)
    bound = kernels.error_bound(np.abs(coeffs).sum(), coeffs.size)
    for i, j in enumerate(idx.tolist()):
        ref_c, ref_s = _exact_pair(coeffs, _mp_lattice(M, j))
        assert abs(C[i] - ref_c) <= bound and abs(S[i] - ref_s) <= bound, j
        k = j % M  # the same point as its residue
        assert (C[i], S[i]) == tuple(v[0] for v in kernels.pair_sums_period(coeffs, M, [k]))


def test_period_kernel_empty():
    C, S = kernels.pair_sums_period(np.array([]), 16, np.arange(5))
    assert C.shape == S.shape == (5,) and not C.any() and not S.any()
    C, S = kernels.pair_sums_period(np.array([1.0]), 16, np.array([], dtype=int))
    assert C.size == S.size == 0


@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("start", [0, -4096])
def test_period_kernel_underflow_term(n, start):
    """Scaled exactly inside the kernel: coefficients of 2^-1040 .. 2^-1070
    stay within error_bound against the direct sums of their normal images
    (the points' floats move them by far less than a subnormal spacing)."""
    m = 4096
    idx = start + np.arange(m // 2)
    points = idx * (2 * math.pi / m)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        coeffs = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n),
                          -rng.integers(1040, 1071, n))
        C, S = kernels.pair_sums_period(coeffs, m, idx)
        ref_c, ref_s = kernels._direct_sums(np.ldexp(coeffs, 1100), points)
        bound = kernels.error_bound(np.abs(coeffs).sum(), n)
        assert np.abs(C - np.ldexp(ref_c, -1100)).max() <= bound
        assert np.abs(S - np.ldexp(ref_s, -1100)).max() <= bound


@pytest.mark.parametrize("first", [0, 1, 140, -2300])
def test_period_values_of_a_shifted_stride_two_sum(first):
    """values_period peels shift 0.25 at the floats of the lattice points and
    runs the body, its skipped frequencies laid out as zeros, over m points;
    against mpmath at the float step's lattice j h, h = 2 pi/m rounded, the
    value is within the roundoff bound and the abscissa term L 2.38 2^-53
    |j h| (`certify._drift`)."""
    m, count = 8748, 2300
    rng = np.random.default_rng(7)
    poly = stride_layout(0.0, rng.normal(size=300), rng.normal(size=200), 0.25, 2)
    idx = first + np.arange(count)
    got = poly.values_period(m, idx)
    h = 2 * math.pi / m
    L = trigeval.lipschitz_bound(poly)
    import mpmath as mp
    for i in (0, 1, 1000, count - 1):
        j = int(idx[i])
        with mp.workdps(30):
            theta = j * mp.mpf(h)
            want = sum(mp.mpf(float(c)) * trig(mp.mpf(float(nu)) * theta)
                       for (nu_c, c_c), trig in zip(poly.terms(), (mp.cos, mp.sin))
                       for nu, c in zip(nu_c, c_c))
        tol = trigeval.roundoff_bound(poly) + L * _ABSCISSA * abs(j * h)
        assert abs(got[i] - float(want)) <= tol, j


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 5), st.floats(-5, -1e-3)),
                min_size=1, max_size=40),
       st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([1, 2]),
       st.sampled_from(["cosine", "sine"]),
       st.integers(130, 2 ** 17), st.lists(st.integers(-3000, 3000), min_size=1, max_size=30),
       st.booleans())
def test_values_period_matches_values(coeffs, shift, stride, kind, M, idx, fft):
    """values_period(M, idx) == values(idx*(2 pi/M)) through either path, up
    to the roundoff and L times the distance of the floats from the FFT's
    points (see test_lattice_kernel_against_mpmath)."""
    assume(any(coeffs[1:] if shift == 0.0 and kind == "sine" else coeffs))
    poly = trigeval.shifted_poly(coeffs, shift, kind, stride)
    j = np.array(idx)
    with mock.patch.object(trigeval, "period_cheaper", lambda n, M, idx: fft):
        got = poly.values_period(M, j)
    x = j * (2 * math.pi / M)
    want = poly.values(x)
    if not fft:
        assert np.array_equal(got, want)
    mass = sum(abs(c) for c in coeffs) or 1.0
    drift = trigeval.lipschitz_bound(poly) * _ABSCISSA * np.abs(x)
    assert (np.abs(got - want) <= 2e-12 * mass + drift).all()


def test_cost_model():
    """One comparison, the real FFT of the batch's lattice against the
    direct sums at its points.  Every benchmark window takes the FFT at level
    0, and its odd level-1 midpoints at every degree; a window that holds
    few of its lattice's points, a sparse deep level and single points take
    the direct sums."""
    for lo, hi in ((0.0, math.pi), (1e-4, math.pi - 1e-4), (0.0, 2 * math.pi),
                   (0.1, math.pi - 0.1), (-1.0, 1.0)):
        m, first, last = kernels.period_lattice(lo, hi, 4096)
        idx = np.arange(first, last + 1)
        assert all(kernels.period_cheaper(n, m, idx) for n in (1, 20, 400, 4000, 20001))
        odd = 2 * idx[:-1] + 1
        assert all(kernels.period_cheaper(n, 2 * m, odd) for n in (1, 20, 1000, 4000))
    # [1, 1.3] holds 5% of its m = 86400 points, and the FFT still wins;
    # [2, 2.01] holds 0.16% of its m, and loses up to degree 4000
    m, first, last = kernels.period_lattice(1.0, 1.3, 4096)
    assert m == 86400
    idx = np.arange(first, last + 1)
    assert all(kernels.period_cheaper(n, m, idx) for n in (1, 20, 400, 4000))
    m, first, last = kernels.period_lattice(2.0, 2.01, 4096)
    idx = np.arange(first, last + 1)
    assert not any(kernels.period_cheaper(n, m, idx) for n in (1, 20, 400, 4000))
    assert kernels.period_cheaper(20001, m, idx)
    # 3 cells at depth 12, and single points
    assert not kernels.period_cheaper(4000, 8192 << 12, np.array([4001, 80003, 3_000_001]))
    assert not kernels.period_cheaper(20, 8192, np.array([17]))
    assert kernels.period_cheaper(0, 8192 << 12, np.array([3]))
    assert kernels.MAX_DEGREE == 2 ** 32 - 1


def test_sparse_deep_batch_takes_the_direct_sums():
    """3 cells left at depth 12 of a highdeg certificate: the direct sums
    at the points' floats, and no FFT is allocated; a dense level-1 batch
    of the same degree takes one real FFT of length 16384."""
    poly = sine_poly(np.random.default_rng(4).uniform(0.5, 1.0, 2000))
    M, idx = 8192 << 12, np.array([4001, 80003, 3_000_001])
    with mock.patch.object(trigeval, "pair_sums_period") as fft, \
            mock.patch.object(np.fft, "rfft") as rfft:
        got = poly.values_period(M, idx)
    assert not (fft.called or rfft.called)
    assert np.array_equal(got, poly.values(idx * (2 * math.pi / M)))
    odd = np.arange(1, 8190, 2)
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        poly.values_period(16384, odd)
    assert rfft.call_count == 1 and rfft.call_args[0][0].size == 16384


def test_arbitrary_angles_take_the_direct_sums():
    with mock.patch.object(kernels, "_direct_sums", wraps=kernels._direct_sums) as direct:
        kernels.pair_sums(np.ones(400), np.array([0.3]))
        kernels.pair_sums(np.ones(400), np.linspace(0.0, 1.0, 4096))
        assert direct.call_count == 2


#: 2 pi rounded down and up to 28 digits
_TWO_PI_DOWN = Fraction("6.283185307179586476925286766")
_TWO_PI_UP = Fraction("6.283185307179586476925286767")


def _inside(j, m, lo, hi):
    """Whether the point 2 pi j/m (for either bound on 2 pi) and the float
    step's point j*(2 pi/m) both lie on [lo, hi]."""
    h = Fraction(2 * math.pi / m)
    return all(Fraction(lo) <= x <= Fraction(hi)
               for x in (j * _TWO_PI_DOWN / m, j * _TWO_PI_UP / m, j * h))


@pytest.mark.parametrize("lo, hi, count, want", [
    (0.0, math.pi, 4096, (8192, 0, 4095)),            # pi itself is past math.pi
    (1e-4, math.pi - 1e-4, 4096, (8192, 1, 4095)),
    (0.0, 2 * math.pi, 4096, (4096, 0, 4095)),
    (0.1, math.pi - 0.1, 4096, (8748, 140, 4234)),
    (1.2, 8.966370614359173, 3, (2, 1, 2)),
    (0.0, 3.0, 4096, (8640, 0, 4125)),
    (-1.0, 1.0, 4096, (12960, -2062, 2062)),
    (2.0, 2.01, 4096, (2592000, 825060, 829184)),
    (-7.0, -6.5, 3, (27, -30, -28)),
    # m = 24 fits the step but holds no point: 11 h lies before lo, and the
    # point 12, pi itself, past math.pi; the next length holds one
    (2.8797932657906435, PI, 2, (25, 12, 12)),
])
def test_period_lattice(lo, hi, count, want):
    """Today's m, the smallest 5-smooth length whose step fits count - 1
    times into hi - lo, and the first and last indices of its points 2 pi
    j/m on [lo, hi], each inside as an exact point and on the float step,
    and the indices next to them outside."""
    m, first, last = kernels.period_lattice(lo, hi, count)
    assert (m, first, last) == want
    assert _inside(first, m, lo, hi) and _inside(last, m, lo, hi)
    assert not _inside(first - 1, m, lo, hi) and not _inside(last + 1, m, lo, hi)
    span = Fraction(hi) - Fraction(lo)
    below = next((k for k in range(m - 1, 0, -1) if kernels._fft_length(k) == k), None)
    if below:  # the next smaller candidate's step does not fit, or it holds no point
        first = -kernels._last_in(-Fraction(lo), below)
        last = kernels._last_in(Fraction(hi), below)
        assert kernels._last_in(span, below) + 1 < count or first > last
