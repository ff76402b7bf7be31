"""Kernel contracts: the direct sums and the chirp-z grid kernel against
naive and exact sums, and the cost model between them."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from postrig import TrigPolynomial, kernels, trigeval
from conftest import naive_sine_sum, naive_cosine_sum, naive_trig_value, stride_layout


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


# ---------------------------------------------------------------------------
# the uniform-grid kernel

def _naive_pair(coeffs, thetas):
    """Per-frequency sums at the double points thetas, in row chunks."""
    ks = np.arange(1, coeffs.size + 1, dtype=np.float64)
    C = np.empty(thetas.size)
    S = np.empty(thetas.size)
    for i in range(0, thetas.size, 256):
        arg = np.outer(thetas[i:i + 256], ks)
        C[i:i + 256] = np.cos(arg) @ coeffs
        S[i:i + 256] = np.sin(arg) @ coeffs
    return C, S


def _grid_error(coeffs, x0, dx, idx):
    C, S = kernels.pair_sums_grid(coeffs, x0, dx, idx)
    ref_c, ref_s = _naive_pair(coeffs, x0 + idx * dx)
    return max(np.abs(C - ref_c).max(), np.abs(S - ref_s).max()) / np.abs(coeffs).sum()


@pytest.mark.parametrize("n", [10_000, 20_000, 70_000])
def test_grid_kernel_contract_at_large_n(n):
    """<= 1e-12 sum|c| on the certifier's initial grid and deep in a depth-14
    level, where the chirp phases k^2 dx/2 and k x0 are largest.  Above
    degree 65535 the squares k^2 exceed 2^32; the initial grid is checked on
    a 64-point subset there, to keep the naive reference cheap."""
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(0.0, 1.0, n) / np.arange(1, n + 1) ** 0.5
    x0, h = 1e-4, (math.pi - 2e-4) / 4095
    grid = np.arange(4096) if n < 65_536 else np.sort(rng.choice(4096, 64, replace=False))
    assert _grid_error(coeffs, x0, h, grid) <= 1e-12
    deep = np.sort(rng.integers(0, 4095 * 2 ** 13, 64)) * 2 + 1
    assert _grid_error(coeffs, x0, h / 2 ** 14, deep) <= 1e-12


@pytest.mark.parametrize("x0", [0.0, 1e-9, math.pi - 1e-9, math.pi, -3.7, 13.1,
                                2 * math.pi + 1e-3])
def test_grid_kernel_origins(x0):
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=300)
    idx = np.concatenate([np.arange(-5, 40), [4095, 4096, 9000, 123456]])
    assert _grid_error(coeffs, x0, 7.7e-4, idx) <= 1e-12


def test_grid_kernel_empty_and_small():
    C, S = kernels.pair_sums_grid(np.array([]), 0.1, 0.01, np.arange(5))
    assert not C.any() and not S.any()
    C, S = kernels.pair_sums_grid(np.array([1.0]), 0.1, 0.01, np.array([], dtype=int))
    assert C.size == 0 and S.size == 0
    C, S = kernels.pair_sums_grid(np.array([2.0]), 0.25, 0.5, np.array([3]))
    assert C[0] == pytest.approx(2.0 * math.cos(1.75), abs=2e-12)
    assert S[0] == pytest.approx(2.0 * math.sin(1.75), abs=2e-12)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_grid_kernel_underflow_term(n):
    """Coefficients of 2^-1040 .. 2^-1070 on the certifier's initial grid stay
    within error_bound against the direct sums of the coefficients scaled
    exactly by 2^1100 (all normal) and scaled back; unscaled, the FFTs'
    subnormal products broke it by up to 2.0x at n = 1."""
    x0, h = 1e-4, (math.pi - 2e-4) / 4095
    idx = np.arange(4096)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        coeffs = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n),
                          -rng.integers(1040, 1071, n))
        C, S = kernels.pair_sums_grid(coeffs, x0, h, idx)
        ref_c, ref_s = kernels._direct_sums(np.ldexp(coeffs, 1100), x0 + idx * h)
        bound = kernels.error_bound(np.abs(coeffs).sum(), n)
        assert np.abs(C - np.ldexp(ref_c, -1100)).max() <= bound
        assert np.abs(S - np.ldexp(ref_s, -1100)).max() <= bound


def test_sub_lattice():
    assert kernels.sub_lattice(np.arange(4096)) == (0, 1)
    assert kernels.sub_lattice(np.arange(1, 8191, 2)) == (1, 2)
    assert kernels.sub_lattice(np.array([[13, 5], [9, 29]])) == (5, 4)
    assert kernels.sub_lattice(np.array([-3, 5, 13])) == (-3, 8)
    assert kernels.sub_lattice(np.array([7, 7])) == (7, 1)
    assert kernels.sub_lattice(np.array([], dtype=np.int64)) == (0, 1)


_ODD = np.arange(1, 8 * 4095, 2)


@pytest.mark.parametrize("idx", [
    _ODD[::3],                                           # odd: step 2
    _ODD[1::10] + 2,                                     # step 4
    np.array([[32001, 5, 4097], [12289, 77, 9]]),       # unsorted, step 4
    np.array([12345]),                                   # a single index
], ids=["odd", "stride-4", "unsorted", "single"])
def test_sub_lattice_chirp_matches_direct(idx):
    """Chirp-z over q, idx = r + s*q, with the step s*dx, equals the direct
    sums at x0 + idx*dx."""
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=700)
    x0, dx = 1e-4, (math.pi - 2e-4) / 4095 / 8
    C, S = kernels.pair_sums_grid(coeffs, x0, dx, idx)
    assert C.shape == S.shape == idx.shape
    ref_c, ref_s = kernels._direct_sums(coeffs, x0 + idx * dx)
    mass = np.abs(coeffs).sum()
    assert max(np.abs(C - ref_c).max(), np.abs(S - ref_s).max()) <= 1e-12 * mass


def test_level_one_reuses_the_level_zero_plan():
    """A level's odd midpoints at h/2 lie on the step-h lattice: they reuse
    the step-h plan, and all 4095 fill one block where two were used."""
    coeffs = np.random.default_rng(2).normal(size=1000)
    x0, h = 1e-4, (math.pi - 2e-4) / 4095
    kernels._chirp_plan.cache_clear()
    kernels.pair_sums_grid(coeffs, x0, h, np.arange(4096))
    before = kernels._chirp_plan.cache_info()
    with mock.patch.object(kernels.np.fft, "fft", wraps=np.fft.fft) as fft:
        kernels.pair_sums_grid(coeffs, x0, h / 2, np.arange(1, 8190, 2))
    after = kernels._chirp_plan.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    assert fft.call_count == 1


def test_one_plan_serves_every_degree_of_its_length():
    """Degrees 100 and 224 both pad to 4320 points: the first builds the
    plan, the second reuses it, and each stays within the contract of the
    direct sums."""
    x0, h = 1e-4, (math.pi - 2e-4) / 4095
    idx = np.arange(4096)
    rng = np.random.default_rng(5)
    kernels._chirp_plan.cache_clear()
    for n in (100, 224):
        assert kernels._fft_length(n + kernels.GRID_BLOCK) == 4320
        coeffs = rng.normal(size=n)
        C, S = kernels.pair_sums_grid(coeffs, x0, h, idx)
        ref_c, ref_s = kernels._direct_sums(coeffs, x0 + idx * h)
        bound = kernels.error_bound(np.abs(coeffs).sum(), n)
        assert max(np.abs(C - ref_c).max(), np.abs(S - ref_s).max()) <= bound
    info = kernels._chirp_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_values_do_not_depend_on_the_cached_plans():
    """One batch is bitwise the same from a cold cache, from the plan another
    degree of its length built, and after CHIRP_PLANS other steps evicted
    that plan."""
    coeffs = np.random.default_rng(6).normal(size=150)
    x0, h = 1e-4, (math.pi - 2e-4) / 4095
    idx = np.arange(1, 8190, 2)

    def batch():
        C, S = kernels.pair_sums_grid(coeffs, x0, h / 2, idx)
        return C.tobytes() + S.tobytes()

    kernels._chirp_plan.cache_clear()
    cold = batch()
    kernels._chirp_plan.cache_clear()
    kernels.pair_sums_grid(coeffs[:40], x0, h / 2, idx)   # degree 40, length 4320
    before = kernels._chirp_plan.cache_info()
    warm = batch()
    assert kernels._chirp_plan.cache_info().hits == before.hits + 1
    for i in range(kernels.CHIRP_PLANS):
        kernels.pair_sums_grid(coeffs, x0, h * (i + 2), idx)
    before = kernels._chirp_plan.cache_info()
    evicted = batch()
    assert kernels._chirp_plan.cache_info().misses == before.misses + 1
    assert warm == cold and evicted == cold


def test_inverse_two_pi_constant():
    import mpmath as mp
    with mp.workprec(400):
        assert kernels._INV_TWO_PI == int(mp.floor(mp.mpf(2) ** 256 / (2 * mp.pi)))


def test_cost_model():
    grid = np.arange(4096)
    assert kernels.chirp_cheaper(10, grid)              # low degree: chirp-z
    assert kernels.chirp_cheaper(1000, grid)            # high degree: chirp-z
    assert kernels.chirp_cheaper(70_000, grid)          # above 65535: chirp-z
    assert not kernels.chirp_cheaper(1000, np.arange(512) * 4097)  # one point a block
    assert kernels.chirp_cheaper(1000, np.arange(512) * 4096)      # one sub-lattice block
    assert not kernels.chirp_cheaper(1000, np.array([0, 5000, 9000]))       # scattered: direct
    assert not kernels.chirp_cheaper(10, grid[:3])      # a few points: direct
    assert not kernels.chirp_cheaper(0, grid)
    assert kernels.MAX_DEGREE == 2 ** 32 - 1


def test_square_phases_are_exact_up_to_the_degree_limit():
    """The chirp phases k^2 dx/2, split as (k^2 >> 32) * 2^32 dx/2 +
    (k^2 mod 2^32) * dx/2, within 2 units of 2^-64 turn of the turns of
    k^2 dx/2 formed in Python integers, for k up to MAX_DEGREE.  Taking the
    high part's turns by shifting the 96-bit turns of dx/2 instead leaves
    errors of ~3e9 units (~2^-32 turn) at k = 2^32 - 1."""
    ks = [0, 1, 65_535, 65_536, 70_000, 2 ** 31 + 7, kernels.MAX_DEGREE]
    for dx in (1.2345e-3, (math.pi - 2e-4) / 4095 / 2 ** 14, 3.0, 1e6 + 0.1):
        p, q = dx.as_integer_ratio()
        got = kernels._square_phases(np.array(ks, dtype=np.uint64), dx)
        for k, phase in zip(ks, got.tolist()):
            exact = kernels._turns(k * k * p, 2 * q) >> 32
            assert min((phase - exact) % 2 ** 64, (exact - phase) % 2 ** 64) <= 2, (dx, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 5), st.floats(-5, -1e-3)),
                min_size=1, max_size=40),
       st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([1, 2]),
       st.sampled_from(["cosine", "sine"]), st.floats(-7.0, 7.0),
       st.floats(1e-6, 0.05), st.lists(st.integers(-3000, 3000), min_size=1, max_size=30),
       st.booleans())
def test_values_grid_matches_values(coeffs, shift, stride, kind, t0, dt, idx, chirp):
    """values_grid(t0, dt, idx) == values(t0 + idx*dt) through either kernel."""
    assume(any(coeffs[1:] if shift == 0.0 and kind == "sine" else coeffs))
    poly = trigeval.shifted_poly(coeffs, shift, kind, stride)
    j = np.array(idx)
    with mock.patch.object(trigeval, "chirp_cheaper", lambda n, idx: chirp):
        got = poly.values_grid(t0, dt, j)
    want = poly.values(t0 + j * dt)
    mass = sum(abs(c) for c in coeffs) or 1.0
    assert np.max(np.abs(got - want)) <= 2e-12 * mass


# ---------------------------------------------------------------------------
# the direct path of pair_sums

def _exact_pair(coeffs, x, bits=256):
    """(C, S) at the double x: mpmath's cis(x) to `bits` bits, then the sum
    of c_k w^k by Horner's rule in `bits`-bit fixed-point Python integers."""
    import mpmath as mp
    with mp.workprec(bits + 64):
        w = mp.expj(mp.mpf(float(x)))
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


def test_direct_cost_model():
    # a few grid points in distinct blocks: direct beats chirp-z
    assert kernels.chirp_cheaper(4000, np.arange(4096))
    assert not kernels.chirp_cheaper(4000, np.array([0, 5000, 9000]))
    # arbitrary angles always take the direct sums, one point or a large batch
    with mock.patch.object(kernels, "_direct_sums", wraps=kernels._direct_sums) as direct:
        kernels.pair_sums(np.ones(400), np.array([0.3]))
        kernels.pair_sums(np.ones(400), np.linspace(0.0, 1.0, 4096))
        assert direct.call_count == 2


# ---------------------------------------------------------------------------
# the period FFT

def test_period_cost_model():
    # the scans' windows, [0, pi], its inset [1e-4, pi - 1e-4], [0, 2 pi] and
    # [0.1, pi - 0.1], take the FFT at every degree; [1, 1.3] holds 5% of
    # its m = 86400 points, and chirp-z at them is cheaper
    for lo, hi in ((0.0, math.pi), (1e-4, math.pi - 1e-4), (0.0, 2 * math.pi),
                   (0.1, math.pi - 0.1)):
        m, last, _ = kernels.period_lattice(lo, hi, 4096)
        assert all(kernels.period_cheaper(n, m, last + 1) for n in (1, 20, 400, 4000, 20001))
    m, last, _ = kernels.period_lattice(1.0, 1.3, 4096)
    assert m == 86400
    assert not any(kernels.period_cheaper(n, m, last + 1) for n in (1, 20, 400, 4000))
    assert kernels.period_cheaper(0, m, last + 1)


def _mp_pair(coeffs, theta):
    """(C, S) at the mpmath angle theta, by Horner's rule in 30 digits."""
    import mpmath as mp
    with mp.workdps(30):
        z, acc = mp.expj(theta), mp.mpc(0)
        for c in coeffs[::-1]:
            acc = (acc + mp.mpf(float(c))) * z
        return acc.real, acc.imag


def _mp_lattice(x0, m, j):
    """x0 + 2 pi j/m in 30 digits."""
    import mpmath as mp
    with mp.workdps(30):
        return mp.mpf(x0) + 2 * mp.pi * j / m


@pytest.mark.parametrize("m", [2, 5, 4096, 8192, 8748])
@pytest.mark.parametrize("x0", [0.0, 1e-4, 0.1, 1.2])
@pytest.mark.parametrize("fold", [False, True])
def test_period_kernel_at_the_exact_lattice(m, x0, fold):
    """The sums at x0 + 2 pi j/m themselves, within error_bound, for n < m
    and n >= m (the coefficients folded mod m); m = 2 and 5 take points past
    pi and past 2 pi, the latter equal to points of the first period."""
    n = m + 37 if fold else min(m - 1, 300)
    rng = np.random.default_rng(m + n)
    coeffs = rng.uniform(-1.0, 1.0, n) / np.arange(1, n + 1) ** 0.5
    count = 2 * m + 1 if m < 10 else m // 2 + 3
    C, S = kernels.pair_sums_period(coeffs, x0, m, count)
    assert C.shape == S.shape == (count,)
    bound = kernels.error_bound(np.abs(coeffs).sum(), n)
    for j in sorted({0, count // 3, count - 1}):
        ref_c, ref_s = _mp_pair(coeffs, _mp_lattice(x0, m, j))
        assert abs(C[j] - float(ref_c)) <= bound and abs(S[j] - float(ref_s)) <= bound, j


def test_period_kernel_empty():
    C, S = kernels.pair_sums_period(np.array([]), 0.3, 16, 5)
    assert C.shape == S.shape == (5,) and not C.any() and not S.any()


@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("x0", [0.0, 1e-4])
def test_period_kernel_underflow_term(n, x0):
    """Scaled exactly inside the kernel, like chirp-z: coefficients of
    2^-1040 .. 2^-1070 stay within error_bound against the direct sums of
    their normal images (the points' floats move them by far less than a
    subnormal spacing)."""
    m = 4096
    points = x0 + np.arange(m // 2) * (2 * math.pi / m)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        coeffs = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n),
                          -rng.integers(1040, 1071, n))
        C, S = kernels.pair_sums_period(coeffs, x0, m, m // 2)
        ref_c, ref_s = kernels._direct_sums(np.ldexp(coeffs, 1100), points)
        bound = kernels.error_bound(np.abs(coeffs).sum(), n)
        assert np.abs(C - np.ldexp(ref_c, -1100)).max() <= bound
        assert np.abs(S - np.ldexp(ref_s, -1100)).max() <= bound


@pytest.mark.parametrize("x0", [0.0, 1e-4, 0.1, 1.2])
def test_period_values_of_a_shifted_stride_two_sum(x0):
    """values_period peels shift 0.25 at the floats of the lattice points and
    runs the body, its skipped frequencies laid out as zeros, over m points;
    against mpmath at the float step's lattice x0 + j h, h = 2 pi/m rounded,
    the value is within the roundoff bound and the abscissa term
    L (j/m) 4 pi 2^-53."""
    m, count = 8748, 2300
    rng = np.random.default_rng(7)
    poly = stride_layout(0.0, rng.normal(size=300), rng.normal(size=200), 0.25, 2)
    got = poly.values_period(x0, m, count)
    h = 2 * math.pi / m
    L = trigeval.lipschitz_bound(poly)
    import mpmath as mp
    for j in (0, 1, 1000, count - 1):
        with mp.workdps(30):
            theta = mp.mpf(x0) + j * mp.mpf(h)
            want = sum(mp.mpf(float(c)) * trig(mp.mpf(float(nu)) * theta)
                       for (nu_c, c_c), trig in zip(poly.terms(), (mp.cos, mp.sin))
                       for nu, c in zip(nu_c, c_c))
        tol = trigeval.roundoff_bound(poly) + L * (j / m) * 4 * math.pi * 2.0 ** -53
        assert abs(got[j] - float(want)) <= tol, j


@pytest.mark.parametrize("lo, hi, count, want", [
    (0.0, math.pi, 4096, (8192, 4095)),            # pi itself is past math.pi
    (1e-4, math.pi - 1e-4, 4096, (8192, 4095)),
    (0.0, 2 * math.pi, 4096, (4096, 4095)),
    (0.1, math.pi - 0.1, 4096, (8748, 4095)),
    (1.2, 8.966370614359173, 3, (2, 2)),
    (0.0, 3.0, 4096, (8640, 4125)),
])
def test_period_lattice(lo, hi, count, want):
    """The smallest 5-smooth length with count points on [lo, hi], none past
    hi as an exact point or on the float step."""
    m, last, gap = kernels.period_lattice(lo, hi, count)
    assert (m, last) == want
    h = Fraction(2 * math.pi / m)
    assert gap == Fraction(hi) - Fraction(lo) - last * h >= 0
    two_pi_up = Fraction("6.2831853071795864769252867666")  # 2 pi + 2e-29
    assert Fraction(lo) + last * two_pi_up / m <= Fraction(hi)
    below = next((k for k in range(m - 1, 0, -1) if kernels._fft_length(k) == k), None)
    if below:  # the next smaller candidate holds too few points
        assert kernels._period_last(Fraction(hi) - Fraction(lo), below) + 1 < count
