"""Kernel contracts: Clenshaw, the direct sums and the chirp-z grid kernel
against naive and exact sums, and the cost models."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from postrig import TrigPolynomial, kernels, shifted_poly, trigeval
from conftest import naive_sine_sum, naive_cosine_sum, naive_trig_value


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


@pytest.mark.parametrize("n", [10_000, 20_000])
def test_grid_kernel_contract_at_large_n(n):
    """<= 1e-12 sum|c| on the certifier's initial grid and deep in a depth-14
    level, where the chirp phases k^2 dx/2 and k x0 are largest."""
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(0.0, 1.0, n) / np.arange(1, n + 1) ** 0.5
    x0, h = 1e-4, (math.pi - 2e-4) / 4095
    assert _grid_error(coeffs, x0, h, np.arange(4096)) <= 1e-12
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


def test_inverse_two_pi_constant():
    import mpmath as mp
    with mp.workprec(400):
        assert kernels._INV_TWO_PI == int(mp.floor(mp.mpf(2) ** 256 / (2 * mp.pi)))


def test_cost_model():
    grid = np.arange(4096)
    assert not kernels.chirp_cheaper(10, grid)          # low degree: Clenshaw
    assert kernels.chirp_cheaper(1000, grid)            # high degree: chirp-z
    assert not kernels.chirp_cheaper(1000, np.arange(0, 2 ** 22, 2 ** 16))  # one point a block
    assert not kernels.chirp_cheaper(kernels.GRID_MAX_DEGREE + 1, grid)
    with pytest.raises(ValueError):
        kernels.pair_sums_grid(np.ones(kernels.GRID_MAX_DEGREE + 1), 0.0, 0.1, grid[:1])


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
    """The direct sums and Clenshaw within the contract of exact sums near 0,
    pi and 2 pi, at negative angles and at |x| ~ 1e6, where the phases k x
    are largest and Clenshaw needs its exact angle reduction."""
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1.0, 1.0, n) / np.arange(1, n + 1) ** 0.25
    xs = np.array([0.0, 1e-9, -1e-7, math.pi, math.pi - 1e-9, math.pi + 1e-7,
                   2 * math.pi - 1e-9, 2 * math.pi, -2.5, 1e6 + 0.1234, -1e6 - 0.7])
    tol = kernels.error_bound(np.abs(coeffs).sum(), n)
    ref = [_exact_pair(coeffs, x) for x in xs]
    for sums in (kernels._direct_sums, kernels._clenshaw_sums):
        C, S = sums(coeffs, xs)
        for i, x in enumerate(xs):
            ref_c, ref_s = ref[i]
            assert abs(C[i] - ref_c) <= tol and abs(S[i] - ref_s) <= tol, (sums, x)


def test_direct_nonfinite_angles_give_nan_like_clenshaw():
    coeffs = np.array([0.5, -1.0, 2.0])
    xs = np.array([[math.inf, 0.3], [math.nan, -math.inf]])
    C, S = kernels._direct_sums(coeffs, xs)
    with np.errstate(invalid="ignore"):
        C2, S2 = kernels._clenshaw_sums(coeffs, xs)
    assert C.shape == S.shape == xs.shape
    assert (np.isnan(C) == np.isnan(C2)).all() and (np.isnan(S) == np.isnan(S2)).all()
    assert np.isnan(C).sum() == 3
    assert C[0, 1] == pytest.approx(C2[0, 1], abs=1e-15)


def test_direct_cost_model():
    assert kernels.direct_cheaper(400, 1)             # single points: direct
    assert kernels.direct_cheaper(4000, 16)
    assert not kernels.direct_cheaper(2, 1)           # tiny degree: Clenshaw
    assert not kernels.direct_cheaper(400, 4096)      # large batch: Clenshaw
    assert not kernels.direct_cheaper(10 ** 6, kernels.DIRECT_MAX_POINTS)
    assert not kernels.direct_cheaper(0, 1) and not kernels.direct_cheaper(400, 0)
    # a few grid points in distinct blocks: chirp-z beats Clenshaw, direct beats both
    idx = np.array([0, 5000, 9000])
    assert kernels.chirp_cheaper(4000, np.arange(4096))
    assert not kernels.chirp_cheaper(4000, idx)
    with mock.patch.object(kernels, "_direct_sums", wraps=kernels._direct_sums) as direct:
        kernels.pair_sums(np.ones(400), np.array([0.3]))
        assert direct.call_count == 1
        kernels.pair_sums(np.ones(400), np.linspace(0.0, 1.0, 4096))
        assert direct.call_count == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 5), st.floats(-5, -1e-3)),
                min_size=1, max_size=40),
       st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([1, 2]),
       st.sampled_from(["cosine", "sine"]),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
def test_values_agree_through_both_paths(coeffs, shift, stride, kind, thetas):
    """TrigPolynomial.values through the direct sums equals it through Clenshaw."""
    assume(any(coeffs[1:] if shift == 0.0 and kind == "sine" else coeffs))
    poly = shifted_poly(coeffs, shift, kind, stride)
    got = {}
    for direct in (False, True):
        # the cost model never sends an empty body (shift peel) to direct sums
        with mock.patch.object(kernels, "direct_cheaper", lambda n, m: direct and n > 0):
            got[direct] = poly.values(np.array(thetas))
    mass = sum(abs(c) for c in coeffs) or 1.0
    assert np.max(np.abs(got[True] - got[False])) <= 2 * kernels.KERNEL_TOL * mass


def test_thread_split_keeps_the_batch_kernel():
    """With more workers than DIRECT_MAX_POINTS-sized parts, every part still
    runs the kernel the whole batch would (Clenshaw), so values do not move."""
    poly = trigeval.cosine_poly(1.0, np.linspace(1.0, 0.1, 40))
    j = np.arange(4096)
    assert not kernels.chirp_cheaper(40, j)
    want = poly.values_grid(0.1, 1e-3, j)
    with mock.patch.object(kernels, "_direct_sums") as direct:
        got = poly.values_grid(0.1, 1e-3, j, workers=64)
    assert not direct.called
    assert np.array_equal(got, want)
