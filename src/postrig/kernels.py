"""Evaluation kernels: one contract, three paths.

Every path returns the pair of sums

    C(x) = sum_{k=1}^n c_k cos(k x)    and    S(x) = sum_{k=1}^n c_k sin(k x)

and meets one contract, ``error_bound(sum |c_k|, n)``: the error of either
sum is at most

    KERNEL_TOL * sum |c_k|  +  (n + 1) * 2^-1074

at every point.  The first term is the roundoff of the normal range.  The
second is underflow: a product whose result is subnormal is off by at most
half the subnormal spacing 2^-1074, whatever its size; in the direct sums
the 2n coefficient products reach each sum through the cos and sin of one
phase (sqrt(2) together at most) and 2R more products follow (R below),
less than n + 1 spacings in all.  The two FFT paths serve sums at any
scale: they scale the coefficients by the power of two that brings
max |c_k| into [1, 2) and scale the sums back.  The scaling is exact; an
underflow inside the FFTs is then below 2^-1074 max |c_k|, far inside the
roundoff term, and only the scaling back of a subnormal sum rounds, by at
most half the subnormal spacing.

``pair_sums(coeffs, x)`` takes any angles and runs ``_direct_sums``.  With
T = ceil(sqrt(n)), R = ceil(n/T) and k = r*T + s + 1 (0 <= s < T,
0 <= r < R),

    C + iS = sum_r exp(i rT x) * sum_s c_{rT+s+1} exp(i (s+1) x),

so each angle needs the T + R phases (s+1) x and rT x, each formed exactly
(see below), instead of n; the inner sums are one (R x T) @ (T x 2) matrix
product per point (the same call whatever the batch, so a point's value
does not depend on the other points), and one sum over the R rows follows.
The worst-case roundoff is about (T + R + 5) * 2^-53 * sum |c_k|, which
stays below KERNEL_TOL * sum |c_k| up to n ~ 2e7; a flat sum over all n
terms exceeds it from n ~ 9000.  Angles are taken in row chunks of about
``_DIRECT_CHUNK`` phases, so the working set stays O(sqrt(n)) per point.
A non-finite angle gives nan.

``pair_sums_grid(coeffs, x0, dx, idx)`` evaluates at the grid points
x0 + idx*dx (idx an integer array) by blocked Bluestein chirp-z through
numpy.fft.  The indices are written idx = r + s*q (`sub_lattice`: r the
smallest index, s the largest power of two dividing every idx - r), and
chirp-z runs over q with the step s*dx, which is exact because s is a power
of two.  With k*j = (k^2 + j^2 - (j - k)^2)/2 the sums over one block of
``GRID_BLOCK`` consecutive q become one convolution with the chirp
exp(-i m^2 s dx/2); only blocks that hold a requested index are computed,
and each block's lead phase is taken exactly from r + s*first.  The
certifier's odd midpoints at depth d thus fill half as many blocks as their
index range.

``pair_sums_period(coeffs, x0, m, count)`` evaluates at the points
x0 + 2*pi*j/m themselves, j < count, not at their floats, by one FFT of
length m: the coefficients times their exact lead phases exp(i k x0) (a
plain real FFT when x0 = 0), folded modulo m when n >= m, which adds at
most (n/m) 2^-53 sum |c_k| of rounding.  It needs no plan.
`period_lattice` picks m for a window: the smallest 5-smooth length whose
lattice holds the points asked for, none of them past the window's end.
The certifier's level-0 scan is this path wherever the cost model
(`period_cheaper`) finds it cheaper than the other two at the same points,
which fails only on a window that holds few of the m points; its
refinement, on the dyadic sub-lattices of the same step, is chirp-z.

The plan -- the chirp and the FFT of the convolution kernel -- depends on
the padded length N and the step only, not on the degree: it is built for
the largest degree N serves, N - GRID_BLOCK, and at a smaller degree n the
kernel's lags below -n meet only zero coefficients.  Up to
``CHIRP_PLANS`` plans are kept, least recently used first out, so every
degree with one padded length shares a plan (degrees 1 .. 224 all pad to
4320), and at depth 1 the step 2*(h/2) = h reuses the plan of the
level-0 lattice's f' batch.  A plan is a function of its key alone, so a
batch's values do not depend on which plans earlier calls left in the
cache.

Exact phases: angles become 96-bit fixed-point fractions of a turn (Python
integers times a 256-bit 1/(2 pi)), and their integer multiples are taken
in uint64 (the top 64 bits wrapping modulo one turn), so every phase -- j x
in the direct sums, k x0, k J dx for a block start J and k^2 dx/2 in
chirp-z, k x0 in the period FFT -- is within about 2^-53 turn whatever the
degree or the grid depth, for angles up to 2^150.  A multiplier must stay
below 2^32, which bounds the degree of every path by ``MAX_DEGREE``; the
squares k^2 are split as hi * 2^32 + lo, and hi takes the turns of
2^32 dx/2, formed as exactly as those of dx/2.

The cost model is fixed, in ns with weights measured on the numpy code here
(2-core Intel Xeon virtual machine, one BLAS thread); only a batch's degree
n and its points enter, and `TrigPolynomial.values_grid` and
`TrigPolynomial.values_period` decide the path once per batch:

- direct: p * (1500 + 45 (T + R) + 0.35 n) + 35000 for p points: the
  integer reduction of each angle, its T + R phases and their cos and sin,
  the matrix product, and the numpy calls of a batch;
- chirp-z: (blocks + 1) * (6 N log2 N + 20000), N the padded convolution
  length (n + GRID_BLOCK rounded up to a 5-smooth size), blocks counted on
  the sub-lattice from sorted block numbers, the extra block the plan
  (charged whether or not it is cached), and 20000 the numpy calls of a
  block; ``chirp_cheaper`` picks it over the direct sums at the same grid
  points;
- period FFT: 4 m log2 m + 45 n + 20000 for the FFT of length m, the n
  exact lead phases (the direct path's weight per phase) and the numpy
  calls; ``period_cheaper`` picks it over the cheaper of the other two at
  the same points.  The weight 4 is the complex FFT, measured at 2.4-3.7
  ns per m log2 m for m = 9000 .. 65536 (n = 20 .. 4000) in runs where a
  chirp-z block took 0.77 of its charge; the real FFT of x0 = 0 takes
  about half, and is charged the same.  At n <= 400 and count = 4096 the
  switch falls near m = 12000: in those runs one chirp-z block took
  260-270 us, and the complex FFT 150-160 us at m = 8192 and 290-570 us
  at m = 16384.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

#: the contract's roundoff term, relative to sum |c_k|
KERNEL_TOL = 1e-12
#: 2^-1074, the subnormal spacing: the contract's underflow term per product
SUBNORMAL = math.ulp(0.0)
#: outputs per chirp-z block
GRID_BLOCK = 4096
#: largest degree either path takes (every multiplier of a phase < 2^32)
MAX_DEGREE = 2 ** 32 - 1
#: chirp-z plans kept, one per (padded length, step)
CHIRP_PLANS = 8

_INV_TWO_PI = 0x28BE60DB9391054A7F09D5F47D4D377036D8A5664F10E4107F9458EAF7AEF158
"""floor(2**256 / (2 pi))"""
_M32 = 0xFFFFFFFF
_U32 = np.uint64(32)
_RAD_PER_UNIT = 2.0 * math.pi / 2.0 ** 64

# cost model weights, in ns
_DIRECT_CALL = 35_000   # one direct batch: its numpy calls
_DIRECT_POINT = 1_500   # one angle: its reduction in Python integers
_DIRECT_CIS = 45        # one phase exp(i j x) of the split
_DIRECT_MAC = 0.35      # one coefficient at one point of the product
_FFT_STEP = 6.0         # one of N log2 N in a block: two FFTs and the phases
_PERIOD_STEP = 4.0      # one of m log2 m in the period FFT: one complex FFT
_BLOCK_CALL = 20_000    # one block: its numpy calls
_DIRECT_CHUNK = 65536   # phases per row chunk of the direct path


def error_bound(mass: float, n: int) -> float:
    """The contract: the largest error of either sum of n coefficients whose
    absolute values sum to ``mass``."""
    return KERNEL_TOL * mass + (n + 1) * SUBNORMAL


def _turns(num: int, den: int) -> int:
    """(num/den) / (2 pi) mod 1 as a 96-bit fixed-point fraction of a turn."""
    return ((num * _INV_TWO_PI) // (den << 160)) & ((1 << 96) - 1)


def _limbs(turns: list[int]) -> np.ndarray:
    """The top 64 and the low 32 bits of 96-bit fractions, as a
    (2, len(turns)) uint64 array."""
    return np.array([[t >> 32 for t in turns], [t & _M32 for t in turns]],
                    dtype=np.uint64)


def _multiple(k: np.ndarray, limbs: np.ndarray) -> np.ndarray:
    """frac(k * turns / 2**96) in units of 2**-64 turn, for uint64 k < 2**32
    and ``limbs`` the `_limbs` of the turns, shaped to broadcast against k.

    The product of k with the top 64 bits wraps modulo 2**64, i.e. modulo
    one turn; the product with the low 32 bits is exact in uint64 and adds
    its carry into units of 2**-64 turn.
    """
    top, lo = limbs
    return k * top + ((k * lo) >> _U32)


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i * angle) for angles in units of 2**-64 turn, taken in [-pi, pi)."""
    angle = phase.view(np.int64) * _RAD_PER_UNIT
    out = np.empty(angle.shape, dtype=np.complex128)
    out.real = np.cos(angle)
    out.imag = np.sin(angle)
    return out


@functools.lru_cache(maxsize=64)
def _fft_length(size: int) -> int:
    """Smallest 2^a 3^b 5^c >= size."""
    best = 1 << max(0, (size - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < size:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=16)
def _split(n: int) -> tuple[int, int, np.ndarray]:
    """T = ceil(sqrt(n)), R = ceil(n/T) and the multipliers 1 .. T, then
    0, T, .., (R-1)T of the direct sums' phases: k = rT + s + 1."""
    T = math.isqrt(n - 1) + 1 if n else 1
    R = -(-n // T)
    ks = np.concatenate((np.arange(1, T + 1), np.arange(0, R * T, T))).astype(np.uint64)
    ks.flags.writeable = False
    return T, R, ks


def sub_lattice(idx) -> tuple[int, int]:
    """(r, s) with idx = r + s*q for integers q >= 0: r = min(idx) and s the
    largest power of two dividing every idx - r (1 for fewer than two
    distinct indices)."""
    j = np.asarray(idx, dtype=np.int64)
    if not j.size:
        return 0, 1
    r = int(j.min())
    d = int(np.bitwise_or.reduce(j - r, axis=None))
    return r, (d & -d) or 1


def _direct_cost(n: int, points: int) -> float:
    """The cost model's charge for the direct sums of degree n at points."""
    T, R, _ = _split(n)
    return points * (_DIRECT_POINT + _DIRECT_CIS * (T + R) + _DIRECT_MAC * n) + _DIRECT_CALL


def _block_cost(n: int) -> float:
    """The cost model's charge for one chirp-z block of degree n."""
    size = _fft_length(n + GRID_BLOCK)
    return _FFT_STEP * size * math.log2(size) + _BLOCK_CALL


def chirp_cheaper(n: int, idx: np.ndarray) -> bool:
    """True when chirp-z should evaluate degree n at grid indices idx, on
    their `sub_lattice`.  The plan is charged as one block even when it is
    cached, so the path, and with it every value, never depends on the
    calls made before."""
    if n == 0:
        return False
    direct, per_block = _direct_cost(n, idx.size), _block_cost(n)
    if direct <= 2 * per_block:  # chirp-z loses even with a single block
        return False
    r, s = sub_lattice(idx)
    blocks = np.sort((idx.ravel() - r) // s // GRID_BLOCK)
    return (np.count_nonzero(np.diff(blocks)) + 2) * per_block < direct


def period_cheaper(n: int, m: int, count: int) -> bool:
    """True when one FFT of length m (`pair_sums_period`) should evaluate
    degree n at the first count points of its lattice, rather than the
    cheaper of the direct sums and chirp-z (blocks of consecutive indices
    and the plan) at the same points.  A window that holds few of the m
    points, whose m grows like 2*pi*count/width, loses."""
    period = _PERIOD_STEP * m * math.log2(m) + _DIRECT_CIS * n + _BLOCK_CALL
    chirp = (-(-count // GRID_BLOCK) + 1) * _block_cost(n)
    return n == 0 or period < min(_direct_cost(n, count), chirp)


def _coefficients(coeffs) -> np.ndarray:
    """coeffs as a contiguous float64 array of degree at most MAX_DEGREE."""
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    if c.size > MAX_DEGREE:
        raise ValueError(f"degree {c.size} exceeds the kernels' {MAX_DEGREE}")
    return c


def _direct_sums(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the angles x by the factored direct sums
    sum_r exp(i rT x) sum_s c_{rT+s+1} exp(i (s+1) x), every phase exact."""
    flat = x.ravel()
    out = np.full(flat.size, complex(np.nan, np.nan))
    finite = np.flatnonzero(np.isfinite(flat))
    T, R, ks = _split(c.size)
    table = np.zeros(R * T)
    table[:c.size] = c
    table = table.reshape(R, T)            # row r: c_{rT+1} .. c_{rT+T}
    rows = max(1, _DIRECT_CHUNK // (T + R))
    for start in range(0, finite.size, rows):
        sel = finite[start:start + rows]
        turns = [_turns(*v.as_integer_ratio()) for v in flat[sel].tolist()]
        w = _cis(_multiple(ks, _limbs(turns)[:, :, None]))   # (m, T + R)
        # one (R x T) @ (T x 2) product per point, the same call whatever
        # the batch, so a point's value does not depend on its neighbours
        inner = table @ w.view(np.float64).reshape(sel.size, T + R, 2)[:, :T]
        out[sel] = (inner.view(np.complex128)[:, :, 0] * w[:, T:]).sum(axis=1)
    out = out.reshape(x.shape)
    return out.real, out.imag


def pair_sums(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the angles x by direct sums; see the module docstring."""
    return _direct_sums(_coefficients(coeffs), np.asarray(x, dtype=np.float64))


def _square_phases(k: np.ndarray, dx: float) -> np.ndarray:
    """frac(k^2 (dx/2) / (2 pi)) in units of 2**-64 turn, for uint64 k < 2**32.

    k^2 = hi * 2^32 + lo with hi, lo < 2^32; hi multiplies the turns of
    2^32 dx/2, formed from dx as exactly as those of dx/2, so the phase is
    as exact as `_multiple` at any degree up to MAX_DEGREE.
    """
    p, q = dx.as_integer_ratio()
    sq = k * k
    return (_multiple(sq >> _U32, _limbs([_turns(p << 32, 2 * q)]))
            + _multiple(sq & np.uint64(_M32), _limbs([_turns(p, 2 * q)])))


@functools.lru_cache(maxsize=CHIRP_PLANS)
def _chirp_plan(size: int, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """The chirp exp(i k^2 dx/2) for k <= max(m, GRID_BLOCK - 1) and the FFT
    of the conjugate-chirp kernel at lags -m .. GRID_BLOCK - 1, for the
    padded length ``size`` and m = size - GRID_BLOCK, the largest degree it
    serves.  Every degree n <= m shares the plan: the lags below -n meet
    only the zeros of the coefficients beyond n.  A plan takes at most
    32 * size bytes, so the ``CHIRP_PLANS`` kept take at most about
    8 * 32 * (n + 4096) bytes, n the largest degree among them."""
    B = GRID_BLOCK
    m = size - B
    chirp = _cis(_square_phases(np.arange(max(m + 1, B), dtype=np.uint64), dx))
    kernel = np.empty(size, dtype=np.complex128)
    kernel[:B] = chirp[:B].conj()              # t - k = 0 .. B-1
    kernel[B:] = chirp[m:0:-1].conj()          # t - k = -m .. -1
    kernel = np.fft.fft(kernel)
    chirp.flags.writeable = kernel.flags.writeable = False
    return chirp, kernel


def pair_sums_grid(coeffs: np.ndarray, x0: float, dx: float,
                   idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at x0 + idx*dx by blocked chirp-z on the `sub_lattice` of idx;
    see the module docstring."""
    c = _coefficients(coeffs)
    j = np.asarray(idx, dtype=np.int64)
    n = c.size
    if n == 0 or j.size == 0:
        return np.zeros(j.shape), np.zeros(j.shape)
    B = GRID_BLOCK
    r, s = sub_lattice(j)
    size = _fft_length(n + B)
    # the step s*dx is exact, s being a power of two
    chirp, kernel = _chirp_plan(size, s * float(dx))
    # scaling by 2^e, max|c| 2^e in [1, 2), is exact and keeps the FFTs'
    # products clear of underflow; values in the normal range do not move
    e = 1 - math.frexp(float(np.max(np.abs(c))))[1]
    weighted = np.ldexp(c, e) * chirp[1:n + 1]    # c_k 2^e exp(i k^2 s dx/2)
    ks = np.arange(1, n + 1, dtype=np.uint64)
    p0, q0 = float(x0).as_integer_ratio()
    p1, q1 = float(dx).as_integer_ratio()
    a = np.zeros(size, dtype=np.complex128)

    q = (j.ravel() - r) // s
    order = np.argsort(q, kind="stable")
    cuts = np.flatnonzero(np.diff(q[order] // B)) + 1
    out = np.empty(q.size, dtype=np.complex128)
    for sel in np.split(order, cuts):
        first = int(q[sel[0]] // B) * B
        # block start x0 + (r + s*first)*dx, exactly, over the common denominator
        lead = _turns(p0 * q1 + (r + s * first) * p1 * q0, q0 * q1)
        a[1:n + 1] = weighted * _cis(_multiple(ks, _limbs([lead])))
        y = np.fft.ifft(np.fft.fft(a) * kernel)
        t = q[sel] - first
        out[sel] = chirp[t] * y[t]
    out = out.reshape(j.shape)
    return np.ldexp(out.real, -e), np.ldexp(out.imag, -e)


def _period_last(span: Fraction, m: int) -> int:
    """The largest j whose point x0 + 2*pi*j/m and whose float-step point
    x0 + j*(2*pi/m) both lie within x0 + span.  The first is tested with
    the 256-bit 1/(2 pi) cut below its value, so no point past is counted."""
    p, q = span.as_integer_ratio()
    exact = p * m * _INV_TWO_PI // (q << 256)
    return min(exact, math.floor(span / Fraction(2.0 * math.pi / m)))


@functools.lru_cache(maxsize=64)
def period_lattice(x0: float, x1: float, count: int) -> tuple[int, int, Fraction]:
    """(m, last, gap): m the smallest 5-smooth length whose lattice
    x0 + 2*pi*j/m holds at least count points on [x0, x1], last the
    index of its last point there (see `_period_last`), and gap the exact
    width x1 - x0 - last*(2*pi/m), the step rounded, beyond that point."""
    span = Fraction(x1) - Fraction(x0)
    estimate = (count - 1) * 2.0 * math.pi / float(span) * (1.0 - 2.0 ** -40)
    m = _fft_length(max(1, int(estimate)))
    while (last := _period_last(span, m)) + 1 < count:
        m = _fft_length(m + 1)
    return m, last, span - last * Fraction(2.0 * math.pi / m)


def pair_sums_period(coeffs: np.ndarray, x0: float, m: int,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the points x0 + 2*pi*j/m themselves, j = 0 .. count - 1,
    by one FFT of length m; see the module docstring."""
    c = _coefficients(coeffs)
    n = c.size
    if n == 0 or count == 0:
        return np.zeros(count), np.zeros(count)
    # the scaling of pair_sums_grid
    e = 1 - math.frexp(float(np.max(np.abs(c))))[1]
    a = np.zeros(-(-(n + 1) // m) * m, dtype=np.float64 if x0 == 0.0 else np.complex128)
    a[1:n + 1] = np.ldexp(c, e)
    if x0 != 0.0:  # c_k exp(i k x0), every lead phase exact
        lead = _limbs([_turns(*float(x0).as_integer_ratio())])
        a[1:n + 1] *= _cis(_multiple(np.arange(1, n + 1, dtype=np.uint64), lead))
    if a.size > m:  # exp(i k 2 pi j/m) has period m in k
        a = a.reshape(-1, m).sum(axis=0)
    if x0 == 0.0:
        # a real transform, sum_k a_k exp(-i k 2 pi j/m) for j <= m/2: the
        # conjugates of the sums, and those at m - j the sums themselves
        y, sign = np.fft.rfft(a), -1.0
        if count > y.size:
            y = np.concatenate((y, y[m - y.size:0:-1].conj()))
    else:
        y, sign = np.fft.ifft(a, norm="forward"), 1.0
    y = y[np.arange(count) % m] if count > m else y[:count]
    return np.ldexp(y.real, -e), np.ldexp(sign * y.imag, -e)
