"""Evaluation kernels: one contract, two paths.

Both paths return the pair of sums

    C(x) = sum_{k=1}^n c_k cos(k x)    and    S(x) = sum_{k=1}^n c_k sin(k x)

and meet one contract, ``error_bound(sum |c_k|, n)``: the error of either
sum is at most

    KERNEL_TOL * sum |c_k|  +  (n + 1) * 2^-1074

at every point.  The first term is the roundoff of the normal range.  The
second is underflow: a product whose result is subnormal is off by at most
half the subnormal spacing 2^-1074, whatever its size; in the direct sums
the 2n coefficient products reach each sum through the cos and sin of one
phase (sqrt(2) together at most) and 2R more products follow (R below),
less than n + 1 spacings in all.  The FFT path serves sums at any scale: it
scales the coefficients by the power of two that brings max |c_k| into
[1, 2) and scales the sums back.  The scaling is exact; an underflow inside
the FFT is then below 2^-1074 max |c_k|, far inside the roundoff term, and
only the scaling back of a subnormal sum rounds, by at most half the
subnormal spacing.

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

``pair_sums_period(coeffs, x0, M, idx)`` evaluates at the points
x0 + 2*pi*idx/M themselves (idx an integer array), not at their floats.
The indices are written idx = r + s*q (`sub_lattice`: r the smallest index,
s the largest power of two dividing every idx - r).  With g = gcd(s, M),
L = M/g and t = (idx - r)/g, an integer, the phases k*2*pi*(idx - r)/M are
k*2*pi*t/L, so one FFT of length L serves every point: the coefficients
times their exact lead phases exp(i k (x0 + 2*pi*r/M)) (a plain real FFT
when that lead is 0), folded modulo L when n >= L.  The fold adds pairwise,
in at most 1 + log2(n/L) levels, so its rounding stays below that many
times 2^-53 sum |c_k| whatever L.  It needs no plan.  `period_lattice`
picks the level-0 m for a window: the smallest 5-smooth length whose
lattice holds the points asked for, none of them past the window's end.
The certifier's level d lies on the lattice of M = m*2^d, its odd
midpoints on the sub-lattice s = 2 of it, and the CLI's plot points on the
lattice of their full period.

Exact phases: angles become 96-bit fixed-point fractions of a turn (Python
integers times a 256-bit 1/(2 pi)), and their integer multiples are taken
in uint64 (the top 64 bits wrapping modulo one turn), so every phase -- j x
in the direct sums, k (x0 + 2*pi*r/M) in the FFT -- is within about 2^-53
turn whatever the degree or the lattice, for angles up to 2^150.  A
multiplier must stay below 2^32, which bounds the degree of both paths by
``MAX_DEGREE``.

The cost model is fixed, in ns with weights measured on the numpy code here
(2-core Intel Xeon virtual machine, one BLAS thread); only a batch's degree
n, its points and its lattice enter, and `TrigPolynomial.values_period`
decides the path once per batch:

- direct: p * (1500 + 45 (T + R) + 0.35 n) + 35000 for p points: the
  integer reduction of each angle, its T + R phases and their cos and sin,
  the matrix product, and the numpy calls of a batch;
- FFT: 4 L log2 L + 45 n + 20000 for the FFT of length L, the n exact lead
  phases (the direct path's weight per phase) and the numpy calls;
  ``period_cheaper`` picks it over the direct sums at the same points.
  The weight 4 is the complex FFT, measured at 2.4-3.7 ns per L log2 L for
  L = 9000 .. 65536 (n = 20 .. 4000); the real FFT of a zero lead takes
  about half, and is charged the same.

The direct sums thus take a window that holds few of its lattice's points
(L grows like 2*pi*p/width for p points on it), a deep level where few
cells are left, and `find_min`'s descent of 1-2 points.
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
#: largest degree either path takes (every multiplier of a phase < 2^32)
MAX_DEGREE = 2 ** 32 - 1

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
_PERIOD_STEP = 4.0      # one of L log2 L in the FFT: one complex FFT
_PERIOD_CALL = 20_000   # one FFT batch: its numpy calls
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
    d = int(np.bitwise_or.reduce(j - r if r else j, axis=None))
    return r, (d & -d) or 1


def _direct_cost(n: int, points: int) -> float:
    """The cost model's charge for the direct sums of degree n at points."""
    T, R, _ = _split(n)
    return points * (_DIRECT_POINT + _DIRECT_CIS * (T + R) + _DIRECT_MAC * n) + _DIRECT_CALL


def _period_cost(n: int, L: int) -> float:
    """The cost model's charge for one FFT of length L at degree n."""
    return _PERIOD_STEP * L * math.log2(L) + _DIRECT_CIS * n + _PERIOD_CALL


def period_cheaper(n: int, M: int, idx: np.ndarray) -> bool:
    """True when one FFT (`pair_sums_period`) should evaluate degree n at the
    points x0 + 2*pi*idx/M, rather than the direct sums at the same points:
    the FFT of length L = M/gcd(s, M), s from the `sub_lattice` of idx,
    against the direct sums' points."""
    if n == 0:
        return True
    direct = _direct_cost(n, np.size(idx))
    # L <= M, so the sub-lattice is asked for only when the full length loses
    return (_period_cost(n, M) < direct
            or _period_cost(n, M // math.gcd(sub_lattice(idx)[1], M)) < direct)


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


def pair_sums_period(coeffs: np.ndarray, x0: float, M: int,
                     idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the points x0 + 2*pi*idx/M themselves, idx an integer array,
    by one FFT on the `sub_lattice` of idx; see the module docstring."""
    c = _coefficients(coeffs)
    j = np.asarray(idx, dtype=np.int64)
    n = c.size
    if n == 0 or j.size == 0:
        return np.zeros(j.shape), np.zeros(j.shape)
    r, s = sub_lattice(j)
    g = math.gcd(s, M)
    L = M // g
    # the turns of x0 + 2 pi r/M, r/M rounded down to 2^-96
    lead = (_turns(*float(x0).as_integer_ratio()) + ((r % M) << 96) // M) & ((1 << 96) - 1)
    # scaling by 2^e, max|c| 2^e in [1, 2), is exact and keeps the FFT's
    # products clear of underflow; values in the normal range do not move
    e = 1 - math.frexp(float(np.max(np.abs(c))))[1]
    rows = 1 << (n // L).bit_length()  # a power of two with rows * L > n
    a = np.zeros(rows * L, dtype=np.complex128 if lead else np.float64)
    a[1:n + 1] = np.ldexp(c, e)
    if lead:  # c_k exp(i k (x0 + 2 pi r/M)), every lead phase exact
        a[1:n + 1] *= _cis(_multiple(np.arange(1, n + 1, dtype=np.uint64), _limbs([lead])))
    a = a.reshape(rows, L)
    while a.shape[0] > 1:  # exp(i k 2 pi t/L) has period L in k: fold pairwise
        a = a[:a.shape[0] // 2] + a[a.shape[0] // 2:]
    t = j - r if r else j  # the points' places in the FFT: g divides j - r
    if g > 1:
        t = t >> (g.bit_length() - 1)
    top = int(t.max())
    if top >= L:
        t = t % L
    if lead:
        y, sign = np.fft.ifft(a[0], norm="forward"), 1.0
    else:
        # a real transform, sum_k a_k exp(-i k 2 pi t/L) for t <= L/2: the
        # conjugates of the sums, and those at L - t the sums themselves
        y, sign = np.fft.rfft(a[0]), -1.0
        if top >= y.size:
            y = np.concatenate((y, y[L - y.size:0:-1].conj()))
    y = y[t]
    return np.ldexp(y.real, -e), np.ldexp(sign * y.imag, -e)
