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

``pair_sums_period(coeffs, M, idx)`` evaluates at the points 2*pi*idx/M
themselves, idx any integer array: negative indices and indices past M are
the same points as their residues mod M.  The coefficients, folded modulo M
when n >= M, go through one real FFT of length M, sum_k a_k exp(-i k 2 pi
t/M) for t <= M/2; the sums at t = idx mod M are the conjugates of its
values at t, or, for t > M/2, its values at M - t themselves.  The phases
are the FFT's own twiddles, inside its roundoff, and none is formed here.
The fold adds pairwise, in at most 1 + log2(n/M) levels, so its rounding
stays below that many times 2^-53 sum |c_k| whatever M.  It needs no plan.
`period_lattice` picks the level-0 m for a window: the smallest 5-smooth
length whose step fits the points asked for into the window, and the first
and last of its points 2*pi*j/m there.  The certifier's level d lies on the
lattice of M = m*2^d, and the CLI's plot points on the lattice of their
full period.

Exact phases: angles become 96-bit fixed-point fractions of a turn (Python
integers times a 256-bit 1/(2 pi)), and their integer multiples are taken
in uint64 (the top 64 bits wrapping modulo one turn), so every phase j x of
the direct sums is within about 2^-53 turn whatever the degree, for angles
up to 2^150.  A multiplier must stay below 2^32, which bounds the degree of
both paths by ``MAX_DEGREE``.

The cost model is fixed, in ns with weights measured on the numpy code here
(2-core Intel Xeon virtual machine, one BLAS thread, numpy 2.4); only a
batch's degree n, its points and its lattice enter, and
`TrigPolynomial.values_period` decides the path once per batch:

- direct: p * (1500 + 45 (T + R) + 0.35 n) + 35000 for p points: the
  integer reduction of each angle, its T + R phases and their cos and sin,
  the matrix product, and the numpy calls of a batch;
- FFT: 1.0 M log2 M + 20000 for the real FFT of length M and the numpy
  calls; ``period_cheaper`` picks it over the direct sums at the same
  points.  The weight 1.0 is the whole call, fold and gather included, at
  0.5-1.1 ns per M log2 M for M = m*2^d, m in {8192, 8748, 9000}, d <= 8,
  on sparse batches (up to 1.7 ns with M/2 points).  Lengths with a large
  prime factor, which numpy runs by Bluestein, take 6-9 ns (M = 4006 =
  2*2003 and 32764 = 4*8191); no certifier lattice has one, and the CLI's
  plot lattices, which can, ask for M/2 points, where the FFT wins by far
  more than that.

The direct sums thus take a window that holds few of its lattice's points
(M grows like 2*pi*p/width for p points on it), a deep level where few
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
_PERIOD_STEP = 1.0      # one of M log2 M in the real FFT
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


def _direct_cost(n: int, points: int) -> float:
    """The cost model's charge for the direct sums of degree n at points."""
    T, R, _ = _split(n)
    return points * (_DIRECT_POINT + _DIRECT_CIS * (T + R) + _DIRECT_MAC * n) + _DIRECT_CALL


def _period_cost(n: int, M: int) -> float:
    """The cost model's charge for one real FFT of length M at degree n."""
    return _PERIOD_STEP * M * math.log2(M) + _PERIOD_CALL


def period_cheaper(n: int, M: int, idx: np.ndarray) -> bool:
    """True when one FFT (`pair_sums_period`) should evaluate degree n at the
    points 2*pi*idx/M, rather than the direct sums at the same points."""
    return n == 0 or _period_cost(n, M) < _direct_cost(n, np.size(idx))


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


def _last_in(x: Fraction, m: int) -> int:
    """The largest j whose point 2*pi*j/m and whose float-step point
    j*(2*pi/m) both lie at or below x.  The first is tested with the 256-bit
    1/(2 pi) cut toward the safe side (below for x >= 0, above for x < 0),
    so no point past x is counted."""
    p, q = x.as_integer_ratio()
    exact = p * m * (_INV_TWO_PI + (p < 0)) // (q << 256)
    return min(exact, math.floor(x / Fraction(2.0 * math.pi / m)))


@functools.lru_cache(maxsize=64)
def period_lattice(wlo: float, whi: float, count: int) -> tuple[int, int, int]:
    """(m, first, last): m the smallest 5-smooth length whose step 2*pi/m fits
    count - 1 times into whi - wlo (`_last_in` of the span), and first and
    last the indices of the first and last points 2*pi*j/m of its lattice on
    [wlo, whi], each of them and its float-step point j*(2*pi/m) inside."""
    span = Fraction(whi) - Fraction(wlo)
    estimate = (count - 1) * 2.0 * math.pi / float(span) * (1.0 - 2.0 ** -40)
    m = _fft_length(max(1, int(estimate)))
    while True:
        first, last = -_last_in(-Fraction(wlo), m), _last_in(Fraction(whi), m)
        if _last_in(span, m) + 1 >= count and first <= last:
            return m, first, last
        m = _fft_length(m + 1)


def pair_sums_period(coeffs: np.ndarray, M: int,
                     idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the points 2*pi*idx/M themselves, idx any integer array, by
    one real FFT of length M; see the module docstring."""
    c = _coefficients(coeffs)
    j = np.asarray(idx, dtype=np.int64)
    n = c.size
    if n == 0 or j.size == 0:
        return np.zeros(j.shape), np.zeros(j.shape)
    # scaling by 2^e, max|c| 2^e in [1, 2), is exact and keeps the FFT's
    # products clear of underflow; values in the normal range do not move
    e = 1 - math.frexp(float(np.max(np.abs(c))))[1]
    rows = 1 << (n // M).bit_length()  # a power of two with rows * M > n
    a = np.zeros(rows * M)
    a[1:n + 1] = np.ldexp(c, e)
    a = a.reshape(rows, M)
    while a.shape[0] > 1:  # exp(i k 2 pi t/M) has period M in k: fold pairwise
        a = a[:a.shape[0] // 2] + a[a.shape[0] // 2:]
    # sum_k a_k exp(-i k 2 pi t/M) for t <= M/2: the conjugates of the sums,
    # and those at M - t the sums themselves
    t = j % M
    upper = t > M // 2
    y = np.fft.rfft(a[0])[np.where(upper, M - t, t)]
    return np.ldexp(y.real, -e), np.ldexp(np.where(upper, y.imag, -y.imag), -e)
