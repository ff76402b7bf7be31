"""Evaluation kernels: one contract, three paths.

Every path returns the pair of sums

    C(x) = sum_{k=1}^n c_k cos(k x)    and    S(x) = sum_{k=1}^n c_k sin(k x)

and meets one contract, ``error_bound(sum |c_k|, n)``: the error of either
sum is at most

    KERNEL_TOL * sum |c_k|  +  (n + 1) * 2^-1074

at every point.  The first term is the roundoff of the normal range.  The
second is underflow: a product whose result is subnormal is off by less
than the subnormal spacing 2^-1074, whatever its size.  The Clenshaw
recurrence forms one product a step, and an error d made in the step of
c_k is the error of changing c_k by d, which moves C and S by at most |d|;
with the last product that makes n + 1.  The direct sums form n products.
Chirp-z scales the coefficients by the power of two that brings max |c_k|
into [1/2, 1) before its FFTs and scales the sums back.  The scaling is
exact; an underflow inside the FFTs is then below 2^-1074 max |c_k|, far
inside the roundoff term, and only the scaling back of a subnormal sum
rounds, by at most half the subnormal spacing.

``pair_sums(coeffs, x)`` takes any angles and runs, for the whole batch, one
of two paths:

- ``_clenshaw_sums``: the backward three-term (Clenshaw) recurrence in its
  Reinsch-modified forms, branched on the sign of cos x, so it stays stable
  near x = 0 and x = pi.  Angles outside [0, 2 pi) are first reduced
  exactly (below) to [-pi, pi); the others need no reduction;
- ``_direct_sums`` for small batches: each angle is reduced exactly to a
  fraction of a turn, every phase k*x is then formed exactly (see below),
  and one dot product with the coefficients gives C + iS.  Angles are taken
  in row chunks of about ``_DIRECT_CHUNK`` phases, so the working set stays
  O(n).

A non-finite angle gives nan on either path.

``pair_sums_grid(coeffs, x0, dx, idx)`` evaluates at the grid points
x0 + idx*dx (idx an integer array) by blocked Bluestein chirp-z through
numpy.fft.  With k*j = (k^2 + j^2 - (j - k)^2)/2 the sums over one block of
``GRID_BLOCK`` consecutive outputs become one convolution with the chirp
exp(-i m^2 dx/2), whose FFT is shared by all blocks of a call; only blocks
that hold a requested index are computed.  The squares k^2 must stay below
2^32, which bounds the degree by ``GRID_MAX_DEGREE``.

Exact phases: angles become 96-bit fixed-point fractions of a turn (Python
integers times a 256-bit 1/(2 pi)), and their integer multiples are taken
limb by limb in uint64, so every phase -- x itself in Clenshaw, k x in the
direct sums, k x0, k J dx for a block start J and k^2 dx/2 in chirp-z -- is
within about 2^-53 turn whatever the degree or the grid depth, for angles up
to 2^150.

The cost model is fixed, in Clenshaw point steps (one coefficient at one
point), with weights measured on the numpy code here; only a batch's degree
n and its points enter, never the worker count:

- Clenshaw: n * (m + 1000) for m points, the 1000 standing for the
  numpy-call overhead of each recurrence step;
- direct: m * (14 n + 500) + 10000, for the phases, cos, sin and dot of each
  coefficient, the integer reduction of each angle and the calls of a
  batch; ``direct_cheaper`` picks it over Clenshaw, and never for
  ``DIRECT_MAX_POINTS`` points or more;
- chirp-z: 2 * (blocks + 1) * N log2 N, N the padded convolution length
  (n + GRID_BLOCK rounded up to a 5-smooth size) and the extra block the
  shared chirp kernel; ``chirp_cheaper`` picks it over the cheaper of the
  other two.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: the contract's roundoff term, relative to sum |c_k|
KERNEL_TOL = 1e-12
#: 2^-1074, the subnormal spacing: the contract's underflow term per product
SUBNORMAL = math.ulp(0.0)
#: outputs per chirp-z block
GRID_BLOCK = 4096
#: largest degree the grid kernel takes (k^2 < 2^32 for every chirp index)
GRID_MAX_DEGREE = 65535
#: batches of this many points or more never take the direct path
DIRECT_MAX_POINTS = 256

_INV_TWO_PI = 0x28BE60DB9391054A7F09D5F47D4D377036D8A5664F10E4107F9458EAF7AEF158
"""floor(2**256 / (2 pi))"""
_M32 = 0xFFFFFFFF
_TWO_PI = 2.0 * math.pi
_RAD_PER_UNIT = _TWO_PI / 2.0 ** 64

# cost model weights, in Clenshaw point steps (one coefficient at one point)
_CLENSHAW_CALL_POINTS = 1000  # numpy-call overhead of one recurrence step
_FFT_STEP = 2.0               # one of N log2 N in a block: two FFTs and the phases
_DIRECT_STEP = 14.0           # one phase, its cos and sin, and its share of the dot
_DIRECT_POINT = 500           # reducing one angle in Python integers
_DIRECT_CALL = 10000          # numpy-call overhead of one direct batch
_DIRECT_CHUNK = 8192          # phases per row chunk of the direct path


def error_bound(mass: float, n: int) -> float:
    """The contract: the largest error of either sum of n coefficients whose
    absolute values sum to ``mass``."""
    return KERNEL_TOL * mass + (n + 1) * SUBNORMAL


def _turns(num: int, den: int) -> int:
    """(num/den) / (2 pi) mod 1 as a 96-bit fixed-point fraction of a turn."""
    return ((num * _INV_TWO_PI) // (den << 160)) & ((1 << 96) - 1)


def _limbs(turns: list[int]) -> np.ndarray:
    """The 32-bit limbs (high, middle, low) of 96-bit fractions, as a
    (3, len(turns)) uint64 array."""
    return np.array([[(t >> s) & _M32 for t in turns] for s in (64, 32, 0)],
                    dtype=np.uint64)


def _multiple(k: np.ndarray, limbs: np.ndarray) -> np.ndarray:
    """frac(k * turns / 2**96) in units of 2**-64 turn, for uint64 k < 2**32
    and ``limbs`` the `_limbs` of the turns, shaped to broadcast against k.

    Each product of k with a 32-bit limb is exact in uint64; the high limb's
    product counts only modulo 2**32 (whole turns above it) and the
    additions wrap modulo 2**64, i.e. modulo one turn.
    """
    hi, mid, lo = limbs
    return ((k * hi) << np.uint64(32)) + k * mid + ((k * lo) >> np.uint64(32))


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


def _direct_cost(n: int, m: int) -> float:
    return m * (_DIRECT_STEP * n + _DIRECT_POINT) + _DIRECT_CALL


def direct_cheaper(n: int, m: int) -> bool:
    """True when direct sums should evaluate degree n at m arbitrary angles."""
    return 0 < m < DIRECT_MAX_POINTS and n < 1 << 32 \
        and _direct_cost(n, m) < n * (m + _CLENSHAW_CALL_POINTS)


def chirp_cheaper(n: int, idx: np.ndarray) -> bool:
    """True when chirp-z should evaluate degree n at grid indices idx."""
    if n == 0 or n > GRID_MAX_DEGREE:
        return False
    size = _fft_length(n + GRID_BLOCK)
    per_block = _FFT_STEP * size * math.log2(size)
    m = idx.size
    other = _direct_cost(n, m) if direct_cheaper(n, m) \
        else n * (m + _CLENSHAW_CALL_POINTS)
    if other <= 2 * per_block:  # chirp-z loses even with a single block
        return False
    return (np.unique(idx // GRID_BLOCK).size + 1) * per_block < other


def _clenshaw_sums(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the angles x by the Reinsch-modified Clenshaw recurrence."""
    C = np.zeros(x.shape)
    S = np.zeros(x.shape)
    n = c.size
    if n == 0 or x.size == 0:
        return C, S

    xr = x.ravel()
    far = np.flatnonzero(np.isfinite(xr) & ~((0.0 <= xr) & (xr < _TWO_PI)))
    if far.size:
        turns = [_turns(*v.as_integer_ratio()) for v in xr[far].tolist()]
        xr = xr.copy()
        xr[far] = _multiple(np.uint64(1), _limbs(turns)).view(np.int64) * _RAD_PER_UNIT
    half = 0.5 * xr.reshape(x.shape)
    s2 = np.sin(half)
    c2 = np.cos(half)
    cosx = 1.0 - 2.0 * s2 * s2
    sinx = 2.0 * s2 * c2

    near_zero = cosx > 0.0
    for mask, flip in ((near_zero, False), (~near_zero, True)):
        if not mask.any():
            continue
        if flip:
            # kappa = 2 cos x + 2 = 4 cos^2(x/2); e_k = c_k + kappa*u_{k+1} - e_{k+1}
            kappa = 4.0 * c2[mask] * c2[mask]
            u = np.zeros(kappa.shape)
            e = np.zeros(kappa.shape)
            for k in range(n - 1, -1, -1):
                e_new = c[k] + kappa * u - e
                u = e_new - u
                e = e_new
            C[mask] = u * (0.5 * kappa) - e
        else:
            # kappa = 2 cos x - 2 = -4 sin^2(x/2); d_k = c_k + kappa*u_{k+1} + d_{k+1}
            kappa = -4.0 * s2[mask] * s2[mask]
            u = np.zeros(kappa.shape)
            d = np.zeros(kappa.shape)
            for k in range(n - 1, -1, -1):
                d_new = c[k] + kappa * u + d
                u = d_new + u
                d = d_new
            C[mask] = u * (0.5 * kappa) + d
        S[mask] = u * sinx[mask]
    return C, S


def _direct_sums(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the angles x by direct sums over exactly reduced phases."""
    flat = x.ravel()
    out = np.full(flat.size, complex(np.nan, np.nan))
    finite = np.flatnonzero(np.isfinite(flat))
    ks = np.arange(1, c.size + 1, dtype=np.uint64)
    rows = max(1, _DIRECT_CHUNK // c.size)
    for start in range(0, finite.size, rows):
        sel = finite[start:start + rows]
        turns = [_turns(*v.as_integer_ratio()) for v in flat[sel].tolist()]
        out[sel] = _cis(_multiple(ks, _limbs(turns)[:, :, None])) @ c
    out = out.reshape(x.shape)
    return out.real, out.imag


def pair_sums(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at the angles x, by direct sums or Clenshaw as the cost model picks."""
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    xs = np.asarray(x, dtype=np.float64)
    if direct_cheaper(c.size, xs.size):
        return _direct_sums(c, xs)
    return _clenshaw_sums(c, xs)


@functools.lru_cache(maxsize=1)
def _chirp_plan(n: int, dx: float) -> tuple[int, np.ndarray, np.ndarray]:
    """FFT length, chirp exp(i k^2 dx/2) for k < max(n + 1, GRID_BLOCK), and
    the FFT of the conjugate-chirp kernel; shared by every block of a call
    and by the calls of one refinement level (f and f' have one degree).
    One plan is kept, so the working set is one level's kernel and one block."""
    B = GRID_BLOCK
    size = _fft_length(n + B)
    p, q = dx.as_integer_ratio()
    chirp = _cis(_multiple(np.arange(max(n + 1, B), dtype=np.uint64) ** 2,
                           _limbs([_turns(p, 2 * q)])))
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:B] = chirp[:B].conj()              # t - k = 0 .. B-1
    kernel[size - n:] = chirp[n:0:-1].conj()   # t - k = -n .. -1
    kernel = np.fft.fft(kernel)
    chirp.flags.writeable = kernel.flags.writeable = False
    return size, chirp, kernel


def pair_sums_grid(coeffs: np.ndarray, x0: float, dx: float,
                   idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) at x0 + idx*dx by blocked chirp-z; see the module docstring."""
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    j = np.asarray(idx, dtype=np.int64)
    n = c.size
    if n > GRID_MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the grid kernel's {GRID_MAX_DEGREE}")
    if n == 0 or j.size == 0:
        return np.zeros(j.shape), np.zeros(j.shape)
    B = GRID_BLOCK
    size, chirp, kernel = _chirp_plan(n, float(dx))
    # scaling by 2^e, max|c| 2^e in [1/2, 1), is exact and keeps the FFTs'
    # products clear of underflow; values in the normal range do not move
    e = -math.frexp(float(np.max(np.abs(c))))[1]
    weighted = np.ldexp(c, e) * chirp[1:n + 1]    # c_k 2^e exp(i k^2 dx/2)
    ks = np.arange(1, n + 1, dtype=np.uint64)
    p0, q0 = float(x0).as_integer_ratio()
    p1, q1 = float(dx).as_integer_ratio()
    a = np.zeros(size, dtype=np.complex128)

    flat = j.ravel()
    order = np.argsort(flat, kind="stable")
    cuts = np.flatnonzero(np.diff(flat[order] // B)) + 1
    out = np.empty(flat.size, dtype=np.complex128)
    for sel in np.split(order, cuts):
        first = int(flat[sel[0]] // B) * B
        # block start x0 + first*dx, exactly, over the common denominator
        lead = _turns(p0 * q1 + first * p1 * q0, q0 * q1)
        a[1:n + 1] = weighted * _cis(_multiple(ks, _limbs([lead])))
        y = np.fft.ifft(np.fft.fft(a) * kernel)
        t = flat[sel] - first
        out[sel] = chirp[t] * y[t]
    out = out.reshape(j.shape)
    return np.ldexp(out.real, -e), np.ldexp(out.imag, -e)
