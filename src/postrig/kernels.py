"""Evaluation kernels: Clenshaw at arbitrary angles, chirp-z on uniform grids.

Both kernels return the pair of sums

    C(x) = sum_{k=1}^n c_k cos(k x)    and    S(x) = sum_{k=1}^n c_k sin(k x)

and meet one contract: the error of either sum is at most
``KERNEL_TOL * sum |c_k|`` at every point.

``pair_sums(coeffs, x)`` runs the Reinsch-modified Clenshaw recurrence at any
angles.  It imports the compiled extension when it was built, otherwise the
numpy implementation; set POSTRIG_FORCE_PYTHON_KERNELS=1 to force the
fallback (used by the backend-parity tests).

``pair_sums_grid(coeffs, x0, dx, idx)`` evaluates at the grid points
x0 + idx*dx (idx an integer array) by blocked Bluestein chirp-z through
numpy.fft.  With k*j = (k^2 + j^2 - (j - k)^2)/2 the sums over one block of
``GRID_BLOCK`` consecutive outputs become one convolution with the chirp
exp(-i m^2 dx/2), whose FFT is shared by all blocks of a call; only blocks
that hold a requested index are computed.  Every phase (k x0, k J dx for the
block start J, k^2 dx/2) is reduced exactly: angles become 96-bit
fixed-point fractions of a turn (Python integers times a 256-bit 1/(2 pi)),
and their integer multiples are taken limb by limb in uint64, so the phase
error stays near 2^-53 turn whatever the degree or the grid depth.  The
squares k^2 must stay below 2^32, which bounds the degree by
``GRID_MAX_DEGREE``.

``chirp_cheaper(n, idx)`` is the fixed cost model that picks between them
for one batch: Clenshaw costs about n * (m + 1000) point steps for m points
(the 1000 stands for the numpy-call overhead of each recurrence step), and
chirp-z about 2 * (blocks + 1) * N log2 N point steps, N the padded
convolution length (n + GRID_BLOCK rounded up to a 5-smooth size) and the
extra block the shared chirp kernel.  The weights were measured on the numpy
backend; only the batch's degree and indices enter, never the worker count.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from . import _kernels_py

if os.environ.get("POSTRIG_FORCE_PYTHON_KERNELS"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = _impl.BACKEND
pair_sums = _impl.pair_sums

#: both kernels' error bound, relative to sum |c_k|
KERNEL_TOL = 1e-12
#: outputs per chirp-z block
GRID_BLOCK = 4096
#: largest degree the grid kernel takes (k^2 < 2^32 for every chirp index)
GRID_MAX_DEGREE = 65535

_INV_TWO_PI = 0x28BE60DB9391054A7F09D5F47D4D377036D8A5664F10E4107F9458EAF7AEF158
"""floor(2**256 / (2 pi))"""
_M32 = 0xFFFFFFFF
_RAD_PER_UNIT = 2.0 * math.pi / 2.0 ** 64

# cost model weights, in Clenshaw point steps (one coefficient at one point)
_CLENSHAW_CALL_POINTS = 1000  # numpy-call overhead of one recurrence step
_FFT_STEP = 2.0               # one of N log2 N in a block: two FFTs and the phases


def _turns(num: int, den: int) -> int:
    """(num/den) / (2 pi) mod 1 as a 96-bit fixed-point fraction of a turn."""
    return ((num * _INV_TWO_PI) // (den << 160)) & ((1 << 96) - 1)


def _multiple(k: np.ndarray, turns: int) -> np.ndarray:
    """frac(k * turns / 2**96) in units of 2**-64 turn, for uint64 k < 2**32.

    Each product of k with a 32-bit limb of ``turns`` is exact in uint64;
    the high limb's product counts only modulo 2**32 (whole turns above it)
    and the additions wrap modulo 2**64, i.e. modulo one turn.
    """
    hi = k * np.uint64(turns >> 64)
    mid = k * np.uint64((turns >> 32) & _M32)
    lo = k * np.uint64(turns & _M32)
    return (hi << np.uint64(32)) + mid + (lo >> np.uint64(32))


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


def chirp_cheaper(n: int, idx: np.ndarray) -> bool:
    """True when chirp-z should evaluate degree n at grid indices idx."""
    if n == 0 or n > GRID_MAX_DEGREE:
        return False
    size = _fft_length(n + GRID_BLOCK)
    per_block = _FFT_STEP * size * math.log2(size)
    clenshaw = n * (idx.size + _CLENSHAW_CALL_POINTS)
    if clenshaw <= 2 * per_block:  # chirp-z loses even with a single block
        return False
    return (np.unique(idx // GRID_BLOCK).size + 1) * per_block < clenshaw


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
                           _turns(p, 2 * q)))
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
    weighted = c * chirp[1:n + 1]                 # c_k exp(i k^2 dx/2)
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
        a[1:n + 1] = weighted * _cis(_multiple(ks, lead))
        y = np.fft.ifft(np.fft.fft(a) * kernel)
        t = flat[sel] - first
        out[sel] = chirp[t] * y[t]
    out = out.reshape(j.shape)
    return out.real, out.imag
