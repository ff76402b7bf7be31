"""Trigonometric sum evaluation.

The central object is :class:`TrigPolynomial`,

    f(theta) = a0/2 + sum_j cc[j] * cos(nu_j * theta) + sum_j sc[j] * sin(nu_j * theta)

with frequencies nu_j = stride*(j + j0) + shift.  In the standard layout
(shift = 0) the constant sits in a0 and the coefficient lists start at k = 1
(j0 = 1); when shift > 0 there is no constant term and the lists start at
k = 0 (j0 = 0).  This covers the plain partial Fourier sums, the phase-shifted
sums cos((k+lam)*theta) / sin((k+mu)*theta), and the stride-2 shape
cos((2k+1/2)*theta).

Each polynomial keeps one read-only array view of its terms, (nu, c) for
the cosine and for the sine part (`TrigPolynomial.terms`); the derivative
values here and the bounds in `postrig.certify` are array expressions on it.

All evaluators route through the kernels of `postrig.kernels`; the shift is
peeled off with the two angle-addition identities, so a shifted sum is
computed from two unshifted kernel sums.  `TrigPolynomial.values` takes any
angles and runs `kernels.pair_sums` (direct sums for small batches,
Clenshaw otherwise).  `TrigPolynomial.values_grid` takes the points
t0 + idx*dt of a uniform grid (idx integer), as the certifier's initial grid
and its refinement midpoints are, and lets the kernels' fixed cost model
(`kernels.chirp_cheaper`) pick, once per batch, the chirp-z grid kernel or
`values` at the points t0 + idx*dt.  Its optional thread split is made
after that choice, so the values do not depend on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterDomainError, SizeError
from .kernels import DIRECT_MAX_POINTS, chirp_cheaper, pair_sums, pair_sums_grid

#: batches smaller than this are never split across threads
_THREAD_MIN_POINTS = 4096


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite trigonometric sum; see the module docstring for the semantics."""

    a0: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    shift: float = 0.0
    stride: int = 1

    def __post_init__(self):
        a0 = float(self.a0)
        cos = np.array(self.cos_coeffs, dtype=np.float64)
        sin = np.array(self.sin_coeffs, dtype=np.float64)
        if cos.ndim != 1 or sin.ndim != 1:
            raise ParameterDomainError("coefficients must be flat sequences")
        if a0 == 0.0 and not cos.size and not sin.size:
            raise ParameterDomainError("empty polynomial: a0 = 0 and no coefficients")
        if not (math.isfinite(a0) and np.isfinite(cos).all() and np.isfinite(sin).all()):
            raise ParameterDomainError("coefficients must be finite")
        if self.stride not in (1, 2):
            raise ParameterDomainError(f"stride must be 1 or 2, got {self.stride}")
        if not (0.0 <= self.shift < 1.0):
            raise ParameterDomainError(f"shift must lie in [0, 1), got {self.shift}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "cos_coeffs", tuple(cos.tolist()))
        object.__setattr__(self, "sin_coeffs", tuple(sin.tolist()))
        view = []
        for c in (cos, sin):
            nu = self.stride * np.arange(self.index_start, self.index_start + c.size,
                                         dtype=np.float64) + self.shift
            nu.flags.writeable = c.flags.writeable = False
            view.append((nu, c))
        object.__setattr__(self, "_view", tuple(view))

    @property
    def index_start(self) -> int:
        """First coefficient index k: 1 in the standard layout, 0 when shifted."""
        return 0 if self.shift != 0.0 else 1

    def terms(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """((nu, c) of the cosine part, (nu, c) of the sine part) as read-only
        arrays: frequencies and coefficients, built once per polynomial."""
        return self._view

    def frequencies(self, kind: str) -> np.ndarray:
        return self._view[0 if kind == "cos" else 1][0]

    def _peel(self, theta: np.ndarray,
              sums: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """a0/2 plus both trig parts at angles theta, given ``sums(body)``:
        the kernel pair (C, S) of an unshifted coefficient body at stride*theta."""
        out = np.full(theta.shape, 0.5 * self.a0)
        shifted = self.shift != 0.0
        if shifted:
            ph = self.shift * theta
            cph, sph = np.cos(ph), np.sin(ph)
        for kind, (_, c) in zip(("cos", "sin"), self._view):
            if not c.size:
                continue
            C, S = sums(c[1:] if shifted else c)
            if not shifted:
                out = out + (C if kind == "cos" else S)
                continue
            C = C + c[0]  # cos(0*x) = 1 term; its sine partner vanishes
            if kind == "cos":
                out = out + cph * C - sph * S
            else:
                out = out + sph * C + cph * S
        return out

    def values(self, theta) -> np.ndarray:
        """Evaluate at an array of angles."""
        th = np.asarray(theta, dtype=np.float64)
        x = th if self.stride == 1 else self.stride * th
        return self._peel(th, lambda body: pair_sums(body, x))

    def values_grid(self, t0: float, dt: float, idx, workers: int = 1) -> np.ndarray:
        """Evaluate at the grid points t0 + idx*dt for an integer array idx.

        The kernel is chosen once for the whole batch; with workers > 1 a
        large batch is then split across threads into parts too large for
        the direct path, so every point gets the same value as without the
        split.
        """
        j = np.asarray(idx, dtype=np.int64)
        degree = max(len(self.cos_coeffs), len(self.sin_coeffs))
        s = self.stride
        if chirp_cheaper(degree, j):
            def part(jp):
                return self._peel(t0 + jp * dt,
                                  lambda body: pair_sums_grid(body, s * t0, s * dt, jp))
        else:
            def part(jp):
                return self.values(t0 + jp * dt)
        if workers <= 1 or j.size < _THREAD_MIN_POINTS:
            return part(j)
        out = np.empty(j.shape)
        parts = min(workers, j.size // DIRECT_MAX_POINTS)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [(sel, pool.submit(part, j[sel]))
                       for sel in np.array_split(np.arange(j.size), parts)]
            for sel, fut in futures:
                out[sel] = fut.result()
        return out

    def value(self, theta: float) -> float:
        return float(self.values(np.array([theta]))[0])

    def derivative_value(self, theta: float) -> float:
        """d/dtheta at a point (used for endpoint slopes)."""
        (nu_c, cc), (nu_s, sc) = self._view
        return float((sc * nu_s) @ np.cos(nu_s * theta)
                     - (cc * nu_c) @ np.sin(nu_c * theta))


def sine_poly(coeffs: Sequence[float]) -> TrigPolynomial:
    """sum_{k>=1} coeffs[k-1] sin(k theta)."""
    return TrigPolynomial(sin_coeffs=coeffs)


def cosine_poly(a0: float, coeffs: Sequence[float] = ()) -> TrigPolynomial:
    """a0/2 + sum_{k>=1} coeffs[k-1] cos(k theta)."""
    return TrigPolynomial(a0=a0, cos_coeffs=coeffs)


def shifted_poly(coeffs: Sequence[float], shift: float, kind: str,
                 stride: int = 1) -> TrigPolynomial:
    """sum_{k>=0} coeffs[k] trig((stride*k + shift) theta) for trig = cos|sin.

    shift = 0 folds into the standard layout (e0 becomes the constant for
    cosine sums and drops for sine sums), so the reduction to the unshifted
    evaluators is exact.
    """
    e = np.array(coeffs, dtype=np.float64)
    if not e.size:
        raise SizeError("need at least one coefficient")
    if kind not in ("cosine", "sine"):
        raise ParameterDomainError(f"kind must be cosine or sine, got {kind!r}")
    if shift == 0.0:
        if kind == "cosine":
            return TrigPolynomial(a0=2.0 * e[0], cos_coeffs=e[1:], stride=stride)
        return TrigPolynomial(sin_coeffs=e[1:], stride=stride) if e.size > 1 \
            else TrigPolynomial(a0=0.0, sin_coeffs=(0.0,), stride=stride)
    if kind == "cosine":
        return TrigPolynomial(cos_coeffs=e, shift=shift, stride=stride)
    return TrigPolynomial(sin_coeffs=e, shift=shift, stride=stride)


def eval_sine_sum(coeffs: Sequence[float], theta) -> float | np.ndarray:
    """sum_{k=1}^n coeffs[k-1] sin(k theta), through `kernels.pair_sums`."""
    arr = np.asarray(coeffs, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    _, S = pair_sums(arr, np.atleast_1d(th))
    return float(S[0]) if th.ndim == 0 else S


def eval_cosine_sum(a0: float, coeffs: Sequence[float], theta) -> float | np.ndarray:
    """a0/2 + sum_{k=1}^n coeffs[k-1] cos(k theta)."""
    arr = np.asarray(coeffs, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    C, _ = pair_sums(arr, np.atleast_1d(th))
    out = 0.5 * a0 + C
    return float(out[0]) if th.ndim == 0 else out


def eval_shifted_sum(poly: TrigPolynomial, theta, kind: str) -> float | np.ndarray:
    """Evaluate a phase-shifted sum sum_k e_k trig((stride*k + shift) theta).

    ``kind`` names which trig family the polynomial's coefficients belong to
    and must match how the polynomial was built (see :func:`shifted_poly`).
    """
    if kind not in ("cosine", "sine"):
        raise ParameterDomainError(f"kind must be cosine or sine, got {kind!r}")
    if kind == "cosine" and not (poly.cos_coeffs or poly.a0):
        raise ParameterDomainError("polynomial carries no cosine part")
    if kind == "sine" and not poly.sin_coeffs:
        raise ParameterDomainError("polynomial carries no sine part")
    th = np.asarray(theta, dtype=np.float64)
    out = poly.values(np.atleast_1d(th))
    return float(out[0]) if th.ndim == 0 else out


def qk_weight(k: int, alpha: float, beta: float, lam: float, mu: float) -> float:
    """(k+alpha)^lam * (k+beta)^mu."""
    return (k + alpha) ** lam * (k + beta) ** mu


def eval_halfangle_product_derivative(n: int, alpha: float, beta: float, lam: float,
                              mu: float, theta: float) -> float:
    """Analytic d/dtheta of cos(theta/2) * (1 + cos(theta) + sum_{k=2}^n cos(k theta)/(k w_k)).

    Returns -(1/2) sin(theta/2) C(theta) - cos(theta/2) S(theta) with
    C = 1 + cos(theta) + sum cos(k theta)/(k w_k) and
    S = sin(theta) + sum sin(k theta)/w_k, w_k = (k+alpha)^lam (k+beta)^mu.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    k = np.arange(2, n + 1)
    w = qk_weight(k, alpha, beta, lam, mu)
    C = eval_cosine_sum(2.0, np.concatenate(([1.0], 1.0 / (k * w))), theta)
    S = eval_sine_sum(np.concatenate(([1.0], 1.0 / w)), theta)
    return -0.5 * math.sin(0.5 * theta) * C - math.cos(0.5 * theta) * S


def halfangle_product_negated_poly(n: int, alpha: float, beta: float, lam: float,
                           mu: float) -> TrigPolynomial:
    """The negated half-angle-product derivative as a shift-1/2 sine polynomial.

    Using sin(A)cos(B)/cos(A)sin(B) product identities, the negated derivative
    collapses to sum_{m=0}^n E_m sin((m + 1/2) theta), which the positivity
    certifier can bound directly.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    k = np.arange(2, n + 1)
    w = qk_weight(k, alpha, beta, lam, mu)
    c = np.concatenate(([1.0, 1.0], 1.0 / (k * w), [0.0]))
    s = np.concatenate(([0.0, 1.0], 1.0 / w, [0.0]))
    e = np.concatenate(([0.5 * c[0] - 0.25 * c[1] + 0.5 * s[1]],
                        0.25 * (c[1:-1] - c[2:]) + 0.5 * (s[1:-1] + s[2:])))
    return TrigPolynomial(sin_coeffs=e, shift=0.5, stride=1)


def fejer_sigma(k: int, x: float) -> float:
    """sigma_k(x) = sum_{j=1}^k (k - j + 1) sin(j x)."""
    if k < 1:
        raise ParameterDomainError("k must be >= 1")
    j = np.arange(1, k + 1)
    return math.fsum((k - j + 1) * np.sin(j * x))


def fejer_h(k: int, x: float) -> float:
    """h_k(x) = sin(x) + ... + sin((k-1)x) + sin(kx)/2."""
    if k < 1:
        raise ParameterDomainError("k must be >= 1")
    return math.fsum(np.sin(np.arange(1, k) * x)) + 0.5 * math.sin(k * x)


def abel_resum(b_seq: Iterable[float], c_seq: Iterable[float]) -> float:
    """Right-hand side of the summation-by-parts identity.

    sum_k b_k c_k = sum_{k=0}^{n-1} (b_k - b_{k+1}) * (sum_{j<=k} c_j)
                    + b_n * sum_{k<=n} c_k
    """
    b = np.fromiter(b_seq, dtype=np.float64)
    c = np.fromiter(c_seq, dtype=np.float64)
    if b.size != c.size:
        raise SizeError(f"length mismatch: {b.size} vs {c.size}")
    if not b.size:
        raise SizeError("need at least one term")
    prefix = np.cumsum(c)
    return float((b[:-1] - b[1:]) @ prefix[:-1] + b[-1] * prefix[-1])
