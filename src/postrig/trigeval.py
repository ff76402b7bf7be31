"""Trigonometric sum evaluation.

The central object is :class:`TrigPolynomial`,

    f(theta) = a0/2 + sum_j cc[j] * cos(nu_j * theta) + sum_j sc[j] * sin(nu_j * theta)

with frequencies nu_j = j + j0 + shift.  In the standard layout (shift = 0)
the constant sits in a0 and the coefficients start at k = 1 (j0 = 1); when
shift > 0 there is no constant term and they start at k = 0 (j0 = 0).  This
covers the plain partial Fourier sums, the phase-shifted sums
cos((k+lam)*theta) / sin((k+mu)*theta), and, with a zero at every skipped
frequency (`shifted_poly`), the stride-2 shape cos((2k+1/2)*theta).

Each polynomial stores its coefficients once, as read-only float64 copies
of the caller's, paired with their frequencies (nu, c) for the cosine and
the sine part (`TrigPolynomial.terms`); the bounds on |f'|, |f''| and
|f''''| (sums of nu^p |c|), the coefficient mass, all rounded up, and the
roundoff bound that `postrig.certify` works with are array expressions on
them, which hold even where nu*c overflows.  f' itself has one surface,
`TrigPolynomial.derivative`.  `postrig.certify` runs on `unit_scale`'s
copy, where none leaves the float range; `values` and `values_period` take
any scale, as `kernels.pair_sums_period` keeps its own power-of-two
scaling.

Every evaluation, f' included, goes through the kernels of
`postrig.kernels`; the shift is peeled off with the two angle-addition
identities, so a shifted sum takes two unshifted sums.
`TrigPolynomial.values` takes any angles and runs the direct sums
(`kernels.pair_sums`).  `TrigPolynomial.values_period` takes the points
2*pi*idx/m of a period lattice anchored at 0 (idx integer), as the
certifier's levels and the CLI's plot points are, and lets the kernels'
fixed cost model (`kernels.period_cheaper`) pick, once per batch, one real
FFT of length m (`kernels.pair_sums_period`) or `values` at the points'
floats idx*(2*pi/m).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterDomainError, SizeError
from .kernels import SUBNORMAL, error_bound, pair_sums, pair_sums_period, period_cheaper


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Finite trigonometric sum; see the module docstring for the semantics.
    Equality and hashing are by identity."""

    a0: float = 0.0
    cos_coeffs: np.ndarray = ()
    sin_coeffs: np.ndarray = ()
    shift: float = 0.0

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
        if not (0.0 <= self.shift < 1.0):
            raise ParameterDomainError(f"shift must lie in [0, 1), got {self.shift}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "cos_coeffs", cos)
        object.__setattr__(self, "sin_coeffs", sin)
        view = []
        for c in (cos, sin):
            nu = np.arange(self.index_start, self.index_start + c.size,
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
        arrays: the frequencies, built once per polynomial, and the stored
        coefficient arrays themselves."""
        return self._view

    @functools.cached_property
    def _bounds(self) -> tuple[float, float, float, float]:
        """(mass, L, L2, L4): 0.5|a0| + sum |c| and the sums over terms of
        nu^p * |c| for p = 1, 2, 4, each rounded up (`_moments`), computed
        once per polynomial."""
        body, *derivatives = _moments(self._view)
        # body + 0.5|a0| rounded to nearest and taken up one float covers
        # both roundings, the halving of a subnormal a0 included
        mass = math.nextafter(body + 0.5 * abs(self.a0), math.inf) if self.a0 else body
        return (mass, *derivatives)

    def _peel(self, theta: np.ndarray,
              sums: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """a0/2 plus both trig parts at angles theta, given ``sums(body)``:
        the kernel pair (C, S) of an unshifted coefficient body at theta."""
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
            elif kind == "cos":  # c[0]: the cos(0*x) = 1 term; its sine partner vanishes
                out = out + cph * (C + c[0]) - sph * S
            else:
                out = out + sph * (C + c[0]) + cph * S
        return out

    def values(self, theta) -> np.ndarray:
        """Evaluate at an array of angles."""
        th = np.asarray(theta, dtype=np.float64)
        return self._peel(th, lambda body: pair_sums(body, th))

    def values_period(self, m: int, idx) -> np.ndarray:
        """Evaluate at the points 2*pi*idx/m themselves, idx an integer array,
        by one real FFT (`kernels.pair_sums_period`), or, where the cost model
        finds the direct sums cheaper (`kernels.period_cheaper`), by `values`
        at their floats idx*(2*pi/m); the shift is peeled at those floats
        either way."""
        j = np.asarray(idx, dtype=np.int64)
        x = j * (2.0 * math.pi / m)
        if period_cheaper(max(self.cos_coeffs.size, self.sin_coeffs.size), m, j):
            return self._peel(x, lambda body: pair_sums_period(body, m, j))
        return self.values(x)

    def value(self, theta: float) -> float:
        return float(self.values(np.array([theta]))[0])

    @np.errstate(over="ignore")  # an overflowing nu*c raises ParameterDomainError
    def derivative(self) -> TrigPolynomial:
        """f' in the same layout: the sine part's nu*c become cosine coefficients,
        the cosine part's -nu*c sine ones, a0 drops, and the shift (so every
        slot) stays.  A constant gives the zero polynomial."""
        (nu_c, cc), (nu_s, sc) = self._view
        sin = -(nu_c * cc) if cc.size or sc.size else np.zeros(1)  # a constant: f' = 0
        return TrigPolynomial(0.0, nu_s * sc, sin, self.shift)

    def derivative_value(self, theta: float) -> float:
        """d/dtheta at a point."""
        return self.derivative().value(theta)


#: 2^-53 and the unit roundoff of np.longdouble (2^-64 with x87 extended
#: precision, 2^-53 where it is double)
_U = 2.0 ** -53
_LONG_U = float(np.finfo(np.longdouble).eps) / 2
#: a power nu^p below the normal range is raised to this, which exceeds it
_TINY_POWER = 2.0 ** -1020


@np.errstate(over="ignore")
def _moments(view) -> tuple[float, float, float, float]:
    """sum over terms of nu^p * |c| for p = 0, 1, 2, 4, each rounded up.

    nu = k + shift is rounded once and each squaring doubles the
    roundings and adds one, so nu^p carries 2p - 1 and its product with |c|
    2p, each a factor 1 - u at worst, u = 2^-53 (at p = 0 the terms are the
    |c| themselves, exact); a product that underflows is off by at most half
    a subnormal spacing instead.  The products are summed in np.longdouble,
    n roundings of unit eps, and the sum rounds once more to float, off by a
    factor 1 - u or half a spacing.  The n + 1 spacings added and the factor
    1 + 2*((2p + 2)u + (n + 1)eps) cover all of it with room for the two
    roundings of applying them, and `math.nextafter` takes the last one up.
    Only nu = shift < 2^-255 takes a power below the normal range; it is
    raised to 2^-1020 first.  A sum beyond the float range is inf; one with
    no non-zero term is exactly 0.
    """
    totals, n = np.zeros(4, dtype=np.longdouble), 0
    for nu, c in view:
        if not c.size:
            continue
        powers = np.empty((4, c.size))
        powers[0] = 1.0
        powers[1] = nu
        np.multiply(nu, nu, out=powers[2])
        np.multiply(powers[2], powers[2], out=powers[3])
        if nu[0] < 2.0 ** -255:  # frequencies ascend
            np.maximum(powers, _TINY_POWER, out=powers)
        powers *= np.abs(c)
        totals += np.add.reduce(powers, axis=1, dtype=np.longdouble)
        n += c.size
    if not totals.any() and not any(c.any() for _, c in view):
        return 0.0, 0.0, 0.0, 0.0
    return tuple(math.nextafter((float(total) + (n + 1) * SUBNORMAL)
                                * (1.0 + 2.0 * ((2 * p + 2) * _U + (n + 1) * _LONG_U)),
                                math.inf)
                 for p, total in zip((0, 1, 2, 4), totals))


def lipschitz_bound(poly: TrigPolynomial) -> float:
    """sum over terms of frequency * |coefficient|, rounded up: a uniform
    |d/dtheta| bound."""
    return poly._bounds[1]


def curvature_bound(poly: TrigPolynomial) -> float:
    """Same with frequency^2: a uniform |d^2/dtheta^2| bound."""
    return poly._bounds[2]


def fourth_derivative_bound(poly: TrigPolynomial) -> float:
    """Same with frequency^4: a uniform |d^4/dtheta^4| bound, the L4 of the
    certifier's Hermite cells."""
    return poly._bounds[3]


def coefficient_mass(poly: TrigPolynomial) -> float:
    """0.5|a0| + sum |c|, rounded up: the mass the kernels' contract scales."""
    return poly._bounds[0]


def roundoff_bound(poly: TrigPolynomial) -> float:
    """Largest error of a computed value of the sum.

    Each kernel sum is within `kernels.error_bound` of the exact one; the
    shift peel combines a C and an S with unit-modulus weights, hence the
    factor 2, and the peel's own products, two per part, may underflow as
    well, hence two more terms.  A computed value at or above minus this
    bound is no proof of a non-positive value.
    """
    terms = sum(c.size for _, c in poly.terms())
    return 2.0 * error_bound(coefficient_mass(poly), terms + 2)


def unit_scale(poly: TrigPolynomial) -> tuple[TrigPolynomial, int, float]:
    """(copy, e, rounding): poly times the power of two 2^-e that brings its
    largest |coefficient| (a0/2 for the constant) into [1, 2), where nu*c <
    2^34, L4 < 2^166 and every value and roundoff bound is finite (with e = 0
    the copy is poly), and a bound on |copy - 2^-e*poly|: each coefficient
    taken below 2^-1022 rounds by half a subnormal spacing at most."""
    (_, cc), (_, sc) = poly.terms()
    c = np.concatenate(([poly.a0], cc, sc))
    _, exps = np.frexp(c)
    exps[0] -= 1  # the constant is a0/2
    e = int(exps[c != 0.0].max()) - 1 if c.any() else 0
    if e == 0:
        return poly, 0, 0.0
    s = np.ldexp(c, -e)
    rounding = c.size * SUBNORMAL if not np.array_equal(np.ldexp(s, e), c) else 0.0
    return TrigPolynomial(s[0], s[1:1 + cc.size], s[1 + cc.size:], poly.shift), e, rounding


def sine_poly(coeffs: Sequence[float]) -> TrigPolynomial:
    """sum_{k>=1} coeffs[k-1] sin(k theta)."""
    return TrigPolynomial(sin_coeffs=coeffs)


def cosine_poly(a0: float, coeffs: Sequence[float] = ()) -> TrigPolynomial:
    """a0/2 + sum_{k>=1} coeffs[k-1] cos(k theta)."""
    return TrigPolynomial(a0=a0, cos_coeffs=coeffs)


def shifted_poly(coeffs: Sequence[float], shift: float, kind: str,
                 stride: int = 1) -> TrigPolynomial:
    """sum_{k>=0} coeffs[k] trig((stride*k + shift) theta) for trig = cos|sin.

    Stride 2 is laid out at stride 1 with a zero at every skipped frequency
    (coeffs[0], 0, coeffs[1], 0, ...).  shift = 0 folds into the standard
    layout (the first coefficient becomes the constant for cosine sums and
    drops for sine sums).
    """
    e = np.array(coeffs, dtype=np.float64)
    if not e.size:
        raise SizeError("need at least one coefficient")
    if kind not in ("cosine", "sine"):
        raise ParameterDomainError(f"kind must be cosine or sine, got {kind!r}")
    if stride not in (1, 2):
        raise ParameterDomainError(f"stride must be 1 or 2, got {stride}")
    if stride == 2:  # e0, 0, e1, 0, ..., e_{n-1}
        e = np.column_stack((e, np.zeros(e.size))).ravel()[:-1]
    if shift == 0.0:
        if kind == "cosine":
            return TrigPolynomial(a0=2.0 * e[0], cos_coeffs=e[1:])
        return TrigPolynomial(sin_coeffs=e[1:] if e.size > 1 else (0.0,))
    if kind == "cosine":
        return TrigPolynomial(cos_coeffs=e, shift=shift)
    return TrigPolynomial(sin_coeffs=e, shift=shift)


def qk_weight(k: int, alpha: float, beta: float, lam: float, mu: float) -> float:
    """(k+alpha)^lam * (k+beta)^mu."""
    return (k + alpha) ** lam * (k + beta) ** mu


def halfangle_product_negated_poly(n: int, alpha: float, beta: float, lam: float,
                                   mu: float) -> TrigPolynomial:
    """Minus d/dtheta of cos(theta/2) * (1 + cos(theta) + sum_{k=2}^n
    cos(k theta)/(k w_k)), w_k = `qk_weight`, as a shift-1/2 sine polynomial.

    With c_0 = c_1 = 1 and c_k = 1/(k w_k), cos(theta/2) cos(k theta) =
    (cos((k+1/2) theta) + cos((k-1/2) theta))/2 makes the product the shift-1/2
    cosine sum of p_m = (c_m + c_{m+1})/2, c_0 counted twice (cos(-theta/2) =
    cos(theta/2)); minus its `TrigPolynomial.derivative` is the sine sum
    sum_{m=0}^n (m + 1/2) p_m sin((m + 1/2) theta) that the certifier bounds.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    k = np.arange(2, n + 1)
    c = np.concatenate(([2.0, 1.0], 1.0 / (k * qk_weight(k, alpha, beta, lam, mu)), [0.0]))
    p = 0.5 * (c[:-1] + c[1:])
    return TrigPolynomial(cos_coeffs=-p, shift=0.5).derivative()


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
