"""Special-function kernel and the derived constants.

Provides Gamma (from ``math.gamma``, PoleError at its poles), the generalized
hypergeometric 2F3 by direct term recurrence, tanh-sinh quadrature for
integrands with algebraic endpoint singularities, a bracketing Brent solver,
the ascending Bessel-J series with its first two positive zeros, and on top of
those every named constant:

    alpha0_prime  root of  int_0^{3pi/2} t^-a cos t (1 - 2t/(3pi))^d dt = 0
    alpha0        alpha0_prime at d = 0, the unique root in (0,1) of
                  int_0^{3pi/2} t^-a cos t dt = 0
    beta0, beta1  cubic-fit expansion coefficients of alpha0_prime(d) at d = 0
    lambda_prime  a' + 1/2 where  int_0^{j_{a',2}} t^-a' J_a'(t) dt = 0

alpha0_prime, and with it alpha0, has two independent routes (quadrature
root and the zero of the closed-form 2F3 expression); both are exposed and
every solve cross-checks them to 1e-8: it searches the 2F3 root first, and
the quadrature route confirms it by a root search confined to the 1e-8
window around it.  Every residual is the value Brent computed at its root.
The series, quadrature and Brent budgets are module constants; a solver
that spends its budget raises ConvergenceError.

The quadrature and the Bessel series work on arrays.  ``quad_singular``
passes its integrand a 1-D float64 array of abscissae strictly inside (a, b),
so integrands are numpy expressions; its nodes come from a table built once
per level, on first use, and levels 0-4 go to the integrand in one call,
which is where every constant's quadrature stops.  ``bessel_j`` takes a
scalar or an array of points and sums the series of all points as one
table; ``bessel_zero`` scans its grid through it in chunks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (BracketError, ConvergenceError, ParameterDomainError,
                     PoleError, RootOutOfRangeError)

THREE_PI_OVER_2 = 1.5 * math.pi
HYP_ARG = -9.0 * math.pi ** 2 / 16.0

#: tanh-sinh levels evaluated in the first call of the integrand
_BATCH_LEVEL = 4
#: scan points of bessel_zero per call of bessel_j
_ZERO_CHUNK = 128
#: budgets (2F3, h and Bessel series terms, last tanh-sinh level, Brent steps)
#: and the largest accepted gap between the two alpha0_prime routes' roots
_HYP2F3_MAX_TERMS = 10000
_H_CORR_MAX_TERMS = 500
_BESSEL_MAX_TERMS = 500
_QUAD_MAX_LEVEL = 12
_BRENT_MAX_ITER = 200
_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class SpecialConstant:
    name: str
    value: float
    route: str
    residual: float
    tol: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("constant value must be finite")
        if self.residual > self.tol:
            raise ValueError(
                f"{self.name}: residual {self.residual:.3e} exceeds tol {self.tol:.3e}")


def gamma_fn(x: float) -> float:
    """Gamma(x) from `math.gamma`; PoleError at 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at {x}")
    return math.gamma(x)


def hyp2f3(a1: float, a2: float, b1: float, b2: float, b3: float, z: float) -> float:
    """2F3(a1, a2; b1, b2, b3; z) = sum (a1)_k (a2)_k / ((b1)_k (b2)_k (b3)_k k!) z^k.

    Summed until |term| < 1e-16 |partial| for five consecutive terms.
    """
    for b in (b1, b2, b3):
        if b <= 0 and b == math.floor(b):
            raise PoleError(f"denominator parameter {b} is a non-positive integer")
    term = 1.0
    acc = 1.0
    small = 0
    for k in range(_HYP2F3_MAX_TERMS):
        term *= (a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (b3 + k) * (k + 1.0)) * z
        acc += term
        if abs(term) < 1e-16 * abs(acc):
            small += 1
            if small >= 5:
                return acc
        else:
            small = 0
    raise ConvergenceError(f"2F3 did not converge within {_HYP2F3_MAX_TERMS} terms")


@functools.lru_cache(maxsize=None)
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tanh-sinh nodes one level adds, as read-only arrays
    (offset, weight, from_a), one entry per abscissa.

    A node at t > 0 gives two abscissae, a + offset*halfw (from_a) and
    b - offset*halfw, with offset = 1 - tanh((pi/2) sinh t) = 2/(1 + e^{pi sinh t}),
    so the double-exponential clustering is not lost to rounding near a
    singular endpoint.  Level 0 takes t = 1, 2, ... and the t = 0 midpoint
    (one abscissa, weight pi/2); level L > 0 the odd multiples of 2^-L.  Each
    level stops where the offset falls below 5e-305.  Weights exclude the
    trapezoid spacing h.
    """
    h = 0.5 ** level
    offsets, weights = ([1.0], [0.5 * math.pi]) if level == 0 else ([], [])
    k = 1
    while True:
        t = k * h
        st = math.sinh(t)
        eu = math.exp(-math.pi * st)  # underflows (never overflows) for t > 0
        offset = 2.0 * eu / (1.0 + eu)
        if offset < 5e-305:
            break
        offsets.append(offset)
        # offset * (2 - offset) = sech^2((pi/2) sinh t)
        weights.append(0.5 * math.pi * math.cosh(t) * offset * (2.0 - offset))
        k += 1 if level == 0 else 2
    mid = 1 if level == 0 else 0
    offset = np.array(offsets + offsets[mid:])
    weight = np.array(weights + weights[mid:])
    from_a = np.arange(offset.size) < len(offsets)
    for arr in (offset, weight, from_a):
        arr.flags.writeable = False
    return offset, weight, from_a


@functools.lru_cache(maxsize=1)
def _batch_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levels 0.._BATCH_LEVEL in one table: _level_nodes' three arrays
    concatenated in level order, and the level of each entry."""
    parts = [_level_nodes(level) for level in range(_BATCH_LEVEL + 1)]
    table = tuple(np.concatenate(cols) for cols in zip(*parts))
    level_of = np.repeat(np.arange(_BATCH_LEVEL + 1), [p[0].size for p in parts])
    for arr in table + (level_of,):
        arr.flags.writeable = False
    return table + (level_of,)


def _node_terms(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                offset: np.ndarray, weight: np.ndarray,
                from_a: np.ndarray) -> np.ndarray:
    """weight * f(x) at the abscissa of each entry, in one call of f; 0 at
    an abscissa that rounds onto an endpoint, or onto or past its partner
    from a (their weight is negligible), where f is not evaluated."""
    d = 0.5 * (b - a) * offset
    lo = a + d
    x = np.where(from_a, lo, b - d)
    keep = (a < x) & (x < b) & (from_a | (x > lo))
    terms = np.zeros(x.size)
    terms[keep] = weight[keep] * f(x[keep])
    return terms


def quad_singular(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  tol: float = 1e-12) -> float:
    """Tanh-sinh quadrature of f on (a, b) to absolute tolerance tol.

    f takes a 1-D float64 array of abscissae, all strictly inside (a, b), and
    returns f at each; it is never evaluated at a or b.  Handles algebraic
    endpoint singularities of exponent > -1.  Nodes are addressed by their
    distance to the nearest endpoint (see ``_level_nodes``) and come from a
    table built once per level.  Levels halve the trapezoid spacing, reusing
    previous nodes.  Levels 0.._BATCH_LEVEL (at most 195 abscissae) go to f in
    one call, and their estimates come from per-level partial sums; only an
    integral not converged by then goes on, one call of f per level.  The
    estimate of a level is returned once it is within tol of the previous
    level's, from level 2 on.

    f receives only the abscissa x: integrands whose singular factor cancels
    catastrophically when recomputed from x (for example (1-x)^-1/2 evaluated
    at x near 1) limit the attainable tolerance to the cancellation noise,
    roughly 1e-7 for inverse-square-root behaviour at both endpoints.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ParameterDomainError(f"invalid interval [{a}, {b}]")
    halfw = 0.5 * (b - a)
    *nodes, level_of = _batch_nodes()
    # raw sum of weight*f through each level; the trapezoid spacing h
    # multiplies at the end, so halving h just adds the odd-multiple nodes
    totals = np.cumsum(np.bincount(level_of, weights=_node_terms(f, a, b, *nodes),
                                   minlength=_BATCH_LEVEL + 1))
    prev = math.inf
    for level in range(_QUAD_MAX_LEVEL + 1):
        if level <= _BATCH_LEVEL:
            total = float(totals[level])
        else:
            total += float(np.sum(_node_terms(f, a, b, *_level_nodes(level))))
        est = halfw * 0.5 ** level * total
        if level >= 2 and abs(est - prev) <= tol:
            return est
        prev = est
    raise ConvergenceError(
        f"tanh-sinh quadrature did not reach tol {tol} in {_QUAD_MAX_LEVEL} levels")


def brent_root(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> float:
    """Brent's method; keeps the bracket throughout, |root error| <= tol."""
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f = {fa:.3e}, {fb:.3e}")
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAX_ITER):
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        tol1 = 2.0 * math.ulp(abs(b)) + 0.5 * tol
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
    raise ConvergenceError(f"Brent did not converge in {_BRENT_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# defining integrals and closed forms

def _weighted_integral(alpha: float, d: float, tol: float = 1e-13) -> float:
    """int_0^{3pi/2} t^-alpha cos t (1 - 2t/(3pi))^d dt."""
    c = 2.0 / (3.0 * math.pi)
    return quad_singular(lambda t: np.cos(t) * t ** -alpha * (1.0 - c * t) ** d,
                         0.0, THREE_PI_OVER_2, tol)


def _hyp_factor(alpha: float, d: float) -> float:
    """The 2F3 factor of P_closed; its zero in alpha defines alpha0_prime
    (the prefactor is > 0)."""
    return hyp2f3(0.5 * (1.0 - alpha), 1.0 - 0.5 * alpha,
                  0.5, 0.5 * (2.0 - alpha + d), 0.5 * (3.0 - alpha + d), HYP_ARG)


def P_closed(alpha: float, d: float) -> float:
    """Closed form of the (1 - 2t/(3pi))^d - weighted integral."""
    if d < 0:
        raise ParameterDomainError(f"d >= 0 violated (d = {d})")
    return (gamma_fn(1.0 + d) * gamma_fn(1.0 - alpha) / gamma_fn(2.0 - alpha + d)
            * THREE_PI_OVER_2 ** (1.0 - alpha) * _hyp_factor(alpha, d))


def K_closed(alpha: float) -> float:
    """Closed form of int_0^{3pi/2} t^-alpha cos t dt (Gamma-prefactored 2F3):
    P_closed at d = 0, bit for bit, since Gamma(1) = 1 exactly."""
    return P_closed(alpha, 0.0)


def h_corr(alpha: float, d: float) -> float:
    """Correction term h with P(alpha, d) = K(alpha) + h(alpha, d).

    Series with Gamma-ratio terms; the reciprocal Gammas advance by the exact
    two-step recurrence 1/Gamma(z+2) = 1/(z (z+1) Gamma(z)) from one seed each,
    truncated once five consecutive terms fall below 1e-17 of the partial sum.
    """
    if d < 0:
        raise ParameterDomainError(f"d >= 0 violated (d = {d})")
    if not alpha < 1:
        raise ParameterDomainError(f"alpha < 1 violated (alpha = {alpha})")
    if d == 0.0:
        return 0.0  # the two Gamma-ratio tracks coincide term by term
    pref = THREE_PI_OVER_2 ** (1.0 - alpha) * gamma_fn(1.0 - alpha)
    g1d = gamma_fn(1.0 + d)
    inv_gd = 1.0 / gamma_fn(2.0 - alpha + d)   # 1/Gamma(2 - alpha + d + 2k)
    inv_g0 = 1.0 / gamma_fn(2.0 - alpha)       # 1/Gamma(2 - alpha + 2k)
    poch = 1.0  # ((1-a)/2)_k (1-a/2)_k 4^k / ((1/2)_k k!) * z^k
    acc = 0.0
    small = 0
    for k in range(_H_CORR_MAX_TERMS):
        term = poch * (g1d * inv_gd - inv_g0)
        acc += term
        if abs(term) <= 1e-17 * max(abs(acc), 1e-300):
            small += 1
            if small >= 5:
                return pref * acc
        else:
            small = 0
        poch *= ((0.5 * (1.0 - alpha) + k) * (1.0 - 0.5 * alpha + k) * 4.0 * HYP_ARG
                 / ((0.5 + k) * (k + 1.0)))
        zd = 2.0 - alpha + d + 2.0 * k
        inv_gd /= zd * (zd + 1.0)
        z0 = 2.0 - alpha + 2.0 * k
        inv_g0 /= z0 * (z0 + 1.0)
    raise ConvergenceError(f"h series did not converge within {_H_CORR_MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# constants

def alpha0(route: str = "quadrature-root") -> SpecialConstant:
    """Littlewood-Salem-Izumi constant, root in (0, 1) of the cosine integral:
    alpha0_prime at d = 0, where the weight is 1, so both routes are solved
    and cross-checked."""
    return replace(_solve_alpha0_prime(0.0, route)[0], name="alpha0")


def _root_in_alpha(fn: Callable[[float], float], d: float) -> float:
    """Root of fn over the extended alpha bracket [-0.6, 1 - 1e-6]: each
    route changes sign there exactly once for d <= 1.5 (the quadrature route
    on [-0.6, 0.9]), and not at all from d = 2."""
    hi = 1.0 - 1e-6
    try:
        return brent_root(fn, -0.6, hi, tol=1e-12)
    except BracketError:
        raise RootOutOfRangeError(
            f"alpha0_prime: no sign change in alpha in [-0.6, {hi}] for d = {d}") from None


def alpha0_prime(d: float, route: str = "quadrature-root") -> SpecialConstant:
    """Root alpha0'(d) of the weighted integral; d = b - c >= 0.

    Always solves both the quadrature route and the 2F3 route and requires
    them to agree within _CROSS_CHECK_TOL (ConvergenceError otherwise): the
    quadrature route confirms the 2F3 root.  The root leaves (0, 1) beyond
    d = 1 - alpha0; the bracket extends to -0.6 before reporting
    RootOutOfRangeError.
    """
    return _solve_alpha0_prime(d, route)[0]


def _solve_alpha0_prime(d: float, route: str) -> tuple[SpecialConstant, float]:
    """alpha0_prime(d, route) and the other route's root,
    from the one solve of both routes.

    The cheap 2F3 route is searched over the extended bracket; the
    quadrature route then confirms its root.  Each route changes sign exactly
    once on that bracket (``_root_in_alpha``), so the quadrature root lies
    within _CROSS_CHECK_TOL of the 2F3 root exactly when the quadrature
    integral changes sign on that window, and Brent on the window gives the
    quadrature integral's own root to 1e-12.  Both routes are solved; the
    quadrature route needs no search of its own over the bracket.
    """
    if route not in ("quadrature-root", "hyp2f3-root"):
        raise ParameterDomainError(f"unknown route {route!r}")
    if d < 0:
        raise ParameterDomainError(f"d >= 0 violated (d = {d})")
    # cached, so each residual is the value Brent computed at its root
    quad_fn = functools.cache(lambda a: _weighted_integral(a, d))
    hyp_fn = functools.cache(lambda a: _hyp_factor(a, d))
    root_h = _root_in_alpha(hyp_fn, d)
    # the root never exceeds alpha0 for d >= 0; capping the quadrature
    # window at 0.9 keeps it clear of the nearly non-integrable t^(alpha-1)
    # regime
    try:
        root_q = brent_root(quad_fn, root_h - _CROSS_CHECK_TOL,
                            min(root_h + _CROSS_CHECK_TOL, 0.9), tol=1e-12)
    except BracketError:
        raise ConvergenceError(
            f"alpha0_prime routes disagree at d = {d}: the quadrature integral "
            f"does not change sign within {_CROSS_CHECK_TOL} of the 2F3 root "
            f"{root_h}") from None
    if route == "quadrature-root":
        return (SpecialConstant("alpha0_prime", root_q, route, abs(quad_fn(root_q)), 1e-8),
                root_h)
    return (SpecialConstant("alpha0_prime", root_h, route, abs(hyp_fn(root_h)), 1e-8),
            root_q)


#: the d grid {0, 0.02, ..., 0.2} of the expansion fit
_EXPANSION_DS = (0.02 * np.arange(11)).tolist()


def expansion_fit() -> tuple[SpecialConstant, SpecialConstant]:
    """Least-squares cubic fit of alpha0_prime(d) on d in {0, 0.02, ..., 0.2}.

    Returns (beta0, beta1): the negated linear and quadratic coefficients of
    alpha0' = alpha0 - beta0 d - beta1 d^2 + O(d^3).
    """
    return _fit_expansion([alpha0_prime(d).value for d in _EXPANSION_DS])


def _fit_expansion(roots: list[float]) -> tuple[SpecialConstant, SpecialConstant]:
    """`expansion_fit` over the given roots alpha0_prime(d), d in _EXPANSION_DS."""
    ds, roots = np.array(_EXPANSION_DS), np.array(roots)
    scale = ds[-1]
    design = np.vander(ds / scale, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(design, roots, rcond=None)
    coef = coef / scale ** np.arange(4)
    fit = np.vander(ds, 4, increasing=True) @ coef
    resid = float(np.max(np.abs(fit - roots)))
    beta0 = SpecialConstant("beta0", float(-coef[1]), "expansion-fit", resid, 1e-3)
    beta1 = SpecialConstant("beta1", float(-coef[2]), "expansion-fit", resid, 1e-3)
    return beta0, beta1


def bessel_j(nu: float, t: float | np.ndarray) -> float | np.ndarray:
    """Bessel J_nu(t) by the ascending series, for nu > -1 and 0 <= t <= 30;
    within 1e-13 of J_nu(t) for t up to about 10 only (see the last lines).

    t may be an array, which gives an array of J_nu at each point; a scalar t
    gives a float.  J_nu(0) is 1, 0 or inf as nu is 0, positive or negative;
    ParameterDomainError if any t lies outside [0, 30].  Each point is summed
    until five consecutive terms fall below 1e-17 of its partial sum, with
    the operations of a term-by-term loop: the terms of all points form one
    table, multiplied down its rows by one cumprod and summed by one cumsum.
    The series alternates, so its absolute error grows with the sum of |terms|,
    I_nu(t): about 1e-16 I_nu(t).  Against mpmath (nu = -0.9 .. 2.5) it is
    below 6e-14 up to t = 10, passes 1e-13 between t = 10.5 and 11, and
    reaches ~1e-5 near t = 30.  lambda' needs t <= j_{a,2}, about 5.
    """
    if nu <= -1:
        raise ParameterDomainError(f"nu > -1 violated (nu = {nu})")
    ts = np.asarray(t, dtype=np.float64)
    inside = (ts >= 0) & (ts <= 30)
    if not inside.all():
        raise ParameterDomainError(
            f"t = {ts[~inside].flat[0]} outside the accepted range [0, 30]")
    flat = ts.ravel()
    out = np.full(flat.size, 1.0 if nu == 0.0 else (0.0 if nu > 0 else math.inf))
    pos = flat > 0
    if pos.any():
        out[pos] = _bessel_series(nu, flat[pos])
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _bessel_series(nu: float, t: np.ndarray) -> np.ndarray:
    """The ascending series of J_nu at the points t > 0 (1-D)."""
    q = -0.25 * t * t
    # Near a zero of J the stop rule (five terms below 1e-17 of the partial
    # sum) runs past 16 + 2 ceil(t) rows, so the table starts at twice that:
    # every series lambda' needs is summed in one pass.  A larger table has
    # the same cumprod/cumsum prefix, so its size never changes a value.
    rows = min(_BESSEL_MAX_TERMS, 32 + 4 * math.ceil(t.max()))
    while True:
        m = np.arange(rows, dtype=np.float64)[:, None]
        table = np.empty((rows + 1, t.size))
        table[0] = (0.5 * t) ** nu / gamma_fn(nu + 1.0)
        table[1:] = q / ((m + 1.0) * (nu + m + 1.0))
        terms = np.cumprod(table, axis=0)
        acc = np.cumsum(terms, axis=0)
        small = np.abs(terms[1:]) <= 1e-17 * np.maximum(np.abs(acc[1:]), 1e-300)
        # five small terms in a row, the last of them term i + 5
        done = small[4:] & small[3:-1] & small[2:-2] & small[1:-3] & small[:-4]
        if done.any(axis=0).all():
            return acc[done.argmax(axis=0) + 5, np.arange(t.size)]
        if rows == _BESSEL_MAX_TERMS:
            raise ConvergenceError(
                f"Bessel series did not converge within {_BESSEL_MAX_TERMS} terms")
        rows = min(_BESSEL_MAX_TERMS, 2 * rows)


def _with_known(f: Callable[[float], float], known: dict) -> Callable[[float], float]:
    """f, looking up the points of `known` in place of calling f there."""
    return lambda x: known[x] if x in known else f(x)


def bessel_zero(nu: float, m: int) -> float:
    """m-th positive zero of J_nu (m in {1, 2}), by scan + Brent on the series.

    The scan walks the grid t = 0.05 k, k = 1 .. 600, evaluating _ZERO_CHUNK
    points a call of bessel_j, and stops at the chunk that holds the m-th sign
    change (or exact zero); Brent then refines that step, starting from the
    scan's values at its ends.
    """
    if m not in (1, 2):
        raise ParameterDomainError(f"m must be 1 or 2, got {m}")
    if nu <= -1:
        raise ParameterDomainError(f"nu > -1 violated (nu = {nu})")
    step = 0.05
    found = 0
    for start in range(1, 600, _ZERO_CHUNK):
        ts = np.arange(start, min(start + _ZERO_CHUNK, 600) + 1) * step
        fs = bessel_j(nu, ts)
        f_prev, f_cur = fs[:-1], fs[1:]
        hits = np.flatnonzero((f_prev == 0.0) | (f_prev * f_cur < 0))
        if found + hits.size >= m:
            i = hits[m - found - 1]
            if f_prev[i] == 0.0:
                return float(ts[i])
            lo, hi = float(ts[i]), float(ts[i + 1])
            # the scan's values at the bracket ends are bit for bit those of
            # scalar calls, so Brent takes the same steps without them
            f = _with_known(lambda x: bessel_j(nu, x),
                            {lo: float(f_prev[i]), hi: float(f_cur[i])})
            return brent_root(f, lo, hi, tol=1e-12)
        found += hits.size
    raise RootOutOfRangeError(f"zero {m} of J_{nu} not located below t = 30")


def lambda_prime() -> SpecialConstant:
    """Gegenbauer positivity threshold lambda' = alpha' + 1/2.

    alpha' solves int_0^{j_{a,2}} t^-a J_a(t) dt = 0 over the negative-order
    region (order > -1), the upper limit moving with a.
    """
    @functools.cache  # the residual is Brent's last evaluation
    def G(a: float) -> float:
        j2 = bessel_zero(a, 2)
        return quad_singular(lambda t: t ** (-a) * bessel_j(a, t), 0.0, j2, tol=1e-13)

    root = brent_root(G, -0.35, -0.15, tol=1e-12)
    return SpecialConstant("lambda_prime", root + 0.5, "bessel-quadrature-root",
                           abs(G(root)), 1e-8)
