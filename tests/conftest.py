"""Shared naive oracles for the test suite.

These deliberately avoid the library's evaluation paths: plain term-by-term
summation with math.fsum, Fraction-based rising factorials, a discrete
Cauchy contour sum, and mpmath for the tapered-integral threshold and the
tapered coefficients, so each dual-route test really has two independent
sides.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from postrig import TrigPolynomial, shifted_poly


def naive_terms(poly):
    """(kind, frequency, coefficient) of every term of a TrigPolynomial, in
    plain Python floats from its coefficient arrays: nu = k + shift, k from 1
    in the standard layout and from 0 when shifted."""
    k0 = 0 if poly.shift != 0.0 else 1
    return [(kind, j + k0 + poly.shift, c)
            for kind, coeffs in (("cos", poly.cos_coeffs), ("sin", poly.sin_coeffs))
            for j, c in enumerate(coeffs.tolist())]


def stride_layout(a0, cc, sc, shift, stride):
    """TrigPolynomial(a0, cc, sc, shift) with the j-th cosine and sine
    coefficients at nu = stride*(j + k0) + shift (k0 as in `naive_terms`):
    at stride 2 `shifted_poly` lays each part out with a zero at every
    skipped frequency."""
    if stride == 2:
        lead = [] if shift else [0.0]  # the standard layout starts at k = 1
        cc = shifted_poly(lead + list(cc), shift, "cosine", 2).cos_coeffs if len(cc) else ()
        sc = shifted_poly(lead + list(sc), shift, "sine", 2).sin_coeffs if len(sc) else ()
    return TrigPolynomial(a0, cc, sc, shift)


def naive_trig_value(poly, theta: float) -> float:
    """Term-by-term fsum evaluation of a TrigPolynomial."""
    return math.fsum([0.5 * poly.a0] + [
        c * (math.cos(nu * theta) if kind == "cos" else math.sin(nu * theta))
        for kind, nu, c in naive_terms(poly)])


def mp_derivative(poly, theta: float, order: int) -> float:
    """The order-th derivative of a TrigPolynomial at theta, term by term in
    mpmath at 40 digits: d^k/dtheta^k of cos(nu*theta + p*pi/2) is
    nu^k cos(nu*theta + (p + k)*pi/2), p = -1 for a sine term."""
    import mpmath as mp
    with mp.workdps(40):
        total = mp.mpf(poly.a0) / 2 if order == 0 else mp.mpf(0)
        for kind, nu, c in naive_terms(poly):
            p = order - (kind == "sin")
            total += mp.mpf(c) * mp.mpf(nu) ** order * mp.cos(
                mp.mpf(nu) * mp.mpf(theta) + p * mp.pi / 2)
        return float(total)


def naive_sine_sum(coeffs, theta: float) -> float:
    return math.fsum(c * math.sin((k + 1) * theta) for k, c in enumerate(coeffs))


def naive_cosine_sum(a0, coeffs, theta: float) -> float:
    return 0.5 * a0 + math.fsum(c * math.cos((k + 1) * theta)
                                for k, c in enumerate(coeffs))


def naive_halfangle_derivative(n, alpha, beta, lam, mu, theta: float) -> float:
    """d/dtheta of cos(theta/2) * C(theta), term by term:
    -(1/2) sin(theta/2) C(theta) - cos(theta/2) S(theta) with
    C = 1 + cos(theta) + sum_{k=2}^n cos(k theta)/(k w_k),
    S = sin(theta) + sum_{k=2}^n sin(k theta)/w_k, w_k = (k+alpha)^lam (k+beta)^mu."""
    w = {k: (k + alpha) ** lam * (k + beta) ** mu for k in range(2, n + 1)}
    C = math.fsum([1.0, math.cos(theta)]
                  + [math.cos(k * theta) / (k * w[k]) for k in w])
    S = math.fsum([math.sin(theta)] + [math.sin(k * theta) / w[k] for k in w])
    return -0.5 * math.sin(0.5 * theta) * C - math.cos(0.5 * theta) * S


def poch_fraction(x: Fraction, k: int) -> Fraction:
    """Exact rising factorial for rational x."""
    acc = Fraction(1)
    for j in range(k):
        acc *= x + j
    return acc


def contour_coeffs(fn, N: int, radius: float = 0.9, nodes: int = 512) -> np.ndarray:
    """Power-series coefficients of fn by a discrete Cauchy integral.

    Averages fn over `nodes` scaled roots of unity; the radius keeps the
    r^-k roundoff amplification moderate for k up to N.
    """
    ang = 2.0 * np.pi * np.arange(nodes) / nodes
    z = radius * np.exp(1j * ang)
    vals = np.array([fn(zz) for zz in z])
    ks = np.arange(N + 1)
    out = np.empty(N + 1)
    for k in ks:
        out[k] = (vals * np.exp(-1j * k * ang)).mean().real / radius ** k
    return out


def taper_integral(alpha, d, T, derivative: bool = False):
    """J(alpha, d, T) = int_0^1 u^-alpha (1-u)^d cos(T u) du, in mpmath.

    J = B(1-alpha, d+1) 2F3((1-alpha)/2, 1-alpha/2; 1/2, (2-alpha+d)/2,
    (3-alpha+d)/2; -T^2/4).  With derivative=True returns dJ/dT instead, from
    the parameter shift d/dz pFq(a; b; z) = (prod a / prod b) pFq(a+1; b+1; z).
    The tapered sums with theta = T/(2n) follow J as n grows.
    """
    import mpmath as mp
    alpha, d, T = mp.mpf(alpha), mp.mpf(d), mp.mpf(T)
    a = [(1 - alpha) / 2, 1 - alpha / 2]
    b = [mp.mpf(1) / 2, (2 - alpha + d) / 2, (3 - alpha + d) / 2]
    z = -T * T / 4
    scale = mp.beta(1 - alpha, d + 1)
    if not derivative:
        return scale * mp.hyp2f3(*a, *b, z)
    shift = a[0] * a[1] / (b[0] * b[1] * b[2])
    return (scale * shift * (-T / 2)
            * mp.hyp2f3(*(x + 1 for x in a), *(x + 1 for x in b), z))


@functools.lru_cache(maxsize=None)
def alpha_star(d: float) -> tuple[float, float]:
    """(alpha*(d), T*): the alpha at which min over T of J(alpha, d, T) is 0.

    Solves J = 0 and dJ/dT = 0 together by Newton in (alpha, T), started from
    a straight line through (0, alpha0, 3pi/2) and (0.5, 0.128, 5.47), then
    checks that the solved point is the global minimum: J(alpha*, d, T) >=
    -1e-12 on a grid of T over [pi/2, 4pi] (J > 0 for T < pi/2 since the
    cosine is positive there).  alpha*(0) = alpha0 with T* = 3pi/2.
    """
    import mpmath as mp
    with mp.workdps(30):
        guess = (mp.mpf("0.3084") - mp.mpf("0.36") * d,
                 3 * mp.pi / 2 + mp.mpf("1.5") * d)
        a, T = mp.findroot(lambda a, T: (taper_integral(a, d, T),
                                         taper_integral(a, d, T, True)), guess)
        for T_grid in mp.linspace(mp.pi / 2, 4 * mp.pi, 141):
            assert taper_integral(a, d, T_grid) >= -1e-12, (d, float(T_grid))
    return float(a), float(T)


def ck_values_mp(n: int, alpha, b, c) -> list:
    """ck coefficients [c_0..c_{2n+1}] in mpmath, from the defining formula.

    c_{2k} = c_{2k+1} = (B_{n-k}/B_n) (1-alpha)_k/k!, with B_0 = 1 and
    B_k = ((b)_k/(c)_k) (1+b-c)/b for k >= 1.
    """
    import mpmath as mp
    alpha, b, c = mp.mpf(alpha), mp.mpf(b), mp.mpf(c)
    B = [mp.mpf(1)] + [mp.rf(b, k) / mp.rf(c, k) * (1 + b - c) / b
                       for k in range(1, n + 1)]
    out = []
    for k in range(n + 1):
        v = B[n - k] / B[n] * mp.rf(1 - alpha, k) / mp.factorial(k)
        out += [v, v]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
