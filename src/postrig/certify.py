"""Grid + Lipschitz positivity certification for trigonometric polynomials.

A sum is certified strictly positive on a working interval when, cell by
cell, the sampled endpoint values beat the largest possible dip between them:
on a cell of width w the sum cannot fall below (f_l + f_r)/2 - L*w/2, with L
a uniform bound on |d/dtheta|.  Cells that fail the test are bisected (only
they are), up to a depth limit.  Every sample lies on the dyadic grid
wlo + i*h/2^depth, so cells are integer indices and each batch goes through
`TrigPolynomial.values_grid`.  A sample below minus the evaluation roundoff
bound refutes with a witness; a non-positive sample inside that bound is no
witness, and the cells it bounds never certify.  Inconclusive is a
first-class outcome and is never upgraded.

Endpoints where the sum vanishes identically (sine sums at multiples of pi,
the quarter-phase sums at 2*pi, ...) are detected structurally, inset by eps,
and settled by the analytic boundary slope; for a plain sine sum the inward
slope at pi is exactly the alternating Belov sum, which is what makes the
necessity direction of that criterion executable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterDomainError
from .kernels import KERNEL_TOL
from .trigeval import TrigPolynomial

_HALF_PI = 0.5 * math.pi

CERTIFIED = "certified-positive"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertifyOptions:
    grid0: int = 4096
    max_depth: int = 8
    eps: float = 1e-4
    workers: int = 1

    def __post_init__(self):
        if self.grid0 < 2:
            raise ParameterDomainError("grid0 must be >= 2")
        if self.max_depth < 0:
            raise ParameterDomainError("max_depth must be >= 0")
        if self.eps <= 0:
            raise ParameterDomainError("eps must be > 0")
        if self.workers < 1:
            raise ParameterDomainError("workers must be >= 1")


@dataclass(frozen=True)
class PositivityReport:
    verdict: str
    lower_bound: float | None
    witness: tuple[float, float] | None  # (theta, value)
    grid_points: int
    refinement_depth: int
    lipschitz: float
    interval: tuple[float, float]
    boundary_notes: str

    def __post_init__(self):
        if self.verdict not in (CERTIFIED, REFUTED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == CERTIFIED and not (self.lower_bound is not None
                                              and self.lower_bound > 0):
            raise ValueError("certified-positive requires a positive lower bound")
        if self.verdict == REFUTED:
            if self.witness is None or self.witness[1] > 0:
                raise ValueError("refuted requires a witness with value <= 0")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "lower_bound": self.lower_bound,
            "witness": None if self.witness is None else
                {"theta": self.witness[0], "value": self.witness[1]},
            "grid_points": self.grid_points,
            "refinement_depth": self.refinement_depth,
            "lipschitz": self.lipschitz,
            "interval": {"lo": self.interval[0], "hi": self.interval[1]},
            "boundary_notes": self.boundary_notes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PositivityReport":
        w = d["witness"]
        return cls(
            verdict=d["verdict"],
            lower_bound=d["lower_bound"],
            witness=None if w is None else (w["theta"], w["value"]),
            grid_points=d["grid_points"],
            refinement_depth=d["refinement_depth"],
            lipschitz=d["lipschitz"],
            interval=(d["interval"]["lo"], d["interval"]["hi"]),
            boundary_notes=d["boundary_notes"],
        )


@dataclass(frozen=True)
class ZeroBracketList:
    brackets: tuple[tuple[float, float, int, int], ...]  # (lo, hi, sign_lo, sign_hi)
    polynomial_kind: str

    def __post_init__(self):
        for lo, hi, s_lo, s_hi in self.brackets:
            if s_lo * s_hi >= 0:
                raise ValueError("bracket endpoints must have opposite signs")
            if hi <= lo:
                raise ValueError("bracket must have positive width")

    def to_dict(self) -> dict:
        return {
            "polynomial_kind": self.polynomial_kind,
            "brackets": [{"lo": lo, "hi": hi, "sign_lo": s_lo, "sign_hi": s_hi}
                         for lo, hi, s_lo, s_hi in self.brackets],
        }


def lipschitz_bound(poly: TrigPolynomial) -> float:
    """sum over terms of frequency * |coefficient|: a uniform |d/dtheta| bound."""
    return float(sum(nu @ np.abs(c) for nu, c in poly.terms()))


def curvature_bound(poly: TrigPolynomial) -> float:
    """Same with frequency^2: a uniform |d^2/dtheta^2| bound."""
    return float(sum((nu * nu) @ np.abs(c) for nu, c in poly.terms()))


def vanishes_structurally(poly: TrigPolynomial, t: float) -> bool:
    """True when every term of the sum is zero at t by the trig zero pattern.

    Only multiples of pi/2 can host such termwise zeros for the frequency
    families stride*k + shift; anything else reports False and the endpoint is
    simply sampled.
    """
    q = round(t / _HALF_PI)
    if abs(t - q * _HALF_PI) > 1e-9 * max(1.0, abs(t)):
        return False
    if poly.a0 != 0.0:
        return False
    for kind, coeffs in (("cos", poly.cos_coeffs), ("sin", poly.sin_coeffs)):
        if not coeffs:
            continue
        if (poly.stride * q) % 2 != 0:
            return False
        r = math.fmod(poly.shift * q, 2.0)
        if r < 0:
            r += 2.0
        if kind == "sin":
            if min(r, 2.0 - r) > 1e-9:
                return False
        else:
            if abs(r - 1.0) > 1e-9:
                return False
    return True


def coefficient_mass(poly: TrigPolynomial) -> float:
    return 0.5 * abs(poly.a0) + float(sum(np.abs(c).sum() for _, c in poly.terms()))


def second_derivative_value(poly: TrigPolynomial, t: float) -> float:
    (nu_c, cc), (nu_s, sc) = poly.terms()
    return -float((cc * nu_c * nu_c) @ np.cos(nu_c * t)
                  + (sc * nu_s * nu_s) @ np.sin(nu_s * t))


def endpoint_vanishes(poly: TrigPolynomial, t: float) -> bool:
    """Endpoint where the sum is analytically zero.

    Either every term vanishes (structural pattern), or the terms cancel in
    pairs -- e.g. cosine sums with equal coefficient pairs at theta = pi --
    which shows up as a value at roundoff scale relative to the coefficient
    mass.
    """
    if vanishes_structurally(poly, t):
        return True
    return abs(poly.value(t)) <= KERNEL_TOL * coefficient_mass(poly)


def derivative_poly(poly: TrigPolynomial) -> TrigPolynomial | None:
    """d/dtheta of the sum as another TrigPolynomial; None if constant.

    Coefficient positions keep their frequencies, so the same shift/stride
    layout carries over with the lists swapped and frequency-scaled.
    """
    (nu_c, cc), (nu_s, sc) = poly.terms()
    new_cos, new_sin = nu_s * sc, -nu_c * cc
    if not (new_cos.any() or new_sin.any()):
        return None
    return TrigPolynomial(0.0, new_cos, new_sin, poly.shift, poly.stride)


def roundoff_bound(poly: TrigPolynomial) -> float:
    """Largest error of a computed value of the sum.

    Each kernel sum is within KERNEL_TOL * mass of the exact one; the shift
    peel combines a C and an S with unit-modulus weights, hence the factor 2.
    A computed value at or above minus this bound is no proof of a
    non-positive value.
    """
    return 2.0 * KERNEL_TOL * coefficient_mass(poly)


def _hunt_witness(poly: TrigPolynomial, endpoint: float, inward: float,
                  span: float, eps: float, noise: float):
    """Probe inward from a vanishing endpoint for a sample below -noise.

    Largest offsets first so a genuine sign change yields a well-separated
    witness rather than an epsilon-scale one; the probes are evaluated in one
    batch and counted up to the first witness.
    """
    deltas = eps * 2.0 ** np.arange(7, -21, -1)
    ts = endpoint + np.copysign(deltas[deltas < 0.25 * span], inward)
    vs = poly.values(ts)
    hits = np.flatnonzero(vs < -noise)
    if hits.size:
        i = int(hits[0])
        return (float(ts[i]), float(vs[i])), i + 1
    return None, ts.size


def certify_positive(poly: TrigPolynomial, lo: float, hi: float,
                     opts: CertifyOptions | None = None) -> PositivityReport:
    """Certify strict positivity of the sum on (lo, hi); see module docstring."""
    opts = opts or CertifyOptions()
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ParameterDomainError(f"invalid interval [{lo}, {hi}]")
    if opts.eps >= 0.25 * (hi - lo):
        raise ParameterDomainError(
            f"eps = {opts.eps} must be below a quarter of the interval width")

    L = lipschitz_bound(poly)
    L2 = curvature_bound(poly)
    noise = roundoff_bound(poly)
    span = hi - lo
    notes: list[str] = []
    wlo, whi = lo, hi
    total_evals = 0

    def failure(verdict, witness, depth):
        return PositivityReport(verdict, None, witness, total_evals, depth, L,
                                (lo, hi), "; ".join(notes))

    slope_tol = 1e-12 * max(L, 1e-300)
    curv_tol = 1e-12 * max(L2, 1e-300)
    for side, endpoint in (("left", lo), ("right", hi)):
        if not endpoint_vanishes(poly, endpoint):
            notes.append(f"{side} endpoint {endpoint:.9g} sampled directly")
            continue
        sign = 1.0 if side == "left" else -1.0
        slope = sign * poly.derivative_value(endpoint)
        settled = False
        if slope > slope_tol:
            covered = "rigorously (slope > curvature*eps)" \
                if slope > L2 * opts.eps else "to first order"
            notes.append(f"{side} endpoint {endpoint:.9g} vanishes identically; "
                         f"inward slope {slope:.9g} covers the eps-zone {covered}")
            settled = True
        elif abs(slope) <= slope_tol:
            curv = second_derivative_value(poly, endpoint)
            if curv > curv_tol:
                notes.append(f"{side} endpoint {endpoint:.9g} vanishes to second "
                             f"order; curvature {curv:.9g} > 0 covers the eps-zone")
                settled = True
        if not settled:
            hit, used = _hunt_witness(poly, endpoint, sign, span, opts.eps, noise)
            total_evals += used
            if hit is not None:
                notes.append(f"non-positive boundary behaviour at the {side} "
                             "endpoint; witness found")
                return failure(REFUTED, hit, 0)
            notes.append(f"boundary behaviour at the {side} endpoint could not "
                         "be settled to second order; verdict inconclusive")
            return failure(INCONCLUSIVE, None, 0)
        if side == "left":
            wlo = lo + opts.eps
        else:
            whi = hi - opts.eps

    # Every sample lies on the dyadic grid wlo + i*h/2^depth: cells are kept
    # as integer left indices il at the current depth, so each batch is a
    # uniform-grid evaluation and the points are exact grid points.
    h = (whi - wlo) / (opts.grid0 - 1)

    def point(i, step) -> float:
        # the grid's last point may round an ulp beyond whi
        return min(float(wlo + i * step), whi)

    vals = poly.values_grid(wlo, h, np.arange(opts.grid0), opts.workers)
    total_evals += opts.grid0
    imin = int(np.argmin(vals))
    if vals[imin] < -noise:
        return failure(REFUTED, (point(imin, h), float(vals[imin])), 0)

    # Cell arrays, kept in ascending-theta order so ties resolve
    # deterministically.  Each cell carries its own |f'| bound Lc, tightened
    # on subdivision to |f'(parent mid)| + L2 * parent_width / 2, which is
    # what lets cells near a vanishing endpoint (tiny slope, tiny values)
    # certify without driving h below the global L scale.  A cell with a
    # sample at or below 0 that is no witness (inside the roundoff bound)
    # never certifies.
    deriv = derivative_poly(poly)
    il = np.arange(opts.grid0 - 1)
    fl, fr = vals[:-1], vals[1:]
    Lc = np.full(il.size, L)
    dx = h
    depth = 0
    lower = math.inf
    while True:
        bound = 0.5 * (fl + fr) - 0.5 * Lc * dx
        fail = (bound <= 0.0) | (fl <= 0.0) | (fr <= 0.0)
        if bound[~fail].size:
            lower = min(lower, float(bound[~fail].min()))
        if not fail.any():
            break
        if depth >= opts.max_depth:
            worst = int(np.argmin(bound))
            notes.append(f"refinement depth exhausted near theta = "
                         f"{point(il[worst] + 0.5, dx):.9g}")
            return failure(INCONCLUSIVE, None, depth)
        depth += 1
        dx *= 0.5
        il, fl, fr, Lc = il[fail], fl[fail], fr[fail], Lc[fail]
        im = 2 * il + 1
        fm = poly.values_grid(wlo, dx, im, opts.workers)
        total_evals += im.size
        jmin = int(np.argmin(fm))
        if fm[jmin] < -noise:
            return failure(REFUTED, (point(im[jmin], dx), float(fm[jmin])), depth)
        if deriv is not None:
            dm = np.abs(deriv.values_grid(wlo, dx, im, opts.workers))
            total_evals += im.size
            Lc = np.minimum(Lc, dm + L2 * dx)
        il = np.stack((2 * il, im), axis=1).ravel()
        fl = np.stack((fl, fm), axis=1).ravel()
        fr = np.stack((fm, fr), axis=1).ravel()
        Lc = np.repeat(Lc, 2)

    if not math.isfinite(lower) or lower <= 0.0:
        return failure(INCONCLUSIVE, None, depth)
    return PositivityReport(CERTIFIED, lower, None, total_evals, depth, L,
                            (lo, hi), "; ".join(notes))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def find_min(poly: TrigPolynomial, lo: float, hi: float, grid0: int = 4096,
             eps: float = 1e-4, tol: float = 1e-8) -> tuple[float, float]:
    """Grid scan plus golden-section refinement; |theta error| <= tol, or
    the bracket's floating-point resolution when that is coarser.

    Vanishing endpoints are inset by eps exactly as in certify_positive; ties
    between equal minima resolve to the smallest theta.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ParameterDomainError(f"invalid interval [{lo}, {hi}]")
    if grid0 < 2:
        raise ParameterDomainError(f"grid0 must be >= 2, got {grid0}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterDomainError(f"tol must be a finite number > 0, got {tol}")
    wlo = lo + (eps if endpoint_vanishes(poly, lo) else 0.0)
    whi = hi - (eps if endpoint_vanishes(poly, hi) else 0.0)
    xs = np.linspace(wlo, whi, grid0)
    vals = poly.values(xs)
    i = int(np.argmin(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a = float(xs[max(0, i - 1)])
    b = float(xs[min(grid0 - 1, i + 1)])
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = poly.value(x1), poly.value(x2)
    width = math.inf
    while tol < b - a < width:  # stop once rounding stops the bracket shrinking
        width = b - a
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = poly.value(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = poly.value(x2)
    xg = 0.5 * (a + b)
    vg = poly.value(xg)
    if vg < best_v or (vg == best_v and xg < best_x):
        best_x, best_v = xg, vg
    return best_x, best_v


def bracket_zeros(kind: str, coeffs: Sequence[float], lo: float, hi: float,
                  grid: int) -> ZeroBracketList:
    """Sign-change brackets for p(theta) = sum a_k cos((n-k)theta) or
    q(theta) = sum a_k sin((n-k)theta), coefficients a_0 > a_1 >= ... >= a_n > 0.
    """
    if kind not in ("p", "q"):
        raise ParameterDomainError(f"kind must be p or q, got {kind!r}")
    a = np.array(coeffs, dtype=np.float64)
    if not a.size:
        raise ParameterDomainError("need at least one coefficient")
    if a[-1] <= 0:
        raise ParameterDomainError("coefficients must be positive")
    if a.size > 1 and not a[0] > a[1]:
        raise ParameterDomainError(f"a_0 > a_1 violated ({a[0]} <= {a[1]})")
    rises = np.flatnonzero(a[1:-1] < a[2:]) + 1
    if rises.size:
        j = int(rises[0])
        raise ParameterDomainError(f"a_{j} >= a_{j + 1} violated ({a[j]} < {a[j + 1]})")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ParameterDomainError(f"invalid interval [{lo}, {hi}]")

    if kind == "p":
        n = a.size - 1
        poly = TrigPolynomial(a0=2.0 * a[n], cos_coeffs=a[:n][::-1])
    else:
        n = a.size
        poly = TrigPolynomial(sin_coeffs=a[::-1])
    min_grid = max(2, 16 * n)
    if grid < min_grid:
        raise ParameterDomainError(
            f"grid = {grid} undersamples degree {n}; need >= {min_grid}")

    xs = np.linspace(lo, hi, grid + 1)
    vals = poly.values(xs)
    h = (hi - lo) / grid
    zero = np.flatnonzero(vals == 0.0)
    if zero.size:
        # nudge exact-zero samples off the zero; inward at the boundaries so
        # endpoint zeros of the open interval do not fake a crossing
        xs[zero] += np.where(zero == grid, -1e-6 * h, 1e-6 * h)
        vals[zero] = poly.values(xs[zero])
    sign = np.where(vals > 0, 1, -1)
    cross = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    return ZeroBracketList(tuple((float(xs[i]), float(xs[i + 1]), int(sign[i]),
                                  int(sign[i + 1])) for i in cross.tolist()), kind)
