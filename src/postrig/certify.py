"""Grid + cell-bound positivity certification for trigonometric polynomials.

This module is the engine (endpoint policy, `certify_positive`, `find_min`,
`bracket_zeros`); L, L2, L4 and the roundoff bounds come from
`postrig.trigeval`.  All three scan a level-0 grid (`_level0`), each sized
its own way; `find_min` then descends on floats.  All three run on the
caller's polynomial at the unit scale (`trigeval.unit_scale`), where every
value and bound is finite, and scale the lower bound, witness value,
minimum and the slopes, curvatures and L4 of the notes back by 2^e at the
report (`_at_scale`, the lower bound rounded toward zero); `lipschitz` is
the copy's L scaled back and rounded up, or the caller's own where the
copy is rounded.

A sum is certified strictly positive on a working interval when, cell by
cell, the sampled endpoint values beat the largest possible dip between
them.  On a cell of width w the sum cannot fall below min(f_l, f_r) -
L2*w^2/8, L2 = sum nu^2 |c| a uniform bound on |f''| (the linear
interpolant's error bound).  L2 grows like n^3 with bounded coefficients,
while f'' near a minimum stays small, so at high degree a cell that fails
is tested again at the same depth with a bound from local data: f' =
`TrigPolynomial.derivative()` is sampled in one batch at the failing cells'
unique lattice ends (and at the window ends that are no lattice points, in
one direct batch, where a partial cell fails), and the cubic Hermite
interpolant of (f, f') bounds f on the cell (`_hermite_bound`).  The
cell's bound is the larger of the two, a NaN one ignored.  Only level 0
can be the first level with failing cells, so f' is sampled from depth 0
on, and then at every level's midpoints beside f: most certificates end at
level 0 without it.  `grid_points`
counts every point at which f or f' is evaluated, and a note gives the f'
samples and L4.

Computed values are within the evaluation roundoff bound of the exact ones
(lattice values within it and the FFT's abscissa term, `_drift`), so a cell
certifies only when its bound beats that bound (a NaN bound never does),
and the certified lower bound is the smallest cell bound net of it.  Cells
that fail the test are bisected (only they are), up to a depth limit; each
level evaluates the sum once at the failing cells' midpoints, and f' once
at the same points.  Level 0 holds max(1024, min(4096, 16*ceil(nu)),
ceil(nu*W/pi)) points by default, nu the top frequency and W the window's
width, or at least `CertifyOptions.grid0` (`_level0_size`), and a note names
the term that set the count.  The level-0 step is h = 2*pi/m, m picked so
that one real FFT of length m scans the window (`_level0`), on the lattice
j*h anchored at 0 whatever the window.  Its points x_first .. x_last on the
window are sampled, and so are the window ends that are no lattice points,
in one direct batch; the partial cells [wlo, x_first] and [x_last, whi]
are bounded with their own widths and bisected on the same lattice where
the new lattice point falls inside them, and carry on whole otherwise.  A
constant sum (L = 0) is not refined, and f' is not sampled: no cell bound
depends on the cell width.  Every sample but the window ends lies on the
grid i*h/2^depth, which the FFT takes as the lattice 2*pi*i/M, M =
m*2^depth (`_drift`), so cells are integer indices and every batch of a
level is one `TrigPolynomial.values_period` call on that lattice: one real
FFT, or the direct sums where the cost model finds them cheaper (few of the
lattice's points asked for).
A sample below minus the roundoff bound refutes with a witness; a
non-positive sample inside that bound is no witness, and the cells it
bounds never certify.  Inconclusive is a first-class outcome and is never
upgraded.

At a multiple of pi/2 each term and its first two derivatives carry a
factor exactly 0 or +-1 (`vanishing_endpoint`), so whether the sum vanishes
there is a fact about the coefficients.  One rule decides both window ends
for `certify_positive` and `find_min`: an endpoint where the sum vanishes
(sine sums at multiples of pi, paired cosine sums at pi, quarter-phase sums
at 2*pi) with a positive inward slope, or a positive curvature at
second-order contact, is inset by EPS and settled by it.  Every other
endpoint is sampled like any other point.  A sample at a vanishing endpoint
is within the roundoff bound of 0, no witness, so refinement probes toward
it at h/2, ..., h/2^depth; a negative zone narrower than the finest cell is
inconclusive.  For a plain sine sum the inward slope at pi is exactly the
alternating Belov sum, which makes the necessity direction of that
criterion executable here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ParameterDomainError
from .kernels import SUBNORMAL, period_lattice
from .trigeval import (TrigPolynomial, curvature_bound, fourth_derivative_bound,
                       lipschitz_bound, roundoff_bound, unit_scale)

_HALF_PI = 0.5 * math.pi

CERTIFIED = "certified-positive"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

#: the inset of a vanishing endpoint whose inward slope or curvature is positive
EPS = 1e-4


@dataclass(frozen=True)
class CertifyOptions:
    """grid0: at least this many level-0 points, or None for a count sized by
    the sum's top frequency and the window (`_level0_size`); max_depth: the
    deepest refinement level."""
    grid0: int | None = None
    max_depth: int = 8

    def __post_init__(self):
        if self.grid0 is not None and self.grid0 < 2:
            raise ParameterDomainError("grid0 must be >= 2")
        if self.max_depth < 0:
            raise ParameterDomainError("max_depth must be >= 0")


_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _number(v):
    """v, or the float that a strict-JSON string for a non-finite float names."""
    return _NON_FINITE.get(v, v) if isinstance(v, str) else v


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
        """Inverse of `to_dict`, also of its strict-JSON form, in which the
        non-finite floats are the strings "NaN", "Infinity" and "-Infinity"."""
        w, iv = d["witness"], d["interval"]
        return cls(
            verdict=d["verdict"],
            lower_bound=_number(d["lower_bound"]),
            witness=None if w is None else (_number(w["theta"]), _number(w["value"])),
            grid_points=d["grid_points"],
            refinement_depth=d["refinement_depth"],
            lipschitz=_number(d["lipschitz"]),
            interval=(_number(iv["lo"]), _number(iv["hi"])),
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


#: cos(m*pi/2) for m mod 4
_QUARTER_TURN = (1.0, 0.0, -1.0, 0.0)


def vanishing_endpoint(poly: TrigPolynomial, t: float):
    """(slope, curvature) at t when t is q*pi/2 rounded to a float and the
    sum is exactly 0 there, else None.

    Any other t is sampled: next to a cancelling zero the sum is about
    slope*(t - q*pi/2), which can be negative.  At q*pi/2 the k-th
    derivative of trig(nu*theta) is nu^k*cos((m + k)*pi/2), m = nu*q (less 1
    for sin).  When shift*q is an integer so is m, the factor is exactly 0
    or +-1, and m mod 4 depends only on the term's index mod 4; otherwise
    the endpoint is sampled too.  `math.fsum`, correctly rounded, decides
    whether the signed sum of coefficients is 0; where a partial sum, the
    slope or the curvature leaves the float range, which on a unit-scale
    polynomial (`unit_scale`) none does, the endpoint is sampled.
    """
    q = round(t / _HALF_PI)
    if t != q * _HALF_PI:
        return None
    num, den = poly.shift.as_integer_ratio()
    half = 0.5 * poly.a0
    # a halved a0 that rounds is an odd multiple of 2^-1075, which no sum of
    # floats (multiples of 2^-1074) cancels
    if q % den or 2.0 * half != poly.a0:
        return None
    classes = [((q * (r + poly.index_start) + num * (q // den) - p) % 4,
                nu[r::4], c[r::4])
               for p, (nu, c) in enumerate(poly.terms()) for r in range(min(4, c.size))]
    even = [(_QUARTER_TURN[m], nu, c) for m, nu, c in classes if m % 2 == 0]
    try:
        if math.fsum(np.concatenate([[half]] + [w * c for w, _, c in even]).tolist()):
            return None
    except OverflowError:  # a partial sum beyond the float range
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        slope = sum((_QUARTER_TURN[(m + 1) % 4] * float(nu @ c)
                     for m, nu, c in classes if m % 2), 0.0)
        curv = -sum((w * float((nu * nu) @ c) for w, nu, c in even), 0.0)
    return (slope, curv) if math.isfinite(slope) and math.isfinite(curv) else None


def _check_interval(lo: float, hi: float) -> None:
    """A finite interval lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ParameterDomainError(f"invalid interval [{lo}, {hi}]")


def _at_scale(x: float, e: int, toward: float | None = None) -> float:
    """x*2^e rounded to nearest, +-inf beyond the float range: a witness
    value, a minimum, or a slope, curvature or L4 printed in the notes.  With
    ``toward`` the result is rounded toward it instead (the lower bound
    toward 0, an overflow then clamped to the largest float; L toward inf)."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        y = math.copysign(math.inf, x)
    if toward is not None:
        back = math.ldexp(y, -e)  # exact, or inf
        if back < x if toward > y else back > x:
            y = math.nextafter(y, toward)
    return y


def _window(caller: TrigPolynomial, lo: float, hi: float):
    """(copy, e, rounding, wlo, whi, notes): `unit_scale`'s copy of caller at
    2^-e and the bound on the rounding of its coefficients, the window left by
    the endpoint rule (module docstring) on an interval wider than 4*EPS, and
    a note per endpoint.  A rounded copy's exact zero test is not the
    caller's, so then the caller's coefficients decide the endpoints."""
    _check_interval(lo, hi)
    if EPS >= 0.25 * (hi - lo):
        raise ParameterDomainError(f"[{lo}, {hi}] is not wider than 4*EPS = {4 * EPS}")
    copy, e, rounding = unit_scale(caller)
    poly, k, ends, notes = copy, e, [lo, hi], []
    if rounding:
        notes.append(f"scaling by 2^{-e} rounds a coefficient: the roundoff bound "
                     "holds its rounding, and the caller's coefficients decide the ends")
        poly, k = caller, 0
    for i, side, sign in ((0, "left", 1.0), (1, "right", -1.0)):
        head = f"{side} endpoint {ends[i]:.9g}"
        jet = vanishing_endpoint(poly, ends[i])
        if jet is None:
            notes.append(f"{head} sampled directly")
            continue
        slope, curv = sign * jet[0] + 0.0, jet[1] + 0.0  # + 0.0: no -0 in notes
        L2, slope_tol = curvature_bound(poly), 1e-12 * max(lipschitz_bound(poly), 1e-300)
        shown = f"inward slope {_at_scale(slope, k):.9g}"
        if slope > slope_tol:
            covered = "rigorously (slope > curvature*eps)" \
                if slope > L2 * EPS else "to first order"
            notes.append(f"{head} vanishes identically; {shown} covers the eps-zone {covered}")
        elif abs(slope) <= slope_tol and curv > 1e-12 * max(L2, 1e-300):
            notes.append(f"{head} vanishes to second order; curvature "
                         f"{_at_scale(curv, k):.9g} > 0 covers the eps-zone")
        else:
            notes.append(f"{head} vanishes identically; {shown}, curvature "
                         f"{_at_scale(curv, k):.9g}: not inset, sampled directly")
            continue
        ends[i] += sign * EPS
    return copy, e, rounding, ends[0], ends[1], notes


#: the abscissa term per unit of L and of max(|wlo|, |whi|) (`_drift` derives it)
_DRIFT = 2.38 * 2.0 ** -53


def _drift(poly: TrigPolynomial, wlo: float, whi: float) -> float:
    """How far a value that `values_period` gives at a lattice point of the
    window [wlo, whi] may lie from poly's value there, beyond the roundoff.

    The lattice point is x_i = i*dx, with the float step dx = h/2^d, h =
    2*pi/m rounded, M = m*2^d.  The FFT evaluates the body at p_i =
    2*pi*i/M, and the shift is peeled (the direct sums evaluate) at the
    float x~_i of i*dx.  2*math.pi lies within 2|pi - math.pi| < 0.36 * 2 pi
    u of 2 pi (u = 2^-53), and the division rounds by at most 2 pi u/m, so
    |m*h - 2 pi| <= 1.36 * 2 pi u (1 + u), and

        |x_i - p_i| = (|i|/M) |m*h - 2 pi| <= 1.37 u |x_i|;

    the product i*dx rounds once (|i| < 2^53, and dx is h times a power of
    two), so |x~_i - x_i| <= u |x_i|.  The peel's part of f' is at most
    shift * sum |c| and the body's sum k |c|, together at most L = sum nu
    |c|, so the value lies within L (|x~_i - x_i| + |p_i - x_i|) <= 2.37 u L
    |x_i| of f(x_i), whichever path, and |x_i| <= max(|wlo|, |whi|) for
    every point of the window, a midpoint in a partial cell included.  2.38
    covers the two roundings of the product.  The window ends, sampled at
    their floats, carry no such term.  It is added wherever lattice values
    meet the roundoff bound, and the same term of f' (with the L of f')
    wherever its lattice values do."""
    return lipschitz_bound(poly) * max(abs(wlo), abs(whi)) * _DRIFT


def _sample(poly: TrigPolynomial, M: int, idx: np.ndarray, ends, wlo: float,
            whi: float) -> np.ndarray:
    """poly at the ascending indices idx of the lattice of M, where the
    indices ends = (lo, hi) stand for wlo and whi: the lattice points by one
    `values_period` batch, the window ends among idx by one direct batch."""
    head, tail = int(idx[0] == ends[0]), int(idx[-1] == ends[1])
    out = np.empty(idx.size)
    out[head:idx.size - tail] = poly.values_period(M, idx[head:idx.size - tail])
    if head or tail:
        v = poly.values(np.array([wlo] * head + [whi] * tail))
        out[:head], out[idx.size - tail:] = v[:head], v[head:]
    return out


def _level0(poly: TrigPolynomial, wlo: float, whi: float, n: int, rounding: float):
    """(m, idx, ends, gaps, xs, vals, noise): the level-0 samples of at least
    n points on [wlo, whi] that all three entry points scan, and the roundoff
    bound they are tested against, the unit-scale copy's `rounding` included.

    The lattice is j*h with h = 2*pi/m rounded, m the smallest 5-smooth
    length whose step fits n - 1 times into the window, and x_first ..
    x_last its points on the window (`kernels.period_lattice`).  Their
    values come from one `values_period` batch: one real FFT of length m, or
    the direct sums at the floats of the lattice points where the cost model
    finds the FFT dearer (a narrow window, whose m grows like 2*pi*n/width).
    A window end that is no lattice point is sampled too, both in one direct
    batch, so xs runs from wlo to whi.  idx holds the samples' lattice
    indices, where ends = (first - 1, last + 1) stand for wlo and whi, and
    gaps = (x_first - wlo, whi - x_last) are the exact widths (Fractions) of
    the partial first and last cells, 0 where an end is a lattice point.  No
    sample lies outside the window."""
    m, first, last = period_lattice(wlo, whi, n)
    h = Fraction(2.0 * math.pi / m)
    gaps = (first * h - Fraction(wlo), Fraction(whi) - last * h)
    ends = (first - 1, last + 1)
    idx = np.arange(first - bool(gaps[0]), last + 1 + bool(gaps[1]))
    xs = np.concatenate(([wlo] * bool(gaps[0]), np.arange(first, last + 1) * (2.0 * math.pi / m),
                         [whi] * bool(gaps[1])))
    noise = roundoff_bound(poly) + rounding + _drift(poly, wlo, whi)
    return m, idx, ends, gaps, xs, _sample(poly, m, idx, ends, wlo, whi), noise


#: the default level 0: a floor, points per unit of the top frequency up to
#: a cap, and two points per period of the top frequency beyond it
_LEVEL0_FLOOR, _LEVEL0_DENSITY, _LEVEL0_CAP = 1024, 16, 4096
#: `find_min`'s level 0, whatever the degree
_FIND_MIN_GRID0 = 4096


def _level0_size(poly: TrigPolynomial, wlo: float, whi: float,
                 grid0: int | None) -> tuple[int, str]:
    """(count, why): the least number of level-0 points on [wlo, whi] and
    the term that sets it.  An explicit grid0 is the count.  Otherwise, with
    nu the top frequency and W = whi - wlo, it is the largest of the floor
    1024, 16*ceil(nu) capped at 4096, and ceil(nu*W/pi), two points per
    period of nu; the first of equal terms names it."""
    if grid0 is not None:
        return grid0, "explicit grid0"
    nu = max((float(f.max()) for f, _ in poly.terms() if f.size), default=0.0)
    dense = _LEVEL0_DENSITY * math.ceil(nu)
    terms = [(_LEVEL0_FLOOR, f"the {_LEVEL0_FLOOR} floor"),
             (dense, f"{_LEVEL0_DENSITY} per unit of frequency {nu:.9g}")
             if dense < _LEVEL0_CAP else (_LEVEL0_CAP, f"the {_LEVEL0_CAP} cap"),
             (math.ceil(nu * (whi - wlo) / math.pi), f"two per period of frequency {nu:.9g}")]
    return max(terms, key=lambda t: t[0])


def _up(x: Fraction) -> float:
    """x rounded up to a float."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


#: the rounding of `_hermite_bound`'s arithmetic, in units of
#: |f_l| + |f_r| + w*(|f'_l| + |f'_r|) (its docstring derives it)
_HULL_ROUNDING = 16 * 2.0 ** -53


def _hermite_bound(fl, fr, gl, gr, w, L4: float, noise: float,
                   dnoise: float) -> np.ndarray:
    """Lower bounds of f on cells of width w from the computed values fl, fr
    and slopes gl, gr at their ends: the smallest of the seven control
    points of the cubic Hermite interpolant's Bernstein form, split once at
    the midpoint (convex hull), less L4*w^4/384 (the interpolant's
    remainder), w*dnoise/4 (the slopes' roundoff, through w*h10 and w*h11,
    |h10| + |h11| = t(1 - t) <= 1/4), noise (the values' roundoff, through
    h00 + h01 = 1) and the rounding of this arithmetic.

    With S = |fl| + |fr| + w*(|gl| + |gr|) and u = 2^-53: the inner control
    points fl + (w/3)*gl and fr - (w/3)*gr are off by at most 2u*S (three
    roundings on the slope term, two more where w, the width of a partial
    cell, is itself rounded up, and one on the sum), each of the three
    levels of halved sums adds u*S, the subtracted terms (eight roundings at
    most, four of them the additions) add 8u*S and the last difference u*S
    while the bound is positive: 14u*S in all, and 16u*S leaves room for the
    rounding of S.  Halving a subnormal value loses half a spacing, 3
    spacings over the three levels.  At the unit scale every term is finite.
    w is a scalar or one width per cell."""
    t = w / 3.0
    b1, b2 = fl + t * gl, fr - t * gr
    c01, c12, c23 = 0.5 * fl + 0.5 * b1, 0.5 * b1 + 0.5 * b2, 0.5 * b2 + 0.5 * fr
    d0, d1 = 0.5 * c01 + 0.5 * c12, 0.5 * c12 + 0.5 * c23
    # pairwise, in order: no 7-row stack of the control points
    hull = functools.reduce(np.minimum, (fl, c01, d0, 0.5 * d0 + 0.5 * d1, d1, c23, fr))
    scale = np.abs(fl) + np.abs(fr) + w * (np.abs(gl) + np.abs(gr))
    w2 = w * w
    return hull - (L4 * w2 * w2 / 384.0 + 0.25 * w * dnoise + noise
                   + _HULL_ROUNDING * scale + 4 * SUBNORMAL)


def certify_positive(poly: TrigPolynomial, lo: float, hi: float,
                     opts: CertifyOptions | None = None) -> PositivityReport:
    """Certify strict positivity of the sum on (lo, hi); see module docstring.
    The default options size level 0 by the degree (`_level0_size`)."""
    opts = opts or CertifyOptions()
    caller, (poly, e, rounding, wlo, whi, notes) = poly, _window(poly, lo, hi)
    L, L2 = lipschitz_bound(poly), curvature_bound(poly)
    total_evals = slope_evals = 0
    deriv = None  # f' once it is sampled, with L4 and its roundoff bound dnoise

    def report(verdict, lower, witness, depth):
        if witness is not None:  # at the caller's scale, and still below 0
            witness = (witness[0], min(_at_scale(witness[1], e), -SUBNORMAL))
        if deriv is not None:
            notes.append(f"f' sampled at {slope_evals} points from depth 0; "
                         f"L4 = {_at_scale(L4, e):.9g}")
        # the copy's L is the caller's times 2^-e unless the copy is rounded
        lipschitz = lipschitz_bound(caller) if rounding else _at_scale(L, e, math.inf)
        return PositivityReport(verdict, lower, witness, total_evals, depth,
                                lipschitz, (lo, hi), "; ".join(notes))

    # Every sample lies on the lattice i*h/2^depth, or is wlo or whi: cells are
    # kept as integer left indices il at the current depth, so each batch is
    # one evaluation on the lattice of m*2^depth points.
    count, why = _level0_size(poly, wlo, whi, opts.grid0)
    m, idx, ends, gaps, xs, vals, noise = _level0(poly, wlo, whi, count, rounding)
    notes.append(f"level 0: {count} points, m = {m} ({why})")
    dx = 2.0 * math.pi / m
    total_evals = xs.size
    imin = int(np.argmin(vals))
    if vals[imin] < -noise:
        return report(REFUTED, None, (float(xs[imin]), float(vals[imin])), 0)

    # Cell arrays, kept in ascending-theta order so ties resolve
    # deterministically: left index il at the current depth, the endpoint
    # values and, once sampled, the endpoint slopes.  The indices ends[0] and
    # ends[1] stand for wlo and whi: where gaps[0] > 0 the cell at ends[0] is
    # the partial first cell [wlo, (ends[0] + 1)*dx] of width gaps[0], and
    # where gaps[1] > 0 the cell at ends[1] - 1 is the partial last cell.
    il, fl, fr = idx[:-1], vals[:-1], vals[1:]
    depth, lower = 0, math.inf

    def tested():
        """Each cell's bound, net of the roundoff bound (module docstring),
        and whether it fails: a NaN bound fails, and so does a cell with a
        sample at or below 0 that is no witness, since both bounds are at
        most min(fl, fr) less positive terms (fl and fr are control points of
        the Hermite hull)."""
        w = np.full(il.size, dx)
        if il.size and il[0] == ends[0]:
            w[0] = _up(gaps[0])
        if il.size and il[-1] + 1 == ends[1]:
            w[-1] = _up(gaps[1])
        bound = np.minimum(fl, fr) - 0.125 * L2 * w * w - noise
        if deriv is not None:
            bound = np.fmax(bound, _hermite_bound(fl, fr, gl, gr, w, L4, noise, dnoise))
        return bound, ~(bound > 0.0)

    bound, fail = tested()
    if L != 0.0 and fail.any():
        # the failing cells are tested again with f' at their ends
        lower = min(lower, float(bound[~fail].min(initial=math.inf)))
        take = np.append(fail, False) | np.insert(fail, 0, False)  # failing cells' ends
        at, left = idx[take], np.cumsum(take)[:-1][fail] - 1  # right ends at left + 1
        il, fl, fr = il[fail], fl[fail], fr[fail]
        deriv = poly.derivative()
        L4 = fourth_derivative_bound(poly)
        dnoise = roundoff_bound(deriv) + _drift(deriv, wlo, whi)
        g = _sample(deriv, m, at, ends, wlo, whi)
        gl, gr = g[left], g[left + 1]
        slope_evals = at.size
        total_evals += at.size
        bound, fail = tested()
    while True:
        lower = min(lower, float(bound[~fail].min(initial=math.inf)))
        if not fail.any():
            break
        if L == 0.0:
            notes.append("the sum is constant (L = 0): no cell bound depends on "
                         "the cell width, so refinement cannot settle it")
            return report(INCONCLUSIVE, None, None, depth)
        if depth >= opts.max_depth:
            worst = int(np.argmin(bound))
            notes.append(f"refinement depth exhausted near theta = "
                         f"{min(max(float((il[worst] + 0.5) * dx), wlo), whi):.9g}")
            return report(INCONCLUSIVE, None, None, depth)
        depth += 1
        dx *= 0.5
        # f' is sampled: refinement only follows a depth-0 failure with L != 0
        il, fl, fr, gl, gr = il[fail], fl[fail], fr[fail], gl[fail], gr[fail]
        # a partial cell is bisected where the new lattice point lies inside
        # it, and otherwise carries on whole, its far end's index doubled
        cut = (gaps[0] > dx, gaps[1] > dx)
        head = int(il.size > 0 and il[0] == ends[0] and not cut[0])
        tail = int(il.size > 0 and il[-1] + 1 == ends[1] and not cut[1])
        ends = (2 * ends[0] + (not cut[0]), 2 * ends[1] - (not cut[1]))
        gaps = tuple(g - Fraction(dx) if c else g for g, c in zip(gaps, cut))
        im = 2 * il[head:il.size - tail] + 1
        fm = poly.values_period(m << depth, im)
        total_evals += im.size
        if im.size and fm.min() < -noise:
            jmin = int(np.argmin(fm))
            return report(REFUTED, None, (float(im[jmin] * dx), float(fm[jmin])), depth)
        il = _bisected(2 * il, im, head, tail, True)
        il[:head] += 1  # a whole partial first cell: its right end is 2*ends[0] + 2
        fl, fr = _bisected(fl, fm, head, tail, True), _bisected(fr, fm, head, tail, False)
        gm = deriv.values_period(m << depth, im)
        slope_evals += im.size
        total_evals += im.size
        gl, gr = _bisected(gl, gm, head, tail, True), _bisected(gr, gm, head, tail, False)
        bound, fail = tested()

    # every cell certified: 0 < lower < inf, scaled back rounded toward zero,
    # so clamped to the largest float where it overflows
    lower = _at_scale(lower, e, 0.0)
    if lower > 0.0:
        return report(CERTIFIED, lower, None, depth)
    notes.append(f"the lower bound underflows to 0 at scale 2^{e}")
    return report(INCONCLUSIVE, None, None, depth)


def _bisected(a, mid, head, tail, left):
    """a, the values at the left (or right) ends of the cells, after every
    cell but the first head and the last tail ones is bisected, with the
    values mid at its midpoints."""
    inner = a[head:a.size - tail]
    pairs = np.stack((inner, mid) if left else (mid, inner), axis=1).ravel()
    return np.concatenate((a[:head], pairs, a[a.size - tail:]))


def find_min(poly: TrigPolynomial, lo: float, hi: float) -> tuple[float, float]:
    """(theta, value) of the smallest computed value of the sum on (lo, hi).

    The window ends obey certify_positive's endpoint rule, and the level-0
    grid holds 4096 points whatever the degree.  After its scan the search
    descends from the best sample on floats: each level halves the step dx,
    evaluates in one batch the one or two of best_x - dx, best_x + dx that
    lie in the window, and moves to the lowest of the three, the smallest
    theta on ties.  It stops when both midpoints are within the roundoff
    bound of the best value, where computed values no longer tell points
    apart, or when halving the step no longer moves theta.  It runs on the
    unit-scale copy, like `certify_positive`."""
    poly, e, rounding, wlo, whi, _ = _window(poly, lo, hi)
    m, _, _, _, xs, vals, noise = _level0(poly, wlo, whi, _FIND_MIN_GRID0, rounding)
    dx = 2.0 * math.pi / m
    k = int(np.argmin(vals))
    best_x, best_v = float(xs[k]), float(vals[k])
    while True:
        dx *= 0.5
        xm = [x for x in (best_x - dx, best_x + dx) if wlo <= x <= whi]
        if best_x in xm:  # halving the step no longer moves theta
            break
        fm = poly.values(np.array(xm)).tolist()
        flat = all(abs(v - best_v) <= noise for v in fm)
        best_v, best_x = min([(best_v, best_x), *zip(fm, xm)])
        if flat:
            break
    return best_x, _at_scale(best_v, e)


def bracket_zeros(kind: str, coeffs: Sequence[float], lo: float, hi: float,
                  grid: int | None = None) -> ZeroBracketList:
    """Sign-change brackets for p(theta) = sum a_k cos((n-k)theta) or
    q(theta) = sum a_k sin((n-k)theta), coefficients a_0 > a_1 >= ... >= a_n > 0.

    The level-0 scan holds at least grid cells, by default 512 or 16 per
    coefficient if that is more.  A sample within the roundoff bound of 0
    carries no sign, as in `certify_positive`, and a bracket joins
    consecutive signed samples of opposite sign: a zero on a sample is
    bracketed by its signed neighbours.  Only signs are read (products of
    neighbours would under- or overflow), on the unit-scale copy of the
    coefficients, scaled once as q's before p is built from them: p's a0 =
    2*a_n then stays a float.
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
    _check_interval(lo, hi)

    q, _, rounding = unit_scale(TrigPolynomial(sin_coeffs=a[::-1]))  # the a_k, scaled once
    n, poly = (a.size, q) if kind == "q" else \
        (a.size - 1, TrigPolynomial(2.0 * q.sin_coeffs[0], q.sin_coeffs[1:]))
    grid = max(512, 16 * a.size) if grid is None else grid
    min_grid = max(2, 16 * n)
    if grid < min_grid:
        raise ParameterDomainError(
            f"grid = {grid} undersamples degree {n}; need >= {min_grid}")

    _, _, _, _, xs, vals, noise = _level0(poly, lo, hi, grid + 1, rounding)
    signed = np.abs(vals) > noise
    xs, sign = xs[signed], np.sign(vals[signed])
    cross = np.flatnonzero(sign[:-1] != sign[1:])
    return ZeroBracketList(tuple((float(xs[i]), float(xs[i + 1]), int(sign[i]),
                                  int(sign[i + 1])) for i in cross.tolist()), kind)
