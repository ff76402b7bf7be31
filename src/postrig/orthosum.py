"""Orthogonal-polynomial sums: the Chebyshev pullback of the q_k cosine sum,
the Fejer-type and normalized Gegenbauer partial sums, the Jacobi sum on
|z| = 1, and the para-orthogonal (OPUC) coefficient families from the
two-factor binomial generating function

    (1 - omega z)^-(b+1) (1 - z)^-(b+1) = sum_k F_k^b(omega) z^k .

Everything is recurrence-based; no closed-form hypergeometric evaluation is
used for polynomial values.  Each family's three-term recurrence is written
once, as a private table builder returning the list P_0(x)..P_n(x) at a
float or an ndarray x (`_chebyshev_table`, `_gegenbauer_table`,
`_jacobi_table`), and every Pochhammer ratio (1+a)_k/(1+c)_k z^k, the
norms C_k^lam(1) and P_k^{(a,b)}(1) among them, comes from the one product
of `seqkit._rising_ratios`.  The public functions are the sums, reductions
over these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ParameterDomainError
from .seqkit import CoefficientSequence, CriterionReport, _report, _rising_ratios
from .trigeval import qk_weight


@dataclass(frozen=True)
class SeriesCoefficients:
    coeffs: tuple[float, ...]
    truncation: int
    params: Mapping[str, float] = field(default_factory=dict)
    tail_bound: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.coeffs, dtype=np.float64)
        if v.ndim != 1:
            raise ParameterDomainError("series coefficients must be one sequence")
        object.__setattr__(self, "coeffs", tuple(v.tolist()))
        object.__setattr__(self, "params", dict(self.params))
        if not np.isfinite(v).all():
            raise ParameterDomainError("series coefficients must be finite")
        if self.tail_bound < 0:
            raise ParameterDomainError("tail_bound must be >= 0")


def _one(x):
    """P_0 = 1 in the shape of x: an array of ones for an ndarray, else 1.0."""
    return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0


def _chebyshev_table(n: int, t) -> list:
    """[T_0(t), ..., T_n(t)] by the three-term recurrence."""
    prev, cur = _one(t), t
    T = [prev, cur]
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * t * cur - prev
        T.append(cur)
    return T if n else T[:1]


def _gegenbauer_table(n: int, lam: float, x) -> list:
    """[C_0^lam(x), ..., C_n^lam(x)] by the three-term recurrence."""
    prev, cur = _one(x), 2.0 * lam * x
    C = [prev, cur]
    for j in range(1, n):
        prev, cur = cur, (2.0 * (j + lam) * x * cur - (j + 2.0 * lam - 1.0) * prev) / (j + 1.0)
        C.append(cur)
    return C if n else C[:1]


def _jacobi_table(n: int, a: float, b: float, x) -> list:
    """[P_0^{(a,b)}(x), ..., P_n^{(a,b)}(x)] by the standard three-term recurrence."""
    prev, cur = _one(x), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    P = [prev, cur]
    for j in range(2, n + 1):
        c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c2 = (2.0 * j + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * j + a + b - 1.0) * (2.0 * j + a + b) * (2.0 * j + a + b - 2.0)
        c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
        P.append(cur)
    return P if n else P[:1]


def chebyshev_qk_sum(n: int, alpha: float, beta: float, lam: float, mu: float,
                     t: float) -> float:
    """T_0(t) + T_1(t) + sum_{k=2}^n T_k(t) / ((k+alpha)^lam (k+beta)^mu).

    Built directly from the Chebyshev recurrence; equals the corresponding
    cosine sum at theta = arccos t.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if alpha < 0 or beta < 0:
        raise ParameterDomainError("alpha and beta must be >= 0")
    if abs(t) >= 1:
        raise ParameterDomainError(f"|t| < 1 violated (t = {t})")
    T = _chebyshev_table(n, t)
    w = qk_weight(np.arange(2.0, n + 1), alpha, beta, lam, mu)
    return T[0] + T[1] + float(np.dot(T[2:], 1.0 / w))


def gegenbauer_fejer_sum(n: int, lam: float, x: float) -> float:
    """sum_{k=0}^n C_k^lam(x)."""
    if n < 0:
        raise ParameterDomainError("n must be >= 0")
    if lam <= 0:
        raise ParameterDomainError(f"lam > 0 violated (lam = {lam})")
    if abs(x) >= 1:
        raise ParameterDomainError(f"|x| < 1 violated (x = {x})")
    return sum(_gegenbauer_table(n, lam, x))


def gegenbauer_normalized_sum(a_seq: CoefficientSequence | Sequence[float],
                              n: int, lam: float, x: float) -> float:
    """sum_{k=0}^n a_k C_k^lam(x) / C_k^lam(1).

    a_seq supplies a_0..a_n (a CoefficientSequence is read in its stored
    order); pass all ones for the plain normalized Fejer-type sum.
    """
    values = a_seq.values if isinstance(a_seq, CoefficientSequence) else tuple(a_seq)
    if n < 0 or n > len(values) - 1:
        raise ParameterDomainError(f"n = {n} outside the supplied coefficients")
    if lam <= 0:
        raise ParameterDomainError(f"lam > 0 violated (lam = {lam})")
    if abs(x) >= 1:
        raise ParameterDomainError(f"|x| < 1 violated (x = {x})")
    terms = zip(values, _gegenbauer_table(n, lam, x), _rising_ratios(n, 2.0 * lam - 1.0))
    return sum(a * c / norm for a, c, norm in terms)


def scan_normalized_gegenbauer(lam: float, n_max: int, x_grid: np.ndarray
                               ) -> tuple[int, float, float] | None:
    """First (n, x, value) with a negative normalized all-ones sum, or None.

    Used to exhibit that the sums are not bounded below once lam drops under
    the positivity threshold; scans n upward so the minimal failing n returns.
    """
    if lam <= 0:
        raise ParameterDomainError(f"lam > 0 violated (lam = {lam})")
    if n_max < 1:
        raise ParameterDomainError("n_max must be >= 1")
    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.size == 0 or not np.all(np.abs(xs) < 1):
        raise ParameterDomainError("x_grid must be non-empty with every |x| < 1")
    acc = np.zeros_like(xs)
    norms = _rising_ratios(n_max, 2.0 * lam - 1.0)
    for n, (c, norm) in enumerate(zip(_gegenbauer_table(n_max, lam, xs), norms)):
        acc += c / norm
        if acc.min() < 0.0:
            i = int(np.argmin(acc))
            return n, float(xs[i]), float(acc[i])
    return None


def _opuc_array(b: float, omega: float, N: int) -> np.ndarray:
    """F_0..F_N of (1 - omega z)^-(b+1) (1 - z)^-(b+1) by Cauchy product."""
    if b <= -1:
        raise ParameterDomainError(f"b > -1 violated (b = {b})")
    if N < 0:
        raise ParameterDomainError("N must be >= 0")
    fa = np.array(_rising_ratios(N, b, 0.0, omega))
    fb = np.array(_rising_ratios(N, b))
    # omega^m turns subnormal long before m = N at small |omega|, and each
    # product with a subnormal factor is slow.  Flushing those factors to 0
    # moves no F_k: each dropped product is below 2^-1022*max|fb|, far under
    # half an ulp of F_k.
    fa[np.abs(fa) < np.finfo(np.float64).tiny] = 0.0
    return np.convolve(fa, fb)[: N + 1]


def opuc_coeffs(b: float, omega: float, N: int) -> SeriesCoefficients:
    """F_0..F_N of (1 - omega z)^-(b+1) (1 - z)^-(b+1) by Cauchy product.

    Each binomial factor's coefficients come from the ratio recurrence
    c_{m+1} = c_m (b+1+m)/(m+1) * arg; the tail bound is the geometric-ratio
    estimate of the first omitted coefficient.
    """
    F = _opuc_array(b, omega, N)
    if N >= 1 and F[N - 1] != 0.0:
        tail = abs(F[N] * (F[N] / F[N - 1]))
    else:
        tail = 0.0
    return SeriesCoefficients(F, N, {"b": b, "omega": omega}, tail)


def opuc_log_route_cumulative(b: float, omega: float, N: int) -> np.ndarray:
    """Cumulative sums via psi = (1-z)^-(b+2) (1-omega z)^-(b+1) = exp(g).

    z g'(z) has coefficients g'_m = (b+2) + (b+1) omega^m, m >= 1, so
    n psi_n = sum_{m=1}^n g'_m psi_{n-m}; the coefficients psi_n of exp(g)
    are exactly the cumulative sums of the F_k.  Splitting g'_m into its
    constant and geometric parts gives two running sums,

        A_n = sum_{j<n} psi_j,    B_n = sum_{m=1}^n omega^m psi_{n-m}
                                      = omega (psi_{n-1} + B_{n-1}),

    and psi_n = ((b+2) A_n + (b+1) B_n) / n: O(N) work in place of O(N^2).
    For b > -1/2 and |omega| < 1 every psi_n is positive: by induction the
    psi_j, j < n, are, so |B_n| < A_n and the numerator exceeds
    (b+2) A_n - (b+1) A_n = A_n > 0.  Its terms sum to at most (2b+3) A_n
    in absolute value, so cancellation costs at most a factor 2b+3.
    """
    if N < 0:
        raise ParameterDomainError("N must be >= 0")
    const, geom = b + 2.0, b + 1.0
    psi = [1.0]
    A = B = 0.0
    for n in range(1, N + 1):
        last = psi[-1]
        A += last
        B = omega * (last + B)
        psi.append((const * A + geom * B) / n)
    return np.array(psi)


def opuc_cumulative_positive(b: float, omega: float, N: int) -> CriterionReport:
    """Positivity of all cumulative sums sum_{k<=n} F_k, n <= N, both routes.

    Route one takes prefix sums of the Cauchy-product coefficients; route two
    builds them as exp of the integrated logarithmic derivative.  Both must
    agree on positivity.  On the criterion-8 grid at N = 2000 they agree to
    1.7e-13 relative, except at b = 3, omega = -0.99: there route one's
    product with the alternating factor cancels and the gap reaches 4.1e-9,
    while route two stays within 1e-15 of mpmath.  So ``partial_sums`` are
    route two's.
    """
    if not b > -0.5:
        raise ParameterDomainError(f"b > -1/2 violated (b = {b})")
    if not abs(omega) < 1:
        raise ParameterDomainError(f"|omega| < 1 violated (omega = {omega})")
    cum = np.cumsum(_opuc_array(b, omega, N))
    psi = opuc_log_route_cumulative(b, omega, N)
    return _report(np.arange(N + 1), np.vstack((cum, psi)),
                   partial_sums=tuple(psi.tolist()))


def jacobi_sum_check(n: int, lam_p: float, delta: float, a: float, b: float,
                     x: float, z_angle: float) -> float:
    """|sum_k ((1+lam_p)_{n-k}/(1+delta)_{n-k}) ((1+lam_p)_k/(1+delta)_k)
    (P_k^{(a,b)}(x)/P_k^{(a,b)}(1)) z^k| on |z| = 1."""
    if n < 0:
        raise ParameterDomainError("n must be >= 0")
    if a <= -1 or b <= -1:
        raise ParameterDomainError("Jacobi parameters must exceed -1")
    if delta <= -1 or lam_p < 0:
        raise ParameterDomainError("need delta > -1 and lam_p >= 0")
    if abs(x) > 1:
        raise ParameterDomainError(f"|x| <= 1 violated (x = {x})")
    w = _rising_ratios(n, lam_p, delta)
    z = complex(math.cos(z_angle), math.sin(z_angle))
    acc = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    # P_k(1) = (a+1)_k / k!
    for k, (pk, norm) in enumerate(zip(_jacobi_table(n, a, b, x), _rising_ratios(n, a))):
        acc += w[n - k] * w[k] * (pk / norm) * zp
        zp *= z
    return abs(acc)
