"""Coefficient families and the inequality criteria they are tested against.

Families
--------
vietoris    gamma_0 = gamma_1 = 1, gamma_{2k} = gamma_{2k+1} = (1/2)_k / k!
qk          q_0 = 2, q_1 = 1, q_k = (k+alpha)^-lam (k+beta)^-mu
ratio-qk    r_1 = 1, r_k = (k+alpha)^lam / (k+beta)^mu  (sine-sum family)
koumandos   b_{2k} = b_{2k+1} = (1-alpha)_k / k!
ck          c_{2k} = c_{2k+1} = (B_{n-k}/B_n) (1-alpha)_k / k!,
            B_0 = 1, B_k = ((b)_k/(c)_k) (1+b-c)/b

Indexing caveat: the cosine-sum families (vietoris, qk, koumandos, ck) store
a_0 first; ratio-qk and raw "custom" lists are sine-coefficient lists whose
first entry is a_1.  The criterion checkers that are inherently sine-side
(Belov, the weighted chain) honour that split; the checkers whose
hypotheses involve a_0 (Vietoris, the taper-ratio check) always read values[0] as a_0.

Verdicts: each check writes its inequalities as slacks (>= 0 where one
holds) in numpy and passes them to one reduction, `_report`.  The first
index with a slack below -CRITERION_TOL (scaled with the terms in the
taper-ratio check), or with a slack that overflowed to -inf or NaN, is the
violation; the margin is the smallest slack, NaN skipped, or 0.0 when there
is none, and NaN when the violation rests on NaN slacks alone.

Pochhammer symbols are built by forward products; pair-equal entries are
stored from one computation so the pairing is bit-exact.  The ratios
(1+a)_k / (1+c)_k z^k come from one recurrence, `_rising_ratios`: the three
paired families take (1-alpha)_k / k! from it at a = -alpha (vietoris is
koumandos at alpha = 1/2, bit for bit), and `postrig.orthosum` its norms,
weights and binomial factors.  The taper B_k of ck has a loop of its own,
whose rounding the ck coefficients keep.  q_k is `trigeval.qk_weight` at
the negated exponents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ParameterDomainError, SizeError
from .trigeval import qk_weight

#: slack below which an inequality is still accepted (roundoff guard):
#: absolute, and in the taper-ratio check relative to terms larger than 1
CRITERION_TOL = 1e-12

FAMILIES = frozenset({"vietoris", "qk", "ratio-qk", "koumandos", "ck", "custom"})
#: families whose leading stored entry is a_0
A0_FAMILIES = frozenset({"vietoris", "qk", "koumandos", "ck"})
#: families defined through equal pairs value[2k] = value[2k+1]
PAIRED_FAMILIES = frozenset({"vietoris", "koumandos", "ck"})
#: families whose hypotheses require strictly positive entries
POSITIVE_FAMILIES = frozenset({"vietoris", "qk", "koumandos", "ck"})


@dataclass(frozen=True)
class CoefficientSequence:
    values: tuple[float, ...]
    family: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        v = np.fromiter(self.values, dtype=np.float64)
        object.__setattr__(self, "values", tuple(v.tolist()))
        object.__setattr__(self, "params", dict(self.params))
        if not v.size:
            raise SizeError("coefficient sequence must be non-empty")
        if self.family not in FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family!r}")
        if not np.isfinite(v).all():
            raise ParameterDomainError("all entries must be finite")
        if self.family in POSITIVE_FAMILIES and (v <= 0.0).any():
            raise ParameterDomainError(f"family {self.family!r} requires positive entries")
        if self.family == "ck":
            if v.size % 2:
                raise SizeError("ck sequences have even length 2n+2")
            if (v[::2] != v[1::2]).any():
                raise ParameterDomainError("ck pairing value[2k] == value[2k+1] broken")

    def __len__(self) -> int:
        return len(self.values)

    def sine_view(self) -> list[tuple[int, float]]:
        """(k, a_k) pairs for the sine sum sum_k a_k sin(k theta), k >= 1."""
        if self.family in A0_FAMILIES:
            return [(k, v) for k, v in enumerate(self.values) if k >= 1]
        return [(j + 1, v) for j, v in enumerate(self.values)]

    def pair_values(self) -> tuple[float, ...]:
        """Distinct pair values for the paired families; values as-is otherwise."""
        if self.family in PAIRED_FAMILIES:
            return self.values[::2]
        return self.values


@dataclass(frozen=True)
class CriterionReport:
    satisfied: bool
    first_violation_index: int | None
    margin: float
    partial_sums: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.satisfied != (self.first_violation_index is None):
            raise ValueError("satisfied must match absence of a violation index")


def _rising_ratios(n: int, a: float, c: float = 0.0, z: float = 1.0) -> list[float]:
    """[(1+a)_k / (1+c)_k * z^k for k = 0..n] by one forward product, each
    term r * (j + a) / (j + c) * z from the last; at a = -1/2 (c = 0, z = 1)
    each step matches the check_vietoris slack bit for bit."""
    r = 1.0
    out = [r]
    for j in range(1, n + 1):
        r = r * (j + a) / (j + c) * z
        out.append(r)
    return out


def _paired(n: int, alpha: float) -> tuple[float, ...]:
    """[b_0..b_n] with b_{2k} = b_{2k+1} = (1-alpha)_k / k!."""
    if n < 0:
        raise ParameterDomainError("n must be >= 0")
    return tuple(np.repeat(_rising_ratios(n // 2, -alpha), 2)[: n + 1].tolist())


def vietoris_gamma(n: int) -> CoefficientSequence:
    """[gamma_0..gamma_n] with gamma_{2k} = gamma_{2k+1} = (1/2)_k / k!."""
    return CoefficientSequence(_paired(n, 0.5), "vietoris", {"n": n})


def qk_sequence(n: int, alpha: float, beta: float, lam: float, mu: float) -> CoefficientSequence:
    """[2, 1, q_2..q_n] with q_k = (k+alpha)^-lam (k+beta)^-mu."""
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if alpha < 0 or beta < 0:
        raise ParameterDomainError("alpha and beta must be >= 0")
    vals = [2.0, 1.0] + [qk_weight(k, alpha, beta, -lam, -mu) for k in range(2, n + 1)]
    return CoefficientSequence(tuple(vals), "qk",
                               {"n": n, "alpha": alpha, "beta": beta, "lam": lam, "mu": mu})


def ratio_qk_sequence(n: int, alpha: float, beta: float, lam: float, mu: float) -> CoefficientSequence:
    """[1, r_2..r_n] with r_k = (k+alpha)^lam / (k+beta)^mu (sine coefficients)."""
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    for name, v in (("alpha", alpha), ("beta", beta), ("lam", lam), ("mu", mu)):
        if v <= 0:
            raise ParameterDomainError(f"{name} > 0 violated ({name} = {v})")
    if not alpha < beta:
        raise ParameterDomainError(f"alpha < beta violated ({alpha} >= {beta})")
    if not mu >= 1 + lam:
        raise ParameterDomainError(f"mu >= 1 + lam violated ({mu} < {1 + lam})")
    if not lam * beta - alpha * mu < 0:
        raise ParameterDomainError(
            f"lam*beta - alpha*mu < 0 violated ({lam * beta - alpha * mu} >= 0)")
    vals = [1.0]
    for k in range(2, n + 1):
        vals.append((k + alpha) ** lam / (k + beta) ** mu)
    return CoefficientSequence(tuple(vals), "ratio-qk",
                               {"n": n, "alpha": alpha, "beta": beta, "lam": lam, "mu": mu})


def koumandos_bk(n: int, alpha: float) -> CoefficientSequence:
    """[b_0..b_n] with b_{2k} = b_{2k+1} = (1-alpha)_k / k!, 0 < alpha < 1."""
    if not 0 < alpha < 1:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")
    return CoefficientSequence(_paired(n, alpha), "koumandos", {"n": n, "alpha": alpha})


def ck_sequence(n: int, alpha: float, b: float, c: float) -> CoefficientSequence:
    """[c_0..c_{2n+1}], c_{2k} = c_{2k+1} = (B_{n-k}/B_n) (1-alpha)_k/k!."""
    if n < 0:
        raise ParameterDomainError("n must be >= 0")
    if not 0 < alpha < 1:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")
    if c <= 0:
        raise ParameterDomainError(f"c > 0 violated (c = {c})")
    if b < c:
        raise ParameterDomainError(f"b >= c violated ({b} < {c})")
    B = [1.0]
    if n >= 1:
        B.append((1.0 + b - c) / c)
    for k in range(2, n + 1):
        B.append(B[-1] * (b + k - 1) / (c + k - 1))
    vals: list[float] = []
    for k, poch in enumerate(_rising_ratios(n, -alpha)):
        v = B[n - k] / B[n] * poch
        vals += (v, v)
    return CoefficientSequence(tuple(vals), "ck",
                               {"n": n, "alpha": alpha, "b": b, "c": c})


def _require_positive(seq: CoefficientSequence) -> None:
    for i, v in enumerate(seq.values):
        if v <= 0:
            raise ParameterDomainError(f"entry {i} is not positive ({v})")


def _report(index, slack, tol=CRITERION_TOL, partial_sums=None) -> CriterionReport:
    """The verdict policy (module notes): column j of `slack`, one row per
    inequality, belongs to index[j]; `tol` broadcasts against `slack`."""
    slack = np.atleast_2d(slack)
    # an overflowed side proves nothing, whatever the tolerance (which is inf
    # once a taper term is): -inf and inf - inf = NaN slacks are violations
    broken = (slack < -np.asarray(tol)) | (slack == -np.inf)
    bad = np.flatnonzero((broken | np.isnan(slack)).any(axis=0))
    violation = int(index[bad[0]]) if bad.size else None
    margin = float(np.fmin.reduce(slack, axis=None, initial=math.nan))
    if bad.size and not broken.any():
        margin = math.nan  # the violation rests on NaN slacks alone
    elif math.isnan(margin):
        margin = 0.0  # nothing to check
    return CriterionReport(violation is None, violation, margin, partial_sums)


@np.errstate(over="ignore", invalid="ignore")
def check_vietoris(seq: CoefficientSequence) -> CriterionReport:
    """Vietoris hypotheses: non-increasing and 2k a_{2k} <= (2k-1) a_{2k-1}.

    values[0] is read as a_0.  The even-index slack is computed as
    a_{2k-1}*(2k-1)/(2k) - a_{2k}, which is bit-identical to the forward
    products used by vietoris_gamma, so that family reports margin exactly 0.
    """
    _require_positive(seq)
    a = np.array(seq.values)
    i = np.arange(1, len(a), dtype=float)
    slack = a[:-1] - a[1:]
    slack[1::2] = np.minimum(slack[1::2], a[1:-1:2] * i[:-1:2] / i[1::2] - a[2::2])
    return _report(range(1, len(a)), slack)


def check_belov(seq: CoefficientSequence) -> CriterionReport:
    """Belov partial sums S_n = sum_{k=1}^n (-1)^{k-1} k a_k, required >= 0 for n >= 2.

    The sine coefficients are taken from the family layout (see module notes);
    partial_sums lists S_1..S_N.  Kahan accumulation keeps the mathematically
    zero sums of the threshold families above the -1e-12 tolerance.
    """
    terms = seq.sine_view()
    if len(terms) < 2:
        raise SizeError("Belov check needs at least two sine coefficients")
    for k, v in terms:
        if v <= 0:
            raise ParameterDomainError(f"coefficient a_{k} is not positive ({v})")
    if any(terms[j][1] < terms[j + 1][1] for j in range(len(terms) - 1)):
        warnings.warn("Belov criterion assumes non-increasing coefficients",
                      stacklevel=2)
    partial: list[float] = []
    acc = 0.0
    comp = 0.0
    for k, v in terms:
        term = k * v if k % 2 else -k * v
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        partial.append(acc)
    return _report(range(2, len(terms) + 1), partial[1:], partial_sums=tuple(partial))


@np.errstate(over="ignore", invalid="ignore")
def check_chain_condition(seq: CoefficientSequence, alpha: float, beta: float,
                          lam: float, mu: float) -> CriterionReport:
    """Weighted chain condition: w_{k+1} a_{k+1} <= w_k a_k with w_1 = 1 and
    w_k = (k+alpha)^lam (k+beta)^mu for k >= 2, plus a_1 <= a_0/2 when a_0 is stored.
    """
    if alpha < 0 or beta < 0 or lam < 0 or mu < 0:
        raise ParameterDomainError("alpha, beta, lam, mu must be >= 0")
    _require_positive(seq)
    head = int(seq.family in A0_FAMILIES)  # a_0 stored first
    a = np.array(seq.values[head:])
    if not a.size:
        raise SizeError("need a_1 in addition to a_0")
    wa = np.array([1.0] + [qk_weight(k, alpha, beta, lam, mu)
                           for k in range(2, a.size + 1)]) * a
    slack = wa[:-1] - wa[1:]
    if head:
        slack = np.concatenate(([0.5 * seq.values[0] - a[0]], slack))
    return _report(range(2 - head, a.size + 1), slack)


@np.errstate(over="ignore", invalid="ignore")
def check_taper_ratio_condition(seq: CoefficientSequence, b: float, c: float,
                          alpha: float) -> CriterionReport:
    """Taper-ratio condition (b+n-k) k a_k <= (c+n-k) (k-alpha) a_{k-1}, 1 <= k <= n.

    Paired families are reduced to their distinct pair values first (the pair
    ratio is what the defining inequality constrains); n = len - 1 of the
    checked values, which must also be non-increasing.
    """
    if c <= 0:
        raise ParameterDomainError(f"c > 0 violated (c = {c})")
    if b < c:
        raise ParameterDomainError(f"b >= c violated ({b} < {c})")
    if not 0 < alpha < 1:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")
    _require_positive(seq)
    a = np.array(seq.pair_values())
    n = len(a) - 1
    k = np.arange(1, n + 1, dtype=float)
    lhs = (c + n - k) * (k - alpha) * a[:-1]
    rhs = (b + n - k) * k * a[1:]
    # the taper terms grow like n^2/4: the tolerance scales with them
    tol = CRITERION_TOL * np.array([np.maximum(1.0, a[:-1]),
                                    np.maximum(np.maximum(1.0, lhs), rhs)])
    return _report(range(1, n + 1), [a[:-1] - a[1:], lhs - rhs], tol)
