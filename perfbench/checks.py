"""Checks on the benchmark's outputs, made apart from postrig.

Coefficients are rebuilt from their defining formulas (log-gamma Pochhammer
ratios), values are summed term by term (numpy on dense grids, math.fsum at
single points, exact fractions for the criteria), and constants and
orthogonal-polynomial values come from mpmath (refs.py, imported only when a
check needs it, so that the workloads can use this module without mpmath).
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

PI = math.pi
EPS = 1e-4          # the certifier's default endpoint inset
CONST_TOL = 1e-8    # constants against their mpmath references
VALUE_RTOL = 1e-9   # orthogonal-polynomial values against mpmath
CRITERION_TOL = 1e-12  # seqkit's slack tolerance
ROUNDOFF = 1e-14       # relative roundoff of a slack formed in floats
A0_FAMILIES = ("vietoris", "qk", "koumandos", "ck")
PAIRED_FAMILIES = ("vietoris", "koumandos", "ck")


# ---------------------------------------------------------------------------
# coefficient families from their definitions

def _poch_ratio(x: float, k: int) -> float:
    """(x)_k / k! via log-gamma, for x > 0."""
    return math.exp(math.lgamma(x + k) - math.lgamma(x) - math.lgamma(k + 1))


def qk_values(n, alpha, beta, lam, mu):
    return [2.0, 1.0] + [(k + alpha) ** -lam * (k + beta) ** -mu for k in range(2, n + 1)]


def koumandos_values(n, alpha):
    return [_poch_ratio(1.0 - alpha, j // 2) for j in range(n + 1)]


def ck_values(n, alpha, b, c):
    """c_0..c_{2n+1}: c_{2k} = c_{2k+1} = (B_{n-k}/B_n) (1-alpha)_k/k!."""
    def logB(m):
        if m == 0:
            return 0.0
        return (math.lgamma(b + m) - math.lgamma(b) - math.lgamma(c + m) + math.lgamma(c)
                + math.log((1.0 + b - c) / b))
    out = []
    for k in range(n + 1):
        v = math.exp(logB(n - k) - logB(n)) * _poch_ratio(1.0 - alpha, k)
        out += [v, v]
    return out


def vietoris_values(n):
    return [_poch_ratio(0.5, j // 2) for j in range(n + 1)]


def family_terms(fam: str, p: dict):
    """(constant, [(nu, cos coeff)], [(nu, sin coeff)]) of a certify family,
    or None for the half-angle product, which is evaluated in closed form."""
    n = p.get("n")
    if fam in ("qk-sine", "qk-cosine"):
        q = qk_values(n, p["alpha"], p["beta"], p["lam"], p["mu"])
        terms = list(enumerate(q))[1:]
        return (0.0, [], terms) if fam == "qk-sine" else (q[0] / 2, terms, [])
    if fam == "ratio-sine":
        r = [1.0] + [(k + p["alpha"]) ** p["lam"] / (k + p["beta"]) ** p["mu"]
                     for k in range(2, n + 1)]
        return 0.0, [], [(k + 1, v) for k, v in enumerate(r)]
    if fam in ("koumandos-cosine", "koumandos-sine"):
        b = koumandos_values(n, p["alpha"])
        terms = list(enumerate(b))[1:]
        return (0.0, [], terms) if fam == "koumandos-sine" else (b[0], terms, [])
    if fam in ("ck-cosine", "ck-sine", "ck-even-sine", "ck-pair-cosine"):
        c = ck_values(n, p["alpha"], p["b"], p["c"])
        if fam == "ck-cosine":
            return c[0], list(enumerate(c))[1:], []
        if fam == "ck-sine":
            return 0.0, [], list(enumerate(c))[1:]
        if fam == "ck-even-sine":
            return 0.0, [], list(enumerate(c))[1:-1]
        pairs = c[::2]
        return pairs[0], list(enumerate(pairs))[1:], []
    if fam == "raw-sine":
        return 0.0, [], [(k + 1, v) for k, v in enumerate(p["coeffs"])]
    if fam == "raw-cosine":
        e = p["coeffs"]
        return e[0] / 2, [(k + 1, v) for k, v in enumerate(e[1:])], []
    if fam in ("shifted-cosine", "shifted-sine"):
        terms = [(p["stride"] * k + p["shift"], v) for k, v in enumerate(p["coeffs"])]
        return (0.0, terms, []) if fam == "shifted-cosine" else (0.0, [], terms)
    if fam == "halfangle-product":
        return None
    raise ValueError(f"unknown family {fam!r}")


def _halfangle_parts(p):
    """Coefficient lists of C and S in the half-angle product."""
    w = [(k + p["alpha"]) ** p["lam"] * (k + p["beta"]) ** p["mu"] for k in range(2, p["n"] + 1)]
    cos_terms = [(0, 1.0), (1, 1.0)] + [(k, 1.0 / (k * wk)) for k, wk in zip(range(2, p["n"] + 1), w)]
    sin_terms = [(1, 1.0)] + [(k, 1.0 / wk) for k, wk in zip(range(2, p["n"] + 1), w)]
    return cos_terms, sin_terms


def family_mass(fam: str, p: dict) -> float:
    """Sum of |coefficients|: the scale of roundoff in any evaluation."""
    t = family_terms(fam, p)
    if t is None:
        cos_terms, sin_terms = _halfangle_parts(p)
        return sum(abs(c) for _, c in cos_terms + sin_terms)
    a0, cos_terms, sin_terms = t
    return abs(a0) + sum(abs(c) for _, c in cos_terms) + sum(abs(c) for _, c in sin_terms)


def family_grid_values(fam: str, p: dict, thetas: np.ndarray) -> np.ndarray:
    """Term-by-term values on a grid, in chunks to bound memory."""
    t = family_terms(fam, p)
    out = np.empty(thetas.size)
    if t is None:
        cos_terms, sin_terms = _halfangle_parts(p)
        a0 = 0.0
    else:
        a0, cos_terms, sin_terms = t
    nu_c = np.array([nu for nu, _ in cos_terms], dtype=float)
    c_c = np.array([c for _, c in cos_terms], dtype=float)
    nu_s = np.array([nu for nu, _ in sin_terms], dtype=float)
    c_s = np.array([c for _, c in sin_terms], dtype=float)
    step = max(1, 2_000_000 // max(1, nu_c.size + nu_s.size))
    for i in range(0, thetas.size, step):
        th = thetas[i:i + step]
        C = np.cos(np.outer(th, nu_c)) @ c_c if nu_c.size else np.zeros(th.size)
        S = np.sin(np.outer(th, nu_s)) @ c_s if nu_s.size else np.zeros(th.size)
        if t is None:
            out[i:i + step] = 0.5 * np.sin(0.5 * th) * C + np.cos(0.5 * th) * S
        else:
            out[i:i + step] = a0 + C + S
    return out


def family_value_fsum(fam: str, p: dict, theta: float) -> float:
    """Term-by-term value at one point, summed with math.fsum."""
    t = family_terms(fam, p)
    if t is None:
        cos_terms, sin_terms = _halfangle_parts(p)
        C = math.fsum(c * math.cos(nu * theta) for nu, c in cos_terms)
        S = math.fsum(c * math.sin(nu * theta) for nu, c in sin_terms)
        return math.fsum([0.5 * math.sin(0.5 * theta) * C, math.cos(0.5 * theta) * S])
    a0, cos_terms, sin_terms = t
    return math.fsum([a0] + [c * math.cos(nu * theta) for nu, c in cos_terms]
                     + [c * math.sin(nu * theta) for nu, c in sin_terms])


def family_interval(fam: str, p: dict) -> tuple[float, float]:
    """The interval `postrig certify` works on for a family."""
    if fam in ("shifted-cosine", "shifted-sine"):
        return 0.0, (PI if p["stride"] == 2 else 2.0 * PI)
    return 0.0, PI


def _degree(fam: str, p: dict) -> float:
    t = family_terms(fam, p)
    if t is None:
        return p["n"] + 1
    return max([nu for nu, _ in t[1] + t[2]] or [1])


def dense_grid(fam: str, p: dict, lo: float, hi: float) -> np.ndarray:
    """Grid on [lo + eps, hi - eps], inside every working interval the
    certifier or find_min can choose, with >= 3 points per unit frequency."""
    m = max(2001, int(3 * _degree(fam, p) * (hi - lo) / PI) + 1)
    return np.linspace(lo + EPS, hi - EPS, m)


# ---------------------------------------------------------------------------
# certificates, minima, zeros

def check_report(fam: str, p: dict, report: dict, expect: str, interval) -> list[str]:
    """A PositivityReport (as its dict) against the family's definition."""
    lo, hi = interval
    verdict = report["verdict"]
    if expect == "positive":
        if verdict != "certified-positive":
            return [f"expected certified-positive, got {verdict}"]
        lb = report["lower_bound"]
        grid = dense_grid(fam, p, lo, hi)
        vals = family_grid_values(fam, p, grid)
        vmin = float(vals.min())
        tol = 1e-9 * family_mass(fam, p)
        problems = []
        if not vmin > 0.0:
            problems.append(f"dense-grid minimum {vmin:.3e} is not positive")
        if not (lb is not None and 0.0 < lb <= vmin + tol):
            problems.append(f"lower bound {lb!r} exceeds the dense-grid minimum {vmin:.6e}")
        return problems
    if verdict != "refuted":
        return [f"expected refuted, got {verdict}"]
    theta, value = report["witness"]["theta"], report["witness"]["value"]
    if not lo <= theta <= hi:
        return [f"witness theta {theta} outside [{lo}, {hi}]"]
    again = family_value_fsum(fam, p, theta)
    if not again <= 0.0:
        return [f"witness at theta {theta} re-evaluates to {again:.3e} > 0 "
                f"(engine reported {value:.3e})"]
    return []


def check_find_min(fam: str, p: dict, theta: float, value: float, lo: float,
                   hi: float) -> list[str]:
    if not lo <= theta <= hi:
        return [f"minimiser {theta} outside [{lo}, {hi}]"]
    tol = 1e-9 * family_mass(fam, p)
    again = family_value_fsum(fam, p, theta)
    problems = []
    if abs(again - value) > tol:
        problems.append(f"returned value {value:.12e} != fsum value {again:.12e}")
    vals = family_grid_values(fam, p, dense_grid(fam, p, lo, hi))
    if float(vals.min()) < value - tol:
        problems.append(f"grid sample {float(vals.min()):.12e} lies below the "
                        f"returned minimum {value:.12e}")
    return problems


def zeros_value(kind: str, a: list[float], theta: float) -> float:
    """p(theta) = sum a_k cos((n-k) theta), n = len - 1, or
    q(theta) = sum a_k sin((n-k) theta), n = len."""
    n = len(a) - 1 if kind == "p" else len(a)
    trig = math.cos if kind == "p" else math.sin
    return math.fsum(ak * trig((n - k) * theta) for k, ak in enumerate(a))


def check_zeros(kind: str, a: list[float], brackets) -> list[str]:
    """Every bracket's sign change re-verifies; 2n zeros for p, 2n - 1 for q."""
    n = len(a) - 1 if kind == "p" else len(a)
    want = 2 * n if kind == "p" else 2 * n - 1
    problems = []
    if len(brackets) != want:
        problems.append(f"{len(brackets)} brackets for {kind} of degree {n}, want {want}")
    prev_hi = 0.0
    for lo, hi, s_lo, s_hi in brackets:
        if not (prev_hi <= lo < hi <= 2 * PI):
            problems.append(f"bracket [{lo}, {hi}] unordered or outside (0, 2pi)")
        prev_hi = hi
        v_lo, v_hi = zeros_value(kind, a, lo), zeros_value(kind, a, hi)
        if not (v_lo * s_lo > 0 and v_hi * s_hi > 0 and s_lo * s_hi < 0):
            problems.append(f"bracket [{lo}, {hi}]: values {v_lo:.3e}, {v_hi:.3e} "
                            f"do not change sign as reported ({s_lo}, {s_hi})")
    return problems


# ---------------------------------------------------------------------------
# coefficient criteria, recomputed exactly on the library's own values

def _exact(values):
    return [Fraction(v) for v in values]


def criterion_reference(check: str, values, family: str, p: dict):
    """The criterion's slacks in exact arithmetic, as (index, slack, scale)
    in the checker's own index numbering; `scale` is the size of the terms a
    floating-point slack is formed from, which sets its roundoff."""
    a = _exact(values)
    out: list[tuple[int, Fraction, float]] = []
    if check == "vietoris":
        for i in range(1, len(a)):
            s = a[i - 1] - a[i]
            if i % 2 == 0:
                s = min(s, a[i - 1] * (i - 1) / i - a[i])
            out.append((i, s, float(max(a[i - 1], a[i]))))
    elif check == "belov":
        terms = list(enumerate(a))[1:] if family in A0_FAMILIES \
            else [(j + 1, v) for j, v in enumerate(a)]
        acc, scale = Fraction(0), 0.0
        for k, v in terms:
            acc += k * v if k % 2 else -k * v
            scale += float(k * abs(v))
            if k >= 2:
                out.append((k, acc, scale))
    elif check == "chain":
        a0, rest = a[0], a[1:]
        out.append((1, a0 / 2 - rest[0], float(a0)))
        w = [Fraction(1)] + [Fraction((k + p["alpha"]) ** p["lam"] * (k + p["beta"]) ** p["mu"])
                             for k in range(2, len(rest) + 1)]
        for j in range(len(rest) - 1):
            out.append((j + 2, w[j] * rest[j] - w[j + 1] * rest[j + 1], float(w[j] * rest[j])))
    else:  # taper, on the distinct pair values
        v = a[::2] if family in PAIRED_FAMILIES else a
        n = len(v) - 1
        b, c, al = Fraction(p["b"]), Fraction(p["c"]), Fraction(p["alpha"])
        for k in range(1, n + 1):
            lhs = (c + n - k) * (k - al) * v[k - 1]
            out.append((k, min(v[k - 1] - v[k], lhs - (b + n - k) * k * v[k]), float(lhs)))
    return out


def definition_values(family: str, p: dict):
    if family == "vietoris":
        return vietoris_values(p["n"])
    if family == "koumandos":
        return koumandos_values(p["n"], p["alpha"])
    if family == "ck":
        return ck_values(p["n"], p["alpha"], p["b"], p["c"])
    return qk_values(p["n"], p["alpha"], p["beta"], p["lam"], p["mu"])


def check_criterion(check: str, family: str, p: dict, values, satisfied: bool,
                    first_violation, margin: float, partial_sums=None) -> list[str]:
    problems = []
    ref = definition_values(family, p)
    worst = max(abs(x - y) / max(abs(y), 1e-300) for x, y in zip(values, ref))
    if len(values) != len(ref) or worst > 1e-11:
        problems.append(f"{family} coefficients differ from the definition (rel {worst:.1e})")
    slacks = criterion_reference(check, values, family, p)
    exact_margin = float(min((s for _, s, _ in slacks), default=Fraction(0)))
    top = max((scale for _, _, scale in slacks), default=1.0)
    if abs(exact_margin - margin) > ROUNDOFF * max(1.0, top):
        problems.append(f"margin {margin!r} != exact {exact_margin!r}")
    first = next((i for i, s, _ in slacks if s < -CRITERION_TOL), None)
    # a slack within roundoff of the tolerance may fall either way in floats
    ambiguous = any(abs(float(s) + CRITERION_TOL) <= ROUNDOFF * scale for _, s, scale in slacks)
    if not ambiguous and (satisfied != (first is None) or first_violation != first):
        problems.append(f"reported (satisfied={satisfied}, first={first_violation}), "
                        f"exact (satisfied={first is None}, first={first})")
    if partial_sums is not None and check == "belov":
        exact = [float(s) for _, s, _ in slacks]
        scale = 1e-9 * max(1.0, sum(abs(v) * (k + 1) for k, v in enumerate(values)))
        if any(abs(x - y) > scale for x, y in zip(partial_sums[1:], exact)):
            problems.append("Belov partial sums differ from the exact ones")
    return problems


# ---------------------------------------------------------------------------
# constants and orthogonal-polynomial values

def check_constant(name: str, value: float, ref: float) -> list[str]:
    if not abs(value - ref) <= CONST_TOL:
        return [f"{name} = {value!r}, mpmath reference {ref!r} (diff {abs(value - ref):.2e})"]
    return []


def check_constants_json(path: str, ds, refs: dict) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    problems = check_constant("alpha0", data["alpha0"]["value"], refs["alpha0"])
    problems += check_constant("alpha0 (2F3 route)", data["alpha0"]["hyp2f3_value"], refs["alpha0"])
    got = [e["d"] for e in data["alpha0_prime"]]
    if got != list(ds):
        problems.append(f"alpha0_prime entries for d = {got}, asked for {list(ds)}")
    for entry in data["alpha0_prime"]:
        ref = refs["alpha0_prime"][f"{entry['d']:.2f}"]
        problems += check_constant(f"alpha0_prime({entry['d']})", entry["value"], ref)
        problems += check_constant(f"alpha0_prime({entry['d']}) (2F3 route)",
                                   entry["hyp2f3_value"], ref)
    for name in ("beta0", "beta1", "lambda_prime"):
        problems += check_constant(name, data[name]["value"], refs[name])
    return problems


def close(x: float, y: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(y))


def check_opuc(b, omega, N, satisfied, first_violation, partial_sums, rng) -> list[str]:
    import refs as mpref
    problems = []
    if not satisfied or first_violation is not None:
        problems.append(f"OPUC cumulative sums reported non-positive at n = {first_violation}")
    if len(partial_sums) != N + 1:
        return problems + [f"{len(partial_sums)} cumulative sums, want {N + 1}"]
    idx = sorted({0, 1, N} | {int(i) for i in rng.integers(0, N + 1, 9)})
    for i, ref in zip(idx, mpref.opuc_cumulative(b, omega, N, idx)):
        if not abs(partial_sums[i] - ref) <= VALUE_RTOL * abs(ref):
            problems.append(f"cumulative sum {i}: {partial_sums[i]!r} vs mpmath {ref!r}")
        if not ref > 0:
            problems.append(f"mpmath cumulative sum {i} = {ref!r} is not positive")
    return problems


def check_values(label: str, got, refs_, positive: bool = True) -> list[str]:
    problems = []
    for g, r in zip(got, refs_):
        if not close(g, r):
            problems.append(f"{label}: {g!r} vs reference {r!r}")
        if positive and not g > 0:
            problems.append(f"{label}: value {g!r} is not positive")
    if len(got) != len(refs_):
        problems.append(f"{label}: {len(got)} values, want {len(refs_)}")
    return problems


def chebyshev_reference(n, alpha, beta, lam, mu, t) -> float:
    th = math.acos(t)
    return math.fsum([1.0, t] + [math.cos(k * th) / ((k + alpha) ** lam * (k + beta) ** mu)
                                 for k in range(2, n + 1)])


# ---------------------------------------------------------------------------
# one operation of a workload

def check_op(op, result, refs: dict, rng) -> list[str]:
    """Problems with one operation's output; `result` is what
    workloads.execute returned for it."""
    import refs as mpref
    k, p = op.kind, op.params
    if k == "certify":
        _, report = result
        return check_report(p["family"], p, report.to_dict(), p.get("expect", "positive"),
                            family_interval(p["family"], p))
    if k == "belov-refute":
        (n_bad, _), report = result
        slacks = criterion_reference("belov", koumandos_values(p["n_scan"], p["alpha"]),
                                     "koumandos", p)
        first = next(i for i, s, _ in slacks if s < -CRITERION_TOL)
        if n_bad != first:
            return [f"Belov check names n = {n_bad}, exact first violation {first}"]
        q = {"n": n_bad, "alpha": p["alpha"]}
        return check_report("koumandos-sine", q, report.to_dict(), "refuted", (0.0, PI))
    if k == "find_min":
        _, (theta, value) = result
        lo, hi = family_interval(p["family"], p)
        return check_find_min(p["family"], p, theta, value, p.get("lo", lo), p.get("hi", hi))
    if k == "zeros":
        return check_zeros(p["kind"], p["coeffs"], result.brackets)
    if k == "criterion":
        seq, rep = result
        return check_criterion(p["check"], p["family"], p, seq.values, rep.satisfied,
                               rep.first_violation_index, rep.margin, rep.partial_sums)
    if k == "cli-certify":
        path, code = result
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        report = payload["report"]
        want_code = {"certified-positive": 0, "refuted": 2}.get(report["verdict"], 3)
        problems = [] if code == want_code else [f"exit code {code} for {report['verdict']}"]
        return problems + check_report(p["family"], p, report, p.get("expect", "positive"),
                                       family_interval(p["family"], p))
    if k == "alpha0":
        return check_constant(f"alpha0 ({p['route']})", result.value, refs["alpha0"])
    if k == "alpha0_prime":
        problems = check_constant(f"alpha0_prime({p['d']})", result.value,
                                  refs["alpha0_prime"][f"{p['d']:.2f}"])
        if p["d"] == 0.0:
            problems += check_constant("alpha0_prime(0) vs alpha0", result.value, refs["alpha0"])
        return problems
    if k == "expansion_fit":
        beta0, beta1 = result
        return (check_constant("beta0", beta0.value, refs["beta0"])
                + check_constant("beta1", beta1.value, refs["beta1"]))
    if k == "lambda_prime":
        return check_constant("lambda_prime", result.value, refs["lambda_prime"])
    if k == "cli-constants":
        path, code = result
        problems = [] if code == 0 else [f"postrig constants exited {code}"]
        return problems + check_constants_json(path, p["d"], refs)
    if k == "opuc":
        return check_opuc(p["b"], p["omega"], p["N"], result.satisfied,
                          result.first_violation_index, result.partial_sums, rng)
    if k == "gegenbauer-scan":
        hit, values = result
        problems = [] if hit is None else [f"normalized Gegenbauer sum negative at {hit}"]
        want = [mpref.gegenbauer_normalized(n, p["lam"], x) for n, x in p["probes"]]
        return problems + check_values("normalized Gegenbauer sum", values, want)
    if k == "fejer":
        want = [mpref.gegenbauer_fejer(p["n"], p["lam"], x) for x in p["xs"]]
        return check_values("Gegenbauer Fejer sum", result, want)
    if k == "jacobi":
        want = [mpref.jacobi_sum(p["n"], p["lam_p"], 1.0, p["a"], p["b"], x, ang)
                for x, ang in p["points"]]
        return check_values("Jacobi sum", result, want)
    if k == "chebyshev":
        want = [chebyshev_reference(p["n"], p["alpha"], p["beta"], p["lam"], p["mu"], t)
                for t in p["ts"]]
        return check_values("Chebyshev qk sum", result, want)
    return [f"no check for operation kind {k!r}"]
