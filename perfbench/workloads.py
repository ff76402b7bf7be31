"""Seeded workloads of the postrig benchmark.

A workload is one *round*: a list of operations built from the seed.  The
runner repeats whole rounds, so every run attempts the same operations in the
same proportions.  Each operation starts from parameters and calls a seqkit
sequence function, then trigeval, then certify (or the special-function and
orthogonal-polynomial entry points), always through module attributes so the
traced run can wrap them.

Every input lies where a theorem fixes the answer (Vietoris, Koumandos and
the tapered families above alpha*(d), Fejer-Jackson-Gronwall, Young, the
zero-count theorem for p and q, OPUC cumulative positivity, normalized
Gegenbauer sums above lambda'), or at a recorded counterexample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from postrig import certify, cli, orthosum, seqkit, specfun, trigeval

from checks import family_interval

PI = math.pi
WORKLOADS = ("sweep", "highdeg", "special")
REFS_PATH = Path(__file__).resolve().parent / "refs.json"
#: certificate options a user gets by default; `workers` stays at 1
DEFAULT_OPTS = certify.CertifyOptions()


@dataclass
class Op:
    kind: str
    label: str
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# polynomial families, built the way `postrig certify` builds them

def build_poly(fam: str, p: dict):
    """The TrigPolynomial `postrig certify --family fam` builds."""
    n = p.get("n")
    if fam in ("qk-sine", "qk-cosine"):
        v = seqkit.qk_sequence(n, p["alpha"], p["beta"], p["lam"], p["mu"]).values
        if fam == "qk-sine":
            return trigeval.sine_poly(v[1:])
        return trigeval.cosine_poly(v[0], v[1:])
    if fam == "ratio-sine":
        v = seqkit.ratio_qk_sequence(n, p["alpha"], p["beta"], p["lam"], p["mu"]).values
        return trigeval.sine_poly(v)
    if fam == "koumandos-cosine":
        v = seqkit.koumandos_bk(n, p["alpha"]).values
        return trigeval.cosine_poly(2.0 * v[0], v[1:])
    if fam == "koumandos-sine":
        v = seqkit.koumandos_bk(n, p["alpha"]).values
        return trigeval.sine_poly(v[1:])
    if fam in ("ck-cosine", "ck-sine", "ck-pair-cosine", "ck-even-sine"):
        seq = seqkit.ck_sequence(n, p["alpha"], p["b"], p["c"])
        v = seq.values
        if fam == "ck-cosine":
            return trigeval.cosine_poly(2.0 * v[0], v[1:])
        if fam == "ck-sine":
            return trigeval.sine_poly(v[1:])
        if fam == "ck-even-sine":
            return trigeval.sine_poly(v[1:-1])
        pairs = seq.pair_values()
        return trigeval.cosine_poly(2.0 * pairs[0], pairs[1:])
    if fam == "raw-sine":
        return trigeval.sine_poly(p["coeffs"])
    if fam == "raw-cosine":
        e = p["coeffs"]
        return trigeval.cosine_poly(e[0], e[1:])
    if fam in ("shifted-cosine", "shifted-sine"):
        e = p["coeffs"]
        kind = "cosine" if fam == "shifted-cosine" else "sine"
        return trigeval.shifted_poly(e, p["shift"], kind, p["stride"])
    if fam == "halfangle-product":
        return trigeval.halfangle_product_negated_poly(n, p["alpha"], p["beta"],
                                                       p["lam"], p["mu"])
    raise ValueError(f"unknown family {fam!r}")


def cli_certify_argv(fam: str, p: dict, out_path: str) -> list[str]:
    argv = ["certify", "--family", fam, "-o", out_path]
    for key, flag in (("n", "--n"), ("alpha", "--alpha"), ("beta", "--beta"),
                      ("lam", "--lambda"), ("mu", "--mu"), ("b", "--b"),
                      ("c", "--c"), ("shift", "--shift"), ("stride", "--stride")):
        if key in p:
            argv += [flag, repr(p[key])]
    if "coeffs" in p:
        argv += ["--coeffs", ",".join(repr(v) for v in p["coeffs"])]
    return argv


# ---------------------------------------------------------------------------
# executing one operation

def execute(op: Op, out_dir: Path):
    """Run one operation through the public API and return its raw outputs."""
    p = op.params
    k = op.kind
    if k == "certify":
        poly = build_poly(p["family"], p)
        lo, hi = family_interval(p["family"], p)
        return poly, certify.certify_positive(poly, lo, hi, DEFAULT_OPTS)
    if k == "belov-refute":
        # the Belov check names the first failing n, which is then refuted
        scan = seqkit.check_belov(seqkit.koumandos_bk(p["n_scan"], p["alpha"]))
        n_bad = scan.first_violation_index
        poly = trigeval.sine_poly(seqkit.koumandos_bk(n_bad, p["alpha"]).values[1:])
        return (n_bad, poly), certify.certify_positive(poly, 0.0, PI, DEFAULT_OPTS)
    if k == "find_min":
        poly = build_poly(p["family"], p)
        lo, hi = family_interval(p["family"], p)
        lo, hi = p.get("lo", lo), p.get("hi", hi)
        return poly, certify.find_min(poly, lo, hi)
    if k == "zeros":
        return certify.bracket_zeros(p["kind"], p["coeffs"], 0.0, 2.0 * PI, p["grid"])
    if k == "criterion":
        seq = criterion_sequence(p)
        check = p["check"]
        if check == "vietoris":
            return seq, seqkit.check_vietoris(seq)
        if check == "belov":
            return seq, seqkit.check_belov(seq)
        if check == "chain":
            return seq, seqkit.check_chain_condition(seq, p["alpha"], p["beta"],
                                                     p["lam"], p["mu"])
        return seq, seqkit.check_taper_ratio_condition(seq, p["b"], p["c"], p["alpha"])
    if k == "cli-certify":
        path = str(out_dir / f"{op.label}.json")
        return path, cli.main(cli_certify_argv(p["family"], p, path))
    if k == "alpha0":
        return specfun.alpha0(p["route"])
    if k == "alpha0_prime":
        return specfun.alpha0_prime(p["d"])
    if k == "expansion_fit":
        return specfun.expansion_fit()
    if k == "lambda_prime":
        return specfun.lambda_prime()
    if k == "cli-constants":
        path = str(out_dir / f"{op.label}.json")
        d_arg = ",".join(repr(d) for d in p["d"])
        return path, cli.main(["constants", "--d", d_arg, "-o", path])
    if k == "opuc":
        return orthosum.opuc_cumulative_positive(p["b"], p["omega"], p["N"])
    if k == "gegenbauer-scan":
        xs = np.cos(np.linspace(1e-3, PI - 1e-3, p["points"]))
        hit = orthosum.scan_normalized_gegenbauer(p["lam"], p["n_max"], xs)
        ones = [1.0] * (p["n_max"] + 1)
        values = [orthosum.gegenbauer_normalized_sum(ones, n, p["lam"], x)
                  for n, x in p["probes"]]
        return hit, values
    if k == "fejer":
        return [orthosum.gegenbauer_fejer_sum(p["n"], p["lam"], x) for x in p["xs"]]
    if k == "jacobi":
        return [orthosum.jacobi_sum_check(p["n"], p["lam_p"], 1.0, p["a"], p["b"], x, ang)
                for x, ang in p["points"]]
    if k == "chebyshev":
        return [orthosum.chebyshev_qk_sum(p["n"], p["alpha"], p["beta"], p["lam"],
                                          p["mu"], t) for t in p["ts"]]
    raise ValueError(f"unknown operation kind {k!r}")


def criterion_sequence(p: dict):
    fam = p["family"]
    if fam == "vietoris":
        return seqkit.vietoris_gamma(p["n"])
    if fam == "qk":
        return seqkit.qk_sequence(p["n"], p["alpha"], p["beta"], p["lam"], p["mu"])
    if fam == "koumandos":
        return seqkit.koumandos_bk(p["n"], p["alpha"])
    if fam == "ck":
        return seqkit.ck_sequence(p["n"], p["alpha"], p["b"], p["c"])
    raise ValueError(f"unknown criterion family {fam!r}")


def samples_of(op: Op, result) -> int:
    """Polynomial evaluations an operation reports: grid_points for a
    certificate, and on the special workload the (partial sum, point) values
    the orthogonal-polynomial operations compute."""
    if op.kind in ("certify", "belov-refute"):
        return result[1].grid_points
    if op.kind == "cli-certify":
        with open(result[0], encoding="utf-8") as fh:
            return json.load(fh)["report"]["grid_points"]
    p = op.params
    if op.kind == "gegenbauer-scan":
        return p["n_max"] * p["points"] + len(p["probes"])
    if op.kind == "fejer":
        return (p["n"] + 1) * len(p["xs"])
    if op.kind == "jacobi":
        return (p["n"] + 1) * len(p["points"])
    if op.kind == "chebyshev":
        return p["n"] * len(p["ts"])
    if op.kind == "opuc":
        return p["N"] + 1
    return 0


# ---------------------------------------------------------------------------
# input generation
#
# Draws are stratified: `count` draws of one quantity take one value from each
# of `count` equal strata.  Which stratum goes with which operation is fixed
# (a generator seeded with the workload's index alone); the seed moves each
# value within the middle STRATUM_SPAN of its stratum, and sets the order of
# the round.  Every seed thus gives a round of the same make-up, so seeds move
# the figures far less than the benchmark's bounds.

STRATUM_SPAN = 0.2

class Draws:
    def __init__(self, seed: int, workload: str):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.fixed = np.random.default_rng([0, WORKLOADS.index(workload)])

    def strata(self, count: int, lo: float, hi: float) -> list[float]:
        offset = 0.5 + STRATUM_SPAN * self.rng.uniform(-0.5, 0.5, count)
        u = (self.fixed.permutation(count) + offset) / count
        return [float(lo + (hi - lo) * v) for v in u]

    def log_strata(self, count: int, lo: float, hi: float) -> list[int]:
        return [int(round(math.exp(v)))
                for v in self.strata(count, math.log(lo), math.log(hi))]

    def jitter(self, value: float, rel: float) -> float:
        return float(value * (1.0 + self.rng.uniform(-rel, rel)))


def qk_params(dr: Draws, count: int) -> list[dict]:
    """alpha, beta in [0, 5], lam, mu in [0, 2] with lam + mu >= 1: the
    region where both qk sums are positive."""
    alpha, beta = dr.strata(count, 0.0, 5.0), dr.strata(count, 0.0, 5.0)
    lam, v = dr.strata(count, 0.0, 2.0), dr.strata(count, 0.0, 1.0)
    out = []
    for a, b, l, w in zip(alpha, beta, lam, v):
        mu_lo = max(0.0, 1.0 - l)
        out.append({"alpha": a, "beta": b, "lam": l, "mu": mu_lo + w * (2.0 - mu_lo)})
    return out


def ratio_params(dr: Draws, count: int) -> list[dict]:
    """alpha < beta, mu >= 1 + lam, lam beta < alpha mu (ratio-qk's region)."""
    out = []
    for a, l, m, v in zip(dr.strata(count, 0.05, 2.5), dr.strata(count, 0.05, 1.5),
                          dr.strata(count, 0.0, 1.0), dr.strata(count, 0.0, 1.0)):
        # beta - alpha < alpha/lam keeps lam beta < alpha (1 + lam) <= alpha mu
        gap = max(v, 1e-3) * min(2.5, 0.99 * a / l)
        out.append({"alpha": a, "beta": a + gap, "lam": l, "mu": 1.0 + l + m})
    return out


def taper_alpha(refs: dict, d: float, step: float) -> float:
    """alpha a step above alpha*(d), where the tapered sums are positive."""
    return max(refs["alpha_star"][f"{d:.3f}"]["alpha"], 0.0) + step


def decreasing(dr: Draws, length: int) -> list[float]:
    """a_0 > a_1 >= ... > 0: the zero-count theorem's hypothesis."""
    steps = dr.rng.uniform(0.01, 1.0, length)
    return [float(v) for v in 1.0 + np.cumsum(steps[::-1])[::-1]]


FIG1 = {"alpha": 0.2, "beta": 0.4, "lam": 0.3, "mu": 0.7}


def sweep_ops(dr: Draws, refs: dict) -> list[Op]:
    ops: list[Op] = []

    def add(op_kind, label, **params):
        ops.append(Op(op_kind, f"{label}-{len(ops)}", params))

    alpha0 = refs["alpha0"]
    taper_ds = [float(k) for k in refs["alpha_star"]]
    for n, qp in zip(dr.log_strata(40, 5, 400), qk_params(dr, 40)):
        add("certify", "qk-sine", family="qk-sine", n=n, **qp)
        add("certify", "qk-cosine", family="qk-cosine", n=n, **qp)
    for n, rp in zip(dr.log_strata(15, 3, 400), ratio_params(dr, 15)):
        add("certify", "ratio-sine", family="ratio-sine", n=n, **rp)
    # the parity of n is fixed per operation: at odd n the cosine sum vanishes
    # at pi and costs the certifier far more
    for j, (n, a) in enumerate(zip(dr.log_strata(20, 10, 400),
                                   dr.strata(20, alpha0 + 0.01, 0.95))):
        add("certify", "koumandos-cosine", family="koumandos-cosine",
            n=2 * (n // 2) + j % 2, alpha=a)
    # odd length: complete coefficient pairs
    for n, a in zip(dr.log_strata(20, 10, 400), dr.strata(20, alpha0 + 0.01, 0.95)):
        add("certify", "koumandos-sine", family="koumandos-sine", n=n | 1, alpha=a)
    fams = ("ck-cosine", "ck-pair-cosine", "ck-sine", "ck-even-sine")
    sizes = dr.log_strata(len(taper_ds) * len(fams), 8, 200)
    steps = dr.strata(len(taper_ds) * len(fams), 0.02, 0.1)
    for j, (n, step) in enumerate(zip(sizes, steps)):
        d, fam = taper_ds[j // len(fams)], fams[j % len(fams)]
        # even sine sums have the stronger threshold 1/2 - d/2
        alpha = max(0.5 - d / 2.0, 0.0) + step if fam == "ck-even-sine" \
            else taper_alpha(refs, d, step)
        add("certify", fam, family=fam, n=n, alpha=alpha, b=1.0 + d, c=1.0)
    for n in dr.log_strata(6, 5, 100):
        add("certify", "halfangle-product", family="halfangle-product", n=n, **FIG1)
    for m in dr.log_strata(4, 3, 40):
        e = list(seqkit.ck_sequence(m, 0.35, 2.0, 1.0).pair_values())
        for shift in (0.0, 0.125, 0.25):
            add("certify", "shifted-cosine", family="shifted-cosine", coeffs=e,
                shift=shift, stride=1)
        for shift in (0.25, 0.375, 0.5):
            add("certify", "shifted-sine", family="shifted-sine", coeffs=e,
                shift=shift, stride=1)
        add("certify", "shifted-cosine", family="shifted-cosine", coeffs=e,
            shift=0.5, stride=2)
    for n_sine, n_cos in zip(dr.log_strata(5, 3, 400), dr.log_strata(5, 2, 400)):
        # Fejer-Jackson-Gronwall at odd n (at even n the sum touches 0 at pi to
        # third order, which the certifier cannot settle) and Young
        add("certify", "raw-sine", family="raw-sine",
            coeffs=[1.0 / k for k in range(1, (n_sine | 1) + 1)])
        add("certify", "raw-cosine", family="raw-cosine",
            coeffs=[2.0] + [1.0 / k for k in range(1, n_cos + 1)])
    # recorded refutations: even Koumandos sine below 1/2, tapered cosine at
    # alpha0'(0.5) + 0.01 < alpha*(0.5)
    add("belov-refute", "koumandos-even-sine-0.45", n_scan=500, alpha=0.45)
    add("certify", "koumandos-sine-even", family="koumandos-sine",
        n=2 * dr.log_strata(1, 5, 200)[0], alpha=0.45, expect="refuted")
    add("certify", "ck-cosine-alpha0prime", family="ck-cosine", n=20,
        alpha=refs["alpha0_prime"]["0.50"] + 0.01, b=1.5, c=1.0, expect="refuted")
    for n, qp in zip(dr.log_strata(10, 5, 400), qk_params(dr, 10)):
        add("find_min", "find_min-qk-cosine", family="qk-cosine", n=n, **qp)
    for j, (n, a) in enumerate(zip(dr.log_strata(10, 10, 400),
                                   dr.strata(10, alpha0 + 0.01, 0.95))):
        add("find_min", "find_min-koumandos-cosine", family="koumandos-cosine",
            n=2 * (n // 2) + j % 2, alpha=a)
    for n, a in zip(dr.log_strata(10, 10, 400), dr.strata(10, 0.5, 0.95)):
        add("find_min", "find_min-koumandos-sine", family="koumandos-sine", n=n | 1,
            alpha=a, lo=0.1, hi=PI - 0.1)
    for n_p, n_q in zip(dr.log_strata(15, 5, 300), dr.log_strata(15, 5, 300)):
        add("zeros", "zeros-p", kind="p", coeffs=decreasing(dr, n_p + 1), grid=32 * n_p + 1)
        add("zeros", "zeros-q", kind="q", coeffs=decreasing(dr, n_q), grid=32 * n_q + 1)
    for n, a in zip(dr.log_strata(8, 5, 2000), dr.strata(8, 0.3, 0.95)):
        add("criterion", "vietoris", check="vietoris", family="vietoris", n=n)
        add("criterion", "vietoris-koumandos", check="vietoris", family="koumandos",
            n=n, alpha=a)
        add("criterion", "belov", check="belov", family="koumandos", n=n, alpha=a)
    for n, qp in zip(dr.log_strata(8, 5, 2000), qk_params(dr, 8)):
        add("criterion", "chain", check="chain", family="qk", n=n, **qp)
    # the taper-ratio check holds with equality on ck; n stays below the range
    # where roundoff crosses its absolute tolerance
    for n, a, b in zip(dr.log_strata(8, 5, 60), dr.strata(8, 0.05, 0.95),
                       dr.strata(8, 1.0, 2.0)):
        add("criterion", "taper", check="taper", family="ck", n=n, alpha=a, b=b, c=1.0)
    # a share of the certificates through the CLI, one per family it offers
    qp, = qk_params(dr, 1)
    rp, = ratio_params(dr, 1)
    e = list(seqkit.ck_sequence(dr.log_strata(1, 3, 40)[0], 0.35, 2.0, 1.0).pair_values())
    n1, n2, n3, n4, n5, n6, n7, n8, n9, n10 = dr.log_strata(10, 5, 400)
    cli_fams = [
        ("qk-sine", dict(n=n1, **qp)),
        ("qk-cosine", dict(n=n2, **qp)),
        ("ratio-sine", dict(n=n3, **rp)),
        ("koumandos-cosine", dict(n=2 * (n4 // 2), alpha=dr.jitter(0.6, 0.05))),
        ("koumandos-sine", dict(n=n5 | 1, alpha=dr.jitter(0.6, 0.05))),
        ("ck-cosine", dict(n=n6 // 2, alpha=taper_alpha(refs, 0.25, dr.jitter(0.05, 0.1)),
                           b=1.25, c=1.0)),
        ("ck-sine", dict(n=n7 // 2, alpha=taper_alpha(refs, 0.5, dr.jitter(0.05, 0.1)),
                         b=1.5, c=1.0)),
        ("raw-sine", dict(coeffs=[1.0 / k for k in range(1, (n8 | 1) + 1)])),
        ("raw-cosine", dict(coeffs=[2.0] + [1.0 / k for k in range(1, n9 + 1)])),
        ("shifted-cosine", dict(coeffs=e, shift=0.125, stride=1)),
        ("shifted-sine", dict(coeffs=e, shift=0.375, stride=1)),
        ("halfangle-product", dict(n=n10 // 4 + 2, **FIG1)),
    ]
    for fam, params in cli_fams:
        add("cli-certify", f"cli-{fam}", family=fam, **params)
    return [ops[i] for i in dr.rng.permutation(len(ops))]


def highdeg_ops(dr: Draws, refs: dict) -> list[Op]:
    """Fixed slots of degree ~1000-4000; the seed moves n and alpha by at
    most 0.5% within each slot."""
    ops: list[Op] = []
    # even n: at odd n the cosine sum vanishes at pi and the certifier runs out
    # of refinement depth from n ~ 2000
    for i, (n, alpha) in enumerate(((1000, 0.36), (1600, 0.5), (2200, 0.65), (2800, 0.8))):
        ops.append(Op("certify", f"koumandos-cosine-{i}",
                      {"family": "koumandos-cosine", "n": 2 * int(dr.jitter(n, 0.005) / 2),
                       "alpha": dr.jitter(alpha, 0.005)}))
    for i, (n, alpha) in enumerate(((1500, 0.4), (2300, 0.55), (3100, 0.7), (3900, 0.85))):
        ops.append(Op("certify", f"koumandos-sine-{i}",
                      {"family": "koumandos-sine", "n": int(dr.jitter(n, 0.005)) | 1,
                       "alpha": dr.jitter(alpha, 0.005)}))
    for i, (n, d) in enumerate(((500, 0.0), (600, 0.25), (700, 0.5), (800, 1.0))):
        ops.append(Op("certify", f"ck-cosine-{i}",
                      {"family": "ck-cosine", "n": int(dr.jitter(n, 0.005)),
                       "alpha": taper_alpha(refs, d, dr.jitter(0.05, 0.05)),
                       "b": 1.0 + d, "c": 1.0}))
    return [ops[i] for i in dr.rng.permutation(len(ops))]


def special_ops(dr: Draws, refs: dict) -> list[Op]:
    ops: list[Op] = []

    def add(op_kind, label, **params):
        ops.append(Op(op_kind, f"{label}-{len(ops)}", params))

    lam_prime = refs["lambda_prime"]
    grid = sorted(refs["alpha0_prime"], key=float)
    add("alpha0", "alpha0-quad", route="quadrature-root")
    add("alpha0", "alpha0-hyp", route="hyp2f3-root")
    picks = ["0.00"] + [grid[i] for i in dr.rng.choice(np.arange(1, len(grid)), 7, replace=False)]
    for key in picks:
        add("alpha0_prime", "alpha0_prime", d=float(key))
    add("expansion_fit", "expansion_fit")
    add("lambda_prime", "lambda_prime")
    add("cli-constants", "cli-constants",
        d=[float(grid[i]) for i in sorted(dr.rng.choice(len(grid), 3, replace=False))])
    for b, omega, N in zip(dr.strata(8, -0.45, 3.0), dr.strata(8, -0.99, 0.99),
                           dr.log_strata(8, 200, 2000)):
        add("opuc", "opuc", b=b, omega=omega, N=N)
    for lam, n_max in zip(dr.strata(6, lam_prime + 0.01, 0.6), dr.log_strata(6, 50, 400)):
        probes = [(int(n), float(math.cos(t))) for n, t in
                  zip(dr.rng.integers(1, 51, 3), dr.rng.uniform(0.05, PI - 0.05, 3))]
        add("gegenbauer-scan", "gegenbauer-scan", lam=lam, n_max=n_max, points=401,
            probes=probes)
    for n, lam in zip(dr.log_strata(8, 5, 200), dr.strata(8, 0.05, 0.5)):
        add("fejer", "fejer", n=n, lam=lam, xs=[float(v) for v in dr.rng.uniform(-0.99, 0.99, 16)])
    # delta = 1, a >= b >= 0, 0 <= lam_p <= a + b: the sum never vanishes
    for n, a, v, w in zip(dr.log_strata(8, 2, 24), dr.strata(8, 0.2, 2.0),
                          dr.strata(8, 0.0, 1.0), dr.strata(8, 0.0, 1.0)):
        b = v * a
        add("jacobi", "jacobi", n=n, lam_p=w * (a + b), a=a, b=b,
            points=[(float(x), float(t)) for x, t in
                    zip(dr.rng.uniform(-1, 1, 8), dr.rng.uniform(0, 2 * PI, 8))])
    for n, qp in zip(dr.log_strata(8, 5, 200), qk_params(dr, 8)):
        add("chebyshev", "chebyshev", n=n, **qp,
            ts=[float(v) for v in dr.rng.uniform(-0.99, 0.99, 16)])
    return [ops[i] for i in dr.rng.permutation(len(ops))]


def load_refs() -> dict:
    """The mpmath references stored by `python3 perfbench/refs.py`."""
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def make_round(workload: str, seed: int, refs: dict) -> list[Op]:
    build = {"sweep": sweep_ops, "highdeg": highdeg_ops, "special": special_ops}[workload]
    return build(Draws(seed, workload), refs)
