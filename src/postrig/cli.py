"""Command-line front end: one table per command over the library.

Subcommands: certify | constants | plotdata | zeros | criteria.  Families,
checks and figures are table entries, defaults are the library's, and both
plotdata figures are the qk sums through `TrigPolynomial.values_period`.
Exit codes are the machine contract: 0 success/certified, 1 usage error,
2 refuted/violated, 3 inconclusive, 4 solver error, 5 I/O error.  Standard
output stays human-readable; --output / --outdir write the JSON and CSV data.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import certify as certify_mod
from . import seqkit, specfun, trigeval
from .errors import PostrigError

PI = math.pi

FIG1_PARAMS = {"alpha": 0.2, "beta": 0.4, "lam": 0.3, "mu": 0.7}
#: the names `constants --only` selects from
_CONSTANTS = ("alpha0", "alpha0_prime", "beta0", "beta1", "lambda_prime")

#: seqkit family name -> builder of the sequence from the parsed arguments
_SEQUENCES = {
    "vietoris": lambda a: seqkit.vietoris_gamma(a.n),
    "qk": lambda a: seqkit.qk_sequence(a.n, a.alpha, a.beta, a.lam, a.mu),
    "ratio-qk": lambda a: seqkit.ratio_qk_sequence(a.n, a.alpha, a.beta, a.lam, a.mu),
    "koumandos": lambda a: seqkit.koumandos_bk(a.n, a.alpha),
    "ck": lambda a: seqkit.ck_sequence(a.n, a.alpha, a.b, a.c),
    "custom": lambda a: seqkit.CoefficientSequence(tuple(a.coeffs), "custom"),
}

#: certify family -> (seqkit family, "cosine" or "sine" sum).  The sine sum
#: takes `sine_view`; the cosine sum's a_0 is values[0] (q_0 = 2 already is
#: it), doubled for the paired families, whose sums start with b_0 itself.
_CERTIFY_SEQUENCES = {
    "qk-sine": ("qk", "sine"), "qk-cosine": ("qk", "cosine"),
    "ratio-sine": ("ratio-qk", "sine"),
    "koumandos-cosine": ("koumandos", "cosine"), "koumandos-sine": ("koumandos", "sine"),
    "ck-cosine": ("ck", "cosine"), "ck-sine": ("ck", "sine"),
}

#: --check name -> the seqkit criterion on (sequence, parsed arguments)
_CHECKS = {
    "vietoris": lambda seq, a: seqkit.check_vietoris(seq),
    "belov": lambda seq, a: seqkit.check_belov(seq),
    "chain": lambda seq, a: seqkit.check_chain_condition(seq, a.alpha, a.beta, a.lam, a.mu),
    "taper": lambda seq, a: seqkit.check_taper_ratio_condition(seq, a.b, a.c, a.alpha),
}

#: plotdata figure -> (first index i0, M/(points + i0)): angles 2*pi*i/M for
#: i = i0 .. i0 + points - 1, inside (0, pi) for fig1, round |z| = 1 from 0 for fig2
_FIGURES = {"fig1": (1, 2), "fig2": (0, 1)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _number_list(kind):
    """argparse type: a comma-separated list of `kind` (float or int) values."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    return parse


def _strict(obj):
    """obj with every non-finite float replaced by the string "NaN",
    "Infinity" or "-Infinity", so the file is strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _write_json(path: str | None, payload: dict) -> None:
    if path is None:
        return
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _family_poly(args) -> tuple[trigeval.TrigPolynomial, tuple[float, float]]:
    """Build the requested sum and its default certification interval."""
    fam = args.family
    if fam in ("raw-sine", "raw-cosine", "shifted-cosine", "shifted-sine"):
        if not args.coeffs:
            raise PostrigError(f"family {fam} needs --coeffs")
        e = args.coeffs
        if fam == "raw-sine":
            return trigeval.sine_poly(e), (0.0, PI)
        if fam == "raw-cosine":
            return trigeval.cosine_poly(e[0], e[1:]), (0.0, PI)
        kind = "cosine" if fam == "shifted-cosine" else "sine"
        # (0, 2*pi) in the variable stride*theta
        return trigeval.shifted_poly(e, args.shift, kind, args.stride), (0.0, 2 * PI / args.stride)
    if args.n is None or args.n < 1:
        raise PostrigError(f"family {fam} needs --n >= 1")
    if fam == "halfangle-product":
        return trigeval.halfangle_product_negated_poly(
            args.n, args.alpha, args.beta, args.lam, args.mu), (0.0, PI)
    name, kind = _CERTIFY_SEQUENCES[fam]
    seq = _SEQUENCES[name](args)
    if kind == "sine":
        return trigeval.sine_poly([v for _, v in seq.sine_view()]), (0.0, PI)
    a0 = 2.0 * seq.values[0] if name in seqkit.PAIRED_FAMILIES else seq.values[0]
    return trigeval.cosine_poly(a0, seq.values[1:]), (0.0, PI)


def cmd_certify(args) -> int:
    try:
        poly, (lo, hi) = _family_poly(args)
        lo = lo if args.lo is None else args.lo
        hi = hi if args.hi is None else args.hi
        opts = certify_mod.CertifyOptions(grid0=args.grid, max_depth=args.depth)
        report = certify_mod.certify_positive(poly, lo, hi, opts)
    except PostrigError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 1
    payload = {"family": args.family, "config": _config_dict(args, lo, hi),
               "report": report.to_dict()}
    _write_json(args.output, payload)
    print(f"verdict: {report.verdict}")
    if report.verdict == certify_mod.CERTIFIED:
        print(f"lower bound {report.lower_bound:.6e} on ({lo:.6g}, {hi:.6g}) "
              f"[{report.grid_points} samples, depth {report.refinement_depth}]")
        return 0
    if report.verdict == certify_mod.REFUTED:
        print(f"witness theta = {report.witness[0]:.9g}, "
              f"value = {report.witness[1]:.6e}")
        return 2
    print(report.boundary_notes)
    return 3


def _config_dict(args, lo, hi) -> dict:
    keys = ("family", "n", "alpha", "beta", "lam", "mu", "b", "c",
            "shift", "stride", "grid", "depth")
    cfg = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    cfg["coeffs"] = args.coeffs if args.coeffs else None
    cfg["lo"], cfg["hi"] = lo, hi
    return cfg


def cmd_constants(args) -> int:
    only = {t.strip() for t in (args.only or "").split(",") if t.strip()} or None
    wanted = lambda name: only is None or name in only
    unknown = sorted(only - set(_CONSTANTS)) if only else []
    if unknown:
        print(f"constants: unknown --only name(s) {','.join(unknown)}; "
              f"choose from {','.join(_CONSTANTS)}", file=sys.stderr)
        return 1
    bad_d = [d for d in args.d if not d >= 0] if wanted("alpha0_prime") else []
    if bad_d:
        print(f"constants: d >= 0 violated (d = {bad_d[0]})", file=sys.stderr)
        return 1
    # one solve per distinct d gives both routes' roots; alpha0 is
    # alpha0_prime at d = 0, and the expansion fit reads the same solves
    solve = functools.cache(lambda d: specfun._solve_alpha0_prime(d, "quadrature-root"))

    def entry(d: float) -> dict:
        quad, hyp_value = solve(d)
        return {**asdict(quad), "hyp2f3_value": hyp_value,
                "route_difference": abs(quad.value - hyp_value)}

    payload: dict = {}
    try:
        if wanted("alpha0"):
            payload["alpha0"] = {**entry(0.0), "name": "alpha0"}
            print(f"alpha0         = {payload['alpha0']['value']:.9f}  (routes differ by "
                  f"{payload['alpha0']['route_difference']:.2e})")
        if wanted("alpha0_prime"):
            payload["alpha0_prime"] = []
            for d in args.d:
                payload["alpha0_prime"].append({**entry(d), "d": d})
                print(f"alpha0_prime({d:g}) = {payload['alpha0_prime'][-1]['value']:.9f}")
        if wanted("beta0") or wanted("beta1"):
            beta0, beta1 = specfun._fit_expansion(
                [solve(d)[0].value for d in specfun._EXPANSION_DS])
            payload["beta0"], payload["beta1"] = asdict(beta0), asdict(beta1)
            print(f"beta0          = {beta0.value:.7f}")
            print(f"beta1          = {beta1.value:.8f}")
        if wanted("lambda_prime"):
            lp = specfun.lambda_prime()
            payload["lambda_prime"] = asdict(lp)
            print(f"lambda_prime   = {lp.value:.8f}")
    except PostrigError as exc:
        print(f"constants: {exc}", file=sys.stderr)
        return 4
    _write_json(args.output, payload)
    return 0


def cmd_plotdata(args) -> int:
    if not args.n:
        print("plotdata: empty --n list", file=sys.stderr)
        return 1
    if args.points < 1:
        print(f"plotdata: --points must be >= 1, got {args.points}", file=sys.stderr)
        return 1
    os.makedirs(args.outdir, exist_ok=True)
    first, per_point = _FIGURES[args.figure]
    idx = np.arange(first, first + args.points)
    period = per_point * (args.points + first)
    angles = idx * (2.0 * PI / period)
    try:
        for n in args.n:
            q = seqkit.qk_sequence(n, args.alpha, args.beta, args.lam, args.mu).values
            cos_sum, sin_sum = (poly.values_period(period, idx) for poly in (
                trigeval.cosine_poly(q[0], q[1:]), trigeval.sine_poly(q[1:])))
            if args.figure == "fig1":
                for tag, values in (("cos", cos_sum), ("sin", sin_sum)):
                    _write_csv(os.path.join(args.outdir, f"fig1_{tag}_n{n}.csv"),
                               ["theta", "value"], zip(angles, values))
            else:  # sum_k q_k z^k at z = e^{i angle}: the cosine sum's a_0/2 is q_0/2
                _write_csv(os.path.join(args.outdir, f"fig2_n{n}.csv"), ["angle", "re", "im"],
                           zip(angles, cos_sum + 0.5 * q[0], sin_sum))
    except PostrigError as exc:
        print(f"plotdata: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def cmd_zeros(args) -> int:
    try:
        grid = args.grid if args.grid is not None else max(512, 16 * len(args.coeffs))
        result = certify_mod.bracket_zeros(args.kind, args.coeffs,
                                           args.lo, args.hi, grid)
    except PostrigError as exc:
        print(f"zeros: {exc}", file=sys.stderr)
        return 1
    _write_json(args.output, result.to_dict())
    print(f"{len(result.brackets)} sign-change bracket(s) for {args.kind}")
    for lo, hi, s_lo, s_hi in result.brackets:
        print(f"  [{lo:.9g}, {hi:.9g}]  signs {s_lo:+d} -> {s_hi:+d}")
    return 0


def cmd_criteria(args) -> int:
    try:
        if args.family == "custom" and not args.coeffs:
            raise PostrigError("custom family needs --coeffs")
        if args.family != "custom" and args.n is None:
            raise PostrigError(f"family {args.family} needs --n")
        report = _CHECKS[args.check](_SEQUENCES[args.family](args), args)
    except PostrigError as exc:
        print(f"criteria: {exc}", file=sys.stderr)
        return 1
    _write_json(args.output, {"check": args.check, "family": args.family, **asdict(report)})
    state = "satisfied" if report.satisfied else \
        f"violated at index {report.first_violation_index}"
    print(f"{args.check}: {state} (margin {report.margin:.3e})")
    return 0 if report.satisfied else 2


def _add_family_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--coeffs", type=_number_list(float), default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: each `parse_args` call
    returns a new namespace, and no command changes a default."""
    parser = _Parser(prog="postrig",
                     description="positivity certificates and special constants "
                                 "for trigonometric and orthogonal sums")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a sum positive on an interval")
    p.add_argument("--family", required=True,
                   choices=[*_CERTIFY_SEQUENCES, "raw-sine", "raw-cosine",
                            "shifted-cosine", "shifted-sine", "halfangle-product"])
    _add_family_params(p)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--grid", type=int, default=None,
                   help="at least this many level-0 samples (default: 1024, 16 per unit "
                        "of the top frequency up to 4096, or two per period of it, "
                        "whichever is most)")
    p.add_argument("--depth", type=int, default=certify_mod.CertifyOptions.max_depth)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("constants", help="solve the defining equations")
    p.add_argument("--d", type=_number_list(float), default=[0.0],
                   help="comma-separated b-c offsets for alpha0_prime")
    p.add_argument("--only", default=None,
                   help=f"comma-separated subset: {','.join(_CONSTANTS)}")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("plotdata", help="emit figure CSV data")
    p.add_argument("--figure", choices=list(_FIGURES), required=True)
    p.add_argument("--n", type=_number_list(int), default=[])
    p.add_argument("--alpha", type=float, default=FIG1_PARAMS["alpha"])
    p.add_argument("--beta", type=float, default=FIG1_PARAMS["beta"])
    p.add_argument("--lambda", dest="lam", type=float, default=FIG1_PARAMS["lam"])
    p.add_argument("--mu", type=float, default=FIG1_PARAMS["mu"])
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("zeros", help="bracket the zeros of the p/q polynomials")
    p.add_argument("--kind", choices=["p", "q"], required=True)
    p.add_argument("--coeffs", type=_number_list(float), required=True)
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=2.0 * PI)
    p.add_argument("--grid", type=int, default=None,
                   help="at least this many cells on [lo, hi] (default 512, or 16 per "
                        "coefficient when that is more)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("criteria", help="run the coefficient criteria")
    p.add_argument("--check", choices=list(_CHECKS), required=True)
    p.add_argument("--family", default="custom", choices=list(_SEQUENCES))
    _add_family_params(p)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_criteria)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except OSError as exc:  # an -o file or --outdir that cannot be written
        print(f"{args.command}: I/O error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
