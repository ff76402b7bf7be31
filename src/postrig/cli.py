"""Command-line front end.

Subcommands: certify | constants | plotdata | zeros | criteria.
Exit codes are the machine contract: 0 success/certified, 1 usage error,
2 refuted/violated, 3 inconclusive, 4 solver error, 5 I/O error.  Standard
output stays human-readable; --output / --outdir write the JSON and CSV data.
POSTRIG_THREADS overrides --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import certify as certify_mod
from . import seqkit, specfun, trigeval
from .errors import PostrigError

PI = math.pi

FIG1_PARAMS = {"alpha": 0.2, "beta": 0.4, "lam": 0.3, "mu": 0.7}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _threads(args) -> int:
    env = os.environ.get("POSTRIG_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"warning: ignoring bad POSTRIG_THREADS={env!r}", file=sys.stderr)
    return max(1, args.threads)


def _write_json(path: str | None, payload: dict) -> None:
    if path is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
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
        poly = trigeval.shifted_poly(e, args.shift, kind, args.stride)
        return poly, (0.0, 2.0 * PI)
    if args.n is None or args.n < 1:
        raise PostrigError(f"family {fam} needs --n >= 1")
    n = args.n
    if fam in ("qk-sine", "qk-cosine"):
        seq = seqkit.qk_sequence(n, args.alpha, args.beta, args.lam, args.mu)
        if fam == "qk-sine":
            return trigeval.sine_poly(seq.values[1:]), (0.0, PI)
        return trigeval.cosine_poly(seq.values[0], seq.values[1:]), (0.0, PI)
    if fam == "ratio-sine":
        seq = seqkit.ratio_qk_sequence(n, args.alpha, args.beta, args.lam, args.mu)
        return trigeval.sine_poly(seq.values), (0.0, PI)
    if fam in ("koumandos-cosine", "koumandos-sine"):
        seq = seqkit.koumandos_bk(n, args.alpha)
        if fam == "koumandos-cosine":
            return trigeval.cosine_poly(2.0 * seq.values[0], seq.values[1:]), (0.0, PI)
        return trigeval.sine_poly(seq.values[1:]), (0.0, PI)
    if fam in ("ck-cosine", "ck-sine"):
        seq = seqkit.ck_sequence(n, args.alpha, args.b, args.c)
        if fam == "ck-cosine":
            return trigeval.cosine_poly(2.0 * seq.values[0], seq.values[1:]), (0.0, PI)
        return trigeval.sine_poly(seq.values[1:]), (0.0, PI)
    if fam == "halfangle-product":
        poly = trigeval.halfangle_product_negated_poly(n, args.alpha, args.beta,
                                               args.lam, args.mu)
        return poly, (0.0, PI)
    raise PostrigError(f"unknown family {fam!r}")


def cmd_certify(args) -> int:
    try:
        poly, default_iv = _family_poly(args)
    except PostrigError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 1
    lo = args.lo if args.lo is not None else default_iv[0]
    hi = args.hi if args.hi is not None else default_iv[1]
    try:
        opts = certify_mod.CertifyOptions(grid0=args.grid, max_depth=args.depth,
                                          eps=args.eps, workers=_threads(args))
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
            "shift", "stride", "grid", "depth", "eps")
    cfg = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    cfg["coeffs"] = args.coeffs if args.coeffs else None
    cfg["lo"], cfg["hi"] = lo, hi
    cfg["threads"] = _threads(args)
    return cfg


def _constant_dict(c: specfun.SpecialConstant) -> dict:
    return {"name": c.name, "value": c.value, "route": c.route,
            "residual": c.residual, "tol": c.tol}


def cmd_constants(args) -> int:
    only = set(args.only.split(",")) if args.only else None
    wanted = lambda name: only is None or name in only
    payload: dict = {}
    try:
        if wanted("alpha0"):
            quad = specfun.alpha0("quadrature-root")
            hyp = specfun.alpha0("hyp2f3-root")
            payload["alpha0"] = _constant_dict(quad)
            payload["alpha0"]["hyp2f3_value"] = hyp.value
            payload["alpha0"]["route_difference"] = abs(quad.value - hyp.value)
            print(f"alpha0         = {quad.value:.9f}  (routes differ by "
                  f"{payload['alpha0']['route_difference']:.2e})")
        if wanted("alpha0_prime"):
            payload["alpha0_prime"] = []
            for d in args.d:
                # one solve gives both routes' roots
                quad, hyp_value = specfun._solve_alpha0_prime(d, "quadrature-root")
                entry = _constant_dict(quad)
                entry["d"] = d
                entry["hyp2f3_value"] = hyp_value
                entry["route_difference"] = abs(quad.value - hyp_value)
                payload["alpha0_prime"].append(entry)
                print(f"alpha0_prime({d:g}) = {quad.value:.9f}")
        if wanted("beta0") or wanted("beta1"):
            beta0, beta1 = specfun.expansion_fit()
            payload["beta0"] = _constant_dict(beta0)
            payload["beta1"] = _constant_dict(beta1)
            print(f"beta0          = {beta0.value:.7f}")
            print(f"beta1          = {beta1.value:.8f}")
        if wanted("lambda_prime"):
            lp = specfun.lambda_prime()
            payload["lambda_prime"] = _constant_dict(lp)
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
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        print(f"plotdata: cannot create {args.outdir}: {exc}", file=sys.stderr)
        return 5
    pts = args.points
    try:
        if args.figure == "fig1":
            thetas = np.linspace(0.0, PI, pts + 2)[1:-1]
            for n in args.n:
                seq = seqkit.qk_sequence(n, args.alpha, args.beta, args.lam, args.mu)
                cos_poly = trigeval.cosine_poly(seq.values[0], seq.values[1:])
                sin_poly = trigeval.sine_poly(seq.values[1:])
                for tag, poly in (("cos", cos_poly), ("sin", sin_poly)):
                    path = os.path.join(args.outdir, f"fig1_{tag}_n{n}.csv")
                    _write_csv(path, ["theta", "value"],
                               zip(thetas, poly.values(thetas)))
        else:
            angles = np.linspace(0.0, 2.0 * PI, pts, endpoint=False)
            for n in args.n:
                seq = seqkit.qk_sequence(n, args.alpha, args.beta, args.lam, args.mu)
                z = np.exp(1j * angles)
                total = np.zeros_like(z)
                for q in reversed(seq.values):  # Horner on |z| = 1
                    total = total * z + q
                path = os.path.join(args.outdir, f"fig2_n{n}.csv")
                _write_csv(path, ["angle", "re", "im"],
                           zip(angles, total.real, total.imag))
    except OSError as exc:
        print(f"plotdata: I/O error: {exc}", file=sys.stderr)
        return 5
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


def _criteria_sequence(args) -> seqkit.CoefficientSequence:
    fam = args.family
    if fam == "custom":
        if not args.coeffs:
            raise PostrigError("custom family needs --coeffs")
        return seqkit.CoefficientSequence(tuple(args.coeffs), "custom")
    if args.n is None:
        raise PostrigError(f"family {fam} needs --n")
    if fam == "vietoris":
        return seqkit.vietoris_gamma(args.n)
    if fam == "qk":
        return seqkit.qk_sequence(args.n, args.alpha, args.beta, args.lam, args.mu)
    if fam == "ratio-qk":
        return seqkit.ratio_qk_sequence(args.n, args.alpha, args.beta,
                                        args.lam, args.mu)
    if fam == "koumandos":
        return seqkit.koumandos_bk(args.n, args.alpha)
    if fam == "ck":
        return seqkit.ck_sequence(args.n, args.alpha, args.b, args.c)
    raise PostrigError(f"unknown family {fam!r}")


def cmd_criteria(args) -> int:
    try:
        seq = _criteria_sequence(args)
        if args.check == "vietoris":
            report = seqkit.check_vietoris(seq)
        elif args.check == "belov":
            report = seqkit.check_belov(seq)
        elif args.check == "chain":
            report = seqkit.check_chain_condition(seq, args.alpha, args.beta,
                                                  args.lam, args.mu)
        else:
            report = seqkit.check_taper_ratio_condition(seq, args.b, args.c, args.alpha)
    except PostrigError as exc:
        print(f"criteria: {exc}", file=sys.stderr)
        return 1
    payload = {
        "check": args.check,
        "family": args.family,
        "satisfied": report.satisfied,
        "first_violation_index": report.first_violation_index,
        "margin": report.margin,
        "partial_sums": None if report.partial_sums is None
                        else list(report.partial_sums),
    }
    _write_json(args.output, payload)
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
    p.add_argument("--coeffs", type=_float_list, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="postrig",
                     description="positivity certificates and special constants "
                                 "for trigonometric and orthogonal sums")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a sum positive on an interval")
    p.add_argument("--family", required=True,
                   choices=["qk-sine", "qk-cosine", "ratio-sine",
                            "koumandos-cosine", "koumandos-sine",
                            "ck-cosine", "ck-sine", "raw-sine", "raw-cosine",
                            "shifted-cosine", "shifted-sine", "halfangle-product"])
    _add_family_params(p)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("constants", help="solve the defining equations")
    p.add_argument("--d", type=_float_list, default=[0.0],
                   help="comma-separated b-c offsets for alpha0_prime")
    p.add_argument("--only", default=None,
                   help="comma-separated subset: alpha0,alpha0_prime,beta0,"
                        "beta1,lambda_prime")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("plotdata", help="emit figure CSV data")
    p.add_argument("--figure", choices=["fig1", "fig2"], required=True)
    p.add_argument("--n", type=_int_list, default=[])
    p.add_argument("--alpha", type=float, default=FIG1_PARAMS["alpha"])
    p.add_argument("--beta", type=float, default=FIG1_PARAMS["beta"])
    p.add_argument("--lambda", dest="lam", type=float, default=FIG1_PARAMS["lam"])
    p.add_argument("--mu", type=float, default=FIG1_PARAMS["mu"])
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("zeros", help="bracket the zeros of the p/q polynomials")
    p.add_argument("--kind", choices=["p", "q"], required=True)
    p.add_argument("--coeffs", type=_float_list, required=True)
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=2.0 * PI)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("criteria", help="run the coefficient criteria")
    p.add_argument("--check", choices=["vietoris", "belov", "chain", "taper"],
                   required=True)
    p.add_argument("--family", default="custom",
                   choices=["vietoris", "qk", "ratio-qk", "koumandos", "ck",
                            "custom"])
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
