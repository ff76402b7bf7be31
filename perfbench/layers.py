"""Per-layer tracing for the postrig benchmark.

The traced run replaces module attributes of postrig with timing wrappers,
so spans are recorded at the boundaries between the layers: the Clenshaw
kernel (`trigeval.pair_sums`), `TrigPolynomial.values` and
`derivative_value`, the certify entry points, the seqkit sequences and
criteria, the special-function solvers, the orthogonal-polynomial sums and
`cli.main`.  Spans are aggregated in memory as they close: per name, the
call count, the inclusive time of the outermost span of its group and the
self time (duration minus the time of child spans).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from postrig import certify, cli, orthosum, seqkit, specfun, trigeval

SEQKIT_FUNCS = ("vietoris_gamma", "qk_sequence", "ratio_qk_sequence", "koumandos_bk",
                "ck_sequence", "check_vietoris", "check_belov", "check_chain_condition",
                "check_taper_ratio_condition")
ORTHOSUM_FUNCS = ("opuc_cumulative_positive", "scan_normalized_gegenbauer",
                  "gegenbauer_normalized_sum", "gegenbauer_fejer_sum", "jacobi_sum_check",
                  "chebyshev_qk_sum")
SPECFUN_FUNCS = {"hyp2f3": "hyp2f3", "quad_singular": "quad", "brent_root": "brent",
                 "bessel_j": "bessel", "bessel_zero": "bessel", "alpha0": "alpha0",
                 "alpha0_prime": "alpha0_prime", "expansion_fit": "expansion_fit",
                 "lambda_prime": "lambda_prime"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)     # seconds, outermost span of each group
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, group: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            outer = tracer._depth[group] == 0
            tracer._depth[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._depth[group] -= 1
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.calls[name] += 1
                tracer.self_time[name] += dt - frame[0]
                if outer:
                    tracer.incl[group] += dt
            if after is not None:
                after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, group: str, after=None):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, group, fn, after))

    def install(self) -> None:
        fn = trigeval.pair_sums
        point = self.wrap("kernels.point", "kernels.point", fn)
        bulk = self.wrap("kernels.bulk", "kernels.bulk", fn)

        def kernel(coeffs, x):
            m = np.size(x)
            if m == 1:
                return point(coeffs, x)
            self.counts["kernels.coeff_points"] += len(coeffs) * m
            return bulk(coeffs, x)
        self._saved.append((trigeval, "pair_sums", fn))
        trigeval.pair_sums = kernel

        def after_certify(report):
            self.counts["certify.certs"] += 1
            self.counts["certify.samples"] += report.grid_points
            self.counts["certify.depth_sum"] += report.refinement_depth

        self._patch(trigeval.TrigPolynomial, "values", "trigeval.values", "trigeval.values")
        self._patch(trigeval.TrigPolynomial, "derivative_value", "trigeval.deriv",
                    "trigeval.deriv")
        self._patch(certify, "certify_positive", "certify.certify_positive", "certify",
                    after_certify)
        self._patch(certify, "find_min", "certify.find_min", "certify.find_min")
        self._patch(certify, "bracket_zeros", "certify.bracket_zeros", "certify.zeros")
        for attr in SEQKIT_FUNCS:
            self._patch(seqkit, attr, f"seqkit.{attr}", "seqkit")
        for attr in ORTHOSUM_FUNCS:
            group = "orthosum.opuc" if attr == "opuc_cumulative_positive" else "orthosum"
            self._patch(orthosum, attr, f"orthosum.{attr}", group)
        for attr, group in SPECFUN_FUNCS.items():
            self._patch(specfun, attr, f"specfun.{attr}", f"specfun.{group}")
        self._patch(cli, "main", "cli.main", "cli")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def per_layer(self, rounds: int, scale: float) -> dict[str, float]:
        """Per-round figures; `scale` turns seconds into reported ms."""
        c, s, i = self.calls, self.self_time, self.incl
        ms = lambda sec: sec * scale / rounds
        seqkit_calls = sum(c[f"seqkit.{a}"] for a in SEQKIT_FUNCS)
        orthosum_calls = sum(c[f"orthosum.{a}"] for a in ORTHOSUM_FUNCS)
        certify_names = ("certify.certify_positive", "certify.find_min", "certify.bracket_zeros")
        bulk_ms = ms(i["kernels.bulk"])
        coeff_points = self.counts["kernels.coeff_points"] / rounds
        return {
            "kernels.calls": c["kernels.bulk"] / rounds,
            "kernels.ms": bulk_ms,
            "kernels.coeff_points": coeff_points,
            "kernels.ns_per_coeff_point": bulk_ms * 1e6 / coeff_points if coeff_points else 0.0,
            "kernels.point_calls": c["kernels.point"] / rounds,
            "kernels.point_ms": ms(i["kernels.point"]),
            "certify.find_min_ms": ms(i["certify.find_min"]),
            "certify.certs": self.counts["certify.certs"] / rounds,
            "certify.samples": self.counts["certify.samples"] / rounds,
            "certify.depth_sum": self.counts["certify.depth_sum"] / rounds,
            "certify.self_ms": ms(sum(s[n] for n in certify_names)),
            "certify.zeros_ms": ms(i["certify.zeros"]),
            "trigeval.values_calls": c["trigeval.values"] / rounds,
            "trigeval.values_self_ms": ms(s["trigeval.values"]),
            "trigeval.deriv_calls": c["trigeval.deriv"] / rounds,
            "trigeval.deriv_ms": ms(i["trigeval.deriv"]),
            "seqkit.calls": seqkit_calls / rounds,
            "seqkit.ms": ms(i["seqkit"]),
            "cli.calls": c["cli.main"] / rounds,
            "cli.self_ms": ms(s["cli.main"]),
            "specfun.hyp2f3_calls": c["specfun.hyp2f3"] / rounds,
            "specfun.hyp2f3_ms": ms(i["specfun.hyp2f3"]),
            "specfun.quad_calls": c["specfun.quad_singular"] / rounds,
            "specfun.quad_ms": ms(i["specfun.quad"]),
            "specfun.brent_self_ms": ms(s["specfun.brent_root"]),
            "specfun.bessel_ms": ms(i["specfun.bessel"]),
            "specfun.alpha0_ms": ms(i["specfun.alpha0"]),
            "specfun.alpha0_prime_ms": ms(i["specfun.alpha0_prime"]),
            "specfun.expansion_fit_ms": ms(i["specfun.expansion_fit"]),
            "specfun.lambda_prime_ms": ms(i["specfun.lambda_prime"]),
            "orthosum.calls": orthosum_calls / rounds,
            "orthosum.ms": ms(i["orthosum"] + i["orthosum.opuc"]),
            "orthosum.opuc_ms": ms(i["orthosum.opuc"]),
        }

    def spans(self) -> dict:
        """Raw per-name table, for the trace file."""
        return {name: {"calls": self.calls[name], "self_s": self.self_time[name]}
                for name in sorted(self.calls)}
