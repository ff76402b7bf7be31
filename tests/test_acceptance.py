"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings on the console.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from postrig import (K_closed, P_closed, abel_resum, alpha0,
                     alpha0_prime, certify_positive, check_belov, ck_sequence,
                     cosine_poly, expansion_fit, h_corr, koumandos_bk,
                     lambda_prime, qk_sequence, ratio_qk_sequence,
                     shifted_poly, sine_poly, halfangle_product_negated_poly)
from postrig.certify import CERTIFIED, REFUTED
from postrig.kernels import pair_sums
from postrig.orthosum import (opuc_coeffs, opuc_cumulative_positive,
                              scan_normalized_gegenbauer)
from postrig.specfun import _weighted_integral
from conftest import alpha_star, ck_values_mp, contour_coeffs, naive_trig_value

PI = math.pi


@contextmanager
def criterion(number, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"[acceptance] criterion {number} ({name}): PASS ({dt:.2f}s)")


def fig1_polys(n):
    seq = qk_sequence(n, 0.2, 0.4, 0.3, 0.7)
    return (sine_poly(seq.values[1:]),
            cosine_poly(seq.values[0], seq.values[1:]))


def test_criterion_1_alpha0():
    with criterion(1, "alpha0 reproduction"):
        t0 = time.perf_counter()
        quad = alpha0("quadrature-root")
        hyp = alpha0("hyp2f3-root")
        elapsed = time.perf_counter() - t0
        assert quad.value == pytest.approx(0.3084437, abs=1e-6)
        assert abs(quad.value - hyp.value) <= 1e-8
        assert quad.residual <= 1e-8
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_alpha0_prime_boundaries():
    with criterion(2, "alpha0_prime boundary cases"):
        t0 = time.perf_counter()
        a0 = alpha0().value
        assert alpha0_prime(0.0).value == pytest.approx(a0, abs=1e-8)
        assert abs(alpha0_prime(1.0 - a0).value) <= 1e-6
        for d in (0.0, 0.1, 0.25, 0.5):
            q = alpha0_prime(d, "quadrature-root")
            h = alpha0_prime(d, "hyp2f3-root")
            assert abs(q.value - h.value) <= 1e-8, f"d={d}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_3_expansion_constants():
    with criterion(3, "expansion constants beta0, beta1"):
        beta0, beta1 = expansion_fit()
        assert beta0.value == pytest.approx(0.4334739, abs=1e-3)
        assert beta1.value == pytest.approx(0.02203153, abs=1e-3)


def test_criterion_4_lambda_prime():
    with criterion(4, "lambda_prime reproduction"):
        c = lambda_prime()
        assert c.value == pytest.approx(0.23061297, abs=1e-6)
        assert c.residual <= 1e-8


def test_criterion_5_figure1_reproduction():
    with criterion(5, "figure-1 certification"):
        t0 = time.perf_counter()
        for n in (20, 30, 40):
            for poly in fig1_polys(n):
                rep = certify_positive(poly, 0.0, PI)
                assert rep.verdict == CERTIFIED, (n, rep.boundary_notes)
                assert rep.lower_bound > 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_6_identity_suite():
    with criterion(6, "identity suite"):
        rng = np.random.default_rng(42)
        # summation-by-parts identity vs plain dot product, 1e-12 relative
        for _ in range(10):
            b = rng.normal(size=100)
            c = rng.normal(size=100)
            dot = math.fsum(x * y for x, y in zip(b, c))
            assert abs(abel_resum(b, c) - dot) <= 1e-12 * np.abs(b * c).sum()
        # closed-form reductions
        for a in np.linspace(0.02, 0.97, 20):
            assert P_closed(float(a), 0.0) == pytest.approx(
                K_closed(float(a)), rel=1e-10, abs=1e-10)
            assert h_corr(float(a), 0.0) == 0.0
        # weighted integral = K + h = P on the sampled grid, 1e-8
        for a in (0.1, 0.3, 0.5):
            for d in (0.0, 0.25, 0.5):
                quad = _weighted_integral(a, d, 1e-13)
                assert quad == pytest.approx(K_closed(a) + h_corr(a, d), abs=1e-8)
                assert quad == pytest.approx(P_closed(a, d), abs=1e-8)
        # direct sums vs naive at n = 1e4, 1e-12 of the coefficient mass
        n = 10_000
        coeffs = rng.uniform(0.0, 1.0, n) / np.arange(1, n + 1)
        mass = coeffs.sum()
        thetas = np.linspace(0.0, 2 * PI, 1002)[1:-1]
        C, S = pair_sums(coeffs, thetas)
        ref_c = np.zeros_like(thetas)
        ref_s = np.zeros_like(thetas)
        for k in range(n):
            ref_c += coeffs[k] * np.cos((k + 1) * thetas)
            ref_s += coeffs[k] * np.sin((k + 1) * thetas)
        assert np.max(np.abs(C - ref_c)) <= 1e-12 * mass
        assert np.max(np.abs(S - ref_s)) <= 1e-12 * mass
        # OPUC factorization: Cauchy product = Miller recurrence for the
        # quadratic form, 1e-10, N = 100
        b_par, omega, N = 0.8, -0.6, 100
        s = b_par + 1.0
        p, q = omega + 1.0, -omega
        c_ref = np.empty(N + 1)
        c_ref[0] = 1.0
        for m in range(1, N + 1):
            acc = p * (m - 1 + s) * c_ref[m - 1]
            if m >= 2:
                acc += q * (m - 2 + 2 * s) * c_ref[m - 2]
            c_ref[m] = acc / m
        got = np.asarray(opuc_coeffs(b_par, omega, N).coeffs)
        assert np.max(np.abs(got - c_ref) / np.maximum(1.0, np.abs(c_ref))) < 1e-10


def _random_qk_params(rng, count):
    out = []
    while len(out) < count:
        alpha, beta = rng.uniform(0.0, 5.0, 2)
        lam, mu = rng.uniform(0.0, 2.0, 2)
        if lam + mu >= 1.0:
            out.append((float(alpha), float(beta), float(lam), float(mu)))
    return out


def test_criterion_7_positivity_suites():
    """Every family inside its hypothesis region must certify.

    The tapered families are tested just above alpha*(d), d = b - c: the alpha
    at which min over T of J(alpha, d, T) = int_0^1 u^-alpha (1-u)^d cos(Tu) du
    reaches 0, solved independently in conftest.alpha_star.  With
    theta = T/(2n) the finite sums follow J, so below alpha*(d) they turn
    negative for large n.  The paper's region alpha >= alpha0'(b-c) only
    forces J(., d, 3pi/2) = 0 and lies below alpha*(d) for 0 < d < 1; its
    counterexample at d = 0.5 is kept as a recorded refutation, re-evaluated
    from coefficients built in mpmath.
    """
    with criterion(7, "positivity suites"):
        rng = np.random.default_rng(20260808)
        refutations_inside = []

        def expect_certified(poly, lo, hi, label):
            rep = certify_positive(poly, lo, hi)
            if rep.verdict == CERTIFIED:
                return
            if rep.verdict == REFUTED:
                theta, value = rep.witness
                check = naive_trig_value(poly, theta)
                if check > -1e-9:
                    raise AssertionError(
                        f"{label}: engine refuted but the witness does not "
                        f"re-verify (engine {value:.3e}, naive {check:.3e})")
                refutations_inside.append((label, f"witness theta={theta:.6f}",
                                           f"value={check:.6f}"))
            else:
                refutations_inside.append((label, rep.verdict,
                                           rep.boundary_notes))

        # power-weight sine and cosine sums: 50 random draws, three sizes
        for alpha, beta, lam, mu in _random_qk_params(rng, 50):
            for n in (5, 20, 100):
                seq = qk_sequence(n, alpha, beta, lam, mu)
                tag = f"{alpha:.3f},{beta:.3f},{lam:.3f},{mu:.3f}"
                expect_certified(sine_poly(seq.values[1:]), 0.0, PI,
                                 f"qk sine n={n} ({tag})")
                expect_certified(cosine_poly(seq.values[0], seq.values[1:]),
                                 0.0, PI, f"qk cosine n={n} ({tag})")

        # growing-numerator ratio sine sums under their parameter constraints
        drawn = 0
        while drawn < 15:
            alpha = float(rng.uniform(0.05, 2.5))
            beta = alpha + float(rng.uniform(0.05, 2.5))
            lam = float(rng.uniform(0.05, 1.5))
            mu = 1.0 + lam + float(rng.uniform(0.0, 1.0))
            if lam * beta - alpha * mu >= 0:
                continue
            drawn += 1
            n = int(rng.integers(3, 101))
            seq = ratio_qk_sequence(n, alpha, beta, lam, mu)
            expect_certified(sine_poly(seq.values), 0.0, PI, f"ratio sine n={n}")

        # tapered families just above the alpha*(b-c) threshold
        for d in (0.0, 0.25, 0.5, 1.0):
            alpha = max(alpha_star(d)[0] + 0.01, 0.02)
            for n in (8, 20, 40):
                seq = ck_sequence(n, alpha, 1.0 + d, 1.0)
                expect_certified(cosine_poly(2 * seq.values[0], seq.values[1:]),
                                 0.0, PI, f"tapered cosine d={d} n={n} a={alpha:.4f}")
                pairs = seq.pair_values()
                expect_certified(cosine_poly(2 * pairs[0], pairs[1:]), 0.0, PI,
                                 f"tapered pair cosine d={d} n={n} a={alpha:.4f}")
                expect_certified(sine_poly(seq.values[1:]), 0.0, PI,
                                 f"tapered odd sine d={d} n={n} a={alpha:.4f}")
            # even sine sums carry their own, stronger threshold
            tau = max(1.5 - (2.0 + d) / 2.0 + 0.01, 0.02)
            for n in (8, 20, 40):
                seq = ck_sequence(n, tau, 1.0 + d, 1.0)
                expect_certified(sine_poly(seq.values[1:-1]), 0.0, PI,
                                 f"tapered even sine d={d} n={n} a={tau:.4f}")

        # monotonicity of the half-angle product, via its negated derivative
        for n in (20, 100):
            expect_certified(halfangle_product_negated_poly(n, 0.2, 0.4, 0.3, 0.7),
                             0.0, PI, f"halfangle product n={n}")

        # weighted-chain-compliant geometric coefficients
        geo = [2.0 * 4.0 ** -k for k in range(1, 13)]
        expect_certified(cosine_poly(2.0, geo), 0.0, PI, "chain geometric cos")
        expect_certified(sine_poly(geo), 0.0, PI, "chain geometric sin")

        # phase-shifted sums built from taper-compliant pair values
        e = ck_sequence(10, 0.35, 2.0, 1.0).pair_values()
        expect_certified(shifted_poly(e, 0.5, "cosine", stride=2), 0.0, PI,
                         "double-stride half-shift cosine")
        for shift in (0.0, 0.125, 0.25):
            expect_certified(shifted_poly(e, shift, "cosine"), 0.0, 2 * PI,
                             f"shifted cosine lam={shift}")
        for shift in (0.25, 0.375, 0.5):
            expect_certified(shifted_poly(e, shift, "sine"), 0.0, 2 * PI,
                             f"shifted sine mu={shift}")

        # recorded refutations outside the hypothesis regions:
        # (a) even sine sums at alpha = 0.45, below the 1/2 threshold
        belov = check_belov(koumandos_bk(500, 0.45))
        assert not belov.satisfied and belov.first_violation_index <= 500
        n_bad = belov.first_violation_index
        bad = koumandos_bk(n_bad, 0.45)
        rep = certify_positive(sine_poly(bad.values[1:]), 0.0, PI)
        assert rep.verdict == REFUTED
        assert rep.witness[1] <= 0
        # (b) normalized Gegenbauer sums below the lambda threshold
        xs = np.cos(np.linspace(1e-4, PI - 1e-4, 4001))
        hit = scan_normalized_gegenbauer(0.15, 400, xs)
        assert hit is not None and hit[2] < 0
        # (c) tapered cosine sums at alpha0'(b-c) + 0.01, below alpha*(b-c):
        # the witness is re-evaluated from ck coefficients built in mpmath
        for d in (0.25, 0.5):
            assert alpha_star(d)[0] > alpha0_prime(d).value, d
        alpha = alpha0_prime(0.5).value + 0.01
        seq = ck_sequence(20, alpha, 1.5, 1.0)
        rep_t = certify_positive(cosine_poly(2 * seq.values[0], seq.values[1:]),
                                 0.0, PI)
        assert rep_t.verdict == REFUTED
        import mpmath as mp
        with mp.workdps(40):
            c = ck_values_mp(20, alpha, 1.5, 1.0)
            theta = mp.mpf(rep_t.witness[0])
            tapered_value = float(mp.fsum(c[k] * mp.cos(k * theta)
                                          for k in range(len(c))))
        assert tapered_value < -0.1, tapered_value
        print(f"[acceptance]   recorded refutations outside: even sine n={n_bad} "
              f"witness={rep.witness[0]:.6f}; gegenbauer lam=0.15 first "
              f"negative at n={hit[0]}, x={hit[1]:.6f}; tapered cosine d=0.5 "
              f"n=20 a={alpha:.4f} witness={rep_t.witness[0]:.6f} "
              f"value={tapered_value:.6f}")

        assert not refutations_inside, (
            "verified counterexamples inside the hypothesis regions (each "
            "witness re-checked with independent fsum arithmetic; the tapered "
            "families are tested at max(alpha*(b-c) + 0.01, 0.02), where "
            "alpha*(d) is the alpha at which the tapered integral "
            "int_0^1 u^-a (1-u)^d cos(Tu) du first stays >= 0 for all T): "
            f"{refutations_inside}")


def test_criterion_8_opuc():
    with criterion(8, "OPUC cumulative positivity"):
        for b in (-0.49, -0.25, 0.0, 1.0, 3.0):
            for omega in (-0.99, -0.5, 0.0, 0.5, 0.99):
                rep = opuc_cumulative_positive(b, omega, 200)
                assert rep.satisfied, (b, omega)
        out = opuc_coeffs(0.5, 0.3, 50)
        fn = lambda z: (1 - 0.3 * z) ** -1.5 * (1 - z) ** -1.5
        oracle = contour_coeffs(fn, 50)
        assert np.max(np.abs(np.asarray(out.coeffs) - oracle)) < 1e-10


def test_criterion_9_determinism():
    with criterion(9, "run-to-run determinism"):
        polys = [p for n in (20, 30, 40) for p in fig1_polys(n)]
        seq = qk_sequence(100, 1.7, 0.3, 0.9, 0.4)  # criterion-7 style draw
        polys.append(sine_poly(seq.values[1:]))
        polys.append(halfangle_product_negated_poly(30, 0.2, 0.4, 0.3, 0.7))
        b = koumandos_bk(600, 0.5).values  # f' sampled at level 0
        polys.append(cosine_poly(2.0 * b[0], b[1:]))

        def certify_all(order):
            # each polynomial follows a different one
            reports = {i: certify_positive(polys[i], 0.0, PI) for i in order}
            return [reports[i] for i in range(len(polys))]

        forward = certify_all(range(len(polys)))
        runs = (forward, certify_all(reversed(range(len(polys)))))
        assert forward[-1].verdict == CERTIFIED
        assert runs[0] == runs[1]
        blobs = {json.dumps([r.to_dict() for r in rs], sort_keys=True) for rs in runs}
        assert len(blobs) == 1
