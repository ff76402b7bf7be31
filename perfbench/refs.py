#!/usr/bin/env python3
"""Reference values for the postrig benchmark, computed in mpmath alone.

Nothing here imports postrig.  The constants are solved from their defining
integrals with mpmath's own quadrature, Bessel functions and root finder:

    alpha0         root of int_0^{3pi/2} t^-a cos t dt = 0
    alpha0_prime   root of int_0^{3pi/2} t^-a cos t (1 - 2t/(3pi))^d dt = 0
    beta0, beta1   cubic least-squares fit of alpha0_prime(d), d = 0, .02, .., .2
    lambda_prime   a' + 1/2, int_0^{j_{a',2}} t^-a' J_a'(t) dt = 0
    alpha_star(d)  the alpha at which min over T of
                   J(a, d, T) = int_0^1 u^-a (1-u)^d cos(T u) du first reaches 0

Regenerate the stored table with

    python3 perfbench/refs.py            # writes perfbench/refs.json

The OPUC cumulative sums and the Gegenbauer, Jacobi and Chebyshev sums depend
on the seeded inputs, so the benchmark calls the functions below for them at
check time, after the timed region.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

#: d grid on which alpha0_prime is solved (the special workload draws from it)
PRIME_D_GRID = [round(0.02 * i, 2) for i in range(31)]
#: the d grid of the beta0/beta1 fit (postrig's expansion_fit default)
FIT_D_GRID = [round(0.02 * i, 2) for i in range(11)]
#: b - c values of the tapered families (c = 1, b = 1 + d)
TAPER_D_GRID = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]

DPS = 30


def lsi_integral(a, d=0):
    """int_0^{3pi/2} t^-a cos t (1 - 2t/(3pi))^d dt by tanh-sinh quadrature,
    taken over u = t / (3pi/2) in (0, 1) so the taper base stays positive."""
    X = 3 * mp.pi / 2
    return X ** (1 - a) * mp.quad(lambda u: u ** (-a) * mp.cos(X * u) * (1 - u) ** d,
                                  [0, 1])


def solve_alpha0_prime(d, guess):
    return mp.findroot(lambda a: lsi_integral(a, d), guess)


def taper_integral(a, d, T, derivative=False):
    """J(a, d, T) or dJ/dT, from the 2F3 form of the tapered integral."""
    ap = [(1 - a) / 2, 1 - a / 2]
    bp = [mp.mpf(1) / 2, (2 - a + d) / 2, (3 - a + d) / 2]
    z = -T * T / 4
    scale = mp.beta(1 - a, d + 1)
    if not derivative:
        return scale * mp.hyp2f3(*ap, *bp, z)
    shift = ap[0] * ap[1] / (bp[0] * bp[1] * bp[2])
    return scale * shift * (-T / 2) * mp.hyp2f3(*(x + 1 for x in ap),
                                                *(x + 1 for x in bp), z)


def solve_alpha_star(d):
    """(alpha*, T*) solving J = dJ/dT = 0, checked as the global minimum in T."""
    d = mp.mpf(d)
    if d == 1:
        # J(0, 1, T) = (1 - cos T)/T^2 >= 0, touching 0 at T = 2pi
        return mp.mpf(0), 2 * mp.pi
    guess = (mp.mpf("0.3084") - mp.mpf("0.36") * d, 3 * mp.pi / 2 + mp.mpf("1.5") * d)
    a, T = mp.findroot(lambda a, T: (taper_integral(a, d, T),
                                     taper_integral(a, d, T, True)), guess)
    for Tg in mp.linspace(mp.pi / 2, 4 * mp.pi, 141):
        if taper_integral(a, d, Tg) < -1e-12:
            raise ArithmeticError(f"alpha*({d}): T = {Tg} lies below the solved minimum")
    return a, T


def bessel_second_zero(a):
    """Second positive zero of J_a, bracketed on a 0.05 grid."""
    f = lambda t: mp.besselj(a, t)
    found, t_prev, f_prev = 0, mp.mpf("0.05"), f(mp.mpf("0.05"))
    k = 2
    while True:
        t = mp.mpf(k) / 20
        ft = f(t)
        if f_prev * ft < 0:
            found += 1
            if found == 2:
                return mp.findroot(f, (t_prev, t), solver="anderson")
        t_prev, f_prev, k = t, ft, k + 1


def solve_lambda_prime():
    def G(a):
        return mp.quad(lambda t: t ** (-a) * mp.besselj(a, t),
                       [0, bessel_second_zero(a)])
    a = mp.findroot(G, (mp.mpf("-0.35"), mp.mpf("-0.15")), solver="anderson")
    return a + mp.mpf(1) / 2


def cubic_fit(ds, roots):
    """beta0, beta1 from the least-squares cubic through (d, alpha0'(d))."""
    import numpy as np
    ds = np.asarray(ds, dtype=float)
    scale = float(ds.max())
    design = np.vander(ds / scale, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(design, np.asarray(roots, dtype=float), rcond=None)
    coef = coef / scale ** np.arange(4)
    return float(-coef[1]), float(-coef[2])


def compute_constants() -> dict:
    with mp.workdps(DPS):
        a0 = solve_alpha0_prime(0, mp.mpf("0.3084"))
        primes = {}
        guess = a0
        for d in PRIME_D_GRID:
            root = a0 if d == 0 else solve_alpha0_prime(mp.mpf(d), guess)
            primes[f"{d:.2f}"] = float(root)
            guess = root
        beta0, beta1 = cubic_fit(FIT_D_GRID, [primes[f"{d:.2f}"] for d in FIT_D_GRID])
        stars = {}
        for d in TAPER_D_GRID:
            a, T = solve_alpha_star(d)
            stars[f"{d:.3f}"] = {"alpha": float(a), "T": float(T)}
        return {
            "alpha0": float(a0),
            "alpha0_prime": primes,
            "beta0": beta0,
            "beta1": beta1,
            "lambda_prime": float(solve_lambda_prime()),
            "alpha_star": stars,
        }


# ---------------------------------------------------------------------------
# seeded references, computed at check time

def opuc_cumulative(b, omega, N, indices):
    """sum_{k<=n} F_k for n in indices, F_k the z^k coefficient of
    (1 - omega z)^-(b+1) (1 - z)^-(b+1); the cumulative sums are the
    coefficients of (1 - omega z)^-(b+1) (1 - z)^-(b+2)."""
    with mp.workdps(DPS):
        b, omega = mp.mpf(b), mp.mpf(omega)
        A = [mp.mpf(1)]
        B = [mp.mpf(1)]
        for m in range(N):
            A.append(A[-1] * (b + 1 + m) / (m + 1) * omega)
            B.append(B[-1] * (b + 2 + m) / (m + 1))
        return [float(mp.fsum(A[j] * B[n - j] for j in range(n + 1))) for n in indices]


def gegenbauer_normalized(n, lam, x):
    """sum_{k=0}^n C_k^lam(x) / C_k^lam(1), via the terminating 2F1 form."""
    with mp.workdps(DPS):
        lam, x = mp.mpf(lam), mp.mpf(x)
        return float(mp.fsum(mp.hyp2f1(-k, k + 2 * lam, lam + mp.mpf(1) / 2, (1 - x) / 2)
                             for k in range(n + 1)))


def gegenbauer_fejer(n, lam, x):
    """sum_{k=0}^n C_k^lam(x)."""
    with mp.workdps(DPS):
        return float(mp.fsum(mp.gegenbauer(k, lam, x) for k in range(n + 1)))


def jacobi_sum(n, lam_p, delta, a, b, x, angle):
    """|sum_k ((1+lam_p)_{n-k}/(1+delta)_{n-k}) ((1+lam_p)_k/(1+delta)_k)
    (P_k^(a,b)(x)/P_k^(a,b)(1)) e^{i k angle}|."""
    with mp.workdps(DPS):
        w = [mp.rf(1 + lam_p, k) / mp.rf(1 + delta, k) for k in range(n + 1)]
        terms = [w[n - k] * w[k] * mp.jacobi(k, a, b, x) / mp.jacobi(k, a, b, 1)
                 * mp.expj(k * angle) for k in range(n + 1)]
        return float(abs(mp.fsum(terms)))


def main() -> int:
    table = compute_constants()
    REFS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFS_PATH.name}: alpha0 = {table['alpha0']:.12f}, "
          f"lambda_prime = {table['lambda_prime']:.12f}, "
          f"beta0 = {table['beta0']:.9f}, beta1 = {table['beta1']:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
