"""Each check of the benchmark rejects a wrong answer and accepts a right one.

    python3 -m pytest perfbench/test_checks.py -q

The wrong answers are made by hand, so postrig is not needed here.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import refs as mpref  # noqa: E402

PI = math.pi
REFS = {"alpha0": 0.308443779561986, "alpha0_prime": {"0.00": 0.308443779561986,
                                                     "0.10": 0.2648826044715211},
        "beta0": 0.43347724, "beta1": 0.02194867, "lambda_prime": 0.230612971411}

# Young's sum 1 + sum_{k<=6} cos(k theta)/k: positive on [0, pi]
YOUNG = ("raw-cosine", {"coeffs": [2.0] + [1.0 / k for k in range(1, 7)]})


def _true_min(fam, p):
    grid = np.linspace(1e-4, PI - 1e-4, 200001)
    return float(checks.family_grid_values(fam, p, grid).min())


def _certified(lower_bound):
    return {"verdict": "certified-positive", "lower_bound": lower_bound, "witness": None}


def test_lower_bound_above_true_minimum_is_rejected():
    fam, p = YOUNG
    m = _true_min(fam, p)
    assert m > 0
    assert checks.check_report(fam, p, _certified(0.5 * m), "positive", (0.0, PI)) == []
    assert checks.check_report(fam, p, _certified(m * (1 + 1e-3)), "positive", (0.0, PI))


def test_certificate_of_a_sum_that_dips_below_zero_is_rejected():
    fam, p = "raw-sine", {"coeffs": [1.0, 1.0]}  # sin t + sin 2t < 0 near pi
    assert checks.check_report(fam, p, _certified(1e-9), "positive", (0.0, PI))


def test_positive_witness_is_rejected():
    fam, p = "raw-sine", {"coeffs": [1.0, 1.0]}
    bad = {"verdict": "refuted", "lower_bound": None,
           "witness": {"theta": 1.0, "value": -0.1}}   # the sum is +1.75 there
    good = {"verdict": "refuted", "lower_bound": None,
            "witness": {"theta": 3.0, "value": math.sin(3.0) + math.sin(6.0)}}
    assert checks.check_report(fam, p, bad, "refuted", (0.0, PI))
    assert checks.check_report(fam, p, good, "refuted", (0.0, PI)) == []


def test_wrong_verdict_is_rejected():
    fam, p = YOUNG
    refuted = {"verdict": "refuted", "lower_bound": None,
               "witness": {"theta": 3.0, "value": -1.0}}
    assert checks.check_report(fam, p, refuted, "positive", (0.0, PI))


def test_constant_off_by_1e_6_is_rejected():
    assert checks.check_constant("alpha0", REFS["alpha0"] + 1e-6, REFS["alpha0"])
    assert checks.check_constant("alpha0", REFS["alpha0"] + 1e-10, REFS["alpha0"]) == []


def test_find_min_above_a_grid_sample_is_rejected():
    fam, p = YOUNG
    grid = np.linspace(1e-4, PI - 1e-4, 200001)
    vals = checks.family_grid_values(fam, p, grid)
    i = int(np.argmin(vals))
    theta = float(grid[i])
    value = checks.family_value_fsum(fam, p, theta)
    assert checks.check_find_min(fam, p, theta, value, 0.0, PI) == []
    # a point that is not the minimum, reported with its true value
    assert checks.check_find_min(fam, p, 1.0, checks.family_value_fsum(fam, p, 1.0), 0.0, PI)
    # the right point with a wrong value
    assert checks.check_find_min(fam, p, theta, value + 1e-6, 0.0, PI)


def _brackets(kind, a, grid):
    xs = np.linspace(0.0, 2 * PI, grid + 1)
    vals = [checks.zeros_value(kind, a, float(x)) for x in xs]
    return [(float(xs[i]), float(xs[i + 1]), 1 if vals[i] > 0 else -1,
             1 if vals[i + 1] > 0 else -1)
            for i in range(grid) if vals[i] * vals[i + 1] < 0]


def test_missing_bracket_is_rejected():
    a = [3.0, 2.0, 1.5, 1.0]  # p has degree 3: six zeros in (0, 2pi)
    brackets = _brackets("p", a, 16 * 3 * 4 + 1)
    assert len(brackets) == 6
    assert checks.check_zeros("p", a, brackets) == []
    assert checks.check_zeros("p", a, brackets[:2] + brackets[3:])
    q = [3.0, 2.0, 1.5, 1.0]  # q has degree 4: seven zeros in (0, 2pi)
    brackets = _brackets("q", q, 16 * 4 * 4 + 1)
    assert checks.check_zeros("q", q, brackets) == []
    assert checks.check_zeros("q", q, brackets[1:])


def test_bracket_without_sign_change_is_rejected():
    a = [3.0, 2.0, 1.5, 1.0]
    brackets = _brackets("p", a, 16 * 3 * 4 + 1)
    lo, hi, s_lo, s_hi = brackets[0]
    shifted = [(lo - 0.05, hi - 0.05, s_lo, s_hi)] + brackets[1:]
    assert checks.check_zeros("p", a, shifted)


def test_criterion_with_wrong_flag_is_rejected():
    p = {"n": 40, "alpha": 0.45}
    values = checks.koumandos_values(40, 0.45)  # Vietoris fails at index 2 for alpha < 1/2
    slacks = checks.criterion_reference("vietoris", values, "koumandos", p)
    margin = float(min(s for _, s, _ in slacks))
    assert checks.check_criterion("vietoris", "koumandos", p, values, False, 2, margin) == []
    assert checks.check_criterion("vietoris", "koumandos", p, values, True, None, margin)
    assert checks.check_criterion("vietoris", "koumandos", p, values, False, 2, margin + 1e-6)


def test_constants_file_with_a_wrong_constant_is_rejected():
    import json
    good = {"alpha0": {"value": REFS["alpha0"], "hyp2f3_value": REFS["alpha0"]},
            "alpha0_prime": [{"d": 0.1, "value": REFS["alpha0_prime"]["0.10"],
                              "hyp2f3_value": REFS["alpha0_prime"]["0.10"]}],
            "beta0": {"value": REFS["beta0"]}, "beta1": {"value": REFS["beta1"]},
            "lambda_prime": {"value": REFS["lambda_prime"]}}
    path = Path(__file__).resolve().parent / "out" / "test-constants.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(good))
    assert checks.check_constants_json(str(path), [0.1], REFS) == []
    good["lambda_prime"]["value"] += 1e-6
    path.write_text(json.dumps(good))
    assert checks.check_constants_json(str(path), [0.1], REFS)


def test_orthogonal_values_off_reference_are_rejected():
    ref = mpref.gegenbauer_fejer(12, 0.3, 0.4)
    assert checks.check_values("fejer", [ref], [ref]) == []
    assert checks.check_values("fejer", [ref * (1 + 1e-6)], [ref])
    assert checks.check_values("fejer", [-1.0], [-1.0])  # positivity is checked too


def test_opuc_sums_off_reference_are_rejected():
    rng = np.random.default_rng(0)
    b, omega, N = 0.3, -0.5, 60
    exact = mpref.opuc_cumulative(b, omega, N, list(range(N + 1)))
    assert checks.check_opuc(b, omega, N, True, None, exact, rng) == []
    wrong = list(exact)
    wrong[N] *= 1 + 1e-6
    assert checks.check_opuc(b, omega, N, True, None, wrong, rng)
    assert checks.check_opuc(b, omega, N, False, 3, exact, rng)
