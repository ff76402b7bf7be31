"""seqkit: coefficient families and criteria."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from postrig import (CoefficientSequence, check_belov, check_chain_condition,
                     check_taper_ratio_condition, check_vietoris, ck_sequence,
                     koumandos_bk, qk_sequence, ratio_qk_sequence,
                     vietoris_gamma)
from postrig.errors import ParameterDomainError, SizeError
from postrig.seqkit import A0_FAMILIES, CRITERION_TOL, _rising_ratios
from conftest import poch_fraction


class TestVietorisGamma:
    def test_n1(self):
        assert vietoris_gamma(1).values == (1.0, 1.0)

    def test_n3(self):
        assert vietoris_gamma(3).values == (1.0, 1.0, 0.5, 0.5)

    def test_n5(self):
        assert vietoris_gamma(5).values == (1.0, 1.0, 0.5, 0.5, 0.375, 0.375)

    def test_pairing_bit_exact(self):
        vals = vietoris_gamma(401).values
        for k in range(201):
            assert vals[2 * k] == vals[2 * k + 1]

    def test_matches_exact_pochhammer(self):
        vals = vietoris_gamma(60).values
        for k in range(30):
            exact = poch_fraction(Fraction(1, 2), k) / math.factorial(k)
            assert vals[2 * k] == pytest.approx(float(exact), rel=1e-14)

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterDomainError):
            vietoris_gamma(-1)

    def test_is_koumandos_at_one_half(self):
        # one recurrence for both families: equal bit for bit, labels kept
        for n in range(2001):
            assert vietoris_gamma(n).values == koumandos_bk(n, 0.5).values
        assert vietoris_gamma(4).family == "vietoris"
        assert koumandos_bk(4, 0.5).family == "koumandos"


class TestQkSequence:
    def test_harmonic_case(self):
        assert qk_sequence(2, 0, 0, 1, 0).values == (2.0, 1.0, 0.5)

    def test_zero_exponents(self):
        assert qk_sequence(3, 0.7, 1.3, 0, 0).values == (2.0, 1.0, 1.0, 1.0)

    def test_q2_log_identity(self):
        seq = qk_sequence(4, 0.2, 0.4, 0.3, 0.7)
        q2 = seq.values[2]
        assert q2 == pytest.approx(2.2 ** -0.3 * 2.4 ** -0.7, rel=0)
        # independent route through logarithms
        assert q2 == pytest.approx(
            math.exp(-0.3 * math.log(2.2) - 0.7 * math.log(2.4)), rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_same_bits_as_the_explicit_loop(self, n, alpha, beta, lam, mu):
        # q_k is qk_weight at the negated exponents: the loop it replaced
        want = [2.0, 1.0]
        for k in range(2, n + 1):
            want.append((k + alpha) ** (-lam) * (k + beta) ** (-mu))
        got = qk_sequence(n, alpha, beta, lam, mu).values
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_preconditions(self):
        with pytest.raises(ParameterDomainError):
            qk_sequence(0, 0, 0, 1, 1)
        with pytest.raises(ParameterDomainError):
            qk_sequence(3, -0.1, 0, 1, 1)


class TestRatioQk:
    def test_values(self):
        seq = ratio_qk_sequence(2, 1, 2, 0.5, 1.5)
        assert seq.values == (1.0, 3 ** 0.5 / 4 ** 1.5)

    def test_strictly_decreasing(self):
        seq = ratio_qk_sequence(3, 1, 2, 0.5, 1.5)
        assert seq.values[2] == pytest.approx(4 ** 0.5 / 5 ** 1.5, rel=0)
        assert seq.values[0] > seq.values[1] > seq.values[2]
        # logarithmic-derivative sign test: (lam-mu)k + lam*beta - mu*alpha < 0
        lam, mu, alpha, beta = 0.5, 1.5, 1.0, 2.0
        for k in range(2, 12):
            assert (lam - mu) * k + lam * beta - mu * alpha < 0

    def test_alpha_ge_beta_rejected(self):
        with pytest.raises(ParameterDomainError, match="alpha < beta"):
            ratio_qk_sequence(3, 2, 1, 0.5, 1.5)

    def test_mu_too_small_rejected(self):
        with pytest.raises(ParameterDomainError, match="mu >= 1"):
            ratio_qk_sequence(3, 1, 2, 0.5, 1.2)


class TestKoumandos:
    def test_half_is_vietoris(self):
        assert koumandos_bk(3, 0.5).values == (1.0, 1.0, 0.5, 0.5)

    def test_alpha_near_one(self):
        vals = koumandos_bk(3, 1 - 1e-12).values
        assert vals[2] == pytest.approx(1e-12, rel=1e-3)
        assert vals[2] == vals[3]

    def test_pochhammer_product(self):
        vals = koumandos_bk(5, 0.3084437).values
        want = (1 - 0.3084437) * (2 - 0.3084437) / 2.0
        assert vals[4] == pytest.approx(want, rel=1e-15)
        assert vals[5] == vals[4]

    def test_gamma_ratio_cross_check(self):
        # (1-a)_k / k! = Gamma(1-a+k) / (Gamma(1-a) k!)
        from postrig import gamma_fn
        a = 0.3084437
        vals = koumandos_bk(21, a).values
        for k in (1, 4, 9, 10):
            want = gamma_fn(1 - a + k) / (gamma_fn(1 - a) * math.factorial(k))
            assert vals[2 * k] == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ParameterDomainError):
                koumandos_bk(5, bad)


class TestCkSequence:
    def test_reduces_to_koumandos_at_b_equals_c_one(self):
        for n, alpha in ((0, 0.42), (3, 0.35), (10, 0.75)):
            ck = ck_sequence(n, alpha, 1.0, 1.0).values
            bk = koumandos_bk(2 * n + 1, alpha).values
            assert len(ck) == 2 * n + 2
            assert ck == bk

    def test_hand_computed_example(self):
        assert ck_sequence(1, 0.5, 2.0, 1.0).values == (1.0, 1.0, 0.25, 0.25)

    def test_b_equals_c_two(self):
        # B_k = 1/2 for k >= 1, B_0 = 1: all pair ratios 1 except k = n doubling
        seq = ck_sequence(3, 0.3, 2.0, 2.0)
        pairs = seq.pair_values()
        poch = [float(poch_fraction(Fraction(7, 10), k)) / math.factorial(k)
                for k in range(4)]
        for k in range(3):
            assert pairs[k] == pytest.approx(poch[k], rel=1e-14)
        assert pairs[3] == pytest.approx(2.0 * poch[3], rel=1e-14)

    def test_odd_even_strict_decrease_for_b_gt_c(self):
        seq = ck_sequence(12, 0.4, 2.5, 1.0)
        v = seq.values
        for k in range(1, 13):
            assert v[2 * k - 1] > v[2 * k]

    def test_pairing_validated(self):
        with pytest.raises(ParameterDomainError):
            CoefficientSequence((1.0, 0.9, 0.5, 0.5), "ck")

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            ck_sequence(3, 0.5, 1.0, 2.0)  # b < c
        with pytest.raises(ParameterDomainError):
            ck_sequence(3, 0.5, 2.0, 0.0)  # c <= 0


class TestPochhammer:
    """`_rising_ratios`, the one Pochhammer product: (x)_k / k! is its last
    entry at a = x - 1."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 25), st.floats(0.05, 8.0))
    def test_forward_product_vs_gamma_ratio(self, k, x):
        from postrig import gamma_fn
        want = gamma_fn(x + k) / (gamma_fn(x) * math.factorial(k))
        assert _rising_ratios(k, x - 1.0)[-1] == pytest.approx(want, rel=1e-11)

    def test_non_positive_base(self):
        # (0)_3 / 3! and (-2)_4 / 4! = -2 * -1 * 0 * 1 / 24
        assert _rising_ratios(3, -1.0)[-1] == 0.0
        assert _rising_ratios(4, -3.0)[-1] == 0.0

    @pytest.mark.parametrize("a, c, z", [(-0.5, 0.0, 1.0), (-0.45, 0.0, 1.0),
                                         (0.6, 0.0, 1.0), (0.3, 1.0, 1.0),
                                         (1.5, -0.25, -0.6), (-0.9, 0.5, 0.9)])
    def test_rising_ratios_match_exact_pochhammer(self, a, c, z):
        got = _rising_ratios(200, a, c, z)
        assert len(got) == 201
        fa, fc, fz = Fraction(a), Fraction(c), Fraction(z)
        for k in range(201):
            want = poch_fraction(1 + fa, k) / poch_fraction(1 + fc, k) * fz ** k
            assert got[k] == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.45, 0.3084437795619, 0.05, 0.95])
    def test_rising_ratios_keep_the_paired_recurrence_bitwise(self, alpha):
        # the loop the paired families used before the shared recurrence
        old, r = [], 1.0
        for k in range(1, 402):
            old.append(r)
            r = r * (k - alpha) / k
        assert _rising_ratios(400, -alpha) == old


class TestCheckVietoris:
    def test_gamma_saturates_margin_zero(self):
        rep = check_vietoris(vietoris_gamma(2000))
        assert rep.satisfied
        assert rep.margin == 0.0

    def test_simple_violation(self):
        rep = check_vietoris(CoefficientSequence((1.0, 1.0, 0.9)))
        assert not rep.satisfied
        assert rep.first_violation_index == 2
        assert rep.margin < 0

    def test_qk_harmonic_tail(self):
        rep = check_vietoris(qk_sequence(50, 0, 0, 1, 0))
        assert rep.satisfied
        assert rep.margin >= -1e-12

    def test_monotonicity_violation(self):
        rep = check_vietoris(CoefficientSequence((1.0, 1.2)))
        assert not rep.satisfied
        assert rep.first_violation_index == 1

    def test_positive_required(self):
        with pytest.raises(ParameterDomainError):
            check_vietoris(CoefficientSequence((1.0, -0.5)))


class TestCheckBelov:
    def test_harmonic_alternation(self):
        seq = CoefficientSequence(tuple(1.0 / k for k in range(1, 9)))
        rep = check_belov(seq)
        assert rep.satisfied
        assert rep.partial_sums[:4] == (1.0, 0.0, 1.0, 0.0)

    def test_flat_pair_violates(self):
        rep = check_belov(CoefficientSequence((1.0, 1.0)))
        assert not rep.satisfied
        assert rep.first_violation_index == 2
        assert rep.partial_sums == (1.0, -1.0)

    def test_ck_family_above_threshold(self):
        # alpha = 0.6 >= 3/2 - (1+b)/(2c) = 0 for b = 2, c = 1
        rep = check_belov(ck_sequence(20, 0.6, 2.0, 1.0))
        assert rep.satisfied

    def test_koumandos_even_sine_threshold(self):
        for alpha in (0.5, 0.6, 0.75, 0.9):
            rep = check_belov(koumandos_bk(2000, alpha))
            assert rep.satisfied, f"alpha={alpha} margin={rep.margin}"

    def test_koumandos_below_half_violates(self):
        rep = check_belov(koumandos_bk(500, 0.45))
        assert not rep.satisfied
        assert rep.first_violation_index == 2  # 1 - 2(1-alpha) = -0.1

    def test_needs_two_coefficients(self):
        with pytest.raises(SizeError):
            check_belov(CoefficientSequence((1.0,)))

    def test_warns_on_non_monotone(self):
        with pytest.warns(UserWarning):
            check_belov(CoefficientSequence((0.5, 1.0, 0.2)))


class TestChainCondition:
    def test_qk_family_saturates(self):
        seq = qk_sequence(30, 0.2, 0.4, 0.3, 0.7)
        rep = check_chain_condition(seq, 0.2, 0.4, 0.3, 0.7)
        assert rep.satisfied
        assert abs(rep.margin) <= 1e-12

    def test_violation_case(self):
        rep = check_chain_condition(CoefficientSequence((2.0, 1.0, 1.0)),
                                    0.0, 0.0, 1.0, 0.0)
        assert not rep.satisfied
        assert rep.first_violation_index == 3  # 3*a_3 > 2*a_2

    def test_geometric_satisfies(self):
        seq = CoefficientSequence(tuple(2.0 * 4.0 ** -k for k in range(12)))
        rep = check_chain_condition(seq, 0.0, 0.0, 0.5, 0.5)
        assert rep.satisfied
        for k in range(1, 12):  # the cited closed-form check
            assert (k + 1) * 4.0 ** -(k + 1) <= k * 4.0 ** -k

    def test_a0_halving_checked_for_family(self):
        seq = qk_sequence(5, 0, 0, 1, 0)
        rep = check_chain_condition(seq, 0, 0, 1, 0)
        assert rep.satisfied  # q1 = q0/2 exactly


class TestCor34Condition:
    def test_ck_family_saturates(self):
        for (n, alpha, b, c) in ((5, 0.35, 2.0, 1.0), (10, 0.62, 1.5, 1.0),
                                 (8, 0.4, 1.0, 1.0)):
            seq = ck_sequence(n, alpha, b, c)
            rep = check_taper_ratio_condition(seq, b, c, alpha)
            assert rep.satisfied, (n, alpha, b, c, rep.margin)
            assert abs(rep.margin) <= 1e-10

    def test_ck_equality_holds_at_large_n(self):
        # the taper terms grow like n^2/4; roundoff in their difference must
        # not read as a violation (ck(176, 0.1, 1.5, 1) gives -1.36e-12)
        for n in range(1, 401, 7):
            for alpha, b in ((0.1, 1.5), (0.35, 2.0)):
                rep = check_taper_ratio_condition(ck_sequence(n, alpha, b, 1.0),
                                                  b, 1.0, alpha)
                assert rep.satisfied, (n, alpha, b, rep.margin)

    def test_genuine_violation_at_large_n(self):
        # a ck sequence checked above its own alpha breaks the condition at
        # k = 1 by a relative 1e-9, far above roundoff
        seq = ck_sequence(300, 0.3, 1.5, 1.0)
        rep = check_taper_ratio_condition(seq, 1.5, 1.0, 0.3 + 1e-9)
        assert not rep.satisfied
        assert rep.first_violation_index == 1
        assert rep.margin < -1e-7

    def test_koumandos_reduction_b_equals_c(self):
        seq = koumandos_bk(21, 0.4)
        rep = check_taper_ratio_condition(seq, 1.0, 1.0, 0.4)
        assert rep.satisfied
        assert abs(rep.margin) <= 1e-12

    def test_flat_pair_violates(self):
        rep = check_taper_ratio_condition(CoefficientSequence((1.0, 1.0)),
                                    1.0, 1.0, 0.5)
        assert not rep.satisfied
        assert rep.first_violation_index == 1
        assert rep.margin == pytest.approx(-0.5, abs=1e-15)

    def test_domain(self):
        seq = CoefficientSequence((1.0, 0.5))
        with pytest.raises(ParameterDomainError):
            check_taper_ratio_condition(seq, 1.0, 2.0, 0.5)  # b < c
        with pytest.raises(ParameterDomainError):
            check_taper_ratio_condition(seq, 1.0, 1.0, 1.5)  # alpha outside (0,1)


# Plain-Python references: one loop per criterion, as each check was written
# before the checks shared one slack reduction.  Each returns
# (first violation index, margin, partial sums).

def _ref_vietoris(seq):
    a = seq.values
    margin = math.inf
    violation = None
    for i in range(1, len(a)):
        slack = a[i - 1] - a[i]
        if i % 2 == 0:
            slack = min(slack, a[i - 1] * (i - 1) / i - a[i])
        margin = min(margin, slack)
        if violation is None and slack < -CRITERION_TOL:
            violation = i
    return violation, margin if math.isfinite(margin) else 0.0, None


def _ref_belov(seq):
    partial = []
    acc = comp = 0.0
    margin = math.inf
    violation = None
    for k, v in seq.sine_view():
        term = k * v if k % 2 else -k * v
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        partial.append(acc)
        if k >= 2:
            margin = min(margin, acc)
            if violation is None and acc < -CRITERION_TOL:
                violation = k
    return violation, margin, tuple(partial)


def _ref_chain(seq, alpha, beta, lam, mu):
    if seq.family in A0_FAMILIES:
        a0, a = seq.values[0], seq.values[1:]
    else:
        a0, a = None, seq.values
    margin = math.inf
    violation = None
    if a0 is not None:
        slack = 0.5 * a0 - a[0]
        margin = min(margin, slack)
        if slack < -CRITERION_TOL:
            violation = 1
    weights = [1.0] + [(k + alpha) ** lam * (k + beta) ** mu
                       for k in range(2, len(a) + 1)]
    for j in range(len(a) - 1):
        slack = weights[j] * a[j] - weights[j + 1] * a[j + 1]
        margin = min(margin, slack)
        if violation is None and slack < -CRITERION_TOL:
            violation = j + 2
    return violation, margin if math.isfinite(margin) else 0.0, None


def _ref_taper(seq, b, c, alpha):
    a = seq.pair_values()
    n = len(a) - 1
    margin = math.inf
    violation = None
    for k in range(1, n + 1):
        lhs = (c + n - k) * (k - alpha) * a[k - 1]
        rhs = (b + n - k) * k * a[k]
        drop, taper = a[k - 1] - a[k], lhs - rhs
        margin = min(margin, drop, taper)
        if violation is None and (drop < -CRITERION_TOL * max(1.0, a[k - 1])
                                  or taper < -CRITERION_TOL * max(1.0, lhs, rhs)):
            violation = k
    return violation, margin if math.isfinite(margin) else 0.0, None


def _assert_matches_references(seq, chain_params, taper_params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Belov's monotonicity warning
        pairs = [(check_vietoris(seq), _ref_vietoris(seq)),
                 (check_belov(seq), _ref_belov(seq)),
                 (check_chain_condition(seq, *chain_params), _ref_chain(seq, *chain_params)),
                 (check_taper_ratio_condition(seq, *taper_params),
                  _ref_taper(seq, *taper_params))]
    for got, (violation, margin, partial) in pairs:
        assert got.first_violation_index == violation
        assert got.satisfied == (violation is None)
        assert got.margin.hex() == margin.hex()
        assert got.partial_sums == partial
        if partial is not None:
            assert [v.hex() for v in got.partial_sums] == [v.hex() for v in partial]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["custom", "vietoris", "qk", "koumandos", "ck"]),
       st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=60), st.booleans(),
       st.tuples(*[st.floats(0.0, 2.0)] * 4),
       st.floats(0.1, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 0.99))
def test_checks_match_reference_loops(family, vals, descending, chain_params,
                                      c, b_minus_c, alpha):
    """Bit for bit, satisfied and violated sequences alike, for the custom
    layout and every family that stores a_0 first."""
    if descending:
        vals = sorted(vals, reverse=True)
    if family == "ck":
        vals = [v for v in vals for _ in (0, 1)]
    _assert_matches_references(CoefficientSequence(tuple(vals), family),
                               chain_params, (c + b_minus_c, c, alpha))


@pytest.mark.parametrize("seq, chain_params, taper_params", [
    (vietoris_gamma(101), (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.5)),
    (qk_sequence(80, 0.2, 0.4, 0.3, 0.7), (0.2, 0.4, 0.3, 0.7), (1.5, 1.0, 0.3)),
    (koumandos_bk(77, 0.45), (0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 0.45)),
    (ck_sequence(40, 0.35, 2.0, 1.0), (0.1, 0.2, 0.5, 0.5), (2.0, 1.0, 0.35)),
    (ratio_qk_sequence(60, 0.2, 0.4, 0.3, 1.5), (0.2, 0.4, 0.3, 1.5), (1.0, 1.0, 0.5)),
])
def test_families_match_reference_loops(seq, chain_params, taper_params):
    # the built families sit on or near equality: margins of exactly 0
    _assert_matches_references(seq, chain_params, taper_params)


def test_overflowed_slack_is_the_margin():
    # w_2 a_2 overflows: the violated report carries margin -inf, not 0.0
    seq = CoefficientSequence((1e308, 1e308))
    rep = check_chain_condition(seq, 0.0, 0.0, 1.0, 0.0)
    assert rep.first_violation_index == 2
    assert rep.margin == -math.inf


def test_overflowed_taper_side_is_a_violation():
    # rhs = 2*a_1 overflows: the tolerance is inf, the slack -inf
    rep = check_taper_ratio_condition(CoefficientSequence((1.7e308, 1.7e308)),
                                      2.0, 1.0, 0.5)
    assert not rep.satisfied
    assert rep.first_violation_index == 1
    assert rep.margin == -math.inf


def test_undecided_overflow_is_a_violation():
    # both taper sides overflow at every k: inf - inf decides nothing
    rep = check_taper_ratio_condition(CoefficientSequence((1.7e308,) * 4),
                                      1.0, 1.0, 0.5)
    assert not rep.satisfied
    assert rep.first_violation_index == 1
    # the violation rests on NaN slacks alone: no margin >= 0 goes with it
    assert math.isnan(rep.margin)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 80), st.floats(0.05, 0.95))
def test_paired_families_pairing_property(n, alpha):
    vals = koumandos_bk(n, alpha).values
    for k in range(len(vals) // 2):
        assert vals[2 * k] == vals[2 * k + 1]


def test_sequence_validation():
    with pytest.raises(SizeError):
        CoefficientSequence(())
    with pytest.raises(ParameterDomainError):
        CoefficientSequence((1.0,), "no-such-family")
    with pytest.raises(ParameterDomainError):
        CoefficientSequence((math.inf,))
