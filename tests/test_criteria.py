"""Tests for closed-form criteria against the brute-force expansion routes."""

import doctest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _paper
import qpositivity.criteria as criteria
from _paper import case_classify, lemma5_expression, thm8_exponent, thm9_exponent
from _reference import cyclotomic_exponent
from qpositivity.analysis import is_parity_unimodal, is_reciprocal
from qpositivity.criteria import (
    Lemma6Variant,
    corollary10_expression,
    lemma6_degree,
    lemma6_expression,
    lemma6_order_bound,
    thm8_is_polynomial,
    thm9_is_polynomial,
)
from qpositivity.qexpr import (
    QuotientSpec,
    expand,
    from_quotient_spec,
    is_polynomial,
)
from qpositivity.qpoly import IntPolynomial, NotDivisible


def test_doctests():
    for module in (criteria, _paper):
        failures, _ = doctest.testmod(module)
        assert failures == 0


class TestTheorem8:
    def test_examples(self):
        assert thm8_is_polynomial(5, 2)
        assert not thm8_is_polynomial(12, 2)

    def test_trivial_ends(self):
        for n in (1, 2, 9):
            assert thm8_is_polynomial(n, 0)
            assert thm8_is_polynomial(n, n)

    def test_range_check(self):
        with pytest.raises(ValueError):
            thm8_is_polynomial(5, 6)
        with pytest.raises(ValueError):
            thm8_is_polynomial(0, 0)

    def test_equivalent_to_expansion(self):
        for n in range(2, 51):
            for k in range(1, n):
                expanded = expand(from_quotient_spec(QuotientSpec(n, k, 1)))
                assert thm8_is_polynomial(n, k) == (expanded is not NotDivisible), (n, k)
                if expanded is not NotDivisible:
                    assert all(c >= 0 for c in expanded.coeffs), (n, k)


class TestTheorem9:
    def test_examples(self):
        assert thm9_is_polynomial(8, 3)
        assert not thm9_is_polynomial(9, 4)
        assert expand(from_quotient_spec(QuotientSpec(8, 3, 2))) == IntPolynomial([1, 0, 0, 1])

    def test_gcd_two_is_allowed(self):
        # (14, 4): gcds (2, 1, 1)
        assert thm9_is_polynomial(14, 4)

    def test_range_check(self):
        with pytest.raises(ValueError):
            thm9_is_polynomial(8, 1)
        with pytest.raises(ValueError):
            thm9_is_polynomial(8, 7)

    def test_equivalent_to_expansion(self):
        for n in range(4, 51):
            for k in range(2, n - 1):
                expanded = expand(from_quotient_spec(QuotientSpec(n, k, 2)))
                assert thm9_is_polynomial(n, k) == (expanded is not NotDivisible), (n, k)
                if expanded is not NotDivisible:
                    assert all(c >= 0 for c in expanded.coeffs), (n, k)


class TestExponentFormulas:
    def test_d_one_balances(self):
        for n in range(3, 40):
            for k in range(1, n):
                assert thm8_exponent(n, k, 1) == 0
            for k in range(2, n - 1):
                assert thm9_exponent(n, k, 1) == 0

    def test_d_two_reduction(self):
        for n in range(4, 60):
            for k in range(2, n - 1):
                reduced = n // 2 - k // 2 - (n - k) // 2
                assert thm9_exponent(n, k, 2) == reduced, (n, k)

    @given(st.integers(3, 120), st.data())
    @settings(max_examples=120)
    def test_matches_divisor_count_l1(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        e = from_quotient_spec(QuotientSpec(n, k, 1))
        for d in range(2, n + 1):
            assert thm8_exponent(n, k, d) == cyclotomic_exponent(e, d)

    @given(st.integers(4, 120), st.data())
    @settings(max_examples=120)
    def test_matches_divisor_count_l2(self, n, data):
        k = data.draw(st.integers(2, n - 2))
        e = from_quotient_spec(QuotientSpec(n, k, 2))
        for d in range(2, n + 1):
            assert thm9_exponent(n, k, d) == cyclotomic_exponent(e, d)


class TestLemma5:
    def test_expression_examples(self):
        assert str(lemma5_expression(3, 4, 6)) == "[6][12]/([3][4])"
        assert lemma5_expression(1, 1, 7).factors == ((7, 1),)
        p = expand(lemma5_expression(2, 3, 2))
        assert p is not NotDivisible and all(c >= 0 for c in p.coeffs)

    def test_positivity_suite(self):
        # full hypothesis window: coprime a,b <= 12, threshold <= gamma <= threshold+20
        for a in range(1, 13):
            for b in range(a, 13):
                if gcd(a, b) != 1:
                    continue
                lo = (a - 1) * (b - 1)
                for gamma in range(max(lo, 1), lo + 21):
                    p = expand(lemma5_expression(a, b, gamma))
                    assert p is not NotDivisible, (a, b, gamma)
                    assert all(c >= 0 for c in p.coeffs), (a, b, gamma)


class TestLemma6:
    def test_expression_examples(self):
        a = lemma6_expression(2, 0, Lemma6Variant.VariantA)
        assert str(a) == "[16][17][18]/([2][3][4])"
        b = lemma6_expression(3, 0, Lemma6Variant.VariantB)
        assert str(b) == "[10][11][12]/([4][5][6])"

    def test_numerator_factorizations(self):
        # first arg 2K(K-1)(4+M(2K-1)); third arg 2(2K-1)((2K-1)+MK(K-1))
        for K in range(2, 9):
            for M in range(0, 4):
                e = lemma6_expression(K, M, Lemma6Variant.VariantA)
                args = sorted(m for m, exp in e.factors if exp > 0)
                assert args[0] == 2 * K * (K - 1) * (4 + M * (2 * K - 1))
                assert args[2] == 2 * (2 * K - 1) * ((2 * K - 1) + M * K * (K - 1))

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            lemma6_expression(1, 0, Lemma6Variant.VariantA)
        with pytest.raises(ValueError):
            lemma6_expression(2, 0, Lemma6Variant.VariantB)
        with pytest.raises(ValueError):
            lemma6_expression(3, -1, Lemma6Variant.VariantA)

    def test_degree_formula(self):
        assert lemma6_degree(2, 0) == 42
        assert lemma6_degree(2, 1) == 78
        assert lemma6_degree(3, 0) == 132
        for K in range(2, 13):
            for M in range(0, 7):
                e = lemma6_expression(K, M, Lemma6Variant.VariantA)
                assert lemma6_degree(K, M) == e.net_degree, (K, M)

    def test_order_bound_formula(self):
        assert lemma6_order_bound(2, 0) == 32
        assert lemma6_order_bound(2, 1) == 56
        assert lemma6_order_bound(3, 0) == 94
        for K in range(2, 13):
            for M in range(0, 7):
                assert lemma6_order_bound(K, M) > lemma6_degree(K, M) / 2, (K, M)

    def test_small_members_expand_nonnegative(self):
        # the full K <= 12 suite runs in the acceptance tier
        for variant, k_lo in ((Lemma6Variant.VariantA, 2), (Lemma6Variant.VariantB, 3)):
            for K in range(k_lo, 5):
                for M in range(0, 2):
                    p = expand(lemma6_expression(K, M, variant))
                    assert p is not NotDivisible, (K, M, variant)
                    assert all(c >= 0 for c in p.coeffs), (K, M, variant)
                    assert is_reciprocal(p)


class TestCaseClassify:
    def test_examples(self):
        pat = case_classify(11, 3, 2)
        assert pat.label == "distinct-factors"
        assert pat.assignment == {3: (9,)}
        assert pat.K is None and pat.M is None
        assert case_classify(12, 3, 2) is None

    def test_case2_criterion(self):
        for n in range(4, 60):
            for k in range(2, n // 2 + 1):
                verdict = case_classify(n, k, k - 1)
                assert (verdict is not None) == ((n - k + 1) % k == 0)

    def test_case3_labels(self):
        # k=3, l=1: divisors 3 and 2 against n-2, n-1
        shared = case_classify(14, 3, 1)
        assert shared.label == "two-share-coprime"
        assert shared.assignment == {3: (12,), 2: (12,)}
        split = case_classify(11, 3, 1)
        assert split.label == "distinct-factors"
        assert split.assignment == {3: (9,), 2: (10,)}

    def test_lemma6_roundtrip_variant_a(self):
        for K in range(2, 10):
            for M in range(0, 4):
                e = lemma6_expression(K, M, Lemma6Variant.VariantA)
                n1 = min(m for m, exp in e.factors if exp > 0)
                n, k = n1 + 2 * K - 1, 2 * K
                pat = case_classify(n, k, k - 3)
                assert pat.label == "lemma6-A" and (pat.K, pat.M) == (K, M), (K, M)

    def test_lemma6_roundtrip_variant_b(self):
        for K in range(3, 10):
            for M in range(0, 4):
                e = lemma6_expression(K, M, Lemma6Variant.VariantB)
                n3 = max(m for m, exp in e.factors if exp > 0)
                n, k = n3 + 2 * K - 3, 2 * K
                pat = case_classify(n, k, k - 3)
                assert pat.label == "lemma6-B" and (pat.K, pat.M) == (K, M), (K, M)

    def test_even_k_parity_obstruction(self):
        # k=4, l=1, n even: assignments may exist but the even slots clash
        assert case_classify(16, 4, 1) is None

    def test_triple_share_labels(self):
        # k=5, l=2: N1 = 60 is divisible by each of 5, 4, 3
        pat = case_classify(64, 5, 2)
        assert pat.label == "all-three-odd-k"
        assert pat.assignment == {5: (60,), 4: (60,), 3: (60,)}
        # k=4, l=1, n odd: N1 = 12 hosts all of 4, 3, 2
        pat = case_classify(15, 4, 1)
        assert pat.label == "all-three-even-k"

    def test_two_share_even_orientations(self):
        # k=4, l=1: the even pair shares N1=8 while 3 | N2=9
        pat = case_classify(11, 4, 1)
        assert pat.label == "two-share-even-A"
        # k=4, l=1: the even pair shares N3=8 while 3 | N1=6; VariantB would
        # need K >= 3, so this stays a plain share
        pat = case_classify(9, 4, 1)
        assert pat.label == "two-share-even-B"
        assert pat.K is None

    def test_agrees_with_is_polynomial_to_120(self):
        for n in range(2, 121):
            for k in range(2, n // 2 + 1):
                for l in (k - 1, k - 2, k - 3):
                    if l < 1:
                        continue
                    verdict = case_classify(n, k, l)
                    truth = is_polynomial(from_quotient_spec(QuotientSpec(n, k, l)))
                    assert (verdict is not None) == truth, (n, k, l)

    def test_assignments_are_real_divisibilities(self):
        for n in range(8, 90):
            for k in range(4, n // 2 + 1):
                pat = case_classify(n, k, k - 3)
                if pat is None:
                    continue
                for d, hits in pat.assignment.items():
                    assert k - 2 <= d <= k
                    assert hits, (n, k, d)
                    for a in hits:
                        assert n - k + 1 <= a <= n - k + 3 and a % d == 0

    def test_label_vocabulary_coverage(self):
        # every label occurs by n = 120; all-three-odd-k first at (62, 5, 2)
        seen = set()
        for n in range(2, 121):
            for k in range(2, n // 2 + 1):
                for l in (k - 1, k - 2, k - 3):
                    if l < 1:
                        continue
                    pat = case_classify(n, k, l)
                    if pat is not None:
                        seen.add(pat.label)
                        lemma6 = pat.label.startswith("lemma6")
                        assert (pat.K is not None) == (pat.M is not None) == lemma6, (n, k, l)
        assert seen == {
            "lemma6-A", "lemma6-B", "all-three-even-k", "all-three-odd-k",
            "two-share-even-A", "two-share-even-B", "two-share-coprime", "distinct-factors",
        }


class TestRationalQCatalan:
    """[n-1]!/([k]![n-k]!), the l = 1 quotient."""

    def test_examples(self):
        assert expand(from_quotient_spec(QuotientSpec(5, 2, 1))) == IntPolynomial([1, 0, 1])
        assert expand(from_quotient_spec(QuotientSpec(4, 2, 1))) is NotDivisible
        for n in range(2, 20):
            assert expand(from_quotient_spec(QuotientSpec(n, 1, 1))) == IntPolynomial([1])

    def test_shape_when_defined(self):
        for n in range(2, 45):
            for k in range(1, n):
                p = expand(from_quotient_spec(QuotientSpec(n, k, 1)))
                if p is NotDivisible:
                    continue
                assert p.degree == k * (n - k) - (n - 1), (n, k)
                assert p.degree % 2 == 0, (n, k)
                assert is_reciprocal(p)
                assert is_parity_unimodal(p), (n, k)
                assert all(c >= 0 for c in p.coeffs), (n, k)


class TestCorollary10Expression:
    def test_smallest_case(self):
        e = corollary10_expression(1)
        assert e.factors == ((3, -1), (6, 1))
        assert expand(e) == IntPolynomial([1, 0, 0, 1])

    def test_precondition(self):
        with pytest.raises(ValueError):
            corollary10_expression(0)

    def test_small_cases_nonnegative(self):
        for n in range(1, 8):
            p = expand(corollary10_expression(n))
            assert p is not NotDivisible, n
            assert all(c >= 0 for c in p.coeffs), n
            assert p.coeffs[0] == 1

    def test_net_degree_formula(self):
        # degrees telescope: sum(2j-1, j=1..3n) - sum(j-1, j=2..2n+1) - sum(2j-1, j=2..n+1)
        for n in range(1, 12):
            e = corollary10_expression(n)
            expected = (
                sum(2 * j - 1 for j in range(1, 3 * n + 1))
                - sum(j - 1 for j in range(2, 2 * n + 2))
                - sum(2 * j - 1 for j in range(2, n + 2))
            )
            assert e.net_degree == expected
