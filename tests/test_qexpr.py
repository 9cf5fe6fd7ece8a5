"""Tests for factored expressions and the two expansion routes."""

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpositivity.qexpr as qexpr
from _reference import cyclotomic_exponent
from qpositivity.qexpr import (
    FactoredQExpression,
    FakeGaussianSpec,
    QuotientSpec,
    expand,
    expand_via_cyclotomics,
    from_factorials,
    from_fake_gaussian,
    from_quotient_spec,
    is_polynomial,
)
from qpositivity.qpoly import CyclotomicCache, IntPolynomial, NotDivisible, q_binomial

raw_factors = st.lists(
    st.tuples(st.integers(2, 24), st.integers(-3, 3)), max_size=6
)
expressions = raw_factors.map(FactoredQExpression)


def test_doctests():
    failures, _ = doctest.testmod(qexpr)
    assert failures == 0


class TestCanonicalForm:
    def test_merge_and_sort(self):
        e = FactoredQExpression([(5, 1), (3, 2), (5, 1), (3, -2)])
        assert e.factors == ((5, 2),)

    def test_zero_exponents_dropped(self):
        assert FactoredQExpression([(4, 0), (7, 1)]).factors == ((7, 1),)

    def test_argument_one_dropped(self):
        assert FactoredQExpression([(1, 5), (2, 1)]).factors == ((2, 1),)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            FactoredQExpression([(0, 1)])

    def test_hashable_value_semantics(self):
        a = FactoredQExpression([(3, 1), (3, 1)])
        b = FactoredQExpression([(3, 2)])
        assert a == b and hash(a) == hash(b)

    def test_empty_product(self):
        e = FactoredQExpression(())
        assert e.factors == ()
        assert e.net_degree == 0
        assert expand(e) == IntPolynomial([1])

    def test_mul_and_inverse(self):
        e = FactoredQExpression([(9, 1), (3, -1)])
        assert (e * e.inverse()).factors == ()
        assert (e * e).factors == ((3, -2), (9, 2))

    def test_str(self):
        assert str(FactoredQExpression([(9, 1), (3, -1)])) == "[9]/[3]"
        assert str(FactoredQExpression([(12, 1), (2, 2), (4, -1), (3, -1)])) == "[2]^2[12]/([3][4])"
        assert str(FactoredQExpression([(2, -2)])) == "1/([2]^2)"
        assert str(FactoredQExpression(())) == "1"

    @given(expressions)
    def test_net_degree_additive(self, e):
        assert (e * e).net_degree == 2 * e.net_degree


class TestConstructors:
    def test_from_factorials_reduced_example(self):
        # [12]! ([2]!)^2 / ([11]! [4]! [1]!) reduces to [2][12]/([3][4])
        e = from_factorials([12, 2, 2], [11, 4, 1])
        assert e.factors == ((2, 1), (3, -1), (4, -1), (12, 1))

    def test_from_factorials_trivial_tops(self):
        assert from_factorials([0, 1], []).factors == ()
        with pytest.raises(ValueError):
            from_factorials([-1], [])

    def test_quotient_spec_examples(self):
        assert str(from_quotient_spec(QuotientSpec(11, 3, 2))) == "[9]/[3]"
        assert str(from_quotient_spec(QuotientSpec(8, 3, 2))) == "[6]/[3]"
        assert from_quotient_spec(QuotientSpec(9, 4, 4)).factors == ()

    def test_quotient_spec_no_normalization(self):
        # the mirrored triple is a different expression, not an alias
        up = from_quotient_spec(QuotientSpec(11, 3, 2))
        down = from_quotient_spec(QuotientSpec(11, 2, 3))
        assert up != down
        assert down == up.inverse()

    def test_quotient_spec_range_check(self):
        with pytest.raises(ValueError):
            from_quotient_spec(QuotientSpec(5, 6, 0))
        with pytest.raises(ValueError):
            from_quotient_spec(QuotientSpec(5, 2, -1))

    def test_quotient_of_binomials_shape(self):
        # (n,k,l) is the ratio of the Gaussian polynomials at k and at l
        for n, k, l in [(12, 5, 3), (9, 4, 1), (20, 9, 6)]:
            e = from_quotient_spec(QuotientSpec(n, k, l))
            at_k = q_binomial(n, k)
            at_l = q_binomial(n, l)
            p = expand(e)
            if p is not NotDivisible:
                assert p * at_l == at_k

    def test_binomial_case(self):
        for n in range(41):
            for k in range(n + 1):
                e = from_quotient_spec(QuotientSpec(n, k, 0))
                assert expand(e) == q_binomial(n, k), (n, k)

    def test_single_q_int(self):
        for m in range(2, 15):
            assert expand(FactoredQExpression([(m, 1)])) == IntPolynomial([1] * m)

    def test_fake_gaussian_validation(self):
        with pytest.raises(ValueError):
            FakeGaussianSpec(0, (1,))
        with pytest.raises(ValueError):
            FakeGaussianSpec(1, (1, -1))

    def test_fake_gaussian_symmetry_flag(self):
        assert FakeGaussianSpec(3, (1, 2, 1)).is_symmetric
        assert not FakeGaussianSpec(3, (1, 2, 2)).is_symmetric
        assert FakeGaussianSpec(3, ()).is_symmetric

    def test_fake_gaussian_merges_overlap(self):
        # m < n makes numerator and denominator arguments collide
        e = from_fake_gaussian(FakeGaussianSpec(1, (1, 1, 1)))
        assert e.factors == ((4, 1),)
        assert str(e) == "[4]"

    @given(st.integers(1, 18))
    def test_fake_gaussian_single_entry_is_quotient(self, m):
        e = from_fake_gaussian(FakeGaussianSpec(m, (0, 0, 1)))
        assert e == FactoredQExpression([(m + 3, 1), (3, -1)])

    @given(st.integers(6, 26), st.data())
    def test_substitution_recovers_quotient_spec(self, n, data):
        k = data.draw(st.integers(2, n // 2))
        l = data.draw(st.integers(1, k - 1))
        fg = FakeGaussianSpec(k - l, (0,) * l + (1,) * (n - k - l) + (0,) * l)
        assert from_fake_gaussian(fg) == from_quotient_spec(QuotientSpec(n, k, l))


class TestCyclotomicExponent:
    def test_requires_d_at_least_two(self):
        with pytest.raises(ValueError):
            cyclotomic_exponent(FactoredQExpression([(4, 1)]), 1)

    def test_counts(self):
        e = FactoredQExpression([(12, 2), (6, -1), (5, 1)])
        assert cyclotomic_exponent(e, 2) == 1
        assert cyclotomic_exponent(e, 3) == 1
        assert cyclotomic_exponent(e, 4) == 2
        assert cyclotomic_exponent(e, 5) == 1
        assert cyclotomic_exponent(e, 12) == 2
        assert cyclotomic_exponent(e, 7) == 0

    @given(expressions)
    def test_profile_matches_pointwise(self, e):
        profile = qexpr._exponent_profile(e)
        max_argument = max((m for m, _ in e.factors), default=1)
        for d in range(2, max_argument + 1):
            assert profile.get(d, 0) == cyclotomic_exponent(e, d)
        assert all(d <= max_argument for d in profile)


class TestExpansion:
    def test_simple_quotients(self):
        assert expand(FactoredQExpression([(6, 1), (3, -1)])) == IntPolynomial([1, 0, 0, 1])
        assert expand(FactoredQExpression([(3, 1), (2, -1)])) is NotDivisible

    def test_verdict_matches_is_polynomial_on_quotient_grid(self):
        for n in range(2, 26):
            for k in range(1, n // 2 + 1):
                for l in range(0, k):
                    e = from_quotient_spec(QuotientSpec(n, k, l))
                    assert (expand(e) is not NotDivisible) == is_polynomial(e), (n, k, l)

    @given(expressions)
    @settings(max_examples=300)
    def test_two_routes_agree(self, e):
        # the shared cyclotomic cache and a fresh private one
        direct = expand(e)
        for via in (expand_via_cyclotomics(e), expand_via_cyclotomics(e, CyclotomicCache())):
            if direct is NotDivisible:
                assert via is NotDivisible
            else:
                assert direct == via

    @given(expressions)
    def test_verdict_matches_is_polynomial(self, e):
        assert (expand(e) is not NotDivisible) == is_polynomial(e)

    @given(expressions)
    def test_degree_is_net_degree(self, e):
        p = expand(e)
        if p is not NotDivisible:
            assert p.degree == (e.net_degree if p.coeffs else 0)
            assert p.coeffs, "factored products are never the zero polynomial"

    def test_polynomial_quotients_are_reciprocal(self):
        # expansions of [l]![n-l]!/([k]![n-k]!) are palindromic
        for n in range(2, 28):
            for k in range(1, n // 2 + 1):
                for l in range(0, k + 1):
                    p = expand(from_quotient_spec(QuotientSpec(n, k, l)))
                    if p is not NotDivisible:
                        assert p.coeffs == p.coeffs[::-1], (n, k, l)

    def test_constant_term_one(self):
        for n in range(2, 24):
            for k in range(1, n // 2 + 1):
                for l in range(0, k + 1):
                    p = expand(from_quotient_spec(QuotientSpec(n, k, l)))
                    if p is not NotDivisible:
                        assert p.coeffs[0] == 1
