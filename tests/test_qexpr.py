"""Tests for factored expressions and the two expansion routes."""

import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpositivity.qexpr as qexpr
from _reference import cyclotomic_exponent, factorial_quotient_factors, gaussian_rows
from qpositivity.criteria import Lemma6Variant, corollary10_expression, lemma6_expression
from qpositivity.harness import STANTON_SEQUENCE
from qpositivity.qexpr import (
    FactoredQExpression,
    FakeGaussianSpec,
    QuotientSpec,
    expand,
    expand_via_cyclotomics,
    fake_gaussian_expansions,
    from_factorials,
    from_fake_gaussian,
    from_quotient_spec,
    is_polynomial,
    quotient_expansions,
)
from qpositivity.qpoly import CyclotomicCache, IntPolynomial, NotDivisible, poly_mul

raw_factors = st.lists(
    st.tuples(st.integers(2, 24), st.integers(-3, 3)), max_size=6
)
expressions = raw_factors.map(FactoredQExpression)
# argument 1 included, and repeated arguments likely
merge_inputs = st.lists(st.tuples(st.integers(1, 12), st.integers(-3, 3)), max_size=10)
factorial_tops = st.lists(st.integers(0, 60), max_size=8)


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

    @given(merge_inputs, st.integers(1, 12), st.booleans())
    def test_merge_matches_its_definition(self, pairs, arg, balance):
        if balance:  # one more factor makes the exponents sum to 0
            pairs.append((arg, -sum(e for _, e in pairs)))
        merged = {m: sum(e for a, e in pairs if a == m) for m, _ in pairs if m > 1}
        expected = tuple(sorted((m, e) for m, e in merged.items() if e))
        assert FactoredQExpression(pairs).factors == expected

    @given(merge_inputs, st.integers(-5, 0), st.integers(-3, 3), st.data())
    def test_argument_below_one_rejected_anywhere(self, pairs, arg, exp, data):
        pairs.insert(data.draw(st.integers(0, len(pairs))), (arg, exp))
        with pytest.raises(ValueError):
            FactoredQExpression(pairs)

    def test_hashable_value_semantics(self):
        a = FactoredQExpression([(3, 1), (3, 1)])
        b = FactoredQExpression([(3, 2)])
        assert a == b and hash(a) == hash(b)

    def test_empty_product(self):
        e = FactoredQExpression(())
        assert e.factors == ()
        assert e.net_degree == 0
        assert expand(e) == IntPolynomial([1])

    def test_str(self):
        assert str(FactoredQExpression([(9, 1), (3, -1)])) == "[9]/[3]"
        assert str(FactoredQExpression([(12, 1), (2, 2), (4, -1), (3, -1)])) == "[2]^2[12]/([3][4])"
        assert str(FactoredQExpression([(2, -2)])) == "1/([2]^2)"
        assert str(FactoredQExpression(())) == "1"

    @given(expressions)
    def test_net_degree_additive(self, e):
        assert FactoredQExpression(e.factors + e.factors).net_degree == 2 * e.net_degree


class TestConstructors:
    def test_from_factorials_reduced_example(self):
        # [12]! ([2]!)^2 / ([11]! [4]! [1]!) reduces to [2][12]/([3][4])
        e = from_factorials([12, 2, 2], [11, 4, 1])
        assert e.factors == ((2, 1), (3, -1), (4, -1), (12, 1))

    def test_from_factorials_trivial_tops(self):
        assert from_factorials([0, 1], []).factors == ()
        with pytest.raises(ValueError):
            from_factorials([-1], [])

    @given(factorial_tops, factorial_tops)
    @settings(max_examples=300)
    def test_from_factorials_matches_its_definition(self, numerator, denominator):
        expected = factorial_quotient_factors(numerator, denominator)
        assert from_factorials(numerator, denominator).factors == expected

    @given(factorial_tops, factorial_tops, st.integers(-60, -1), st.booleans())
    def test_from_factorials_rejects_a_negative_top(self, numerator, denominator, top, upstairs):
        (numerator if upstairs else denominator).append(top)
        with pytest.raises(ValueError):
            from_factorials(numerator, denominator)

    def test_quotient_spec_examples(self):
        assert str(from_quotient_spec(QuotientSpec(11, 3, 2))) == "[9]/[3]"
        assert str(from_quotient_spec(QuotientSpec(8, 3, 2))) == "[6]/[3]"
        assert from_quotient_spec(QuotientSpec(9, 4, 4)).factors == ()

    def test_quotient_spec_no_normalization(self):
        # the mirrored triple is a different expression, not an alias
        up = from_quotient_spec(QuotientSpec(11, 3, 2))
        down = from_quotient_spec(QuotientSpec(11, 2, 3))
        assert up != down
        assert down == FactoredQExpression([(m, -e) for m, e in up.factors])

    def test_quotient_spec_range_check(self):
        with pytest.raises(ValueError):
            from_quotient_spec(QuotientSpec(5, 6, 0))
        with pytest.raises(ValueError):
            from_quotient_spec(QuotientSpec(5, 2, -1))

    def test_quotient_of_binomials_shape(self):
        # (n,k,l) is the ratio of the Gaussian polynomials at k and at l
        rows = gaussian_rows(20)
        for n, k, l in [(12, 5, 3), (9, 4, 1), (20, 9, 6)]:
            p = expand(from_quotient_spec(QuotientSpec(n, k, l)))
            if p is not NotDivisible:
                assert poly_mul(p, rows[n][l]) == rows[n][k]

    def test_binomial_case(self):
        # G(n,k) as `check n k 0` expands it, and off the crosscheck's row
        for n, row in enumerate(gaussian_rows(40)):
            for k, g in enumerate(row):
                assert expand(from_quotient_spec(QuotientSpec(n, k, 0))) == g, (n, k)
            assert [p for _, _, p in quotient_expansions(n, [0])] == row[: n // 2 + 1], n

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
        # every nonzero exponent, by ascending d
        max_argument = max((m for m, _ in e.factors), default=1)
        pointwise = ((d, cyclotomic_exponent(e, d)) for d in range(2, max_argument + 1))
        assert list(qexpr._exponent_profile(e).items()) == [(d, x) for d, x in pointwise if x]


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

    def test_schedule_keeps_each_peak_within_one_factor_of_the_result(self, monkeypatch):
        # dividing as soon as a denominator is available is what the
        # scheduler is for: no running product outgrows the polynomial by
        # more than its largest factor, on the families the CLI reproduces
        def families():
            for n in range(2, 41):
                for l, ks in ((1, range(1, n)), (2, range(2, n - 1))):
                    yield from (from_quotient_spec(QuotientSpec(n, k, l)) for k in ks)
            yield from (from_fake_gaussian(FakeGaussianSpec(m, STANTON_SEQUENCE))
                        for m in range(1, 21))
            for K in range(2, 6):
                for M in range(3):
                    yield lemma6_expression(K, M, Lemma6Variant.VariantA)
                    if K >= 3:
                        yield lemma6_expression(K, M, Lemma6Variant.VariantB)
            yield from map(corollary10_expression, range(1, 9))

        lengths = []
        mul = qexpr._mul_one_minus_qm_list

        def recording_mul(coeffs, m):
            out = mul(coeffs, m)
            lengths.append(len(out))
            return out

        monkeypatch.setattr(qexpr, "_mul_one_minus_qm_list", recording_mul)
        over = []
        for e in filter(is_polynomial, families()):
            lengths.clear()
            p = expand(e)
            largest = max((m for m, _ in e.factors), default=1)
            if max(lengths, default=1) > p.degree + 1 + largest:
                over.append(str(e))
        assert over == []

    def test_every_step_goes_through_the_names_the_tracer_rebinds(self, monkeypatch):
        # perfbench records expand's kernel spans by rebinding these two
        # qexpr globals, so a step that bypasses them is invisible to it
        calls = []
        for name in ("_mul_one_minus_qm_list", "_div_one_minus_qk_list"):
            def counting(coeffs, m, kernel=getattr(qexpr, name), name=name):
                calls.append((name, m))
                return kernel(coeffs, m)

            monkeypatch.setattr(qexpr, name, counting)
        p = expand(from_quotient_spec(QuotientSpec(11, 3, 2)))
        assert p == IntPolynomial([1, 0, 0, 1, 0, 0, 1])
        assert calls == [("_mul_one_minus_qm_list", 9), ("_div_one_minus_qk_list", 3)]
        # one call per (1 - q^m) factor, Stanton's (1 - q) balance included
        calls.clear()
        e = from_fake_gaussian(FakeGaussianSpec(2, STANTON_SEQUENCE))
        assert expand(e) is not NotDivisible
        balance = -sum(x for _, x in e.factors)
        sides = [m for m, x in ((1, balance), *e.factors) for _ in range(abs(x))]
        assert sorted(m for _, m in calls) == sorted(sides)
        # the Gaussian row's steps, then each l's steps from the last
        # polynomial of its k: multiplications, then divisions up to the
        # first that fails
        calls.clear()
        assert list(quotient_expansions(5, [1, 2])) == [
            (0, 1, NotDivisible), (0, 2, NotDivisible),
            (1, 1, IntPolynomial([1])), (1, 2, NotDivisible),
            (2, 1, IntPolynomial([1, 0, 1])), (2, 2, IntPolynomial([1])),
        ]
        mul, div = "_mul_one_minus_qm_list", "_div_one_minus_qk_list"
        assert calls == [
            (mul, 1), (div, 5), (mul, 1), (mul, 2), (div, 5),
            (mul, 5), (div, 1), (mul, 1), (div, 5), (mul, 2), (div, 4),
            (mul, 4), (div, 2), (mul, 1), (div, 5), (mul, 2), (div, 4),
        ]
        # Stanton's chain in m: m=1 as expand takes it, then per m the
        # (1 - q^(m-1+x)) steps where the sequence rises (x = 3, 10, 18)
        # and then where it falls (x = 1, 2, 9)
        calls.clear()
        expand(from_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE)))
        first = list(calls)
        calls.clear()
        assert [p for _, p in fake_gaussian_expansions(STANTON_SEQUENCE, 3)] == [
            expand(from_fake_gaussian(FakeGaussianSpec(m, STANTON_SEQUENCE))) for m in (1, 2, 3)
        ]
        assert calls[: len(first)] == first
        assert calls[len(first) : len(first) + 16] == [
            (mul, 4), (mul, 4), (mul, 11), (mul, 19), (div, 2), (div, 3), (div, 3), (div, 10),
            (mul, 5), (mul, 5), (mul, 12), (mul, 20), (div, 3), (div, 4), (div, 4), (div, 11),
        ]

    def test_gaussian_row_expansions_match_expand(self):
        # every F(n,k,l) the crosscheck reads, against a from-scratch expansion
        for n in range(2, 61):
            got = list(quotient_expansions(n, (1, 2)))
            assert [(k, l) for k, l, _ in got] == [
                (k, l) for k in range(n // 2 + 1) for l in (1, 2)
            ]
            for k, l, p in got:
                assert p == expand(from_quotient_spec(QuotientSpec(n, k, l))), (n, k, l)
        # Theorem 8 refuses F(12, 2, 1) = [11]/[2]: gcd(k, n-k) = gcd(2, 10) = 2
        assert list(quotient_expansions(12, [1]))[2] == (2, 1, NotDivisible)

    def test_every_ls_matches_expand(self):
        # each l steps from the last polynomial of its k, or from G(n,k)
        # after a refusal or a smaller l: gaps, a leading 0, a repeated l,
        # a descent and a refusal followed by a polynomial take paths that
        # ls = (1, 2) does not.  Each ls rises through a subset of 0..5 and
        # falls back through it.
        refused_then_polynomial = 0
        for n in range(31):
            top = min(n, 5)
            ks = range(n // 2 + 1)
            want = {
                (k, l): expand(from_quotient_spec(QuotientSpec(n, k, l)))
                for k in ks
                for l in range(top + 1)
            }
            for size in range(1, top + 2):
                for rise in itertools.combinations(range(top + 1), size):
                    ls = rise + rise[::-1]
                    got = list(quotient_expansions(n, ls))
                    assert got == [(k, l, want[k, l]) for k in ks for l in ls], (n, ls)
            refused_then_polynomial += sum(
                want[k, l] is NotDivisible and want[k, l + 1] is not NotDivisible
                for k in ks
                for l in range(top)
            )
        assert refused_then_polynomial

    @pytest.mark.parametrize("a", [
        STANTON_SEQUENCE, (0, 1), (1,), (), (2, 0, 1), (1, 2, 1), (0, 0, 3), (3, 1, 0, 2),
    ])
    def test_fake_gaussian_chain_matches_expand(self, a):
        got = list(fake_gaussian_expansions(a, 25))
        assert got == [
            (m, expand(from_fake_gaussian(FakeGaussianSpec(m, a)))) for m in range(1, 26)
        ]
        if a == (0, 1):
            # [m+2]/[2] is a polynomial for even m only: each odd m fails a
            # step of the chain, and the next m restarts from expand
            assert [p is NotDivisible for _, p in got] == [m % 2 == 1 for m in range(1, 26)]

    @given(st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_fake_gaussian_chain_matches_expand_on_drawn_sequences(self, a):
        assert list(fake_gaussian_expansions(a, 25)) == [
            (m, expand(from_fake_gaussian(FakeGaussianSpec(m, a)))) for m in range(1, 26)
        ]

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
