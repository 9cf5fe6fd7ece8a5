"""Unit tests for the exact polynomial layer.

The division oracle here is deliberately naive: long division over
fractions.Fraction followed by an integrality check.  It shares no code
with the integer-only fast paths in qpoly, so agreement is meaningful.
"""

import dataclasses
import doctest
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpositivity.qpoly as qpoly
from qpositivity.qpoly import (
    NEG_INF,
    CyclotomicCache,
    IntPolynomial,
    NotDivisible,
    cyclotomic,
    div_one_minus_qk,
    poly_add,
    poly_div_exact,
    poly_mul,
    q_binomial,
    q_int,
)


def oracle_div(a: IntPolynomial, b: IntPolynomial):
    """Exact quotient via rational long division, or None."""
    if not a.coeffs:
        return IntPolynomial(())
    if len(a.coeffs) < len(b.coeffs):
        return None
    rem = [Fraction(c) for c in a.coeffs]
    lead = Fraction(b.coeffs[-1])
    nb = len(b.coeffs)
    quot = [Fraction(0)] * (len(rem) - nb + 1)
    for i in reversed(range(len(quot))):
        qc = rem[i + nb - 1] / lead
        quot[i] = qc
        for j, bj in enumerate(b.coeffs):
            rem[i + j] -= qc * bj
    if any(rem) or any(c.denominator != 1 for c in quot):
        return None
    return IntPolynomial([int(c) for c in quot])


def one_minus_q(m: int) -> IntPolynomial:
    return IntPolynomial((1,) + (0,) * (m - 1) + (-1,))


small_polys = st.lists(st.integers(-9, 9), max_size=25).map(IntPolynomial)
nonzero_polys = small_polys.filter(lambda p: bool(p.coeffs))

# poly_mul treats 0, 1, -1 and every other coefficient differently, and the
# sweeps reach 130-bit coefficients
BIG = 2**130
mul_coeffs = st.one_of(
    st.sampled_from([0, 1, -1, BIG + 1, -(BIG << 5)]),
    st.integers(-9, 9),
    st.integers(-(2**140), 2**140),
)
dense_polys = st.lists(mul_coeffs, max_size=30).map(IntPolynomial)
sparse_polys = st.one_of(
    st.just(IntPolynomial.zero()),
    st.builds(IntPolynomial.monomial, mul_coeffs, st.integers(0, 30)),
    st.integers(1, 30).map(lambda j: IntPolynomial.one() + IntPolynomial.monomial(1, j)),
    st.integers(1, 30).map(lambda j: IntPolynomial.one() - IntPolynomial.monomial(1, j)),
)
mul_operands = st.one_of(sparse_polys, dense_polys)


def schoolbook_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Reference product: every pair of coefficients, nothing skipped."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPolynomial(out)


def test_doctests():
    failures, _ = doctest.testmod(qpoly)
    assert failures == 0


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_is_empty(self):
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial([0, 0]) == IntPolynomial.zero()

    def test_degree_sentinel(self):
        assert IntPolynomial([]).degree == NEG_INF
        assert NEG_INF < 0
        assert IntPolynomial([7]).degree == 0

    def test_equal_iff_same_coeffs(self):
        assert IntPolynomial([1, 1]) == IntPolynomial((1, 1, 0))
        assert IntPolynomial([1, 1]) != IntPolynomial([1])

    def test_hashable(self):
        assert len({IntPolynomial([1, 1]), IntPolynomial([1, 1, 0])}) == 1

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            IntPolynomial([1]).coeffs = (2,)

    def test_str_rendering(self):
        p = IntPolynomial([1, 0, -1, 1, 1, -1, 0, 1])
        assert str(p) == "1 - q^2 + q^3 + q^4 - q^5 + q^7"
        assert str(IntPolynomial([])) == "0"
        assert str(IntPolynomial([0, -2])) == "-2q"


class TestNotDivisible:
    def test_singleton(self):
        assert qpoly._NotDivisibleType() is NotDivisible

    def test_falsy_and_repr(self):
        assert not NotDivisible
        assert repr(NotDivisible) == "NotDivisible"

    def test_distinct_from_zero_poly(self):
        assert NotDivisible is not IntPolynomial.zero()
        assert not isinstance(NotDivisible, IntPolynomial)


class TestRingOps:
    def test_add_cancellation(self):
        assert poly_add(IntPolynomial([1, 1]), IntPolynomial([1, -1])) == IntPolynomial([2])

    def test_mul_examples(self):
        assert poly_mul(q_int(3), one_minus_q(1)) == one_minus_q(3)
        assert poly_mul(IntPolynomial([]), q_int(5)) == IntPolynomial([])

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))

    @given(mul_operands, mul_operands)
    @example(IntPolynomial([BIG, -1, 0, 1, 3]), IntPolynomial([1, 0, 0, 1]))
    @example(IntPolynomial([1, 0, -1]), IntPolynomial([2, -BIG, 0, 1, 1]))
    @example(IntPolynomial.zero(), IntPolynomial([1, 2]))
    def test_mul_matches_schoolbook(self, a, b):
        # both argument orders, so either operand is the sparser one
        expected = schoolbook_mul(a, b)
        assert poly_mul(a, b) == expected
        assert poly_mul(b, a) == expected

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_evaluation_is_a_homomorphism(self, a, b, x):
        assert poly_mul(a, b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert poly_add(a, b).evaluate(x) == a.evaluate(x) + b.evaluate(x)

    def test_operator_sugar(self):
        a, b = q_int(4), q_int(2)
        assert a + b == poly_add(a, b)
        assert a * b == poly_mul(a, b)
        assert a - a == IntPolynomial.zero()
        assert -b == IntPolynomial([-1, -1])

    @given(small_polys, st.integers(1, 4))
    def test_substitute_q_power_matches_evaluation(self, p, t):
        assert p.substitute_q_power(t).evaluate(2) == p.evaluate(2**t)


class TestDivExact:
    def test_spec_examples(self):
        # (1-q^6)/(1-q^3) and the inexact (1-q^5)/(1-q^2)
        assert poly_div_exact(one_minus_q(6), one_minus_q(3)) == IntPolynomial([1, 0, 0, 1])
        assert poly_div_exact(one_minus_q(5), one_minus_q(2)) is NotDivisible

    def test_even_product_quotient(self):
        # (1-q^4)(1-q^6) / (1-q^2)^2 is exact; the verdict is computed, not assumed
        num = poly_mul(one_minus_q(4), one_minus_q(6))
        den = poly_mul(one_minus_q(2), one_minus_q(2))
        expect = poly_mul(IntPolynomial([1, 0, 1]), IntPolynomial([1, 0, 1, 0, 1]))
        assert poly_div_exact(num, den) == expect
        assert oracle_div(num, den) == expect

    def test_zero_dividend(self):
        assert poly_div_exact(IntPolynomial([]), q_int(3)) == IntPolynomial([])

    def test_zero_divisor_is_contract_violation(self):
        with pytest.raises(ZeroDivisionError):
            poly_div_exact(q_int(3), IntPolynomial([]))

    def test_non_monic_divisor(self):
        assert poly_div_exact(IntPolynomial([4, 0, -4]), IntPolynomial([2, 2])) == IntPolynomial([2, -2])
        assert poly_div_exact(IntPolynomial([1, 0, -1]), IntPolynomial([2, 2])) is NotDivisible

    @given(small_polys, nonzero_polys)
    def test_roundtrip_product(self, a, b):
        assert poly_div_exact(poly_mul(a, b), b) == a

    @given(small_polys, nonzero_polys)
    @settings(max_examples=200)
    def test_agrees_with_fraction_oracle(self, a, b):
        got = poly_div_exact(a, b)
        want = oracle_div(a, b)
        if want is None:
            assert got is NotDivisible
        else:
            assert got == want


class TestDivOneMinusQk:
    def test_spec_examples(self):
        got = div_one_minus_qk(poly_mul(one_minus_q(4), one_minus_q(3)), 2)
        assert got == IntPolynomial([1, 0, 1, -1, 0, -1])
        assert div_one_minus_qk(one_minus_q(5), 2) is NotDivisible

    def test_zero_dividend(self):
        assert div_one_minus_qk(IntPolynomial([]), 4) == IntPolynomial([])

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            div_one_minus_qk(q_int(2), 0)

    def test_dividend_shorter_than_k(self):
        assert div_one_minus_qk(IntPolynomial([1]), 5) is NotDivisible

    @given(small_polys, st.integers(1, 30))
    @settings(max_examples=200)
    def test_agrees_with_long_division(self, a, k):
        want = poly_div_exact(a, one_minus_q(k))
        got = div_one_minus_qk(a, k)
        if want is NotDivisible:
            assert got is NotDivisible
        else:
            assert got == want

    @given(small_polys, st.integers(1, 12))
    def test_roundtrip(self, a, k):
        assert div_one_minus_qk(poly_mul(a, one_minus_q(k)), k) == a


def _truncated(coeffs, size):
    return (list(coeffs) + [0] * size)[:size]


@st.composite
def size_and_step(draw):
    """A truncation length and a factor argument at, near or away from it."""
    size = draw(st.integers(0, 32))
    near = st.integers(-2, 2).map(lambda d: size + d)
    step = draw(st.one_of(near, st.integers(1, 40)).filter(lambda j: j >= 1))
    return size, step


class TestTruncatedSeriesKernels:
    # the in-place kernels behind the Conjecture 1 row chain, against the
    # untruncated list kernels cut to the same length

    @given(st.lists(mul_coeffs, max_size=30), size_and_step())
    @example([BIG, -1, 0, 1, -(BIG << 10)], (4, 4))
    @example([1, 1, 1], (3, 2))
    @example([], (0, 1))
    def test_mul_matches_untruncated(self, a, size_step):
        size, m = size_step
        series = _truncated(a, size)
        qpoly._mul_one_minus_qm_series(series, m)
        assert series == _truncated(qpoly._mul_one_minus_qm_list(a, m), size)

    @given(st.lists(mul_coeffs, max_size=30), size_and_step())
    @example([BIG, -1, 0, 1, -(BIG << 10)], (6, 6))
    @example([1, -1, 0, 1], (5, 4))
    @example([], (0, 1))
    def test_div_matches_untruncated(self, b, size_step):
        size, k = size_step
        # a is divisible by (1 - q^k), so the list kernel's exact quotient
        # is the series quotient
        a = qpoly._mul_one_minus_qm_list(b, k)
        exact = qpoly._div_one_minus_qk_list(a, k)
        assert exact == b
        series = _truncated(a, size)
        qpoly._div_one_minus_qk_series(series, k)
        assert series == _truncated(exact, size)


def test_divisors_match_trial_division():
    for n in range(1, 501):
        got = qpoly._divisors(n)
        assert isinstance(got, tuple)
        assert got == tuple(d for d in range(1, n + 1) if n % d == 0)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == IntPolynomial([-1, 1])
        assert cyclotomic(2) == IntPolynomial([1, 1])
        assert cyclotomic(3) == q_int(3)
        assert cyclotomic(4) == IntPolynomial([1, 0, 1])
        assert cyclotomic(6) == IntPolynomial([1, -1, 1])
        assert cyclotomic(12) == IntPolynomial([1, 0, -1, 0, 1])

    def test_degree_is_euler_phi(self):
        # phi via direct count; independent of the divisor recursion
        for d in range(1, 80):
            phi = sum(1 for r in range(1, d + 1) if _gcd(r, d) == 1)
            assert cyclotomic(d).degree == phi

    def test_product_over_divisors(self):
        for n in (1, 2, 5, 6, 12, 28, 60):
            prod = IntPolynomial([1])
            for d in qpoly._divisors(n):
                prod = poly_mul(prod, cyclotomic(d))
            assert prod == qpoly._q_power_minus_one(n)

    def test_q_int_cyclotomic_factorization(self):
        # [m] carries every C_d with d | m, d >= 2, and no C_1
        for m in (1, 2, 3, 8, 12, 30):
            prod = IntPolynomial([1])
            for d in qpoly._divisors(m):
                if d >= 2:
                    prod = poly_mul(prod, cyclotomic(d))
            assert prod == q_int(m)

    def test_private_cache_isolated(self):
        cache = CyclotomicCache()
        assert len(cache) == 0
        p = cyclotomic(10, cache)
        assert p == IntPolynomial([1, -1, 1, -1, 1])
        assert 10 in cache and 5 in cache and len(cache) >= 4

    def test_cached_entry_reused(self):
        cache = CyclotomicCache()
        assert cyclotomic(9, cache) is cyclotomic(9, cache)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class TestQInt:
    def test_values(self):
        assert q_int(1) == IntPolynomial([1])
        assert q_int(4) == IntPolynomial([1, 1, 1, 1])

    def test_invalid(self):
        with pytest.raises(ValueError):
            q_int(0)

    @given(st.integers(1, 40))
    def test_geometric_identity(self, m):
        assert poly_mul(q_int(m), one_minus_q(1)) == one_minus_q(m)


def pascal_oracle(n_max: int):
    """Gaussian polynomials via the q-Pascal triangle, no division at all."""
    rows = [[IntPolynomial([1])]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [IntPolynomial([1])]
        for k in range(1, n):
            shifted = poly_mul(IntPolynomial((0,) * k + (1,)), prev[k])
            row.append(poly_add(prev[k - 1], shifted))
        row.append(IntPolynomial([1]))
        rows.append(row)
    return rows


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(4, 2) == IntPolynomial([1, 1, 2, 1, 1])
        assert q_binomial(6, 1) == q_int(6)
        assert q_binomial(5, 5) == IntPolynomial([1])
        assert q_binomial(5, 0) == IntPolynomial([1])

    def test_out_of_range_is_zero(self):
        assert q_binomial(3, 5) == IntPolynomial.zero()
        assert q_binomial(3, -1) == IntPolynomial.zero()

    def test_matches_pascal_oracle(self):
        rows = pascal_oracle(24)
        for n in range(25):
            for k in range(n + 1):
                assert q_binomial(n, k) == rows[n][k], (n, k)

    def test_both_pascal_recurrences(self):
        for n in range(1, 20):
            for k in range(1, n):
                qk = IntPolynomial((0,) * k + (1,))
                qnk = IntPolynomial((0,) * (n - k) + (1,))
                lhs = q_binomial(n, k)
                assert lhs == poly_add(q_binomial(n - 1, k - 1), poly_mul(qk, q_binomial(n - 1, k)))
                assert lhs == poly_add(poly_mul(qnk, q_binomial(n - 1, k - 1)), q_binomial(n - 1, k))

    def test_symmetry(self):
        for n in range(18):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_q_equals_one_is_binomial_coefficient(self):
        from math import comb

        for n in range(30):
            for k in range(n + 1):
                assert q_binomial(n, k).evaluate(1) == comb(n, k)

    def test_coefficients_nonnegative(self):
        for n in range(22):
            for k in range(n + 1):
                assert all(c >= 0 for c in q_binomial(n, k).coeffs)

    def test_degree(self):
        for n in range(16):
            for k in range(n + 1):
                assert q_binomial(n, k).degree == k * (n - k)
