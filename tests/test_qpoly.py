"""Unit tests for the exact polynomial layer.

The division oracle here is deliberately naive: long division over
fractions.Fraction followed by an integrality check.  It shares no code
with the integer-only fast paths in qpoly, so agreement is meaningful.
"""

import dataclasses
import doctest
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
import qpositivity.qpoly as qpoly
from _reference import (
    add_coeffs,
    div_one_minus_qk_series,
    gaussian_rows,
    mul_one_minus_qm_series,
    packed,
    poly_div_exact,
)
from qpositivity.analysis import nonnegativity
from qpositivity.qexpr import QuotientSpec, expand, from_quotient_spec, quotient_expansions
from qpositivity.qpoly import (
    NEG_INF,
    CyclotomicCache,
    IntPolynomial,
    NotDivisible,
    cyclotomic,
    poly_mul,
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


def horner(p: IntPolynomial, x: int) -> int:
    """The exact value p(x)."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


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
    st.just(IntPolynomial([])),
    st.builds(lambda c, j: IntPolynomial([0] * j + [c]), mul_coeffs, st.integers(0, 30)),
    st.integers(1, 30).map(lambda j: IntPolynomial([1] + [0] * (j - 1) + [1])),
    st.integers(1, 30).map(one_minus_q),
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
    for module in (qpoly, _reference):
        failures, _ = doctest.testmod(module)
        assert failures == 0


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    @given(st.lists(st.integers(-3, 3), max_size=8), st.integers(0, 4))
    def test_trailing_zeros_stripped_alike_from_any_iterable(self, cs, zeros):
        cs += [0] * zeros
        expected = list(cs)
        while expected and expected[-1] == 0:
            expected.pop()
        for coeffs in (cs, tuple(cs), (c for c in cs)):
            assert IntPolynomial(coeffs).coeffs == tuple(expected)

    def test_zero_is_empty(self):
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial([0, 0]) == IntPolynomial([])

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
        assert NotDivisible is not IntPolynomial([])
        assert not isinstance(NotDivisible, IntPolynomial)


class TestRingOps:
    def test_mul_examples(self):
        assert poly_mul(IntPolynomial([1, 1, 1]), one_minus_q(1)) == one_minus_q(3)
        assert poly_mul(IntPolynomial([]), IntPolynomial([1, 1, 1, 1, 1])) == IntPolynomial([])

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert poly_mul(a, b) == poly_mul(b, a)
        left = poly_mul(a, IntPolynomial(add_coeffs(b.coeffs, c.coeffs)))
        assert left == IntPolynomial(add_coeffs(poly_mul(a, b).coeffs, poly_mul(a, c).coeffs))

    @given(mul_operands, mul_operands)
    @example(IntPolynomial([BIG, -1, 0, 1, 3]), IntPolynomial([1, 0, 0, 1]))
    @example(IntPolynomial([1, 0, -1]), IntPolynomial([2, -BIG, 0, 1, 1]))
    @example(IntPolynomial([]), IntPolynomial([1, 2]))
    def test_mul_matches_schoolbook(self, a, b):
        # both argument orders, so either operand is the sparser one
        expected = schoolbook_mul(a, b)
        assert poly_mul(a, b) == expected
        assert poly_mul(b, a) == expected

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_evaluation_is_a_homomorphism(self, a, b, x):
        assert horner(poly_mul(a, b), x) == horner(a, x) * horner(b, x)
        total = IntPolynomial(add_coeffs(a.coeffs, b.coeffs))
        assert horner(total, x) == horner(a, x) + horner(b, x)


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
        assert poly_div_exact(IntPolynomial([]), IntPolynomial([1, 1, 1])) == IntPolynomial([])

    def test_zero_divisor_is_contract_violation(self):
        with pytest.raises(ZeroDivisionError):
            poly_div_exact(IntPolynomial([1, 1, 1]), IntPolynomial([]))

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
    # the exact list step by (1 - q^k)

    def test_spec_examples(self):
        got = qpoly._div_one_minus_qk_list(poly_mul(one_minus_q(4), one_minus_q(3)).coeffs, 2)
        assert got == [1, 0, 1, -1, 0, -1]
        assert qpoly._div_one_minus_qk_list(one_minus_q(9).coeffs, 3) == [1, 0, 0, 1, 0, 0, 1]
        assert qpoly._div_one_minus_qk_list(one_minus_q(5).coeffs, 2) is None

    def test_zero_dividend(self):
        assert qpoly._div_one_minus_qk_list([], 4) == []

    def test_dividend_shorter_than_k(self):
        assert qpoly._div_one_minus_qk_list([1], 5) is None

    @given(small_polys, st.integers(1, 30))
    @settings(max_examples=200)
    def test_agrees_with_long_division(self, a, k):
        want = poly_div_exact(a, one_minus_q(k))
        got = qpoly._div_one_minus_qk_list(a.coeffs, k)
        if want is NotDivisible:
            assert got is None
        else:
            assert IntPolynomial(got) == want

    @given(small_polys, st.integers(1, 12))
    def test_roundtrip(self, a, k):
        assert qpoly._div_one_minus_qk_list(poly_mul(a, one_minus_q(k)).coeffs, k) == list(a.coeffs)


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
    # the in-place reference kernels of the PackedSeries steps, against
    # poly_mul and the schoolbook poly_div_exact

    @given(st.lists(mul_coeffs, max_size=30), size_and_step())
    @example([BIG, -1, 0, 1, -(BIG << 10)], (4, 4))
    @example([1, 1, 1], (3, 2))
    @example([], (0, 1))
    def test_mul_matches_untruncated(self, a, size_step):
        size, m = size_step
        series = _truncated(a, size)
        mul_one_minus_qm_series(series, m)
        assert series == _truncated(poly_mul(IntPolynomial(a), one_minus_q(m)).coeffs, size)

    @given(st.lists(mul_coeffs, max_size=30), size_and_step())
    @example([BIG, -1, 0, 1, -(BIG << 10)], (6, 6))
    @example([1, -1, 0, 1], (5, 4))
    @example([3, -1, 4, 1, -5, 9], (7, 3))  # blocks of 3 from 3, the last one partial
    @example([2, -7, 1, 8, 2, 8], (9, 3))  # k*k == size: a prefix sum per class
    @example([], (0, 1))
    def test_div_matches_untruncated(self, b, size_step):
        size, k = size_step
        a = poly_mul(IntPolynomial(b), one_minus_q(k))
        assert poly_div_exact(a, one_minus_q(k)) == IntPolynomial(b)
        series = _truncated(a.coeffs, size)
        div_one_minus_qk_series(series, k)
        assert series == _truncated(b, size)

    @given(st.lists(mul_coeffs, max_size=30), size_and_step())
    @example([1, 2, 3, 4, 5], (20, 5))  # k*k > size, no quotient
    def test_div_of_any_series_multiplies_back(self, a, size_step):
        # the power series quotient exists whether or not a polynomial does
        size, k = size_step
        series = _truncated(a, size)
        div_one_minus_qk_series(series, k)
        back = poly_mul(IntPolynomial(series), one_minus_q(k)).coeffs
        assert _truncated(back, size) == _truncated(a, size)


@st.composite
def list_step_cases(draw):
    """(coeffs, k): coeffs divisible by (1 - q^k) or arbitrary, k up to past the length."""
    k = draw(st.integers(1, 40))
    coeffs = draw(st.lists(mul_coeffs, max_size=30))
    if draw(st.booleans()):
        coeffs = list(poly_mul(IntPolynomial(coeffs), one_minus_q(k)).coeffs)
    return coeffs, k


class TestListKernels:
    # the exact list steps that expand, the crosscheck's row and the
    # cyclotomic polynomials run, against poly_mul and poly_div_exact

    @given(st.lists(mul_coeffs, max_size=30), st.integers(1, 40))
    @example([], 3)
    @example([BIG << 10, 0, -1], 5)
    @example([3, -1, 4, 1, -5], 4)  # m == len - 1
    @example([3, -1, 4, 1, -5], 5)  # m == len
    @example([3, -1, 4, 1, -5], 6)  # m == len + 1
    def test_mul_matches_poly_mul(self, a, m):
        got = qpoly._mul_one_minus_qm_list(a, m)
        assert len(got) == (len(a) + m if a else 0)
        assert IntPolynomial(got) == poly_mul(IntPolynomial(a), one_minus_q(m))

    @given(list_step_cases())
    @example(([], 4))
    @example(([1, 0, 0, -1], 3))  # k == len - 1
    @example(([1, 2, 3], 3))  # k >= len, not divisible
    @example(([0, 0, 0], 7))  # k >= len, the zero polynomial
    @example(([1, 2, 3, 4, 5, 6, 7, 8, 9, -1, -2, -3, -4, -5, -6, -7, -8, -9], 9))  # k*k > len
    @example(([1, 2, 3, 4, 5, 6, 7, 8, 9, -1, -2, -3, -4, -5, -6, -7, -8, -8], 9))
    @example(([BIG << 10, 1, -1, -(BIG << 10), -1, 1], 3))
    @example(([1, 0, 0, -1, -1, 0, 0, 1], 2))  # (1-q^4)(1-q^3)/(1-q^2)
    @example(([1, 0, 0, 0, 0, -1], 2))  # (1-q^5)/(1-q^2), not divisible
    @example(([1], 5))  # k past the length, not divisible
    @example(([1, 2, 3, 3, 3, -3, -4, -5], 3))  # k*k == len + 1, the last block partial
    @example(([1, 2, 3, 3, 3, -3, -4, -4], 3))  # the same, not divisible
    def test_div_matches_poly_div_exact(self, case):
        a, k = case
        want = poly_div_exact(IntPolynomial(a), one_minus_q(k))
        got = qpoly._div_one_minus_qk_list(a, k)
        if want is NotDivisible:
            assert got is None
        else:
            assert len(got) == max(len(a) - k, 0)
            assert IntPolynomial(got) == want


@st.composite
def packable(draw, sum_fits=False):
    """(digits, width): 4..130 bits and 1..64 digits, each below 2^(width-2)
    in absolute value; with sum_fits their sum too, one digit as wide as
    that allows."""
    width = draw(st.integers(4, 130))
    room = (1 << (width - 2)) - 1
    length = draw(st.integers(1, 64))
    share = room // length if sum_fits else room
    digit = st.one_of(st.integers(-share, share), st.sampled_from([0, share, -share]))
    digits = draw(st.lists(digit, min_size=length, max_size=length))
    if sum_fits:
        i = draw(st.integers(0, length - 1))
        digits[i] = draw(st.sampled_from([1, -1])) * (room - share * (length - 1))
    return digits, width


@st.composite
def one_negative(draw):
    """(digits, width) with one negative digit: the first, the last or any."""
    width = draw(st.integers(4, 130))
    room = (1 << (width - 2)) - 1
    digits = draw(st.lists(st.integers(0, room), min_size=1, max_size=64))
    i = draw(st.sampled_from([0, len(digits) - 1]) | st.integers(0, len(digits) - 1))
    digits[i] = draw(st.sampled_from([-room, -1]) | st.integers(-room, -1))
    return digits, width


class TestPackedSeries:
    # the packed chain of the Conjecture 1 sweep: its digits read back,
    # and its checks agree with those on the unpacked coefficients

    @given(packable())
    @example(([-1], 4))
    @example(([3, -3, 0, -3, 3], 4))
    @example(([2**128 - 1, -(2**128 - 1)], 130))
    def test_round_trip(self, case):
        digits, width = case
        s = packed(digits, width)
        assert s.coeffs == digits
        assert s.top_digit() == digits[-1]
        assert s.cut(1).coeffs == digits[:1]

    @given(packable() | one_negative())
    @example(([0, 0, -1], 4))
    @example(([-3], 4))
    @example(([-1, 3, 3], 130))
    def test_nonnegativity_matches_the_polynomial(self, case):
        digits, width = case
        got = nonnegativity(packed(digits, width))
        assert got == nonnegativity(IntPolynomial(digits))

    @given(packable(sum_fits=True))
    @example(([-3], 4))
    @example(([1, -3, 1], 4))
    @example(([-(2**128 - 1), 0], 130))
    def test_digit_sum_is_exact(self, case):
        digits, width = case
        assert packed(digits, width).digit_sum() == sum(digits)

    @given(
        st.lists(mul_coeffs, min_size=1, max_size=40),
        st.lists(st.tuples(st.booleans(), st.integers(1, 45)), max_size=8),
    )
    @example([1] * 10, [(True, 1)] * 8)
    def test_steps_match_the_series_kernels(self, a, steps):
        # exact mod 2^(width length): only the final digits have to fit
        series = list(a)
        for divide, j in steps:
            (div_one_minus_qk_series if divide else mul_one_minus_qm_series)(series, j)
        width = max(max(map(abs, series)), abs(sum(series))).bit_length() + 2
        s = packed(a, width)
        for divide, j in steps:
            (s.div_one_minus_qk if divide else s.mul_one_minus_qm)(j)
        assert s.coeffs == series
        assert s.digit_sum() == sum(series)
        assert s.cut(len(a) // 2 + 1).coeffs == series[: len(a) // 2 + 1]


def test_divisors_match_trial_division():
    for n in range(1, 501):
        got = qpoly._divisors(n)
        assert isinstance(got, tuple)
        assert got == tuple(d for d in range(1, n + 1) if n % d == 0)


def _trial_mobius(n: int) -> int:
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def test_mobius_matches_trial_factorization():
    for n in range(1, 501):
        assert qpoly._mobius(n) == _trial_mobius(n), n


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == IntPolynomial([-1, 1])
        assert cyclotomic(2) == IntPolynomial([1, 1])
        assert cyclotomic(3) == IntPolynomial([1, 1, 1])
        assert cyclotomic(4) == IntPolynomial([1, 0, 1])
        assert cyclotomic(6) == IntPolynomial([1, -1, 1])
        assert cyclotomic(12) == IntPolynomial([1, 0, -1, 0, 1])

    def test_degree_is_euler_phi(self):
        # phi via direct count; independent of the divisor recursion
        for d in range(1, 80):
            phi = sum(1 for r in range(1, d + 1) if _gcd(r, d) == 1)
            assert cyclotomic(d).degree == phi

    def test_product_over_divisors(self):
        # q^n - 1 = prod over d | n of C_d, for every n, fixes each C_d
        for n in range(1, 301):
            prod = IntPolynomial([1])
            for d in qpoly._divisors(n):
                prod = poly_mul(prod, cyclotomic(d))
            assert prod == IntPolynomial([-1] + [0] * (n - 1) + [1])

    def test_q_int_cyclotomic_factorization(self):
        # [m] carries every C_d with d | m, d >= 2, and no C_1
        for m in (1, 2, 3, 8, 12, 30):
            prod = IntPolynomial([1])
            for d in qpoly._divisors(m):
                if d >= 2:
                    prod = poly_mul(prod, cyclotomic(d))
            assert prod == IntPolynomial([1] * m)

    def test_private_cache_isolated(self):
        cache = CyclotomicCache()
        assert len(cache) == 0
        p = cyclotomic(10, cache)
        assert p == IntPolynomial([1, -1, 1, -1, 1])
        assert 10 in cache and len(cache) == 1

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
    @given(st.integers(1, 40))
    def test_geometric_identity(self, m):
        assert poly_mul(IntPolynomial([1] * m), one_minus_q(1)) == one_minus_q(m)


def gaussian_row(n: int) -> list:
    """G(n, 0..n) as `check n k 0` expands them, checked against the
    crosscheck's exact row for k <= n/2."""
    row = [expand(from_quotient_spec(QuotientSpec(n, k, 0))) for k in range(n + 1)]
    assert [p for _, _, p in quotient_expansions(n, [0])] == row[: n // 2 + 1]
    return row


class TestQBinomial:
    # the Gaussian binomials of the two production routes

    def test_examples(self):
        assert gaussian_row(4)[2] == IntPolynomial([1, 1, 2, 1, 1])
        assert gaussian_row(6)[1] == IntPolynomial([1, 1, 1, 1, 1, 1])
        assert gaussian_row(5)[5] == IntPolynomial([1])
        assert gaussian_row(5)[0] == IntPolynomial([1])

    def test_matches_pascal_oracle(self):
        for n, row in enumerate(gaussian_rows(24)):
            assert gaussian_row(n) == row, n

    def test_both_pascal_recurrences(self):
        prev = gaussian_row(0)
        for n in range(1, 20):
            row = gaussian_row(n)
            for k in range(1, n):
                below, above = prev[k - 1].coeffs, prev[k].coeffs
                assert row[k] == IntPolynomial(add_coeffs(below, (0,) * k + above))
                assert row[k] == IntPolynomial(add_coeffs((0,) * (n - k) + below, above))
            prev = row

    def test_symmetry(self):
        for n in range(18):
            row = gaussian_row(n)
            assert row == row[::-1], n

    def test_q_equals_one_is_binomial_coefficient(self):
        for n in range(30):
            for k, p in enumerate(gaussian_row(n)):
                assert horner(p, 1) == comb(n, k)

    def test_coefficients_nonnegative(self):
        for n in range(22):
            for p in gaussian_row(n):
                assert all(c >= 0 for c in p.coeffs)

    def test_degree(self):
        for n in range(16):
            for k, p in enumerate(gaussian_row(n)):
                assert p.degree == k * (n - k)
