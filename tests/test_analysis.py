"""Tests for coefficient-level property checks."""

import doctest

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpositivity.analysis as analysis
from _reference import gaussian_rows
from qpositivity.analysis import (
    is_parity_unimodal,
    is_reciprocal,
    is_unimodal,
    nonnegativity,
    order_of,
    property_record,
)
from qpositivity.qexpr import QuotientSpec, expand, from_quotient_spec
from qpositivity.qpoly import IntPolynomial

polys = st.lists(st.integers(-9, 9), max_size=20).map(IntPolynomial)


def test_doctests():
    failures, _ = doctest.testmod(analysis)
    assert failures == 0


class TestNonnegativity:
    def test_zero_polynomial(self):
        assert nonnegativity(IntPolynomial([])) == (True, None)

    def test_reports_smallest_offending_exponent(self):
        ok, first = nonnegativity(IntPolynomial([1, 3, -2, -7, 1]))
        assert not ok and first == (2, -2)

    @given(polys)
    def test_consistent_with_min(self, p):
        ok, first = nonnegativity(p)
        assert ok == all(c >= 0 for c in p.coeffs)
        if not ok:
            i, c = first
            assert p.coeffs[i] == c < 0
            assert all(x >= 0 for x in p.coeffs[:i])


class TestReciprocal:
    def test_examples(self):
        assert is_reciprocal(IntPolynomial([1]))
        assert is_reciprocal(IntPolynomial([1, 0, 0, 1]))
        assert not is_reciprocal(IntPolynomial([1, 1, 0, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_reciprocal(IntPolynomial([]))

    def test_gaussian_polynomials_are_reciprocal(self):
        for n, row in enumerate(gaussian_rows(15)):
            for k, g in enumerate(row):
                p = expand(from_quotient_spec(QuotientSpec(n, k, 0)))
                assert p == g and is_reciprocal(p), (n, k)


class TestUnimodal:
    def test_footnote_example(self):
        # 1 + q^3 fails plain unimodality but passes the parity version
        p = IntPolynomial([1, 0, 0, 1])
        assert not is_unimodal(p)
        assert is_parity_unimodal(p)

    def test_vacuous_cases(self):
        assert is_unimodal(IntPolynomial([]))
        assert is_unimodal(IntPolynomial([4]))
        assert is_parity_unimodal(IntPolynomial([]))

    def test_plateaus_allowed(self):
        assert is_unimodal(IntPolynomial([0, 1, 2, 2, 2, 1]))

    def test_negative_endpoint_fails(self):
        assert not is_unimodal(IntPolynomial([-1, 2, 1]))
        assert not is_unimodal(IntPolynomial([1, 2, -1]))

    def test_negative_dip_fails_parity(self):
        assert not is_parity_unimodal(IntPolynomial([1, 0, -1, 0, 1]))

    def test_gaussian_polynomials_are_unimodal(self):
        for n, row in enumerate(gaussian_rows(17)):
            for k, g in enumerate(row):
                p = expand(from_quotient_spec(QuotientSpec(n, k, 0)))
                assert p == g and is_unimodal(p), (n, k)

    @given(polys)
    def test_unimodal_implies_parity_unimodal_for_nonnegative(self, p):
        # with all coefficients >= 0, a rise-fall shape survives subsampling
        q = IntPolynomial([abs(c) for c in p.coeffs])
        if is_unimodal(q):
            assert is_parity_unimodal(q)

    @given(polys)
    def test_brute_force_definition(self, p):
        cs = p.coeffs
        brute = any(
            all(cs[i] <= cs[i + 1] for i in range(r))
            and all(cs[i] >= cs[i + 1] for i in range(r, len(cs) - 1))
            for r in range(max(len(cs), 1))
        ) and all(c >= 0 for c in (cs[0], cs[-1])) if cs else True
        assert is_unimodal(p) == brute


class TestOrder:
    def test_examples(self):
        assert order_of(IntPolynomial([5])) == 0
        assert order_of(IntPolynomial([0, 0, -3, 1])) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            order_of(IntPolynomial([]))


class TestPropertyRecord:
    def test_full_record(self):
        rec = property_record(IntPolynomial([0, 1, 2, 1, 0, 0]))
        assert rec.nonnegative and rec.first_negative is None
        assert not rec.reciprocal
        assert rec.unimodal and rec.parity_unimodal
        assert rec.order == 1 and rec.degree == 3

    def test_violation_record(self):
        rec = property_record(IntPolynomial([1, 0, -1, 0, 1]))
        assert not rec.nonnegative
        assert rec.first_negative == (2, -1)
        assert rec.reciprocal
        assert not rec.unimodal and not rec.parity_unimodal

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            property_record(IntPolynomial([]))
