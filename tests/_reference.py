"""Schoolbook references that the tests check the fast routes against.

None of them is called by the package.  poly_div_exact is long
division, the reference of the (1 - q^k) kernels; gaussian_rows is the
q-Pascal triangle, sums and shifts without a division, the reference of
the Gaussian binomials that expand and quotient_expansions give;
add_coeffs is the coefficientwise sum the tests write their sums with;
cyclotomic_exponent counts one C_d at a time, the reference of the
exponent profile and of the closed-form exponents of Theorems 8 and 9
in _paper;
factorial_quotient_factors counts tops for each argument, the reference
of from_factorials; packed builds a PackedSeries from its digits, and
mul_one_minus_qm_series and div_one_minus_qk_series step a truncated
series in place, the reference of the PackedSeries steps.
"""

from itertools import accumulate, zip_longest
from operator import add, sub

from qpositivity.qexpr import FactoredQExpression
from qpositivity.qpoly import IntPolynomial, NotDivisible, PackedSeries, _NotDivisibleType


def poly_div_exact(a: IntPolynomial, b: IntPolynomial) -> "IntPolynomial | _NotDivisibleType":
    """Exact quotient over the integers by long division, or NotDivisible.

    Returns c with c*b == a, or NotDivisible when no integer polynomial
    quotient exists.  Division by zero is a contract violation.

    >>> poly_div_exact(IntPolynomial([1, 0, 0, 0, 0, 0, -1]), IntPolynomial([1, 0, 0, -1]))
    IntPolynomial(1 + q^3)
    >>> poly_div_exact(IntPolynomial([1, 0, 0, 0, 0, -1]), IntPolynomial([1, 0, -1]))
    NotDivisible
    """
    if not b.coeffs:
        raise ZeroDivisionError("division of a polynomial by zero")
    if not a.coeffs:
        return IntPolynomial(())
    if len(a.coeffs) < len(b.coeffs):
        return NotDivisible
    rem = list(a.coeffs)
    nb = len(b.coeffs)
    lead = b.coeffs[-1]
    quot = [0] * (len(rem) - nb + 1)
    for i in reversed(range(len(quot))):
        c = rem[i + nb - 1]
        if c % lead:
            return NotDivisible
        qc = c // lead
        quot[i] = qc
        if qc:
            for j, bj in enumerate(b.coeffs):
                rem[i + j] -= qc * bj
    if any(rem):
        return NotDivisible
    return IntPolynomial(quot)


def add_coeffs(a, b) -> list:
    """The coefficientwise sum of two coefficient sequences, as a list.

    >>> add_coeffs((1, 1), [1, -1, 3])
    [2, 0, 3]
    """
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def gaussian_rows(n_max: int) -> list:
    """Rows 0..n_max of the Gaussian binomials, row n holding G(n, 0..n).

    Built by the q-Pascal recurrence G(n,k) = G(n-1,k-1) + q^k G(n-1,k).

    >>> [str(p) for p in gaussian_rows(4)[4]]
    ['1', '1 + q + q^2 + q^3', '1 + q + 2q^2 + q^3 + q^4', '1 + q + q^2 + q^3', '1']
    """
    rows = [[IntPolynomial([1])]]
    for n in range(1, n_max + 1):
        prev = [p.coeffs for p in rows[-1]]
        middle = [IntPolynomial(add_coeffs(prev[k - 1], (0,) * k + prev[k])) for k in range(1, n)]
        rows.append([IntPolynomial([1]), *middle, IntPolynomial([1])])
    return rows


def cyclotomic_exponent(expr: FactoredQExpression, d: int) -> int:
    """Exponent of the cyclotomic polynomial C_d in expr, for d >= 2.

    C_d divides [m] exactly once when d divides m, so the exponent is a
    plain signed count.  d = 1 is excluded: q-integers carry no C_1.
    """
    if d < 2:
        raise ValueError("cyclotomic exponents are defined here for d >= 2")
    return sum(e for m, e in expr.factors if m % d == 0)


def factorial_quotient_factors(numerator_tops, denominator_tops) -> tuple:
    """Canonical factors of prod [t]! / prod [s]!, one argument at a time.

    [m] divides [t]! once for each m <= t, so for each m >= 2 the exponent
    is the number of numerator tops >= m minus the denominator tops >= m.

    >>> factorial_quotient_factors([12, 2, 2], [11, 4, 1])
    ((2, 1), (3, -1), (4, -1), (12, 1))
    """
    factors = []
    for m in range(2, max([*numerator_tops, *denominator_tops], default=0) + 1):
        e = sum(t >= m for t in numerator_tops) - sum(s >= m for s in denominator_tops)
        if e:
            factors.append((m, e))
    return tuple(factors)


def packed(coeffs, width: int) -> PackedSeries:
    """The PackedSeries of the digits coeffs, each field width bits wide.

    >>> hex(packed([1, 2, 3, 4], 8).value), packed([1, 0, -2, -5], 8).coeffs
    ('0x4030201', [1, 0, -2, -5])
    """
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return PackedSeries(value, width, len(coeffs))


def mul_one_minus_qm_series(coeffs: list, m: int) -> None:
    """In place: the power series coeffs times (1 - q^m), truncated to its length.

    An m at or past the truncation acts as 1.

    >>> s = [1, 2, 3, 4]; mul_one_minus_qm_series(s, 1); s
    [1, 1, 1, 1]
    """
    # map stops at the shorter input, and the slice assignment takes all
    # of its values before it writes, so coeffs is read unchanged
    coeffs[m:] = map(sub, coeffs[m:], coeffs)


def div_one_minus_qk_series(coeffs: list, k: int) -> None:
    """In place: the power series coeffs over (1 - q^k), truncated to its length.

    By c_i = a_i + c_(i-k), in whichever loop takes fewer passes: for
    k*k <= len a prefix sum per residue class mod k, otherwise a slice add
    per block of k terms, the last possibly partial.

    >>> s = [1, 1, 1, 1]; div_one_minus_qk_series(s, 1); s
    [1, 2, 3, 4]
    """
    size = len(coeffs)
    if k * k <= size:
        for r in range(k):
            coeffs[r::k] = accumulate(coeffs[r::k])
    else:
        for i in range(k, size, k):
            coeffs[i : i + k] = map(add, coeffs[i : i + k], coeffs[i - k : i])
