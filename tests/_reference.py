"""Schoolbook references that the tests check the fast routes against.

Neither function is called by the package.  poly_div_exact is long
division, the reference of the (1 - q^k) kernels; cyclotomic_exponent
counts one C_d at a time, the reference of the exponent profile and of
the closed-form exponents of Theorems 8 and 9.
"""

from qpositivity.qexpr import FactoredQExpression
from qpositivity.qpoly import IntPolynomial, NotDivisible, _NotDivisibleType


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


def cyclotomic_exponent(expr: FactoredQExpression, d: int) -> int:
    """Exponent of the cyclotomic polynomial C_d in expr, for d >= 2.

    C_d divides [m] exactly once when d divides m, so the exponent is a
    plain signed count.  d = 1 is excluded: q-integers carry no C_1.
    """
    if d < 2:
        raise ValueError("cyclotomic exponents are defined here for d >= 2")
    return sum(e for m, e in expr.factors if m % d == 0)
