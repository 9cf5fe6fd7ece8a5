"""Coefficient-level properties of expanded polynomials.

These checks are deliberately separate from expansion: sweeps decide
polynomiality and nonnegativity in bulk, and only the interesting cases
pay for the full property record.
"""

from __future__ import annotations

import dataclasses
from itertools import compress, count
from operator import ge, gt

from .qpoly import IntPolynomial, PackedSeries


@dataclasses.dataclass(frozen=True)
class PropertyRecord:
    """Summary of the standard coefficient properties of one polynomial.

    first_negative is the (exponent, coefficient) of the smallest-exponent
    negative coefficient, present exactly when nonnegative is False.
    """

    nonnegative: bool
    first_negative: "tuple[int, int] | None"
    reciprocal: bool
    unimodal: bool
    parity_unimodal: bool
    order: int
    degree: int


def nonnegativity(
    p: "IntPolynomial | PackedSeries",
) -> "tuple[bool, tuple[int, int] | None]":
    """Whether all coefficients are nonnegative, with the first offender.

    A packed series is read as it stands, by the top bit of each field.

    >>> nonnegativity(IntPolynomial([1, 2, 3]))
    (True, None)
    >>> nonnegativity(IntPolynomial([1, 0, -2, -5]))
    (False, (2, -2))
    >>> nonnegativity(PackedSeries(0xFAFE0001, 8, 4))
    (False, (2, -2))
    """
    if isinstance(p, PackedSeries):
        first = p.first_negative()
        return first is None, first
    # min() runs at C speed; the offender is located only on failure
    if min(p.coeffs, default=0) >= 0:
        return True, None
    for i, c in enumerate(p.coeffs):
        if c < 0:
            return False, (i, c)


def is_reciprocal(p: IntPolynomial) -> bool:
    """Whether the coefficient vector reads the same in both directions.

    The zero polynomial has no degree to mirror around; asking is a bug.

    >>> is_reciprocal(IntPolynomial([1, 0, 2, 0, 1]))
    True
    >>> is_reciprocal(IntPolynomial([1, 1, 2]))
    False
    """
    if not p.coeffs:
        raise ValueError("reciprocality is undefined for the zero polynomial")
    return p.coeffs == p.coeffs[::-1]


def _unimodal_sequence(cs) -> bool:
    # nonneg endpoints plus rise-then-fall; interior nonnegativity follows.
    # The peak is the first i with cs[i] > cs[i+1], and nothing after it
    # may rise; both passes run at C speed.
    if not cs:
        return True
    peak = next(compress(count(), map(gt, cs, cs[1:])), len(cs) - 1)
    return all(map(ge, cs[peak:], cs[peak + 1 :])) and cs[0] >= 0 and cs[-1] >= 0


def is_unimodal(p: IntPolynomial) -> bool:
    """Whether the coefficients rise to a peak and then fall, staying >= 0.

    Internal zero coefficients count as entries, so 1 + q^3 is not
    unimodal.  The zero polynomial and constants are vacuously unimodal.

    >>> is_unimodal(IntPolynomial([1, 2, 2, 1]))
    True
    >>> is_unimodal(IntPolynomial([1, 0, 0, 1]))
    False
    """
    return _unimodal_sequence(p.coeffs)


def is_parity_unimodal(p: IntPolynomial) -> bool:
    """Whether the even-index and odd-index coefficients are each unimodal.

    >>> is_parity_unimodal(IntPolynomial([1, 0, 0, 1]))
    True
    >>> is_parity_unimodal(IntPolynomial([1, 0, -1, 0, 1]))
    False
    """
    return _unimodal_sequence(p.coeffs[0::2]) and _unimodal_sequence(p.coeffs[1::2])


def order_of(p: IntPolynomial) -> int:
    """The least exponent with a nonzero coefficient.

    >>> order_of(IntPolynomial([0, 0, 5, 1]))
    2
    """
    for i, c in enumerate(p.coeffs):
        if c:
            return i
    raise ValueError("order is undefined for the zero polynomial")


def property_record(p: IntPolynomial) -> PropertyRecord:
    """The full property summary of a nonzero polynomial."""
    nonneg, first_neg = nonnegativity(p)
    return PropertyRecord(
        nonnegative=nonneg,
        first_negative=first_neg,
        reciprocal=is_reciprocal(p),
        unimodal=is_unimodal(p),
        parity_unimodal=is_parity_unimodal(p),
        order=order_of(p),
        degree=p.degree,
    )
