"""Closed-form polynomiality criteria and named expression families.

These are the formulas the verifier runs.  Each one is something the
brute-force machinery in qexpr can check independently: gcd criteria
against actual expansion verdicts, closed-form degrees against net
degrees.  None of them calls the expansion engine.
"""

from __future__ import annotations

import enum
from math import gcd

from .qexpr import FactoredQExpression


class Lemma6Variant(enum.Enum):
    VariantA = "A"
    VariantB = "B"


def thm8_is_polynomial(n: int, k: int) -> bool:
    """Whether [n-1]!/([k]![n-k]!) is a polynomial: gcd(k, n-k) = 1.

    The ends k = 0 and k = n are trivially polynomial by normalization and
    are answered True without consulting the gcd formula.

    >>> thm8_is_polynomial(5, 2)
    True
    >>> thm8_is_polynomial(12, 2)
    False
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")
    if k in (0, n):
        return True
    return gcd(k, n - k) == 1


def thm9_is_polynomial(n: int, k: int) -> bool:
    """Whether [2]![n-2]!/([k]![n-k]!) is a polynomial.

    The criterion: each of gcd(k, n-k), gcd(k, n-k-1), gcd(k-1, n-k) is
    1 or 2.  Contracted for 2 <= k <= n-2 only.

    >>> thm9_is_polynomial(8, 3)
    True
    >>> thm9_is_polynomial(9, 4)
    False
    """
    if not 2 <= k <= n - 2:
        raise ValueError("k must lie in 2..n-2")
    return all(
        g <= 2 for g in (gcd(k, n - k), gcd(k, n - k - 1), gcd(k - 1, n - k))
    )


def lemma6_expression(K: int, M: int, variant: Lemma6Variant) -> FactoredQExpression:
    """One member of the two three-factor families over [2K][2K-1][2K-2].

    VariantA (K >= 2): numerator arguments X, X+1, X+2 with
    X = 4K(2K-2) + MK(2K-1)(2K-2).
    VariantB (K >= 3): numerator arguments X-2, X-1, X with
    X = K(2K-5)(2K-2) + MK(2K-1)(2K-2).

    >>> str(lemma6_expression(2, 0, Lemma6Variant.VariantA))
    '[16][17][18]/([2][3][4])'
    >>> str(lemma6_expression(3, 0, Lemma6Variant.VariantB))
    '[10][11][12]/([4][5][6])'
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if variant is Lemma6Variant.VariantA:
        if K < 2:
            raise ValueError("VariantA requires K >= 2")
        x = 4 * K * (2 * K - 2) + M * K * (2 * K - 1) * (2 * K - 2)
        numerator = (x, x + 1, x + 2)
    elif variant is Lemma6Variant.VariantB:
        if K < 3:
            raise ValueError("VariantB requires K >= 3")
        x = K * (2 * K - 5) * (2 * K - 2) + M * K * (2 * K - 1) * (2 * K - 2)
        numerator = (x - 2, x - 1, x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    factors = [(m, 1) for m in numerator]
    factors += [(2 * K, -1), (2 * K - 1, -1), (2 * K - 2, -1)]
    return FactoredQExpression(factors)


def lemma6_degree(K: int, M: int) -> int:
    """Closed-form expansion degree of the VariantA member.

    >>> lemma6_degree(2, 0)
    42
    >>> lemma6_degree(2, 1)
    78
    >>> lemma6_degree(3, 0)
    132
    """
    if K < 2:
        raise ValueError("requires K >= 2")
    return 24 * K * (K - 1) + 6 * M * K * (K - 1) * (2 * K - 1) - 6 * K + 6


def lemma6_order_bound(K: int, M: int) -> int:
    """Closed-form order bound; strictly exceeds lemma6_degree(K, M)/2.

    >>> lemma6_order_bound(2, 0)
    32
    >>> lemma6_order_bound(3, 0)
    94
    """
    if K < 2:
        raise ValueError("requires K >= 2")
    return 16 * K * K - 18 * K + 4 + 4 * M * K * (K - 1) * (2 * K - 1)


def corollary10_expression(n: int) -> FactoredQExpression:
    """The factored even/odd q-integer quotient with 3n factors per side.

    Numerator [2j] for j = 1..3n; denominator [j] for j = 2..2n+1 together
    with [2j] for j = 2..n+1.

    >>> str(corollary10_expression(1))
    '[6]/[3]'
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    factors = [(2 * j, 1) for j in range(1, 3 * n + 1)]
    factors += [(j, -1) for j in range(2, 2 * n + 2)]
    factors += [(2 * j, -1) for j in range(2, n + 2)]
    return FactoredQExpression(factors)
