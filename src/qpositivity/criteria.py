"""Closed-form polynomiality criteria and named expression families.

Everything here is a formula or a construction that the brute-force
machinery in qexpr can check independently: gcd criteria against actual
expansion verdicts, closed-form degrees against net degrees, classifier
labels against cyclotomic exponents.  Only rational_q_catalan calls the
expansion engine, and it is the brute-force side of its comparison: it
expands and never consults the gcd criterion.
"""

from __future__ import annotations

import dataclasses
import enum
from math import gcd

from .qexpr import FactoredQExpression, expand, from_factorials


class _NotPolynomialPatternType:
    """Classifier verdict: no divisibility assignment exists.  Falsy singleton."""

    _instance = None

    def __new__(cls) -> "_NotPolynomialPatternType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotPolynomialPattern"

    def __bool__(self) -> bool:
        return False


NotPolynomialPattern = _NotPolynomialPatternType()

#: Subcase labels, most specific first; classification returns the first match.
CASE_LABELS = (
    "lemma6-A",
    "lemma6-B",
    "all-three-even-k",
    "all-three-odd-k",
    "two-share-even-A",
    "two-share-even-B",
    "two-share-coprime",
    "distinct-factors",
)


@dataclasses.dataclass
class Case4Pattern:
    """A successful divisibility assignment for a near-diagonal quotient.

    assignment maps each denominator-side divisor (k, k-1, ... down to l+1)
    to the tuple of numerator arguments it divides; every tuple is nonempty.
    K and M are set exactly when the label is lemma6-A or lemma6-B.
    """

    label: str
    assignment: dict[int, tuple[int, ...]]
    K: "int | None" = None
    M: "int | None" = None

    def __post_init__(self) -> None:
        assert self.label in CASE_LABELS
        assert (self.K is None) == (self.M is None) == (not self.label.startswith("lemma6"))


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


def thm8_exponent(n: int, k: int, d: int) -> int:
    """Closed-form exponent of C_d in [n-1]!/([k]![n-k]!), d >= 1."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    chi = 1 if d == 1 else 0
    return (n - 1) // d - k // d - (n - k) // d + chi


def thm9_exponent(n: int, k: int, d: int) -> int:
    """Closed-form exponent of C_d in [2]![n-2]!/([k]![n-k]!), d >= 1.

    For d = 2 this equals the reduced form n//2 - k//2 - (n-k)//2.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    chi = 2 if d == 1 else (1 if d == 2 else 0)
    return (n - 2) // d - k // d - (n - k) // d + chi


def lemma5_applicable(a: int, b: int, gamma: int) -> bool:
    """Whether (a, b, gamma) meets the coprimality and threshold hypothesis.

    >>> lemma5_applicable(3, 4, 6)
    True
    >>> lemma5_applicable(3, 4, 5)
    False
    >>> lemma5_applicable(2, 4, 10)
    False
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    return gcd(a, b) == 1 and gamma >= (a - 1) * (b - 1)


def lemma5_expression(a: int, b: int, gamma: int) -> FactoredQExpression:
    """The factored form [ab][gamma]/([a][b]).

    Requires lemma5_applicable and gamma >= 1: the gamma = 0 corner (legal
    for the hypothesis when a = 1 or b = 1) would denote the zero
    polynomial [0], which a factored q-integer product cannot represent.

    >>> str(lemma5_expression(3, 4, 6))
    '[6][12]/([3][4])'
    >>> str(lemma5_expression(1, 1, 7))
    '[7]'
    """
    if not lemma5_applicable(a, b, gamma):
        raise ValueError(f"({a}, {b}, {gamma}) does not satisfy the hypothesis")
    if gamma < 1:
        raise ValueError("gamma must be at least 1 to denote a nonzero product")
    return FactoredQExpression([(a * b, 1), (gamma, 1), (a, -1), (b, -1)])


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


def _shares(assignment: dict[int, tuple[int, ...]], d1: int, d2: int) -> tuple[int, ...]:
    return tuple(a for a in assignment[d1] if a in assignment[d2])


def case_classify(n: int, k: int, l: int) -> "Case4Pattern | _NotPolynomialPatternType":
    """Divisibility-pattern classification of a near-diagonal quotient.

    For l in {k-1, k-2, k-3} the quotient reduces to the ratio of at most
    three consecutive numerator q-integers n-k+1 .. n-k+(k-l) over the
    denominator q-integers l+1 .. k.  It is a polynomial exactly when each
    denominator-side divisor divides one of the numerator arguments and,
    for even k at l = k-3, the even slots line up (n odd).  The returned
    label is the most specific matching subcase; labels involving K and M
    detect the parametrized three-factor families of lemma6_expression.

    >>> case_classify(11, 3, 2).label
    'distinct-factors'
    >>> case_classify(19, 4, 1).label
    'lemma6-A'
    >>> case_classify(12, 3, 2)
    NotPolynomialPattern
    """
    if not (1 <= l < k and 2 * k <= n):
        raise ValueError(f"(n={n}, k={k}, l={l}) outside 1 <= l < k <= n/2")
    if k - l not in (1, 2, 3):
        raise ValueError("l must be one of k-1, k-2, k-3")

    divisors = list(range(k, l, -1))
    args = [n - k + i for i in range(1, k - l + 1)]
    assignment = {d: tuple(a for a in args if a % d == 0) for d in divisors}
    if any(not hits for hits in assignment.values()):
        return NotPolynomialPattern

    if k - l < 3:
        # one or two coprime divisors; the only sharing pair is (k, k-1)
        if k - l == 2 and _shares(assignment, k, k - 1):
            return Case4Pattern("two-share-coprime", assignment)
        return Case4Pattern("distinct-factors", assignment)

    n1, n2, n3 = args
    even = k % 2 == 0
    if even and n % 2 == 0:
        # both of k, k-2 are even but the numerator has only one even slot
        return NotPolynomialPattern

    if even:
        K = k // 2
        lcm_even = K * (2 * K - 2)
        if n1 % lcm_even == 0 and n3 % (k - 1) == 0:
            m = n1 // lcm_even
            if m >= 4 and (m - 4) % (2 * K - 1) == 0:
                return Case4Pattern(
                    "lemma6-A", assignment, K=K, M=(m - 4) // (2 * K - 1)
                )
        if K >= 3 and n3 % lcm_even == 0 and n1 % (k - 1) == 0:
            m = n3 // lcm_even
            if m >= 2 * K - 5 and (m - (2 * K - 5)) % (2 * K - 1) == 0:
                return Case4Pattern(
                    "lemma6-B", assignment, K=K, M=(m - (2 * K - 5)) // (2 * K - 1)
                )

    if set(assignment[k]) & set(assignment[k - 1]) & set(assignment[k - 2]):
        label = "all-three-even-k" if even else "all-three-odd-k"
        return Case4Pattern(label, assignment)

    if even:
        shared = _shares(assignment, k, k - 2)
        if shared:
            label = "two-share-even-A" if n1 in shared else "two-share-even-B"
            return Case4Pattern(label, assignment)
        coprime_pairs = ((k, k - 1), (k - 1, k - 2))
    else:
        coprime_pairs = ((k, k - 1), (k - 1, k - 2), (k, k - 2))

    if any(_shares(assignment, d1, d2) for d1, d2 in coprime_pairs):
        return Case4Pattern("two-share-coprime", assignment)
    return Case4Pattern("distinct-factors", assignment)


def rational_q_catalan(n: int, k: int):
    """Expansion of [n-1]!/([k]![n-k]!), or NotDivisible.

    Decided by actual expansion, not by the gcd criterion, so the two
    stay independently comparable.

    >>> rational_q_catalan(5, 2)
    IntPolynomial(1 + q^2)
    >>> rational_q_catalan(4, 2)
    NotDivisible
    >>> rational_q_catalan(9, 1)
    IntPolynomial(1)
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")
    return expand(from_factorials((n - 1,), (k, n - k)))


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
