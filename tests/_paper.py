"""Closed forms of the paper that the tests check against brute force.

None of them is called by the package.  thm8_exponent and thm9_exponent
are the cyclotomic exponents of Theorems 8 and 9, checked against
_reference.cyclotomic_exponent; lemma5_expression is Lemma 5's
[ab][gamma]/([a][b]), checked nonnegative by expansion; case_classify
is the divisibility classifier of Case 4, checked against is_polynomial.
"""

from collections import namedtuple

from qpositivity.qexpr import FactoredQExpression

#: A successful divisibility assignment; K and M only on lemma6-A/lemma6-B.
Case4Pattern = namedtuple("Case4Pattern", "label assignment K M", defaults=(None, None))


def thm8_exponent(n: int, k: int, d: int) -> int:
    """Exponent of C_d in [n-1]!/([k]![n-k]!), d >= 1."""
    chi = 1 if d == 1 else 0
    return (n - 1) // d - k // d - (n - k) // d + chi


def thm9_exponent(n: int, k: int, d: int) -> int:
    """Exponent of C_d in [2]![n-2]!/([k]![n-k]!), d >= 1."""
    chi = 2 if d == 1 else (1 if d == 2 else 0)
    return (n - 2) // d - k // d - (n - k) // d + chi


def lemma5_expression(a: int, b: int, gamma: int) -> FactoredQExpression:
    """[ab][gamma]/([a][b]), for gcd(a, b) = 1 and gamma >= (a-1)(b-1), gamma >= 1.

    >>> str(lemma5_expression(3, 4, 6))
    '[6][12]/([3][4])'
    """
    return FactoredQExpression([(a * b, 1), (gamma, 1), (a, -1), (b, -1)])


def _shares(assignment, d1: int, d2: int) -> tuple:
    return tuple(a for a in assignment[d1] if a in assignment[d2])


def case_classify(n: int, k: int, l: int) -> "Case4Pattern | None":
    """Divisibility pattern of the quotient (n, k, l), l in k-1..k-3 and 2k <= n.

    The quotient is [n-k+1]..[n-l] over [l+1]..[k].  It is a polynomial
    exactly when each denominator argument divides a numerator argument
    and, for even k at l = k-3, n is odd; None when it is not.  The label
    is the most specific subcase; lemma6-A/lemma6-B recover the (K, M) of
    the families of criteria.lemma6_expression.

    >>> case_classify(11, 3, 2).label
    'distinct-factors'
    >>> case_classify(19, 4, 1).label
    'lemma6-A'
    >>> case_classify(12, 3, 2) is None
    True
    """
    divisors = range(k, l, -1)
    args = [n - k + i for i in range(1, k - l + 1)]
    assignment = {d: tuple(a for a in args if a % d == 0) for d in divisors}
    if not all(assignment.values()):
        return None

    if k - l < 3:
        # one or two coprime divisors; the only sharing pair is (k, k-1)
        if k - l == 2 and _shares(assignment, k, k - 1):
            return Case4Pattern("two-share-coprime", assignment)
        return Case4Pattern("distinct-factors", assignment)

    n1, n2, n3 = args
    even = k % 2 == 0
    if even and n % 2 == 0:
        # both of k, k-2 are even but the numerator has only one even slot
        return None

    if even:
        K = k // 2
        lcm_even = K * (2 * K - 2)
        if n1 % lcm_even == 0 and n3 % (k - 1) == 0:
            m = n1 // lcm_even
            if m >= 4 and (m - 4) % (2 * K - 1) == 0:
                return Case4Pattern("lemma6-A", assignment, K, (m - 4) // (2 * K - 1))
        if K >= 3 and n3 % lcm_even == 0 and n1 % (k - 1) == 0:
            m = n3 // lcm_even
            if m >= 2 * K - 5 and (m - (2 * K - 5)) % (2 * K - 1) == 0:
                return Case4Pattern("lemma6-B", assignment, K, (m - (2 * K - 5)) // (2 * K - 1))

    if set(assignment[k]) & set(assignment[k - 1]) & set(assignment[k - 2]):
        return Case4Pattern("all-three-even-k" if even else "all-three-odd-k", assignment)

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
