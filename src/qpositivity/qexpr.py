"""Factored quotients of q-integers, and exact expansion to polynomials.

An expression here is a product of q-integers [m] with integer exponents,
kept in a canonical merged form.  Because [m] is the product of the
cyclotomic polynomials C_d over the divisors d >= 2 of m, the whole
question "is this quotient a polynomial" reduces to signs of per-d
exponent sums; expansion, by contrast, is done with genuine polynomial
arithmetic so the two routes stay independently checkable.

Expansion works with (1 - q^m) factors: multiplications and divisions are
interleaved, and a denominator is divided out as soon as the running
product provably contains it.  The bookkeeping only schedules divisions;
every division is performed exactly, and the NotDivisible verdict is
always the outcome of an actual failed division, never of the bookkeeping
alone.

The Conjecture 1 sweep, whose quotients are already known to be
polynomials, expands all of one n's from one chained power series, the
Gaussian binomial row, stepped up k and truncated to the lower half of
the largest degree; at each k a copy of it is stepped up l.  Each step
multiplies by one (1-q^m) factor and divides by one (1-q^j), on a
PackedSeries of one width per n, and each polynomial is read off as the
lower half of a reciprocal polynomial.

The theorem crosscheck, which must find the non-polynomials by a failed
division, reads every F(n,k,l) of one n off one exact Gaussian row on
coefficient lists: G(n,k) stepped up k, and at each k each l stepped from
the last polynomial F(n,k,l') found for that k, G(n,k) at first, by
multiplying by (1-q^(l'+1)) .. (1-q^l) and dividing by (1-q^(n-l')) ..
(1-q^(n-l+1)), the first division that fails giving NotDivisible.

Stanton's reproduction reads every fake Gaussian product F(m) of one
exponent sequence off one chain in m: F(m+1) is F(m) multiplied and
divided by the few (1-q^(m+x)) factors where the sequence changes, and a
failed division gives NotDivisible, after which the next m is expanded
afresh.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import repeat
from operator import itemgetter, sub

from .qpoly import (
    IntPolynomial,
    NotDivisible,
    CyclotomicCache,
    PackedSeries,
    _div_one_minus_qk_list,
    _divisors,
    _mul_one_minus_qm_list,
    cyclotomic,
    poly_mul,
)


@dataclasses.dataclass(frozen=True, init=False)
class FactoredQExpression:
    """A product prod [m]^e in canonical form.

    Factors are (argument, exponent) pairs with strictly increasing
    arguments, nonzero exponents, and arguments >= 2.  Construction sums
    the exponents of equal arguments in one dict, then drops [1] = 1 and
    the zero exponents.  The empty product is the constant 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors=()) -> None:
        merged: dict[int, int] = {}
        for arg, exp in factors:
            if arg < 1:
                raise ValueError(f"q-integer argument must be positive, got {arg}")
            merged[arg] = merged.get(arg, 0) + exp
        merged.pop(1, None)
        object.__setattr__(self, "factors", tuple(sorted(filter(itemgetter(1), merged.items()))))

    @property
    def net_degree(self) -> int:
        """Degree of the expansion if it is a polynomial: sum of e*(m-1)."""
        return sum(e * (m - 1) for m, e in self.factors)

    def __str__(self) -> str:
        def side(pairs: list[tuple[int, int]]) -> str:
            return "".join(f"[{m}]" + (f"^{e}" if e > 1 else "") for m, e in pairs)

        num = [(m, e) for m, e in self.factors if e > 0]
        den = [(m, -e) for m, e in self.factors if e < 0]
        top = side(num) if num else "1"
        if not den:
            return top
        bottom = side(den)
        if len(den) > 1 or den[0][1] > 1:
            bottom = f"({bottom})"
        return f"{top}/{bottom}"

    def __repr__(self) -> str:
        return f"FactoredQExpression({self})"


@dataclasses.dataclass(frozen=True)
class QuotientSpec:
    """Parameters (n, k, l) of a factorial quotient [l]![n-l]!/([k]![n-k]!).

    Pure data; out-of-range combinations are representable so that a
    harness can normalize or reject them explicitly.
    """

    n: int
    k: int
    l: int

    def __str__(self) -> str:
        return f"(n={self.n}, k={self.k}, l={self.l})"


@dataclasses.dataclass(frozen=True, init=False)
class FakeGaussianSpec:
    """Parameters (m, a) of the product prod_i (1-q^(m+i))^(a_i)/(1-q^i)^(a_i)."""

    m: int
    a: tuple[int, ...]

    def __init__(self, m: int, a) -> None:
        a = tuple(a)
        if m < 1:
            raise ValueError("m must be a positive integer")
        if any(x < 0 for x in a):
            raise ValueError("exponent sequence entries must be nonnegative")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)

    @property
    def is_symmetric(self) -> bool:
        return self.a == self.a[::-1]

    def __str__(self) -> str:
        return f"(m={self.m}, a={','.join(map(str, self.a))})"


def from_factorials(numerator_tops, denominator_tops) -> FactoredQExpression:
    """The quotient of q-factorial products prod [t]! / prod [s]!.

    Arguments are the factorial tops, with repetition.  Tops 0 and 1 both
    contribute the empty product.  The exponent of [m] is the number of
    numerator tops >= m minus the number of denominator tops >= m: a step
    function of m, constant between consecutive distinct tops.  So the tops
    are sorted once, and each run of one exponent is emitted in one extend.
    """
    tops = sorted([(t, 1) for t in numerator_tops] + [(s, -1) for s in denominator_tops])
    if tops and tops[0][0] < 0:
        raise ValueError(f"factorial of negative argument [{tops[0][0]}]!")
    factors = []
    running = sum(map(itemgetter(1), tops))  # tops >= m upstairs minus downstairs
    below = 1
    for t, side in tops:
        if t > below:
            if running:
                factors.extend(zip(range(below + 1, t + 1), repeat(running)))
            below = t
        running -= side
    return FactoredQExpression(factors)


def from_quotient_spec(spec: QuotientSpec) -> FactoredQExpression:
    """Canonical factored form of [l]![n-l]!/([k]![n-k]!).

    No normalization is applied: the expression is built literally from
    the four factorials, then canonically merged.

    >>> str(from_quotient_spec(QuotientSpec(11, 3, 2)))
    '[9]/[3]'
    >>> from_quotient_spec(QuotientSpec(9, 4, 4)).factors
    ()
    """
    n, k, l = spec.n, spec.k, spec.l
    if not (0 <= k <= n and 0 <= l <= n):
        raise ValueError(f"spec {spec} has factorial arguments outside 0..n")
    return from_factorials((l, n - l), (k, n - k))


def from_fake_gaussian(spec: FakeGaussianSpec) -> FactoredQExpression:
    """Canonical factored form of prod (1-q^(m+i))^(a_i)/(1-q^i)^(a_i).

    Each ratio (1-q^(m+i))/(1-q^i) equals [m+i]/[i]; the (1-q) factors
    cancel exactly because numerator and denominator have the same total
    multiplicity.
    """
    factors = []
    for i, ai in enumerate(spec.a, start=1):
        if ai:
            factors.append((spec.m + i, ai))
            factors.append((i, -ai))
    return FactoredQExpression(factors)


def _exponent_profile(expr: FactoredQExpression) -> dict[int, int]:
    """All nonzero cyclotomic exponents of expr, for d >= 2, by ascending d."""
    profile = [0] * (expr.factors[-1][0] + 1 if expr.factors else 0)
    for m, e in expr.factors:
        for d in _divisors(m)[1:]:
            profile[d] += e
    return {d: e for d, e in enumerate(profile) if e}


def is_polynomial(expr: FactoredQExpression) -> bool:
    """Whether expr expands to a polynomial.

    True exactly when no cyclotomic exponent is negative; the relevant d
    range is 2..max argument, since C_d with larger d divides no factor.
    """
    return all(e >= 0 for e in _exponent_profile(expr).values())


def expand(expr: FactoredQExpression) -> "IntPolynomial":
    """Expanded coefficient form of expr, or NotDivisible.

    Works entirely in (1 - q^m) factors: [m]^e is (1-q^m)^e/(1-q)^e, so
    (1-q) carries the exponent -sum(e) and both sides have equally many
    factors.  Numerators are multiplied in ascending order; after each,
    one downward pass divides out every pending denominator whose divisors
    are all available, which keeps intermediate degrees near the final one.
    The test reads C_cand first, the scarce one, before walking up from d = 1.

    avail holds the exact C_d multiplicities of the running product, d = 1
    included, and a division only lowers them: one pass per numerator
    finds every division, and a scheduled one can never fail (asserted,
    not assumed).  The denominators left at the end are divided
    unconditionally, so NotDivisible is always a concrete division failure.
    """
    numerators: list[int] = []
    pending: list[int] = []  # the denominators not yet divided out, ascending
    for m, e in ((1, -sum(e for _, e in expr.factors)), *expr.factors):
        if e > 0:
            numerators.extend([m] * e)
        else:
            pending.extend([m] * (-e))
    # avail[d] is the multiplicity of C_d in the running product
    avail = [0] * (max(numerators + pending, default=0) + 1)
    coeffs = [1]
    for m in numerators:
        coeffs = _mul_one_minus_qm_list(coeffs, m)
        for d in _divisors(m):
            avail[d] += 1
        for i in reversed(range(len(pending))):
            cand = pending[i]
            if avail[cand] and all(map(avail.__getitem__, _divisors(cand))):
                divided = _div_one_minus_qk_list(coeffs, cand)
                assert divided is not None, f"scheduled division by (1-q^{cand}) failed"
                coeffs = divided
                for d in _divisors(cand):
                    avail[d] -= 1
                del pending[i]

    for cand in pending:
        divided = _div_one_minus_qk_list(coeffs, cand)
        if divided is None:
            return NotDivisible
        coeffs = divided
    return IntPolynomial(coeffs)


def quotient_degree(n: int, k: int, l: int) -> int:
    """net_degree of [l]![n-l]!/([k]![n-k]!): D(l) - D(k) for D(x) = deg [x]![n-x]!."""
    return (k - l) * (n - k - l)


def column_negative_exponents(n: int, l: int, k_max: int):
    """Yield the number of negative cyclotomic exponents of F_k, k = l+1 .. k_max.

    F_(k+1) = F_k [n-k]/[k+1]: +1 on C_d for each d >= 2 dividing n-k, -1 for
    each d dividing k+1.  F_k is a polynomial exactly when its count is 0.

    >>> list(column_negative_exponents(12, 2, 6))  # F_5 = [8][9][10]/([3][4][5]) is one
    [1, 1, 0, 2]
    """
    profile = [0] * (n + 1)
    negative = 0
    for k in range(l, k_max):
        for d in _divisors(n - k)[1:]:
            profile[d] += 1
            negative -= profile[d] == 0
        for d in _divisors(k + 1)[1:]:
            profile[d] -= 1
            negative += profile[d] == -1
        yield negative


def lower_half_width(n: int, rows) -> int:
    """The digit width that packs every lower half of quotient_lower_halves(n, rows).

    A lower half is F = G(n,k) prod_(j<=l) (1-q^j) / prod_(j<l) (1-q^(n-j))
    mod q^L, L = D//2+1, polynomial or not.  The L1 norm of a product mod
    q^L is at most the product of its factors' L1 norms mod q^L.  G(n,k)
    has nonnegative coefficients summing to C(n,k); prod (1-q^j) has L1
    norm at most 2^l; and below q^L the coefficients of the last factor
    count the multisets of at most p = (L-1)//(n-l+1) of its l parts, all
    >= n-l+1, so they sum to at most C(p+l, l).  Likewise
    F = prod_(j=l+1..k) (1-q^(n-j+1))/(1-q^j) has L1 norm at most
    2^(k-l) C(p'+k-l, k-l) mod q^L, p' = (L-1)//(l+1).  The smaller bound
    bounds every coefficient of F and their sum, and 2 more bits keep both
    below 2^(width-2).
    """
    widest = 0
    for k, ls in rows:
        for l in ls:
            size = quotient_degree(n, k, l) // 2 + 1
            row_form = math.comb(n, k) << l
            row_form *= math.comb((size - 1) // (n - l + 1) + l, l)
            column_form = math.comb((size - 1) // (l + 1) + k - l, k - l) << (k - l)
            widest = max(widest, min(row_form, column_form))
    return widest.bit_length() + 2


def quotient_lower_halves(n: int, rows):
    """Yield (k, l, lower) for each pair of rows, in ascending k, then l.

    rows lists (k, ls) by ascending k, ls the ascending l, 1 <= l < k <= n/2,
    whose F(n,k,l) = [l]![n-l]!/([k]![n-k]!) is known to be a polynomial;
    lower is its power series mod q^(D//2+1), D = quotient_degree(n, k, l),
    the lower half of a reciprocal polynomial, as a PackedSeries of the
    width lower_half_width(n, rows).  A row steps the Gaussian binomial
    G(n,k) = F(n,k,0) up k by (1-q^(n-k+1))/(1-q^k), truncated for the
    largest D; at each k a copy of it steps up l by (1-q^(l+1))/(1-q^(n-l)),
    cut to each l's own length.  A truncated power series does not depend
    on the path taken to it.  Nothing here checks polynomiality or f(1).

    >>> [(k, l, lower.coeffs) for k, l, lower in quotient_lower_halves(11, [(3, [1, 2])])]
    [(3, 1, [1, 0, 1, 1, 1, 1, 2, 1]), (3, 2, [1, 0, 0, 1])]
    """
    if not rows:
        return
    size = max(quotient_degree(n, k, ls[0]) // 2 + 1 for k, ls in rows)
    row = PackedSeries(1, lower_half_width(n, rows), size)
    k_row = 0
    for k, ls in rows:
        for j in range(k_row + 1, k + 1):
            row.mul_one_minus_qm(n - j + 1)
            row.div_one_minus_qk(j)
        k_row, series, l_series = k, row, 0
        for l in ls:
            series = series.cut(quotient_degree(n, k, l) // 2 + 1)
            for j in range(l_series, l):
                series.mul_one_minus_qm(j + 1)
                series.div_one_minus_qk(n - j)
            l_series = l
            yield k, l, series


def quotient_expansions(n: int, ls):
    """Yield (k, l, p) for k = 0 .. n//2 and each l of ls, p as expand gives it.

    p is the expansion of F(n,k,l) = G(n,k) prod_(j<=l) (1-q^j) /
    prod_(j<l) (1-q^(n-j)), or NotDivisible.  One exact Gaussian row G(n,k)
    steps up k by (1-q^(n-k+1))/(1-q^k), every division exact (asserted).
    At each k, each l steps from the last polynomial F(n,k,l') of that k,
    or from G(n,k) (l' = 0) at first, after a NotDivisible and when l < l':
    multiplied by (1-q^(l'+1)) .. (1-q^l), then divided by (1-q^(n-l')) ..
    (1-q^(n-l+1)).
    When F(n,k,l) is a polynomial, each partial quotient is F(n,k,l) times
    the divisors still to come, so no division fails; otherwise one does,
    and p is NotDivisible, the outcome of that failed division.

    >>> [(k, p) for k, _, p in quotient_expansions(5, [1])]
    [(0, NotDivisible), (1, IntPolynomial(1)), (2, IntPolynomial(1 + q^2))]
    """
    row = [1]
    for k in range(n // 2 + 1):
        if k:
            row = _div_one_minus_qk_list(_mul_one_minus_qm_list(row, n - k + 1), k)
            assert row is not None, f"Gaussian row G({n},{k}) left a remainder"
        coeffs, last_l = row, 0  # F(n,k,last_l), or None after a refusal
        for l in ls:
            if coeffs is None or l < last_l:
                coeffs, last_l = row, 0
            for j in range(last_l + 1, l + 1):
                coeffs = _mul_one_minus_qm_list(coeffs, j)
            for j in range(n - last_l, n - l, -1):
                coeffs = _div_one_minus_qk_list(coeffs, j)
                if coeffs is None:
                    break
            last_l = l
            yield k, l, NotDivisible if coeffs is None else IntPolynomial(coeffs)


def fake_gaussian_expansions(a, m_max: int):
    """Yield (m, p) for m = 1 .. m_max, p as expand gives it for FakeGaussianSpec(m, a).

    F(m) = prod_i (1-q^(m+i))^(a_i)/(1-q^i)^(a_i) steps up m by
    F(m+1) = F(m) prod_x (1-q^(m+x))^(a_(x-1) - a_x), x = 1 .. len(a)+1,
    with a_0 = a_(len(a)+1) = 0: the multiplications first, then the
    divisions.  When F(m+1) is a polynomial, each partial quotient is F(m+1)
    times the divisors still to come, so no division fails; otherwise one
    does, p is NotDivisible, and the next m is expanded afresh.  The first
    m is expanded afresh too.

    >>> list(fake_gaussian_expansions((0, 1), 3))
    [(1, NotDivisible), (2, IntPolynomial(1 + q^2)), (3, NotDivisible)]
    """
    a = tuple(a)
    # the exponent of (1-q^(m+x)) in F(m+1)/F(m), x = 1 .. len(a)+1
    steps = list(enumerate(map(sub, (0, *a), (*a, 0)), start=1))
    ups = [x for x, e in steps for _ in range(e)]
    downs = [x for x, e in steps for _ in range(-e)]
    coeffs = None
    for m in range(1, m_max + 1):
        if coeffs is None:
            p = expand(from_fake_gaussian(FakeGaussianSpec(m, a)))
            coeffs = None if p is NotDivisible else list(p.coeffs)
        else:
            for x in ups:
                coeffs = _mul_one_minus_qm_list(coeffs, m - 1 + x)
            for x in downs:
                coeffs = _div_one_minus_qk_list(coeffs, m - 1 + x)
                if coeffs is None:
                    break
            p = NotDivisible if coeffs is None else IntPolynomial(coeffs)
        yield m, p


def expand_via_cyclotomics(
    expr: FactoredQExpression, cache: "CyclotomicCache | None" = None
) -> "IntPolynomial":
    """Expansion as an explicit product of cyclotomic polynomials.

    Reference route for expand: refuse on a negative exponent profile entry,
    the test is_polynomial makes, otherwise multiply out C_d^e factors.
    Slower than expand, and its product shares no schedule with expand's.
    """
    profile = _exponent_profile(expr)
    if any(e < 0 for e in profile.values()):
        return NotDivisible
    result = IntPolynomial([1])
    for d in sorted(profile):
        factor = cyclotomic(d, cache)
        for _ in range(profile[d]):
            result = poly_mul(result, factor)
    return result
