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

For an expression already known to be a polynomial, expand_reciprocal
computes only the lower half of the coefficients as a truncated power
series and mirrors it, checked against the exact value at q = 1.  The
Conjecture 1 sweep uses the same truncated kernels and the same mirror
check, but expands a whole (n, k) row from one chained series: stepping
l down multiplies by one (1-q^m) factor and divides by one (1-q^j), and
each polynomial l of the row is a prefix of that series.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from math import prod

from .qpoly import (
    IntPolynomial,
    NotDivisible,
    CyclotomicCache,
    _div_one_minus_qk_list,
    _div_one_minus_qk_series,
    _divisors,
    _mul_one_minus_qm_list,
    _mul_one_minus_qm_series,
    cyclotomic,
    poly_mul,
)


@dataclasses.dataclass(frozen=True, init=False)
class FactoredQExpression:
    """A product prod [m]^e in canonical form.

    Factors are (argument, exponent) pairs with strictly increasing
    arguments, nonzero exponents, and arguments >= 2.  Factors with
    argument 1 are dropped on construction since [1] = 1; equal arguments
    are merged by summing exponents.  The empty product is the constant 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors=()) -> None:
        merged: Counter[int] = Counter()
        for arg, exp in factors:
            if arg < 1:
                raise ValueError(f"q-integer argument must be positive, got {arg}")
            if arg > 1:
                merged[arg] += exp
        pairs = tuple(sorted((m, e) for m, e in merged.items() if e != 0))
        object.__setattr__(self, "factors", pairs)

    @property
    def net_degree(self) -> int:
        """Degree of the expansion if it is a polynomial: sum of e*(m-1)."""
        return sum(e * (m - 1) for m, e in self.factors)

    @property
    def max_argument(self) -> int:
        return self.factors[-1][0] if self.factors else 1

    def __mul__(self, other: "FactoredQExpression") -> "FactoredQExpression":
        return FactoredQExpression(self.factors + other.factors)

    def inverse(self) -> "FactoredQExpression":
        return FactoredQExpression(tuple((m, -e) for m, e in self.factors))

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
    contribute the empty product.
    """
    bumps: Counter[int] = Counter()
    for t in numerator_tops:
        if t < 0:
            raise ValueError(f"factorial of negative argument [{t}]!")
        bumps[t + 1] -= 1
        bumps[1] += 1
    for t in denominator_tops:
        if t < 0:
            raise ValueError(f"factorial of negative argument [{t}]!")
        bumps[t + 1] += 1
        bumps[1] -= 1
    # exponent of [m] is the number of tops >= m upstairs minus downstairs;
    # sweep once over the step changes instead of per-m membership tests
    factors = []
    running = 0
    for m in range(1, max(bumps, default=0) + 1):
        running += bumps.get(m, 0)
        if running:
            factors.append((m, running))
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


def cyclotomic_exponent(expr: FactoredQExpression, d: int) -> int:
    """Exponent of the cyclotomic polynomial C_d in expr, for d >= 2.

    C_d divides [m] exactly once when d divides m, so the exponent is a
    plain signed count.  d = 1 is excluded: q-integers carry no C_1.
    """
    if d < 2:
        raise ValueError("cyclotomic exponents are defined here for d >= 2")
    return sum(e for m, e in expr.factors if m % d == 0)


def _exponent_profile(expr: FactoredQExpression) -> dict[int, int]:
    """All nonzero cyclotomic exponents of expr, for d >= 2."""
    profile: Counter[int] = Counter()
    for m, e in expr.factors:
        for d in _divisors(m):
            if d >= 2:
                profile[d] += e
    return {d: e for d, e in profile.items() if e != 0}


def is_polynomial(expr: FactoredQExpression) -> bool:
    """Whether expr expands to a polynomial.

    True exactly when no cyclotomic exponent is negative; the relevant d
    range is 2..max argument, since C_d with larger d divides no factor.
    """
    return all(e >= 0 for e in _exponent_profile(expr).values())


def _one_minus_q_arguments(expr: FactoredQExpression) -> "tuple[list[int], list[int]]":
    """Ascending arguments m of the (1-q^m) factors upstairs and downstairs.

    Each [m] is (1-q^m)/(1-q); the surplus (1-q) factors are prepended to
    whichever side is short, so both lists end up equally long.
    """
    numerators: list[int] = []
    denominators: list[int] = []
    for m, e in expr.factors:
        if e > 0:
            numerators.extend([m] * e)
        else:
            denominators.extend([m] * (-e))
    balance = len(numerators) - len(denominators)
    if balance > 0:
        denominators = [1] * balance + denominators
    elif balance < 0:
        numerators = [1] * (-balance) + numerators
    return numerators, denominators


def expand(expr: FactoredQExpression) -> "IntPolynomial":
    """Expanded coefficient form of expr, or NotDivisible.

    Works entirely in (1 - q^m) factors: each [m] is (1-q^m)/(1-q), and
    the surplus (1-q) factors are prepended to whichever side is short, so
    both sides end up with equally many factors.  Numerator factors are
    multiplied in ascending order; after each one, any denominator whose
    full divisor profile is available in the running product is divided
    out immediately, which keeps intermediate degrees near the final one.

    The availability table tracks exact cyclotomic multiplicities of the
    running product (d = 1 included), so a scheduled division can never
    fail; this is asserted, not assumed.  Whatever denominators remain at
    the end are attempted unconditionally, and the NotDivisible verdict is
    produced by those concrete division failures.
    """
    numerators, denominators = _one_minus_q_arguments(expr)
    # avail[d] is the multiplicity of C_d in the running product
    avail = [0] * (max(numerators + denominators, default=0) + 1)
    pending = [(cand, _divisors(cand)) for cand in denominators]
    coeffs = [1]
    for m in numerators:
        coeffs = _mul_one_minus_qm_list(coeffs, m)
        for d in _divisors(m):
            avail[d] += 1
        i = len(pending) - 1
        while i >= 0:
            cand, cand_divisors = pending[i]
            if all(map(avail.__getitem__, cand_divisors)):
                divided = _div_one_minus_qk_list(coeffs, cand)
                assert divided is not None, f"scheduled division by (1-q^{cand}) failed"
                coeffs = divided
                for d in cand_divisors:
                    avail[d] -= 1
                del pending[i]
                i = len(pending) - 1
            else:
                i -= 1

    for cand, _ in sorted(pending):
        divided = _div_one_minus_qk_list(coeffs, cand)
        if divided is None:
            return NotDivisible
        coeffs = divided
    return IntPolynomial(coeffs)


def _mirrored_checked(series: "list[int]", degree: int, top: int, bottom: int) -> "IntPolynomial":
    """The reciprocal polynomial of the given degree whose lower half is series.

    Only the first degree//2 + 1 terms of series are read, so any longer
    truncation of the same power series gives the same result.  Its
    coefficient sum must equal f(1) = top/bottom; on a mismatch the
    verdict is NotDivisible.
    """
    lower = series[: degree // 2 + 1]
    full = lower + lower[: degree + 1 - len(lower)][::-1]
    if sum(full) * bottom != top:
        return NotDivisible
    return IntPolynomial(full)


def expand_reciprocal(expr: FactoredQExpression) -> "IntPolynomial":
    """Expansion of an expression already known to be a polynomial.

    A polynomial value of expr is reciprocal of degree D = net_degree, so
    its power series mod q^N, N = D//2 + 1, determines it: the upper half
    mirrors the lower.  The series is built by interleaving multiplication
    by (1-q^m) with series division by (1-q^j), both truncated mod q^N by
    the in-place kernels _mul_one_minus_qm_series and
    _div_one_minus_qk_series; arguments >= N act as 1.

    _mirrored_checked then mirrors the series and checks it against
    f(1) = prod m^e, computed exactly from the factored form; on a
    mismatch (f(1) need not even be an integer) the verdict is
    NotDivisible.  The check does not certify polynomiality: some
    non-polynomial quotients pass it, so the caller decides polynomiality
    first, for example with is_polynomial.

    >>> expand_reciprocal(FactoredQExpression([(9, 1), (3, -1)]))
    IntPolynomial(1 + q^3 + q^6)
    >>> expand_reciprocal(FactoredQExpression([(3, 1), (2, -1)]))
    NotDivisible
    """
    degree = expr.net_degree
    if degree < 0:
        return NotDivisible
    series = [1] + [0] * (degree // 2)
    for m, j in zip(*_one_minus_q_arguments(expr)):
        _mul_one_minus_qm_series(series, m)
        _div_one_minus_qk_series(series, j)
    top = prod(m**e for m, e in expr.factors if e > 0)
    bottom = prod(m**-e for m, e in expr.factors if e < 0)
    return _mirrored_checked(series, degree, top, bottom)


def expand_quotient_row(n: int, k: int, exprs: "dict[int, FactoredQExpression]"):
    """Yield (l, expansion) for each l in exprs, in descending l.

    exprs maps l, 1 <= l < k, to the quotient F_l = [l]![n-l]!/([k]![n-k]!),
    as from_quotient_spec builds it, each already known to be a
    polynomial.  Since F_l = F_(l+1) (1-q^(n-l))/(1-q^(l+1)) and F_k = 1,
    one power series mod q^N, with N = D//2 + 1 for the largest degree D
    among them, stepped down from l = k-1 to the smallest l, holds the
    lower half of every F_l as a prefix.  The exact f(1) = top/bottom is
    carried along, and each F_l is mirrored and checked by
    _mirrored_checked, as in expand_reciprocal.

    >>> exprs = {l: from_quotient_spec(QuotientSpec(11, 3, l)) for l in (1, 2)}
    >>> for l, p in expand_quotient_row(11, 3, exprs):
    ...     print(l, p)
    2 1 + q^3 + q^6
    1 1 + q^2 + q^3 + q^4 + q^5 + 2q^6 + q^7 + 2q^8 + q^9 + q^10 + q^11 + q^12 + q^14
    """
    lmin = min(exprs)
    series = [1] + [0] * (max(e.net_degree for e in exprs.values()) // 2)
    top = bottom = 1
    for l in range(k - 1, lmin - 1, -1):
        _mul_one_minus_qm_series(series, n - l)
        _div_one_minus_qk_series(series, l + 1)
        top *= n - l
        bottom *= l + 1
        if l in exprs:
            yield l, _mirrored_checked(series, exprs[l].net_degree, top, bottom)


def expand_via_cyclotomics(
    expr: FactoredQExpression, cache: "CyclotomicCache | None" = None
) -> "IntPolynomial":
    """Expansion as an explicit product of cyclotomic polynomials.

    Independent reference route for expand: read off the exponent profile,
    refuse on any negative entry, otherwise multiply out C_d^e factors.
    Slower than expand but structurally unrelated to it.
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
