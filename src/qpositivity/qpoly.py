"""Exact dense polynomial arithmetic over arbitrary-precision integers.

Polynomials in q are stored as dense coefficient tuples (index i holds the
coefficient of q^i).  Dense is the right shape here: everything this package
expands is built from terminating geometric series, so the coefficient
vectors have essentially no gaps, and the sweeps are throughput-bound.
Coefficients are plain Python ints; central coefficients of large Gaussian
polynomials overflow any fixed-width type, so no numpy shortcuts.

The kernels keep their inner loops in C without leaving Python ints.  One
pair of in-place kernels multiplies or divides a power series, truncated
to its list length, by (1 - q^k): a slice subtraction, or a prefix sum per
residue class or a slice add per block.  The exact list steps, q_binomial
and the cyclotomic polynomials are built on that pair.  poly_mul adds one
shifted row per nonzero term of its sparser operand.

Division helpers return the ``NotDivisible`` singleton instead of raising:
a non-polynomial quotient is an expected, reportable outcome, not an error.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from operator import add, mul, sub

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


class _NotDivisibleType:
    """Verdict value for a failed exact division.  Falsy singleton."""

    _instance = None

    def __new__(cls) -> "_NotDivisibleType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotDivisible"

    def __bool__(self) -> bool:
        return False


#: The unique "no polynomial quotient exists" value.  Compare with ``is``.
NotDivisible = _NotDivisibleType()


@dataclasses.dataclass(frozen=True, init=False)
class IntPolynomial:
    """A polynomial in q with integer coefficients, in canonical dense form.

    The last stored coefficient is nonzero; the zero polynomial is the empty
    tuple.  Instances are immutable and hashable, so they are safe to share
    between worker processes and to memoize.

    >>> p = IntPolynomial([1, 0, -1])
    >>> p.degree
    2
    >>> p + IntPolynomial([0, 0, 1])
    IntPolynomial(1)
    >>> IntPolynomial([]).degree == NEG_INF
    True
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: "list[int] | tuple[int, ...]" = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, coefficient: int, exponent: int) -> "IntPolynomial":
        """The polynomial ``coefficient * q**exponent``.

        >>> IntPolynomial.monomial(-1, 3)
        IntPolynomial(-q^3)
        """
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if coefficient == 0:
            return cls(())
        return cls((0,) * exponent + (coefficient,))

    @property
    def degree(self) -> "int | float":
        """Degree, with the zero polynomial at minus infinity."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coefficient(self, exponent: int) -> int:
        """The coefficient of q**exponent (0 beyond the degree)."""
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def evaluate(self, x: int) -> int:
        """Exact value at an integer point, by Horner's rule.

        >>> q_binomial(4, 2).evaluate(1)
        6
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_q_power(self, t: int) -> "IntPolynomial":
        """The polynomial p(q**t).

        >>> IntPolynomial([1, 2]).substitute_q_power(3)
        IntPolynomial(1 + 2q^3)
        """
        if t < 1:
            raise ValueError("power must be positive")
        if not self.coeffs:
            return IntPolynomial(())
        out = [0] * ((len(self.coeffs) - 1) * t + 1)
        for i, c in enumerate(self.coeffs):
            out[i * t] = c
        return IntPolynomial(out)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return poly_add(self, other)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return poly_add(self, -other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return poly_mul(self, other)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def poly_add(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Coefficientwise sum, canonical form restored.

    >>> poly_add(IntPolynomial([1, 1]), IntPolynomial([1, -1]))
    IntPolynomial(2)
    """
    short, long_ = sorted((a.coeffs, b.coeffs), key=len)
    out = list(long_)
    for i, c in enumerate(short):
        out[i] += c
    return IntPolynomial(out)


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact convolution product, one row slice per nonzero term.

    The operand with fewer nonzero terms drives the outer loop, and its
    zero terms are skipped.  Each remaining term c*q^i adds a row to the
    output slice starting at i with map: the other operand itself for
    c = 1, subtracted for c = -1, and a scaled copy otherwise.  A dense
    polynomial times a two-term one is two slice additions at C speed.

    >>> poly_mul(IntPolynomial([1, 1, 1]), IntPolynomial([1, -1]))
    IntPolynomial(1 - q^3)
    """
    ca, cb = a.coeffs, b.coeffs
    if not ca or not cb:
        return IntPolynomial(())
    if len(cb) - cb.count(0) < len(ca) - ca.count(0):
        ca, cb = cb, ca
    n = len(cb)
    out = [0] * (len(ca) + n - 1)
    for i, c in enumerate(ca):
        if c == 1:
            out[i : i + n] = map(add, out[i : i + n], cb)
        elif c == -1:
            out[i : i + n] = map(sub, out[i : i + n], cb)
        elif c:
            out[i : i + n] = map(add, out[i : i + n], map(mul, cb, itertools.repeat(c)))
    return IntPolynomial(out)


def poly_div_exact(a: IntPolynomial, b: IntPolynomial) -> "IntPolynomial | _NotDivisibleType":
    """Exact quotient over the integers by long division, or NotDivisible.

    Returns c with c*b == a, or NotDivisible when no integer polynomial
    quotient exists.  Division by zero is a contract violation.  No code in
    the package calls it: it is the schoolbook reference that the tests
    check the (1 - q^k) kernels against.

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


def _mul_one_minus_qm_series(coeffs: list[int], m: int) -> None:
    # In place: the power series coeffs times (1 - q^m), truncated to
    # len(coeffs) terms; an m at or past the truncation acts as 1.
    size = len(coeffs)
    if m < size:
        coeffs[m:] = map(sub, coeffs[m:], coeffs[: size - m])


def _div_one_minus_qk_series(coeffs: list[int], k: int) -> None:
    # In place: the power series coeffs over (1 - q^k), truncated to
    # len(coeffs) terms, by c_i = a_i + c_{i-k}, in whichever loop takes
    # fewer passes: for k*k <= len a prefix sum per residue class mod k,
    # otherwise a slice add per block of k terms, the last possibly partial.
    size = len(coeffs)
    if k * k <= size:
        for r in range(k):
            coeffs[r::k] = itertools.accumulate(coeffs[r::k])
    else:
        for i in range(k, size, k):
            coeffs[i : i + k] = map(add, coeffs[i : i + k], coeffs[i - k : i])


def _mul_one_minus_qm_list(coeffs: list[int], m: int) -> list[int]:
    # Product with (1 - q^m): the series kernel on coeffs padded with m zeros.
    out = coeffs + [0] * m if coeffs else []
    _mul_one_minus_qm_series(out, m)
    return out


def _div_one_minus_qk_list(coeffs: "list[int] | tuple[int, ...]", k: int) -> "list[int] | None":
    # Exact quotient by (1 - q^k): the series kernel on a copy.  Past the
    # list every a_i is 0, so the series stops exactly when its top k terms
    # vanish, and then the rest is the quotient.
    out = list(coeffs)
    _div_one_minus_qk_series(out, k)
    top = max(len(out) - k, 0)
    if any(out[top:]):
        return None
    del out[top:]
    return out


def div_one_minus_qk(a: IntPolynomial, k: int) -> "IntPolynomial | _NotDivisibleType":
    """Exact quotient of a by (1 - q**k), or NotDivisible.

    Agrees with poly_div_exact(a, 1 - q^k) on both the quotient and the
    NotDivisible verdict, but runs in linear time.

    >>> div_one_minus_qk(IntPolynomial([1, 0, 0, 0, 0, 0, 0, 0, 0, -1]), 3)
    IntPolynomial(1 + q^3 + q^6)
    >>> div_one_minus_qk(IntPolynomial([1, 0, 0, 0, 0, -1]), 2)
    NotDivisible
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    out = _div_one_minus_qk_list(a.coeffs, k)
    if out is None:
        return NotDivisible
    return IntPolynomial(out)


@functools.lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending; memoized, hence a tuple."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@functools.lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    """The Moebius function, from sum over d | n of mu(d) = [n == 1]."""
    return 1 if n == 1 else -sum(_mobius(e) for e in _divisors(n)[:-1])


class CyclotomicCache(dict):
    """Cyclotomic polynomials keyed by their index d, each built on first lookup.

    C_1 = q - 1; for d > 1, C_d is the product over e | d of
    (1 - q^e)^mu(d/e), the mu = +1 factors multiplied first so that every
    division by a mu = -1 factor is exact.  A racing duplicate insertion
    rewrites an equal value, and a per-worker private cache is always valid.
    """

    def __missing__(self, d: int) -> IntPolynomial:
        if d < 1:
            raise ValueError("cyclotomic index must be a positive integer")
        coeffs = [1]
        for e in _divisors(d):
            if _mobius(d // e) == 1:
                coeffs = _mul_one_minus_qm_list(coeffs, e)
        for e in _divisors(d):
            if _mobius(d // e) == -1:
                coeffs = _div_one_minus_qk_list(coeffs, e)
                assert coeffs is not None
        # the product is 1 - q at d = 1
        poly = self[d] = IntPolynomial(coeffs if d > 1 else [-1, 1])
        return poly


_SHARED_CACHE = CyclotomicCache()


def cyclotomic(d: int, cache: "CyclotomicCache | None" = None) -> IntPolynomial:
    """The d-th cyclotomic polynomial, memoized.

    >>> cyclotomic(1)
    IntPolynomial(-1 + q)
    >>> cyclotomic(2)
    IntPolynomial(1 + q)
    >>> cyclotomic(6)
    IntPolynomial(1 - q + q^2)
    """
    return (_SHARED_CACHE if cache is None else cache)[d]


def q_int(m: int) -> IntPolynomial:
    """The q-integer 1 + q + ... + q**(m-1).

    >>> q_int(1)
    IntPolynomial(1)
    >>> q_int(5)
    IntPolynomial(1 + q + q^2 + q^3 + q^4)
    """
    if m < 1:
        raise ValueError("q_int argument must be a positive integer")
    return IntPolynomial((1,) * m)


def q_binomial(n: int, k: int) -> IntPolynomial:
    """The Gaussian polynomial, built without rational arithmetic.

    The numerator factors (1 - q^(n-k+i)) for i = 1..k are interleaved with
    exact divisions by (1 - q^i).  Every prefix of that schedule is itself a
    Gaussian polynomial, so each division is exact; a failed division here
    would be an implementation bug, not a data condition.

    >>> q_binomial(4, 2)
    IntPolynomial(1 + q + 2q^2 + q^3 + q^4)
    >>> q_binomial(7, 0)
    IntPolynomial(1)
    >>> q_binomial(3, 5)
    IntPolynomial(0)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return IntPolynomial(())
    coeffs = [1]
    for i in range(1, k + 1):
        coeffs = _mul_one_minus_qm_list(coeffs, n - k + i)
        divided = _div_one_minus_qk_list(coeffs, i)
        if divided is None:
            raise AssertionError(f"inexact division in q_binomial({n}, {k}) at step {i}")
        coeffs = divided
    return IntPolynomial(coeffs)
