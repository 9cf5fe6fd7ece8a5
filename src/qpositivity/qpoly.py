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
shifted row per nonzero term of its sparser operand.  PackedSeries holds a
truncated series as one int, a fixed-width field per coefficient (Kronecker
substitution), and takes the same two steps by shifts, adds and masks.

A failed exact division yields a value, not an exception: the list step
returns None, and the expansions built on it return the ``NotDivisible``
singleton, since a non-polynomial quotient is a reportable outcome.
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

    @property
    def degree(self) -> "int | float":
        """Degree, with the zero polynomial at minus infinity."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

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


def _mul_one_minus_qm_series(coeffs: list[int], m: int) -> None:
    # In place: the power series coeffs times (1 - q^m), truncated to
    # len(coeffs) terms; an m at or past the truncation acts as 1.
    # map stops at the shorter input, and the slice assignment takes all
    # of its values before it writes, so coeffs is read unchanged
    coeffs[m:] = map(sub, coeffs[m:], coeffs)


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


class PackedSeries:
    """A power series c_0 + c_1 q + ... mod q^length, packed into one int.

    value is sum c_i 2^(width i) mod 2^(width length).  Sending q to
    2^width maps Z[q]/(q^length) onto Z/2^(width length) as a ring map, and
    1 - 2^(width k) is odd, so the steps by (1 - q^k) are exact on value
    whatever its digits are on the way: a few shifts, adds and masks of one
    int.  The digits read back exactly when every |c_i| and |sum c_i| is
    below 2^(width-2), which the caller's width must ensure.  Each field
    then holds its c_i, a negative one as c_i + 2^width borrowing 1 from the
    field above, so bit width-1 of a field is first set at the first
    negative digit.  top, that bit of every field, may be shared by the
    series of one width that are no longer.

    >>> s = PackedSeries.from_coeffs([1, 2, 3, 4], 8)
    >>> s.div_one_minus_qk(2); s.coeffs
    [1, 2, 4, 6]
    >>> s.mul_one_minus_qm(2); s.coeffs, s.digit_sum(), s.top_digit()
    ([1, 2, 3, 4], 10, 4)
    """

    __slots__ = ("value", "width", "length", "top", "_mask")

    def __init__(self, value: int, width: int, length: int, top: "int | None" = None) -> None:
        self.width, self.length = width, length
        self._mask = (1 << (width * length)) - 1
        self.value = value & self._mask
        if top is None:
            top, fields = 1 << (width - 1), 1
            while fields < length:
                top |= top << (width * fields)
                fields *= 2
        self.top = top

    @classmethod
    def from_coeffs(cls, coeffs: "list[int] | tuple[int, ...]", width: int) -> "PackedSeries":
        value = 0
        for c in reversed(coeffs):
            value = (value << width) + c
        return cls(value, width, len(coeffs))

    @property
    def coeffs(self) -> list[int]:
        """The digits c_0 .. c_(length-1)."""
        # adding top turns each digit into the field c_i + 2^(width-1),
        # which borrows nothing
        w, half = self.width, 1 << (self.width - 1)
        bits = format((self.value + self.top) & self._mask, f"0{w * self.length}b")
        return [int(bits[end - w : end], 2) - half for end in range(w * self.length, 0, -w)]

    def cut(self, length: int) -> "PackedSeries":
        """A copy mod q^length, for a length no longer than this one."""
        return PackedSeries(self.value, self.width, length, self.top)

    def mul_one_minus_qm(self, m: int) -> None:
        self.value = (self.value - (self.value << (self.width * m))) & self._mask

    def div_one_minus_qk(self, k: int) -> None:
        # times (1 + x)(1 + x^2)(1 + x^4)... for x = q^k, the inverse of
        # 1 - x below q^length
        value, mask = self.value, self._mask
        shift, bits = self.width * k, self.width * self.length
        while shift < bits:
            value = (value + (value << shift)) & mask
            shift *= 2
        self.value = value

    def first_negative(self) -> "tuple[int, int] | None":
        """(i, c_i) for the first negative digit, or None if there is none."""
        hits = self.value & self.top
        if not hits:
            return None
        w = self.width
        i = ((hits & -hits).bit_length() - 1) // w
        # the digits below i are nonnegative, so field i borrowed nothing
        return i, ((self.value >> (w * i)) & ((1 << w) - 1)) - (1 << w)

    def digit_sum(self) -> int:
        """The exact sum of the digits.

        2^width is 1 mod 2^width - 1, and value is sum c_i 2^(width i) plus
        2^(width length) exactly when its top bit is set, so value folded
        in halves, less that bit, is the sum mod 2^width - 1.
        """
        w = self.width
        total = self.value
        while fields := total.bit_length() // (2 * w):
            total = (total >> (w * fields)) + (total & ((1 << (w * fields)) - 1))
        modulus = (1 << w) - 1
        total = (total - (self.value >> (w * self.length - 1))) % modulus
        return total - modulus if total > modulus >> 1 else total

    def top_digit(self) -> int:
        """c_(length-1), read from the top field and the bit below it."""
        w = self.width
        shift = w * (self.length - 1)
        c = self.value >> shift
        if shift:  # a negative digit below borrowed 1 from the top field
            c += (self.value >> (shift - 1)) & 1
        return c - (1 << w) if c >> (w - 1) else c


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
