"""Exact arithmetic in the real quadratic field Q(sqrt 5).

Every quantity in this package — character values, inner products,
multiplicities — lives in Q(sqrt 5).  An element is stored as three Python
ints ``(p, q, d)`` standing for ``(p + q*sqrt 5)/d`` in lowest terms:
``d > 0`` and ``gcd(p, q, d) = 1``.  Character values of SL2(F5) are
algebraic integers of the field, so ``d`` is 1 or 2 for them, and each
operation is a few integer products and at most one gcd.  The normal form is
unique, so equality and hashing compare the three ints.  No floating point
is used anywhere, and :class:`fractions.Fraction` only at the edges: the
constructor accepts it, the properties ``a`` and ``b`` return the element as
``a + b*sqrt(5)``, and :meth:`Qsqrt5.norm`, ``repr`` and :func:`render` are
written with them.

The field carries one nontrivial automorphism ``tau : sqrt(5) -> -sqrt(5)``
(:meth:`Qsqrt5.conj`), which swaps the golden ratio with its algebraic
conjugate.  Inversion uses the field norm ``(p**2 - 5*q**2)/d**2``.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Qsqrt5", int, Fraction]

_SQRT_TOKEN = "√5"  # √5

_RAT = r"[+-]?\d+(?:/\d+)?"
_COEF = r"\d+(?:/\d+)?"
# the three shapes render() can emit: a ± b√5, ±b√5, a
_FULL_RE = re.compile(
    rf"^\s*(?P<a>{_RAT})\s*(?P<op>[+-])\s*(?P<coef>{_COEF})?\s*√5\s*$"
)
_SURD_RE = re.compile(rf"^\s*(?P<sign>[+-])?\s*(?P<coef>{_COEF})?\s*√5\s*$")
_RAT_RE = re.compile(rf"^\s*(?P<a>{_RAT})\s*$")


class Qsqrt5:
    """An element ``(p + q*sqrt(5))/d`` of Q(sqrt 5), in lowest terms.

    Instances are immutable, hashable and support ``+ - * / **`` against
    other elements, ``int`` and ``Fraction``.  Equality against plain
    rationals works when ``q == 0``, and so does hash agreement.

    Parameters
    ----------
    a, b:
        Rational and sqrt(5)-coefficients of ``a + b*sqrt(5)``; anything
        `Fraction` accepts.
    """

    __slots__ = ("p", "q", "d")

    p: int
    q: int
    d: int

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        an, ad = _ratio_of(a)
        bn, bd = _ratio_of(b)
        g = gcd(an * bd, bn * ad, ad * bd)
        _set_p(self, an * bd // g)
        _set_q(self, bn * ad // g)
        _set_d(self, ad * bd // g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Qsqrt5 is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through from_ints, not the blocked setattr
        return (Qsqrt5.from_ints, (self.p, self.q, self.d))

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, value: ScalarLike) -> "Qsqrt5":
        """Return *value* as a Qsqrt5, accepting int and Fraction."""
        if isinstance(value, Qsqrt5):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as an element of Q(sqrt 5)")

    @classmethod
    def from_ints(cls, p: int, q: int, d: int = 1) -> "Qsqrt5":
        """``(p + q*sqrt 5)/d`` for any ints with ``d != 0``."""
        if d == 0:
            raise ZeroDivisionError("zero denominator in Q(sqrt 5)")
        if d < 0:
            p, q, d = -p, -q, -d
        return _reduced(p, q, d)

    # -- structure ----------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part of ``a + b*sqrt(5)``."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The sqrt(5)-coefficient of ``a + b*sqrt(5)``."""
        return Fraction(self.q, self.d)

    def conj(self) -> "Qsqrt5":
        """Galois conjugate: the automorphism sqrt(5) -> -sqrt(5)."""
        return _make(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        """Field norm ``self * self.conj()`` (a rational)."""
        return Fraction(self.p * self.p - 5 * self.q * self.q, self.d * self.d)

    def inv(self) -> "Qsqrt5":
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        p, q, d = self.p, self.q, self.d
        # d/(p + q√5) = d(p - q√5)/(p² - 5q²); the norm vanishes only at 0
        # since 5 is not a rational square
        n = p * p - 5 * q * q
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 5)")
        return Qsqrt5.from_ints(d * p, -d * q, n)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_integer(self) -> bool:
        """True when the element is a rational integer."""
        return self.q == 0 and self.d == 1

    def as_int(self) -> int:
        """The element as a Python int; raises ValueError if not integral."""
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.p

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        return _reduced(self.p * e + o.p * d, self.q * e + o.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        return _reduced(self.p * e - o.p * d, self.q * e - o.q * d, d * e)

    def __rsub__(self, other: ScalarLike) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: ScalarLike) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, s = self.p, self.q, o.p, o.q
        return _reduced(p * r + 5 * q * s, p * s + q * r, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other: ScalarLike) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int) -> "Qsqrt5":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self) -> "Qsqrt5":
        return _make(-self.p, -self.q, self.d)

    def __pos__(self) -> "Qsqrt5":
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Qsqrt5):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, int):
            return self.q == 0 and self.d == 1 and self.p == other
        if isinstance(other, Fraction):
            return (
                self.q == 0
                and self.p == other.numerator
                and self.d == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        # agree with Fraction/int hashing on rational elements
        if self.q == 0:
            return _rational_hash(self.p, self.d)
        return hash((self.p, self.q, self.d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Qsqrt5({self.a!r}, {self.b!r})"


_new = object.__new__
_set_p = Qsqrt5.p.__set__
_set_q = Qsqrt5.q.__set__
_set_d = Qsqrt5.d.__set__

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _make(p: int, q: int, d: int) -> Qsqrt5:
    """A Qsqrt5 from ints already in lowest terms; small values are shared."""
    x = _SHARED.get((p, q, d))
    if x is None:
        x = _new(Qsqrt5)
        _set_p(x, p)
        _set_q(x, q)
        _set_d(x, d)
    return x


#: one shared instance of each ``(p + q*sqrt 5)/d`` with ``|p|, |q| <= 4`` and
#: ``d <= 2``.  Away from the two central classes every value in the
#: symmetric-power recursion lies in this set, so cached class functions
#: point at these instead of holding copies.
_SHARED: dict[tuple[int, int, int], Qsqrt5] = {}
for _p, _q, _d in itertools.product(range(-4, 5), range(-4, 5), (1, 2)):
    if gcd(_p, _q, _d) == 1:
        _SHARED[_p, _q, _d] = _make(_p, _q, _d)
del _p, _q, _d


def _reduced(p: int, q: int, d: int) -> Qsqrt5:
    """A Qsqrt5 from ints with ``d > 0``, reduced to lowest terms."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    return _make(p, q, d)


def _ratio_of(x: RationalLike) -> tuple[int, int]:
    """Numerator and positive denominator of a rational in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _rational_hash(n: int, d: int) -> int:
    """``hash(Fraction(n, d))`` for coprime ``n`` and ``d > 0``, computed by
    the numeric hash rule of the Python reference."""
    if d == 1:
        return hash(n)
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    except ValueError:  # d is a multiple of the modulus
        h = _HASH_INF
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _try_coerce(value: object) -> Qsqrt5 | None:
    if isinstance(value, Qsqrt5):
        return value
    if isinstance(value, (int, Fraction)):
        return Qsqrt5(value)
    return None


def render(x: Qsqrt5) -> str:
    """Render ``a + b√5`` with rationals as ``p/q``; exact round-trip with parse."""
    if x.b == 0:
        return str(x.a)
    coef = "" if abs(x.b) == 1 else f"{abs(x.b)}"
    surd = f"{coef}{_SQRT_TOKEN}"
    if x.a == 0:
        return surd if x.b > 0 else f"-{surd}"
    sign = "+" if x.b > 0 else "-"
    return f"{x.a} {sign} {surd}"


def parse(text: str) -> Qsqrt5:
    """Parse the rendering produced by :func:`render` (``sqrt5`` also accepted).

    Raises ValueError on anything else.
    """
    normalized = text.replace("sqrt5", _SQRT_TOKEN)
    try:
        return _parse_normalized(normalized)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_normalized(normalized: str) -> Qsqrt5:
    m = _FULL_RE.match(normalized)
    if m is not None:
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        b = -coef if m.group("op") == "-" else coef
        return Qsqrt5(Fraction(m.group("a")), b)
    m = _SURD_RE.match(normalized)
    if m is not None:
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        return Qsqrt5(0, -coef if m.group("sign") == "-" else coef)
    m = _RAT_RE.match(normalized)
    if m is not None:
        return Qsqrt5(Fraction(m.group("a")))
    raise ValueError(f"not a Q(sqrt 5) literal: {normalized!r}")


ZERO = Qsqrt5.from_ints(0, 0)
ONE = Qsqrt5.from_ints(1, 0)
SQRT5 = Qsqrt5.from_ints(0, 1)

#: the golden ratio (1 + sqrt 5)/2, a primitive 10th-root trace
GOLDEN = Qsqrt5.from_ints(1, 1, 2)
#: its Galois conjugate (1 - sqrt 5)/2
GOLDEN_CONJ = GOLDEN.conj()
