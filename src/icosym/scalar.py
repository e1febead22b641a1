"""Exact arithmetic in the real quadratic field Q(sqrt 5).

Every quantity in this package — character values, inner products,
multiplicities — lives in Q(sqrt 5).  An element is stored as three Python
ints ``(p, q, d)`` standing for ``(p + q*sqrt 5)/d`` in lowest terms:
``d > 0`` and ``gcd(p, q, d) = 1``.  Character values of SL2(F5) are
algebraic integers of the field, so ``d`` is 1 or 2 for them, and each
operation is a few integer products and at most one gcd.  The normal form is
unique, so equality and hashing compare the three ints.  No floating point
is used anywhere: the constructor takes ints only, and :func:`render` writes
the text form with ints as well.

The field carries one nontrivial automorphism ``tau : sqrt(5) -> -sqrt(5)``
(:meth:`Qsqrt5.conj`), which swaps the golden ratio with its algebraic
conjugate.  Inversion uses the field norm ``(p**2 - 5*q**2)/d**2``.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import index

_SQRT_TOKEN = "√5"  # √5


class Qsqrt5:
    """An element ``(p + q*sqrt(5))/d`` of Q(sqrt 5), in lowest terms.

    ``Qsqrt5(p, q, d)`` takes any ints with ``d != 0`` and reduces them, so
    ``Qsqrt5(2)`` is 2 and ``Qsqrt5(1, 1, 2)`` is the golden ratio; any other
    argument type raises TypeError.  Instances are immutable, hashable and
    support ``+ - * /`` against other elements and ``int`` (an ``int`` on the
    left only for ``+`` and ``*``) and unary ``-``.  Equality against an
    ``int`` works when the element is a rational integer, and so does hash
    agreement.
    """

    __slots__ = ("p", "q", "d")

    p: int
    q: int
    d: int

    def __new__(cls, p: int = 0, q: int = 0, d: int = 1) -> "Qsqrt5":
        p, q, d = index(p), index(q), index(d)
        if d == 0:
            raise ZeroDivisionError("zero denominator in Q(sqrt 5)")
        if d < 0:
            p, q, d = -p, -q, -d
        return _reduced(p, q, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Qsqrt5 is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not the blocked setattr
        return (Qsqrt5, (self.p, self.q, self.d))

    @classmethod
    def coerce(cls, value: Qsqrt5 | int) -> "Qsqrt5":
        """Return *value* as a Qsqrt5, accepting int."""
        x = _try_coerce(value)
        if x is None:
            raise TypeError(f"cannot interpret {value!r} as an element of Q(sqrt 5)")
        return x

    # -- structure ----------------------------------------------------

    def conj(self) -> "Qsqrt5":
        """Galois conjugate: the automorphism sqrt(5) -> -sqrt(5)."""
        return _make(self.p, -self.q, self.d)

    def inv(self) -> "Qsqrt5":
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        p, q, d = self.p, self.q, self.d
        # d/(p + q√5) = d(p - q√5)/(p² - 5q²); the norm vanishes only at 0
        # since 5 is not a rational square
        n = p * p - 5 * q * q
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 5)")
        return Qsqrt5(d * p, -d * q, n)

    def is_integer(self) -> bool:
        """True when the element is a rational integer."""
        return self.q == 0 and self.d == 1

    def as_int(self) -> int:
        """The element as a Python int; raises ValueError if not integral."""
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.p

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Qsqrt5 | int) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        return _reduced(self.p * e + o.p * d, self.q * e + o.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: Qsqrt5 | int) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        return _reduced(self.p * e - o.p * d, self.q * e - o.q * d, d * e)

    def __mul__(self, other: Qsqrt5 | int) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, s = self.p, self.q, o.p, o.q
        return _reduced(p * r + 5 * q * s, p * s + q * r, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: Qsqrt5 | int) -> "Qsqrt5":
        o = _try_coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __neg__(self) -> "Qsqrt5":
        return _make(-self.p, -self.q, self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Qsqrt5):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, int):
            return self.q == 0 and self.d == 1 and self.p == other
        return NotImplemented

    def __hash__(self) -> int:
        # agree with int hashing on rational integers
        if self.q == 0 and self.d == 1:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Qsqrt5({self.p}, {self.q}, {self.d})"


_new = object.__new__
_set_p = Qsqrt5.p.__set__
_set_q = Qsqrt5.q.__set__
_set_d = Qsqrt5.d.__set__


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


def _try_coerce(value: object) -> Qsqrt5 | None:
    if isinstance(value, Qsqrt5):
        return value
    if isinstance(value, int):
        return Qsqrt5(value)
    return None


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, written ``n`` when the denominator is 1."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return f"{n}" if d == 1 else f"{n}/{d}"


def render(x: Qsqrt5) -> str:
    """Render ``a + b√5`` with rationals as ``p/q``, in lowest terms."""
    p, q, d = x.p, x.q, x.d
    if q == 0:
        return _ratio_text(p, d)
    coef = "" if abs(q) == d else _ratio_text(abs(q), d)
    surd = f"{coef}{_SQRT_TOKEN}"
    if p == 0:
        return surd if q > 0 else f"-{surd}"
    sign = "+" if q > 0 else "-"
    return f"{_ratio_text(p, d)} {sign} {surd}"


ZERO = Qsqrt5(0)
ONE = Qsqrt5(1)
SQRT5 = Qsqrt5(0, 1)

#: the golden ratio (1 + sqrt 5)/2, a primitive 10th-root trace
GOLDEN = Qsqrt5(1, 1, 2)
#: its Galois conjugate (1 - sqrt 5)/2
GOLDEN_CONJ = GOLDEN.conj()
