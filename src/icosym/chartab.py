"""The character table of SL2(F5) and exact character arithmetic.

The binary icosahedral group SL2(F5) has nine irreducible characters.  Four
rows take values in Q(sqrt 5) \\ Q: the two 3-dimensional and the two
2-dimensional ones, which are swapped pairwise by the Galois automorphism
sqrt(5) -> -sqrt(5).  Everything here is exact (:class:`icosym.scalar.Qsqrt5`
entries); the column order is the class order fixed in :mod:`icosym.group`.

Conventions
-----------
* Characters are :class:`ClassFunction` vectors of nine values.
* The invariant pairing is ``<f, g> = (1/120) * sum size(c) f(c) conj(g(c))``
  where ``conj`` is complex conjugation of character values.  All values in
  this table are real, so ``conj`` is the identity and the implementation
  multiplies plainly.  (The Galois twist sqrt(5) -> -sqrt(5) is *not*
  complex conjugation; see :meth:`CharacterTable.galois_tau`.)
* Pairings run in integers.  Each value is stored as the ints of
  ``(p + q*sqrt 5)/d`` (see :mod:`icosym.scalar`); a class function is
  brought to the least common ``d`` of its values, the table rows are stored
  pre-multiplied by class sizes, and each pairing is an integer dot product
  divided once, by ``120*d``.
* Symmetric powers of a degree-2 character follow the trace recursion
  ``s[n](c) = s[1](c) s[n-1](c) - det(c) s[n-2](c)`` with the determinant
  character recovered from the squaring class map,
  ``det(c) = (s[1](c)**2 - s[1](c^2)) / 2``.
* Duality is evaluation at inverses; every class of SL2(F5) is self-inverse,
  so all rows are self-dual (checked, not assumed).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping

from . import Record, _set
from .group import GroupTable, build_sl2f5
from .scalar import GOLDEN, GOLDEN_CONJ, Qsqrt5

IRREP_NAMES: tuple[str, ...] = ("U", "V", "W", "X1", "X2", "W'", "W''", "X'", "X''")

N_CLASSES = 9

_PHI = GOLDEN
_PSI = GOLDEN_CONJ

# rows of the classical table; columns follow group.CLASS_REPS
_TABLE_ROWS: dict[str, tuple[Qsqrt5 | int, ...]] = {
    "U": (1, 1, 1, 1, 1, 1, 1, 1, 1),
    "V": (5, 5, 0, 0, 0, 0, 1, -1, -1),
    # the 6-dimensional row is a spin representation (A5 has no 6-dimensional
    # irreducible), so its value at the central involution is -6; +6 would
    # break column orthogonality against the first column
    "W": (6, -6, 1, 1, -1, -1, 0, 0, 0),
    # the unique 4-dimensional spin row is sym^3 of the 2-dimensional ones;
    # the trace recursion puts -1 on the order-6 class and +1 on order 3
    "X1": (4, -4, -1, -1, 1, 1, 0, -1, 1),
    "X2": (4, 4, -1, -1, -1, -1, 0, 1, 1),
    "W'": (3, 3, _PHI, _PSI, _PHI, _PSI, -1, 0, 0),
    "W''": (3, 3, _PSI, _PHI, _PSI, _PHI, -1, 0, 0),
    "X'": (2, -2, -_PHI, -_PSI, _PHI, _PSI, 0, 1, -1),
    "X''": (2, -2, -_PSI, -_PHI, _PSI, _PHI, 0, 1, -1),
}

#: rows swapped by the Galois automorphism; the other five are fixed
GALOIS_SWAPS: dict[str, str] = {"W'": "W''", "W''": "W'", "X'": "X''", "X''": "X'"}


class NotACharacterError(ValueError):
    """Raised when a class function is not a nonnegative integral combination
    of irreducible characters; carries the offending multiplicities."""

    def __init__(self, coefficients: dict[str, Qsqrt5]):
        self.coefficients = coefficients
        bad = {n: str(c) for n, c in coefficients.items()
               if not (c.is_integer() and c.as_int() >= 0)}
        super().__init__(f"not a character; offending multiplicities: {bad}")


def _integral(values: Iterable[Qsqrt5]) -> tuple[list[tuple[int, int]], int]:
    """Write *values* as ``(p + q*sqrt 5)/d``: integer pairs ``(p, q)`` over
    their least common denominator ``d``."""
    values = list(values)
    d = lcm(*(v.d for v in values))
    return [(v.p * (d // v.d), v.q * (d // v.d)) for v in values], d


def _dot(xs: list[tuple[int, int]], ys: list[tuple[int, int]]) -> tuple[int, int]:
    """``sum x*y`` for values ``p + q*sqrt 5`` given as integer pairs."""
    a = b = 0
    for (p, q), (r, s) in zip(xs, ys):
        a += p * r + 5 * q * s
        b += p * s + q * r
    return a, b


class ClassFunction(Record):
    """A class function on SL2(F5), nine exact values in column order."""

    __slots__ = ("values",)
    values: tuple[Qsqrt5, ...]

    def __init__(self, values: tuple[Qsqrt5, ...]) -> None:
        if len(values) != N_CLASSES:
            raise ValueError(f"need {N_CLASSES} values, got {len(values)}")
        _set(self, "values", values)  # see Record: a hot constructor, written out

    @classmethod
    def of(cls, values: Iterable[Qsqrt5 | int]) -> "ClassFunction":
        return cls(tuple(Qsqrt5.coerce(v) for v in values))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return ClassFunction(tuple(x + y for x, y in zip(self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return ClassFunction(tuple(x - y for x, y in zip(self.values, other.values)))

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            return ClassFunction(
                tuple(x * y for x, y in zip(self.values, other.values))
            )
        scaled = Qsqrt5.coerce(other)
        return ClassFunction(tuple(x * scaled for x in self.values))

    __rmul__ = __mul__

    def __getitem__(self, i: int) -> Qsqrt5:
        return self.values[i]

    def dim(self) -> Qsqrt5:
        """Value at the identity class."""
        return self.values[0]


class CharacterTable:
    """The nine irreducible characters of the classical table, with exact
    pairing and decomposition."""

    def __init__(self, group: GroupTable | None = None) -> None:
        self.group = group if group is not None else build_sl2f5()
        self.rows: dict[str, ClassFunction] = {
            name: ClassFunction.of(_TABLE_ROWS[name]) for name in IRREP_NAMES
        }
        self.sizes: tuple[int, ...] = tuple(c.size for c in self.group.classes)
        # every row times the class sizes, as integers over one denominator
        weighted, self._den = _integral(
            v * size for name in IRREP_NAMES
            for v, size in zip(self.rows[name].values, self.sizes)
        )
        self._weighted: dict[str, list[tuple[int, int]]] = {
            name: weighted[N_CLASSES * i : N_CLASSES * (i + 1)]
            for i, name in enumerate(IRREP_NAMES)
        }
        self._sym_cache: dict[tuple[tuple[Qsqrt5, ...], int], ClassFunction] = {}

    # -- basic queries ---------------------------------------------------

    def row(self, name: str) -> ClassFunction:
        try:
            return self.rows[name]
        except KeyError:
            raise KeyError(f"unknown irreducible {name!r}; choose from {IRREP_NAMES}")

    def dim(self, name: str) -> int:
        return self.row(name).dim().as_int()

    def trivial(self) -> ClassFunction:
        return self.row("U")

    # -- the invariant pairing -------------------------------------------

    def inner_product(self, f: ClassFunction, g: ClassFunction) -> Qsqrt5:
        """Exact ``(1/120) sum_c size(c) f(c) g(c)`` (values are real)."""
        xs, df = _integral(f.values)
        ys, dg = _integral(g.values)
        weighted = [(size * r, size * s) for size, (r, s) in zip(self.sizes, ys)]
        return Qsqrt5(*_dot(xs, weighted), self.group.order * df * dg)

    def decompose(self, f: ClassFunction) -> dict[str, int]:
        """Multiplicities of *f* in the irreducible basis.

        Raises
        ------
        NotACharacterError
            if any multiplicity is negative, fractional or irrational.
        """
        xs, d = _integral(f.values)
        den = self.group.order * d * self._den
        pairings = {name: _dot(xs, row) for name, row in self._weighted.items()}
        mults = {}
        for name, (a, b) in pairings.items():
            m, rest = divmod(a, den)
            if b or rest or m < 0:
                raise NotACharacterError(
                    {n: Qsqrt5(a, b, den) for n, (a, b) in pairings.items()}
                )
            if m:
                mults[name] = m
        return mults

    # -- operations on characters ------------------------------------------

    def sym_power(self, f: ClassFunction | str, n: int) -> ClassFunction:
        """Character of the n-th symmetric power of a degree-2 character.

        The recursion sym^n = f * sym^(n-1) - det(f) * sym^(n-2) takes one
        step from the cached sym^(n-1) and sym^(n-2) when both are there, so
        asking for n = 0, 1, 2, ... in turn costs O(1) per power; otherwise
        it starts from sym^0, and a single cold sym^n costs O(n) steps.
        Only the requested power is cached.
        """
        if isinstance(f, str):
            f = self.row(f)
        if n < 0:
            raise ValueError("symmetric power wants n >= 0")
        if f.dim() != Qsqrt5(2):
            raise ValueError(f"symmetric-power recursion needs degree 2, got {f.dim()}")
        key = (f.values, n)
        if key in self._sym_cache:
            return self._sym_cache[key]
        det = self._determinant_character(f)
        prev = ClassFunction.of([1] * N_CLASSES)
        cur = f
        if n == 0:
            self._sym_cache[key] = prev
            return prev
        steps, last, before = n - 1, (f.values, n - 1), (f.values, n - 2)
        if last in self._sym_cache and before in self._sym_cache:
            prev, cur, steps = self._sym_cache[before], self._sym_cache[last], 1
        for _ in range(steps):
            prev, cur = cur, f * cur - det * prev
        self._sym_cache[key] = cur
        return cur

    def _determinant_character(self, f: ClassFunction) -> ClassFunction:
        two = Qsqrt5(2)
        vals = []
        for i in range(N_CLASSES):
            sq = self.group.class_power(i, 2)
            vals.append((f[i] * f[i] - f[sq]) / two)
        return ClassFunction(tuple(vals))

    def dual(self, f: ClassFunction) -> ClassFunction:
        """Value-at-inverses; the contragredient on characters."""
        return ClassFunction(
            tuple(f[self.group.inverse_class(i)] for i in range(N_CLASSES))
        )

    def galois_tau(self, f: ClassFunction) -> ClassFunction:
        """Entrywise sqrt(5) -> -sqrt(5)."""
        return ClassFunction(tuple(v.conj() for v in f.values))


@lru_cache(maxsize=1)
def default_table() -> CharacterTable:
    """The shared instance carrying the classical table."""
    return CharacterTable()


def format_decomposition(mults: Mapping[str, int]) -> str:
    """Human form like ``U + 2W'`` in table row order; ``0`` when empty."""
    parts = []
    for name in IRREP_NAMES:
        m = mults.get(name, 0)
        if m == 1:
            parts.append(name)
        elif m:
            parts.append(f"{m}{name}")
    return " + ".join(parts) if parts else "0"
