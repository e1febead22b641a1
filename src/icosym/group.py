"""SL2(F5) by brute force: elements, conjugacy classes, power maps.

Matrices are row-major 4-tuples ``(a, b, c, d)`` with entries mod 5.  The
group has order 120 and nine conjugacy classes; the class order fixed here
(identity, central involution, two unipotent classes and their negatives,
then orders 4, 6, 3) is the column order every character row in
:mod:`icosym.chartab` refers to.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import Record

P = 5

Mat = tuple[int, int, int, int]

IDENTITY: Mat = (1, 0, 0, 1)

# one representative per conjugacy class, in table column order
CLASS_REPS: tuple[Mat, ...] = (
    (1, 0, 0, 1),
    (4, 0, 0, 4),
    (1, 1, 0, 1),
    (1, 2, 0, 1),
    (4, 1, 0, 4),
    (4, 2, 0, 4),
    (2, 0, 0, 3),
    (3, 2, 4, 3),
    (2, 2, 4, 2),
)


def mmul(g: Mat, h: Mat) -> Mat:
    a, b, c, d = g
    e, f, i, j = h
    return (
        (a * e + b * i) % P,
        (a * f + b * j) % P,
        (c * e + d * i) % P,
        (c * f + d * j) % P,
    )


def mdet(g: Mat) -> int:
    return (g[0] * g[3] - g[1] * g[2]) % P


def minv(g: Mat) -> Mat:
    if mdet(g) != 1:
        raise ValueError(f"not unimodular: {g}")
    a, b, c, d = g
    return (d % P, -b % P, -c % P, a % P)


def mpow(g: Mat, n: int) -> Mat:
    if n < 0:
        return mpow(minv(g), -n)
    out = IDENTITY
    while n:
        if n & 1:
            out = mmul(out, g)
        g = mmul(g, g)
        n >>= 1
    return out


def element_order(g: Mat) -> int:
    n, h = 1, g
    while h != IDENTITY:
        h = mmul(h, g)
        n += 1
    return n


class ConjClass(Record):
    __slots__ = ("index", "rep", "size", "element_order")
    index: int
    rep: Mat
    size: int
    element_order: int


class GroupTable:
    """SL2(F5) with its conjugacy structure precomputed."""

    def __init__(self) -> None:
        self.elements: list[Mat] = [
            m for m in product(range(P), repeat=4) if mdet(m) == 1
        ]
        self.class_of: dict[Mat, int] = {}
        sizes = []
        for idx, rep in enumerate(CLASS_REPS):
            orbit = {mmul(mmul(h, rep), minv(h)) for h in self.elements}
            for m in orbit:
                if m in self.class_of:
                    raise RuntimeError(f"class representatives overlap at {m}")
                self.class_of[m] = idx
            sizes.append(len(orbit))
        if len(self.class_of) != len(self.elements):
            raise RuntimeError("class representatives do not exhaust the group")
        self.classes: tuple[ConjClass, ...] = tuple(
            ConjClass(i, rep, sizes[i], element_order(rep))
            for i, rep in enumerate(CLASS_REPS)
        )
        self._power: dict[tuple[int, int], int] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def class_power(self, index: int, k: int) -> int:
        """Index of the class containing g**k for g in class *index*."""
        key = (index, k % self.classes[index].element_order)
        if key not in self._power:
            self._power[key] = self.class_of[mpow(CLASS_REPS[index], key[1])]
        return self._power[key]

    def inverse_class(self, index: int) -> int:
        return self.class_power(index, self.classes[index].element_order - 1)


@lru_cache(maxsize=1)
def build_sl2f5() -> GroupTable:
    return GroupTable()

