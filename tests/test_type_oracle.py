"""The type table against exact quaternion models of the binary groups.

The binary tetrahedral group (the 24 Hurwitz units) and the binary
octahedral group (those and the 24 units (+-e +- f)/sqrt 2 for two of the
axes e, f) are written down coordinate by coordinate, as ``icosians.py``
does for the binary icosahedral group.  For every n <= 60 the character of
sym^n on each group decides two things: irreducibility, by
<chi_n, chi_n> = 1, and whether sym^n takes a self-twist, by chi_n vanishing
off the derived subgroup (the kernel of every nontrivial 1-dimensional
character: Q8 in the binary tetrahedral group, that group in the binary
octahedral one, and none in the binary icosahedral one).  The ledger's
verdicts on an untagged base of each type must agree.

Coordinates are doubled, so that they lie in Z[sqrt 2]; the pair arithmetic
lives here, not in the package.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product

import pytest

from icosians import qconj, qmul, trace, unit_icosians
from icosym.isobaric import CharWord, Constituent, FactLedger, sym_cusp, sym_power_cuspidal
from icosym.scalar import Qsqrt5

MAX_N = 60


class Z2(tuple):
    """a + b sqrt 2 with integers a and b."""

    def __new__(cls, a: int, b: int = 0) -> "Z2":
        return tuple.__new__(cls, (a, b))

    def __add__(self, other: "Z2") -> "Z2":
        return Z2(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other: "Z2") -> "Z2":
        return Z2(self[0] - other[0], self[1] - other[1])

    def __neg__(self) -> "Z2":
        return Z2(-self[0], -self[1])

    def __mul__(self, other: "Z2 | int") -> "Z2":
        a, b = (other, 0) if isinstance(other, int) else other
        return Z2(self[0] * a + 2 * self[1] * b, self[0] * b + self[1] * a)

    __rmul__ = __mul__

    def half(self) -> "Z2":
        assert self[0] % 2 == 0 and self[1] % 2 == 0, self
        return Z2(self[0] // 2, self[1] // 2)


def doubled_product(p: tuple, q: tuple) -> tuple:
    """2pq from 2p and 2q."""
    return tuple(x.half() for x in qmul(p, q))


def hurwitz_units() -> frozenset:
    """The 24 units, doubled: the 8 points 2(+-e) and the 16 (+-1, +-1, +-1, +-1)."""
    axes = {tuple(Z2(2 * s if i == axis else 0) for i in range(4))
            for axis in range(4) for s in (1, -1)}
    halves = {tuple(Z2(s) for s in signs) for signs in product((1, -1), repeat=4)}
    return frozenset(axes | halves)


def octahedral_units() -> frozenset:
    """The 48: the Hurwitz units and the doubled (+-e +- f)/sqrt 2 = sqrt 2 (+-e +- f)."""
    extra = {
        tuple(Z2(0, s if i == e else t if i == f else 0) for i in range(4))
        for e, f in permutations(range(4), 2) for s, t in product((1, -1), repeat=2)
    }
    return hurwitz_units() | frozenset(extra)


class Binary:
    """A finite group of unit quaternions: its elements, identity, product
    and trace, and the scalar 1 of its coordinates."""

    def __init__(self, elements: frozenset, one: tuple, mul, trace_of, unit) -> None:
        self.elements, self.one, self.mul, self.trace, self.unit = (
            elements, one, mul, trace_of, unit
        )

    def closure(self, generators: list) -> set:
        found, todo = {self.one}, [self.one]
        while todo:
            x = todo.pop()
            for g in generators:
                y = self.mul(x, g)
                if y not in found:
                    found.add(y)
                    todo.append(y)
        return found

    def derived_subgroup(self) -> set:
        """Generated by the commutators g h g^-1 h^-1 = (g h)(h g)^-1, taken
        one at a time until they are all in or generate the group."""
        generators, sub = [], {self.one}
        for g in self.elements:
            for h in self.elements:
                c = self.mul(self.mul(g, h), qconj(self.mul(h, g)))
                if c not in sub:
                    generators.append(c)
                    sub = self.closure(generators)
                    if len(sub) == len(self.elements):
                        return sub
        return sub

    def sym_traces(self) -> dict:
        """trace -> [chi_0, ..., chi_MAX_N] at an element of that trace:
        s_n = t s_(n-1) - s_(n-2), with s_0 = 1 and s_1 = t."""
        out = {}
        for t in {self.trace(g) for g in self.elements}:
            values = [self.unit, t]
            while len(values) <= MAX_N:
                values.append(t * values[-1] - values[-2])
            out[t] = values
        return out


MODELS = {
    "tetrahedral": Binary(
        hurwitz_units(), (Z2(2), Z2(0), Z2(0), Z2(0)), doubled_product, lambda q: q[0], Z2(1)
    ),
    "octahedral": Binary(
        octahedral_units(), (Z2(2), Z2(0), Z2(0), Z2(0)), doubled_product, lambda q: q[0], Z2(1)
    ),
    "icosahedral": Binary(
        unit_icosians(), (Qsqrt5(1), Qsqrt5(0), Qsqrt5(0), Qsqrt5(0)), qmul, trace, Qsqrt5(1)
    ),
}
ORDERS = {"tetrahedral": 24, "octahedral": 48, "icosahedral": 120}


@pytest.fixture(scope="module")
def derived():
    return {typ: model.derived_subgroup() for typ, model in MODELS.items()}


def untagged(typ):
    ledger = FactLedger()
    ledger.declare_character("nu")
    return ledger, ledger.declare_base("b", typ)


@pytest.mark.parametrize("typ", MODELS)
def test_the_models_are_groups(typ, derived):
    model = MODELS[typ]
    assert len(model.elements) == ORDERS[typ]
    assert model.one in model.elements
    assert all(qconj(g) in model.elements for g in model.elements)
    assert model.closure(list(model.elements)) == set(model.elements)
    # the nontrivial 1-dimensional characters: a cubic pair, the sign, none
    assert ORDERS[typ] // len(derived[typ]) == {"tetrahedral": 3, "octahedral": 2}.get(typ, 1)


def test_the_kernels_are_the_named_subgroups(derived):
    axes = {g for g in hurwitz_units() if sum(x != Z2(0) for x in g) == 1}
    assert len(axes) == 8 and derived["tetrahedral"] == axes  # Q8
    assert derived["octahedral"] == set(hurwitz_units())


@pytest.mark.parametrize("typ", MODELS)
def test_cuspidal_exactly_when_irreducible(typ):
    model = MODELS[typ]
    counts = Counter(model.trace(g) for g in model.elements)
    chars = model.sym_traces()
    ledger, b = untagged(typ)
    order = ORDERS[typ]
    for n in range(1, MAX_N + 1):
        norm = model.unit - model.unit
        for t, count in counts.items():
            norm = norm + count * chars[t][n] * chars[t][n]
        # <chi_n, chi_n> is a whole number, 1 exactly for an irreducible sym^n
        (inner,) = [k for k in range(1, (n + 1) ** 2 + 1) if norm == k * order * model.unit]
        verdict, reason = sym_power_cuspidal(b, n, ledger)
        assert verdict is (inner == 1), (typ, n, reason)


@pytest.mark.parametrize("typ", MODELS)
def test_self_twist_exactly_when_the_character_vanishes_off_the_kernel(typ, derived):
    model = MODELS[typ]
    off = {model.trace(g) for g in model.elements if g not in derived[typ]}
    chars = model.sym_traces()
    zero = model.unit - model.unit
    ledger, b = untagged(typ)
    for n in range(1, MAX_N + 1):
        possible = bool(off) and all(chars[t][n] == zero for t in off)
        c = Constituent(sym_cusp(b, n))
        verdict, _ = ledger.equivalent(c, c.twisted(CharWord.gen("nu")))
        assert verdict is (None if possible else False), (typ, n)
