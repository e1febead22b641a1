"""Formal isobaric sums of cuspidal symbols and a cuspidality calculus.

This module does bookkeeping, not analysis: automorphic objects are opaque
symbols (cusp forms on GL(2) and things derived from them — symmetric
powers, adjoints, Rankin--Selberg box products, twists by formal
characters), and the only analytic content used is the standard dictionary

* ``L(s, e x dual(e))`` has a pole at the edge of order ``sum m_i**2`` when
  ``e`` is an isobaric sum of distinct unitary cuspidals with
  multiplicities ``m_i``;
* ``L(s, sigma x tau)`` for unitary cuspidals has a pole iff ``tau`` is the
  dual of ``sigma``;
* the Clebsch--Gordan expansion
  ``sym^a (pi) x sym^b (pi) = [+]_k sym^(a+b-2k) (pi) (x) omega^k``
  (``omega`` the central character, ``k = 0..min(a, b)``), with ``sym^0``
  reading as the twisting character itself.

Equivalence semantics
---------------------
Symbols are *generic*: two structurally different symbols built over the
same base are inequivalent unless a recorded fact says otherwise, and
character words over distinct generators denote distinct characters.  What
genericity can NOT settle is compared across bases (``Ad(pi)`` vs
``Ad(pi')``) — those are exactly the inputs the cuspidality criteria
consume, so they must be declared in a :class:`FactLedger` (or be decidable
by the finite-image model: bases carrying a ``galois_row`` tag restrict to
the character table, and distinct restrictions certify inequivalence).
Self-twists are the other non-generic spot: ``sym^2`` of a dihedral or
tetrahedral base (or a base of undeclared type) may admit one, so such
queries come back undetermined instead of defaulting to "no".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Union

from .chartab import CharacterTable, ClassFunction, default_table
from .scalar import Qsqrt5

BASE_TYPES = (
    "dihedral",
    "tetrahedral",
    "octahedral",
    "icosahedral",
    "general",  # non-polyhedral
    "abstract",  # cuspidal of undeclared type
)

SOLVABLE_POLYHEDRAL = ("tetrahedral", "octahedral")


class LedgerError(ValueError):
    """An inconsistent or insufficient fact ledger."""


# --------------------------------------------------------------------------
# formal characters


@dataclass(frozen=True)
class CharWord:
    """A formal character: a word in named generators with integer exponents."""

    word: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, factors: Mapping[str, int] | Iterable[tuple[str, int]]) -> "CharWord":
        items = factors.items() if isinstance(factors, Mapping) else factors
        merged: dict[str, int] = {}
        for name, exp in items:
            merged[name] = merged.get(name, 0) + exp
        return cls(tuple(sorted((n, e) for n, e in merged.items() if e)))

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "CharWord":
        return cls.of({name: exp})

    def __mul__(self, other: "CharWord") -> "CharWord":
        if not isinstance(other, CharWord):
            return NotImplemented
        return CharWord.of(list(self.word) + list(other.word))

    def inv(self) -> "CharWord":
        return CharWord(tuple((n, -e) for n, e in self.word))

    def __pow__(self, k: int) -> "CharWord":
        return CharWord.of({n: e * k for n, e in self.word})

    def reduce(self, orders: Mapping[str, int]) -> "CharWord":
        """Reduce exponents mod declared finite orders."""
        out = {}
        for n, e in self.word:
            order = orders.get(n)
            out[n] = e % order if order else e
        return CharWord.of(out)

    def is_empty(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        if not self.word:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.word)


# --------------------------------------------------------------------------
# cuspidal cores


@dataclass(frozen=True)
class BaseCusp:
    """A named cuspidal symbol on GL(2) with declared structure tags."""

    name: str
    typ: str = "abstract"
    omega: str = ""  # central character generator name
    dihedral_field: str | None = None
    dihedral_char: str | None = None
    cubic_char: str | None = None  # self-twist of sym^2 (tetrahedral)
    quadratic_char: str | None = None  # self-twist of sym^3 (octahedral)
    induced_field: str | None = None  # octahedral complement data
    induced_char: str | None = None
    galois_row: str | None = None  # finite-image model: a character-table row

    @property
    def degree(self) -> int:
        return 2

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SymCusp:
    base: BaseCusp
    n: int

    @property
    def degree(self) -> int:
        return self.n + 1

    def __str__(self) -> str:
        return f"sym^{self.n}({self.base.name})"


@dataclass(frozen=True)
class BoxCusp:
    left: "Core"
    right: "Core"

    @property
    def degree(self) -> int:
        return self.left.degree * self.right.degree

    def __str__(self) -> str:
        return f"box({self.left}, {self.right})"


@dataclass(frozen=True)
class InducedCusp:
    """A dihedral symbol induced from a character of a quadratic extension."""

    extension: str
    char: str
    char_exp: int = 1
    self_dual: bool = False

    @property
    def degree(self) -> int:
        return 2

    def __str__(self) -> str:
        suffix = "" if self.char_exp == 1 else f"^{self.char_exp}"
        return f"Ind[{self.extension}]({self.char}{suffix})"


Core = Union[BaseCusp, SymCusp, BoxCusp, InducedCusp]


def sym_cusp(base: BaseCusp, n: int) -> Core | None:
    """sym^n as a core; n = 1 collapses to the base, n = 0 to nothing."""
    if n < 0:
        raise ValueError("negative symmetric power")
    if n == 0:
        return None
    if n == 1:
        return base
    return SymCusp(base, n)


def box_cusp(left: Core, right: Core) -> BoxCusp:
    a, b = sorted((left, right), key=str)
    return BoxCusp(a, b)


# --------------------------------------------------------------------------
# constituents and isobaric sums


@dataclass(frozen=True)
class Constituent:
    """A cuspidal core twisted by a formal character; core None = character."""

    core: Core | None
    twist: CharWord = CharWord()

    @property
    def degree(self) -> int:
        return 1 if self.core is None else self.core.degree

    def twisted(self, word: CharWord) -> "Constituent":
        return Constituent(self.core, self.twist * word)

    def __str__(self) -> str:
        if self.core is None:
            return str(self.twist)
        if self.twist.is_empty():
            return str(self.core)
        return f"{self.core}*{self.twist}"


def character(word: CharWord) -> Constituent:
    return Constituent(None, word)


TRIVIAL = character(CharWord())


@dataclass(frozen=True)
class IsobaricExpr:
    """A formal multiset of constituents (an isobaric sum)."""

    terms: tuple[tuple[Constituent, int], ...]

    @classmethod
    def of(cls, items: Iterable[tuple[Constituent, int]]) -> "IsobaricExpr":
        merged: dict[Constituent, int] = {}
        for c, m in items:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                merged[c] = merged.get(c, 0) + m
        return cls(tuple(sorted(merged.items(), key=lambda t: str(t[0]))))

    @classmethod
    def single(cls, c: Constituent, mult: int = 1) -> "IsobaricExpr":
        return cls.of([(c, mult)])

    def __add__(self, other: "IsobaricExpr") -> "IsobaricExpr":
        if not isinstance(other, IsobaricExpr):
            return NotImplemented
        return IsobaricExpr.of(list(self.terms) + list(other.terms))

    @property
    def degree(self) -> int:
        return sum(c.degree * m for c, m in self.terms)

    def twisted(self, word: CharWord) -> "IsobaricExpr":
        return IsobaricExpr.of([(c.twisted(word), m) for c, m in self.terms])

    def constituents(self) -> tuple[tuple[Constituent, int], ...]:
        return self.terms

    def __str__(self) -> str:
        return " + ".join(
            str(c) if m == 1 else f"{m}({c})" for c, m in self.terms
        ) or "0"


def dual_constituent(c: Constituent) -> Constituent:
    core, extra = _dual_core(c.core)
    return Constituent(core, c.twist.inv() * extra)


def _dual_core(core: Core | None) -> tuple[Core | None, CharWord]:
    if core is None:
        return None, CharWord()
    if isinstance(core, BaseCusp):
        return core, CharWord.gen(core.omega, -1)
    if isinstance(core, SymCusp):
        return core, CharWord.gen(core.base.omega, -core.n)
    if isinstance(core, BoxCusp):
        left, wl = _dual_core(core.left)
        right, wr = _dual_core(core.right)
        return box_cusp(left, right), wl * wr
    if isinstance(core, InducedCusp):
        if core.self_dual:
            return core, CharWord()
        return replace(core, char_exp=-core.char_exp), CharWord()
    raise TypeError(f"unknown core {core!r}")


def dual_expr(e: IsobaricExpr) -> IsobaricExpr:
    return IsobaricExpr.of([(dual_constituent(c), m) for c, m in e.terms])


def ad(p: BaseCusp) -> Constituent:
    """The degree-3 self-dual symbol sym^2 twisted by the inverse central char."""
    return Constituent(SymCusp(p, 2), CharWord.gen(p.omega, -1))


def _as_sym(core: Core) -> tuple[BaseCusp, int] | None:
    if isinstance(core, BaseCusp):
        return core, 1
    if isinstance(core, SymCusp):
        return core.base, core.n
    return None


def rs_expand(e1: IsobaricExpr, e2: IsobaricExpr) -> IsobaricExpr:
    """The box product, expanded bilinearly.

    Same-base symmetric powers expand by Clebsch--Gordan; cross-base pairs
    stay formal box symbols.  Degrees multiply (checked).
    """
    out: list[tuple[Constituent, int]] = []
    for c1, m1 in e1.terms:
        for c2, m2 in e2.terms:
            for c in _expand_pair(c1, c2):
                out.append((c, m1 * m2))
    result = IsobaricExpr.of(out)
    if result.degree != e1.degree * e2.degree:
        raise RuntimeError(
            f"degree leak in box product: {result.degree} != "
            f"{e1.degree} * {e2.degree}"
        )
    return result


def _expand_pair(c1: Constituent, c2: Constituent) -> list[Constituent]:
    word = c1.twist * c2.twist
    if c1.core is None and c2.core is None:
        return [character(word)]
    if c1.core is None:
        return [Constituent(c2.core, word)]
    if c2.core is None:
        return [Constituent(c1.core, word)]
    s1, s2 = _as_sym(c1.core), _as_sym(c2.core)
    if s1 and s2 and s1[0] == s2[0]:
        base = s1[0]
        a, b = s1[1], s2[1]
        omega = CharWord.gen(base.omega)
        out = []
        for k in range(min(a, b) + 1):
            core = sym_cusp(base, a + b - 2 * k)
            out.append(Constituent(core, word * omega**k))
        return out
    return [Constituent(box_cusp(c1.core, c2.core), word)]


# --------------------------------------------------------------------------
# the fact ledger


_KIND_ORDERS = {"trivial": 1, "quadratic": 2, "cubic": 3}


@dataclass(frozen=True)
class CharInfo:
    order: int | None = None
    kind: str | None = None  # trivial | quadratic | cubic | non-real | None


class FactLedger:
    """Declared structure (characters, bases) and asserted equivalences.

    Facts are equivalences between constituents, asserted true or false.
    A twist-equivalence "lhs = rhs (x) nu" is stored as the equivalence of
    ``lhs`` with ``rhs`` twisted by ``nu``.  Asserting both truth values for
    one fact raises :class:`LedgerError`.

    Identity is structural: facts, cuspidality, automorphy and self-duality
    are keyed by the frozen symbol dataclasses (constituents with twists
    reduced modulo the known orders, or bare cores), never by their printed
    text.  A name is either a base or a character, not both.
    """

    def __init__(self) -> None:
        self.tab = default_table()
        self.characters: dict[str, CharInfo] = {}
        self.bases: dict[str, BaseCusp] = {}
        self.base_changes: dict[tuple[str, str], BaseCusp] = {}
        self._facts: dict[frozenset[Constituent], bool] = {}
        self._cuspidal: dict[Core, bool] = {}
        self._automorphic: dict[Core, bool] = {}
        self._word_kinds: dict[CharWord, str] = {}
        self._self_dual: dict[Constituent, bool] = {}
        self._orders: dict[str, int] = {}  # kept in step with declare_character
        self._galois_cache: dict[Core, ClassFunction | None] = {}
        self._galois_mults: dict[Core, dict[str, int] | None] = {}

    # -- declarations ---------------------------------------------------

    def declare_character(
        self, name: str, order: int | None = None, kind: str | None = None
    ) -> None:
        self._declare_characters([(name, CharInfo(order, kind))])

    def _declare_characters(self, items: list[tuple[str, CharInfo]]) -> None:
        """Check every declaration first, then make them all: a refused one
        leaves the ledger unchanged."""
        pending: dict[str, CharInfo] = {}
        for name, info in items:
            known = pending.get(name, self.characters.get(name))
            if known is not None and known != info:
                raise LedgerError(f"character {name} redeclared as {info}, was {known}")
            if info.order is not None and info.order < 1:
                raise LedgerError(f"character {name} declared with order {info.order}")
            if name in self.bases:
                raise LedgerError(f"{name} is declared as a base, not a character")
            pending[name] = info
        for name, info in pending.items():
            self.characters[name] = info
            order = info.order or _KIND_ORDERS.get(info.kind)
            if order:
                self._orders[name] = order

    def declare_base(self, name: str, typ: str, **tags) -> BaseCusp:
        if typ not in BASE_TYPES:
            raise LedgerError(f"unknown base type {typ!r}; pick from {BASE_TYPES}")
        row = tags.get("galois_row")
        if row is not None and row not in ("X'", "X''"):
            raise LedgerError(f"base {name}: galois_row must be X' or X'', got {row!r}")
        tags.setdefault("omega", f"omega({name})")
        base = BaseCusp(name=name, typ=typ, **tags)
        companions: list[tuple[str, CharInfo]] = []
        if typ == "dihedral":
            if not (base.dihedral_field and base.dihedral_char):
                raise LedgerError(
                    f"dihedral base {name} needs dihedral_field and dihedral_char"
                )
            companions.append((base.dihedral_char, CharInfo()))
            # chi o theta, the Galois conjugate the dihedral route twists by
            theta = f"{base.dihedral_char}@theta"
            if theta not in self.characters:
                companions.append((theta, CharInfo()))
        if typ == "tetrahedral":
            base = replace(base, cubic_char=base.cubic_char or f"eta({name})")
            companions.append((base.cubic_char, CharInfo(3, "cubic")))
        if typ == "octahedral":
            base = replace(
                base,
                quadratic_char=base.quadratic_char or f"mu({name})",
                induced_field=base.induced_field or f"K({name})",
                induced_char=base.induced_char or f"chi0({name})",
            )
            companions.append((base.quadratic_char, CharInfo(2, "quadratic")))
        companions.append((base.omega, CharInfo()))
        if name in self.bases and self.bases[name] != base:
            raise LedgerError(f"base {name} redeclared differently")
        if name in self.characters or any(char == name for char, _ in companions):
            raise LedgerError(f"{name} is declared as a character, not a base")
        self._declare_characters(companions)
        self.bases[name] = base
        return base

    def declare_base_change(
        self, of: BaseCusp, extension: str, name: str, typ: str
    ) -> BaseCusp:
        tags = {}
        if typ == "dihedral":
            # only the type tag matters downstream; name the inducing data
            tags = {"dihedral_field": f"E({name})", "dihedral_char": f"xi({name})"}
        bc = self.declare_base(name, typ, **tags)
        self.base_changes[(of.name, extension)] = bc
        return bc

    def base_change(self, of: BaseCusp, extension: str) -> BaseCusp | None:
        return self.base_changes.get((of.name, extension))

    def declare_cuspidal(self, core: Core, truth: bool = True) -> None:
        self._cuspidal[core] = truth

    def declare_automorphic(self, core: Core, truth: bool = True) -> None:
        self._automorphic[core] = truth

    def cuspidal_declared(self, core: Core) -> bool | None:
        return self._cuspidal.get(core)

    def automorphic_declared(self, core: Core) -> bool | None:
        if self._automorphic.get(core) is not None:
            return self._automorphic[core]
        declared = self.cuspidal_declared(core)  # cuspidal implies automorphic
        return True if declared else None

    def declare_word_kind(self, word: CharWord, kind: str) -> None:
        """Record what kind of character a word denotes (trivial, quadratic,
        cubic, non-real ...) beyond what its generators' orders force."""
        self._word_kinds[word.reduce(self._orders)] = kind

    def word_kind(self, word: CharWord) -> str | None:
        reduced = word.reduce(self._orders)
        kind = self._word_kinds.get(reduced)
        if kind is not None:
            return kind
        if reduced.is_empty():
            return "trivial"
        if len(reduced.word) == 1:
            name, exp = reduced.word[0]
            info = self.characters.get(name)
            if info and info.kind and exp == 1:
                return info.kind
        return None

    def declare_self_dual(self, c: Constituent, truth: bool) -> None:
        self._self_dual[self._canon(c)] = truth

    def self_dual_declared(self, c: Constituent) -> bool | None:
        return self._self_dual.get(self._canon(c))

    # -- facts ------------------------------------------------------------

    def _canon(self, c: Constituent) -> Constituent:
        return Constituent(c.core, c.twist.reduce(self._orders))

    def _key(self, c1: Constituent, c2: Constituent) -> frozenset[Constituent]:
        return frozenset((self._canon(c1), self._canon(c2)))

    def assert_equiv(self, c1: Constituent, c2: Constituent, truth: bool) -> None:
        key = self._key(c1, c2)
        if key in self._facts and self._facts[key] != truth:
            raise LedgerError(
                f"contradictory assertions for {set(map(str, key))}: "
                f"{self._facts[key]} vs {truth}"
            )
        self._facts[key] = truth

    def assert_twist_equiv(
        self, c1: Constituent, c2: Constituent, twist: CharWord, truth: bool
    ) -> None:
        self.assert_equiv(c1, c2.twisted(twist), truth)

    def declared(self, c1: Constituent, c2: Constituent) -> bool | None:
        return self._facts.get(self._key(c1, c2))

    # -- equivalence resolution --------------------------------------------

    def equivalent(self, c1: Constituent, c2: Constituent) -> tuple[bool | None, str]:
        """Resolve equivalence; returns (verdict-or-None, reason/missing-fact)."""
        return self._resolve(self._canon(c1), self._canon(c2))

    def _resolve(self, k1: Constituent, k2: Constituent) -> tuple[bool | None, str]:
        """:meth:`equivalent` on constituents already reduced by :meth:`_canon`."""
        fact = self._facts.get(frozenset((k1, k2)))
        if fact is not None:
            return fact, f"declared: {k1} ~ {k2} is {fact}"
        if k1 == k2:
            return True, "structural equality"
        if k1.degree != k2.degree:
            return False, f"degrees differ ({k1.degree} vs {k2.degree})"
        if k1.core is None and k2.core is None:
            return False, "distinct character words are generically distinct"
        if (k1.core is None) != (k2.core is None):
            return False, "a character is never a higher-degree cuspidal"
        if k1.core == k2.core:
            return self._self_twist_query(k1, k2)
        rows1, rows2 = self.galois_rows(k1.core), self.galois_rows(k2.core)
        if rows1 is not None and rows2 is not None and rows1 != rows2:
            return False, (
                f"finite-image restrictions differ: {sorted(rows1)} vs {sorted(rows2)}"
            )
        return None, f"equiv({k1}, {k2})"

    def _self_twist_query(
        self, c1: Constituent, c2: Constituent
    ) -> tuple[bool | None, str]:
        """Same core, different twists: needs a self-twist, which only
        dihedral/tetrahedral-flavored symbols (or undeclared ones) can have."""
        possible = self._self_twist_possible(c1.core)
        if possible is False:
            return False, f"{c1.core} admits no self-twist for its declared type"
        return None, f"equiv({c1}, {c2}) (potential self-twist)"

    def _self_twist_possible(self, core: Core) -> bool | None:
        sym = _as_sym(core)
        if sym is None:
            return None
        base, n = sym
        if base.typ == "abstract":
            return None
        if n == 1:
            return None if base.typ == "dihedral" else False
        if n == 2:
            # sym^2 self-twists live over dihedral (quadratic) and
            # tetrahedral (cubic) bases only
            return None if base.typ in ("dihedral", "tetrahedral") else False
        if n == 3:
            return None if base.typ in ("dihedral", "octahedral") else False
        return None

    def galois_rows(self, core: Core) -> frozenset[str] | None:
        mults = self.galois_decomposition(core)
        return None if mults is None else frozenset(mults)

    def galois_decomposition(self, core: Core) -> dict[str, int] | None:
        """Multiplicities of the finite-image restriction; None if untagged."""
        if core not in self._galois_mults:
            cf = self._galois_cf(core)
            self._galois_mults[core] = None if cf is None else self.tab.decompose(cf)
        return self._galois_mults[core]

    def _galois_cf(self, core: Core) -> ClassFunction | None:
        if core not in self._galois_cache:
            self._galois_cache[core] = self._galois_cf_uncached(core)
        return self._galois_cache[core]

    def _galois_cf_uncached(self, core: Core) -> ClassFunction | None:
        if isinstance(core, BaseCusp):
            return self.tab.row(core.galois_row) if core.galois_row else None
        if isinstance(core, SymCusp):
            inner = self._galois_cf(core.base)
            return None if inner is None else self.tab.sym_power(inner, core.n)
        if isinstance(core, BoxCusp):
            left, right = self._galois_cf(core.left), self._galois_cf(core.right)
            return None if left is None or right is None else left * right
        return None

    def galois_restriction(self, e: IsobaricExpr) -> ClassFunction:
        """Restrict a formal expression to the finite model; twists drop."""
        total = ClassFunction.of([0] * 9)
        for c, m in e.terms:
            if c.core is None:
                cf = self.tab.trivial()
            else:
                cf = self._galois_cf(c.core)
                if cf is None:
                    raise LedgerError(f"no finite-image model for {c.core}")
            total = total + m * cf
        return total

    def char_is_trivial(self, word: CharWord) -> bool:
        """Generically: trivial iff the word reduces to the empty word."""
        reduced = word.reduce(self._orders)
        if reduced.is_empty():
            return True
        for name, _ in reduced.word:
            if self.characters.get(name, CharInfo()).kind == "trivial":
                # a declared-trivial generator cannot block nontriviality
                continue
            return False
        return True


# --------------------------------------------------------------------------
# pole bookkeeping


@dataclass(frozen=True)
class PoleOrder:
    lo: int
    hi: int
    missing: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def value(self) -> int:
        if not self.exact:
            raise LedgerError(
                f"pole order undetermined in [{self.lo}, {self.hi}]; "
                f"missing facts: {list(self.missing)}"
            )
        return self.lo

    def __str__(self) -> str:
        return str(self.lo) if self.exact else f"[{self.lo}, {self.hi}]"


def pole_order(e: IsobaricExpr, ledger: FactLedger) -> PoleOrder:
    """Order of the edge pole of L(s, e x dual(e)): sum of squared
    multiplicities after merging equivalent constituents.

    Each term is reduced modulo the ledger's character orders once; the
    comparisons on those keys give the verdicts and reasons of
    :meth:`FactLedger.equivalent`.  Pairs the ledger cannot settle widen the
    result to an interval: the lower end keeps them distinct, the upper end
    merges every class connected by an undetermined comparison.
    """
    classes: list[tuple[Constituent, int]] = []
    for c, m in e.terms:
        key = ledger._canon(c)
        for i, (rep, total) in enumerate(classes):
            verdict, _ = ledger._resolve(key, rep)
            if verdict is True:
                classes[i] = (rep, total + m)
                break
        else:
            classes.append((key, m))
    lo = sum(total * total for _, total in classes)

    missing: list[str] = []
    parent = list(range(len(classes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            verdict, reason = ledger._resolve(classes[i][0], classes[j][0])
            if verdict is None:
                missing.append(reason)
                parent[find(i)] = find(j)
    merged: dict[int, int] = {}
    for i, (_, total) in enumerate(classes):
        root = find(i)
        merged[root] = merged.get(root, 0) + total
    hi = sum(total * total for total in merged.values())
    return PoleOrder(lo, hi, tuple(dict.fromkeys(missing)))


def pole_order_pair(
    e: IsobaricExpr, tau: Constituent, ledger: FactLedger
) -> PoleOrder:
    """Order of the edge pole of L(s, e x dual(tau)): multiplicity of tau."""
    lo = hi = 0
    missing = []
    target = ledger._canon(tau)
    for c, m in e.terms:
        verdict, reason = ledger._resolve(ledger._canon(c), target)
        if verdict is True:
            lo += m
            hi += m
        elif verdict is None:
            hi += m
            missing.append(reason)
    return PoleOrder(lo, hi, tuple(dict.fromkeys(missing)))


def galois_pole_check(f: ClassFunction, tab: CharacterTable | None = None) -> int:
    """<f * dual(f), trivial> for a genuine character f.

    Cross-checked three ways (the pairing of f with itself, and the sum of
    squared multiplicities); they must agree exactly.
    """
    tab = tab or default_table()
    mults = tab.decompose(f)  # raises NotACharacterError when f is not one
    via_dual = tab.inner_product(f * tab.dual(f), tab.trivial())
    via_pairing = tab.inner_product(f, f)
    via_mults = sum(m * m for m in mults.values())
    if not (via_dual == via_pairing == Qsqrt5(via_mults)):
        raise RuntimeError(
            f"pole-check mismatch: {via_dual} vs {via_pairing} vs {via_mults}"
        )
    return via_mults


# --------------------------------------------------------------------------
# the degree-5 lift of a GL(2) symbol


def a4(p: BaseCusp, ledger: FactLedger) -> IsobaricExpr:
    """The degree-5 self-dual symbol sym^4 (x) omega^-2, decomposed by type.

    Dihedral input is rejected (its sym^2 is already non-cuspidal, and the
    callers handle that case separately).  For the solvable polyhedral types
    the symbol splits; otherwise it is cuspidal and stays in one piece.
    """
    if p.typ == "dihedral":
        raise ValueError(f"{p.name} is dihedral; the degree-5 lift is not used")
    if p.typ == "abstract":
        raise LedgerError(f"declare the type of {p.name} before lifting")
    if p.typ == "tetrahedral":
        eta = CharWord.gen(p.cubic_char)
        return (
            IsobaricExpr.single(ad(p))
            + IsobaricExpr.single(character(eta))
            + IsobaricExpr.single(character(eta**2))
        )
    if p.typ == "octahedral":
        mu = CharWord.gen(p.quadratic_char)
        complement = Constituent(
            InducedCusp(p.induced_field, p.induced_char, self_dual=True)
        )
        return IsobaricExpr.single(ad(p).twisted(mu)) + IsobaricExpr.single(
            complement
        )
    return IsobaricExpr.single(
        Constituent(SymCusp(p, 4), CharWord.gen(p.omega, -2))
    )


# --------------------------------------------------------------------------
# cuspidality of pi box sym^2(pi')


@dataclass(frozen=True)
class Verdict:
    verdict: str  # cuspidal | not-cuspidal | undetermined
    route: str
    witnesses: tuple[str, ...] = ()
    missing: tuple[str, ...] = ()
    pole: PoleOrder | None = None

    def as_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "route": self.route,
            "witnesses": list(self.witnesses),
            "missing_facts": list(self.missing),
        }
        if self.pole is not None:
            out["pole_order"] = (
                self.pole.lo if self.pole.exact else [self.pole.lo, self.pole.hi]
            )
        return out


def _mackey_twist(p: BaseCusp) -> CharWord:
    """chi^-1 (chi o theta) for the inducing character of a dihedral base."""
    chi = p.dihedral_char
    return CharWord.of({chi: -1, f"{chi}@theta": 1})


def decide_cuspidality(
    p: BaseCusp, p_prime: BaseCusp, ledger: FactLedger
) -> Verdict:
    """Is pi box sym^2(pi') cuspidal?  The structural route.

    Dihedral ``p`` reduces to Mackey theory over its quadratic extension;
    for non-dihedral ``p`` everything hinges on whether the two adjoint
    symbols agree, with one extra quadratic-twist escape for octahedral
    ``p'``.  Dihedral ``p'`` makes sym^2(p') non-cuspidal, hence the product
    never cuspidal.
    """
    route = "structural"
    if p.typ == "abstract":
        return Verdict(
            "undetermined", route, missing=(f"declare the type of {p.name}",)
        )
    if p.typ == "dihedral":
        return _decide_dihedral_case(p, p_prime, ledger, route)
    if p_prime.typ == "abstract":
        return Verdict(
            "undetermined", route, missing=(f"declare the type of {p_prime.name}",)
        )
    if p_prime.typ == "dihedral":
        return Verdict(
            "not-cuspidal",
            route,
            witnesses=(f"sym^2({p_prime.name}) is not cuspidal (dihedral)",),
        )

    ad_eq, ad_reason = ledger.equivalent(ad(p), ad(p_prime))
    if p_prime.typ == "octahedral":
        mu = CharWord.gen(p_prime.quadratic_char)
        mu_eq, mu_reason = ledger.equivalent(ad(p), ad(p_prime).twisted(mu))
        if ad_eq is True and mu_eq is True:
            raise LedgerError(
                "inconsistent ledger: both adjoint facts true would force a "
                f"quadratic self-twist on Ad({p_prime.name}), impossible for an "
                "octahedral (non-dihedral) base"
            )
        if ad_eq is True or mu_eq is True:
            reason = ad_reason if ad_eq else mu_reason
            return Verdict("not-cuspidal", route, witnesses=(reason,))
        if ad_eq is False and mu_eq is False:
            return Verdict(
                "cuspidal", route, witnesses=(ad_reason, mu_reason)
            )
        missing = tuple(
            r for v, r in ((ad_eq, ad_reason), (mu_eq, mu_reason)) if v is None
        )
        return Verdict("undetermined", route, missing=missing)

    if ad_eq is True:
        return Verdict("not-cuspidal", route, witnesses=(ad_reason,))
    if ad_eq is False:
        return Verdict("cuspidal", route, witnesses=(ad_reason,))
    return Verdict("undetermined", route, missing=(ad_reason,))


def _decide_dihedral_case(
    p: BaseCusp, p_prime: BaseCusp, ledger: FactLedger, route: str
) -> Verdict:
    ext = p.dihedral_field
    bc = ledger.base_change(p_prime, ext)
    if bc is None:
        return Verdict(
            "undetermined",
            route,
            missing=(f"declare the base change of {p_prime.name} to {ext}",),
        )
    if bc.typ == "dihedral":
        return Verdict(
            "not-cuspidal",
            route,
            witnesses=(f"{bc.name} (base change to {ext}) is dihedral",),
        )
    if bc.typ == "abstract":
        return Verdict(
            "undetermined",
            route,
            missing=(f"declare the type of the base change {bc.name}",),
        )
    sym2_bc = Constituent(SymCusp(bc, 2))
    twist = _mackey_twist(p)
    self_twist, reason = ledger.equivalent(sym2_bc, sym2_bc.twisted(twist))
    if self_twist is True:
        return Verdict("not-cuspidal", route, witnesses=(reason,))
    if self_twist is False:
        return Verdict("cuspidal", route, witnesses=(reason,))
    return Verdict("undetermined", route, missing=(reason,))


def decide_cuspidality_via_poles(
    p: BaseCusp, p_prime: BaseCusp, ledger: FactLedger
) -> Verdict:
    """Is pi box sym^2(pi') cuspidal?  The pole-counting route.

    Valid when both bases are non-dihedral: the self-Rankin--Selberg
    L-function of the product factors through the two adjoints and the
    degree-5 lift, and the product is cuspidal exactly when the edge pole
    is simple.
    """
    route = "pole-counting"
    for base in (p, p_prime):
        if base.typ == "dihedral":
            raise ValueError(
                f"{base.name} is dihedral; pole counting needs non-dihedral bases"
            )
        if base.typ == "abstract":
            return Verdict(
                "undetermined", route, missing=(f"declare the type of {base.name}",)
            )

    ad_p = IsobaricExpr.single(ad(p))
    lift = a4(p_prime, ledger)

    total_lo = total_hi = 1  # the zeta factor
    witnesses = ["zeta factor contributes 1"]
    missing: list[str] = []

    def add(po: PoleOrder, label: str) -> None:
        nonlocal total_lo, total_hi
        total_lo += po.lo
        total_hi += po.hi
        missing.extend(po.missing)
        witnesses.append(f"{label} contributes {po}")

    # single factors: L(Ad p), L(Ad p'), L(a4 p') — poles only at trivial
    # character constituents
    for label, expr in (
        (f"L(Ad {p.name})", ad_p),
        (f"L(Ad {p_prime.name})", IsobaricExpr.single(ad(p_prime))),
        (f"L(deg-5 lift of {p_prime.name})", lift),
    ):
        count = sum(
            m
            for c, m in expr.terms
            if c.core is None and ledger.char_is_trivial(c.twist)
        )
        add(PoleOrder(count, count), label)

    # pairings against Ad p: Ad p is self-dual, so a pole needs equivalence
    add(
        pole_order_pair(IsobaricExpr.single(ad(p_prime)), ad(p), ledger),
        f"L(Ad {p.name} x Ad {p_prime.name})",
    )
    add(
        pole_order_pair(lift, ad(p), ledger),
        f"L(Ad {p.name} x deg-5 lift)",
    )

    pole = PoleOrder(total_lo, total_hi, tuple(dict.fromkeys(missing)))
    if not pole.exact:
        return Verdict("undetermined", route, missing=pole.missing, pole=pole)
    verdict = "cuspidal" if pole.value() == 1 else "not-cuspidal"
    return Verdict(verdict, route, witnesses=tuple(witnesses), pole=pole)


# --------------------------------------------------------------------------
# the standard icosahedral pair and its nine-object family


def standard_icosahedral_pair(
    ledger: FactLedger | None = None,
) -> tuple[FactLedger, BaseCusp, BaseCusp]:
    """An icosahedral base and its conjugate partner, tagged with the two
    2-dimensional rows of the finite model so that adjoint comparisons
    resolve structurally (the rows restrict to distinct 3-dimensional
    characters, exchanged by the field automorphism of Q(sqrt 5))."""
    ledger = ledger or FactLedger()
    p = ledger.declare_base("pi", "icosahedral", galois_row="X'")
    p_tau = ledger.declare_base(
        "pi_tau", "icosahedral", omega="omega(pi)", galois_row="X''"
    )
    return ledger, p, p_tau


def icosahedral_family(
    ledger: FactLedger, p: BaseCusp, p_tau: BaseCusp
) -> list[tuple[str, Constituent, str]]:
    """The nine cuspidal symbols generating the finite model's rows.

    Returns (label, constituent, row) triples: the trivial symbol, the pair,
    their second and third symmetric powers, the cross box product, and the
    fourth and fifth powers of the first base.  Restriction hits each row of
    the character table exactly once; the check is performed here and a
    mismatch raises.
    """
    items: list[tuple[str, Constituent]] = [
        ("1", TRIVIAL),
        ("pi", Constituent(p)),
        ("pi_tau", Constituent(p_tau)),
        ("sym^2(pi)", Constituent(SymCusp(p, 2))),
        ("sym^2(pi_tau)", Constituent(SymCusp(p_tau, 2))),
        ("sym^3(pi)", Constituent(SymCusp(p, 3))),
        ("box(pi, pi_tau)", Constituent(box_cusp(p, p_tau))),
        ("sym^4(pi)", Constituent(SymCusp(p, 4))),
        ("sym^5(pi)", Constituent(SymCusp(p, 5))),
    ]
    out: list[tuple[str, Constituent, str]] = []
    seen: set[str] = set()
    for label, c in items:
        if c.core is None:
            row = "U"
        else:
            rows = ledger.galois_rows(c.core)
            if rows is None or len(rows) != 1:
                raise LedgerError(f"{label} does not restrict to a single row")
            (row,) = rows
        if row in seen:
            raise LedgerError(f"{label} repeats the row {row}")
        seen.add(row)
        out.append((label, c, row))
    if len(out) != 9:
        raise LedgerError("expected nine family members")
    return out
