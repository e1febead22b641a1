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
Self-twists are the other non-generic spot: where the type table
(:data:`icosym.rules.TYPE_RULES`) lets sym^n of the base's type admit one
(``sym^2`` of a dihedral or tetrahedral base, any power of a base of
undeclared type), such queries come back undetermined instead of defaulting
to "no".  Where it admits none, "no" is forced when the quotient of the two
twists is known not to be 1, as for two characters; otherwise it is a
generic default.

A generic answer is a default that a declared fact or word kind overturns
(a fact twisting one core by a quotient not known to be 1 says that
quotient is trivial).  A forced answer, one :meth:`FactLedger._forced`
gives, is never overturned: a declaration against it is refused.

Every reason, of an equivalence or of a cuspidality :class:`Verdict`, is kept
as data until it is shown; :func:`_text` renders it.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from math import isqrt
from typing import TYPE_CHECKING, Union

from . import MAX_POWER, Record, _set
from .rules import AUTOMORPHIC, BASE_TYPES, GALOIS_TAGS, GENERATORS, TYPE_RULES, type_rule

if TYPE_CHECKING:  # the table is built only for ledgers that query a tag
    from .chartab import ClassFunction


class LedgerError(ValueError):
    """An inconsistent or insufficient fact ledger."""


def _text(reason: tuple) -> str:
    """The text of a reason kept as data: a ``(template, *operands)`` tuple
    whose ``str.format`` template is filled with the operands' text."""
    return reason[0].format(*reason[1:])


# --------------------------------------------------------------------------
# symbols, the keys of the ledger


class Symbol(Record):
    """A record the ledger keys its facts and memos by.  One pole-order
    query hashes the same few symbols thousands of times (each fact lookup
    hashes a pair, each image lookup a core, and a hash recurses through
    the twist and the nested cores), so a symbol computes its hash once."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs) -> None:
        _set(self, "_hash", None)
        Record.__init__(self, *args, **kwargs)

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash(self._key(self)))
        return self._hash


# --------------------------------------------------------------------------
# formal characters


class CharWord(Symbol):
    """A formal character: a word in named generators with integer exponents."""

    __slots__ = ("word",)
    word: tuple[tuple[str, int], ...]

    def __init__(self, word: tuple[tuple[str, int], ...] = ()) -> None:
        _set(self, "_hash", None)  # see Record: a hot constructor, written out
        _set(self, "word", word)

    @classmethod
    def of(cls, factors: dict[str, int] | Iterable[tuple[str, int]]) -> "CharWord":
        items = factors.items() if isinstance(factors, dict) else factors
        merged: dict[str, int] = {}
        for name, exp in items:
            merged[name] = merged.get(name, 0) + exp
        return cls(tuple(sorted((n, e) for n, e in merged.items() if e)))

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "CharWord":
        return cls(((name, exp),)) if exp else cls()

    def __mul__(self, other: "CharWord") -> "CharWord":
        if not isinstance(other, CharWord):
            return NotImplemented
        if not other.word:
            return self
        if not self.word:
            return other
        return CharWord.of(self.word + other.word)

    def __pow__(self, k: int) -> "CharWord":
        return CharWord(tuple((n, e * k) for n, e in self.word)) if k else CharWord()

    def is_empty(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        if not self.word:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.word)


# --------------------------------------------------------------------------
# cuspidal cores


_NAMED_OMEGA = object()  # an omitted central character: omega(<name>)


class BaseCusp(Symbol):
    """A named cuspidal symbol on GL(2) with declared structure tags."""

    __slots__ = ("name", "typ", "omega", "dihedral_field", "dihedral_char", "cubic_char",
                 "quadratic_char", "induced_field", "induced_char", "galois_row")
    _defaults = {**dict.fromkeys(__slots__[1:]), "typ": "abstract", "omega": _NAMED_OMEGA}
    name: str
    typ: str
    omega: str  # central character generator name, omega(<name>) unless given
    dihedral_field: str | None
    dihedral_char: str | None
    cubic_char: str | None  # self-twist of sym^2 (tetrahedral)
    quadratic_char: str | None  # self-twist of sym^3 (octahedral)
    induced_field: str | None  # octahedral complement data
    induced_char: str | None
    galois_row: str | None  # finite-image model: a character-table row

    def __init__(self, *args, **kwargs) -> None:
        Symbol.__init__(self, *args, **kwargs)
        if self.omega is _NAMED_OMEGA:
            _set(self, "omega", f"omega({self.name})")

    @property
    def degree(self) -> int:
        return 2

    def __str__(self) -> str:
        return self.name


class SymCusp(Symbol):
    __slots__ = ("base", "n")
    base: BaseCusp
    n: int

    def __init__(self, base: BaseCusp, n: int) -> None:
        _set(self, "_hash", None)  # see Record: a hot constructor, written out
        _set(self, "base", base)
        _set(self, "n", n)

    @property
    def degree(self) -> int:
        return self.n + 1

    def __str__(self) -> str:
        return f"sym^{self.n}({self.base.name})"


class BoxCusp(Symbol):
    __slots__ = ("left", "right")
    left: "Core"
    right: "Core"

    @property
    def degree(self) -> int:
        return self.left.degree * self.right.degree

    def __str__(self) -> str:
        # the factors are ordered by structure (see box_cusp) and printed in text order
        return "box({}, {})".format(*sorted((str(self.left), str(self.right))))


class InducedCusp(Symbol):
    """A dihedral symbol induced from a character of a quadratic extension."""

    __slots__ = ("extension", "char")
    extension: str
    char: str

    @property
    def degree(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"Ind[{self.extension}]({self.char})"


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
    a, b = sorted((left, right), key=_order)
    return BoxCusp(a, b)


def _order(core: Core | None) -> tuple:
    """A sort key read off the structure, never the text: the base name and
    symmetric power (a base is its own first power), then box factors, then
    induced data; no core (a character) sorts first."""
    if core is None:
        return ()
    if isinstance(core, BaseCusp):
        return 0, core.name, 1
    if isinstance(core, SymCusp):
        return 0, core.base.name, core.n
    if isinstance(core, BoxCusp):
        return 1, _order(core.left), _order(core.right)
    return 2, core.extension, core.char


# --------------------------------------------------------------------------
# constituents and isobaric sums


class Constituent(Symbol):
    """A cuspidal core twisted by a formal character; core None = character."""

    __slots__ = ("core", "twist")
    core: Core | None
    twist: CharWord

    def __init__(self, core: Core | None, twist: CharWord = CharWord()) -> None:
        _set(self, "_hash", None)  # see Record: a hot constructor, written out
        _set(self, "core", core)
        _set(self, "twist", twist)

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


class IsobaricExpr(Record):
    """A formal multiset of constituents (an isobaric sum)."""

    __slots__ = ("terms",)
    terms: tuple[tuple[Constituent, int], ...]

    @classmethod
    def of(cls, items: Iterable[tuple[Constituent, int]]) -> "IsobaricExpr":
        merged: dict[Constituent, int] = {}
        for c, m in items:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                merged[c] = merged.get(c, 0) + m
        terms = sorted(merged.items(), key=lambda t: (_order(t[0].core), t[0].twist.word))
        return cls(tuple(terms))

    @classmethod
    def single(cls, c: Constituent) -> "IsobaricExpr":
        return cls(((c, 1),))

    @property
    def degree(self) -> int:
        return sum(c.degree * m for c, m in self.terms)


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
        return [
            Constituent(sym_cusp(base, a + b - 2 * k), CharWord.of(word.word + ((base.omega, k),)))
            for k in range(min(a, b) + 1)
        ]
    return [Constituent(box_cusp(c1.core, c2.core), word)]


# --------------------------------------------------------------------------
# the fact ledger


# the kinds of character, each with the order it fixes: non-real fixes none
_KIND_ORDERS = {"trivial": 1, "quadratic": 2, "cubic": 3, "non-real": None}


def _declare(table: dict, key: Symbol, value: object, what: str) -> None:
    """Record *value* for *key* in a declaration table; the same value again
    is accepted, a different one contradicts the first."""
    known = table.setdefault(key, value)
    if known != value:
        raise LedgerError(f"contradictory declarations of {what} for {key}: {known} vs {value}")


def _reduced(rows: dict[str, CharWord], word: CharWord) -> CharWord:
    """*word* modulo the lattice of :func:`_with` *rows*: each pivot's
    exponent in turn brought below its row's, at or above 0; ``word``
    itself when every one is already."""
    for name, exp in word.word:
        row = rows.get(name)
        if row is not None and not 0 <= exp < row.word[0][1]:
            break
    else:
        return word
    exps = dict(word.word)
    while wrong := [name for name in sorted(exps)
                    if name in rows and not 0 <= exps[name] < rows[name].word[0][1]]:
        row = rows[wrong[0]]  # the first, as a row meets its pivot and later generators only
        k = exps[wrong[0]] // row.word[0][1]
        for name, exp in row.word:
            exps[name] = exps.get(name, 0) - k * exp
    return CharWord.of(exps)


def _with(rows: dict[str, CharWord], word: CharWord) -> dict:
    """An echelon form of the lattice *rows* and *word* span (H. Cohen, A
    Course in Computational Algebraic Number Theory, 1993, 2.4), generators
    in name order: a row per pivot, its first generator, where it is
    positive.  The pivots and their exponents are invariants of the
    lattice, so :func:`_reduced` gives a coset one word in any echelon form."""
    word = _reduced(rows, word)
    rows = dict(rows)
    while not word.is_empty():  # Euclid on the pivot exponents of the word and a row
        pivot, a = word.word[0]
        word, a = (word, a) if a > 0 else (word ** -1, -a)
        row, rows[pivot] = rows.get(pivot), word  # a free pivot takes the word whole
        word = CharWord() if row is None else row * word ** -(row.word[0][1] // a)
    return rows


class FactLedger:
    """Declared structure (characters, bases) and asserted equivalences.

    What is known of character words is a lattice R of words known to be 1
    and a list D of words known not to be 1.  R is spanned by g^N for each g
    of declared order N, each word declared trivial, w^2 for a quadratic
    word and w^3 for a cubic one, and the quotient of each true fact between
    two characters, or between two twists of a core whose declared type
    admits no self-twist.  D holds the quotient of each such false fact, w
    for a quadratic or cubic word, w^2 for a non-real one, and g^(N/q) for
    each prime q dividing a declared order N; each member is kept reduced
    modulo R.  A declaration is refused exactly when it would put a member
    of D in R, and every answer about a character is read off the two.
    :attr:`characters` holds the generators' names.

    Other facts are equivalences between constituents, asserted true or
    false; "lhs = rhs (x) nu" is the equivalence of ``lhs`` with ``rhs``
    twisted by ``nu``.  Asserting both truths for one fact, or declaring one
    symbol's cuspidality, automorphy or self-duality two ways, is refused.
    :meth:`_forced` gives the answers no fact can change, and a fact against
    one is refused; the resolver's other answers are generic defaults, which
    a fact overturns.  Facts and self-dualities are keyed by symbol records,
    twists reduced modulo R and keyed anew when R grows.  A name is either a
    base or a character, not both.

    A ledger is written only while it is built (the ``declare_*`` and
    ``assert_*`` methods); queries only read it, but for the memo of
    :meth:`galois_decomposition`.  What concerns characters is checked in
    any order, the rest in the order of :func:`icosym.factsfile.load_facts`.
    Each reason stays data, a ``(template, *operands)`` tuple, until
    :func:`_text` shows it.
    """

    def __init__(self) -> None:
        self.characters: set[str] = set()
        self.bases: dict[str, BaseCusp] = {}
        self.base_changes: dict[tuple[str, str], BaseCusp] = {}
        self._rows: dict[str, CharWord] = {}  # R
        self._apart: dict[CharWord, tuple] = {}  # D, each word with its reason
        self._facts: dict[frozenset[Constituent], bool] = {}
        self._cuspidal: dict[Core, bool] = {}
        self._automorphic: dict[Core, bool] = {}
        self._self_dual: dict[Constituent, bool] = {}
        # per queried core: the multiplicities of its restriction
        self._decompositions: dict[Core, dict[str, int] | None] = {}

    # -- declarations ---------------------------------------------------

    def declare_character(
        self, name: str, order: int | None = None, kind: str | None = None
    ) -> None:
        """Declare a character generator, bare or of an exact order N, which
        puts g^N in R and g^(N/q) in D for each prime q dividing N.  A kind
        that fixes an order (trivial, quadratic, cubic) is that order; non-real
        puts g^2 in D.  Refused: an order below 1 or above MAX_POWER, an
        unknown kind or one the order does not fit, and what :meth:`_relate`
        refuses."""
        if order is not None and not 1 <= order <= MAX_POWER:  # N is factored by trial division
            raise LedgerError(f"character {name}: order must be from 1 to {MAX_POWER}")
        if kind is not None and kind not in _KIND_ORDERS:
            raise LedgerError(f"character {name}: unknown kind {kind!r}")
        fixed = _KIND_ORDERS.get(kind)
        if kind and order and order != fixed and (fixed or order < 3):  # non-real fits 3 and up
            raise LedgerError(f"character {name} of order {order} cannot be {kind}")
        self._declare_characters([(name, order or fixed)])
        if kind == "non-real":  # after the order, which it fits
            self.declare_word_kind(CharWord.gen(name), kind)

    def _declare_characters(self, items: Iterable[tuple[str, int | None]]) -> None:
        """Declare each name bare or of an exact order, as
        :meth:`declare_character` says; all or, when one is refused, none."""
        items, rows, apart = list(items), {}, {}
        for name, order in items:
            if name in self.bases:
                raise LedgerError(f"{name} is declared as a base, not a character")
            if order:  # g^N in R, and g^(N/q) in D for each prime q dividing N
                rows[name], reason = CharWord.gen(name, order), ("{} has order {}", name, order)
                apart |= {CharWord.gen(name, order // q): reason for q in range(2, order + 1)
                          if order % q == 0 and all(q % p for p in range(2, isqrt(q) + 1))}
        if not rows.keys().isdisjoint(self.characters):  # an order for a known generator
            what = " and ".join(f"{n} cannot have order {d}" for n, d in items if d)
            self._relate(f"character {what}", rows.values(), apart.items(), [])
        elif rows:  # new pivots, which no key, row or member of D meets: nothing to check
            self._rows.update(rows)
            self._apart.update(apart)
        self.characters.update(n for n, _ in items)

    def declare_base(self, name: str, typ: str, **tags) -> BaseCusp:
        if typ not in BASE_TYPES:
            raise LedgerError(f"unknown base type {typ!r}; pick from {BASE_TYPES}")
        row = tags.get("galois_row")
        if row is not None and row not in GALOIS_TAGS:
            raise LedgerError(f"base {name}: galois_row must be X' or X'', got {row!r}")
        if row is not None and typ != "icosahedral":
            # the rows are the binary icosahedral group's, and a tag outranks the type table
            raise LedgerError(f"base {name}: galois_row tags only an icosahedral base, not {typ}")
        if typ == "tetrahedral":
            tags["cubic_char"] = tags.get("cubic_char") or f"eta({name})"
        if typ == "octahedral":
            tags["quadratic_char"] = tags.get("quadratic_char") or f"mu({name})"
            tags["induced_field"] = tags.get("induced_field") or f"K({name})"
            tags["induced_char"] = tags.get("induced_char") or f"chi0({name})"
        # every field by position, which skips the generic keyword binding; a
        # tag left over is not a field, and the binding refuses it
        fields = [tags.pop(key, BaseCusp._defaults[key]) for key in BaseCusp.__slots__[2:]]
        base = BaseCusp(name, typ, *fields, **tags)
        companions: list[tuple[str, int | None]] = []
        if typ == "dihedral":
            if not (base.dihedral_field and base.dihedral_char):
                raise LedgerError(
                    f"dihedral base {name} needs dihedral_field and dihedral_char"
                )
            # chi and chi o theta, the Galois conjugate the dihedral route twists by
            companions.append((base.dihedral_char, None))
            companions.append((f"{base.dihedral_char}@theta", None))
        if typ == "tetrahedral":
            companions.append((base.cubic_char, 3))
        if typ == "octahedral":
            companions.append((base.quadratic_char, 2))
        companions.append((base.omega, None))
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
        """Refused when *of* already has another base change to *extension*."""
        known = self.base_changes.get((of.name, extension))
        if known is not None and known.name != name:
            raise LedgerError(
                f"contradictory declarations of the base change of {of.name} to {extension}: "
                f"{known.name} vs {name}"
            )
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
        """Refused when the type or the finite image of a tagged base
        decides the other way, and as true when the core is declared not
        automorphic: cuspidal implies automorphic."""
        if truth and self._automorphic.get(core) is False:
            raise LedgerError(f"{core} cannot be declared cuspidal: it is declared not automorphic")
        sym = _as_sym(core)
        derived, reason = (None, "") if sym is None else _derived_cuspidal(*sym, self)
        if derived is not None and derived != truth:
            what = "cuspidal" if truth else "not cuspidal"
            raise LedgerError(f"{core} cannot be declared {what}: {reason}")
        _declare(self._cuspidal, core, truth, "cuspidal")

    def declare_automorphic(self, core: Core, truth: bool = True) -> None:
        """Refused as false where automorphy is cited for every base (2 <= n <= 4),
        and where the core is cuspidal, which implies automorphic: cuspidal as
        :func:`sym_power_cuspidal` reads it for a base or sym^n, as declared for
        any other core.  The finite image of a tagged base implies automorphy
        only given the family generators, which a file may deny."""
        if not truth:
            sym = _as_sym(core)
            if sym is not None and sym[1] in AUTOMORPHIC:
                raise LedgerError(
                    f"{core} cannot be declared not automorphic: {AUTOMORPHIC[sym[1]]}"
                )
            cuspidal, reason = (
                (self.cuspidal_declared(core), f"declared: {core} cuspidal is True")
                if sym is None else sym_power_cuspidal(*sym, self)
            )
            if cuspidal:
                raise LedgerError(f"{core} cannot be declared not automorphic: "
                                  f"it is cuspidal ({reason})")
        _declare(self._automorphic, core, truth, "automorphic")

    def cuspidal_declared(self, core: Core) -> bool | None:
        return self._cuspidal.get(core)

    def automorphic_declared(self, core: Core) -> bool | None:
        if self._automorphic.get(core) is not None:
            return self._automorphic[core]
        declared = self.cuspidal_declared(core)  # cuspidal implies automorphic
        return True if declared else None

    def declare_word_kind(self, word: CharWord, kind: str) -> None:
        """Record a word's kind: trivial puts it in R, quadratic or cubic its
        square or cube in R and it in D, non-real its square in D.  Refused
        where then a member of D would be in R, as :meth:`_relate` says."""
        if kind not in _KIND_ORDERS:
            raise LedgerError(f"word {word}: unknown kind {kind!r}")
        power = _KIND_ORDERS[kind]
        self._relate(f"{word} cannot be declared {kind}", (word ** power,) if power else (),
                     ((word if power else word ** 2, ("{} is {}", word, kind)),) * (power != 1),
                     [n for n, _ in word.word])

    def word_kind(self, word: CharWord) -> str | None:
        """A word's kind, read off R and D: trivial in R; quadratic or cubic
        where its square or cube is in R and it is known not to be 1;
        non-real where its square is known not to be 1; else None."""
        for kind, power in _KIND_ORDERS.items():  # the first power of it in R, if any
            if power and _reduced(self._rows, word ** power).is_empty():
                return kind if power == 1 or self._distinct(word) else None
        return "non-real" if self._distinct(word ** 2) else None

    def declare_self_dual(self, c: Constituent, truth: bool) -> None:
        """A character is self-dual when it is its inverse, so its self-duality
        is the fact ``c ~ c^-1``, asserted by :meth:`assert_equiv` and refused
        by its rules.  A cusp-form symbol's self-duality is taken as declared."""
        if c.core is None:
            self.assert_equiv(c, character(c.twist ** -1), truth)
            return
        self._declare_characters((n, None) for n, _ in c.twist.word if n not in self.characters)
        _declare(self._self_dual, self._canon(c), truth, "self-duality")

    def self_dual_declared(self, c: Constituent) -> bool | None:
        """A character's self-duality as :meth:`_forced` gives it; a cusp form's as declared."""
        key = self._canon(c)
        if key.core is None:
            forced = self._forced(key, self._canon(character(key.twist ** -1)))
            return forced and forced[0]
        return self._self_dual.get(key)

    # -- facts ------------------------------------------------------------

    def _canon(self, c: Constituent, rows: dict[str, CharWord] | None = None) -> Constituent:
        """*c* with its twist reduced modulo R, or modulo *rows*; ``c`` when it is."""
        twist = _reduced(self._rows if rows is None else rows, c.twist)
        return c if twist is c.twist else Constituent(c.core, twist)

    def assert_equiv(self, c1: Constituent, c2: Constituent, truth: bool) -> None:
        """Refused where :meth:`_forced` gives the other answer.  A fact
        between two characters, or two twists of a core whose declared type
        admits no self-twist, says whether their quotient is 1: a true one
        puts it in R, a false one in D."""
        k1, k2 = self._canon(c1), self._canon(c2)
        key = frozenset((k1, k2))
        if not truth and len(key) == 1:
            raise LedgerError(f"{c1} ~ {c2} cannot be declared false: both sides reduce to {k1}")
        # one core, compared by its cached hash first, as most facts have two
        if hash(k1.core) == hash(k2.core) and k1.core == k2.core and (
                k1.core is None or _no_self_twist(k1.core)):
            quotient = k1.twist * k2.twist ** -1
            why = "" if k1.core is None else f", as {k1.core} admits no self-twist"
            self._relate(f"{k1} ~ {k2} cannot be declared {str(truth).lower()}{why}",
                         (quotient,) * truth,
                         ((quotient, ("declared: {} ~ {} is {}", k1, k2, truth)),) * (not truth),
                         [n for n, _ in k1.twist.word + k2.twist.word])
            return
        if truth and (forced := self._forced(k1, k2)) and not forced[0]:
            raise LedgerError(f"{k1} ~ {k2} cannot be declared true: {_text(forced[1])}")
        if key in self._facts and self._facts[key] != truth:
            first, second = sorted(map(str, (k1, k2)))
            raise LedgerError(
                f"contradictory assertions for {first} ~ {second}: {self._facts[key]} vs {truth}"
            )
        new = [(n, None) for n, _ in k1.twist.word + k2.twist.word if n not in self.characters]
        if new:  # most facts name no new generator, and skip the call
            self._declare_characters(new)
        self._facts[key] = truth

    def _relate(self, refusal: str, ones: Iterable[CharWord],
                apart: Iterable[tuple[CharWord, tuple]], names: list[str]) -> None:
        """Put the words *ones* in R and the (word, reason) pairs *apart* in D,
        and declare the generators *names*, bare where they are new; all or
        none.  Refused where a name is a base's, where :meth:`_rekeyed`
        refuses, and where then a member of D would be in R: as *refusal*,
        then that member and why it is not 1."""
        if taken := [n for n in names if n in self.bases]:
            raise LedgerError(f"{taken[0]} is declared as a base, not a character")
        rows = reduce(_with, ones, self._rows)
        moved = rows != self._rows  # then each old member is reduced anew
        members = {} if moved else dict(self._apart)
        for word, reason in [*(self._apart.items() if moved else ()), *apart]:
            if (member := _reduced(rows, word)).is_empty():
                raise LedgerError(f"{refusal}: " + (
                    f"{word} is 1" if _reduced(self._rows, word).is_empty() else
                    f"then {word} would be 1, but {_text(reason)}"))
            members.setdefault(member, reason)
        if moved:  # both keyed anew before either is kept
            self._facts, self._self_dual = (self._rekeyed(rows, table, refusal)
                                            for table in (self._facts, self._self_dual))
        self.characters.update(names)
        self._rows, self._apart = rows, members

    def _rekeyed(self, rows: dict[str, CharWord], table: dict, refusal: str) -> dict:
        """Facts, keyed by pairs, or self-dualities keyed anew modulo *rows*;
        refused, naming both entries, where two then coincide with opposite
        truths, and where a false fact's two sides do."""
        def shown(key: frozenset | Constituent) -> str:  # a fact c ~ c is a pair of one
            if isinstance(key, frozenset):
                return " ~ ".join(sorted(map(str, key)) * (3 - len(key)))
            return f"the self-duality of {key}"

        out: dict = {}
        for key, truth in table.items():
            pair = isinstance(key, frozenset)
            new = frozenset(self._canon(c, rows) for c in key) if pair else self._canon(key, rows)
            if pair and not truth and len(new) < len(key):
                raise LedgerError(f"{refusal}: then {shown(key)}, declared False, would have "
                                  f"both sides {next(iter(new))}")
            if (first := out.setdefault(new, (truth, key)))[0] != truth:
                raise LedgerError(f"{refusal}: then {shown(first[1])}, declared {first[0]}, "
                                  f"and {shown(key)}, declared {truth}, would be one")
        return {new: truth for new, (truth, _) in out.items()}

    # -- equivalence resolution --------------------------------------------

    def equivalent(self, c1: Constituent, c2: Constituent) -> tuple[bool | None, str]:
        """Resolve equivalence; returns (verdict-or-None, reason/missing-fact)."""
        verdict, reason = self._resolve(self._canon(c1), self._canon(c2))
        return verdict, _text(reason)

    def _resolve(self, k1: Constituent, k2: Constituent) -> tuple[bool | None, tuple]:
        """:meth:`equivalent` on constituents already reduced by :meth:`_canon`,
        with the reason as a ``(template, *operands)`` tuple."""
        if (fact := self._facts.get(frozenset((k1, k2)))) is not None:
            return fact, ("declared: {} ~ {} is {}", k1, k2, fact)
        if forced := self._forced(k1, k2):
            return forced
        # the generic defaults, which a fact may overturn; cores by their cached hash first
        if hash(k1.core) != hash(k2.core) or k1.core != k2.core:
            return None, ("equiv({}, {})", k1, k2)
        if k1.core is None:  # two characters, as the degrees agree
            return False, ("distinct character words are generically distinct",)
        if _no_self_twist(k1.core):
            return False, ("{} admits no self-twist for its declared type", k1.core)
        return None, ("equiv({}, {}) (potential self-twist)", k1, k2)

    def _forced(self, k1: Constituent, k2: Constituent) -> tuple[bool, tuple] | None:
        """The answer no fact can change for two reduced constituents, with its
        reason tuple, or None.  True when they are equal (for twists, when
        their quotient is in R); False when their degrees or the finite-image
        rows of two distinct cores differ, or when :meth:`_distinct` shows
        the quotient of two characters, or of two twists of a core whose
        type admits no self-twist, is not 1."""
        if k1 == k2:
            return True, ("structural equality",)
        if k1.degree != k2.degree:
            return False, ("degrees differ ({} vs {})", k1.degree, k2.degree)
        if k1.core != k2.core:  # two cores, as every core has degree at least 2
            r1, r2 = self.galois_decomposition(k1.core), self.galois_decomposition(k2.core)
            if r1 is not None and r2 is not None and r1.keys() != r2.keys():
                return False, ("finite-image restrictions differ: {} vs {}",
                               sorted(r1), sorted(r2))
        elif (k1.core is None or _no_self_twist(k1.core)) and (
                reason := self._distinct(k1.twist * k2.twist ** -1)):
            return False, reason if k1.core is None else (
                "{} admits no self-twist for its declared type, and " + reason[0],
                k1.core, *reason[1:])
        return None

    def _distinct(self, word: CharWord) -> tuple | None:
        """Why a quotient of twists is not 1, as a reason tuple, or None: R
        with it holds a member of D, whose reason it gives.  A member is
        reduced modulo R, so it can join R only where the quotient moves the
        row of its first generator."""
        rows = _with(self._rows, word)
        moved = {pivot for pivot, row in rows.items() if self._rows.get(pivot) is not row}
        for member, reason in self._apart.items():
            if member.word[0][0] in moved and _reduced(rows, member).is_empty():
                return ("their quotient {} is not 1: " + reason[0], _reduced(self._rows, word),
                        *reason[1:])
        return None

    def galois_decomposition(self, core: Core) -> dict[str, int] | None:
        """Multiplicities of the finite-image restriction; None if untagged.
        The memo: each queried core is restricted and decomposed once.  It is
        per ledger, not process-wide: a new document's cores equal stored
        ones without being them, so each hit would compare them field by field."""
        if core not in self._decompositions:
            cf = _restrict(core)
            mults = None
            if cf is not None:
                from .chartab import default_table

                mults = default_table().decompose(cf)
            self._decompositions[core] = mults
        return self._decompositions[core]


def _no_self_twist(core: Core) -> bool:
    """The type table's twists(n) rules out a self-twist of this sym^n."""
    sym = _as_sym(core)
    return sym is not None and not TYPE_RULES[sym[0].typ][0](sym[1])


def _restrict(core: Core) -> ClassFunction | None:
    """A core's restriction to the finite model; None unless its bases are tagged."""
    if isinstance(core, BoxCusp):
        left, right = _restrict(core.left), _restrict(core.right)
        return None if left is None or right is None else left * right
    sym = _as_sym(core)
    if sym is None or not sym[0].galois_row:
        return None
    from .chartab import default_table

    row = default_table().row(sym[0].galois_row)
    return row if sym[1] == 1 else default_table().sym_power(row, sym[1])


def galois_restriction(e: IsobaricExpr) -> ClassFunction:
    """Restrict a formal expression to the finite model; twists drop."""
    from .chartab import ClassFunction, default_table

    total = ClassFunction.of([0] * 9)
    for c, m in e.terms:
        cf = default_table().trivial() if c.core is None else _restrict(c.core)
        if cf is None:
            raise LedgerError(f"no finite-image model for {c.core}")
        total = total + m * cf
    return total


# --------------------------------------------------------------------------
# cuspidality / automorphy of symmetric powers


def sym_power_cuspidal(p: BaseCusp, n: int, ledger: FactLedger) -> tuple[bool | None, str]:
    """Is sym^n of the base cuspidal?  Declared facts win; a finite-image
    tag decides by irreducibility of the restriction; otherwise the declared
    type does, through :data:`icosym.rules.TYPE_RULES`."""
    if n == 0:
        return False, "sym^0 is the trivial character"
    declared = ledger.cuspidal_declared(SymCusp(p, n)) if n > 1 else None
    if declared is not None:
        return declared, f"declared: sym^{n}({p.name}) cuspidal is {declared}"
    return _derived_cuspidal(p, n, ledger)


def _derived_cuspidal(p: BaseCusp, n: int, ledger: FactLedger) -> tuple[bool | None, str]:
    """:func:`sym_power_cuspidal` without the declarations, for n >= 1."""
    if n == 1:
        return True, f"{p.name} is cuspidal by assumption"
    if p.galois_row is not None:
        mults = ledger.galois_decomposition(SymCusp(p, n))
        irreducible = len(mults) == 1 and set(mults.values()) == {1}
        return irreducible, (
            f"finite image: sym^{n} restriction is "
            + ("irreducible" if irreducible else f"reducible ({sorted(mults)})")
        )
    cuspidal, reason = type_rule(p.typ, n)
    if cuspidal is None:
        return None, f"declare whether sym^{n}({p.name}) is cuspidal"
    return cuspidal, reason


def sym_power_automorphic(p: BaseCusp, n: int, ledger: FactLedger) -> tuple[bool | None, str]:
    """Is sym^n of the base (isobarically) automorphic?"""
    if n <= 1:
        return True, "degree at most 2"
    declared = ledger.automorphic_declared(SymCusp(p, n))
    if declared is not None:
        return declared, f"declared: sym^{n}({p.name}) automorphic is {declared}"
    if p.galois_row is not None:
        return True, (
            f"finite image: sym^{n} restricts to a sum of rows, each realized "
            "by a twist of a family generator, so the symbol is an isobaric "
            "sum of cuspidal twists"
        )
    if n in AUTOMORPHIC:
        return True, AUTOMORPHIC[n]
    cuspidal, reason = sym_power_cuspidal(p, n, ledger)
    if cuspidal:
        return True, reason
    return None, f"declare whether sym^{n}({p.name}) is automorphic"


# --------------------------------------------------------------------------
# pole bookkeeping


class PoleOrder(Record):
    __slots__ = ("lo", "hi", "missing")
    _defaults = {"missing": ()}
    lo: int
    hi: int
    missing: tuple[str, ...]

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

    Each term is reduced modulo the ledger's relation lattice once; the
    comparisons on those keys give the verdicts and reasons of
    :meth:`FactLedger.equivalent`.  Pairs the ledger cannot settle widen the
    result to an interval: the lower end keeps them distinct, the upper end
    merges every class connected by an undetermined comparison.  Their
    reasons stay data until the end, where :func:`_texts` makes each
    distinct one text once.
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

    missing: list[tuple] = []
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
    return PoleOrder(lo, hi, _texts(missing))


def _texts(reasons: list[tuple]) -> tuple[str, ...]:
    """The text of each distinct reason, rendered once and then merged by
    text, since distinct symbols may print alike."""
    return tuple(dict.fromkeys(map(_text, dict.fromkeys(reasons))))


def pole_order_pair(e: IsobaricExpr, tau: Constituent, ledger: FactLedger) -> PoleOrder:
    """Order of the edge pole of L(s, e x dual(tau)): multiplicity of tau.  A term
    of another degree is skipped: a fact or :meth:`FactLedger._forced`'s degree
    rule makes it False, which adds nothing."""
    lo = hi = 0
    missing = []
    target = ledger._canon(tau)
    degree = target.degree
    for c, m in e.terms:
        if c.degree != degree:
            continue
        verdict, reason = ledger._resolve(ledger._canon(c), target)
        if verdict is True:
            lo += m
            hi += m
        elif verdict is None:
            hi += m
            missing.append(reason)
    return PoleOrder(lo, hi, _texts(missing) if missing else ())


def galois_pole_check(f: ClassFunction) -> int:
    """<f * dual(f), trivial> for a genuine character f.

    Cross-checked three ways (the pairing of f with itself, and the sum of
    squared multiplicities); they must agree exactly.
    """
    from .chartab import default_table
    from .scalar import Qsqrt5

    tab = default_table()
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


def a4(p: BaseCusp) -> IsobaricExpr:
    """The degree-5 self-dual symbol sym^4 (x) omega^-2, decomposed by type.

    Dihedral input is rejected (its sym^2 is already non-cuspidal, and the
    callers handle that case separately).  For the solvable polyhedral types
    the symbol splits; otherwise it is cuspidal and stays in one piece.
    """
    if p.typ == "dihedral":
        raise ValueError(f"{p.name} is dihedral; the degree-5 lift is not used")
    if p.typ == "abstract":
        raise LedgerError(f"declare the type of {p.name} before lifting")
    # each split is built in the order IsobaricExpr.of sorts it to: characters first
    if p.typ == "tetrahedral":
        eta, eta2 = CharWord.gen(p.cubic_char), CharWord.gen(p.cubic_char, 2)
        return IsobaricExpr(((character(eta), 1), (character(eta2), 1), (ad(p), 1)))
    if p.typ == "octahedral":
        mu = CharWord.gen(p.quadratic_char)
        complement = Constituent(InducedCusp(p.induced_field, p.induced_char))
        return IsobaricExpr(((ad(p).twisted(mu), 1), (complement, 1)))
    return IsobaricExpr.single(Constituent(SymCusp(p, 4), CharWord.gen(p.omega, -2)))


# --------------------------------------------------------------------------
# cuspidality of pi box sym^2(pi')


class Verdict(Record):
    """A cuspidality decision.  Its ``witnesses`` and ``missing`` facts are reasons kept
    as data, ``(template, *operands)`` tuples whose operands may be lists (so a verdict
    need not hash), until :meth:`texts` renders them, as :meth:`as_json` and the CLI do."""

    __slots__ = ("verdict", "route", "witnesses", "missing", "pole")
    verdict: str  # cuspidal | not-cuspidal | undetermined
    route: str
    witnesses: tuple[tuple, ...]
    missing: tuple[tuple, ...]
    pole: PoleOrder | None

    def __init__(self, verdict: str, route: str, witnesses: tuple[tuple, ...] = (),
                 missing: tuple[tuple, ...] = (), pole: PoleOrder | None = None) -> None:
        _set(self, "verdict", verdict)  # see Record: a hot constructor, written out
        _set(self, "route", route)
        _set(self, "witnesses", witnesses)
        _set(self, "missing", missing)
        _set(self, "pole", pole)

    def texts(self, field: str) -> tuple[str, ...]:
        """The text of each reason in *field*, ``"witnesses"`` or ``"missing"``."""
        return tuple(map(_text, getattr(self, field)))

    def as_json(self) -> dict:
        out = {"verdict": self.verdict, "route": self.route,
               "witnesses": list(self.texts("witnesses")),
               "missing_facts": list(self.texts("missing"))}
        if self.pole is not None:
            out["pole_order"] = self.pole.lo if self.pole.exact else [self.pole.lo, self.pole.hi]
        return out


def decide_cuspidality(p: BaseCusp, p_prime: BaseCusp, ledger: FactLedger) -> Verdict:
    """Is pi box sym^2(pi') cuspidal?  The structural route.

    Dihedral ``p`` reduces to Mackey theory over its quadratic extension;
    for non-dihedral ``p`` everything hinges on whether the two adjoint
    symbols agree, with one extra quadratic-twist escape for octahedral
    ``p'``.  Dihedral ``p'`` makes sym^2(p') non-cuspidal, hence the product
    never cuspidal.
    """
    route = "structural"
    if p.typ == "abstract":
        return _undeclared_type(route, p.name)
    if p.typ == "dihedral":
        return _decide_dihedral_case(p, p_prime, ledger, route)
    if p_prime.typ == "abstract":
        return _undeclared_type(route, p_prime.name)
    if p_prime.typ == "dihedral":
        return Verdict("not-cuspidal", route,
                       witnesses=(("sym^2({}) is not cuspidal (dihedral)", p_prime.name),))

    ad_p, ad_q = ledger._canon(ad(p)), ad(p_prime)
    same_ad = ledger._resolve(ad_p, ledger._canon(ad_q))
    if p_prime.typ != "octahedral":
        return _by_equivalence(route, same_ad)
    mu = CharWord.gen(p_prime.quadratic_char)
    twisted_ad = ledger._resolve(ad_p, ledger._canon(ad_q.twisted(mu)))
    if same_ad[0] is True and twisted_ad[0] is True:
        raise LedgerError(
            "inconsistent ledger: both adjoint facts true would force a "
            f"quadratic self-twist on Ad({p_prime.name}), impossible for an "
            "octahedral (non-dihedral) base"
        )
    return _by_equivalence(route, same_ad, twisted_ad)


def _by_equivalence(route: str, *checks: tuple[bool | None, tuple]) -> Verdict:
    """The product is not cuspidal iff one of the equivalences holds: the
    first that holds is the witness, every open one is missing, and with
    none holding nor open all are witnesses of cuspidality."""
    for verdict, reason in checks:
        if verdict is True:
            return Verdict("not-cuspidal", route, witnesses=(reason,))
    missing = tuple(reason for verdict, reason in checks if verdict is None)
    if missing:
        return Verdict("undetermined", route, missing=missing)
    return Verdict("cuspidal", route, witnesses=tuple(reason for _, reason in checks))


def _undeclared_type(route: str, name: str) -> Verdict:
    return Verdict("undetermined", route, missing=(("declare the type of {}", name),))


def _decide_dihedral_case(p: BaseCusp, p_prime: BaseCusp, ledger: FactLedger,
                          route: str) -> Verdict:
    ext = p.dihedral_field
    bc = ledger.base_change(p_prime, ext)
    if bc is None:
        return Verdict("undetermined", route,
                       missing=(("declare the base change of {} to {}", p_prime.name, ext),))
    if bc.typ == "dihedral":
        return Verdict("not-cuspidal", route,
                       witnesses=(("{} (base change to {}) is dihedral", bc.name, ext),))
    if bc.typ == "abstract":
        return _undeclared_type(route, f"the base change {bc.name}")
    # sym^2 of the base change against its twist by chi^-1 (chi o theta), chi inducing p
    chi, sym2_bc = p.dihedral_char, Constituent(SymCusp(bc, 2))
    mackey = ledger._canon(sym2_bc.twisted(CharWord.of({chi: -1, f"{chi}@theta": 1})))
    return _by_equivalence(route, ledger._resolve(ledger._canon(sym2_bc), mackey))


def decide_cuspidality_via_poles(p: BaseCusp, p_prime: BaseCusp, ledger: FactLedger) -> Verdict:
    """Is pi box sym^2(pi') cuspidal?  The pole-counting route.

    Valid when both bases are non-dihedral: the self-Rankin--Selberg
    L-function of the product factors through the two adjoints and the
    degree-5 lift, and the product is cuspidal exactly when the edge pole
    is simple.  A pole interval whose lower end is at least 2 decides "not
    cuspidal" and keeps the interval.
    """
    route = "pole-counting"
    for base in (p, p_prime):
        if base.typ == "dihedral":
            raise ValueError(f"{base.name} is dihedral; pole counting needs non-dihedral bases")
        if base.typ == "abstract":
            return _undeclared_type(route, base.name)

    ad_p, ad_q, lift = ad(p), IsobaricExpr.single(ad(p_prime)), a4(p_prime)
    name, name_q = p.name, p_prime.name
    # a single factor has its poles at the trivial constituents; a pairing
    # against the self-dual Ad p at the constituents equivalent to it.  Each
    # factor is its own witness: a template, names, then its pole order
    factors = (
        ("zeta factor contributes {}", PoleOrder(1, 1, ())),
        ("L(Ad {}) contributes {}", name,
         pole_order_pair(IsobaricExpr.single(ad_p), TRIVIAL, ledger)),
        ("L(Ad {}) contributes {}", name_q, pole_order_pair(ad_q, TRIVIAL, ledger)),
        ("L(deg-5 lift of {}) contributes {}", name_q, pole_order_pair(lift, TRIVIAL, ledger)),
        ("L(Ad {} x Ad {}) contributes {}", name, name_q, pole_order_pair(ad_q, ad_p, ledger)),
        ("L(Ad {} x deg-5 lift) contributes {}", name, pole_order_pair(lift, ad_p, ledger)),
    )
    orders = [factor[-1] for factor in factors]
    pole = PoleOrder(sum(po.lo for po in orders), sum(po.hi for po in orders),
                     tuple(dict.fromkeys(reason for po in orders for reason in po.missing)))
    # lo keeps every unsettled pair apart, so it is a lower bound
    if pole.lo == 1 < pole.hi:  # the missing facts of a pole order are text already
        return Verdict("undetermined", route, missing=tuple(("{}", m) for m in pole.missing),
                       pole=pole)
    verdict = "cuspidal" if pole.lo == 1 else "not-cuspidal"
    return Verdict(verdict, route, witnesses=factors, pole=pole)


# --------------------------------------------------------------------------
# the conjugate pair (pi, pi^tau) and its nine-object family


def conjugate_pair(ledger: FactLedger, p: BaseCusp | None = None) -> tuple[BaseCusp, BaseCusp]:
    """(pi, pi^tau), read from the ledger, which is never written.  The base
    is ``p`` (icosahedral and tagged), else the ledger's one tagged base, else
    an undeclared ``pi`` tagged X'; the partner is the ledger's one base with
    the other tag (several are refused), else an undeclared ``<base>_tau``
    with that tag and the base's central character, so omega(pi^tau) =
    omega(pi).  A name built as a value that the ledger declares otherwise is
    refused with a :class:`LedgerError`."""
    if p is None:
        # declare_base tags only an icosahedral base, and only with X' or X''
        tagged = [b for b in ledger.bases.values() if b.galois_row is not None]
        if len(tagged) > 1:
            raise LedgerError(
                'several icosahedral bases are tagged; pick one with a "siegel": {"p": ...} section'
            )
        if tagged:
            p = tagged[0]
        else:
            p = BaseCusp("pi", "icosahedral", galois_row="X'")
            _refuse_taken(p.name, "the default base when no base is tagged", ledger, p.galois_row)
            _refuse_taken(p.omega, f"the central character of the default base {p.name}", ledger)
    elif p.typ != "icosahedral":
        raise ValueError(f"{p.name} is {p.typ}; the report needs icosahedral type")
    elif p.galois_row not in GALOIS_TAGS:
        raise ValueError(f"{p.name} needs a 2-dimensional finite-image tag to decompose")
    (row,) = set(GALOIS_TAGS) - {p.galois_row}
    partners = sorted(b.name for b in ledger.bases.values() if b.galois_row == row)
    if len(partners) > 1:
        raise LedgerError(f"{p.name} has no unique Galois partner: several bases "
                          f"are tagged {row} ({', '.join(partners)})")
    if partners:
        return p, ledger.bases[partners[0]]
    name = f"{p.name}_tau"
    _refuse_taken(name, f"the Galois partner of {p.name}", ledger, row)
    return p, BaseCusp(name, "icosahedral", omega=p.omega, galois_row=row)


def _refuse_taken(name: str, role: str, ledger: FactLedger, row: str | None = None) -> None:
    """Refuse *name*, built as a value in *role*, when the ledger declares it
    as a base, or, for a base tagged *row*, as a character."""
    if name in ledger.bases:
        what = "a base" if row is None else f"a base without galois_row {row}"
    elif row is not None and name in ledger.characters:
        what = "a character"
    else:
        return
    raise LedgerError(f"{name}, {role}, is declared as {what}")


def standard_icosahedral_pair() -> tuple[FactLedger, BaseCusp, BaseCusp]:
    """An empty ledger and its :func:`conjugate_pair`, the values ``pi`` and
    ``pi_tau`` tagged with the two 2-dimensional rows of the finite model, so
    adjoint comparisons resolve structurally (the rows restrict to distinct
    3-dimensional characters, exchanged by the field automorphism of Q(sqrt 5))."""
    ledger = FactLedger()
    return (ledger, *conjugate_pair(ledger))


def icosahedral_family(p: BaseCusp, p_tau: BaseCusp) -> list[tuple[str, Constituent, str]]:
    """The nine cuspidal symbols generating the finite model's rows.

    Returns (label, constituent, row) triples, each label the printed
    constituent, in the order of :data:`icosym.rules.GENERATORS`:
    sym^a(p) [x] sym^b(p_tau) for each generator's (a, b).  Each row is the
    generator's row in that table, with the Galois swaps applied when ``p``
    is tagged X''; :func:`icosym.icostruct.generator_family` checks the
    table against the character table.  A pair not tagged X' and X'' is
    refused.
    """
    from .chartab import GALOIS_SWAPS  # here: cuspidality imports this module, not chartab

    rows = (p.galois_row, p_tau.galois_row)
    if rows not in (GALOIS_TAGS, GALOIS_TAGS[::-1]):
        raise LedgerError(f"{p.name} and {p_tau.name} need the galois_row tags "
                          f"{' and '.join(GALOIS_TAGS)}, not {rows}")
    swaps = {} if rows == GALOIS_TAGS else GALOIS_SWAPS
    out: list[tuple[str, Constituent, str]] = []
    for g in GENERATORS:
        left, right = sym_cusp(p, g.a), sym_cusp(p_tau, g.b)
        if left is None or right is None:
            c = Constituent(right if left is None else left)  # both None: the trivial
        else:
            c = Constituent(box_cusp(left, right))
        out.append((str(c), c, swaps.get(g.row, g.row)))
    return out
