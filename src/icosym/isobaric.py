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
from .rules import (ADJOINT_RULE, ADJOINT_TYPES, AUTOMORPHIC, BASE_TYPES, GALOIS_TAGS, GENERATORS,
                    TYPE_RULES, type_rule)

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


def dual(c: Constituent) -> Constituent | None:
    """The contragredient of *c*, a core or none twisted by w: the core
    twisted by w^-1 and the core's dual twist, 1 for a character, omega^-n
    for sym^n of a base (pi dual is pi (x) omega^-1, Gelbart-Jacquet 1978),
    the product of its factors' for a box.  None for an induced core, or a
    box holding one: it has no formula here."""
    core = c.core
    if isinstance(core, BoxCusp):
        left, right = dual(Constituent(core.left)), dual(Constituent(core.right))
        if left is None or right is None:
            return None
        twist = left.twist * right.twist
    elif isinstance(core, InducedCusp):
        return None
    else:
        sym = _as_sym(core)  # None for a character
        twist = CharWord.gen(sym[0].omega, -sym[1]) if sym else CharWord()
    return Constituent(core, c.twist ** -1 * twist)


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


_ONE = CharWord()
_BY = "{} ~ {} is {} by the declared facts {}"  # an answer that a class's facts give


def _quotient(t1: CharWord, l1: CharWord, t2: CharWord, l2: CharWord) -> CharWord:
    """t1 * l1 * (t2 * l2)^-1, merged in one pass."""
    merged = dict(t1.word)
    for name, exp in l1.word:
        merged[name] = merged.get(name, 0) + exp
    for name, exp in t2.word + l2.word:
        merged[name] = merged.get(name, 0) - exp
    return CharWord(tuple(sorted([item for item in merged.items() if item[1]])))


class _Lattice:
    """A lattice of character words, with what is known against it: its
    echelon form by pivot (:func:`_with`), the words known not to be in it,
    each reduced modulo it, with its reason, and its owner, the root of the
    class whose self-twists it holds, or None for R and D, the words known
    to be 1 and known not to be 1.  Rows are replaced, never changed, as it
    grows, so a class's own lattice may start from R's."""

    __slots__ = ("rows", "apart", "owner")

    def __init__(self, rows: dict[str, CharWord], apart: dict[CharWord, tuple],
                 owner: Core | None) -> None:
        self.rows, self.apart, self.owner = rows, apart, owner


class _Class:
    """A class of cores of the union-find of :class:`FactLedger`, kept at its
    root: its cores, the root first, and its lattice of self-twists, a
    :class:`_Lattice`: R's, shared, where a core of it admits no self-twist,
    else its own, which holds R."""

    __slots__ = ("members", "lattice")

    def __init__(self, root: Core | None, lattice: _Lattice) -> None:
        self.members: list[Core] = [root]
        self.lattice = lattice


class _Facts:
    """The declared facts within the classes at some roots, as they are when
    it is made, and others, as one operand of a reason: text only when
    shown, each side reduced modulo R then, the facts sorted, so the text
    does not depend on the order of the declarations; after *prefix*, or
    nothing where there are none.  A list of the ledger's facts is only
    appended to, so each is kept as its length."""

    __slots__ = ("ledger", "lists", "more", "prefix")

    def __init__(self, ledger: "FactLedger", roots: Iterable, more: Iterable[tuple] = (),
                 prefix: str = "") -> None:
        self.ledger, self.more, self.prefix = ledger, tuple(more), prefix
        self.lists = tuple((facts, len(facts)) for facts in (
            ledger._facts.get(frozenset((root,)), ()) for root in roots))

    def __str__(self) -> str:
        canon = self.ledger._canon
        facts = {f for facts, n in self.lists for f in facts[:n]}.union(self.more)
        texts = sorted({f"{canon(a)} ~ {canon(b)} is {t}" for a, b, t in facts})
        return self.prefix + ", ".join(texts) if texts else ""


class FactLedger:
    """Declared structure (characters, bases) and asserted equivalences.

    What is known of character words is a lattice R of words known to be 1
    and a list D of words known not to be 1, one :class:`_Lattice` record.
    R is spanned by g^N for each g of declared order N, each word declared
    trivial, w^2 for a quadratic word and w^3 for a cubic one, and the
    quotient of each true fact between two characters, or between two
    twists of a core whose declared type admits no self-twist.  D holds the
    quotient of each such false fact, w for a quadratic or cubic word, w^2
    for a non-real one, and g^(N/q) for each prime q dividing a declared
    order N; each member is kept reduced modulo R.  A declaration is refused
    exactly when it would put a member of D in R, and every answer about a
    character is read off the two.  :attr:`characters` holds the generators'
    names.

    Other facts are equivalences between constituents, asserted true or
    false; "lhs = rhs (x) nu" is the equivalence of ``lhs`` with ``rhs``
    twisted by ``nu``; a self-duality is the fact ``c ~ dual(c)``.  They
    live in a union-find with twist labels: each core of a class links to
    its root with a label, the twist that makes the root equivalent to it,
    and characters are the class of no core.  A true fact between two
    classes joins them.  A fact within one class says whether the quotient
    of its sides' twists, each times its core's label, is a self-twist:
    where a core of the class admits none (:data:`icosym.rules.TYPE_RULES`),
    and for characters, whether it is 1, which R and D keep; otherwise the
    class keeps its own lattice of self-twists, which holds R, and its own
    list of words known to be none.  The declared facts but those R and D
    hold alone are kept in one store by the roots they concern: ``{r}`` for
    a fact within the class at r, ``{r1, r2}`` for one between two classes,
    re-keyed as classes join.  So equivalence is closed under chains of
    facts and under common twists, and a key never depends on R.
    :meth:`_forced` gives what no fact can change between two classes; a
    declaration against any answer the facts and :meth:`_forced` give is
    refused, naming the facts.  Cuspidality and automorphy, which twisting
    and equivalence keep, agree across a class: a declaration or a join
    that would make two cores of one class disagree is refused, naming
    both, as is declaring a core's cuspidality or automorphy two ways.  The
    resolver's other answers are generic defaults, which a fact overturns.
    A name is either a base or a character, not both.

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
        self._chars = _Lattice({}, {}, None)  # R and D, each word of D with its reason
        # the union-find: each core of a class but its root, with the root and its label
        self._links: dict[Core, tuple[Core, CharWord]] = {}
        # each class of two cores or more, or with a lattice of its own, by its root
        self._classes: dict[Core, _Class] = {}
        # the declared facts but those R and D hold alone, by the roots they concern
        self._facts: dict[frozenset, list[tuple]] = {}
        self._cuspidal: dict[Core, bool] = {}
        self._automorphic: dict[Core, bool] = {}
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
            self._relate(("character {}", what), rows.values(), apart.items(), [])
        elif rows:  # new pivots, which no row or member of D meets: nothing to check
            for lattice in self._lattices():
                lattice.rows = {**lattice.rows, **rows}
            self._chars.apart.update(apart)
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
        decides the other way, as true when the core is declared not
        automorphic: cuspidal implies automorphic, and where a core of its
        class would disagree (:meth:`_agree`)."""
        if truth and self._automorphic.get(core) is False:
            raise LedgerError(f"{core} cannot be declared cuspidal: it is declared not automorphic")
        sym = _as_sym(core)
        derived, reason = (None, "") if sym is None else _derived_cuspidal(*sym, self)
        what = "cuspidal" if truth else "not cuspidal"
        if derived is not None and derived != truth:
            raise LedgerError(f"{core} cannot be declared {what}: {reason}")
        self._agree(core, what,
                    self._standing(core, (truth, f"declared: {core} cuspidal is {truth}")))
        _declare(self._cuspidal, core, truth, "cuspidal")

    def declare_automorphic(self, core: Core, truth: bool = True) -> None:
        """Refused as false where automorphy is cited for every base (2 <= n <= 4),
        and where the core is cuspidal, which implies automorphic: cuspidal as
        :func:`sym_power_cuspidal` reads it for a base or sym^n, as declared for
        any other core; and where a core of its class would disagree
        (:meth:`_agree`).  The finite image of a tagged base implies automorphy
        only given the family generators, which a file may deny."""
        sym = _as_sym(core)
        if not truth and sym is not None and sym[1] in AUTOMORPHIC:
            raise LedgerError(f"{core} cannot be declared not automorphic: {AUTOMORPHIC[sym[1]]}")
        cuspidal = self._standing(core)[0]
        if not truth and cuspidal[0]:
            raise LedgerError(f"{core} cannot be declared not automorphic: "
                              f"it is cuspidal ({cuspidal[1]})")
        what = "automorphic" if truth else "not automorphic"
        self._agree(core, what, (cuspidal, (truth, f"declared: {core} automorphic is {truth}")))
        _declare(self._automorphic, core, truth, "automorphic")

    def _standing(self, core: Core, cuspidal: tuple | None = None) -> tuple[tuple, tuple]:
        """*core*'s cuspidality, *cuspidal* if given, else declared or derived
        as :func:`sym_power_cuspidal` derives it, and its automorphy, declared
        or implied by its cuspidality: each a (truth, reason) pair, whose
        truth is None where neither is known."""
        if cuspidal is None:
            sym, declared = _as_sym(core), self._cuspidal.get(core)
            cuspidal = sym_power_cuspidal(*sym, self) if sym else (
                declared, f"declared: {core} cuspidal is {declared}")
        automorphic = self._automorphic.get(core)
        if automorphic is not None:
            return cuspidal, (automorphic, f"declared: {core} automorphic is {automorphic}")
        return cuspidal, (True, cuspidal[1]) if cuspidal[0] else (None, "")

    def _agree(self, core: Core, what: str, standing: tuple) -> None:
        """Refuse declaring *core* *what*, which gives it *standing* (see
        :meth:`_standing`), where then it and a core of its class disagree."""
        record = self._classes.get(self._find(core)[0])
        for y in record.members if record is not None else ():
            if y != core and (why := _discord(core, standing, y, self._standing(y))):
                raise LedgerError(f"{core} cannot be declared {what}: it is in one class "
                                  f"with {y}, but {_text(why)}")

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
        self._relate(("{} cannot be declared {}", word, kind), (word ** power,) if power else (),
                     ((word if power else word ** 2, ("{} is {}", word, kind)),) * (power != 1),
                     [n for n, _ in word.word])

    def word_kind(self, word: CharWord) -> str | None:
        """A word's kind, read off R and D: trivial in R; quadratic or cubic
        where its square or cube is in R and it is known not to be 1;
        non-real where its square is known not to be 1; else None."""
        for kind, power in _KIND_ORDERS.items():  # the first power of it in R, if any
            if power and self.is_one(word ** power):
                return kind if power == 1 or self._distinct(word) else None
        return "non-real" if self._distinct(word ** 2) else None

    def is_one(self, word: CharWord) -> bool:
        """Whether *word* is known to be 1: it lies in R."""
        return _reduced(self._chars.rows, word).is_empty()

    def declare_self_dual(self, c: Constituent, truth: bool) -> None:
        """The fact ``c ~ dual(c)``, asserted by :meth:`assert_equiv` and
        refused by its rules; refused for a core with no :func:`dual`."""
        if (d := dual(c)) is None:
            raise LedgerError(f"{c.core} has no dual formula: its self-duality cannot be declared")
        self.assert_equiv(c, d, truth)

    def self_dual_declared(self, c: Constituent) -> bool | None:
        """Whether ``c ~ dual(c)``: the declared fact, else :meth:`_forced`'s
        answer, else None; never a generic default of :meth:`_resolve`, by
        which no twist of sym^n of an icosahedral base would be self-dual."""
        d = dual(c)
        known = None if d is None else self._known(self._canon(c), self._canon(d))
        return known and known[0]

    # -- facts ------------------------------------------------------------

    def _canon(self, c: Constituent) -> Constituent:
        """*c* with its twist reduced modulo R; ``c`` when it is."""
        twist = _reduced(self._chars.rows, c.twist)
        return c if twist is c.twist else Constituent(c.core, twist)

    def _find(self, core: Core | None) -> tuple[Core | None, CharWord]:
        """The root of *core*'s class and *core*'s label: core ~ root (x) label."""
        return self._links.get(core) or (core, _ONE)

    def _record(self, root: Core | None) -> _Class:
        """The record of the class at *root*, or a new one, not yet kept:
        with R's lattice for characters and where the root admits no
        self-twist, else with its own, R and no word known not to be in it."""
        if (record := self._classes.get(root)) is not None:
            return record
        if root is None or _no_self_twist(root):
            return _Class(root, self._chars)
        return _Class(root, _Lattice(self._chars.rows, {}, root))

    def _lattices(self) -> list[_Lattice]:
        """R's lattice, then each class's own, which holds R."""
        return [self._chars, *(record.lattice for record in self._classes.values()
                               if record.lattice.owner is not None)]

    def assert_equiv(self, c1: Constituent, c2: Constituent, truth: bool) -> None:
        """A fact within one class is :meth:`_loop`'s, a true one between two
        classes :meth:`_join`'s; a false one between two is kept by their
        roots.  Refused where both sides of a false one reduce to one
        constituent, and where the two rules refuse."""
        k1, k2 = self._canon(c1), self._canon(c2)
        names = [n for n, _ in k1.twist.word + k2.twist.word if n not in self.characters]
        (r1, l1), (r2, l2) = self._find(k1.core), self._find(k2.core)
        # k1 ~ r1 (x) v1 and k2 ~ r2 (x) v2, for v = twist * label
        fact = k1, k2, truth
        if r1 is r2 or (hash(r1) == hash(r2) and r1 == r2):
            if not truth and hash(k1) == hash(k2) and k1 == k2:  # by the cached hash first
                raise LedgerError(
                    f"{c1} ~ {c2} cannot be declared false: both sides reduce to {k1}")
            self._loop(fact, r1, _quotient(k1.twist, l1, k2.twist, l2), names)
        elif truth:  # r1 ~ r2 (x) v2 * v1^-1
            self._join(fact, r1, r2, _quotient(k2.twist, l2, k1.twist, l1), names)
        else:  # between the two roots (see _word)
            if names:
                self._declare_characters([(n, None) for n in names])
            self._facts.setdefault(frozenset((r1, r2)), []).append(fact)

    def _loop(self, fact: tuple, root: Core | None, quotient: CharWord, names: list[str]) -> None:
        """A fact within the class at *root*, whose sides' twists, each times
        its core's label, have *quotient*: true, it puts the quotient in the
        class's lattice, false, among the words known not to be in it, by
        :meth:`_relate`.  Refused where the opposite fact is declared, where
        a false one is already implied, and where :meth:`_relate` refuses.
        A fact between two cores, or on a core that may have a self-twist,
        is kept, for its reasons."""
        k1, k2, truth = fact
        record, key = self._record(root), frozenset((root,))
        lattice = record.lattice
        own = lattice.owner is not None  # else R and D serve
        if (known := self._declared(self._facts.get(key), k1, k2)) and known[0] != truth:
            first, second = sorted(map(str, (k1, k2)))
            raise LedgerError(
                f"contradictory assertions for {first} ~ {second}: {not truth} vs {truth}")
        one_core = hash(k1.core) == hash(k2.core) and k1.core == k2.core
        facts = _Facts(self, (root,), prefix=", by the declared facts ")
        if not truth and not one_core and _reduced(lattice.rows, quotient).is_empty():
            raise LedgerError(f"{k1} ~ {k2} cannot be declared false{facts}, it holds")
        if k1.core is None or (one_core and own):
            why = ("",)
        elif one_core and _no_self_twist(k1.core):
            why = (", as {} admits no self-twist", k1.core)
        else:  # where a core of its class admits none
            why = ("{}", facts)
        refusal = ("{} ~ {} cannot be declared {}" + why[0], k1, k2, str(truth).lower(), *why[1:])
        self._relate(refusal, (quotient,) * truth,
                     ((quotient, ("declared: {} ~ {} is {}", k1, k2, truth)),) * (not truth),
                     names, lattice)
        if not one_core or (k1.core is not None and not _no_self_twist(k1.core)):
            self._facts.setdefault(key, []).append(fact)
        if own:
            self._classes[root] = record

    def _join(self, fact: tuple, r1: Core, r2: Core, label: CharWord, names: list[str]) -> None:
        """A true fact between the classes at *r1* and *r2*, which makes r1
        equivalent to r2 twisted by *label*: the smaller class joins the
        larger, each of its cores relabelled to the larger's root, and the
        facts kept by r1 are kept by r2.  Its lattice joins theirs, R where
        a core of either admits no self-twist, and so do the words known not
        to be in it, with each false fact between the two and
        :data:`icosym.rules.ADJOINT_RULE` for each two of their cores.
        Refused where :meth:`_forced` says otherwise, where two of their
        cores differ in finite-image row or disagree (:func:`_discord`), and
        where then a word known not to be in the lattice would be, naming
        the facts."""
        k1, k2, _ = fact
        if (forced := self._forced(k1, k2)) and not forced[0]:
            raise LedgerError(f"{k1} ~ {k2} cannot be declared true: {_text(forced[1])}")
        a, b = self._record(r1), self._record(r2)
        between = self._facts.get(frozenset((r1, r2)), [])
        if (known := self._declared(between, k1, k2)) and not known[0]:
            first, second = sorted(map(str, (k1, k2)))
            raise LedgerError(f"contradictory assertions for {first} ~ {second}: False vs True")
        if len(a.members) > len(b.members):
            a, b, r1, r2, label = b, a, r2, r1, label ** -1
        refusal = ("{} ~ {} cannot be declared true{}", k1, k2,
                   _Facts(self, (r1, r2), prefix=", by the declared facts "))
        standing = {z: self._standing(z) for z in a.members + b.members}
        for x in a.members:
            for y in b.members:
                if why := self._split(x, y) or _discord(x, standing[x], y, standing[y]):
                    raise LedgerError(f"{_text(refusal)}: then {x} and {y} would be in one "
                                      f"class, but {_text(why)}")
        # every core's label to the root r2, once the classes are one
        labels = {x: _reduced(self._chars.rows, self._find(x)[1] * label) for x in a.members}
        labels.update((y, self._find(y)[1]) for y in b.members)
        own = [record.lattice for record in (a, b) if record.lattice.owner is not None]
        lattice = own.pop() if len(own) == 2 else self._chars  # b's, which a's joins
        ones = [row for kept in own for pivot, row in kept.rows.items()
                if row != self._chars.rows.get(pivot)]  # R holds the rest
        apart = [item for kept in own for item in kept.apart.items()]
        # each word, reduced, with its reason and the equivalence that holds where it is 1
        new = [(_reduced(lattice.rows, _quotient(f[0].twist, labels[f[0].core], f[1].twist,
                                                 labels[f[1].core])),
                ("declared: {} ~ {} is {}", *f), ("{} ~ {}", *f[:2])) for f in between]
        for x in a.members:
            for y in b.members:
                if rule := _adjoint_rule(x, y):
                    ox, oy = (CharWord.gen(z.base.omega, -1) for z in (x, y))
                    new.append((_reduced(lattice.rows, _quotient(ox, labels[x], oy, labels[y])),
                                rule, ("Ad({}) ~ Ad({})", *rule[1:3])))
        for word, reason, what in new:
            if word.is_empty():
                raise LedgerError(f"{_text(refusal)}: then {_text(what)} would hold, "
                                  f"but {_text(reason)}")
        self._relate(refusal, ones, apart + [item[:2] for item in new], names, lattice)
        # the join itself, which nothing can refuse any more
        for x in a.members:
            self._links[x] = (r2, labels[x])
        store = self._facts
        store.setdefault(frozenset((r2,)), []).extend(
            store.pop(frozenset((r1,)), []) + store.pop(frozenset((r1, r2)), []) + [fact])
        for pair in [pair for pair in store if r1 in pair]:  # between r1 and a third class
            store.setdefault(pair - {r1} | {r2}, []).extend(store.pop(pair))
        b.members += a.members
        b.lattice = lattice
        self._classes.pop(r1, None)
        self._classes[r2] = b

    def _relate(self, refusal: tuple, ones: Iterable[CharWord],
                apart: Iterable[tuple[CharWord, tuple]], names: list[str],
                lattice: _Lattice | None = None) -> None:
        """Put the words *ones* in *lattice*, R's if none is given, and the
        (word, reason) pairs *apart* among the words known not to be in it,
        and declare the generators *names*, bare where they are new; all or
        none.  R grows every class's own lattice with it.  Refused where a
        name is a base's, and where then a word known not to be in a lattice
        would be in it: as the reason tuple *refusal*, then that word and
        why not."""
        if taken := [n for n in names if n in self.bases]:
            raise LedgerError(f"{taken[0]} is declared as a base, not a character")
        ones, apart = list(ones), list(apart)
        if not (ones or apart):  # nothing to check
            self.characters.update(names)
            return
        lattice = lattice or self._chars
        updates = []
        for target in self._lattices() if ones and lattice.owner is None else [lattice]:
            old, known = target.rows, target.apart
            rows = reduce(_with, ones, old)
            moved = rows != old  # then each old word is reduced anew
            members = {} if moved else dict(known)
            for word, reason in [*(known.items() if moved else ()),
                                 *(apart if target is lattice else ())]:
                if (member := _reduced(rows, word)).is_empty():
                    one = "1" if target.owner is None else f"a self-twist of {target.owner}"
                    raise LedgerError(f"{_text(refusal)}: " + (
                        f"{word} is {one}" if _reduced(old, word).is_empty() else
                        f"then {word} would be {one}, but {_text(reason)}"))
                if (known := members.get(member)) is None or _text(reason) < _text(known):
                    members[member] = reason  # of two, the first in text: so in any order
            updates.append((target, rows, members))
        self.characters.update(names)
        for target, rows, members in updates:
            target.rows, target.apart = rows, members

    # -- equivalence resolution --------------------------------------------

    def equivalent(self, c1: Constituent, c2: Constituent) -> tuple[bool | None, str]:
        """Resolve equivalence; returns (verdict-or-None, reason/missing-fact)."""
        verdict, reason = self._resolve(self._canon(c1), self._canon(c2))
        return verdict, _text(reason)

    def _resolve(self, k1: Constituent, k2: Constituent) -> tuple[bool | None, tuple]:
        """:meth:`equivalent` on constituents already reduced by :meth:`_canon`,
        with the reason as a ``(template, *operands)`` tuple."""
        if known := self._known(k1, k2):
            return known
        # the generic defaults, which a fact may overturn; cores by their cached hash first
        if hash(k1.core) != hash(k2.core) or k1.core != k2.core:
            return None, ("equiv({}, {})", k1, k2)
        if k1.core is None:  # two characters, as the degrees agree
            return False, ("distinct character words are generically distinct",)
        if _no_self_twist(k1.core):
            return False, ("{} admits no self-twist for its declared type", k1.core)
        return None, ("equiv({}, {}) (potential self-twist)", k1, k2)

    def _known(self, k1: Constituent, k2: Constituent) -> tuple[bool, tuple] | None:
        """What the facts and :meth:`_forced` say of two reduced constituents,
        with its reason tuple, or None: a declared fact between them, kept by
        their roots, first.  Then, in one class: True where the quotient of
        their twists, each times its core's label, is in the class's lattice
        (:meth:`_record`), False where :meth:`_distinct` shows it is not.  In
        two: False where a false fact between them says so up to a common
        twist, else :meth:`_forced`'s answer, which is False where their
        degrees differ."""
        x1, x2 = k1.core, k2.core
        (r1, l1), (r2, l2) = self._find(x1), self._find(x2)
        facts = self._facts.get(frozenset((r1, r2)))
        if known := self._declared(facts, k1, k2):
            return known
        if r1 is not r2 and (hash(r1) != hash(r2) or r1 != r2):  # by the cached hash first
            if facts:
                quotient = _reduced(self._chars.rows, _quotient(k1.twist, l1, k2.twist, l2))
                if facts := [f for f in facts if self._word(f, r1) == quotient]:
                    return False, (_BY, k1, k2, False, _Facts(self, (r1, r2), facts))
            return self._forced(k1, k2)
        if hash(k1) == hash(k2) and k1 == k2:
            return True, ("structural equality",)
        one_core = x1 is x2 or (hash(x1) == hash(x2) and x1 == x2)  # then the labels cancel
        lattice = self._record(r1).lattice
        quotient = _quotient(k1.twist, _ONE, k2.twist, _ONE) if one_core else _quotient(
            k1.twist, l1, k2.twist, l2)
        # twists of one core reduced modulo R differ where k1 and k2 do
        if (lattice.owner is not None or not one_core) and _reduced(
                lattice.rows, quotient).is_empty():
            return True, (_BY, k1, k2, True, _Facts(self, (r1,)))
        if not lattice.apart or (why := self._distinct(quotient, lattice)) is None:
            return None
        if x1 is None:
            return False, why
        if one_core and _no_self_twist(x1):
            return False, ("{} admits no self-twist for its declared type, and " + why[0],
                           x1, *why[1:])
        return False, (_BY + ", as " + why[0], k1, k2, False, _Facts(self, (r1,)), *why[1:])

    def _word(self, fact: tuple, root: Core) -> CharWord:
        """The word w of a false fact between the class at *root* and another,
        reduced: the root twisted by v1 is not the other root twisted by v2
        where v1 * v2^-1 is w, so for any common twist."""
        a, b, _ = fact
        (ra, la), (_, lb) = self._find(a.core), self._find(b.core)
        if hash(ra) != hash(root) or ra != root:  # then b is the side in that class
            a, b, la, lb = b, a, lb, la
        return _reduced(self._chars.rows, _quotient(a.twist, la, b.twist, lb))

    def _declared(self, facts: list | None, k1: Constituent,
                  k2: Constituent) -> tuple[bool, tuple] | None:
        """The truth of one of *facts* whose two sides, as they reduce now,
        are *k1* and *k2*, with its reason tuple ``declared: k1 ~ k2 is
        truth``; else None."""
        if facts:
            h1, h2, canon = hash(k1.core), hash(k2.core), self._canon
            for a, b, t in facts:  # by the cached hashes of the cores first
                if (hash(a.core), hash(b.core)) in ((h1, h2), (h2, h1)) and (
                        {canon(a), canon(b)} == {k1, k2}):
                    return t, ("declared: {} ~ {} is {}", k1, k2, t)
        return None

    def _forced(self, k1: Constituent, k2: Constituent) -> tuple[bool, tuple] | None:
        """The answer no fact can change for two reduced constituents in two
        classes, with its reason tuple, or None: False when their degrees
        differ, when the finite-image rows of their cores differ (a class
        holds one of each), and when they are twisted alike from the
        adjoints of bases of two types that :data:`icosym.rules.ADJOINT_TYPES`
        sets apart."""
        if (d1 := k1.degree) != (d2 := k2.degree):
            return False, ("degrees differ ({} vs {})", d1, d2)
        x1, x2 = k1.core, k2.core
        if why := self._split(x1, x2):
            return False, why
        if type(x1) is SymCusp is type(x2) and (rule := _adjoint_rule(x1, x2)):
            p, q = x1.base, x2.base  # Ad(p) and Ad(q) twisted alike, untwisted the fast case
            if k1.twist.word == ((p.omega, -1),) and k2.twist.word == ((q.omega, -1),) or (
                    _reduced(self._chars.rows, _quotient(k1.twist, _ONE, k2.twist, _ONE))
                    == _reduced(self._chars.rows, CharWord.of(((p.omega, -1), (q.omega, 1))))):
                return False, rule
        return None

    def _split(self, x: Core, y: Core) -> tuple | None:
        """Why cores *x* and *y* lie in no one class, as a reason tuple, or
        None: the finite-image rows of two tagged cores differ."""
        r1, r2 = self.galois_decomposition(x), self.galois_decomposition(y)
        if r1 is not None and r2 is not None and r1.keys() != r2.keys():
            return "finite-image restrictions differ: {} vs {}", sorted(r1), sorted(r2)
        return None

    def _distinct(self, word: CharWord, lattice: _Lattice | None = None) -> tuple | None:
        """Why a quotient of twists is not 1, or not in *lattice*, as a reason
        tuple, or None: the lattice with it holds a word known not to be in
        it, whose reason it gives.  A known word is reduced modulo the
        lattice, so it can join it only where the quotient moves the row of
        its first generator."""
        lattice = lattice or self._chars
        old = lattice.rows
        rows = _with(old, word)
        moved = {pivot for pivot, row in rows.items() if old.get(pivot) is not row}
        reasons = [reason for member, reason in lattice.apart.items()
                   if member.word[0][0] in moved and _reduced(rows, member).is_empty()]
        if not reasons:
            return None
        reason = min(reasons, key=_text) if len(reasons) > 1 else reasons[0]  # in any order
        head = ("their quotient {} is not 1: ",) if lattice.owner is None else (
            "their quotient {} is not a self-twist of {}: ", lattice.owner)
        return (head[0] + reason[0], _reduced(old, word), *head[1:], *reason[1:])

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


def _discord(x: Core, sx: tuple, y: Core, sy: tuple) -> tuple | None:
    """Why cores *x* and *y*, whose standings are *sx* and *sy* (see
    :meth:`FactLedger._standing`), lie in no one class, as a reason tuple,
    or None: one is cuspidal, or automorphic, and the other is not, while
    twisting and equivalence keep both."""
    for what, (tx, wx), (ty, wy) in zip(("cuspidal", "automorphic"), sx, sy):
        if tx is not None and ty is not None and tx != ty:
            (yes, why_yes), (no, why_no) = ((x, wx), (y, wy)) if tx else ((y, wy), (x, wx))
            return "{} is {} ({}) and {} is not ({})", yes, what, why_yes, no, why_no
    return None


def _adjoint_rule(x: Core | None, y: Core | None) -> tuple | None:
    """For x = sym^2(p) and y = sym^2(q), p and q of two declared types that
    :data:`icosym.rules.ADJOINT_TYPES` sets apart, the reason tuple why Ad(p)
    and Ad(q) are inequivalent; None otherwise.  Their twists have the
    quotient omega(p)^-1 * omega(q)."""
    if not (isinstance(x, SymCusp) and isinstance(y, SymCusp) and x.n == y.n == 2):
        return None
    p, q = x.base, y.base
    if p.typ == q.typ or p.typ not in ADJOINT_TYPES or q.typ not in ADJOINT_TYPES:
        return None
    return ADJOINT_RULE, p.name, q.name, p.name, p.typ, q.name, q.typ


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
    :meth:`FactLedger.equivalent`.  A pair of two degrees is skipped, as
    :func:`pole_order_pair` skips one: :meth:`FactLedger._forced`'s degree
    rule makes it False, which neither merges nor widens.  Pairs the ledger
    cannot settle widen the result to an interval: the lower end keeps them
    distinct, the upper end merges every class connected by an undetermined
    comparison.  Their reasons stay data until the end, where :func:`_texts`
    makes each distinct one text once.
    """
    classes: list[tuple[Constituent, int, int]] = []  # each with its total and degree
    for c, m in e.terms:
        key = ledger._canon(c)
        degree = key.degree
        for i, (rep, total, d) in enumerate(classes):
            if d == degree and ledger._resolve(key, rep)[0] is True:
                classes[i] = (rep, total + m, d)
                break
        else:
            classes.append((key, m, degree))
    lo = sum(total * total for _, total, _ in classes)

    missing: list[tuple] = []
    parent = list(range(len(classes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (rep, _, degree) in enumerate(classes):
        for j in range(i + 1, len(classes)):
            if classes[j][2] != degree:
                continue
            verdict, reason = ledger._resolve(rep, classes[j][0])
            if verdict is None:
                missing.append(reason)
                parent[find(i)] = find(j)
    merged: dict[int, int] = {}
    for i, (_, total, _) in enumerate(classes):
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
