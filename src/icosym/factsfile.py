"""JSON fact documents: declared bases, characters, and assertions.

A facts file is a single JSON object.  Every section is optional::

    {
      "characters": [
        {"name": "chi", "order": 2, "properties": ["quadratic"]}
      ],
      "bases": [
        {"name": "pi", "type": "icosahedral", "galois_row": "X'"},
        {"name": "rho", "type": "dihedral",
         "dihedral_field": "E", "dihedral_char": "xi"}
      ],
      "base_changes": [
        {"of": "pi", "extension": "E", "name": "pi_E", "type": "abstract"}
      ],
      "facts": [
        {"lhs": "Ad(pi)", "rhs": "Ad(rho)", "relation": "equiv",
         "truth": false},
        {"lhs": "sym^2(pi_E)", "rhs": "sym^2(pi_E)",
         "relation": "twist-equiv-by", "twist": "xi^-1*xi@theta",
         "truth": false}
      ],
      "cuspidal": [{"symbol": "sym^7(pi)", "truth": false}],
      "automorphic": [{"symbol": "sym^7(pi)", "truth": true}],
      "self_dual": [{"symbol": "sym^12(pi)*chi", "truth": true}],
      "word_kinds": [{"word": "chi*omega(pi)^3", "kind": "non-real"}],
      "siegel": {"p": "pi", "chi": "chi"}
    }

Symbols in ``lhs``/``rhs``/``symbol`` are ``*``-separated factors.  One
factor, in any position, may be a declared base name, ``Ad(<base>)``, or
``sym^<n>(<base>)``; every other factor is a character generator,
optionally with an integer exponent (``chi^-1``).  A symbol with no cusp
form part is a plain character.  Symbols are matched by structure, not by
spelling: ``chi*sym^12(pi)`` and ``sym^12(pi) * chi`` are one symbol.
A property that fixes an order (trivial, quadratic, cubic) is that order:
``"order": 2`` and ``"properties": ["quadratic"]`` agree.  Character
generators not declared in the ``characters`` section are declared, of
unknown order, where a fact, word kind or self-duality first mentions them.
A ``self_dual`` entry is the fact ``symbol ~ dual(symbol)`` (see
:func:`icosym.isobaric.dual`).  The sections load as characters, bases,
base changes, word kinds, facts, cuspidal, automorphic, self-dual, in any
document order, and a chain of base changes in any order too.

Each distinct symbol text, and each distinct ``twist`` or ``word`` text, is
parsed once per document: a later mention of the same text reuses the
first parse, so a load costs what its distinct symbols cost.

Every refusal is a :class:`FactsError` that names its place, ledger
refusals included (``facts[0]: nu ~ nu^-1 cannot be declared true: ...``).
An entry carrying a key its section does not know is refused
(``cuspidal[0]: unknown key 'truht'``), and so is a ``twist`` on an
``equiv`` fact.  So is a declared name that a symbol would read as
something else (``x^2``, ``1``, ``a*b``, ``Ad(q)``).
The ``siegel`` section only names a declared base ``p`` and a declared
character ``chi``; :mod:`icosym.siegel` picks whatever it leaves out.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Union

from . import MAX_POWER, bounded_power
from .isobaric import (
    BaseCusp,
    CharWord,
    Constituent,
    FactLedger,
    LedgerError,
    _KIND_ORDERS,
    ad,
    sym_cusp,
)

# the ledger's kinds; a tuple, whose membership test takes an unhashable JSON value too
_KINDS = tuple(_KIND_ORDERS)
_RELATIONS = ("equiv", "twist-equiv-by")

# the sections of a document and the keys an entry of each may carry; a
# base's tags are its fields after the name and type
_FIELDS = {
    "characters": frozenset({"name", "order", "properties"}),
    "bases": frozenset({"name", "type", *BaseCusp.__slots__[2:]}),
    "base_changes": frozenset({"of", "extension", "name", "type"}),
    "facts": frozenset({"lhs", "rhs", "relation", "twist", "truth"}),
    "cuspidal": frozenset({"symbol", "truth"}),
    "automorphic": frozenset({"symbol", "truth"}),
    "self_dual": frozenset({"symbol", "truth"}),
    "word_kinds": frozenset({"word", "kind"}),
    "siegel": frozenset({"p", "chi"}),
}


class FactsError(ValueError):
    """A facts document that does not parse to a consistent ledger."""


# where an error is: a label, or a (section, index) pair that reads ``section[index]``
_Where = Union[str, tuple[str, int]]


def _label(where: _Where) -> str:
    return where if isinstance(where, str) else "{}[{}]".format(*where)


def _require(cond: bool, where: _Where, message: str, *args) -> None:
    """Raise ``FactsError("<where>: <message>")`` unless *cond* holds.

    *message* is a ``str.format`` template for *args*; it and *where* are
    formatted only when the check fails, so a passing check builds no text.
    """
    if not cond:
        raise FactsError(f"{_label(where)}: {message.format(*args)}")


def _str_field(entry: dict, key: str, where: _Where) -> str:
    value = entry.get(key)
    if isinstance(value, str) and value:
        return value
    raise FactsError(f"{_label(where)}: needs a string {key!r}")


def _entries(doc: dict, section: str):
    """``((section, i), entry)`` for each entry of a list section of *doc*.
    An entry with a key the section does not know is refused."""
    entries = doc.get(section, [])
    _require(isinstance(entries, list), section, "must be a list")
    fields = _FIELDS[section]
    for i, entry in enumerate(entries):
        where = (section, i)
        _require(isinstance(entry, dict), where, "must be an object")
        if not entry.keys() <= fields:
            unknown = next(key for key in entry if key not in fields)
            raise FactsError(f"{_label(where)}: unknown key {unknown!r}")
        yield where, entry


def _parsed(memo: dict, parse, entry: dict, key: str, ledger: FactLedger, where: _Where):
    """``parse`` of the string field *key* of *entry*, through *memo*, which
    maps each text of one document already parsed to its value.  Sound once
    the document's bases are declared: a parse reads only the bases, and it
    writes nothing."""
    text = _str_field(entry, key, where)
    value = memo.get(text)
    if value is None:
        value = memo[text] = parse(text, ledger, _label(where))
    return value


# a name a symbol can refer to; one character-word factor is a generator
# name with an optional exponent
_NAME = r"[A-Za-z_][A-Za-z0-9_'()@]*"
_FACTOR = re.compile(rf"^({_NAME})(?:\^(-?\d+))?$")
_SYM = re.compile(rf"^sym\^(\d+)\(({_NAME})\)$")
_AD = re.compile(rf"^Ad\(({_NAME})\)$")
# a name to declare, in full: what _FACTOR reads with no exponent and _AD does not
_DECLARED = re.compile(rf"(?!Ad\({_NAME}\)$){_NAME}")
_PUNCT = re.compile(r"[()*]")
# the base tags that name a character
_CHAR_TAGS = ("omega", "dihedral_char", "cubic_char", "quadratic_char", "induced_char")


def _name(entry: dict, key: str, where: _Where) -> str:
    """The string field *key* of *entry*, a name to declare: refused unless a
    symbol reads it back as itself, one factor with no exponent, not Ad(..)."""
    name = _str_field(entry, key, where)
    whole = _DECLARED.fullmatch(name) is not None
    if whole and ("(" in name or ")" in name):  # the split refuses unbalanced ones
        whole = _split_factors(name, where) == [name]
    _require(whole, where, "{} {!r} does not read back as itself in a symbol", key, name)
    return name


def _split_factors(text: str, where: _Where) -> list[str]:
    parts = []
    depth = start = 0
    for match in _PUNCT.finditer(text):  # the text between top-level '*'s, each a factor
        if (ch := match.group()) == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            _require(depth >= 0, where, "unbalanced ')' in {!r}", text)
        elif depth == 0:
            parts.append(text[start:match.start()].strip())
            start = match.end()
    _require(depth == 0, where, "unbalanced '(' in {!r}", text)
    parts.append(text[start:].strip())
    _require(all(parts), where, "empty factor in {!r}", text)
    return parts


def parse_word(text: str, ledger: FactLedger, where: str = "word") -> CharWord:
    """Parse a character word like ``chi^-1*xi@theta`` against a ledger.

    A cusp-form factor (a base, ``Ad(<base>)``, ``sym^<n>(<base>)``) is
    refused; a parse declares nothing.
    """
    text = text.strip()
    if text in ("", "1"):
        return CharWord.of({})
    exponents: dict[str, int] = {}
    for factor in _split_factors(text, where):
        match = _FACTOR.match(factor)
        _require(match is not None, where, "bad character factor {!r}", factor)
        name, exp = match.group(1), int(match.group(2) or 1)
        _require(name not in ledger.bases, where, "{!r} is a base, not a character", name)
        _require(
            _cusp_factor(name, ledger, where) is None,
            where,
            "{!r} is a cusp form, not a character",
            name,
        )
        exponents[name] = exponents.get(name, 0) + exp
    return CharWord.of(exponents)


def parse_symbol(text: str, ledger: FactLedger, where: str = "symbol") -> Constituent:
    """Parse a constituent symbol: at most one cusp-form factor, anywhere,
    and character twists."""
    factors = [
        (f, _cusp_factor(f, ledger, where)) for f in _split_factors(text.strip(), where)
    ]
    heads = [c for _, c in factors if c is not None]
    _require(len(heads) <= 1, where, "more than one cusp-form factor in {!r}", text)
    symbol = heads[0] if heads else Constituent(None)
    chars = "*".join(f for f, c in factors if c is None)
    return symbol.twisted(parse_word(chars, ledger, where)) if chars else symbol


def _cusp_factor(factor: str, ledger: FactLedger, where: str) -> Constituent | None:
    """A base name, ``Ad(<base>)`` or ``sym^<n>(<base>)``; None otherwise."""
    if (match := _AD.match(factor)) is not None:
        return ad(_lookup_base(match.group(1), ledger, where))
    if (match := _SYM.match(factor)) is not None:
        n = bounded_power(match.group(1))
        _require(
            n is not None,
            where,
            "power above the largest supported, {}, in {!r}",
            MAX_POWER,
            factor,
        )
        base = _lookup_base(match.group(2), ledger, where)
        return Constituent(sym_cusp(base, n))
    if factor in ledger.bases:
        return Constituent(ledger.bases[factor])
    return None


def _lookup_base(name: str, ledger: FactLedger, where: _Where) -> BaseCusp:
    base = ledger.bases.get(name)
    _require(base is not None, where, "undeclared base {!r}", name)
    return base


def load_facts(doc: dict) -> FactLedger:
    """Build a FactLedger from a parsed facts document."""
    _require(isinstance(doc, dict), "document", "top level must be a JSON object")
    for key in doc:
        _require(key in _FIELDS, "document", "unknown section {!r}", key)

    ledger = FactLedger()

    # a refusal by the ledger names the entry it came from, as a FactsError does
    where: _Where = "document"
    try:
        for where, entry in _entries(doc, "characters"):
            name = _name(entry, "name", where)
            order = entry.get("order")
            _require(
                order is None or (type(order) is int and order >= 1),
                where,
                "order must be a positive integer",
            )
            properties = entry.get("properties", [])
            if isinstance(properties, str):
                properties = [properties]
            _require(isinstance(properties, list), where, "properties must be a list")
            for prop in properties:
                _require(prop in _KINDS, where, "unknown property {!r}", prop)
            for kind in properties or [None]:  # each kind a declaration, which R and D check
                ledger.declare_character(name, order=order, kind=kind)

        for where, entry in _entries(doc, "bases"):
            name = _name(entry, "name", where)
            typ = _str_field(entry, "type", where)
            tags = {key: entry[key] for key in BaseCusp.__slots__[2:] if key in entry}
            for key, value in tags.items():
                # the ledger checks galois_row against the table rows itself
                string = key == "galois_row" or isinstance(value, str)
                _require(string, where, "{!r} must be a string", key)
                if key in _CHAR_TAGS:
                    _name(entry, key, where)
            ledger.declare_base(name, typ, **tags)

        # a base change once its base is declared, so a chain loads in any order
        pending = [(where, entry, _str_field(entry, "of", where))
                   for where, entry in _entries(doc, "base_changes")]
        while pending:
            ready = [c for c in pending if c[2] in ledger.bases]
            for where, entry, of in ready or pending[:1]:  # none ready: the first is refused
                ledger.declare_base_change(
                    _lookup_base(of, ledger, where), _str_field(entry, "extension", where),
                    _name(entry, "name", where), _str_field(entry, "type", where))
            pending = [c for c in pending if c not in ready]

        # the bases are fixed from here on, so each distinct text is parsed once
        symbols: dict[str, Constituent] = {}
        words: dict[str, CharWord] = {}

        for where, entry in _entries(doc, "word_kinds"):
            word = _parsed(words, parse_word, entry, "word", ledger, where)
            kind = _str_field(entry, "kind", where)
            _require(kind in _KINDS, where, "kind must be one of {}", _KINDS)
            ledger.declare_word_kind(word, kind)

        for where, entry in _entries(doc, "facts"):
            lhs = _parsed(symbols, parse_symbol, entry, "lhs", ledger, where)
            rhs = _parsed(symbols, parse_symbol, entry, "rhs", ledger, where)
            relation = _str_field(entry, "relation", where)
            _require(relation in _RELATIONS, where, "relation must be one of {}", _RELATIONS)
            truth = entry.get("truth")
            _require(isinstance(truth, bool), where, "needs a boolean 'truth'")
            if relation == "twist-equiv-by":
                rhs = rhs.twisted(_parsed(words, parse_word, entry, "twist", ledger, where))
            else:
                _require("twist" not in entry, where, "unknown key 'twist' for relation {!r}",
                         relation)
            ledger.assert_equiv(lhs, rhs, truth)

        for section, declare in (
            ("cuspidal", ledger.declare_cuspidal),
            ("automorphic", ledger.declare_automorphic),
        ):
            for where, entry in _entries(doc, section):
                symbol = _parsed(symbols, parse_symbol, entry, "symbol", ledger, where)
                _require(
                    symbol.core is not None and symbol.twist.is_empty(),
                    where,
                    "must be an untwisted cusp-form symbol",
                )
                truth = entry.get("truth", True)
                _require(isinstance(truth, bool), where, "needs a boolean 'truth'")
                declare(symbol.core, truth)

        for where, entry in _entries(doc, "self_dual"):
            symbol = _parsed(symbols, parse_symbol, entry, "symbol", ledger, where)
            truth = entry.get("truth")
            _require(isinstance(truth, bool), where, "needs a boolean 'truth'")
            ledger.declare_self_dual(symbol, truth)
    except LedgerError as err:
        raise FactsError(f"{_label(where)}: {err}") from err

    siegel = doc.get("siegel", {})
    _require(isinstance(siegel, dict), "siegel", "must be an object")
    for key, value in siegel.items():
        _require(key in _FIELDS["siegel"], "siegel", "unknown key {!r}", key)
        _require(isinstance(value, str), "siegel", "{!r} must be a string", key)
    if "p" in siegel:
        _lookup_base(siegel["p"], ledger, "siegel")
    chi = siegel.get("chi")
    _require(chi is None or chi in ledger.characters, "siegel", "undeclared character {!r}", chi)

    return ledger


def load_facts_file(path: str | Path) -> tuple[FactLedger, dict]:
    """Read and load a facts file; returns the ledger and the raw document."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise FactsError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise FactsError(f"{path} is not valid JSON: {err}") from err
    return load_facts(doc), doc
