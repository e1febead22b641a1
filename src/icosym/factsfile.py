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
Character generators not declared in the ``characters`` section are
registered as free characters of unknown order.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from . import MAX_POWER, bounded_power
from .isobaric import (
    BaseCusp,
    CharWord,
    Constituent,
    FactLedger,
    ad,
    sym_cusp,
)

_KINDS = ("trivial", "quadratic", "cubic", "non-real")
_RELATIONS = ("equiv", "twist-equiv-by")


class FactsError(ValueError):
    """A facts document that does not parse to a consistent ledger."""


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise FactsError(f"{where}: {message}")


def _str_field(entry: dict, key: str, where: str) -> str:
    value = entry.get(key)
    _require(isinstance(value, str) and value != "", where, f"needs a string {key!r}")
    return value


def _entries(doc: dict, section: str):
    """``(where, entry)`` for each entry of a list section of *doc*."""
    entries = doc.get(section, [])
    _require(isinstance(entries, list), section, "must be a list")
    for i, entry in enumerate(entries):
        where = f"{section}[{i}]"
        _require(isinstance(entry, dict), where, "must be an object")
        yield where, entry


# one character-word factor: a generator name with an optional exponent
_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z0-9_'()@]*)(?:\^(-?\d+))?$")
_SYM = re.compile(r"^sym\^(\d+)\(([A-Za-z_][A-Za-z0-9_'()@]*)\)$")
_AD = re.compile(r"^Ad\(([A-Za-z_][A-Za-z0-9_'()@]*)\)$")


def _split_factors(text: str, where: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            _require(depth >= 0, where, f"unbalanced ')' in {text!r}")
        if ch == "*" and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    _require(depth == 0, where, f"unbalanced '(' in {text!r}")
    parts.append("".join(current).strip())
    _require(all(parts), where, f"empty factor in {text!r}")
    return parts


def parse_word(text: str, ledger: FactLedger, where: str = "word") -> CharWord:
    """Parse a character word like ``chi^-1*xi@theta`` against a ledger.

    A cusp-form factor (a base, ``Ad(<base>)``, ``sym^<n>(<base>)``) is
    refused; new generators are declared only once the whole word parses.
    """
    text = text.strip()
    if text in ("", "1"):
        return CharWord.of({})
    exponents: dict[str, int] = {}
    for factor in _split_factors(text, where):
        match = _FACTOR.match(factor)
        _require(match is not None, where, f"bad character factor {factor!r}")
        name, exp = match.group(1), int(match.group(2) or 1)
        _require(name not in ledger.bases, where, f"{name!r} is a base, not a character")
        _require(
            _cusp_factor(name, ledger, where) is None,
            where,
            f"{name!r} is a cusp form, not a character",
        )
        exponents[name] = exponents.get(name, 0) + exp
    for name in exponents:
        if name not in ledger.characters:
            ledger.declare_character(name)
    return CharWord.of(exponents)


def parse_symbol(text: str, ledger: FactLedger, where: str = "symbol") -> Constituent:
    """Parse a constituent symbol: at most one cusp-form factor, anywhere,
    and character twists."""
    factors = [
        (f, _cusp_factor(f, ledger, where)) for f in _split_factors(text.strip(), where)
    ]
    heads = [c for _, c in factors if c is not None]
    _require(len(heads) <= 1, where, f"more than one cusp-form factor in {text!r}")
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
            n is not None, where, f"power above the largest supported, {MAX_POWER}, in {factor!r}"
        )
        base = _lookup_base(match.group(2), ledger, where)
        return Constituent(sym_cusp(base, n))
    if factor in ledger.bases:
        return Constituent(ledger.bases[factor])
    return None


def _lookup_base(name: str, ledger: FactLedger, where: str) -> BaseCusp:
    base = ledger.bases.get(name)
    _require(base is not None, where, f"undeclared base {name!r}")
    return base


def load_facts(doc: dict) -> FactLedger:
    """Build a FactLedger from a parsed facts document."""
    _require(isinstance(doc, dict), "document", "top level must be a JSON object")
    known = {
        "characters",
        "bases",
        "base_changes",
        "facts",
        "cuspidal",
        "automorphic",
        "self_dual",
        "word_kinds",
        "siegel",
    }
    for key in doc:
        _require(key in known, "document", f"unknown section {key!r}")

    ledger = FactLedger()

    for where, entry in _entries(doc, "characters"):
        name = _str_field(entry, "name", where)
        order = entry.get("order")
        _require(
            order is None or (type(order) is int and order >= 1),
            where,
            "order must be a positive integer",
        )
        kind = None
        properties = entry.get("properties", [])
        if isinstance(properties, str):
            properties = [properties]
        _require(isinstance(properties, list), where, "properties must be a list")
        for prop in properties:
            _require(prop in _KINDS, where, f"unknown property {prop!r}")
            kind = prop
        ledger.declare_character(name, order=order, kind=kind)

    for where, entry in _entries(doc, "bases"):
        name = _str_field(entry, "name", where)
        typ = _str_field(entry, "type", where)
        tags = {
            key: entry[key]
            for key in (
                "omega",
                "dihedral_field",
                "dihedral_char",
                "cubic_char",
                "quadratic_char",
                "induced_field",
                "induced_char",
                "galois_row",
            )
            if key in entry
        }
        for key, value in tags.items():
            # the ledger checks galois_row against the table rows itself
            _require(
                key == "galois_row" or isinstance(value, str),
                where,
                f"{key!r} must be a string",
            )
        ledger.declare_base(name, typ, **tags)

    for where, entry in _entries(doc, "base_changes"):
        of = _lookup_base(_str_field(entry, "of", where), ledger, where)
        extension = _str_field(entry, "extension", where)
        name = _str_field(entry, "name", where)
        typ = _str_field(entry, "type", where)
        ledger.declare_base_change(of, extension, name, typ)

    for where, entry in _entries(doc, "facts"):
        lhs = parse_symbol(_str_field(entry, "lhs", where), ledger, where)
        rhs = parse_symbol(_str_field(entry, "rhs", where), ledger, where)
        relation = _str_field(entry, "relation", where)
        _require(relation in _RELATIONS, where, f"relation must be one of {_RELATIONS}")
        truth = entry.get("truth")
        _require(isinstance(truth, bool), where, "needs a boolean 'truth'")
        if relation == "twist-equiv-by":
            twist = parse_word(_str_field(entry, "twist", where), ledger, where)
            ledger.assert_twist_equiv(lhs, rhs, twist, truth)
        else:
            ledger.assert_equiv(lhs, rhs, truth)

    for section, declare in (
        ("cuspidal", ledger.declare_cuspidal),
        ("automorphic", ledger.declare_automorphic),
    ):
        for where, entry in _entries(doc, section):
            symbol = parse_symbol(_str_field(entry, "symbol", where), ledger, where)
            _require(
                symbol.core is not None and symbol.twist.is_empty(),
                where,
                "must be an untwisted cusp-form symbol",
            )
            truth = entry.get("truth", True)
            _require(isinstance(truth, bool), where, "needs a boolean 'truth'")
            declare(symbol.core, truth)

    for where, entry in _entries(doc, "self_dual"):
        symbol = parse_symbol(_str_field(entry, "symbol", where), ledger, where)
        truth = entry.get("truth")
        _require(isinstance(truth, bool), where, "needs a boolean 'truth'")
        ledger.declare_self_dual(symbol, truth)

    for where, entry in _entries(doc, "word_kinds"):
        word = parse_word(_str_field(entry, "word", where), ledger, where)
        kind = _str_field(entry, "kind", where)
        _require(kind in _KINDS, where, f"kind must be one of {_KINDS}")
        ledger.declare_word_kind(word, kind)

    siegel = doc.get("siegel", {})
    _require(isinstance(siegel, dict), "siegel", "must be an object")
    for key, value in siegel.items():
        _require(key in ("p", "chi"), "siegel", f"unknown key {key!r}")
        _require(isinstance(value, str), "siegel", f"{key!r} must be a string")
    if "p" in siegel:
        _lookup_base(siegel["p"], ledger, "siegel")

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


def siegel_inputs(ledger: FactLedger, doc: dict):
    """Resolve the (p, chi) pair a siegel command should report on.

    Preference order: the document's ``siegel`` section; otherwise the
    unique icosahedral base tagged with a 2-dimensional restriction row.
    ``p`` is None when the document tags no base (the ``siegel`` command
    then declares the standard pair); ``chi`` is None when the section
    names none.
    """
    config = doc.get("siegel", {})
    p = None
    if "p" in config:
        p = ledger.bases[config["p"]]
    else:
        tagged = [
            b
            for b in ledger.bases.values()
            if b.typ == "icosahedral" and b.galois_row in ("X'", "X''")
        ]
        if len(tagged) == 1:
            p = tagged[0]
        elif len(tagged) > 1:
            raise FactsError(
                "several icosahedral bases are tagged; pick one with "
                'a "siegel": {"p": ...} section'
            )
    chi_name = config.get("chi")
    if chi_name is not None and chi_name not in ledger.characters:
        raise FactsError(f"siegel: undeclared character {chi_name!r}")
    chi = CharWord.gen(chi_name) if chi_name else None
    return p, chi
