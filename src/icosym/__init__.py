"""Exact character calculus for the binary icosahedral group SL2(F5),
plus a formal bookkeeping engine for cuspidality decisions and
exceptional-zero reports over its symmetric-power tower.

Everything is exact: scalars live in Q(sqrt 5), class functions are
9-tuples of such scalars, and the higher layers manipulate symbols, so no
floating point appears anywhere.

Submodules load on first use.  ``import icosym`` runs none of them: each
is entered in ``sys.modules`` at once but runs on its first attribute
access, and each public name below is looked up in its submodule when
asked for.  So a process pays only for the layers it touches.

The package's value types (symbols, class functions, reports, parse
trees) derive from :class:`Record`, defined here.  A record class lists its
fields in ``__slots__`` and inherits an immutable instance with a
constructor by position or keyword, a ``Name(field=value, ...)`` repr,
equality within one type, and a hash; no code is generated when the class
is defined.
"""

from __future__ import annotations

import importlib.util
import sys
from operator import attrgetter

__version__ = "0.1.0"

_set = object.__setattr__


class Record:
    """An immutable value whose fields are its ``__slots__``.

    The constructor takes the fields in slot order, by position or keyword;
    ``_defaults`` maps each of the last fields to the value it takes when
    omitted.  Two records are equal when they have the same type and equal
    fields, and hash alike then.  Setting or deleting an attribute raises
    AttributeError; ``copy``, ``deepcopy`` and ``pickle`` rebuild through
    the constructor.

    The ledger's symbols, the tower's class functions and the irreducibles
    that ``irreps`` lists are built by the thousand per query, and an
    isobaric ``Verdict`` once per cuspidality decision, the commonest
    ledger query; this generic constructor costs about twice a written-out
    one.  So those few classes write out their ``__init__``, with the
    defaults in its signature, setting each field with ``_set`` (and a
    ledger ``Symbol`` its cached hash to None first).
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        # C-level helpers per class: one getter of the fields, read in one
        # call, and each slot's own setter, which skips __setattr__
        cls._key = attrgetter(*names)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in names)
        if set(names[len(names) - len(cls._defaults):]) != cls._defaults.keys():
            raise TypeError(f"{cls.__qualname__}: the fields with defaults must come last")

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field, in slot order, of a call that omits or names some."""
        names, defaults = cls.__slots__, cls._defaults
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                break
        if kwargs or len(values) != len(names):
            raise TypeError(f"{cls.__qualname__} takes the fields {names}")
        return values

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not the blocked setattr
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


#: largest n that ``sym^n(...)`` parses with and largest ``--m`` the CLI
#: takes; a single cold sym^n is built in O(n) steps (an ascending scan
#: takes one step per power), so a larger power is a typed error rather than
#: a hang.  Defined here so that the CLI reads it without running the layers
#: below.
MAX_POWER = 10_000


def bounded_power(digits: str) -> int | None:
    """The power a string of decimal digits spells, or None above
    MAX_POWER; the length is checked first, so a long string is not
    converted."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_POWER)) or int(digits) > MAX_POWER:
        return None
    return int(digits)


# every public name, by the submodule that defines it
_EXPORTS = {
    "chartab": (
        "IRREP_NAMES",
        "CharacterTable",
        "ClassFunction",
        "NotACharacterError",
        "default_table",
        "format_decomposition",
    ),
    "icostruct": (
        "IcoIrrep",
        "classify_irreps",
        "dim_irrep",
        "generator_family",
        "scan_trivial",
        "sym_power_irrep",
        "twist_equivalent",
    ),
    "isobaric": (
        "BaseCusp",
        "CharWord",
        "Constituent",
        "FactLedger",
        "IsobaricExpr",
        "LedgerError",
        "PoleOrder",
        "Verdict",
        "a4",
        "ad",
        "conjugate_pair",
        "decide_cuspidality",
        "decide_cuspidality_via_poles",
        "galois_pole_check",
        "icosahedral_family",
        "pole_order",
        "rs_expand",
        "standard_icosahedral_pair",
        "sym_power_automorphic",
        "sym_power_cuspidal",
    ),
    "factsfile": ("FactsError", "load_facts", "load_facts_file"),
    "repexpr": ("DimensionError", "ParseError", "evaluate", "parse", "render"),
    "scalar": ("GOLDEN", "GOLDEN_CONJ", "SQRT5", "Qsqrt5"),
    "siegel": (
        "LFactorization",
        "MissingHypothesisError",
        "SiegelReport",
        "build_auxiliary",
        "expand_aux_square",
        "siegel_report",
        "siegel_scan",
    ),
    "verify": ("CheckResult", "all_passed", "format_report", "verify_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

# Entered now, run on first access: code that looks a submodule up in
# sys.modules (a profiler, the benchmark's tracer) finds it after a bare
# ``import icosym`` without paying for it.
for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)
