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
"""

from __future__ import annotations

import importlib.util
import sys

__version__ = "0.1.0"

#: largest n that ``sym^n(...)`` parses with and largest ``--m`` the CLI
#: takes; the class function of sym^n is built in O(n) steps, so a larger
#: power is a typed error rather than a hang.  Defined here so that the CLI
#: reads it without running the layers below.
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
        "self_dual_two_dim_report",
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
        "decide_cuspidality",
        "decide_cuspidality_via_poles",
        "galois_pole_check",
        "icosahedral_family",
        "pole_order",
        "rs_expand",
        "standard_icosahedral_pair",
    ),
    "factsfile": ("FactsError", "load_facts", "load_facts_file"),
    "repexpr": ("DimensionError", "ParseError", "evaluate", "parse", "render"),
    "report": ("CheckResult", "all_passed", "format_report"),
    "scalar": ("GOLDEN", "GOLDEN_CONJ", "SQRT5", "Qsqrt5"),
    "siegel": (
        "LFactorization",
        "MissingHypothesisError",
        "SiegelReport",
        "build_auxiliary",
        "expand_aux_square",
        "siegel_report",
        "siegel_scan",
        "sym_power_automorphic",
        "sym_power_cuspidal",
    ),
    "verify": ("verify_all",),
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


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
