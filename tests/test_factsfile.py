"""Loading JSON fact documents into ledgers."""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icosym import MAX_POWER, factsfile
from icosym.cli import cmd_dispatch
from icosym.factsfile import (
    FactsError,
    load_facts,
    load_facts_file,
    parse_symbol,
    parse_word,
)
from icosym.isobaric import (
    CharWord,
    Constituent,
    LedgerError,
    SymCusp,
    ad,
    conjugate_pair,
    decide_cuspidality,
    decide_cuspidality_via_poles,
)
from icosym.siegel import siegel_report
from test_corpus import build_documents, run


def test_empty_document():
    ledger = load_facts({})
    assert ledger.bases == {}
    assert ledger.characters == set()


class TestCharacters:
    def test_order_and_properties(self):
        ledger = load_facts(
            {"characters": [{"name": "chi", "order": 2, "properties": ["quadratic"]}]}
        )
        assert ledger._rows["chi"] == CharWord.gen("chi", 2)
        assert ledger.word_kind(CharWord.gen("chi")) == "quadratic"

    def test_property_as_bare_string(self):
        ledger = load_facts({"characters": [{"name": "nu", "properties": "non-real"}]})
        assert "nu" in ledger.characters and "nu" not in ledger._rows
        assert ledger.word_kind(CharWord.gen("nu")) == "non-real"

    def test_one_kind_named_twice_is_one_kind(self):
        ledger = load_facts({"characters": [{"name": "nu", "properties": ["cubic", "cubic"]}]})
        assert ledger._rows["nu"] == CharWord.gen("nu", 3)
        assert ledger.word_kind(CharWord.gen("nu")) == "cubic"

    def test_unknown_property_rejected(self):
        with pytest.raises(FactsError, match="unknown property"):
            load_facts({"characters": [{"name": "chi", "properties": ["odd"]}]})

    def test_bad_order_rejected(self):
        with pytest.raises(FactsError, match="positive integer"):
            load_facts({"characters": [{"name": "chi", "order": 0}]})

    @pytest.mark.parametrize("bare_first", [True, False])
    def test_a_bare_entry_adds_nothing_in_either_order(self, bare_first):
        entries = [{"name": "c"}, {"name": "c", "order": 2, "properties": ["quadratic"]}]
        ledger = load_facts({"characters": entries if bare_first else entries[::-1]})
        assert ledger._rows["c"] == CharWord.gen("c", 2)
        assert ledger.word_kind(CharWord.gen("c")) == "quadratic"

    @pytest.mark.parametrize("order, kind", [(1, "trivial"), (2, "quadratic"), (3, "cubic")])
    @pytest.mark.parametrize("order_first", [True, False])
    def test_an_order_and_the_property_fixing_it_are_one_declaration(self, order, kind,
                                                                     order_first):
        entries = [{"name": "c", "order": order}, {"name": "c", "properties": [kind]}]
        ledger = load_facts({"characters": entries if order_first else entries[::-1]})
        assert ledger.characters == {"c"}
        assert ledger._rows == {"c": CharWord.gen("c", order)}
        assert ledger.word_kind(CharWord.gen("c")) == kind

    @pytest.mark.parametrize("order, kind", [(2, "cubic"), (5, "cubic"), (3, "quadratic")])
    @pytest.mark.parametrize("order_first", [True, False])
    def test_an_order_and_a_property_fixing_another_are_refused(self, order, kind, order_first):
        entries = [{"name": "c", "order": order}, {"name": "c", "properties": [kind]}]
        with pytest.raises(FactsError, match=r"characters\[1\]: character c cannot (have|be) "):
            load_facts({"characters": entries if order_first else entries[::-1]})
        with pytest.raises(FactsError, match=f"character c of order {order} cannot be {kind}"):
            load_facts({"characters": [{"name": "c", "order": order, "properties": [kind]}]})
        # the refusal names the member of D the kind would make 1, and its reason
        with pytest.raises(FactsError, match=f"c cannot be declared {kind}: then c would be 1, "
                                             f"but c has order {order}"):
            load_facts({"characters": [{"name": "c", "order": order}],
                        "word_kinds": [{"word": "c", "kind": kind}]})

    @pytest.mark.parametrize("spelling", [{"order": 3}, {"properties": ["cubic"]}])
    def test_a_cubic_character_may_be_declared_non_real(self, spelling):
        """Non-real fits every order above 2, so it fits cubic."""
        ledger = load_facts({"characters": [{"name": "c", **spelling}],
                             "word_kinds": [{"word": "c", "kind": "non-real"}]})
        assert ledger.characters == {"c"} and ledger._rows == {"c": CharWord.gen("c", 3)}
        assert ledger.word_kind(CharWord.gen("c")) == "cubic"


class TestBases:
    def test_types_and_companions(self):
        ledger = load_facts(
            {
                "bases": [
                    {"name": "pi", "type": "tetrahedral"},
                    {"name": "rho", "type": "octahedral"},
                ]
            }
        )
        assert ledger.bases["pi"].cubic_char == "eta(pi)"
        assert ledger.bases["rho"].quadratic_char == "mu(rho)"
        assert ledger._rows["mu(rho)"] == CharWord.gen("mu(rho)", 2)

    def test_dihedral_data_is_carried(self):
        ledger = load_facts(
            {
                "bases": [
                    {
                        "name": "p",
                        "type": "dihedral",
                        "dihedral_field": "E",
                        "dihedral_char": "xi",
                    }
                ]
            }
        )
        base = ledger.bases["p"]
        assert base.dihedral_field == "E"
        assert "xi" in ledger.characters

    DIHEDRAL = {"name": "p", "type": "dihedral", "dihedral_field": "E", "dihedral_char": "xi"}

    def test_declared_conjugate_character_loads(self):
        ledger = load_facts(
            {"characters": [{"name": "xi@theta", "order": 2}], "bases": [self.DIHEDRAL]}
        )
        assert ledger._rows["xi@theta"] == CharWord.gen("xi@theta", 2)

    @pytest.mark.parametrize(
        "base",
        [DIHEDRAL, {"name": "f", "type": "icosahedral", "omega": "xi"}],
        ids=["dihedral_char", "omega"],
    )
    def test_a_companion_declared_with_an_order_keeps_it(self, base):
        ledger = load_facts({"characters": [{"name": "xi", "order": 2}], "bases": [base]})
        assert ledger._rows["xi"] == CharWord.gen("xi", 2)
        assert ledger.bases[base["name"]].typ == base["type"]

    @pytest.mark.parametrize("spelling", [{"order": 3}, {"properties": ["cubic"]},
                                          {"properties": ["non-real"]}])
    def test_a_cubic_companion_declared_beforehand_agrees(self, spelling):
        """Non-real fits every order above 2, so a companion declared non-real
        beforehand agrees with the order 3 its base gives it."""
        ledger = load_facts({"characters": [{"name": "eta(t)", **spelling}],
                             "bases": [{"name": "t", "type": "tetrahedral"}]})
        assert ledger._rows["eta(t)"] == CharWord.gen("eta(t)", 3)
        assert ledger.word_kind(CharWord.gen("eta(t)")) == "cubic"
        with pytest.raises(FactsError, match=r"bases\[0\]: character eta\(t\) cannot have order "
                                              r"3: then eta\(t\) would be 1, but eta\(t\) has "
                                              "order 2"):
            load_facts({"characters": [{"name": "eta(t)", "properties": ["quadratic"]}],
                        "bases": [{"name": "t", "type": "tetrahedral"}]})

    @pytest.mark.parametrize("tetrahedral_first", [True, False])
    def test_a_companion_with_a_kind_shared_by_another_base(self, tetrahedral_first):
        bases = [{"name": "t", "type": "tetrahedral"},
                 {"name": "g", "type": "general", "omega": "eta(t)"}]
        ledger = load_facts({"bases": bases if tetrahedral_first else bases[::-1]})
        assert ledger._rows["eta(t)"] == CharWord.gen("eta(t)", 3)
        assert ledger.word_kind(CharWord.gen("eta(t)")) == "cubic"
        assert ledger.bases["g"].omega == "eta(t)"

    @pytest.mark.parametrize("dihedral_first", [True, False])
    def test_base_named_like_the_conjugate_character(self, dihedral_first):
        bases = [self.DIHEDRAL, {"name": "xi@theta", "type": "icosahedral"}]
        if not dihedral_first:
            bases.reverse()
        # the second of the two bases is the one refused
        with pytest.raises(FactsError, match=r"^bases\[1\]: xi@theta is declared as a"):
            load_facts({"bases": bases})

    def test_unknown_type_rejected(self):
        with pytest.raises(FactsError, match=r"^bases\[0\]: unknown base type"):
            load_facts({"bases": [{"name": "pi", "type": "heptahedral"}]})

    @pytest.mark.parametrize(
        "row", ["Q", "W", 7, ["X'"]], ids=["Q", "W", "int", "list"]
    )
    def test_galois_row_must_be_two_dimensional(self, row):
        with pytest.raises(FactsError, match=r"^bases\[0\]: base pi: galois_row"):
            load_facts(
                {"bases": [{"name": "pi", "type": "icosahedral", "galois_row": row}]}
            )

    def test_base_change_section(self):
        ledger = load_facts(
            {
                "bases": [{"name": "rho", "type": "icosahedral"}],
                "base_changes": [
                    {"of": "rho", "extension": "E", "name": "rho_E", "type": "general"}
                ],
            }
        )
        bc = ledger.base_change(ledger.bases["rho"], "E")
        assert bc is not None and bc.typ == "general"

    def test_base_change_of_undeclared_base(self):
        with pytest.raises(FactsError, match="undeclared base"):
            load_facts(
                {
                    "base_changes": [
                        {"of": "rho", "extension": "E", "name": "x", "type": "general"}
                    ]
                }
            )

    @pytest.mark.parametrize("order", ["dihedral-first", "general-first"])
    def test_a_second_base_change_to_one_field_is_refused(self, order):
        changes = [
            {"of": "q", "extension": "E", "name": "qE", "type": "dihedral"},
            {"of": "q", "extension": "E", "name": "qE2", "type": "general"},
        ]
        if order == "general-first":
            changes.reverse()
        first, second = (c["name"] for c in changes)
        with pytest.raises(FactsError) as err:
            load_facts({"bases": [{"name": "q", "type": "icosahedral"}], "base_changes": changes})
        assert str(err.value) == (
            "base_changes[1]: contradictory declarations of the base change of q to E: "
            f"{first} vs {second}"
        )

    def test_the_same_base_change_twice_loads(self):
        change = {"of": "q", "extension": "E", "name": "qE", "type": "dihedral"}
        ledger = load_facts(
            {"bases": [{"name": "q", "type": "icosahedral"}], "base_changes": [change, change]}
        )
        assert ledger.base_change(ledger.bases["q"], "E").typ == "dihedral"

    @pytest.mark.parametrize("order", ["base-first", "chain-first"])
    def test_a_chain_of_base_changes_loads_in_either_order(self, order):
        changes = [
            {"of": "q", "extension": "E", "name": "qE", "type": "general"},
            {"of": "qE", "extension": "F", "name": "qEF", "type": "dihedral"},
        ]
        if order == "chain-first":
            changes.reverse()
        ledger = load_facts({"bases": [{"name": "q", "type": "icosahedral"}],
                             "base_changes": changes})
        q_e = ledger.base_change(ledger.bases["q"], "E")
        assert q_e.name == "qE" and ledger.base_change(q_e, "F").typ == "dihedral"

    @pytest.mark.parametrize(
        "changes, message",
        [
            ([("qF", "E", "qE"), ("qE", "F", "qF")], "base_changes[0]: undeclared base 'qF'"),
            ([("q", "E", "qE"), ("ghost", "F", "gF")], "base_changes[1]: undeclared base 'ghost'"),
        ],
        ids=["cycle", "missing"],
    )
    def test_a_cycle_or_a_missing_base_of_base_changes_is_refused(self, changes, message):
        with pytest.raises(FactsError) as err:
            load_facts({
                "bases": [{"name": "q", "type": "icosahedral"}],
                "base_changes": [{"of": of, "extension": ext, "name": name, "type": "general"}
                                 for of, ext, name in changes],
            })
        assert str(err.value) == message


@pytest.mark.parametrize("word", ["c", "c^-1"])
@pytest.mark.parametrize("order", [None, 1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["trivial", "quadratic", "cubic", "non-real"])
def test_a_generator_kind_reads_alike_as_a_word_kind_and_as_a_character(kind, order, word):
    """A kind declared in word_kinds for c or c^-1 answers every query as the
    same kind declared for c in characters, or is refused.  A reason may name
    the entry as it is spelled (``c^-1 is non-real``), so verdicts are compared."""
    entry = {"name": "c"} if order is None else {"name": "c", "order": order}
    try:
        as_word = load_facts({"characters": [entry], "word_kinds": [{"word": word, "kind": kind}]})
    except FactsError:
        return
    as_character = load_facts({"characters": [{**entry, "properties": [kind]}]})
    powers = [CharWord.gen("c", e) for e in range(-3, 7)]
    answers = [
        [ledger.word_kind(w) for w in powers]
        + [ledger.equivalent(Constituent(None, v), Constituent(None, w))[0]
           for v in powers for w in powers]
        for ledger in (as_word, as_character)
    ]
    assert answers[0] == answers[1]


# names a symbol would read as something else: an exponent, the trivial word,
# two factors, an adjoint, a bad factor, an unbalanced parenthesis
_UNREADABLE = ["x^2", "1", "a*b", "Ad(q)", "a b", "f("]


# each place a file declares a name, and the entry a refusal there names
_PLACES = {
    "character": (lambda n: {"characters": [{"name": n}]}, "characters[0]"),
    "base": (lambda n: {"bases": [{"name": n, "type": "general"}]}, "bases[0]"),
    "base-change": (
        lambda n: {
            "bases": [{"name": "q", "type": "general"}],
            "base_changes": [{"of": "q", "extension": "E", "name": n, "type": "general"}],
        },
        "base_changes[0]",
    ),
    **{
        tag: (lambda n, tag=tag: {"bases": [{"name": "q", "type": "general", tag: n}]}, "bases[0]")
        for tag in ("omega", "dihedral_char", "cubic_char", "quadratic_char", "induced_char")
    },
}


@pytest.mark.parametrize("name", _UNREADABLE)
@pytest.mark.parametrize("place", sorted(_PLACES))
def test_a_name_a_symbol_reads_otherwise_is_refused(place, name):
    doc, where = _PLACES[place]
    with pytest.raises(FactsError) as err:
        load_facts(doc(name))
    assert str(err.value).startswith(f"{where}: ")
    assert repr(name) in str(err.value)


def test_declared_names_of_the_docs_read_back():
    ledger = load_facts(
        {
            "characters": [{"name": "omega(pi)"}, {"name": "xi@theta"}, {"name": "b3_E0"}],
            "bases": [{"name": "pi'", "type": "icosahedral", "omega": "w_(1)"}],
        }
    )
    assert {"omega(pi)", "xi@theta", "b3_E0", "w_(1)"} <= ledger.characters


class TestWordsAndSymbols:
    def test_word_with_exponents(self):
        ledger = load_facts({})
        word = parse_word("chi^-1*chi@theta", ledger)
        assert word == CharWord.of({"chi": -1, "chi@theta": 1})
        assert ledger.characters == set()  # a parse declares nothing

    def test_a_parse_writes_nothing(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "tetrahedral"}]})
        before = set(ledger.characters)
        assert parse_symbol("sym^3(pi)*chi^2*nu", ledger).twist == CharWord.of({"chi": 2, "nu": 1})
        assert parse_word("eta(pi)^-1*xi@theta", ledger).word == (("eta(pi)", -1), ("xi@theta", 1))
        assert ledger.characters == before
        # the ledger declares a generator where a fact first mentions it
        ledger.assert_equiv(parse_symbol("chi", ledger), parse_symbol("nu", ledger), False)
        assert ledger.characters - before == {"chi", "nu"}

    def test_trivial_words(self):
        ledger = load_facts({})
        assert parse_word("1", ledger).is_empty()
        assert parse_word("", ledger).is_empty()

    def test_repeated_factor_accumulates(self):
        ledger = load_facts({})
        assert parse_word("chi*chi", ledger) == CharWord.of({"chi": 2})

    def test_symbol_ad_keeps_its_determinant_twist(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        assert parse_symbol("Ad(pi)", ledger) == ad(ledger.bases["pi"])

    def test_symbol_sym_power(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        symbol = parse_symbol("sym^3(pi)*chi^2", ledger)
        assert symbol.degree == 4
        assert symbol.twist == CharWord.of({"chi": 2})

    def test_symbol_bare_base_and_pure_character(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        assert parse_symbol("pi", ledger).core is ledger.bases["pi"]
        pure = parse_symbol("chi*omega(pi)", ledger)
        assert pure.core is None and pure.degree == 1

    @pytest.mark.parametrize(
        "text", ["sym^12(pi)*chi", "chi*sym^12(pi)", " sym^12(pi) * chi ", "chi * sym^12(pi)"]
    )
    def test_cusp_form_factor_in_any_position(self, text):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        want = Constituent(SymCusp(ledger.bases["pi"], 12), CharWord.gen("chi"))
        assert parse_symbol(text, ledger) == want

    def test_adjoint_after_a_character(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        pi_ad = ad(ledger.bases["pi"])
        assert parse_symbol("chi*Ad(pi)", ledger) == pi_ad.twisted(CharWord.gen("chi"))
        assert "Ad(pi)" not in ledger.characters

    @pytest.mark.parametrize("text", ["pi*rho", "Ad(pi)*chi*sym^3(rho)", "sym^0(pi)*pi"])
    def test_two_cusp_form_factors_rejected(self, text):
        ledger = load_facts(
            {
                "bases": [
                    {"name": "pi", "type": "icosahedral"},
                    {"name": "rho", "type": "general"},
                ]
            }
        )
        with pytest.raises(FactsError, match="more than one cusp-form factor"):
            parse_symbol(text, ledger)

    def test_sym_power_up_to_the_bound(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        assert parse_symbol(f"sym^{MAX_POWER}(pi)", ledger).degree == MAX_POWER + 1
        assert parse_symbol("sym^0003(pi)", ledger).degree == 4

    @pytest.mark.parametrize("power", [str(MAX_POWER + 1), "10000000", "9" * 5000])
    def test_sym_power_above_the_bound_rejected(self, power):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        with pytest.raises(FactsError, match=f"largest supported, {MAX_POWER}"):
            parse_symbol(f"sym^{power}(pi)*chi", ledger)
        assert "chi" not in ledger.characters

    def test_sym_of_undeclared_base(self):
        with pytest.raises(FactsError, match="undeclared base"):
            parse_symbol("sym^2(nope)", load_facts({}))

    def test_base_name_inside_word_position_rejected(self):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        with pytest.raises(FactsError, match="is a base"):
            parse_word("pi^2", ledger)

    @pytest.mark.parametrize(
        "text", ["Ad(pi)", "Ad(pi)^2", "chi*Ad(pi)", "Ad(pi)^-1*chi^2"]
    )
    def test_cusp_form_factor_in_a_word_rejected(self, text):
        ledger = load_facts({"bases": [{"name": "pi", "type": "icosahedral"}]})
        characters = set(ledger.characters)
        with pytest.raises(FactsError, match="is a cusp form, not a character"):
            parse_word(text, ledger)
        assert ledger.characters == characters

    def test_cusp_form_of_an_undeclared_base_in_a_word_rejected(self):
        ledger = load_facts({})
        with pytest.raises(FactsError, match="undeclared base 'nobody'"):
            parse_word("Ad(nobody)", ledger)
        assert "Ad(nobody)" not in ledger.characters

    @pytest.mark.parametrize(
        "section",
        [
            {
                "facts": [
                    {
                        "lhs": "Ad(pi)",
                        "rhs": "Ad(pi)",
                        "relation": "twist-equiv-by",
                        "twist": "Ad(pi)",
                        "truth": False,
                    }
                ]
            },
            {"word_kinds": [{"word": "chi*Ad(pi)^3", "kind": "non-real"}]},
        ],
    )
    def test_cusp_form_in_twist_or_word_kind_rejected(self, section):
        doc = {"bases": [{"name": "pi", "type": "icosahedral"}], **section}
        with pytest.raises(FactsError, match="is a cusp form, not a character"):
            load_facts(doc)

    def test_unbalanced_parens(self):
        with pytest.raises(FactsError, match="unbalanced"):
            parse_symbol("Ad(pi", load_facts({}))


class TestFacts:
    def test_equiv_fact_lands_on_the_decision(self):
        ledger = load_facts(
            {
                "bases": [
                    {"name": "pi", "type": "tetrahedral"},
                    {"name": "rho", "type": "tetrahedral"},
                ],
                "facts": [
                    {
                        "lhs": "Ad(pi)",
                        "rhs": "Ad(rho)",
                        "relation": "equiv",
                        "truth": True,
                    }
                ],
            }
        )
        verdict = decide_cuspidality(ledger.bases["pi"], ledger.bases["rho"], ledger)
        assert verdict.verdict == "not-cuspidal"

    def test_twist_equiv_fact(self):
        doc = {
            "bases": [
                {"name": "pi", "type": "tetrahedral"},
                {"name": "rho", "type": "octahedral"},
            ],
            "facts": [
                {
                    "lhs": "Ad(pi)",
                    "rhs": "Ad(rho)",
                    "relation": "equiv",
                    "truth": False,
                },
                {
                    "lhs": "Ad(pi)",
                    "rhs": "Ad(rho)",
                    "relation": "twist-equiv-by",
                    "twist": "mu(rho)",
                    "truth": False,
                },
            ],
        }
        ledger = load_facts(doc)
        p, rho = ledger.bases["pi"], ledger.bases["rho"]
        structural = decide_cuspidality(p, rho, ledger)
        poles = decide_cuspidality_via_poles(p, rho, ledger)
        assert structural.verdict == poles.verdict == "cuspidal"

    def test_mackey_fact_through_the_file(self):
        def doc(truth: bool) -> dict:
            return {
                "bases": [
                    {
                        "name": "p",
                        "type": "dihedral",
                        "dihedral_field": "E",
                        "dihedral_char": "xi",
                    },
                    {"name": "rho", "type": "icosahedral"},
                ],
                "base_changes": [
                    {
                        "of": "rho",
                        "extension": "E",
                        "name": "rho_E",
                        "type": "tetrahedral",
                    }
                ],
                "facts": [
                    {
                        "lhs": "sym^2(rho_E)",
                        "rhs": "sym^2(rho_E)",
                        "relation": "twist-equiv-by",
                        "twist": "xi^-1*xi@theta",
                        "truth": truth,
                    }
                ],
            }

        for truth, expected in ((True, "not-cuspidal"), (False, "cuspidal")):
            ledger = load_facts(doc(truth))
            verdict = decide_cuspidality(ledger.bases["p"], ledger.bases["rho"], ledger)
            assert verdict.verdict == expected

    def test_missing_twist_key(self):
        with pytest.raises(FactsError, match="twist"):
            load_facts(
                {
                    "bases": [{"name": "pi", "type": "icosahedral"}],
                    "facts": [
                        {
                            "lhs": "pi",
                            "rhs": "pi",
                            "relation": "twist-equiv-by",
                            "truth": True,
                        }
                    ],
                }
            )

    def test_bad_relation(self):
        with pytest.raises(FactsError, match="relation"):
            load_facts(
                {
                    "facts": [
                        {"lhs": "chi", "rhs": "nu", "relation": "same", "truth": True}
                    ]
                }
            )

    def test_contradictory_facts_rejected(self):
        doc = {
            "bases": [
                {"name": "pi", "type": "tetrahedral"},
                {"name": "rho", "type": "tetrahedral"},
            ],
            "facts": [
                {"lhs": "Ad(pi)", "rhs": "Ad(rho)", "relation": "equiv", "truth": True},
                {
                    "lhs": "Ad(pi)",
                    "rhs": "Ad(rho)",
                    "relation": "equiv",
                    "truth": False,
                },
            ],
        }
        with pytest.raises(FactsError, match=r"^facts\[1\]: contradictory"):
            load_facts(doc)


class TestOtherSections:
    def test_cuspidal_and_automorphic(self):
        ledger = load_facts(
            {
                "bases": [{"name": "pi", "type": "general"}],
                "cuspidal": [{"symbol": "sym^7(pi)", "truth": True}],
                "automorphic": [{"symbol": "sym^5(pi)"}],
            }
        )
        base = ledger.bases["pi"]
        from icosym.isobaric import SymCusp

        assert ledger.cuspidal_declared(SymCusp(base, 7)) is True
        assert ledger.automorphic_declared(SymCusp(base, 5)) is True

    def test_the_module_example_loads(self):
        import icosym.factsfile

        doc = icosym.factsfile.__doc__
        example = doc[doc.index("    {\n"):doc.index("\n    }\n") + 6]
        ledger = load_facts(json.loads(example))
        pi = ledger.bases["pi"]
        # sym^7 of the X' base restricts to W + X'', as the example declares
        assert ledger.cuspidal_declared(SymCusp(pi, 7)) is False
        assert ledger.automorphic_declared(SymCusp(pi, 7)) is True

    def test_twisted_cuspidal_symbol_rejected(self):
        with pytest.raises(FactsError, match="untwisted"):
            load_facts(
                {
                    "bases": [{"name": "pi", "type": "general"}],
                    "cuspidal": [{"symbol": "sym^7(pi)*chi", "truth": True}],
                }
            )

    def test_self_dual_and_word_kinds(self):
        ledger = load_facts(
            {
                "bases": [{"name": "pi", "type": "icosahedral"}],
                "self_dual": [{"symbol": "sym^12(pi)*chi", "truth": False}],
                "word_kinds": [{"word": "chi^3", "kind": "non-real"}],
            }
        )
        symbol = Constituent(SymCusp(ledger.bases["pi"], 12), CharWord.gen("chi"))
        assert ledger.self_dual_declared(symbol) is False
        assert ledger.word_kind(CharWord.of({"chi": 3})) == "non-real"

    def test_self_dual_of_an_undeclared_base_rejected(self):
        with pytest.raises(FactsError, match="undeclared base 'nobody'"):
            load_facts({"self_dual": [{"symbol": "sym^12(nobody)*chi", "truth": False}]})

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "characters": [{"name": "chi"}],
                "bases": [{"name": "chi", "type": "general"}],
            },
            {
                "bases": [
                    {"name": "pi", "type": "general"},
                    {"name": "omega(pi)", "type": "general"},
                ]
            },
            {
                "bases": [
                    {"name": "pi", "type": "general", "omega": "rho"},
                    {"name": "rho", "type": "general"},
                ]
            },
        ],
        ids=["character-then-base", "generated-omega", "declared-omega"],
    )
    def test_a_name_shared_by_a_base_and_a_character_rejected(self, doc):
        with pytest.raises(FactsError, match=r"^bases\[\d\]: \S+ is declared as a"):
            load_facts(doc)

    def test_unknown_section_rejected(self):
        with pytest.raises(FactsError, match="unknown section"):
            load_facts({"lemmas": []})


MALFORMED = [
    ({"bases": "pi"}, "bases: must be a list"),
    ({"bases": [5]}, r"bases\[0\]: must be an object"),
    ({"characters": {"name": "chi"}}, "characters: must be a list"),
    ({"facts": [["Ad(pi)", "Ad(pi)"]]}, r"facts\[0\]: must be an object"),
    (
        {
            "bases": [{"name": "pi", "type": "abstract"}],
            "cuspidal": [{"symbol": "pi"}, "pi"],
        },
        r"cuspidal\[1\]: must be an object",
    ),
    ({"word_kinds": None}, "word_kinds: must be a list"),
    ({"siegel": ["pi"]}, "siegel: must be an object"),
    ({"siegel": {"p": ["pi"]}}, "'p' must be a string"),
    ({"siegel": {"chi": 5}}, "'chi' must be a string"),
    ({"characters": [{"name": "chi", "order": True}]}, "positive integer"),
    ({"characters": [{"name": "chi", "order": 2.0}]}, "positive integer"),
    ({"characters": [{"name": "chi", "properties": 5}]}, "must be a list"),
    (
        {"bases": [{"name": "pi", "type": "icosahedral", "omega": ["w"]}]},
        "'omega' must be a string",
    ),
    (
        {
            "bases": [
                {
                    "name": "pi",
                    "type": "dihedral",
                    "dihedral_field": "E",
                    "dihedral_char": {"xi": 1},
                }
            ]
        },
        "'dihedral_char' must be a string",
    ),
]


@pytest.mark.parametrize(
    "doc,message", MALFORMED, ids=[str(i) for i in range(len(MALFORMED))]
)
def test_malformed_shape_is_a_facts_error(doc, message):
    with pytest.raises(FactsError, match=message):
        load_facts(doc)


class TestSiegelInputs:
    """The siegel section names a declared base and character; the report
    picks what it leaves out, reading the loaded ledger."""

    def test_explicit_config(self):
        doc = {
            "characters": [{"name": "nu", "order": 4}],
            "bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"}],
            "siegel": {"p": "f", "chi": "nu"},
        }
        ledger = load_facts(doc)
        report = siegel_report(12, ledger.bases["f"], CharWord.gen("nu"), ledger)
        assert report.target == "sym^12(f)*nu"

    def test_unique_tagged_base_is_found(self):
        doc = {"bases": [{"name": "f", "type": "icosahedral", "galois_row": "X''"}]}
        assert siegel_report(12, ledger=load_facts(doc)).target == "sym^12(f)*chi"

    def test_empty_document_falls_back(self):
        report, default = siegel_report(12, ledger=load_facts({})), siegel_report(12)
        assert (str(report), report.as_json()) == (str(default), default.as_json())

    def test_ambiguous_tagging_rejected(self):
        doc = {
            "bases": [
                {"name": "f", "type": "icosahedral", "galois_row": "X'"},
                {"name": "g", "type": "icosahedral", "galois_row": "X''"},
            ]
        }
        with pytest.raises(LedgerError, match="pick one"):
            siegel_report(12, ledger=load_facts(doc))
        with pytest.raises(LedgerError) as err:
            conjugate_pair(load_facts(doc))
        assert str(err.value) == (
            'several icosahedral bases are tagged; pick one with a "siegel": {"p": ...} section'
        )

    @pytest.mark.parametrize("order", [1, -1])
    def test_several_bases_with_the_partner_row_are_refused(self, order):
        bases = [{"name": "g1", "type": "icosahedral", "galois_row": "X''"},
                 {"name": "g2", "type": "icosahedral", "galois_row": "X''"}]
        ledger = load_facts({"bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"},
                                       *bases[::order]]})
        with pytest.raises(LedgerError) as err:
            conjugate_pair(ledger, ledger.bases["f"])
        assert str(err.value) == (
            "f has no unique Galois partner: several bases are tagged X'' (g1, g2)"
        )
        assert conjugate_pair(ledger, ledger.bases["g1"])[1].name == "f"

    def test_undeclared_siegel_character(self):
        doc = {
            "bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"}],
            "siegel": {"p": "f", "chi": "ghost"},
        }
        with pytest.raises(FactsError, match="^siegel: undeclared character 'ghost'$"):
            load_facts(doc)


class TestFileIO:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "facts.json"
        path.write_text(
            json.dumps({"bases": [{"name": "pi", "type": "icosahedral"}]})
        )
        ledger, doc = load_facts_file(path)
        assert "pi" in ledger.bases
        assert doc["bases"][0]["type"] == "icosahedral"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FactsError, match="cannot read"):
            load_facts_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FactsError, match="not valid JSON"):
            load_facts_file(path)


# -- generated documents -------------------------------------------------------

_NAMES = st.sampled_from(
    ["pi", "rho", "f", "d", "chi", "xi", "nu", "omega(pi)", "eta(pi)", "mu(rho)",
     "xi@theta", "pi_tau", "E", "Ad(pi)"]
)
_SYMBOLS = st.one_of(
    _NAMES,
    st.sampled_from(
        ["Ad(rho)", "Ad(nobody)", "sym^3(pi)", "sym^2(pi)*chi", "chi*sym^12(f)",
         "chi^-1*xi@theta", "pi*rho", "Ad(pi)^2", "nu^3*omega(pi)^-6", "1", "",
         "chi**nu", "(chi", "chi)", "sym^(pi)", "sym^-2(pi)"]
    ),
    st.integers(0, 10**6).map(lambda n: f"sym^{n}(pi)"),
    st.text(max_size=8),
)
_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-5, 10**6), st.floats(), _SYMBOLS
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_VALUES = {
    "name": _NAMES,
    "type": st.sampled_from(
        ["dihedral", "tetrahedral", "octahedral", "icosahedral", "general", "abstract", "cubic"]
    ),
    "order": st.integers(-1, 12),
    "properties": st.lists(st.sampled_from(["quadratic", "cubic", "non-real", "real"]), max_size=2),
    "galois_row": st.sampled_from(["X'", "X''", "W", "Q"]),
    "relation": st.sampled_from(["equiv", "twist-equiv-by", "iso"]),
    "truth": st.booleans(),
    "kind": st.sampled_from(["trivial", "quadratic", "cubic", "non-real", "real"]),
    **dict.fromkeys(
        ["omega", "dihedral_field", "dihedral_char", "cubic_char", "quadratic_char",
         "induced_field", "induced_char", "of", "extension", "p", "chi"],
        _NAMES,
    ),
    **dict.fromkeys(["lhs", "rhs", "twist", "symbol", "word"], _SYMBOLS),
}


def _mostly(good, bad):
    """*good* in seven draws of eight, else *bad* (``one_of`` would weigh
    the two alike)."""
    return st.integers(0, 7).flatmap(lambda i: good if i < 7 else bad)


def _value(key):
    """Mostly a well-typed value for *key*, sometimes any JSON value."""
    return _mostly(_VALUES[key], _JSON)


def _entries(required, optional=()):
    """List sections: entries carry their keys, or some of them, or junk."""
    entry = st.fixed_dictionaries(
        {key: _value(key) for key in required},
        optional={key: _value(key) for key in optional},
    )
    loose = st.dictionaries(st.sampled_from(sorted(_VALUES)), _JSON, max_size=4)
    return _mostly(st.lists(_mostly(entry, loose), max_size=4), _JSON)


_TAGS = ["omega", "dihedral_field", "dihedral_char", "cubic_char", "quadratic_char",
         "induced_field", "induced_char", "galois_row"]
_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "characters": _entries(["name"], ["order", "properties"]),
        "bases": _entries(["name", "type"], _TAGS),
        "base_changes": _entries(["of", "extension", "name", "type"]),
        "facts": _entries(["lhs", "rhs", "relation", "truth"], ["twist"]),
        "cuspidal": _entries(["symbol"], ["truth"]),
        "automorphic": _entries(["symbol"], ["truth"]),
        "self_dual": _entries(["symbol", "truth"]),
        "word_kinds": _entries(["word", "kind"]),
        "siegel": st.one_of(
            st.fixed_dictionaries({}, optional={"p": _value("p"), "chi": _value("chi")}),
            _JSON,
        ),
    },
)
_ANY_DOCUMENT = _mostly(
    _DOCUMENTS,
    st.tuples(_DOCUMENTS, st.text(max_size=6), _JSON).map(lambda t: {**t[0], t[1]: t[2]})
    | _JSON,
)


@pytest.fixture(scope="module")
def generated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "facts.json"


@settings(max_examples=300, deadline=None)
@given(doc=_ANY_DOCUMENT)
def test_any_json_value_loads_or_raises_a_typed_error(generated_path, doc):
    """A JSON value gives a ledger or a FactsError, ledger refusals
    included; a document that is refused exits 2 on the command line."""
    try:
        load_facts(doc)
    except FactsError:
        pass
    else:
        return
    generated_path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cmd_dispatch(["siegel", "--m", "0", "--facts", str(generated_path)])
    assert code == 2, sink.getvalue()
    assert sink.getvalue().startswith("error:")


# -- each distinct text parsed once --------------------------------------------


def _fact(lhs, rhs, truth=False, twist=None):
    fact = {"lhs": lhs, "rhs": rhs, "relation": "equiv", "truth": truth}
    if twist is not None:
        fact.update(relation="twist-equiv-by", twist=twist)
    return fact


REPEATED = {
    "characters": [{"name": "chi", "order": 2}],
    "bases": [{"name": "pi", "type": "icosahedral"}, {"name": "rho", "type": "icosahedral"}],
    "facts": [
        _fact("Ad(pi)", "Ad(rho)"),
        _fact("Ad(rho)", "Ad(pi)"),
        _fact("sym^2(pi)*chi", "sym^2(rho)", twist="chi"),
        _fact("Ad(pi)", "Ad(rho)"),
        _fact("sym^2(pi)*chi", "sym^2(rho)", twist="chi"),
    ],
    "cuspidal": [{"symbol": "sym^7(pi)", "truth": False}] * 2,
    "self_dual": [{"symbol": "sym^2(pi)*chi", "truth": True}],
    "word_kinds": [{"word": "chi", "kind": "quadratic"}] * 2,
}


def test_each_distinct_text_is_parsed_once(monkeypatch):
    """Every factor goes through _cusp_factor once per distinct text that
    holds it, however often the document mentions that text."""
    calls = []
    cusp_factor = factsfile._cusp_factor
    monkeypatch.setattr(
        factsfile,
        "_cusp_factor",
        lambda factor, ledger, where: calls.append(factor) or cusp_factor(factor, ledger, where),
    )
    ledger = load_facts(REPEATED)
    # chi three times: as a factor of sym^2(pi)*chi, in the word that symbol is
    # twisted by, and in the word chi, which the twists and word_kinds share
    assert Counter(calls) == {
        "Ad(pi)": 1, "Ad(rho)": 1, "sym^2(pi)": 1, "sym^2(rho)": 1, "sym^7(pi)": 1, "chi": 3
    }
    assert ledger.word_kind(CharWord.gen("chi")) == "quadratic"
    assert ledger.cuspidal_declared(SymCusp(ledger.bases["pi"], 7)) is False


_MENTIONS = {
    "facts": ("lhs", "rhs", "twist"),
    "cuspidal": ("symbol",),
    "automorphic": ("symbol",),
    "self_dual": ("symbol",),
    "word_kinds": ("word",),
}


def _padded(text: str, pad: str) -> str:
    """*text* with *pad* around each top-level factor, which the parser strips."""
    out, depth = [], 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        out.append(f"{pad}*{pad}" if ch == "*" and depth == 0 else ch)
    return pad + "".join(out) + pad


def _spread(doc: dict) -> dict:
    """*doc* with every non-empty symbol and word mention padded by its own
    number of spaces, so that no two mentions share a text."""
    pads = (" " * k for k in itertools.count(1))
    spread = dict(doc)
    for section, keys in _MENTIONS.items():
        entries = doc.get(section)
        if not isinstance(entries, list):
            continue
        spread[section] = [
            {
                key: _padded(value, next(pads)) if key in keys and isinstance(value, str) and value
                else value
                for key, value in entry.items()
            }
            if isinstance(entry, dict)
            else entry
            for entry in entries
        ]
    return spread


def _state(ledger):
    return (
        ledger.bases,
        ledger.characters,
        ledger._facts,
        ledger.base_changes,
        ledger._cuspidal,
        ledger._automorphic,
        ledger._self_dual,
        ledger._rows,
        ledger._apart,
    )


def _load(doc):
    try:
        return _state(load_facts(doc))
    except FactsError as err:
        return type(err)


def test_spreading_a_document_spreads_its_mentions():
    spread = _spread(REPEATED)
    texts = [
        entry[key]
        for section, keys in _MENTIONS.items()
        for entry in spread.get(section, [])
        for key in keys
        if key in entry
    ]
    assert len(texts) == 17 and len(set(texts)) == len(texts)
    assert spread["facts"][2]["lhs"] == "     sym^2(pi)     *     chi     "
    assert _load(spread) == _load(REPEATED)


@settings(max_examples=200, deadline=None)
@given(doc=_DOCUMENTS)
def test_a_document_loads_as_its_spread_copy_does(doc):
    """Reusing the parse of a repeated text changes nothing: the document and
    the copy in which no text repeats load to equal ledgers, or both raise
    the same exception type."""
    assert _load(doc) == _load(_spread(doc))


_BASES = [{"name": "pi", "type": "icosahedral"}, {"name": "rho", "type": "tetrahedral"}]
_RELATIONS_TEXT = "('equiv', 'twist-equiv-by')"
_KINDS_TEXT = "('trivial', 'quadratic', 'cubic', 'non-real')"

# a bad field or symbol at its first mention, and at a later one, where the
# same text, or the entry's other fields, parsed before
LABELLED = [
    ({"facts": [_fact("Ad(ghost)", "Ad(pi)")]}, "facts[0]: undeclared base 'ghost'"),
    (
        {"facts": [_fact("Ad(pi)", "Ad(rho)"), _fact("Ad(pi)", "Ad(ghost)")]},
        "facts[1]: undeclared base 'ghost'",
    ),
    (
        {"facts": [_fact("chi**nu", "Ad(pi)")]},
        "facts[0]: empty factor in 'chi**nu'",
    ),
    (
        {"facts": [_fact("Ad(pi)", "Ad(rho)"), _fact("Ad(rho)", "sym^2(pi)*Ad(pi)")]},
        "facts[1]: more than one cusp-form factor in 'sym^2(pi)*Ad(pi)'",
    ),
    (
        {"facts": [_fact("Ad(pi)", f"sym^{MAX_POWER + 1}(pi)")]},
        f"facts[0]: power above the largest supported, {MAX_POWER}, in 'sym^{MAX_POWER + 1}(pi)'",
    ),
    (
        {"facts": [_fact("Ad(pi)", "Ad(rho)"), {"lhs": "Ad(pi)", "rhs": 5}]},
        "facts[1]: needs a string 'rhs'",
    ),
    (
        {"facts": [_fact("Ad(pi)", "Ad(rho)"), {**_fact("Ad(pi)", "Ad(rho)"), "relation": "iso"}]},
        f"facts[1]: relation must be one of {_RELATIONS_TEXT}",
    ),
    (
        {"facts": [_fact("Ad(pi)", "Ad(rho)"), {**_fact("Ad(pi)", "Ad(rho)"), "truth": "no"}]},
        "facts[1]: needs a boolean 'truth'",
    ),
    (
        {
            "facts": [
                _fact("Ad(pi)", "Ad(rho)", twist="chi"),
                _fact("Ad(pi)", "Ad(rho)", twist="pi"),
            ]
        },
        "facts[1]: 'pi' is a base, not a character",
    ),
    (
        {"facts": [_fact("Ad(pi)", "Ad(rho)", twist="(chi")]},
        "facts[0]: unbalanced '(' in '(chi'",
    ),
    (
        {
            "facts": [_fact("sym^2(pi)*chi", "sym^2(rho)")],
            "cuspidal": [{"symbol": "sym^7(pi)", "truth": False}, {"symbol": "sym^2(pi)*chi"}],
        },
        "cuspidal[1]: must be an untwisted cusp-form symbol",
    ),
    (
        {
            "cuspidal": [
                {"symbol": "sym^7(pi)", "truth": False},
                {"symbol": "sym^7(pi)", "truth": 0},
            ]
        },
        "cuspidal[1]: needs a boolean 'truth'",
    ),
    (
        {"self_dual": [{"symbol": "Ad(pi)", "truth": True}, {"symbol": "Ad(pi)"}]},
        "self_dual[1]: needs a boolean 'truth'",
    ),
    (
        {"word_kinds": [{"word": "chi*Ad(pi)", "kind": "quadratic"}]},
        "word_kinds[0]: 'Ad(pi)' is a cusp form, not a character",
    ),
    (
        {
            "facts": [_fact("Ad(pi)", "Ad(rho)", twist="chi")],
            "word_kinds": [{"word": "chi", "kind": "non-real"}, {"word": "chi", "kind": "real"}],
        },
        f"word_kinds[1]: kind must be one of {_KINDS_TEXT}",
    ),
    (
        {"word_kinds": [{"word": "chi", "kind": "non-real"}, {"word": "chi^x", "kind": "cubic"}]},
        "word_kinds[1]: bad character factor 'chi^x'",
    ),
    (
        {"bases": [*_BASES, {"name": "f", "type": "general", "omega": 5}]},
        "bases[2]: 'omega' must be a string",
    ),
    (
        {"characters": [{"name": "chi"}, {"name": "nu", "properties": ["real"]}]},
        "characters[1]: unknown property 'real'",
    ),
    (
        {"base_changes": [{"of": "ghost", "extension": "E", "name": "g_E", "type": "general"}]},
        "base_changes[0]: undeclared base 'ghost'",
    ),
    (
        {
            "characters": [{"name": "c", "order": 1}],
            "word_kinds": [{"word": "c", "kind": "non-real"}],
        },
        "word_kinds[0]: c cannot be declared non-real: c^2 is 1",
    ),
    (
        {
            "characters": [{"name": "eta", "properties": ["cubic"]}],
            "word_kinds": [
                {"word": "eta^2", "kind": "cubic"},
                {"word": "eta", "kind": "quadratic"},
            ],
        },
        "word_kinds[1]: eta cannot be declared quadratic: then eta would be 1, but eta has order 3",
    ),
    (
        {"characters": [{"name": "chi"}, {"name": "nu", "properties": ["quadratic", "non-real"]}]},
        "characters[1]: nu cannot be declared non-real: nu^2 is 1",
    ),
    (
        {"characters": [{"name": "nu", "properties": [[]]}]},
        "characters[0]: unknown property []",
    ),
    # a misspelt key would fall back to a default or drop a tag: refused
    (
        {
            "bases": [*_BASES, {"name": "g", "type": "general"}],
            "cuspidal": [{"symbol": "sym^7(g)", "truht": False}],
        },
        "cuspidal[0]: unknown key 'truht'",
    ),
    (
        {"bases": [*_BASES, {"name": "f", "type": "icosahedral", "galois_rwo": "X'"}]},
        "bases[2]: unknown key 'galois_rwo'",
    ),
    (
        {"facts": [{**_fact("Ad(pi)", "Ad(rho)"), "twist": "chi"}]},
        "facts[0]: unknown key 'twist' for relation 'equiv'",
    ),
    ({"characters": [{"name": "chi"}, {"name": "nu", "kind": "real"}]},
     "characters[1]: unknown key 'kind'"),
    (
        {"base_changes": [{"of": "pi", "extension": "E", "name": "pi_E", "typ": "general"}]},
        "base_changes[0]: unknown key 'typ'",
    ),
    ({"automorphic": [{"symbol": "sym^7(pi)", "kind": "cubic"}]},
     "automorphic[0]: unknown key 'kind'"),
    ({"self_dual": [{"symbol": "Ad(pi)", "truth": True, "twist": "chi"}]},
     "self_dual[0]: unknown key 'twist'"),
    ({"word_kinds": [{"word": "chi", "kind": "quadratic", "truth": True}]},
     "word_kinds[0]: unknown key 'truth'"),
    # word kinds load before facts, and a word shares its kind with its inverse
    (
        {
            "characters": [{"name": "a"}, {"name": "b"}],
            "facts": [_fact("a", "b", True)],
            "word_kinds": [{"word": "a*b^-1", "kind": "quadratic"}],
        },
        "facts[0]: a ~ b cannot be declared true: then a*b^-1 would be 1, but a*b^-1 is "
        "quadratic",
    ),
    (
        {
            "characters": [{"name": "c"}, {"name": "d"}],
            "word_kinds": [{"word": "c*d", "kind": "trivial"}],
            "facts": [_fact("c*d", "1", False)],
        },
        "facts[0]: c*d ~ 1 cannot be declared false: both sides reduce to 1",
    ),
    (
        {"word_kinds": [{"word": "a*b", "kind": "trivial"}, {"word": "a^-1*b^-1", "kind": "cubic"}]},
        "word_kinds[1]: a^-1*b^-1 cannot be declared cubic: a^-1*b^-1 is 1",
    ),
    (
        {"word_kinds": [{"word": "eta(rho)^-1", "kind": "quadratic"}]},
        "word_kinds[0]: eta(rho)^-1 cannot be declared quadratic: then eta(rho) would be 1, "
        "but eta(rho) has order 3",
    ),
    (
        {"characters": [{"name": "c"}, {"name": "c", "order": 3}, {"name": "c", "order": 2}]},
        "characters[2]: character c cannot have order 2: then c would be 1, but c has order 3",
    ),
]


@pytest.mark.parametrize("doc,message", LABELLED, ids=[str(i) for i in range(len(LABELLED))])
def test_a_refusal_names_the_entry_that_fails(doc, message):
    with pytest.raises(FactsError) as err:
        load_facts({"bases": _BASES, **doc})
    assert str(err.value) == message


# -- a document is a set -----------------------------------------------------


def _shuffled(doc, seed: int):
    """*doc* with its sections and the entries of each list section in another
    order: all reversed for seed 0, else shuffled by the seed.  A value that
    is not an object is returned as it is."""
    if not isinstance(doc, dict):
        return doc
    rng = random.Random(seed)

    def reorder(items) -> list:
        items = list(items)
        return items[::-1] if seed == 0 else rng.sample(items, len(items))

    return {key: reorder(doc[key]) if isinstance(doc[key], list) else doc[key]
            for key in reorder(doc)}


@functools.lru_cache(maxsize=1)
def _corpus_documents() -> tuple:
    """Every facts document of the behaviour corpus: README's, the regression
    documents, the generated ones and their BAD_DOCUMENTS mutations, each
    parsed where it parses (a truncated one stays text)."""
    out = []
    for text in build_documents().values():
        try:
            out.append(json.loads(text))
        except json.JSONDecodeError:
            out.append(text)
    return tuple(out)


_GENERATORS = ["c", "d", "eta(t)", "mu(o)"]
_WORDS, _TWISTS = (st.dictionaries(st.sampled_from(_GENERATORS), st.sampled_from([-2, -1, 1, 2]),
                                   min_size=size, max_size=2) for size in (0, 1))


def _text_of(word: dict) -> str:
    return "*".join(f"{g}^{e}" for g, e in word.items()) or "1"


@st.composite
def _set_documents(draw):
    """A small document of every section: characters with orders, kinds and
    bare duplicates, and possibly one spelled once by its order and once by
    the property fixing it; bases of every type, two of them possibly sharing the
    row X'' and a companion character; possibly a chain of two base changes;
    a word kind possibly with one for the inverse word and one for a
    generator of it or its inverse; true and false
    character facts and twisted self-twists; self-duality; a siegel section."""
    infos = st.sampled_from([{}, {}, {"order": 2}, {"order": 5}, {"properties": ["cubic"]},
                             {"order": 2, "properties": ["quadratic"]},
                             {"properties": ["non-real"]}, {"order": 1}])
    characters = draw(st.lists(st.tuples(st.sampled_from(["c", "d"]), infos).map(
        lambda entry: {"name": entry[0], **entry[1]}), max_size=4))
    if draw(st.booleans()):
        name = draw(st.sampled_from(["c", "d"]))
        order, kind = draw(st.sampled_from([(1, "trivial"), (2, "quadratic"), (3, "cubic")]))
        characters += [{"name": name, "order": order}, {"name": name, "properties": [kind]}]
    bases = [
        {"name": "p", "type": "icosahedral", "galois_row": "X'"},
        {"name": "q", "type": "icosahedral", "galois_row": "X''"},
        {"name": "t", "type": "tetrahedral"},
        {"name": "o", "type": "octahedral"},
        {"name": "h", "type": "dihedral", "dihedral_field": "E", "dihedral_char": "xi"},
        {"name": "g", "type": "general", **draw(st.sampled_from(
            [{}, {"omega": "eta(t)"}, {"omega": "c"}]))},
        {"name": "a", "type": "abstract"},
    ]
    if draw(st.booleans()):
        bases.append({"name": "r", "type": "icosahedral", "galois_row": "X''"})
    base_changes = draw(st.sampled_from([[], [
        {"of": "g", "extension": "E", "name": "gE", "type": "general"},
        {"of": "gE", "extension": "F", "name": "gEF", "type": "tetrahedral"},
    ]]))
    kinds = st.sampled_from(["trivial", "quadratic", "cubic", "non-real"])
    word = draw(_WORDS)  # declared of no kind, of one, or along with its inverse
    word_kinds = [{"word": _text_of({g: e * sign for g, e in word.items()}), "kind": draw(kinds)}
                  for sign in draw(st.sampled_from([(), (1,), (1, -1)]))]
    if word and draw(st.booleans()):
        generator = draw(st.sampled_from(sorted(word)))
        word_kinds.append({"word": _text_of({generator: draw(st.sampled_from([-1, 1]))}),
                           "kind": draw(kinds)})
    cores = st.sampled_from(["Ad(p)", "Ad(t)", "Ad(o)", "sym^3(o)", "Ad(g)", "Ad(a)"])
    facts = draw(st.lists(st.one_of(
        st.tuples(_WORDS, _WORDS, st.booleans()).map(
            lambda f: _fact(_text_of(f[0]), _text_of(f[1]), f[2])),
        st.tuples(cores, _TWISTS, st.booleans()).map(
            lambda f: _fact(f[0], f[0], f[2], twist=_text_of(f[1]))),
    ), max_size=3))
    self_dual = draw(st.lists(st.fixed_dictionaries({
        "symbol": st.one_of(_WORDS.map(_text_of), st.sampled_from(["sym^12(p)*c", "Ad(t)*d"])),
        "truth": st.booleans(),
    }), max_size=2))
    siegel = draw(st.sampled_from([{}, {"p": "p"}, {"p": "q", "chi": "c"}, {"chi": "d"}]))
    return {"characters": characters, "bases": bases, "base_changes": base_changes,
            "word_kinds": word_kinds, "facts": facts, "self_dual": self_dual, "siegel": siegel}


# documents that each loaded in one order and not in the other, or reported on
# another partner, before the load order and the rules this property pins
_ORDER_DEPENDENT = [
    {"characters": [{"name": "c"}, {"name": "c", "order": 3}]},
    {"word_kinds": [{"word": "a*b", "kind": "trivial"}, {"word": "a^-1*b^-1", "kind": "quadratic"}]},
    {"bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"},
               {"name": "g1", "type": "icosahedral", "galois_row": "X''"},
               {"name": "g2", "type": "icosahedral", "galois_row": "X''"}],
     "siegel": {"p": "f"}},
    {"bases": [{"name": "g", "type": "general", "omega": "eta(t)"},
               {"name": "t", "type": "tetrahedral"}]},
    {"characters": [{"name": "c"}],
     "word_kinds": [{"word": "c^2", "kind": "trivial"}, {"word": "c", "kind": "non-real"}]},
    {"characters": [{"name": "c"}],
     "word_kinds": [{"word": "c", "kind": "non-real"}, {"word": "c^2", "kind": "trivial"}]},
]


@settings(max_examples=150, deadline=None)
@example(doc=_ORDER_DEPENDENT[0], seed=0)
@example(doc=_ORDER_DEPENDENT[1], seed=0)
@example(doc=_ORDER_DEPENDENT[2], seed=0)
@example(doc=_ORDER_DEPENDENT[3], seed=0)
@example(doc=_ORDER_DEPENDENT[4], seed=0)
@example(doc=_ORDER_DEPENDENT[5], seed=0)
@given(doc=st.one_of(st.sampled_from(_corpus_documents()), _set_documents()),
       seed=st.integers(0, 2**32 - 1))
def test_a_document_is_a_set(generated_path, doc, seed):
    """Reordering the sections and the entries of each list section of a
    document changes nothing: an accepted one prints the same bytes on every
    command, and a refused one exits 2."""
    shuffled = _shuffled(doc, seed)
    commands = [["siegel", "--m", m, "--facts", "FACTS"] for m in ("0", "3", "12")]
    try:
        load_facts(doc)
    except FactsError:
        for variant in (doc, shuffled):
            text = variant if isinstance(variant, str) else json.dumps(variant)
            assert run(commands[0], text, generated_path)["code"] == 2
        return
    names = [b["name"] for b in doc.get("bases", [])]
    if names:  # and cuspidality of the first and the last base
        commands.append(["cuspidality", "--facts", "FACTS", "--pi", names[0],
                         "--pi-prime", names[-1]])
    before, after = ([run(argv, json.dumps(variant), generated_path) for argv in commands]
                     for variant in (doc, shuffled))
    assert after == before
