"""Loading JSON fact documents into ledgers."""

from __future__ import annotations

import json

import pytest

from icosym.factsfile import (
    FactsError,
    load_facts,
    load_facts_file,
    parse_symbol,
    parse_word,
    siegel_inputs,
)
from icosym.isobaric import (
    CharWord,
    Constituent,
    LedgerError,
    SymCusp,
    ad,
    decide_cuspidality,
    decide_cuspidality_via_poles,
)


def test_empty_document():
    ledger = load_facts({})
    assert ledger.bases == {}
    assert ledger.characters == {}


class TestCharacters:
    def test_order_and_properties(self):
        ledger = load_facts(
            {"characters": [{"name": "chi", "order": 2, "properties": ["quadratic"]}]}
        )
        info = ledger.characters["chi"]
        assert info.order == 2
        assert info.kind == "quadratic"

    def test_property_as_bare_string(self):
        ledger = load_facts({"characters": [{"name": "nu", "properties": "non-real"}]})
        assert ledger.characters["nu"].kind == "non-real"

    def test_unknown_property_rejected(self):
        with pytest.raises(FactsError, match="unknown property"):
            load_facts({"characters": [{"name": "chi", "properties": ["odd"]}]})

    def test_bad_order_rejected(self):
        with pytest.raises(FactsError, match="positive integer"):
            load_facts({"characters": [{"name": "chi", "order": 0}]})


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
        assert ledger.characters["mu(rho)"].order == 2

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
        assert ledger.characters["xi@theta"].order == 2

    @pytest.mark.parametrize("dihedral_first", [True, False])
    def test_base_named_like_the_conjugate_character(self, dihedral_first):
        bases = [self.DIHEDRAL, {"name": "xi@theta", "type": "icosahedral"}]
        if not dihedral_first:
            bases.reverse()
        with pytest.raises(LedgerError, match="xi@theta is declared as a"):
            load_facts({"bases": bases})

    def test_unknown_type_rejected(self):
        with pytest.raises(LedgerError, match="unknown base type"):
            load_facts({"bases": [{"name": "pi", "type": "heptahedral"}]})

    @pytest.mark.parametrize(
        "row", ["Q", "W", 7, ["X'"]], ids=["Q", "W", "int", "list"]
    )
    def test_galois_row_must_be_two_dimensional(self, row):
        with pytest.raises(LedgerError, match="galois_row"):
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


class TestWordsAndSymbols:
    def test_word_with_exponents(self):
        ledger = load_facts({})
        word = parse_word("chi^-1*chi@theta", ledger)
        assert word == CharWord.of({"chi": -1, "chi@theta": 1})
        assert "chi" in ledger.characters

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
        characters = dict(ledger.characters)
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
        with pytest.raises(LedgerError, match="contradictory"):
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
        with pytest.raises(LedgerError, match="declared as a"):
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
    def test_explicit_config(self):
        doc = {
            "characters": [{"name": "nu", "order": 4}],
            "bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"}],
            "siegel": {"p": "f", "chi": "nu"},
        }
        ledger = load_facts(doc)
        p, chi = siegel_inputs(ledger, doc)
        assert p.name == "f"
        assert chi == CharWord.gen("nu")

    def test_unique_tagged_base_is_found(self):
        doc = {"bases": [{"name": "f", "type": "icosahedral", "galois_row": "X''"}]}
        ledger = load_facts(doc)
        p, chi = siegel_inputs(ledger, doc)
        assert p.name == "f" and chi is None

    def test_empty_document_falls_back(self):
        assert siegel_inputs(load_facts({}), {}) == (None, None)

    def test_ambiguous_tagging_rejected(self):
        doc = {
            "bases": [
                {"name": "f", "type": "icosahedral", "galois_row": "X'"},
                {"name": "g", "type": "icosahedral", "galois_row": "X''"},
            ]
        }
        with pytest.raises(FactsError, match="pick one"):
            siegel_inputs(load_facts(doc), doc)

    def test_undeclared_siegel_character(self):
        doc = {
            "bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"}],
            "siegel": {"p": "f", "chi": "ghost"},
        }
        with pytest.raises(FactsError, match="undeclared character"):
            siegel_inputs(load_facts(doc), doc)


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
