"""Tests for the auxiliary-sum construction and the exceptional-zero reports."""

from __future__ import annotations

import pytest

import icosym.siegel
from icosym.chartab import CharacterTable
from icosym.factsfile import load_facts
from icosym.icostruct import scan_trivial
from icosym.isobaric import (
    BaseCusp,
    CharWord,
    Constituent,
    FactLedger,
    IsobaricExpr,
    LedgerError,
    SymCusp,
    conjugate_pair,
    icosahedral_family,
    standard_icosahedral_pair,
    sym_cusp,
    sym_power_automorphic,
    sym_power_cuspidal,
)
from icosym.rules import GENERATORS, RULES
from icosym.siegel import (
    MissingHypothesisError,
    build_auxiliary,
    expand_aux_square,
    siegel_report,
    siegel_scan,
)
from icosym.verify import galois_square_accounting, verify_rule_table

CHI = CharWord.gen("chi")

FULL_SCAN = siegel_scan(0, 30)  # shared by the scan tests below


def general_base_with_hypotheses(m):
    ledger = FactLedger()
    ledger.declare_character("chi")
    p = ledger.declare_base("p", "general")
    ledger.declare_cuspidal(SymCusp(p, m), True)
    for n in (m + 2, m - 2):
        if n > 1:
            ledger.declare_automorphic(SymCusp(p, n), True)
    return ledger, p


# -- hypothesis derivation ---------------------------------------------------


def test_sym_cuspidality_from_finite_image():
    ledger, p, _ = standard_icosahedral_pair()
    for n in (1, 2, 3, 4, 5):
        verdict, _ = sym_power_cuspidal(p, n, ledger)
        assert verdict is True
    for n in (6, 7, 12):
        verdict, _ = sym_power_cuspidal(p, n, ledger)
        assert verdict is False
    # automorphy holds at every level: the decomposition realizes the symbol
    # as an isobaric sum of family twists
    for n in range(2, 31):
        verdict, _ = sym_power_automorphic(p, n, ledger)
        assert verdict is True


def test_sym_cuspidality_decomposes_once(monkeypatch):
    calls = []
    decompose = CharacterTable.decompose

    def counting(self, f):
        calls.append(f)
        return decompose(self, f)

    monkeypatch.setattr(CharacterTable, "decompose", counting)
    ledger, p, _ = standard_icosahedral_pair()
    verdicts = [sym_power_cuspidal(p, 6, ledger) for _ in range(3)]
    assert len(calls) == 1
    assert verdicts[0][0] is False
    rows = sorted({"W''", "X2"})
    assert verdicts[0][1] == f"finite image: sym^6 restriction is reducible ({rows})"
    assert ledger.galois_decomposition(SymCusp(p, 6)).keys() == {"W''", "X2"}
    assert len(calls) == 1


TYPES = ("dihedral", "tetrahedral", "octahedral", "icosahedral", "general", "abstract")
GJ = "sym^2 is cuspidal for any non-dihedral base (Gelbart-Jacquet 1978)"
KS = "sym^3 is cuspidal when the base is neither dihedral nor tetrahedral (Kim-Shahidi 2002)"
KIM = "sym^4 is cuspidal when the base is not solvable polyhedral (Kim 2003)"
# the cited reasons, by type and n
CITED = {
    **{(typ, 2): GJ for typ in TYPES[1:5]},
    **{(typ, 3): KS for typ in TYPES[2:5]},
    **{(typ, 4): KIM for typ in TYPES[3:5]},
    ("tetrahedral", 3): "sym^3 of a tetrahedral base splits (Kim-Shahidi 2002)",
    ("tetrahedral", 4): "sym^4 of a tetrahedral base splits (Kim 2003)",
    ("octahedral", 4): "sym^4 of a octahedral base splits (Kim 2003)",
}
SOURCES = {2: "Gelbart-Jacquet 1978", 3: "Kim-Shahidi 2002", 4: "Kim 2003"}
# the binary group's largest irreducible degree, which decides every other n
DEGREE = {"tetrahedral": 3, "octahedral": 4, "icosahedral": 6}
# for n = 0..12: cuspidal and automorphic, T, F or ? (undetermined)
CUSPIDAL = {
    "dihedral": "FTFFFFFFFFFFF",
    "tetrahedral": "FTTFFFFFFFFFF",
    "octahedral": "FTTTFFFFFFFFF",
    "icosahedral": "FTTTTTFFFFFFF",
    "general": "FTTTT????????",
    "abstract": "FT???????????",
}
AUTOMORPHIC = {typ: "TTTTT" + ("T" if typ == "icosahedral" else "?") + "???????" for typ in TYPES}
# for n = 1..12: F when sym^n admits no self-twist, ? when it may have one
SELF_TWIST = {
    "dihedral": "????????????",
    "tetrahedral": "F?FF?FF?FF?F",
    "octahedral": "FF?FFF?FFF?F",
    "icosahedral": "FFFFFFFFFFFF",
    "general": "FFF?????????",
    "abstract": "????????????",
}
VERDICT = {"T": True, "F": False, "?": None}


def untagged_base(typ):
    ledger = FactLedger()
    tags = {"dihedral_field": "K", "dihedral_char": "xi"} if typ == "dihedral" else {}
    return ledger, ledger.declare_base("b", typ, **tags)


def cuspidal_reason(typ, n, verdict):
    if n <= 1:
        return "b is cuspidal by assumption" if n else "sym^0 is the trivial character"
    if (typ, n) in CITED:
        return CITED[typ, n]
    if typ == "dihedral":
        return "symmetric powers of a dihedral base are never cuspidal"
    if verdict is None:
        return f"declare whether sym^{n}(b) is cuspidal"
    return (
        f"finite image: sym^{n} is {'irreducible' if verdict else 'reducible'} on the binary "
        f"{typ} group, whose irreducibles have degree at most {DEGREE[typ]}"
    )


def test_sym_cuspidality_from_type():
    # every type for n <= 12: the verdicts and their reasons
    for typ in TYPES:
        ledger, b = untagged_base(typ)
        for n in range(13):
            verdict = VERDICT[CUSPIDAL[typ][n]]
            reason = cuspidal_reason(typ, n, verdict)
            assert sym_power_cuspidal(b, n, ledger) == (verdict, reason), (typ, n)
            verdict = VERDICT[AUTOMORPHIC[typ][n]]
            if n <= 1:
                reason = "degree at most 2"
            elif n <= 4:
                reason = f"sym^{n} is automorphic ({SOURCES[n]})"
            elif verdict is None:
                reason = f"declare whether sym^{n}(b) is automorphic"
            assert sym_power_automorphic(b, n, ledger) == (verdict, reason), (typ, n)


def test_self_twist_from_type():
    for typ in TYPES:
        ledger, b = untagged_base(typ)
        ledger.declare_character("nu")
        for n in range(1, 13):
            c = Constituent(sym_cusp(b, n))
            twisted = c.twisted(CharWord.gen("nu"))
            verdict = VERDICT[SELF_TWIST[typ][n - 1]]
            if verdict is None:
                reason = f"equiv({c}, {twisted}) (potential self-twist)"
            else:
                reason = f"{c} admits no self-twist for its declared type"
            assert ledger.equivalent(c, twisted) == (verdict, reason), (typ, n)
            assert ledger.equivalent(c, c) == (True, "structural equality")


# -- the auxiliary sum -------------------------------------------------------


def test_auxiliary_shape():
    ledger, p, _ = standard_icosahedral_pair()
    aux = build_auxiliary(5, p, CHI, ledger)
    assert aux.degree == 10  # 1 + 6 + 3
    assert len(aux.terms) == 3


@pytest.mark.parametrize("m", [0, 1, 2])
def test_auxiliary_rejects_small_m(m):
    ledger, p, _ = standard_icosahedral_pair()
    with pytest.raises(ValueError):
        build_auxiliary(m, p, CHI, ledger)


def test_auxiliary_requires_hypotheses():
    ledger = FactLedger()
    p = ledger.declare_base("p", "general")
    with pytest.raises(MissingHypothesisError) as exc:
        build_auxiliary(7, p, CHI, ledger)
    assert any("sym^7" in msg for msg in exc.value.missing)


def test_auxiliary_rejects_non_cuspidal_power():
    # sym^6 of the tagged base visibly decomposes, so the hypothesis fails
    ledger, p, _ = standard_icosahedral_pair()
    with pytest.raises(MissingHypothesisError) as exc:
        build_auxiliary(6, p, CHI, ledger)
    assert any("reducible" in msg for msg in exc.value.missing)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_square_expansion_standard_base(m):
    ledger, p, _ = standard_icosahedral_pair()
    fact = expand_aux_square(m, p, CHI, ledger)
    assert fact.k == 4 and fact.r == 3
    assert fact.total_degree == (m + 5) ** 2
    kinds = sorted(f.kind for f in fact.factors)
    assert kinds == ["pair", "pair", "single", "single", "single", "single", "zeta"]
    exponents = {(f.kind, f.parts): f.exponent for f in fact.factors}
    assert str(fact.target) == f"sym^{m}(pi)*chi"
    assert exponents["single", (fact.target,)] == 4


@pytest.mark.parametrize("m", [7, 9, 11])
def test_square_expansion_declared_hypotheses(m):
    ledger, p = general_base_with_hypotheses(m)
    fact = expand_aux_square(m, p, CHI, ledger)
    assert fact.k == 4 and fact.r == 3
    assert fact.total_degree == (m + 5) ** 2


def test_square_expansion_checks_each_hypothesis_once(monkeypatch):
    # build_auxiliary asks for sym^(m+2) and sym^(m-2); the factors carry no
    # reasons of their own, so nothing asks again
    import icosym.siegel

    asked = []

    def counting(p, n, ledger):
        asked.append(n)
        return sym_power_automorphic(p, n, ledger)

    monkeypatch.setattr(icosym.siegel, "sym_power_automorphic", counting)
    ledger, p, _ = standard_icosahedral_pair()
    fact = expand_aux_square(5, p, CHI, ledger)
    assert asked == [7, 3]
    assert type(fact.factors[0]).__slots__ == ("kind", "parts", "exponent")


def test_square_expansion_m3_factor_list():
    # the low boundary: sym^(m-2) collapses to the base itself
    ledger, p, _ = standard_icosahedral_pair()
    fact = expand_aux_square(3, p, CHI, ledger)
    singles = {str(f.parts[0]): f.exponent for f in fact.factors if f.kind == "single"}
    assert singles["sym^5(pi)*chi*omega(pi)^-1"] == 2
    assert singles["pi*chi*omega(pi)"] == 2
    assert singles["sym^2(pi)*omega(pi)^-1"] == 2


@pytest.mark.parametrize("m", [3, 4, 5])
def test_galois_accounting(m):
    acc = galois_square_accounting(m)
    assert acc["k"] == 4 and acc["r"] == 3
    assert (
        acc["target_multiplicity_in_square"]
        == 4 + acc["target_multiplicity_in_residual_factors"]
    )


# -- the rule table ----------------------------------------------------------


def test_rule_table_is_total():
    assert all(r.passed for r in verify_rule_table())
    assert sorted(g.row for g in GENERATORS) == sorted(
        ["U", "V", "W", "X1", "X2", "W'", "W''", "X'", "X''"]
    )
    assert {g.rule for g in GENERATORS} == set(RULES)
    for rule in RULES.values():
        assert rule.citations


# -- reports -----------------------------------------------------------------


@pytest.mark.parametrize("m", range(12))
def test_no_exceptional_case_below_twelve(m):
    assert siegel_report(m).verdict == "no-siegel-zero"


@pytest.mark.parametrize("m", [3, 4, 5])
def test_report_carries_k_and_r(m):
    rep = siegel_report(m)
    assert rep.k == 4 and rep.r == 3
    assert "auxiliary-expansion" in rep.citations


def test_report_m7_constituents():
    rep = siegel_report(7)
    labels = {c.label for c in rep.constituents}
    assert labels == {"twist of sym^5(pi)", "twist of pi_tau"}
    assert rep.verdict == "no-siegel-zero"


def test_report_m12_exceptional():
    rep = siegel_report(12)
    assert rep.verdict == "exceptional-case"
    assert rep.exceptional_character == "chi*omega(pi)^6"
    assert rep.exceptional_character_alt == "omega(pi)^(12/2)*chi^(13)"
    flagged = [c for c in rep.constituents if c.exceptional]
    assert len(flagged) == 1 and flagged[0].row == "U"
    assert "at most one exceptional zero" in rep.notes


def test_exceptional_character_is_central_power():
    for rep in FULL_SCAN:
        if rep.verdict != "exceptional-case":
            continue
        assert rep.m % 2 == 0
        expected = CharWord.gen("omega(pi)", rep.m // 2) * CHI
        assert rep.exceptional_character == str(expected)


def test_scan_matches_trivial_constituent_scan():
    scan = scan_trivial(30)
    for rep in FULL_SCAN[1:]:
        expected = "exceptional-case" if scan.get(rep.m) else "no-siegel-zero"
        assert rep.verdict == expected, rep.m
    assert {rep.m for rep in FULL_SCAN if rep.verdict == "exceptional-case"} \
        == {12, 20, 24, 30}


def test_declared_non_real_character_unflags():
    ledger = FactLedger()  # the report takes the default pi and chi
    q_word = CharWord.gen("omega(pi)", 6) * CHI
    ledger.declare_word_kind(q_word, "non-real")
    rep = siegel_report(12, ledger=ledger)
    assert rep.verdict == "no-siegel-zero"
    assert any("cannot be excluded" not in c.detail for c in rep.constituents)


def test_declared_non_self_dual_short_circuits():
    ledger, p, _ = standard_icosahedral_pair()
    ledger.declare_self_dual(Constituent(SymCusp(p, 5), CHI), False)
    rep = siegel_report(5, p, CHI, ledger)
    assert rep.verdict == "no-siegel-zero"
    assert rep.citations == ("non-self-dual",)
    assert not rep.constituents


def test_m0_flags_only_declared_real_characters():
    assert siegel_report(0).verdict == "no-siegel-zero"
    ledger = FactLedger()
    ledger.declare_character("chi", kind="quadratic")
    rep = siegel_report(0, ledger=ledger)
    assert rep.verdict == "exceptional-case"
    assert rep.exceptional_character == "chi"


@pytest.mark.parametrize(
    "order, verdict, kind",
    [(1, "exceptional-case", "trivial"), (2, "exceptional-case", "quadratic"),
     (3, "no-siegel-zero", "cubic"), (4, "no-siegel-zero", "non-real")],
)
def test_m0_reads_the_kind_off_an_order_alone(order, verdict, kind):
    """Landau's case: a character is exceptional exactly when it is real,
    and an order says whether it is, with no kind declared beside it."""
    ledger = load_facts({"characters": [{"name": "chi", "order": order}]})
    rep = siegel_report(0, ledger=ledger)
    assert rep.verdict == verdict
    assert [c.detail for c in rep.constituents] == [f"character kind: {kind}"]


def test_report_rejects_bad_inputs():
    with pytest.raises(ValueError):
        siegel_report(-1)
    ledger = FactLedger()
    p = ledger.declare_base("p", "general")
    with pytest.raises(ValueError):
        siegel_report(3, p, CHI, ledger)
    with pytest.raises(ValueError):
        siegel_scan(5, 3)


def test_report_takes_p_and_ledger_each_alone():
    """A base without a ledger is read against an empty one; a ledger
    without a base gives its tagged base, or else the default pi."""
    ledger, p, _ = standard_icosahedral_pair()
    tagged = FactLedger()
    tagged.declare_base("pi", "icosahedral", galois_row="X'")
    default = siegel_report(12)
    for rep in (
        siegel_report(12, p),
        siegel_report(12, ledger=tagged),
        siegel_report(12, ledger=FactLedger()),
        siegel_scan(12, 12, p)[0],
        siegel_scan(12, 12, ledger=tagged)[0],
    ):
        assert (str(rep), rep.as_json()) == (str(default), default.as_json())


def test_an_undeclared_base_names_its_own_central_character():
    rep = siegel_report(12, BaseCusp("g", "icosahedral", galois_row="X'"))
    assert rep.exceptional_character == "chi*omega(g)^6"
    assert "Q = chi*omega(g)^6; alternative normalization omega(g)^(12/2)*chi^(13)" in str(rep)


def test_report_checks_the_base_before_the_ledger():
    ledger = FactLedger()
    ledger.declare_base("g_tau", "general")  # would clash with g's partner
    for build in (conjugate_pair, lambda ledger, p: siegel_report(12, p, None, ledger)):
        with pytest.raises(ValueError, match="finite-image tag"):
            build(ledger, BaseCusp("g", "icosahedral"))
        with pytest.raises(ValueError, match="icosahedral type"):
            build(ledger, BaseCusp("g", "general", galois_row="X'"))


# a ledger's declarations: every table that a declare_* or assert_* call writes
DECLARATION_TABLES = (
    "characters", "bases", "base_changes", "_rows", "_facts", "_cuspidal", "_automorphic",
    "_self_dual",
)


def test_a_scan_over_a_ledger_without_a_tagged_base_writes_nothing():
    ledger = load_facts({
        "characters": [{"name": "nu", "order": 4}],
        "bases": [{"name": "rho", "type": "icosahedral"}],
        "facts": [{"lhs": "Ad(rho)", "rhs": "Ad(rho)*nu^2", "relation": "equiv", "truth": False}],
        "word_kinds": [{"word": "chi*omega(pi)^6", "kind": "non-real"}],
    })
    before = {name: getattr(ledger, name).copy() for name in DECLARATION_TABLES}, dict(ledger._apart)
    reports = siegel_scan(0, 30, ledger=ledger)
    assert ({name: getattr(ledger, name) for name in DECLARATION_TABLES}, ledger._apart) == before
    # the report is on the default pi and chi, and reads the ledger's word kind
    assert reports[12].target == "sym^12(pi)*chi"
    assert reports[12].verdict == "no-siegel-zero" != siegel_report(12).verdict


def tagged_base():
    ledger = FactLedger()
    return ledger, ledger.declare_base("f", "icosahedral", galois_row="X'")


def test_galois_partner_is_a_value_when_the_ledger_has_none():
    ledger, f = tagged_base()
    rep = siegel_report(7, f, None, ledger)
    assert {c.label for c in rep.constituents} == {"twist of sym^5(f)", "twist of f_tau"}
    assert rep.verdict == "no-siegel-zero"
    assert list(ledger.bases) == ["f"]


def test_checks_and_reports_take_one_pair():
    ledger, p, p_tau = standard_icosahedral_pair()
    context = icosym.siegel._standard_scan_context()
    assert (p, p_tau) == conjugate_pair(FactLedger()) == (context.p, context.p_tau)
    assert (p, p_tau) == (
        BaseCusp("pi", "icosahedral", galois_row="X'"),
        BaseCusp("pi_tau", "icosahedral", omega="omega(pi)", galois_row="X''"),
    )
    assert ledger.bases == {} and ledger.characters == set()  # built as values


def test_the_partner_of_a_base_tagged_x2_is_tagged_x1_with_its_central_character():
    ledger = FactLedger()
    h = ledger.declare_base("h", "icosahedral", omega="w", galois_row="X''")
    partner = BaseCusp("h_tau", "icosahedral", omega="w", galois_row="X'")
    assert conjugate_pair(ledger) == conjugate_pair(ledger, h) == (h, partner)
    assert list(ledger.bases) == ["h"]


def test_a_declared_partner_is_returned_as_it_is():
    ledger, f = tagged_base()
    g = ledger.declare_base("g", "icosahedral", omega="w", galois_row="X''")
    for p, p_tau in (conjugate_pair(ledger, f), conjugate_pair(ledger, g)[::-1]):
        assert p is f and p_tau is g


def test_galois_partner_is_the_ledger_base_with_the_other_row():
    ledger, f = tagged_base()
    g = ledger.declare_base("g", "icosahedral", galois_row="X''")
    ledger.assert_equiv(Constituent(f), Constituent(g), False)
    (x2,) = [c for c in siegel_report(6, f, None, ledger).constituents if c.row == "X2"]
    assert x2.detail.endswith("declared: f ~ g is False")


def test_a_true_equivalence_of_the_pair_is_refused():
    ledger, f = tagged_base()
    g = ledger.declare_base("g", "icosahedral", galois_row="X''")
    ledger.declare_character("chi")
    rows = "finite-image restrictions differ: [\"X'\"] vs [\"X''\"]"
    for rhs in (Constituent(g), Constituent(g, CharWord.gen("chi"))):
        with pytest.raises(LedgerError) as err:
            ledger.assert_equiv(Constituent(f), rhs, True)
        assert str(err.value) == f"f ~ {rhs} cannot be declared true: {rows}"
    # the refused facts left nothing behind: the X2 row stays certified
    rep = siegel_report(6, f, None, ledger)
    (x2,) = [c for c in rep.constituents if c.row == "X2"]
    assert (rep.verdict, x2.covered) == ("no-siegel-zero", True)
    assert x2.detail == f"the pair is neither dihedral nor twist-equivalent: {rows}"
    ledger.assert_equiv(Constituent(f), Constituent(g), False)
    assert ledger.equivalent(Constituent(f), Constituent(g)) == (False, "declared: f ~ g is False")


def test_family_labels_name_the_bases_of_the_report():
    ledger, f = tagged_base()
    g = ledger.declare_base("g", "icosahedral", galois_row="X''")
    labels = [label for label, _, _ in icosahedral_family(f, g)]
    assert labels == [
        "1", "f", "g", "sym^2(f)", "sym^2(g)", "sym^3(f)", "box(f, g)", "sym^4(f)", "sym^5(f)"
    ]
    rep = siegel_report(12, f, None, ledger)
    assert [c.label for c in rep.constituents] == [
        "chi*omega(f)^6", "twist of sym^4(f)", "twist of box(f, g)", "twist of sym^2(f)"
    ]
    standard = [c.label for c in siegel_report(12).constituents]
    assert standard == [
        "chi*omega(pi)^6", "twist of sym^4(pi)", "twist of box(pi, pi_tau)", "twist of sym^2(pi)"
    ]


@pytest.mark.parametrize("kind", ["base", "character"])
def test_galois_partner_name_clash_is_refused(kind):
    ledger, f = tagged_base()
    if kind == "base":
        ledger.declare_base("f_tau", "icosahedral", galois_row="X'")
    else:
        ledger.declare_character("f_tau", order=2)
    before = (dict(ledger.bases), set(ledger.characters))
    message = f"f_tau, the Galois partner of f, is declared as a {kind}"
    with pytest.raises(LedgerError, match=message):
        siegel_report(12, f, None, ledger)
    with pytest.raises(LedgerError, match=message):
        conjugate_pair(ledger, f)
    assert (ledger.bases, ledger.characters) == before


def test_alternative_normalization_follows_omega_and_the_twist():
    ledger, p, _ = standard_icosahedral_pair()
    for chi, alt in (
        (CharWord.gen("nu"), "omega(pi)^(12/2)*nu^(13)"),
        (CharWord.of({"chi": 1, "nu": 1}), "omega(pi)^(12/2)*(chi*nu)^(13)"),
        (CharWord.gen("chi", 2), "omega(pi)^(12/2)*(chi^2)^(13)"),
    ):
        assert siegel_report(12, p, chi, ledger).exceptional_character_alt == alt
    ledger, f = tagged_base()
    ledger.declare_base("h", "icosahedral", omega="w", galois_row="X''")
    rep = siegel_report(12, ledger.bases["h"], None, ledger)
    assert rep.exceptional_character_alt == "w^(12/2)*chi^(13)"


def test_scan_is_fully_covered():
    for rep in FULL_SCAN:
        assert rep.verdict != "not-covered"


def test_report_json_shape():
    rep = siegel_report(12)
    doc = rep.as_json()
    assert doc["verdict"] == "exceptional-case"
    assert doc["m"] == 12
    assert doc["exceptional_character"] == "chi*omega(pi)^6"
    assert all("rule" in c for c in doc["constituents"])
    text = str(rep)
    assert "exceptional-case" in text and "Q = chi*omega(pi)^6" in text
