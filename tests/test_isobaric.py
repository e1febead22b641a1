"""Tests for the formal isobaric calculus and the cuspidality routes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosym.chartab import CharacterTable, NotACharacterError, default_table
from icosym.isobaric import (
    BaseCusp,
    BoxCusp,
    CharWord,
    Constituent,
    FactLedger,
    InducedCusp,
    IsobaricExpr,
    LedgerError,
    PoleOrder,
    SymCusp,
    TRIVIAL,
    a4,
    ad,
    box_cusp,
    character,
    decide_cuspidality,
    decide_cuspidality_via_poles,
    dual_constituent,
    dual_expr,
    galois_pole_check,
    icosahedral_family,
    pole_order,
    pole_order_pair,
    rs_expand,
    standard_icosahedral_pair,
    sym_cusp,
)

IRREP_NAMES = ("U", "V", "W", "X1", "X2", "W'", "W''", "X'", "X''")


def fresh(typ1="icosahedral", typ2="icosahedral"):
    ledger = FactLedger()
    p = ledger.declare_base("p", typ1)
    q = ledger.declare_base("q", typ2)
    return ledger, p, q


# -- character words ---------------------------------------------------------


def test_char_word_algebra():
    chi = CharWord.gen("chi")
    omega = CharWord.gen("omega")
    w = chi * omega ** -2
    assert str(w) == "chi*omega^-2"
    assert w * w.inv() == CharWord()
    assert (w**3).word == (("chi", 3), ("omega", -6))
    assert CharWord.of({"a": 0}) == CharWord()


def test_char_word_reduce():
    eta = CharWord.gen("eta", 5)
    assert eta.reduce({"eta": 3}) == CharWord.gen("eta", 2)
    assert CharWord.gen("eta", 3).reduce({"eta": 3}).is_empty()
    assert CharWord.gen("chi", 7).reduce({"eta": 3}) == CharWord.gen("chi", 7)


def test_char_is_trivial():
    ledger = FactLedger()
    ledger.declare_character("eta", order=3, kind="cubic")
    ledger.declare_character("chi")
    assert ledger.char_is_trivial(CharWord.gen("eta", 3))
    assert not ledger.char_is_trivial(CharWord.gen("eta", 2))
    assert not ledger.char_is_trivial(CharWord.gen("chi"))
    assert ledger.char_is_trivial(CharWord())


def test_character_declared_after_queries_is_seen():
    ledger, p, _ = fresh()
    nu2 = CharWord.gen("nu", 2)
    twisted = ad(p).twisted(nu2)
    assert ledger.word_kind(nu2) is None
    assert ledger.equivalent(ad(p), twisted)[0] is False
    ledger.declare_character("nu", order=2)
    assert ledger.word_kind(nu2) == "trivial"
    assert ledger.char_is_trivial(nu2)
    assert ledger.equivalent(ad(p), twisted) == (True, "structural equality")


# -- constituents, duals -----------------------------------------------------


def test_sym_cusp_collapses():
    _, p, _ = fresh()
    assert sym_cusp(p, 0) is None
    assert sym_cusp(p, 1) is p
    assert isinstance(sym_cusp(p, 4), SymCusp)
    with pytest.raises(ValueError):
        sym_cusp(p, -1)


def test_box_is_commutative():
    _, p, q = fresh()
    assert box_cusp(p, q) == box_cusp(q, p)


def test_ad_is_self_dual():
    _, p, _ = fresh()
    assert dual_constituent(ad(p)) == ad(p)


def test_dual_involution():
    ledger, p, q = fresh()
    samples = [
        Constituent(p),
        Constituent(SymCusp(p, 3), CharWord.gen("chi", 2)),
        Constituent(box_cusp(p, SymCusp(q, 2)), CharWord.gen("chi", -1)),
        character(CharWord.gen("chi")),
        Constituent(InducedCusp("K", "chi0")),
        Constituent(InducedCusp("K", "chi0", self_dual=True)),
    ]
    for c in samples:
        assert dual_constituent(dual_constituent(c)) == c


def test_dual_of_base_twists_by_central_inverse():
    _, p, _ = fresh()
    d = dual_constituent(Constituent(p))
    assert d == Constituent(p, CharWord.gen(p.omega, -1))


# -- box products ------------------------------------------------------------


def test_pi_box_dual_pi():
    _, p, _ = fresh()
    e = rs_expand(
        IsobaricExpr.single(Constituent(p)),
        IsobaricExpr.single(dual_constituent(Constituent(p))),
    )
    assert e == IsobaricExpr.of([(TRIVIAL, 1), (ad(p), 1)])


def test_ad_box_ad():
    ledger, p, _ = fresh()
    e = rs_expand(IsobaricExpr.single(ad(p)), IsobaricExpr.single(ad(p)))
    expected = (
        IsobaricExpr.single(TRIVIAL)
        + IsobaricExpr.single(ad(p))
        + a4(p, ledger)
    )
    assert e == expected
    assert e.degree == 9


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_sym_box_ad_three_terms(m):
    _, p, _ = fresh()
    omega = CharWord.gen(p.omega)
    e = rs_expand(
        IsobaricExpr.single(Constituent(SymCusp(p, m))),
        IsobaricExpr.single(ad(p)),
    )
    expected = IsobaricExpr.of(
        [
            (Constituent(SymCusp(p, m + 2), omega**-1), 1),
            (Constituent(SymCusp(p, m)), 1),
            (Constituent(sym_cusp(p, m - 2), omega), 1),
        ]
    )
    assert e == expected


def test_cross_base_product_stays_formal():
    _, p, q = fresh()
    e = rs_expand(
        IsobaricExpr.single(Constituent(p)), IsobaricExpr.single(Constituent(q))
    )
    assert e == IsobaricExpr.single(Constituent(box_cusp(p, q)))
    assert e.degree == 4


def test_box_degree_bookkeeping():
    ledger, p, q = fresh()
    e1 = IsobaricExpr.single(Constituent(SymCusp(p, 3))) + IsobaricExpr.single(
        character(CharWord.gen("chi")), 2
    )
    e2 = a4(q, ledger) + IsobaricExpr.single(Constituent(q))
    assert rs_expand(e1, e2).degree == e1.degree * e2.degree


def test_box_products_match_finite_model():
    ledger, p, p_tau = standard_icosahedral_pair()
    tab = default_table()
    checks = [
        (
            IsobaricExpr.single(Constituent(p)),
            IsobaricExpr.single(dual_constituent(Constituent(p))),
        ),
        (IsobaricExpr.single(ad(p)), IsobaricExpr.single(ad(p))),
        (IsobaricExpr.single(Constituent(p)), IsobaricExpr.single(Constituent(p_tau))),
    ]
    for m in (3, 4, 5):
        checks.append(
            (
                IsobaricExpr.single(Constituent(SymCusp(p, m))),
                IsobaricExpr.single(ad(p)),
            )
        )
    for e1, e2 in checks:
        lhs = ledger.galois_restriction(rs_expand(e1, e2))
        rhs = ledger.galois_restriction(e1) * ledger.galois_restriction(e2)
        assert lhs == rhs
        tab.decompose(lhs)  # must be a genuine character


# -- pole bookkeeping --------------------------------------------------------


def test_pole_order_distinct_terms():
    ledger, p, _ = fresh()
    e = (
        IsobaricExpr.single(TRIVIAL)
        + IsobaricExpr.single(ad(p))
        + a4(p, ledger)
    )
    po = pole_order(e, ledger)
    assert po.exact and po.value() == 3


def test_pole_order_with_multiplicity():
    ledger, p, _ = fresh()
    e = IsobaricExpr.single(Constituent(p), 2) + IsobaricExpr.single(TRIVIAL)
    po = pole_order(e, ledger)
    assert po.exact and po.value() == 5


def test_pole_order_undetermined_interval():
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    q = ledger.declare_base("q", "icosahedral")
    e = IsobaricExpr.single(ad(p)) + IsobaricExpr.single(ad(q))
    po = pole_order(e, ledger)
    assert (po.lo, po.hi) == (2, 4)
    assert not po.exact
    assert po.missing
    with pytest.raises(LedgerError):
        po.value()
    ledger.assert_equiv(ad(p), ad(q), True)
    assert pole_order(e, ledger).value() == 4
    ledger2 = FactLedger()
    p2 = ledger2.declare_base("p", "icosahedral")
    q2 = ledger2.declare_base("q", "icosahedral")
    ledger2.assert_equiv(ad(p2), ad(q2), False)
    assert pole_order(e, ledger2).value() == 2


def test_pole_order_resolved_by_finite_model():
    ledger, p, p_tau = standard_icosahedral_pair()
    e = IsobaricExpr.single(ad(p)) + IsobaricExpr.single(ad(p_tau))
    po = pole_order(e, ledger)
    assert po.exact and po.value() == 2


def test_pole_order_decomposes_each_tagged_core_once(monkeypatch):
    calls = []
    decompose = CharacterTable.decompose

    def counting(self, f):
        calls.append(f)
        return decompose(self, f)

    monkeypatch.setattr(CharacterTable, "decompose", counting)
    ledger, p, p_tau = standard_icosahedral_pair()
    terms = [
        ad(p),
        ad(p_tau),
        Constituent(p),
        Constituent(p_tau),
        Constituent(SymCusp(p, 3)),
        Constituent(box_cusp(p, p_tau)),
    ]
    twisted = ad(p).twisted(CharWord.gen("chi"))
    e = IsobaricExpr.of([(c, 1) for c in terms + [twisted]])
    orders = {str(pole_order(e, ledger)) for _ in range(5)}
    assert len(orders) == 1
    assert calls
    assert len(calls) <= len({c.core for c in terms})
    assert len(calls) == len(set(calls))


def test_pole_order_pair_counts_multiplicity():
    ledger, p, _ = fresh()
    e = IsobaricExpr.single(ad(p), 3) + IsobaricExpr.single(TRIVIAL)
    po = pole_order_pair(e, ad(p), ledger)
    assert po.exact and po.value() == 3
    po0 = pole_order_pair(e, Constituent(p), ledger)
    assert po0.exact and po0.value() == 0


# pairwise references: every comparison through the public ``equivalent``
def reference_pole_order(e, ledger):
    classes = []
    for c, m in e.terms:
        for i, (rep, total) in enumerate(classes):
            if ledger.equivalent(c, rep)[0] is True:
                classes[i] = (rep, total + m)
                break
        else:
            classes.append((c, m))
    missing = []
    parent = list(range(len(classes)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            verdict, reason = ledger.equivalent(classes[i][0], classes[j][0])
            if verdict is None:
                missing.append(reason)
                parent[find(i)] = find(j)
    merged = {}
    for i, (_, total) in enumerate(classes):
        merged[find(i)] = merged.get(find(i), 0) + total
    return PoleOrder(
        sum(t * t for _, t in classes),
        sum(t * t for t in merged.values()),
        tuple(dict.fromkeys(missing)),
    )


def reference_pole_order_pair(e, tau, ledger):
    lo = hi = 0
    missing = []
    for c, m in e.terms:
        verdict, reason = ledger.equivalent(c, tau)
        lo += m if verdict is True else 0
        hi += m if verdict is not False else 0
        if verdict is None:
            missing.append(reason)
    return PoleOrder(lo, hi, tuple(dict.fromkeys(missing)))


def generated_ledger():
    ledger = FactLedger()
    for name, order in (("chi", 2), ("psi", 3), ("nu", None)):
        ledger.declare_character(name, order=order)
    ledger.declare_base("a", "icosahedral", galois_row="X'")
    ledger.declare_base("b", "icosahedral", galois_row="X''")
    for name, typ in (("c", "icosahedral"), ("t", "tetrahedral"), ("o", "octahedral")):
        ledger.declare_base(name, typ)
    ledger.declare_base("d", "dihedral", dihedral_field="E", dihedral_char="xi")
    ledger.declare_base("g", "abstract")
    return ledger


_BASES = st.sampled_from(list(generated_ledger().bases.values()))
_WORDS = st.dictionaries(
    st.sampled_from(["chi", "psi", "nu", "xi", "omega(a)", "omega(c)", "omega(t)"]),
    st.integers(-3, 3),
    max_size=2,
).map(CharWord.of)
_CONSTITUENTS = st.builds(
    Constituent,
    st.one_of(
        st.none(),
        _BASES,
        st.builds(SymCusp, _BASES, st.integers(2, 3)),
        st.builds(box_cusp, _BASES, _BASES),
    ),
    _WORDS,
)
# extra twists, some of which reduce away modulo the declared orders
_EXTRA = st.sampled_from(
    [CharWord(), CharWord.gen("chi", 2), CharWord.gen("psi", -3), CharWord.gen("chi")]
)


@st.composite
def ledgers_and_sums(draw):
    """A ledger with random facts over a small pool of constituents, a sum
    of pool members twisted further, and a pool member as pair target."""
    ledger = generated_ledger()
    pool = draw(st.lists(_CONSTITUENTS, min_size=1, max_size=6))
    member = st.integers(0, len(pool) - 1)
    for i, j, truth in draw(st.lists(st.tuples(member, member, st.booleans()), max_size=5)):
        try:
            ledger.assert_equiv(pool[i], pool[j], truth)
        except LedgerError:
            pass  # contradicts an earlier draw
    terms = draw(st.lists(st.tuples(member, _EXTRA, st.integers(1, 3)), max_size=9))
    e = IsobaricExpr.of((pool[i].twisted(w), m) for i, w, m in terms)
    return ledger, e, pool[draw(member)]


@settings(max_examples=150, deadline=None)
@given(ledgers_and_sums())
def test_pole_order_matches_the_pairwise_reference(case):
    ledger, e, tau = case
    assert pole_order(e, ledger) == reference_pole_order(e, ledger)
    assert pole_order_pair(e, tau, ledger) == reference_pole_order_pair(e, tau, ledger)


def test_pole_order_reduces_each_term_once(monkeypatch):
    calls = []
    canon = FactLedger._canon

    def counting(self, c):
        calls.append(c)
        return canon(self, c)

    ledger, p, q = fresh()
    ledger.declare_character("chi", order=2)
    chi = CharWord.gen("chi")
    terms = [
        ad(p),
        ad(p).twisted(chi**2),  # merges with ad(p) after reduction
        ad(q),  # undetermined against ad(p)
        ad(q).twisted(chi),
        Constituent(SymCusp(p, 3)),
        TRIVIAL,
        character(chi**3),
    ]
    e = IsobaricExpr.of([(c, 1) for c in terms])
    monkeypatch.setattr(FactLedger, "_canon", counting)
    po = pole_order(e, ledger)
    assert (po.lo, po.hi) == (9, 19) and len(po.missing) == 2
    assert len(calls) <= len(e.terms)
    calls.clear()
    pole_order_pair(e, ad(q), ledger)
    assert len(calls) <= len(e.terms) + 1


def test_contradictory_facts_rejected():
    ledger, p, q = fresh()
    ledger.assert_equiv(ad(p), ad(q), True)
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(ad(p), ad(q), False)
    # the message names the symbols as they print, not as dataclass reprs
    assert "sym^2(p)*omega(p)^-1" in str(err.value)
    assert "SymCusp" not in str(err.value)


def test_a_base_and_a_character_with_one_name_are_distinct():
    ledger = FactLedger()
    base = Constituent(ledger.declare_base("chi", "icosahedral"))
    word = character(CharWord.gen("chi"))
    assert str(base) == str(word)
    assert ledger.equivalent(base, word) == (False, "degrees differ (2 vs 1)")
    po = pole_order(IsobaricExpr.of([(base, 1), (word, 1)]), ledger)
    assert po.exact and po.value() == 2


def test_facts_are_keyed_by_symbol_not_by_text():
    ledger, p, q = fresh()
    stranger = BaseCusp("p", "general")  # prints as p, but is another base
    ledger.assert_equiv(ad(p), ad(q), True)
    assert ledger.declared(ad(q), ad(p)) is True
    assert ledger.declared(ad(stranger), ad(q)) is None
    ledger.declare_cuspidal(SymCusp(p, 5), False)
    assert ledger.cuspidal_declared(SymCusp(p, 5)) is False
    assert ledger.cuspidal_declared(SymCusp(stranger, 5)) is None


def test_self_dual_is_matched_modulo_declared_orders():
    ledger, p, _ = fresh()
    ledger.declare_character("chi", order=2)
    chi = CharWord.gen("chi")
    ledger.declare_self_dual(Constituent(SymCusp(p, 3), chi**3), False)
    assert ledger.self_dual_declared(Constituent(SymCusp(p, 3), chi)) is False
    assert ledger.self_dual_declared(Constituent(SymCusp(p, 3))) is None
    assert ledger.self_dual_declared(Constituent(SymCusp(p, 4), chi)) is None


@pytest.mark.parametrize(
    "first,second",
    [
        (("character", "chi"), ("base", "chi")),
        (("base", "chi"), ("character", "chi")),
        (("base", "pi"), ("base", "omega(pi)")),
        (("base", "omega(pi)"), ("base", "pi")),
        (("base", "eta(t)"), ("tetrahedral", "t")),
        (("base", "mu(o)"), ("octahedral", "o")),
        (("character", "mu(o)"), ("base", "mu(o)")),
    ],
)
def test_a_name_is_a_base_or_a_character_not_both(first, second):
    ledger = FactLedger()

    def declare(kind, name):
        if kind == "character":
            ledger.declare_character(name)
        else:
            ledger.declare_base(name, "icosahedral" if kind == "base" else kind)

    declare(*first)
    with pytest.raises(LedgerError, match="declared as a"):
        declare(*second)


@pytest.mark.parametrize(
    "taken,refused",
    [
        (("character", "pi"), ("pi", "tetrahedral", {})),
        (("character", "pi"), ("pi", "octahedral", {})),
        (("base", "pi"), ("pi", "tetrahedral", {})),
        (("base", "x"), ("o", "octahedral", {"omega": "x"})),
        (None, ("t", "tetrahedral", {"omega": "k", "cubic_char": "k"})),
        (None, ("d", "dihedral", {"dihedral_field": "E", "dihedral_char": "d"})),
    ],
)
def test_a_refused_base_declares_no_characters(taken, refused):
    ledger = FactLedger()
    ledger.declare_character("chi", order=2)
    if taken is not None:
        kind, other = taken
        if kind == "character":
            ledger.declare_character(other)
        else:
            ledger.declare_base(other, "icosahedral")
    before = (list(ledger.characters.items()), dict(ledger._orders), dict(ledger.bases))
    name, typ, tags = refused
    with pytest.raises(LedgerError):
        ledger.declare_base(name, typ, **tags)
    assert (list(ledger.characters.items()), ledger._orders, ledger.bases) == before


def test_a_base_whose_central_character_is_its_own_name_is_refused():
    with pytest.raises(LedgerError, match="declared as a character"):
        FactLedger().declare_base("pi", "general", omega="pi")


# -- the finite-model pole check ---------------------------------------------


@pytest.mark.parametrize("name", IRREP_NAMES)
def test_pole_check_on_irreducible_rows(name):
    tab = default_table()
    assert galois_pole_check(tab.row(name), tab) == 1


def test_pole_check_random_multisets():
    tab = default_table()
    rng = random.Random(20260819)
    for _ in range(50):
        coeffs = {name: rng.randrange(0, 4) for name in IRREP_NAMES}
        if not any(coeffs.values()):
            coeffs["V"] = 1
        f = tab.trivial() * 0
        for name, c in coeffs.items():
            f = f + c * tab.row(name)
        assert galois_pole_check(f, tab) == sum(c * c for c in coeffs.values())


def test_pole_check_rejects_non_characters():
    tab = default_table()
    not_char = tab.row("U") + tab.row("V") * -1
    with pytest.raises(NotACharacterError):
        galois_pole_check(not_char, tab)


# -- the degree-5 lift -------------------------------------------------------


def test_lift_tetrahedral_splits():
    ledger = FactLedger()
    p = ledger.declare_base("p", "tetrahedral")
    e = a4(p, ledger)
    assert e.degree == 5
    chars = [c for c, _ in e.terms if c.core is None]
    assert len(chars) == 2
    eta = CharWord.gen(p.cubic_char)
    assert {c.twist for c in chars} == {eta, eta**2}
    assert not any(ledger.char_is_trivial(c.twist) for c in chars)
    assert (ad(p), 1) in e.terms


def test_lift_octahedral_splits():
    ledger = FactLedger()
    p = ledger.declare_base("p", "octahedral")
    e = a4(p, ledger)
    assert e.degree == 5
    mu = CharWord.gen(p.quadratic_char)
    assert (ad(p).twisted(mu), 1) in e.terms
    induced = [c for c, _ in e.terms if isinstance(c.core, InducedCusp)]
    assert len(induced) == 1 and induced[0].core.self_dual


@pytest.mark.parametrize("typ", ["icosahedral", "general"])
def test_lift_stays_cuspidal(typ):
    ledger = FactLedger()
    p = ledger.declare_base("p", typ)
    e = a4(p, ledger)
    assert len(e.terms) == 1
    (c, m), = e.terms
    assert m == 1 and c.core == SymCusp(p, 4)
    assert c.twist == CharWord.gen(p.omega, -2)


def test_lift_rejects_dihedral_and_abstract():
    ledger = FactLedger()
    d = ledger.declare_base("d", "dihedral", dihedral_field="K", dihedral_char="chi")
    with pytest.raises(ValueError):
        a4(d, ledger)
    ab = ledger.declare_base("ab", "abstract")
    with pytest.raises(LedgerError):
        a4(ab, ledger)


# -- cuspidality: both routes ------------------------------------------------


def both_routes(p, q, ledger):
    v1 = decide_cuspidality(p, q, ledger)
    v2 = decide_cuspidality_via_poles(p, q, ledger)
    assert v1.verdict == v2.verdict
    return v1, v2


@pytest.mark.parametrize("typ1", ["tetrahedral", "octahedral", "icosahedral", "general"])
@pytest.mark.parametrize("typ2", ["tetrahedral", "icosahedral", "general"])
@pytest.mark.parametrize("same_adjoint", [True, False])
def test_matrix_non_octahedral_partner(typ1, typ2, same_adjoint):
    ledger, p, q = fresh(typ1, typ2)
    ledger.assert_equiv(ad(p), ad(q), same_adjoint)
    v1, v2 = both_routes(p, q, ledger)
    assert v1.verdict == ("not-cuspidal" if same_adjoint else "cuspidal")
    expected_pole = {
        ("tetrahedral", True): 3,  # the lift repeats the shared adjoint
        ("tetrahedral", False): 1,
        ("icosahedral", True): 2,
        ("icosahedral", False): 1,
        ("general", True): 2,
        ("general", False): 1,
    }[(typ2, same_adjoint)]
    assert v2.pole.value() == expected_pole


@pytest.mark.parametrize("typ1", ["tetrahedral", "octahedral", "icosahedral", "general"])
@pytest.mark.parametrize("facts", [(False, False), (True, False), (False, True)])
def test_matrix_octahedral_partner(typ1, facts):
    ad_eq, mu_eq = facts
    ledger, p, q = fresh(typ1, "octahedral")
    mu = CharWord.gen(q.quadratic_char)
    ledger.assert_equiv(ad(p), ad(q), ad_eq)
    ledger.assert_equiv(ad(p), ad(q).twisted(mu), mu_eq)
    v1, v2 = both_routes(p, q, ledger)
    if ad_eq or mu_eq:
        assert v1.verdict == "not-cuspidal"
        assert v2.pole.value() == 2
    else:
        assert v1.verdict == "cuspidal"
        assert v2.pole.value() == 1


def test_octahedral_partner_contradiction():
    ledger, p, q = fresh("icosahedral", "octahedral")
    mu = CharWord.gen(q.quadratic_char)
    ledger.assert_equiv(ad(p), ad(q), True)
    ledger.assert_equiv(ad(p), ad(q).twisted(mu), True)
    with pytest.raises(LedgerError):
        decide_cuspidality(p, q, ledger)


def test_undetermined_without_facts():
    ledger, p, q = fresh("icosahedral", "tetrahedral")
    v1 = decide_cuspidality(p, q, ledger)
    v2 = decide_cuspidality_via_poles(p, q, ledger)
    assert v1.verdict == v2.verdict == "undetermined"
    assert v1.missing and v2.missing


def test_dihedral_partner_never_cuspidal():
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    q = ledger.declare_base(
        "q", "dihedral", dihedral_field="K", dihedral_char="chi"
    )
    v = decide_cuspidality(p, q, ledger)
    assert v.verdict == "not-cuspidal"
    with pytest.raises(ValueError):
        decide_cuspidality_via_poles(p, q, ledger)


def test_dihedral_base_needs_base_change():
    ledger = FactLedger()
    p = ledger.declare_base(
        "p", "dihedral", dihedral_field="K", dihedral_char="chi"
    )
    q = ledger.declare_base("q", "icosahedral")
    v = decide_cuspidality(p, q, ledger)
    assert v.verdict == "undetermined"
    assert any("base change" in msg for msg in v.missing)


def test_dihedral_base_change_dihedral():
    ledger = FactLedger()
    p = ledger.declare_base(
        "p", "dihedral", dihedral_field="K", dihedral_char="chi"
    )
    q = ledger.declare_base("q", "icosahedral")
    ledger.declare_base_change(q, "K", "q_K", "dihedral")
    assert decide_cuspidality(p, q, ledger).verdict == "not-cuspidal"


@pytest.mark.parametrize(
    "self_twist,expected",
    [(True, "not-cuspidal"), (False, "cuspidal"), (None, "undetermined")],
)
def test_dihedral_base_change_tetrahedral(self_twist, expected):
    ledger = FactLedger()
    p = ledger.declare_base(
        "p", "dihedral", dihedral_field="K", dihedral_char="chi"
    )
    q = ledger.declare_base("q", "icosahedral")
    bc = ledger.declare_base_change(q, "K", "q_K", "tetrahedral")
    if self_twist is not None:
        ledger.declare_character("chi@theta")
        twist = CharWord.of({"chi": -1, "chi@theta": 1})
        lhs = Constituent(SymCusp(bc, 2))
        ledger.assert_twist_equiv(lhs, lhs, twist, self_twist)
    assert decide_cuspidality(p, q, ledger).verdict == expected


def test_dihedral_base_change_without_self_twist_capacity():
    # a base change of icosahedral type cannot carry the conjugation
    # self-twist, so no fact is needed: the product is cuspidal
    ledger = FactLedger()
    p = ledger.declare_base(
        "p", "dihedral", dihedral_field="K", dihedral_char="chi"
    )
    q = ledger.declare_base("q", "icosahedral")
    ledger.declare_base_change(q, "K", "q_K", "icosahedral")
    v = decide_cuspidality(p, q, ledger)
    assert v.verdict == "cuspidal"


@pytest.mark.parametrize("bc_type", ["dihedral", "tetrahedral", "icosahedral", None])
def test_a_dihedral_decision_leaves_the_characters_unchanged(bc_type):
    ledger = FactLedger()
    p = ledger.declare_base("p", "dihedral", dihedral_field="K", dihedral_char="chi")
    q = ledger.declare_base("q", "icosahedral")
    if bc_type is not None:
        ledger.declare_base_change(q, "K", "q_K", bc_type)
    before = dict(ledger.characters)
    assert "chi@theta" in before  # reserved when p was declared
    decide_cuspidality(p, q, ledger)
    decide_cuspidality(q, p, ledger)
    assert ledger.characters == before


def test_flagship_conjugate_pair_is_cuspidal():
    # the two tagged bases restrict to the two 2-dimensional rows; their
    # adjoints restrict to the two distinct 3-dimensional rows, which
    # settles the adjoint comparison without any declared fact
    ledger, p, p_tau = standard_icosahedral_pair()
    v1, v2 = both_routes(p, p_tau, ledger)
    assert v1.verdict == "cuspidal"
    assert v2.pole.value() == 1
    assert not v1.missing
    v3, v4 = both_routes(p_tau, p, ledger)
    assert v3.verdict == "cuspidal"
    assert v4.pole.value() == 1


def test_family_hits_every_row_once():
    ledger, p, p_tau = standard_icosahedral_pair()
    fam = icosahedral_family(ledger, p, p_tau)
    assert [row for _, _, row in fam] == [
        "U", "X'", "X''", "W'", "W''", "X1", "X2", "V", "W",
    ]
    degrees = [c.degree for _, c, _ in fam]
    assert degrees == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert sum(d * d for d in degrees) == 120
