"""Tests for the formal isobaric calculus and the cuspidality routes."""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icosym import MAX_POWER
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
    dual,
    galois_pole_check,
    galois_restriction,
    icosahedral_family,
    pole_order,
    pole_order_pair,
    rs_expand,
    standard_icosahedral_pair,
    sym_cusp,
    sym_power_cuspidal,
)
from icosym.isobaric import _reduced, _text, _with
from icosym.factsfile import FactsError, load_facts
from icosym.rules import BASE_TYPES, TYPE_RULES
from icosym.siegel import siegel_report, siegel_scan

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
    w = chi * CharWord.gen("omega", -2)
    assert str(w) == "chi*omega^-2"
    assert w * w ** -1 == CharWord()
    assert (w * w * w).word == (("chi", 3), ("omega", -6))
    assert CharWord.of({"a": 0}) == CharWord()


def test_char_word_reduce():
    rows = _with({}, CharWord.gen("eta", 3))
    assert _reduced(rows, CharWord.gen("eta", 5)) == CharWord.gen("eta", 2)
    assert _reduced(rows, CharWord.gen("eta", 3)).is_empty()
    assert _reduced(rows, CharWord.gen("chi", 7)) == CharWord.gen("chi", 7)


def test_a_relation_that_is_not_diagonal_reduces_its_first_generator():
    """c ~ d^2 with d of order 4: the lattice has a row at c, of exponent 1,
    and one at d, of exponent 4, so each word reduces to a power of d below 4."""
    rows = _with(_with({}, CharWord.gen("d", 4)), CharWord.of({"c": 1, "d": -2}))
    assert {pivot: row.word[0] for pivot, row in rows.items()} == {"c": ("c", 1), "d": ("d", 4)}
    assert _reduced(rows, CharWord.gen("c", 3)) == CharWord.gen("d", 2)
    assert _reduced(rows, CharWord.of({"c": 1, "d": 2})).is_empty()
    # the same lattice, its relations given in another order and spelling, and
    # in another echelon form, reduces each word alike
    other = _with(_with({}, CharWord.of({"c": 1, "d": 2})), CharWord.gen("d", -4))
    words = [CharWord.of({"c": c, "d": d}) for c in range(-3, 4) for d in range(-5, 6)]
    assert [_reduced(other, w) for w in words] == [_reduced(rows, w) for w in words]
    lone = _with(_with({}, CharWord.of({"c": 2, "d": -4})), CharWord.of({"c": -1, "d": 2}))
    assert [_reduced(lone, w) for w in words] == [
        _reduced(_with({}, CharWord.of({"c": 1, "d": -2})), w) for w in words]


def test_char_word_of_a_dict_or_pairs():
    # a dict reads as name -> exponent, any other iterable as pairs
    word = CharWord.of({"omega": -2, "chi": 1})
    assert CharWord.of((("omega", -1), ("chi", 1), ("omega", -1))) == word
    assert CharWord.of([("chi", 1), ("omega", -2)]) == word


def test_a_reduced_word_and_constituent_are_returned_as_they_are():
    ledger, p, _ = fresh()
    ledger.declare_character("eta", order=3)
    word = CharWord.of({"eta": 2, "chi": -5})
    assert _reduced(ledger._chars.rows, word) is word
    c = Constituent(SymCusp(p, 3), word)
    assert ledger._canon(c) is c
    assert ledger._canon(TRIVIAL) is TRIVIAL
    unreduced = Constituent(SymCusp(p, 3), CharWord.of({"eta": 5, "chi": -5}))
    assert ledger._canon(unreduced) == c and ledger._canon(unreduced) is not unreduced


def is_trivial(ledger: FactLedger, word: CharWord) -> bool | None:
    return ledger.equivalent(character(word), TRIVIAL)[0]


def test_char_is_trivial():
    ledger = FactLedger()
    ledger.declare_character("eta", order=3, kind="cubic")
    ledger.declare_character("chi")
    assert is_trivial(ledger, CharWord.gen("eta", 3))
    assert not is_trivial(ledger, CharWord.gen("eta", 2))
    assert not is_trivial(ledger, CharWord.gen("chi"))
    assert is_trivial(ledger, CharWord())


def test_character_declared_after_queries_is_seen():
    ledger, p, _ = fresh()
    nu2 = CharWord.gen("nu", 2)
    twisted = ad(p).twisted(nu2)
    assert ledger.word_kind(nu2) is None
    assert ledger.equivalent(ad(p), twisted)[0] is False
    ledger.declare_character("nu", order=2)
    assert ledger.word_kind(nu2) == "trivial"
    assert is_trivial(ledger, nu2)
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


# -- box products ------------------------------------------------------------


def test_pi_box_dual_pi():
    _, p, _ = fresh()
    e = rs_expand(
        IsobaricExpr.single(Constituent(p)),
        IsobaricExpr.single(Constituent(p, CharWord.gen(p.omega, -1))),
    )
    assert e == IsobaricExpr.of([(TRIVIAL, 1), (ad(p), 1)])


def test_ad_box_ad():
    _, p, _ = fresh()
    e = rs_expand(IsobaricExpr.single(ad(p)), IsobaricExpr.single(ad(p)))
    expected = IsobaricExpr.of([(TRIVIAL, 1), (ad(p), 1), *a4(p).terms])
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
            (Constituent(SymCusp(p, m + 2), omega ** -1), 1),
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
    _, p, q = fresh()
    e1 = IsobaricExpr.of(
        [(Constituent(SymCusp(p, 3)), 1), (character(CharWord.gen("chi")), 2)]
    )
    e2 = IsobaricExpr.of([*a4(q).terms, (Constituent(q), 1)])
    assert rs_expand(e1, e2).degree == e1.degree * e2.degree


def test_box_products_match_finite_model():
    _, p, p_tau = standard_icosahedral_pair()
    tab = default_table()
    checks = [
        (
            IsobaricExpr.single(Constituent(p)),
            IsobaricExpr.single(Constituent(p, CharWord.gen(p.omega, -1))),
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
        lhs = galois_restriction(rs_expand(e1, e2))
        rhs = galois_restriction(e1) * galois_restriction(e2)
        assert lhs == rhs
        tab.decompose(lhs)  # must be a genuine character


def test_an_induced_symbol_prints_its_field_and_character():
    induced = InducedCusp("E", "xi")
    assert str(induced) == "Ind[E](xi)"
    assert str(Constituent(induced, CharWord.gen("chi"))) == "Ind[E](xi)*chi"


# -- pole bookkeeping --------------------------------------------------------


def test_pole_order_distinct_terms():
    ledger, p, _ = fresh()
    e = IsobaricExpr.of([(TRIVIAL, 1), (ad(p), 1), *a4(p).terms])
    po = pole_order(e, ledger)
    assert po.exact and po.value() == 3


def test_pole_order_with_multiplicity():
    ledger, p, _ = fresh()
    e = IsobaricExpr.of([(Constituent(p), 2), (TRIVIAL, 1)])
    po = pole_order(e, ledger)
    assert po.exact and po.value() == 5


def test_pole_order_undetermined_interval():
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    q = ledger.declare_base("q", "icosahedral")
    e = IsobaricExpr.of([(ad(p), 1), (ad(q), 1)])
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
    e = IsobaricExpr.of([(ad(p), 1), (ad(p_tau), 1)])
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
    e = IsobaricExpr.of([(ad(p), 3), (TRIVIAL, 1)])
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


def generated_ledger(partner_row="X''"):
    """Seven bases of every type; ``a`` is tagged X', and ``b`` is its
    tagged partner unless *partner_row* is None."""
    ledger = FactLedger()
    for name, order in (("chi", 2), ("psi", 3), ("nu", None)):
        ledger.declare_character(name, order=order)
    ledger.declare_base("a", "icosahedral", galois_row="X'")
    ledger.declare_base("b", "icosahedral", galois_row=partner_row)
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
def ledgers_and_sums(draw, partner_row="X''"):
    """A ledger with random facts over a small pool of constituents, a sum
    of pool members twisted further, and a pool member as pair target."""
    ledger = generated_ledger(partner_row)
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


# both cuspidality routes as written with text reasons: every comparison
# through ``equivalent``, every pairing through ``reference_pole_order_pair``


def reference_structural(p, q, ledger):
    """(verdict, pole, witnesses, missing) of the structural route."""
    checks = []
    if p.typ == "abstract":
        return "undetermined", None, (), (f"declare the type of {p.name}",)
    if p.typ == "dihedral":
        ext = p.dihedral_field
        bc = ledger.base_change(q, ext)
        if bc is None:
            return "undetermined", None, (), (f"declare the base change of {q.name} to {ext}",)
        if bc.typ == "dihedral":
            return "not-cuspidal", None, (f"{bc.name} (base change to {ext}) is dihedral",), ()
        if bc.typ == "abstract":
            return "undetermined", None, (), (f"declare the type of the base change {bc.name}",)
        chi, sym2 = p.dihedral_char, Constituent(SymCusp(bc, 2))
        mackey = CharWord.of({chi: -1, f"{chi}@theta": 1})
        checks.append(ledger.equivalent(sym2, sym2.twisted(mackey)))
    elif q.typ == "abstract":
        return "undetermined", None, (), (f"declare the type of {q.name}",)
    elif q.typ == "dihedral":
        return "not-cuspidal", None, (f"sym^2({q.name}) is not cuspidal (dihedral)",), ()
    else:
        checks.append(ledger.equivalent(ad(p), ad(q)))
        if q.typ == "octahedral":
            mu = CharWord.gen(q.quadratic_char)
            checks.append(ledger.equivalent(ad(p), ad(q).twisted(mu)))
            if checks[0][0] is True and checks[1][0] is True:
                return ("LedgerError",)
    held = [reason for verdict, reason in checks if verdict is True]
    if held:
        return "not-cuspidal", None, tuple(held[:1]), ()
    missing = tuple(reason for verdict, reason in checks if verdict is None)
    if missing:
        return "undetermined", None, (), missing
    return "cuspidal", None, tuple(reason for _, reason in checks), ()


def reference_lift(q):
    if q.typ == "tetrahedral":
        eta, eta2 = CharWord.gen(q.cubic_char), CharWord.gen(q.cubic_char, 2)
        return IsobaricExpr.of([(ad(q), 1), (character(eta), 1), (character(eta2), 1)])
    if q.typ == "octahedral":
        mu = CharWord.gen(q.quadratic_char)
        induced = Constituent(InducedCusp(q.induced_field, q.induced_char))
        return IsobaricExpr.of([(ad(q).twisted(mu), 1), (induced, 1)])
    return IsobaricExpr.of([(Constituent(SymCusp(q, 4), CharWord.of({q.omega: -2})), 1)])


def reference_poles(p, q, ledger):
    """(verdict, pole, witnesses, missing) of the pole-counting route."""
    for base in (p, q):
        if base.typ == "dihedral":
            return ("ValueError",)
        if base.typ == "abstract":
            return "undetermined", None, (), (f"declare the type of {base.name}",)
    lift, pair = reference_lift(q), reference_pole_order_pair
    factors = [
        ("zeta factor", PoleOrder(1, 1)),
        (f"L(Ad {p.name})", pair(IsobaricExpr.of([(ad(p), 1)]), TRIVIAL, ledger)),
        (f"L(Ad {q.name})", pair(IsobaricExpr.of([(ad(q), 1)]), TRIVIAL, ledger)),
        (f"L(deg-5 lift of {q.name})", pair(lift, TRIVIAL, ledger)),
        (f"L(Ad {p.name} x Ad {q.name})", pair(IsobaricExpr.of([(ad(q), 1)]), ad(p), ledger)),
        (f"L(Ad {p.name} x deg-5 lift)", pair(lift, ad(p), ledger)),
    ]
    pole = PoleOrder(
        sum(po.lo for _, po in factors),
        sum(po.hi for _, po in factors),
        tuple(dict.fromkeys(m for _, po in factors for m in po.missing)),
    )
    if pole.lo == 1 < pole.hi:
        return "undetermined", pole, (), pole.missing
    witnesses = tuple(f"{label} contributes {po}" for label, po in factors)
    return "cuspidal" if pole.lo == 1 else "not-cuspidal", pole, witnesses, ()


def shown(decide, p, q, ledger):
    """A decision as it is shown, or the name of the error that refuses it."""
    try:
        v = decide(p, q, ledger)
    except ValueError as err:
        return (type(err).__name__,)
    return v.verdict, v.pole, v.texts("witnesses"), v.texts("missing")


@st.composite
def decisions(draw):
    """A generated ledger with random facts, a drawn pair of its bases, maybe
    a base change of the partner to the dihedral base's field, and facts,
    maybe, on each equivalence a route asks about."""
    ledger, _, _ = draw(ledgers_and_sums())
    names = st.sampled_from(sorted(ledger.bases))
    p, q = ledger.bases[draw(names)], ledger.bases[draw(names)]
    asked = [(ad(p), ad(q))]
    if q.typ == "octahedral":
        asked.append((ad(p), ad(q).twisted(CharWord.gen(q.quadratic_char))))
    bc_type = draw(st.sampled_from([None, *BASE_TYPES]))
    if bc_type is not None:
        sym2 = Constituent(SymCusp(ledger.declare_base_change(q, "E", "qE", bc_type), 2))
        asked.append((sym2, sym2.twisted(CharWord.of({"xi": -1, "xi@theta": 1}))))
    for lhs, rhs in asked:
        truth = draw(st.sampled_from([None, True, False]))
        if truth is not None:
            with contextlib.suppress(LedgerError):  # refused where a mismatch decides
                ledger.assert_equiv(lhs, rhs, truth)
    return ledger, p, q


@settings(max_examples=200, deadline=None)
@given(decisions())
def test_both_routes_show_the_reasons_of_a_text_reference(case):
    ledger, p, q = case
    assert shown(decide_cuspidality, p, q, ledger) == reference_structural(p, q, ledger)
    assert shown(decide_cuspidality_via_poles, p, q, ledger) == reference_poles(p, q, ledger)


_STATE = ("characters", "bases", "base_changes", "_cuspidal", "_automorphic")


def union_find(ledger):
    """The links, class records (each lattice as its rows, words and owner)
    and declared facts by the roots they concern of the ledger's
    union-find, as values."""
    return dict(ledger._links), {
        root: (tuple(r.members), dict(r.lattice.rows), dict(r.lattice.apart), r.lattice.owner)
        for root, r in ledger._classes.items()}, {
        roots: tuple(facts) for roots, facts in ledger._facts.items()}


def ledger_state(ledger):
    return ({name: getattr(ledger, name).copy() for name in _STATE}, lattice(ledger),
            union_find(ledger))


def lattice(ledger):
    """R and D, to compare before and after a refusal."""
    return dict(ledger._chars.rows), dict(ledger._chars.apart)


@settings(max_examples=100, deadline=None)
@example(name="chi", exp=0, c=TRIVIAL)
@given(name=st.sampled_from(["chi", "nu", "omega(a)"]), exp=st.integers(-6, 6), c=_CONSTITUENTS)
def test_one_factor_constructors_build_what_the_merging_ones_do(name, exp, c):
    """gen and single build a one-factor word and a one-term sum directly,
    and build the values, with the same hashes, that ``of`` builds."""
    word = CharWord.gen(name, exp)
    assert word == CharWord.of({name: exp}) and hash(word) == hash(CharWord.of({name: exp}))
    assert word.is_empty() == (exp == 0)
    assert IsobaricExpr.single(c) == IsobaricExpr.of([(c, 1)])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["X''", None]).flatmap(ledgers_and_sums),
    st.lists(st.sampled_from(list(generated_ledger().bases)), min_size=2, max_size=2),
    st.integers(0, 14),
    st.one_of(st.none(), _WORDS),
)
def test_queries_leave_the_ledger_unchanged(case, pair, m, chi):
    """Every query reads its ledger only; tagged icosahedral bases with and
    without a partner in the ledger are both covered."""
    ledger, e, tau = case
    p, q = (ledger.bases[name] for name in pair)
    tagged = [b for b in ledger.bases.values() if b.galois_row is not None]
    queries = [
        lambda: [ledger.equivalent(c, tau) for c, _ in e.terms],
        lambda: pole_order(e, ledger),
        lambda: pole_order_pair(e, tau, ledger),
        lambda: decide_cuspidality(p, q, ledger),
        lambda: decide_cuspidality_via_poles(p, q, ledger),
    ]
    for base in tagged:
        queries.append(lambda base=base: siegel_report(m, base, chi, ledger))
        queries.append(lambda base=base: siegel_scan(m, m + 2, base, chi, ledger))
    before = ledger_state(ledger)
    for query in queries:
        try:
            query()
        except ValueError:
            pass  # a refused query (LedgerError is a ValueError) must not write either
        assert ledger_state(ledger) == before


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
        ad(p).twisted(CharWord.gen("chi", 2)),  # merges with ad(p) after reduction
        ad(q),  # undetermined against ad(p)
        ad(q).twisted(chi),
        Constituent(SymCusp(p, 3)),
        TRIVIAL,
        character(CharWord.gen("chi", 3)),
    ]
    e = IsobaricExpr.of([(c, 1) for c in terms])
    monkeypatch.setattr(FactLedger, "_canon", counting)
    po = pole_order(e, ledger)
    assert (po.lo, po.hi) == (9, 19) and len(po.missing) == 2
    assert len(calls) <= len(e.terms)
    calls.clear()
    pole_order_pair(e, ad(q), ledger)
    assert len(calls) <= len(e.terms) + 1


def test_pole_order_resolves_only_pairs_of_one_degree(monkeypatch):
    """A pair of two degrees is False, which neither merges nor widens, so
    pole_order skips it, as pole_order_pair does, and reads what comparing
    every pair reads, a false fact between two degrees included."""
    degrees = []
    resolve = FactLedger._resolve

    def counting(self, k1, k2):
        degrees.append((k1.degree, k2.degree))
        return resolve(self, k1, k2)

    ledger, p, q = fresh()
    chi = CharWord.gen("chi")
    ledger.declare_character("chi", order=2)
    ledger.assert_equiv(ad(p), Constituent(SymCusp(q, 3)), False)
    e = IsobaricExpr.of([(c, 1) for c in (
        ad(p), ad(q), ad(q).twisted(chi), Constituent(SymCusp(p, 3)), Constituent(SymCusp(q, 3)),
        Constituent(q), TRIVIAL, character(chi))])
    monkeypatch.setattr(FactLedger, "_resolve", counting)
    po = pole_order(e, ledger)
    assert degrees and all(d1 == d2 for d1, d2 in degrees)
    monkeypatch.undo()
    assert po == reference_pole_order(e, ledger) == PoleOrder(8, 16, po.missing)


def test_contradictory_facts_rejected():
    ledger, p, q = fresh()
    ledger.assert_equiv(ad(p), ad(q), True)
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(ad(p), ad(q), False)
    # the message names the symbols as they print, not as dataclass reprs
    assert "sym^2(p)*omega(p)^-1" in str(err.value)
    assert "SymCusp" not in str(err.value)


def test_a_true_fact_between_different_degrees_is_refused():
    ledger, p, q = fresh()
    cubic = Constituent(SymCusp(q, 3))
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(ad(p), cubic, True)
    assert str(err.value) == (
        "sym^2(p)*omega(p)^-1 ~ sym^3(q) cannot be declared true: degrees differ (3 vs 4)"
    )
    assert ledger.equivalent(ad(p), cubic) == (False, "degrees differ (3 vs 4)")
    ledger.assert_equiv(ad(p), cubic, False)  # the false fact is consistent
    assert ledger.equivalent(ad(p), cubic)[0] is False


@pytest.mark.parametrize(
    "declare,lhs,rhs,message",
    [
        (
            {"name": "nu", "kind": "non-real"}, CharWord.gen("nu"), CharWord.gen("nu", -1),
            "nu ~ nu^-1 cannot be declared true: then nu^2 would be 1, but nu is non-real",
        ),
        (
            {"name": "nu", "kind": "non-real"}, CharWord.gen("nu", 2), CharWord(),
            "nu^2 ~ 1 cannot be declared true: then nu^2 would be 1, but nu is non-real",
        ),
        (
            {"name": "c", "order": 5}, CharWord.gen("c"), CharWord.gen("c", -1),
            "c ~ c^4 cannot be declared true: then c would be 1, but c has order 5",
        ),
    ],
    ids=["non-real-inverse", "non-real-square", "order-5-inverse"],
)
def test_a_true_fact_between_characters_whose_quotient_is_not_1_is_refused(
    declare, lhs, rhs, message
):
    ledger = FactLedger()
    ledger.declare_character(**declare)
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(character(lhs), character(rhs), True)
    assert str(err.value) == message
    # nothing was recorded, so the ledger still tells the two apart
    assert ledger.equivalent(character(lhs), character(rhs))[0] is False
    ledger.assert_equiv(character(lhs), character(rhs), False)


def test_a_true_fact_between_characters_whose_quotient_may_be_1_is_kept():
    ledger = FactLedger()
    ledger.declare_character("nu", kind="non-real")
    ledger.declare_character("z")
    nu, z = CharWord.gen("nu"), CharWord.gen("z")
    # z may be quadratic, and a non-real nu may have order 4
    ledger.assert_equiv(character(z), character(z ** -1), True)
    ledger.assert_equiv(character(nu), character(CharWord.gen("nu", -3)), True)
    assert ledger.equivalent(character(z), character(z ** -1))[0] is True
    assert ledger.equivalent(character(nu), character(CharWord.gen("nu", -3)))[0] is True


# -- one list of what no fact can change: assert_equiv reads _forced -----------

# bases of every type; "f" restricts to the finite model
_TYPED_BASES = (
    ("d", "dihedral", {"dihedral_field": "E", "dihedral_char": "xi"}),
    ("t", "tetrahedral", {}), ("o", "octahedral", {}), ("i", "icosahedral", {}),
    ("f", "icosahedral", {"galois_row": "X'"}), ("g", "general", {}), ("a", "abstract", {}),
)
_CHAR_INFOS = ({"order": 2}, {"order": 3}, {"order": 5}, {"kind": "quadratic"},
               {"kind": "cubic"}, {"kind": "non-real"}, {})
_SPEC_WORDS = st.dictionaries(
    st.sampled_from(["c0", "c1", "c2", "eta(t)", "mu(o)"]),
    st.integers(-2, 2).filter(bool),
    max_size=2,
)
# a core as (base, n), None for a character
_SPEC_CORES = st.sampled_from(
    [None, ("t", 2), ("o", 2), ("o", 3), ("i", 1), ("i", 3), ("f", 2), ("g", 2), ("g", 4),
     ("d", 2), ("a", 2)]
)


@st.composite
def ledger_specs(draw):
    """Characters c0..c2 with drawn orders or kinds, one drawn word kind, a
    pool of twists of at most two cores, and up to two facts between them."""
    infos = draw(st.lists(st.sampled_from(_CHAR_INFOS), min_size=3, max_size=3))
    cores = draw(st.lists(_SPEC_CORES, min_size=1, max_size=2))
    pool = draw(st.lists(st.tuples(st.sampled_from(cores), _SPEC_WORDS), min_size=1, max_size=4))
    index = st.integers(0, len(pool) - 1)
    return {
        "characters": {f"c{k}": info for k, info in enumerate(infos)},
        "word_kind": draw(st.tuples(_SPEC_WORDS, st.sampled_from(
            ["trivial", "quadratic", "cubic", "non-real"]))),
        "pool": pool,
        "facts": draw(st.lists(st.tuples(index, index, st.booleans()), max_size=2)),
    }


def build_spec(spec):
    """The ledger a spec declares, and its pool of constituents."""
    ledger = FactLedger()
    for name, info in spec["characters"].items():
        ledger.declare_character(name, **info)
    bases = {name: ledger.declare_base(name, typ, **tags) for name, typ, tags in _TYPED_BASES}
    pool = [Constituent(None if core is None else sym_cusp(bases[core[0]], core[1]),
                        CharWord.of(word)) for core, word in spec["pool"]]
    if spec["word_kind"] is not None:
        word, kind = spec["word_kind"]
        with contextlib.suppress(LedgerError):  # a kind its generators force otherwise
            ledger.declare_word_kind(CharWord.of(word), kind)
    for i, j, truth in spec["facts"]:
        with contextlib.suppress(LedgerError):
            ledger.assert_equiv(pool[i], pool[j], truth)
    return ledger, pool


def _refused(spec, a, b, truth):
    """How a fresh build of the spec refuses a ~ b, or None and the verdict after it."""
    ledger, _ = build_spec(spec)
    try:
        ledger.assert_equiv(a, b, truth)
    except LedgerError as err:
        return str(err), None
    return None, ledger.equivalent(a, b)[0]


# what a join, or R grown into a class's own lattice, refuses beyond a pairwise answer
_CLASS_REFUSALS = ("would be 1,", "would be a self-twist of", "would be in one class",
                   "would hold")


def _class_level(ledger, a, b, refusal):
    """Whether *refusal* of a ~ b true comes from the classes it would join,
    or from another class's lattice that the fact's quotient would grow
    through R, not from what is known between a and b."""
    (r1, _), (r2, _) = ledger._find(a.core), ledger._find(b.core)
    if r1 != r2:
        return any(form in refusal for form in _CLASS_REFUSALS)
    named = re.search(r"would be a self-twist of (\S+),", refusal)
    return named is not None and (r1 is None or named[1] != str(r1))


def _admits_no_self_twist(ledger, pool, core):
    """Whether a core of *core*'s class admits no self-twist by TYPE_RULES."""
    root = ledger._find(core)[0]
    members = {c.core for c in pool if c.core is not None and ledger._find(c.core)[0] == root}
    for member in members | {core}:
        base, n = (member, 1) if isinstance(member, BaseCusp) else (member.base, member.n)
        if not TYPE_RULES[base.typ][0](n):
            return True
    return False


@settings(max_examples=120, deadline=None)
@example({"characters": {"chi": {"order": 5}}, "word_kind": None,
          "pool": [(("i", 3), {}), (("i", 3), {"chi": 1})], "facts": []})
@given(ledger_specs())
def test_a_fact_is_refused_exactly_where_mismatch_names_a_reason(spec):
    """For every pair of the pool: a true fact is refused exactly where
    _known (the facts and _forced, not a generic default) says False, or
    where the classes it would join, or another class's lattice that its
    quotient would grow through R, hold a word known otherwise; a false one
    exactly where _known says True; and an accepted fact is what equivalent
    then answers.  Two twists of one core are kept apart as their characters are where a
    core of its class admits no self-twist by TYPE_RULES, and otherwise by
    the class's own words known not to be self-twists."""
    ledger, pool = build_spec(spec)
    for a, b in itertools.product(pool, repeat=2):
        known = ledger._known(ledger._canon(a), ledger._canon(b))
        known_false = known is not None and not known[0]
        refused_true, verdict = _refused(spec, a, b, True)
        if refused_true is None:
            assert not known_false, (a, b)
        else:
            assert known_false or _class_level(ledger, a, b, refused_true), (a, b, refused_true)
        assert refused_true or verdict is True
        refused, verdict = _refused(spec, a, b, False)
        assert (refused is not None) == (known is not None and known[0]), (a, b)
        assert refused or verdict is False
        if a.core is not None and a.core == b.core:
            apart = _refused(spec, character(a.twist), character(b.twist), True)[0]
            assert (refused_true is not None) == (
                apart is not None if _admits_no_self_twist(ledger, pool, a.core)
                else known_false), (a, b)


def test_an_impossible_self_twist_is_refused_and_keeps_the_pole_order():
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    ledger.declare_character("chi", order=5)
    cubic = Constituent(SymCusp(p, 3))
    twisted = cubic.twisted(CharWord.gen("chi"))
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(cubic, twisted, True)
    assert str(err.value) == (
        "sym^3(p) ~ sym^3(p)*chi cannot be declared true, as sym^3(p) admits no self-twist: "
        "then chi would be 1, but chi has order 5"
    )
    assert pole_order(IsobaricExpr.of([(cubic, 1), (twisted, 1)]), ledger) == PoleOrder(2, 2)
    # a twist not known to be 1 is accepted: the fact then says it is trivial
    undeclared = FactLedger()
    p = undeclared.declare_base("p", "icosahedral")
    undeclared.assert_equiv(cubic, twisted, True)
    assert undeclared.equivalent(cubic, twisted)[0] is True


@pytest.mark.parametrize(
    "info, symbol, truth, message",
    [
        ({}, CharWord(), False, "1 ~ 1 cannot be declared false: both sides reduce to 1"),
        ({"order": 2}, CharWord.gen("c"), False,
         "c ~ c^-1 cannot be declared false: both sides reduce to c"),
        ({"kind": "quadratic"}, CharWord.gen("c", 3), False,
         "c^3 ~ c^-3 cannot be declared false: both sides reduce to c"),
        ({"kind": "cubic"}, CharWord.gen("c"), True,
         "c ~ c^2 cannot be declared true: then c would be 1, but c has order 3"),
        ({"kind": "non-real"}, CharWord.gen("c"), True,
         "c ~ c^-1 cannot be declared true: then c^2 would be 1, but c is non-real"),
        ({"order": 5}, CharWord.gen("c", 2), True,
         "c^2 ~ c^3 cannot be declared true: then c would be 1, but c has order 5"),
    ],
    ids=["trivial", "order-2", "quadratic", "cubic", "non-real", "order-5"],
)
def test_a_character_self_duality_reads_the_same_rule(info, symbol, truth, message):
    ledger = FactLedger()
    ledger.declare_character("c", **info)
    with pytest.raises(LedgerError) as err:
        ledger.declare_self_dual(character(symbol), truth)
    assert str(err.value) == message
    assert ledger.self_dual_declared(character(symbol)) is (not truth)  # forced so
    ledger.declare_self_dual(character(symbol), not truth)  # the other truth is consistent


@pytest.mark.parametrize("first", ["fact", "self-dual"])
def test_a_character_self_duality_is_its_fact_with_its_inverse(first):
    """Declaring c self-dual asserts c ~ c^-1, and that fact is what
    self_dual_declared reads: the two contradict in either order."""
    ledger = FactLedger()
    c, inverse = character(CharWord.gen("c")), character(CharWord.gen("c", -1))
    steps = {"fact": lambda: ledger.assert_equiv(c, inverse, False),
             "self-dual": lambda: ledger.declare_self_dual(c, True)}
    steps[first]()
    assert ledger.self_dual_declared(c) is (first == "self-dual")
    assert ledger.equivalent(inverse, c)[0] is (first == "self-dual")
    (second,) = steps.keys() - {first}
    with pytest.raises(LedgerError) as err:
        steps[second]()
    assert str(err.value) == {
        "fact": "c ~ c^-1 cannot be declared true: then c^2 would be 1, but declared: "
                "c ~ c^-1 is False",
        "self-dual": "c ~ c^-1 cannot be declared false: both sides reduce to c",
    }[first]


@pytest.mark.parametrize("truth, order", [(None, 2), (False, 2), (True, 4)])
def test_a_pole_order_merges_a_self_dual_character_with_its_inverse(truth, order):
    """c + c^-1 is one class of multiplicity 2 once c is declared self-dual,
    and two classes otherwise."""
    ledger = FactLedger()
    c, inverse = character(CharWord.gen("c")), character(CharWord.gen("c", -1))
    if truth is not None:
        ledger.declare_self_dual(c, truth)
    assert pole_order(IsobaricExpr.of([(c, 1), (inverse, 1)]), ledger) == PoleOrder(order, order)


_A, _B = character(CharWord.gen("a")), character(CharWord.gen("b"))
_CD = character(CharWord.of({"c": 1, "d": 1}))


@pytest.mark.parametrize(
    "fact, word, kind, message",
    [
        ((_A, _B, True), CharWord.of({"a": 1, "b": -1}), "quadratic",
         "a*b^-1 cannot be declared quadratic: a*b^-1 is 1"),
        ((_CD, TRIVIAL, False), _CD.twist, "trivial",
         "c*d cannot be declared trivial: then c*d would be 1, but declared: c*d ~ 1 is False"),
    ],
    ids=["quadratic-against-true", "trivial-against-false"],
)
def test_a_word_kind_and_a_fact_it_contradicts_are_refused_in_either_order(
        fact, word, kind, message):
    """In process, as in a file: a word kind is checked against the facts
    already asserted, and a fact against the kinds already declared."""
    ledger = FactLedger()
    ledger.assert_equiv(*fact)
    before = lattice(ledger)
    with pytest.raises(LedgerError) as err:
        ledger.declare_word_kind(word, kind)
    assert str(err.value) == message
    assert lattice(ledger) == before  # a refusal leaves the ledger as it was
    other = FactLedger()
    other.declare_word_kind(word, kind)
    with pytest.raises(LedgerError):
        other.assert_equiv(*fact)


@pytest.mark.parametrize("generator", [CharWord.gen("c"), CharWord.gen("c", -1)])
@pytest.mark.parametrize("square", [CharWord.gen("c", 2), CharWord.gen("c", -2)])
def test_a_non_real_generator_and_its_square_equal_to_1_are_refused_in_either_order(
        generator, square):
    """g^2 is not 1 for g non-real, so the kind and the fact ``1 ~ g^2`` are
    refused together, whichever comes first, and the refused one is not
    kept.  The kind trivial for g^2 is the fact again: the same in the
    first ledger, refused in the second."""
    ledger = FactLedger()
    ledger.assert_equiv(TRIVIAL, character(square), True)
    with pytest.raises(LedgerError) as err:
        ledger.declare_word_kind(generator, "non-real")
    assert str(err.value) == f"{generator} cannot be declared non-real: {generator ** 2} is 1"
    assert ledger.word_kind(generator) is None
    assert ledger.equivalent(character(square), TRIVIAL)[0] is True
    other = FactLedger()
    other.declare_word_kind(generator, "non-real")
    with pytest.raises(LedgerError, match=re.escape(f"1 ~ {square} cannot be declared true")):
        other.assert_equiv(TRIVIAL, character(square), True)
    ledger.declare_word_kind(square, "trivial")
    with pytest.raises(LedgerError) as err:
        other.declare_word_kind(square, "trivial")
    assert str(err.value) == (f"{square} cannot be declared trivial: then {generator ** 2} "
                              f"would be 1, but {generator} is non-real")


@pytest.mark.parametrize("info, exp", [({}, 1), ({"kind": "non-real"}, 2)])
def test_a_character_that_may_be_its_inverse_takes_either_self_duality(info, exp):
    """c may be quadratic; a non-real c may have order 4, and c^2 then is."""
    for truth in (True, False):
        ledger = FactLedger()
        ledger.declare_character("c", **info)
        ledger.declare_self_dual(character(CharWord.gen("c", exp)), truth)
        assert ledger.self_dual_declared(character(CharWord.gen("c", exp))) is truth


def test_a_word_kind_outside_the_kinds_is_refused():
    ledger = FactLedger()
    with pytest.raises(LedgerError, match="word x: unknown kind 'real'"):
        ledger.declare_word_kind(CharWord.gen("x"), "real")
    assert ledger.word_kind(CharWord.gen("x")) is None


def test_a_true_fact_on_one_core_restricts_nothing(monkeypatch):
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral", galois_row="X'")
    restricted = []
    monkeypatch.setattr("icosym.isobaric._restrict", restricted.append)
    big = Constituent(SymCusp(p, 10**7))
    ledger.assert_equiv(big, big.twisted(CharWord.gen("chi")), True)
    ledger.assert_equiv(big, big, True)
    assert restricted == []


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
    stranger = BaseCusp("p", "abstract")  # prints as p, but is another base
    ledger.assert_equiv(ad(p), ad(q), True)
    assert ledger.equivalent(ad(q), ad(p))[0] is True
    assert ledger.equivalent(ad(stranger), ad(q))[0] is None
    ledger.declare_cuspidal(SymCusp(p, 6), False)
    assert ledger.cuspidal_declared(SymCusp(p, 6)) is False
    assert ledger.cuspidal_declared(SymCusp(stranger, 6)) is None


def test_self_dual_is_matched_modulo_declared_orders():
    ledger, p, _ = fresh()
    ledger.declare_character("chi", order=2)
    chi = CharWord.gen("chi")
    ledger.declare_self_dual(Constituent(SymCusp(p, 3), CharWord.gen("chi", 3)), False)
    assert ledger.self_dual_declared(Constituent(SymCusp(p, 3), chi)) is False
    # chi^2 is 1, so sym^3(p) and sym^3(p)*chi are self-dual alike: omega(p)^3 is not 1
    assert ledger.self_dual_declared(Constituent(SymCusp(p, 3))) is False
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
    before = (sorted(ledger.characters), lattice(ledger), dict(ledger.bases))
    name, typ, tags = refused
    with pytest.raises(LedgerError):
        ledger.declare_base(name, typ, **tags)
    assert (sorted(ledger.characters), lattice(ledger), ledger.bases) == before


def test_a_base_whose_central_character_is_its_own_name_is_refused():
    with pytest.raises(LedgerError, match="declared as a character"):
        FactLedger().declare_base("pi", "general", omega="pi")


@pytest.mark.parametrize("typ", ["dihedral", "tetrahedral", "octahedral", "general", "abstract"])
@pytest.mark.parametrize("row", ["X'", "X''"])
def test_a_galois_row_tags_only_an_icosahedral_base(typ, row):
    """A tag would outrank the type table: a tetrahedral base tagged X'
    would read sym^5 as cuspidal."""
    ledger = FactLedger()
    tags = {"dihedral_field": "E", "dihedral_char": "xi"} if typ == "dihedral" else {}
    with pytest.raises(LedgerError) as err:
        ledger.declare_base("t", typ, galois_row=row, **tags)
    assert str(err.value) == f"base t: galois_row tags only an icosahedral base, not {typ}"
    assert ledger.bases == {} and ledger.characters == set()
    assert ledger.declare_base("f", "icosahedral", galois_row=row).galois_row == row


def test_an_unknown_base_tag_is_refused():
    with pytest.raises(TypeError, match="BaseCusp takes the fields"):
        FactLedger().declare_base("pi", "general", colour="blue")


def redeclarations():
    """(declare, first, second, refusal) for the four declaration tables."""
    ledger = FactLedger()
    ledger.declare_character("chi", order=2)
    g = ledger.declare_base("g", "general")
    chi, chi3 = CharWord.gen("chi"), CharWord.gen("chi", 3)
    twisted = Constituent(SymCusp(g, 7), chi)
    return ledger, [
        (ledger.declare_cuspidal, (SymCusp(g, 7), True), (SymCusp(g, 7), False),
         "contradictory declarations of cuspidal for sym^7(g): True vs False"),
        (ledger.declare_automorphic, (SymCusp(g, 7), False), (SymCusp(g, 7), True),
         "contradictory declarations of automorphic for sym^7(g): False vs True"),
        # chi has order 2, so chi^3 is chi: the keys agree after _canon
        (ledger.declare_self_dual, (twisted, True), (Constituent(SymCusp(g, 7), chi3), False),
         "contradictory assertions for sym^7(g)*chi ~ sym^7(g)*chi*omega(g)^-7: True vs False"),
        (ledger.declare_word_kind, (chi * CharWord.gen("nu"), "quadratic"),
         (chi3 * CharWord.gen("nu"), "cubic"),
         "chi^3*nu cannot be declared cubic: then chi*nu would be 1, but chi*nu is "
         "quadratic"),
    ]


@pytest.mark.parametrize("i", range(4), ids=["cuspidal", "automorphic", "self_dual", "word_kind"])
def test_an_opposite_redeclaration_is_refused(i):
    ledger, cases = redeclarations()
    declare, first, second, message = cases[i]
    declare(*first)
    declare(*first)  # the same value again is accepted
    tables = (ledger._cuspidal, ledger._automorphic)
    before = [dict(t) for t in tables], lattice(ledger), union_find(ledger)
    with pytest.raises(LedgerError) as err:
        declare(*second)
    assert str(err.value) == message
    assert ([dict(t) for t in tables], lattice(ledger), union_find(ledger)) == before


@pytest.mark.parametrize(
    "typ,row,n,reason",
    [
        ("icosahedral", "X'", 5, "finite image: sym^5 restriction is irreducible"),
        ("icosahedral", None, 5, "finite image: sym^5 is irreducible on the binary icosahedral "
                                 "group, whose irreducibles have degree at most 6"),
        ("general", None, 7, "declared: sym^7(f) cuspidal is True"),
        ("general", None, 1, "f is cuspidal by assumption"),
    ],
    ids=["tagged-sym5", "untagged-sym5", "declared-sym7", "base"],
)
def test_a_cuspidal_core_cannot_be_declared_not_automorphic(typ, row, n, reason):
    ledger = FactLedger()
    f = ledger.declare_base("f", typ, galois_row=row)
    core = sym_cusp(f, n)
    if typ == "general" and n > 1:
        ledger.declare_cuspidal(core)
    with pytest.raises(LedgerError) as err:
        ledger.declare_automorphic(core, False)
    assert str(err.value) == f"{core} cannot be declared not automorphic: it is cuspidal ({reason})"
    assert ledger._automorphic == {}
    ledger.declare_automorphic(core, True)


def test_a_core_declared_not_automorphic_cannot_be_declared_cuspidal():
    ledger = FactLedger()
    g = ledger.declare_base("g", "general")
    h = ledger.declare_base("h", "general")
    for core in (SymCusp(g, 7), box_cusp(g, h)):
        ledger.declare_automorphic(core, False)
        with pytest.raises(LedgerError) as err:
            ledger.declare_cuspidal(core, True)
        assert str(err.value) == f"{core} cannot be declared cuspidal: it is declared not automorphic"
        ledger.declare_cuspidal(core, False)
    # a core declared cuspidal is refused as not automorphic, whatever its kind
    box = box_cusp(SymCusp(g, 2), h)
    ledger.declare_cuspidal(box)
    with pytest.raises(LedgerError, match="it is cuspidal"):
        ledger.declare_automorphic(box, False)


@pytest.mark.parametrize("fact_first", [True, False])
@pytest.mark.parametrize("first,second", [
    ("cuspidal", "not cuspidal"),
    ("automorphic", "not automorphic"),
    ("cuspidal", "not automorphic"),
    ("not automorphic", "cuspidal"),
])
def test_cuspidality_and_automorphy_agree_across_a_class(fact_first, first, second):
    """Twisting and equivalence keep both, so a fact joining two cores that
    disagree is refused, and so is a declaration that makes a core of a
    class disagree with another, in either order, naming both cores and
    leaving the ledger as it was."""
    ledger, p, q = fresh("general", "general")
    x, y = SymCusp(p, 7), SymCusp(q, 7)

    def declare(core, what):
        kind = what.split()[-1]
        getattr(ledger, f"declare_{kind}")(core, not what.startswith("not"))

    steps = [lambda: declare(x, first), lambda: declare(y, second),
             lambda: ledger.assert_equiv(Constituent(x), Constituent(y, CharWord.gen("chi")), True)]
    if fact_first:
        steps = steps[2:] + steps[:2]
    for step in steps[:2]:
        step()
    before = ledger_state(ledger)
    with pytest.raises(LedgerError) as err:
        steps[2]()
    assert "sym^7(p)" in str(err.value) and "sym^7(q)" in str(err.value)
    assert ("would be in one class" if not fact_first else "it is in one class") in str(err.value)
    assert ledger_state(ledger) == before


def test_class_agreement_leaves_undeclared_cores_per_core():
    """The refusals read the cores of a class, the answers each core alone:
    an undeclared core in the class of a cuspidal one stays undeclared."""
    ledger, p, q = fresh("general", "general")
    x, y = SymCusp(p, 7), SymCusp(q, 7)
    ledger.declare_cuspidal(x)
    ledger.assert_equiv(Constituent(x), Constituent(y), True)
    assert ledger.cuspidal_declared(y) is None
    assert sym_power_cuspidal(q, 7, ledger)[0] is None
    ledger.declare_automorphic(y)  # agrees with x, cuspidal and so automorphic
    # derived, not declared: sym^2 of a dihedral base is not cuspidal, of an octahedral one is
    d = ledger.declare_base("d", "dihedral", dihedral_field="E", dihedral_char="xi")
    o = ledger.declare_base("o", "octahedral")
    with pytest.raises(LedgerError, match=r"sym\^2\(o\) is cuspidal .* sym\^2\(d\) is not"):
        ledger.assert_equiv(ad(d), ad(o), True)


# -- reasons stay data until they are shown ---------------------------------


@pytest.fixture
def renders(monkeypatch):
    """Counts the calls of every symbol's ``__str__``, by class name."""
    counts: dict[str, int] = {}
    for cls in (Constituent, CharWord, BaseCusp, SymCusp, BoxCusp, InducedCusp):
        original = cls.__str__

        def counting(self, original=original, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            return original(self)

        monkeypatch.setattr(cls, "__str__", counting)
    return counts


def test_a_decided_pole_order_renders_nothing(renders):
    ledger, p, q = fresh("general", "general")
    chi = CharWord.gen("chi")
    ledger.assert_equiv(ad(p), ad(q), False)
    ledger.assert_equiv(ad(p), ad(q).twisted(chi), True)
    expr = IsobaricExpr.of(
        [(ad(p), 1), (ad(q), 2), (ad(q).twisted(chi), 1), (character(chi), 1),
         (TRIVIAL, 1), (Constituent(SymCusp(p, 3)), 1)]
    )
    # building the sum orders its terms by their structure, not their text
    po = pole_order(expr, ledger)
    assert (po.lo, po.hi, po.missing) == (11, 11, ())
    assert pole_order_pair(expr, ad(p), ledger) == PoleOrder(2, 2)
    assert renders == {}


def test_an_undetermined_pole_order_renders_each_missing_reason_once(renders):
    ledger, p, q = fresh("general", "general")
    r = ledger.declare_base("r", "general")
    expr = IsobaricExpr.of([(ad(p), 1), (ad(q), 1), (ad(r), 1), (TRIVIAL, 1)])
    renders.clear()
    po = pole_order(expr, ledger)
    assert (po.lo, po.hi) == (4, 10)
    assert po.missing == (
        "equiv(sym^2(p)*omega(p)^-1, sym^2(q)*omega(q)^-1)",
        "equiv(sym^2(p)*omega(p)^-1, sym^2(r)*omega(r)^-1)",
        "equiv(sym^2(q)*omega(q)^-1, sym^2(r)*omega(r)^-1)",
    )
    # two constituents in each of the three reasons, each a core and a twist
    assert renders == {"Constituent": 6, "SymCusp": 6, "CharWord": 6}


def test_a_decision_renders_only_the_reasons_it_shows(renders):
    """A decided and an undetermined decision render no symbol; reading
    their reasons renders each shown reason once.  The pole route's
    witnesses name bases and pole orders, so they render no symbol at all."""
    ledger, p, q = fresh("icosahedral", "icosahedral")
    undetermined = decide_cuspidality(p, q, ledger)
    ledger.assert_equiv(ad(p), ad(q), False)
    structural = decide_cuspidality(p, q, ledger)
    poles = decide_cuspidality_via_poles(p, q, ledger)
    assert (undetermined.verdict, structural.verdict, poles.verdict) == (
        "undetermined", "cuspidal", "cuspidal"
    )
    assert renders == {}
    assert len(poles.texts("witnesses")) == 6 and renders == {}
    # one reason, two constituents, each a core and a twist
    assert structural.texts("witnesses") == (
        "declared: sym^2(p)*omega(p)^-1 ~ sym^2(q)*omega(q)^-1 is False",
    )
    assert renders == {"Constituent": 2, "SymCusp": 2, "CharWord": 2}
    renders.clear()
    assert undetermined.as_json()["missing_facts"] == [
        "equiv(sym^2(p)*omega(p)^-1, sym^2(q)*omega(q)^-1)"
    ]
    assert renders == {"Constituent": 2, "SymCusp": 2, "CharWord": 2}


def test_equivalent_renders_its_one_reason(renders):
    ledger, p, q = fresh("general", "general")
    assert ledger.equivalent(ad(p), ad(q)) == (
        None, "equiv(sym^2(p)*omega(p)^-1, sym^2(q)*omega(q)^-1)"
    )
    assert renders == {"Constituent": 2, "SymCusp": 2, "CharWord": 2}


@pytest.mark.parametrize(
    "lhs, rhs, message",
    [
        (lambda p, t: ad(p), lambda p, t: Constituent(p),
         "sym^2(pi)*omega(pi)^-1 ~ pi cannot be declared true: degrees differ (3 vs 2)"),
        (lambda p, t: Constituent(SymCusp(p, 3)), lambda p, t: Constituent(box_cusp(p, t)),
         "sym^3(pi) ~ box(pi, pi_tau) cannot be declared true: "
         "finite-image restrictions differ: ['X1'] vs ['X2']"),
        (lambda p, t: Constituent(SymCusp(p, 7)),
         lambda p, t: Constituent(box_cusp(SymCusp(p, 3), t)),
         "sym^7(pi) ~ box(pi_tau, sym^3(pi)) cannot be declared true: "
         "finite-image restrictions differ: ['W', \"X''\"] vs ['V', \"W''\"]"),
    ],
    ids=["degrees", "rows", "several rows"],
)
def test_a_refused_true_fact_names_its_mismatch(lhs, rhs, message):
    ledger, p, p_tau = standard_icosahedral_pair()
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(lhs(p, p_tau), rhs(p, p_tau), True)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "lhs, rhs, message",
    [
        (lambda p, chi: ad(p), lambda p, chi: ad(p),
         "sym^2(p)*omega(p)^-1 ~ sym^2(p)*omega(p)^-1 cannot be declared false: "
         "both sides reduce to sym^2(p)*omega(p)^-1"),
        (lambda p, chi: character(CharWord.gen("chi", 3)), lambda p, chi: TRIVIAL,
         "chi^3 ~ 1 cannot be declared false: both sides reduce to 1"),
        (lambda p, chi: Constituent(p, CharWord.gen("chi", 4)), lambda p, chi: Constituent(p, chi),
         "p*chi^4 ~ p*chi cannot be declared false: both sides reduce to p*chi"),
    ],
    ids=["adjoint", "character", "twist"],
)
def test_a_false_fact_between_equal_sides_is_refused(lhs, rhs, message):
    """Such a fact would make Ad(p) inequivalent to itself, and pi box
    sym^2(pi) read as cuspidal on both routes."""
    ledger, p, _ = fresh()
    ledger.declare_character("chi", order=3)
    chi = CharWord.gen("chi")
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(lhs(p, chi), rhs(p, chi), False)
    assert str(err.value) == message
    assert union_find(ledger) == ({}, {}, {})
    ledger.assert_equiv(lhs(p, chi), rhs(p, chi), True)
    assert decide_cuspidality(p, p, ledger).verdict == "not-cuspidal"


ETA = CharWord.gen("eta(q)")


@pytest.mark.parametrize(
    "lhs, rhs, message",
    [
        (ETA, CharWord(), "eta(q) ~ 1 cannot be declared true: then eta(q) would be 1, but "
         "eta(q) has order 3"),
        (CharWord.gen("eta(q)", 2), CharWord(),
         "eta(q)^2 ~ 1 cannot be declared true: then eta(q) would be 1, but "
         "eta(q) has order 3"),
        (CharWord(), CharWord.gen("eta(q)", 2),
         "1 ~ eta(q)^2 cannot be declared true: then eta(q) would be 1, but "
         "eta(q) has order 3"),
        (ETA, CharWord.gen("eta(q)", 2), "eta(q) ~ eta(q)^2 cannot be declared true: "
         "then eta(q) would be 1, but eta(q) has order 3"),
        (CharWord.gen("mu"), CharWord(),
         "mu ~ 1 cannot be declared true: then mu would be 1, but mu has order 2"),
        (CharWord.gen("nu", -1), CharWord(),
         "nu^-1 ~ 1 cannot be declared true: then nu^2 would be 1, but nu is non-real"),
        (CharWord.gen("a"), CharWord.gen("b"),
         "a ~ b cannot be declared true: then a*b^-1 would be 1, but a*b^-1 is quadratic"),
    ],
    ids=["eta", "eta^2", "eta^-1", "eta vs eta^2", "quadratic", "non-real", "declared-kind"],
)
def test_a_true_character_fact_against_a_forced_kind_is_refused(lhs, rhs, message):
    """Otherwise a cubic character of the degree-5 lift could be declared
    trivial, and the pole route would count a pole the type rules out.  A
    kind declared for the quotient counts as a forced one does."""
    ledger, _, _ = fresh("icosahedral", "tetrahedral")
    ledger.declare_character("mu", kind="quadratic")
    ledger.declare_character("nu", kind="non-real")
    ledger.declare_word_kind(CharWord.of({"a": 1, "b": -1}), "quadratic")
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(character(lhs), character(rhs), True)
    assert str(err.value) == message
    assert union_find(ledger) == ({}, {}, {})


def test_a_character_made_trivial_by_a_fact_is_a_pole():
    ledger = FactLedger()
    ledger.declare_character("chi")
    chi = character(CharWord.gen("chi"))
    ledger.assert_equiv(chi, TRIVIAL, True)
    assert pole_order_pair(IsobaricExpr.of([(chi, 2), (TRIVIAL, 1)]), TRIVIAL, ledger) == (
        PoleOrder(3, 3)
    )


@pytest.mark.parametrize(
    "info, message",
    [
        ({"kind": "real"}, "character c: unknown kind 'real'"),
        ({"order": 3, "kind": "quadratic"}, "character c of order 3 cannot be quadratic"),
        ({"order": 1, "kind": "cubic"}, "character c of order 1 cannot be cubic"),
        ({"order": 3, "kind": "trivial"}, "character c of order 3 cannot be trivial"),
        ({"order": 2, "kind": "non-real"}, "character c of order 2 cannot be non-real"),
        ({"order": 1, "kind": "non-real"}, "character c of order 1 cannot be non-real"),
    ],
)
def test_a_kind_must_be_known_and_agree_with_the_order(info, message):
    ledger = FactLedger()
    with pytest.raises(LedgerError) as err:
        ledger.declare_character("c", **info)
    assert str(err.value) == message
    assert ledger.characters == set() and lattice(ledger) == ({}, {})


@pytest.mark.parametrize(
    "order, kind, declared, word_kind",
    [(1, "trivial", 1, "trivial"), (2, "quadratic", 2, "quadratic"), (3, "cubic", 3, "cubic"),
     (3, "non-real", 3, "cubic"), (5, "non-real", 5, "non-real"), (None, "cubic", 3, "cubic"),
     (None, "non-real", None, "non-real"), (4, None, 4, "non-real")],
)
def test_an_order_that_fits_its_kind_is_accepted(order, kind, declared, word_kind):
    """A kind that fixes an order is that order, a relation in R; non-real
    puts the square in D only where no order states it."""
    ledger = FactLedger()
    ledger.declare_character("c", order=order, kind=kind)
    assert ledger.characters == {"c"}
    assert ledger.word_kind(CharWord.gen("c")) == word_kind
    assert ledger._chars.rows == ({"c": CharWord.gen("c", declared)} if declared else {})


# -- words keyed before their generators' orders -------------------------------


def test_a_word_kind_must_agree_with_its_generators():
    ledger = FactLedger()
    ledger.declare_character("c", order=1)
    ledger.declare_character("eta", kind="cubic")
    with pytest.raises(LedgerError, match=r"c cannot be declared non-real: c\^2 is 1"):
        ledger.declare_word_kind(CharWord.gen("c"), "non-real")
    with pytest.raises(LedgerError, match="eta cannot be declared quadratic: then eta would be 1, but eta has order 3"):
        ledger.declare_word_kind(CharWord.gen("eta"), "quadratic")
    rows = dict(ledger._chars.rows)
    ledger.declare_word_kind(CharWord.gen("c", 5), "trivial")
    ledger.declare_word_kind(CharWord.gen("eta"), "cubic")
    ledger.declare_word_kind(CharWord.gen("eta", 2), "cubic")  # eta^2 has order 3 too
    ledger.declare_word_kind(CharWord.gen("eta", 2), "non-real")  # which non-real fits
    assert ledger.word_kind(CharWord.gen("eta", 2)) == "cubic"
    assert ledger._chars.rows == rows  # the orders state every one of these kinds


@pytest.mark.parametrize("inverse", [False, True], ids=["word", "inverse"])
@pytest.mark.parametrize("cubic_first", [True, False])
def test_a_word_declared_non_real_and_cubic_is_cubic_in_either_order(inverse, cubic_first):
    """Some order, 3, fits both kinds, so neither refuses the other, and the
    word is cubic whichever came first, and whether the second entry names
    the word or its inverse."""
    ledger = FactLedger()
    words = [CharWord.of({"c": 1, "d": 1}), CharWord.of({"c": -1, "d": -1})]
    kinds = ["cubic", "non-real"] if cubic_first else ["non-real", "cubic"]
    ledger.declare_word_kind(words[0], kinds[0])
    ledger.declare_word_kind(words[inverse], kinds[1])
    assert [ledger.word_kind(w) for w in words] == ["cubic", "cubic"]
    assert ledger._chars.rows == {"c": CharWord.of({"c": 3, "d": 3})}
    for other in ("trivial", "quadratic"):
        with pytest.raises(LedgerError, match=f"cannot be declared {other}: then "
                                              r"(c\*d|c\^2\*d\^2) would be 1, but c\*d is "):
            ledger.declare_word_kind(words[1], other)


# the exact orders each kind allows, up to 12: non-real allows every one above 2
_KIND_ALLOWS = {"trivial": {1}, "quadratic": {2}, "cubic": {3}, "non-real": set(range(3, 13))}


@settings(max_examples=300, deadline=None)
@given(order=st.integers(1, 12), exp=st.integers(-24, 24), by_property=st.booleans(),
       kind=st.sampled_from(sorted(_KIND_ALLOWS)))
def test_a_power_of_a_generator_has_the_kind_of_its_exact_order(order, exp, by_property, kind):
    """c^e, for c of order N, has order N/gcd(N, e), whose kind word_kind
    reads whether c was declared by its order or by a property fixing it; a
    kind declared for c^e is refused exactly when no such order fits it."""
    exact = order // math.gcd(order, exp)
    expected = next(k for k, allowed in _KIND_ALLOWS.items() if exact in allowed)
    ledger = FactLedger()
    if by_property and order <= 3:
        ledger.declare_character("c", kind=next(k for k, a in _KIND_ALLOWS.items() if a == {order}))
    else:
        ledger.declare_character("c", order=order)
    word = CharWord.gen("c", exp)
    assert ledger.word_kind(word) == expected
    before = (set(ledger.characters), dict(ledger._chars.rows))
    if exact in _KIND_ALLOWS[kind]:
        ledger.declare_word_kind(word, kind)
    else:
        with pytest.raises(LedgerError, match=re.escape(f"{word} cannot be declared {kind}: ")):
            ledger.declare_word_kind(word, kind)
    assert (set(ledger.characters), dict(ledger._chars.rows)) == before
    assert ledger.word_kind(word) == expected


@pytest.mark.parametrize(
    "info, exp, refusal, kind, reason",
    [
        ({"order": 5}, 2, "then c would be 1, but c has order 5", "non-real",
         "their quotient c^2 is not 1: c has order 5"),
        ({"kind": "non-real"}, -2, "then c^2 would be 1, but c is non-real", None,
         "their quotient c^-2 is not 1: c is non-real"),
    ],
    ids=["order-5", "non-real"],
)
def test_a_word_declared_trivial_is_refused_where_not_one_names_a_reason(
        info, exp, refusal, kind, reason):
    ledger = FactLedger()
    ledger.declare_character("c", **info)
    word = CharWord.gen("c", exp)
    with pytest.raises(LedgerError) as err:
        ledger.declare_word_kind(word, "trivial")
    assert str(err.value) == f"{word} cannot be declared trivial: {refusal}"
    # nothing was recorded: the word's kind and its equivalence with 1 agree
    assert ledger.word_kind(word) == kind
    assert ledger.equivalent(character(word), TRIVIAL) == (False, reason)
    # a word that may be 1 takes the kind
    open_word = word * CharWord.gen("d")
    ledger.declare_word_kind(open_word, "trivial")
    assert ledger.word_kind(open_word) == "trivial"


@pytest.mark.parametrize(
    "typ, core",
    [("icosahedral", None), ("icosahedral", "ad"), ("tetrahedral", "ad")],
    ids=["characters", "no self-twist", "potential self-twist"],
)
def test_a_quotient_declared_trivial_makes_its_twists_equivalent(typ, core):
    """Two twists whose quotient is declared trivial are one constituent:
    their twists reduce alike modulo R."""
    ledger = FactLedger()
    for name in ("c", "d"):
        ledger.declare_character(name)
    p = ledger.declare_base("p", typ)
    cd = CharWord.gen("c") * CharWord.gen("d")
    ledger.declare_word_kind(cd, "trivial")
    first = TRIVIAL if core is None else ad(p)
    second = first.twisted(cd)
    assert ledger.equivalent(second, first) == (True, "structural equality")
    assert ledger.equivalent(first, second) == (True, "structural equality")
    assert pole_order(IsobaricExpr.of([(first, 1), (second, 1)]), ledger) == PoleOrder(4, 4)
    assert pole_order_pair(IsobaricExpr.single(second), first, ledger) == PoleOrder(1, 1)
    # a quotient of another kind, or of none, is not affected
    other = first.twisted(CharWord.gen("c"))
    assert ledger.equivalent(other, first)[0] is not True


def _keyed_by_chi(ledger, p, q):
    chi, chi3 = CharWord.gen("chi"), CharWord.gen("chi", 3)
    return {
        "true fact": lambda: ledger.assert_equiv(Constituent(p, chi3), Constituent(q), True),
        "false fact": lambda: ledger.assert_equiv(Constituent(p, chi3), Constituent(p), False),
        "self-duality": lambda: ledger.declare_self_dual(Constituent(p, chi), True),
        "word kind": lambda: ledger.declare_word_kind(chi3, "non-real"),
    }


@pytest.mark.parametrize("entry, refusal", [
    ("true fact", None),
    ("false fact", "then chi^3 would be 1, but declared: p*chi^3 ~ p is False"),
    ("self-duality", None),
    ("word kind", "then chi^6 would be 1, but chi^3 is non-real"),
])
def test_an_order_after_an_entry_naming_its_generator_reaches_it(entry, refusal):
    """An order for a generator that an entry mentions is one more relation:
    the entry reads it, and the order is refused, the ledger unchanged,
    exactly where then the entry would contradict it."""
    ledger, p, q = fresh("general", "general")
    _keyed_by_chi(ledger, p, q)[entry]()
    before = (union_find(ledger), set(ledger.characters), lattice(ledger))
    for info in ({"order": 3}, {"kind": "cubic"}):
        if refusal is None:
            ledger.declare_character("chi", **info)
            continue
        with pytest.raises(LedgerError) as err:
            ledger.declare_character("chi", **info)
        assert str(err.value) == f"character chi cannot have order 3: {refusal}"
        assert (union_find(ledger), set(ledger.characters), lattice(ledger)) == before
    if entry == "true fact":
        assert ledger.equivalent(Constituent(p), Constituent(q)) == (True, "declared: p ~ q is True")
    if entry == "self-duality":
        assert ledger.self_dual_declared(Constituent(p, CharWord.gen("chi", 4))) is True
    ledger.declare_character("chi", kind="non-real")  # fits order 3, and chi^3 non-real


def test_an_entry_declares_its_new_generators_only_when_accepted():
    ledger, p, q = fresh()
    nu = CharWord.gen("nu")
    with pytest.raises(LedgerError, match="degrees differ"):
        ledger.assert_equiv(Constituent(p, nu), Constituent(SymCusp(q, 3), nu), True)
    with pytest.raises(LedgerError, match="unknown kind"):
        ledger.declare_word_kind(nu, "real")
    assert "nu" not in ledger.characters
    ledger.declare_self_dual(Constituent(SymCusp(p, 12), nu), True)
    # bare: the one relation on nu is the self-duality's, nu^2*omega(p)^12
    assert "nu" in ledger.characters
    assert ledger._chars.rows == {"nu": nu ** 2 * CharWord.gen("omega(p)", 12)}


def test_a_base_companion_against_an_entry_keyed_by_it_is_refused():
    ledger, p, _ = fresh("general", "general")
    ledger.declare_word_kind(CharWord.gen("eta(t)", 3), "non-real")
    before = (set(ledger.characters), lattice(ledger))
    with pytest.raises(LedgerError, match=re.escape(
            "character eta(t) cannot have order 3: then eta(t)^6 would be 1, but eta(t)^3 is "
            "non-real")):
        ledger.declare_base("t", "tetrahedral")
    assert "t" not in ledger.bases
    assert (set(ledger.characters), lattice(ledger)) == before


# -- the relation lattice of character words ----------------------------------


def _words(ledger, pairs):
    return [ledger.equivalent(character(CharWord.of(u)), character(CharWord.of(v)))
            for u, v in pairs]


def test_a_true_fact_relates_every_power_of_its_quotient():
    ledger = FactLedger()
    ledger.assert_equiv(character(CharWord.gen("c")), character(CharWord.gen("d", 2)), True)
    assert _words(ledger, [({"c": 1, "d": -2}, {}), ({"c": 3}, {"d": 6})]) == [
        (True, "structural equality")] * 2
    equal = FactLedger()
    equal.assert_equiv(character(CharWord.gen("c")), character(CharWord.gen("d")), True)
    assert _words(equal, [({"c": 1, "d": -1}, {})]) == [(True, "structural equality")]


def test_a_word_declared_trivial_relates_its_powers():
    ledger = FactLedger()
    ledger.declare_word_kind(CharWord.of({"c": 1, "d": 1}), "trivial")
    assert _words(ledger, [({"c": 2, "d": 2}, {})]) == [(True, "structural equality")]


def test_a_generator_equal_to_one_of_an_order_has_its_kind():
    ledger = FactLedger()
    ledger.declare_character("d", order=3)
    ledger.assert_equiv(character(CharWord.gen("c")), character(CharWord.gen("d")), True)
    assert ledger.word_kind(CharWord.gen("c")) == "cubic"
    assert _words(ledger, [({"c": 3}, {})]) == [(True, "structural equality")]


def test_a_bare_generator_with_a_non_real_square_is_non_real():
    """A real c would make c^2 trivial."""
    ledger = FactLedger()
    ledger.declare_character("c")
    ledger.declare_word_kind(CharWord.gen("c", 2), "non-real")
    assert ledger.word_kind(CharWord.gen("c")) == "non-real"
    assert ledger.self_dual_declared(character(CharWord.gen("c"))) is False


def test_a_self_twist_no_type_admits_makes_its_quotient_trivial():
    ledger = FactLedger()
    g = ledger.declare_base("g", "general")
    w = CharWord.gen("w")
    ledger.assert_equiv(Constituent(SymCusp(g, 2)), Constituent(SymCusp(g, 2), w), True)
    assert ledger.equivalent(character(w), TRIVIAL) == (True, "structural equality")
    assert ledger.equivalent(Constituent(SymCusp(g, 2), w ** 2), Constituent(SymCusp(g, 2)))[0]
    assert ledger.equivalent(ad(g).twisted(w), ad(g)) == (True, "structural equality")


def test_a_core_in_a_class_that_admits_no_self_twist_names_the_class():
    """sym^2 of a tetrahedral base may self-twist; in one class with a
    twist of an octahedral sym^2, which may not, the class keeps it apart
    from its twists through R, and the answer names the class's fact, not
    a rule of the tetrahedral type."""
    ledger = FactLedger()
    t, o = ledger.declare_base("t", "tetrahedral"), ledger.declare_base("o", "octahedral")
    ledger.declare_character("chi", order=3)
    ledger.declare_character("c", order=2)
    tet, octa = Constituent(SymCusp(t, 2)), Constituent(SymCusp(o, 2), CharWord.gen("chi"))
    ledger.assert_equiv(tet, octa, True)
    c = CharWord.gen("c")
    assert ledger.equivalent(tet, tet.twisted(c)) == (
        False, "sym^2(t) ~ sym^2(t)*c is False by the declared facts sym^2(t) ~ sym^2(o)*chi "
               "is True, as their quotient c is not 1: c has order 2")
    assert ledger.equivalent(octa, octa.twisted(c)) == (
        False, "sym^2(o) admits no self-twist for its declared type, and their quotient c is "
               "not 1: c has order 2")


def test_a_false_fact_between_two_degrees_answers_as_declared():
    """The degree rule would say as much, but the answer a declared fact
    gives reads as the fact, as for any other pair."""
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    ledger.declare_character("chi")
    chi = CharWord.gen("chi")
    a, b = Constituent(SymCusp(p, 2)), Constituent(SymCusp(p, 3), chi)
    ledger.assert_equiv(a, b, False)
    assert ledger.equivalent(b, a) == (False, "declared: sym^3(p)*chi ~ sym^2(p) is False")
    assert ledger.equivalent(a, b.twisted(chi)) == (False, "degrees differ (3 vs 4)")
    with pytest.raises(LedgerError, match="cannot be declared true: degrees differ"):
        ledger.assert_equiv(a, b, True)


def test_a_reason_shows_the_facts_known_when_it_was_given():
    """A reason keeps the facts of its class as they were when it was
    given: a later join does not reach its text."""
    ledger = FactLedger()
    p, q, r = (ledger.declare_base(n, "octahedral") for n in "pqr")
    ledger.declare_character("chi")
    ledger.assert_equiv(ad(p), ad(q), True)
    a, b = (ledger._canon(ad(x).twisted(CharWord.gen("chi"))) for x in (p, q))
    verdict, reason = ledger._resolve(a, b)
    ledger.assert_equiv(ad(q), ad(r), True)
    assert verdict is True and _text(reason) == (
        f"{a} ~ {b} is True by the declared facts {ad(p)} ~ {ad(q)} is True")


def test_the_character_of_m_0_equal_to_a_quadratic_one_is_exceptional():
    ledger = load_facts({
        "characters": [{"name": "d", "order": 2}, {"name": "chi"}],
        "facts": [{"lhs": "chi", "rhs": "d", "relation": "equiv", "truth": True}],
    })
    assert ledger.word_kind(CharWord.gen("chi")) == "quadratic"
    report = siegel_report(0, chi=CharWord.gen("chi"), ledger=ledger)
    assert (report.verdict, report.constituents[0].detail) == (
        "exceptional-case", "character constituent chi (kind: quadratic)")


@pytest.mark.parametrize("first", [True, False])
def test_facts_a_relation_makes_one_are_refused_when_they_disagree(first):
    """A relation that arrives after the facts reaches the lattice of each
    class; where then a true and a false fact of one class would agree, it
    is refused, naming the false one, in either order."""
    ledger, p, q = fresh("tetrahedral", "tetrahedral")
    c, d = CharWord.gen("c"), CharWord.gen("d")
    steps = [lambda: ledger.assert_equiv(ad(p).twisted(c), ad(q), True),
             lambda: ledger.assert_equiv(ad(p).twisted(d), ad(q), False)]
    steps[not first]()
    steps[first]()
    before = (union_find(ledger), lattice(ledger), set(ledger.characters))
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(character(c), character(d), True)
    assert str(err.value) == (
        "c ~ d cannot be declared true: then c^-1*d would be a self-twist of sym^2(q), but "
        "declared: sym^2(p)*d*omega(p)^-1 ~ sym^2(q)*omega(q)^-1 is False")
    assert (union_find(ledger), lattice(ledger), set(ledger.characters)) == before
    # a false fact between twists whose quotient a relation then makes 1
    other, p, _ = fresh("tetrahedral", "tetrahedral")
    other.assert_equiv(ad(p).twisted(c), ad(p).twisted(d), False)
    with pytest.raises(LedgerError, match=re.escape(
            "then c*d^-1 would be a self-twist of sym^2(p), but declared: "
            "sym^2(p)*c*omega(p)^-1 ~ sym^2(p)*d*omega(p)^-1 is False")):
        other.assert_equiv(character(c), character(d), True)


def test_self_dualities_a_relation_makes_one_are_refused_when_they_disagree():
    ledger, p, _ = fresh("tetrahedral", "tetrahedral")
    c, d = CharWord.gen("c"), CharWord.gen("d")
    ledger.declare_self_dual(ad(p).twisted(c), True)
    ledger.declare_self_dual(ad(p).twisted(d), False)
    before = (union_find(ledger), lattice(ledger))
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(character(c), character(d), True)
    assert str(err.value) == (
        "c ~ d cannot be declared true: then d^2 would be a self-twist of sym^2(p), but "
        "declared: sym^2(p)*d*omega(p)^-1 ~ sym^2(p)*d^-1*omega(p)^-1 is False")
    assert (union_find(ledger), lattice(ledger)) == before


def test_a_word_naming_a_base_is_refused_as_a_character():
    ledger, p, _ = fresh()
    before = (set(ledger.characters), lattice(ledger))
    with pytest.raises(LedgerError, match="^p is declared as a base, not a character$"):
        ledger.declare_word_kind(CharWord.gen("p"), "quadratic")
    assert (set(ledger.characters), lattice(ledger)) == before


def test_a_refused_kind_names_the_member_it_would_make_1():
    """c^2 non-real fits c cubic; what c cubic contradicts is c^3 ~ 1 False."""
    ledger = FactLedger()
    c = CharWord.gen("c")
    ledger.declare_word_kind(c ** 2, "non-real")
    ledger.assert_equiv(character(c ** 3), TRIVIAL, False)
    with pytest.raises(LedgerError) as err:
        ledger.declare_word_kind(c, "cubic")
    assert str(err.value) == (
        "c cannot be declared cubic: then c^3 would be 1, but declared: c^3 ~ 1 is False")


@pytest.mark.parametrize("order", [MAX_POWER + 1, 10**30, 10**100])
def test_an_order_above_the_largest_supported_is_refused_at_once(order):
    ledger = FactLedger()
    with pytest.raises(LedgerError, match=f"c: order must be from 1 to {MAX_POWER}"):
        ledger.declare_character("c", order=order)
    assert ledger.characters == set() and lattice(ledger) == ({}, {})
    with pytest.raises(FactsError, match=r"characters\[0\]: character c: order must be"):
        load_facts({"characters": [{"name": "c", "order": order}]})


@pytest.mark.parametrize("order, members", [
    (MAX_POWER, [2 ** 3 * 5 ** 4, 2 ** 4 * 5 ** 3]), (9973, [1]), (12, [6, 4]), (1, [])])
def test_an_order_puts_in_d_its_quotients_by_its_primes(order, members):
    ledger = FactLedger()
    ledger.declare_character("c", order=order)
    assert list(ledger._chars.apart) == [CharWord.gen("c", e) for e in members]
    assert ledger.word_kind(CharWord.gen("c", order // 2 or 1)) == (
        "quadratic" if order % 2 == 0 else "trivial" if order == 1 else "non-real")


def test_d_is_kept_reduced_modulo_r():
    """A member of D moves with R: c ~ d^2 with d of order 4 takes c^3 to d^2."""
    ledger = FactLedger()
    ledger.declare_character("d", order=4)
    ledger.assert_equiv(character(CharWord.gen("c", 3)), TRIVIAL, False)
    ledger.assert_equiv(character(CharWord.gen("c")), character(CharWord.gen("d", 2)), True)
    assert list(ledger._chars.apart) == [CharWord.gen("d", 2)]
    assert ledger.equivalent(character(CharWord.gen("c", 3)), TRIVIAL) == (
        False, "their quotient d^2 is not 1: d has order 4")


# the models of a document of characters: each generator takes a value in
# (Z/N)^k for each N here; an assignment satisfies the document when every
# word it declares 1 is 0 and every word it declares not 1 is not
_MODEL_NS = (4, 6)
_GENERATORS = ("a", "b", "c", "d")
_KINDS = ("trivial", "quadratic", "cubic", "non-real")


@st.composite
def character_documents(draw, generators=4):
    """Up to four generators, each bare or of an order dividing one of
    :data:`_MODEL_NS`, up to two word kinds and four character facts, and
    whether the orders come after the kinds and facts."""
    n = draw(st.sampled_from(_MODEL_NS))
    names = _GENERATORS[:draw(st.integers(1, generators))]
    orders = {g: draw(st.sampled_from([None] + [k for k in range(1, n + 1) if n % k == 0]))
              for g in names}
    words = st.dictionaries(st.sampled_from(names), st.sampled_from([-2, -1, 1, 2]),
                            max_size=3).map(CharWord.of)
    return (n, orders, draw(st.lists(st.tuples(words, st.sampled_from(_KINDS)), max_size=2)),
            draw(st.lists(st.tuples(words, words, st.booleans()), max_size=4)), draw(st.booleans()))


def _statements(orders, kinds, facts, cores=()):
    """The statements a document declares true, and those it declares false:
    a word is 1, or a core statement ``(c1, w1, c2, w2)`` holds, that
    sym^2(c1) twisted by w1 is sym^2(c2) twisted by w2, for each fact
    ``((c1, w1), (c2, w2), truth)`` of *cores*."""
    ones, apart = [], []
    for g, order in orders.items():
        if order:
            ones.append(CharWord.gen(g, order))
            apart += [CharWord.gen(g, order // q) for q in range(2, order + 1)
                      if order % q == 0 and all(q % r for r in range(2, q))]
    for w, kind in kinds:
        power = {"trivial": 1, "quadratic": 2, "cubic": 3}.get(kind)
        ones += [w ** power] if power else []
        apart += [w] if power in (2, 3) else [w ** 2] if power is None else []
    for u, v, truth in facts:
        (ones if truth else apart).append(u * v ** -1)
    for (c1, w1), (c2, w2), truth in cores:
        (ones if truth else apart).append((c1, w1, c2, w2))
    return ones, apart


def _zeros(n, names, orders, ones, words, model=None):
    """For each statement of *words*, the set, as a bit mask, of the
    assignments into Z/N that make every statement of *ones* hold under
    which it holds too.  An assignment gives each generator a value; with a
    *model* of cores, a :class:`_Classes`, it also gives each class whose
    type admits a self-twist a subgroup of Z/N, 0 or all of it, and each
    core an offset, 0 at its class's root and, along the class's true facts,
    whatever makes them hold; a core statement holds where the two cores
    share a class and the difference of offset plus twist lies in its
    subgroup.  A core statement in *ones* that joins two classes admits no
    assignment."""
    def value(word, values):
        return sum(e * values[names.index(g)] for g, e in word.word) % n

    def holds(s, values, extra):
        if isinstance(s, CharWord):
            return not value(s, values)
        c1, w1, c2, w2 = s
        k = model.index[c1]
        if k != model.index[c2]:
            return False
        full, offsets = extra[0][k], extra[1]
        return full or not (offsets[c1] + value(w1, values) - offsets[c2] - value(w2, values)) % n

    ranges = [range(0, n, n // math.gcd(n, orders[g] or n)) for g in names]
    points = [(v, extra) for v in itertools.product(*ranges)
              for extra in (model.extras(n, v, value) if model else [((), {})])]
    points = [p for p in points if all(holds(s, *p) for s in ones)]
    return {s: sum(1 << i for i, p in enumerate(points) if holds(s, *p))
            for s in words}, (1 << len(points)) - 1


_C, _D, _E = CharWord.gen("c"), CharWord.gen("d"), CharWord.gen("e")


@settings(max_examples=150, deadline=None)
@example((4, {"c": 2, "d": 2}, [], [(_C, _D, False), (_E, _C, True)], False))  # no cyclic model
@example((4, {"c": None}, [(_C ** -2, "trivial")], [], False))  # c real, of no known kind
@example((4, {"c": None}, [(_C ** 2, "non-real")], [], False))
@example((6, {"d": 3}, [], [(_C, _D, True)], True))
@example((4, {"d": 2}, [], [(_C, _D ** 2, False), (_C * _D, _E ** 2, True)], True))
@given(character_documents())
def test_the_lattice_answers_hold_in_every_model(doc):
    """A model takes values in (Z/N)^k: k assignments into Z/N, each making
    every word declared 1 be 0, and together making no word declared not 1
    be 0.  As a model with one more assignment is a model, and the values
    of n generators span a group that (Z/N)^n holds, the models for every k
    are read off single assignments.  Then a refused document has no model,
    an accepted one whose generators all have orders, dividing N, has one
    (a bare generator may need a larger group), every forced answer holds
    in every model, and so does every kind."""
    n, orders, kinds, facts, orders_last = doc
    ledger, refused = FactLedger(), False
    steps = [lambda: [ledger.declare_character(g, order=o) for g, o in orders.items()],
             lambda: [ledger.declare_word_kind(w, kind) for w, kind in kinds],
             lambda: [ledger.assert_equiv(character(u), character(v), t) for u, v, t in facts]]
    try:
        for step in steps[1:] + steps[:1] if orders_last else steps:
            step()
    except LedgerError:
        refused = True
    names = sorted(orders.keys() | {g for u, v, _ in facts for g, _ in (u * v).word}
                   | {g for w, _ in kinds for g, _ in w.word})
    orders = {g: orders.get(g) for g in names}
    ones, apart = _statements(orders, kinds, facts)
    queries = [CharWord()] + [CharWord.gen(g) for g in names] + [w for w, _ in kinds] + [
        w for u, v, _ in facts for w in (u, v)]
    for model_n in _MODEL_NS:
        zeros, every = _zeros(model_n, names, orders, ones,
                              set(apart) | {u * v ** -1 for u in queries for v in queries}
                              | {w ** k for w in queries for k in (1, 2, 3)})

        def has_model(assignments: int) -> bool:
            return all(assignments & ~zeros[w] for w in apart)

        if refused:
            assert not has_model(every), doc
            continue
        if model_n == n and None not in orders.values():
            assert has_model(every), doc
        if not has_model(every):
            continue
        for u, v in itertools.product(queries, repeat=2):
            verdict, reason = ledger.equivalent(character(u), character(v))
            if reason != "distinct character words are generically distinct":
                assert (zeros[u * v ** -1] == every) == verdict, (doc, u, v, reason)
                assert verdict or not has_model(zeros[u * v ** -1]), (doc, u, v, reason)
        for w in queries:
            kind = ledger.word_kind(w)
            one, square, cube = (zeros[w ** k] == every for k in (1, 2, 3))
            apart_w, apart_square = (not has_model(zeros[w ** k]) for k in (1, 2))
            assert {None: True, "trivial": one, "quadratic": square and apart_w,
                    "cubic": cube and apart_w, "non-real": apart_square}[kind], (doc, w, kind)


# -- cores in the models: classes, offsets and self-twists --------------------

# the bases whose sym^2 the core oracle draws, by name: type and finite-image row
_ORACLE_BASES = {"t": ("tetrahedral", None), "o": ("octahedral", None), "u": ("octahedral", None),
                 "v": ("octahedral", None), "i": ("icosahedral", None), "f": ("icosahedral", "X'"),
                 "h": ("icosahedral", "X''"), "g": ("general", None)}


class _Classes:
    """The classes of a model, for :func:`_zeros`: the cores (the bases of
    _ORACLE_BASES by name, each for its sym^2) that the true facts between
    two of them join, and the two classes of *merge* as one, their offsets
    apart by any value.  A class of the tetrahedral core alone may have a
    self-twist; no other, as :data:`icosym.rules.TYPE_RULES` admits none
    for sym^2 of the other types."""

    def __init__(self, cores, true_facts, merge=None):
        parent = {c: c for c in cores}

        def find(c):
            while parent[c] != c:
                c = parent[c]
            return c

        self.edges = {}  # child: (parent, the fact's twists on parent and child)
        for c1, w1, c2, w2 in true_facts:
            if find(c1) != find(c2):
                parent[find(c2)] = find(c1)
        roots = sorted({find(c) for c in cores})
        if merge is not None:
            roots = [r for r in roots if r != merge[1]] + [merge[1]]
        self.classes = [[c for c in cores if find(c) == r] for r in roots]
        if merge is not None:
            self.classes[roots.index(merge[0])] += self.classes.pop()
        self.index = {c: k for k, group in enumerate(self.classes) for c in group}
        self.shifted = set() if merge is None else {c for c in cores if find(c) == merge[1]}
        self.twisting = [k for k, group in enumerate(self.classes) if group == ["t"]]
        self.facts = [f for f in true_facts if f[0] != f[2]]
        self.roots = {find(c) for c in cores}
        self.find = find

    def split(self) -> bool:
        """Two cores of one class restrict to different rows of the finite model."""
        return any({_ORACLE_BASES[c][1] for c in group} >= {"X'", "X''"} for group in self.classes)

    def adjoints(self, omegas):
        """Ad(p) ~ Ad(q) for two cores of one class whose types the adjoint
        rule sets apart, as core statements: each false in every model."""
        return [(p, CharWord.gen(omegas[p], -1), q, CharWord.gen(omegas[q], -1))
                for group in self.classes for p, q in itertools.combinations(group, 2)
                if _ORACLE_BASES[p][0] != _ORACLE_BASES[q][0]]

    def extras(self, n, values, value):
        """Each class's subgroup and each core's offset, for the generator *values*."""
        offsets = dict.fromkeys(self.roots, 0)
        for _ in self.facts:  # each pass sets the offsets one true fact further
            for c1, w1, c2, w2 in self.facts:
                for a, wa, b, wb in ((c1, w1, c2, w2), (c2, w2, c1, w1)):
                    if a in offsets and b not in offsets:
                        offsets[b] = (offsets[a] + value(wa, values) - value(wb, values)) % n
        out = []
        for shift in range(n) if self.shifted else (0,):
            moved = {c: (o + shift) % n if c in self.shifted else o for c, o in offsets.items()}
            for fulls in itertools.product((False, True), repeat=len(self.twisting)):
                full = [False] * len(self.classes)
                for k, f in zip(self.twisting, fulls):
                    full[k] = f
                out.append((full, moved))
        return out


@st.composite
def core_documents(draw):
    """A document of :func:`character_documents` on at most three
    generators, beside sym^2 of up to four bases of _ORACLE_BASES, each with
    its central character one of the generators, and up to four facts
    between twists of those, each side twisted as an adjoint or not."""
    doc = draw(character_documents(generators=3))
    names = sorted(doc[1])
    bases = draw(st.lists(st.sampled_from(sorted(_ORACLE_BASES)), min_size=1, max_size=4,
                          unique=True))
    omegas = {b: draw(st.sampled_from(names)) for b in bases}
    words = st.dictionaries(st.sampled_from(names), st.sampled_from([-1, 1, 2]),
                            max_size=2).map(CharWord.of)
    side = st.tuples(st.sampled_from(bases), words, st.booleans())
    return (*doc, omegas, draw(st.lists(st.tuples(side, side, st.booleans()), max_size=4)))


def _core_model(model_n, names, orders, ones, apart, queries, omegas, merge=None):
    """For one partition of the cores into classes: the bit masks of
    :func:`_zeros` over *apart*, the adjoint rule's statements and *queries*,
    every assignment, and whether a mask holds a model; None where two
    cores of one class differ in row, which no model allows."""
    shape = _Classes(sorted(omegas), [s for s in ones if not isinstance(s, CharWord)], merge)
    if shape.split():
        return None
    negatives = apart + shape.adjoints(omegas)
    zeros, every = _zeros(model_n, names, orders, ones, negatives + queries, shape)

    def has_model(mask):
        return bool(mask) and all(mask & ~zeros[s] for s in negatives)

    return shape, zeros, every, has_model


@settings(max_examples=60, deadline=None)
@example((4, {"c": 2, "d": 2}, [], [(_C, _D, False)], False, {"o": "c"}, []))  # no cyclic model
@example((4, {"a": 1}, [], [], False, {"o": "a", "u": "a", "v": "a"},  # a chain and a third
          [(("o", CharWord(), True), ("u", CharWord(), True), True),
           (("u", CharWord(), True), ("v", CharWord(), True), True),
           (("o", CharWord(), True), ("v", CharWord(), True), False)]))
@example((6, {"a": 3, "b": 3}, [], [], True, {"o": "a", "u": "b"},  # a common twist
          [(("o", CharWord(), True), ("u", CharWord(), True), True)]))
@example((6, {"a": 3}, [], [], False, {"t": "a"},  # a self-twist of the tetrahedral sym^2
          [(("t", CharWord(), False), ("t", CharWord.gen("a"), False), True)]))
@given(core_documents())
def test_the_core_answers_hold_in_every_model(doc):
    """Each core takes a class and an offset in (Z/N)^k, N = 4 and 6: a
    class holds cores of one row, has a self-twist subgroup only for the
    tetrahedral sym^2 alone, and holds no two untwisted adjoints of bases
    of two types (Ramakrishnan 2000).  A refused document has no model; an
    accepted one whose generators all have orders dividing N has one;
    every definite answer of equivalent, and every exact pole order, holds
    in every model; and where every model agrees on two cores of one class,
    joined by a chain of facts or under a common twist, the answer is
    definite."""
    n, orders, kinds, facts, orders_last, omegas, cores = doc
    ledger, refused = FactLedger(), False
    bases = {b: ledger.declare_base(b, _ORACLE_BASES[b][0], omega=omegas[b],
                                    galois_row=_ORACLE_BASES[b][1]) for b in omegas}

    def twist(b, w, adjoint):
        return w * CharWord.gen(omegas[b], -1) if adjoint else w

    def constituent(b, w):
        return Constituent(SymCusp(bases[b], 2), w)

    core_facts = [((b1, twist(b1, w1, a1)), (b2, twist(b2, w2, a2)), t)
                  for (b1, w1, a1), (b2, w2, a2), t in cores]
    steps = [lambda: [ledger.declare_character(g, order=o) for g, o in orders.items()],
             lambda: [ledger.declare_word_kind(w, kind) for w, kind in kinds],
             lambda: [ledger.assert_equiv(character(u), character(v), t) for u, v, t in facts],
             lambda: [ledger.assert_equiv(constituent(*s1), constituent(*s2), t)
                      for s1, s2, t in core_facts]]
    try:
        for step in steps[1:] + steps[:1] if orders_last else steps:
            step()
    except LedgerError:
        refused = True
    names = sorted(orders.keys() | set(omegas.values())
                   | {g for u, v, _ in facts for g, _ in (u * v).word}
                   | {g for w, _ in kinds for g, _ in w.word}
                   | {g for s1, s2, _ in core_facts for g, _ in (s1[1] * s2[1]).word})
    orders = {g: orders.get(g) for g in names}
    ones, apart = _statements(orders, kinds, facts, core_facts)
    sides = list(dict.fromkeys(s for s1, s2, _ in core_facts for s in (s1, s2)))
    sides = (sides + [(b, w * CharWord.gen(names[0])) for b, w in sides])[:6]
    pairs = list(itertools.combinations(sides, 2))
    for model_n in _MODEL_NS:
        p0 = _core_model(model_n, names, orders, ones, apart,
                         [(b1, w1, b2, w2) for (b1, w1), (b2, w2) in pairs], omegas)
        if refused:
            assert p0 is None or not p0[3](p0[2]), doc
            continue
        complete = model_n == n and None not in orders.values()
        if complete:
            assert p0 is not None and p0[3](p0[2]), doc
        if p0 is None or not p0[3](p0[2]):
            continue
        shape, zeros, every, has_model = p0
        merged = {}

        def answer(s1, s2):
            """What every model says of s1 ~ s2: True, False or None."""
            (b1, w1), (b2, w2) = s1, s2
            if shape.index[b1] == shape.index[b2]:
                z = zeros[(b1, w1, b2, w2)]
                return True if z == every else False if not has_model(z) else None
            key = (shape.index[b1], shape.index[b2])
            if key not in merged:  # the models that join the two classes
                merged[key] = _core_model(model_n, names, orders, ones, apart,
                                          [(b1, w1, b2, w2)], omegas,
                                          (shape.find(b1), shape.find(b2)))
            m = merged[key]
            if m is None:
                return False
            z = _zeros(model_n, names, orders, ones, [(b1, w1, b2, w2)], m[0])[0]
            return False if not m[3](z[(b1, w1, b2, w2)]) else None

        generic = False
        for s1, s2 in pairs:
            verdict, reason = ledger.equivalent(constituent(*s1), constituent(*s2))
            truth = answer(s1, s2)
            if verdict is None:  # open: unless every model agrees on a chain of facts
                if complete and s1[0] != s2[0] and shape.index[s1[0]] == shape.index[s2[0]]:
                    assert truth is None, (doc, s1, s2, reason, truth)
            elif reason.endswith("for its declared type"):
                generic = True  # a generic default, not knowledge
            else:
                assert verdict == truth, (doc, s1, s2, reason, truth)
        po = pole_order(IsobaricExpr.of([(constituent(*s), 1) for s in sides]), ledger)
        if po.exact and not generic:  # a generic default counts as decided there
            parent = list(range(len(sides)))
            for i, j in itertools.combinations(range(len(sides)), 2):
                truth = answer(sides[i], sides[j])
                assert truth is not None, (doc, sides[i], sides[j])
                if truth:
                    parent[j] = parent[i]
            totals = collections.Counter(parent)
            assert po.value() == sum(k * k for k in totals.values()), (doc, po)


# -- self-duality: the fact c ~ dual(c) ----------------------------------------


def test_dual_is_the_contragredient():
    """pi dual is pi (x) omega^-1, so sym^n(pi) (x) w has dual sym^n(pi) (x)
    w^-1 omega^-n, a box the product of its factors' dual twists, and an
    induced core, alone or in a box, no formula."""
    _, p, q = fresh()
    chi, omega_p, omega_q = (CharWord.gen(n) for n in ("chi", "omega(p)", "omega(q)"))
    assert dual(character(chi)) == character(chi ** -1)
    assert dual(Constituent(p, chi)) == Constituent(p, chi ** -1 * omega_p ** -1)
    assert dual(Constituent(SymCusp(p, 5), chi)) == Constituent(
        SymCusp(p, 5), chi ** -1 * omega_p ** -5)
    assert dual(ad(p)) == ad(p)
    box = box_cusp(SymCusp(p, 2), q)
    assert dual(Constituent(box, chi)) == Constituent(
        box, chi ** -1 * omega_p ** -2 * omega_q ** -1)
    induced = InducedCusp("E", "xi")
    assert dual(Constituent(induced, chi)) is None
    assert dual(Constituent(box_cusp(induced, p))) is None


def test_a_core_with_no_dual_formula_is_refused():
    """Only the API reaches this: a facts file cannot name an induced core."""
    ledger, p, _ = fresh()
    induced = InducedCusp("E", "xi")
    for c in (Constituent(induced), Constituent(box_cusp(induced, p), CharWord.gen("nu"))):
        before = ledger_state(ledger)
        for truth in (True, False):
            with pytest.raises(LedgerError) as err:
                ledger.declare_self_dual(c, truth)
            assert str(err.value) == (
                f"{c.core} has no dual formula: its self-duality cannot be declared")
        assert ledger_state(ledger) == before
        assert ledger.self_dual_declared(c) is None


@pytest.mark.parametrize("doc, message", [
    ({"characters": [{"name": "chi", "order": 5}, {"name": "omega(p)", "order": 1}],
      "self_dual": [{"symbol": "sym^3(p)*chi", "truth": True}]},
     "sym^3(p)*chi ~ sym^3(p)*chi^4 cannot be declared true, as sym^3(p) admits no "
     "self-twist: then chi would be 1, but chi has order 5"),
    ({"characters": [{"name": "omega(p)", "order": 3}],
      "self_dual": [{"symbol": "p", "truth": True}]},
     "p ~ p*omega(p)^2 cannot be declared true, as p admits no self-twist: then "
     "omega(p) would be 1, but omega(p) has order 3"),
    ({"characters": [{"name": "omega(p)", "order": 1}],
      "self_dual": [{"symbol": "sym^2(p)", "truth": False}]},
     "sym^2(p) ~ sym^2(p)*omega(p)^-2 cannot be declared false: both sides reduce to "
     "sym^2(p)"),
], ids=["twisted-cube", "base", "square"])
def test_a_self_duality_that_no_model_satisfies_is_refused(doc, message):
    """sym^n(p)*w of an icosahedral p is self-dual iff w^2*omega(p)^n is 1,
    as sym^n(p) admits no self-twist: w of order 5 with omega(p) of order 1
    is not, nor is p with omega(p) of order 3, and sym^2(p) with omega(p) of
    order 1 is.  Each declaration against that is refused, in the API as
    behind its place in a facts file."""
    with pytest.raises(FactsError) as err:
        load_facts({"bases": [{"name": "p", "type": "icosahedral", "galois_row": "X'"}], **doc})
    assert str(err.value) == f"self_dual[0]: {message}"


def test_an_undeclared_self_duality_is_not_the_generic_default():
    """The generic answer for sym^12(pi)*chi against its dual is False, as
    sym^12(pi) admits no self-twist; that is a default, not knowledge, and
    whether it is self-dual stays open, so the m = 12 report flags chi*omega^6."""
    ledger, pi, _ = standard_icosahedral_pair()
    c = Constituent(SymCusp(pi, 12), CharWord.gen("chi"))
    assert ledger.equivalent(c, dual(c)) == (
        False, "sym^12(pi) admits no self-twist for its declared type")
    assert ledger.self_dual_declared(c) is None
    assert siegel_report(12, pi, None, ledger).verdict == "exceptional-case"


def test_a_self_duality_is_read_through_the_facts():
    """Declared on a core that may have a self-twist, a self-duality is the
    fact c ~ dual(c) in the core's class, whose quotient w^2*omega^n is then
    known not to be a self-twist, and which equivalent reads too; where the
    core admits none, its quotient is a relation."""
    ledger, g, q = fresh("general", "icosahedral")
    c = Constituent(SymCusp(g, 7), CharWord.gen("nu"))
    ledger.declare_self_dual(c, False)
    assert ledger._facts[frozenset((c.core,))] == [(c, dual(c), False)]
    assert list(ledger._classes[c.core].lattice.apart) == [CharWord.of({"nu": 2, "omega(p)": 7})]
    assert ledger.equivalent(dual(c), c) == (
        False, f"declared: {dual(c)} ~ {c} is False")
    assert ledger.self_dual_declared(dual(c)) is False
    ledger.declare_self_dual(Constituent(SymCusp(q, 3)), True)
    assert ledger._chars.rows["omega(q)"] == CharWord.gen("omega(q)", 3)
    # omega(q)^3 is 1, so sym^6(q) is self-dual too, and sym^4(q) is not known to be
    assert ledger.self_dual_declared(Constituent(SymCusp(q, 6))) is True
    assert ledger.self_dual_declared(Constituent(SymCusp(q, 4))) is None


_OMEGA = "omega(p)"


def _self_dual_quotient(n, w):
    """sym^n(p)*w is self-dual iff this word is 1."""
    return w ** 2 * CharWord.gen(_OMEGA, n)


@st.composite
def self_duality_documents(draw):
    """A document of :func:`character_documents` beside an icosahedral base
    p, omega(p) bare or of an order, and up to three self-dualities of
    sym^n(p)*w, declared after the rest, or before the orders."""
    n, orders, kinds, facts, orders_last = draw(character_documents())
    orders[_OMEGA] = draw(st.sampled_from([None] + [k for k in range(1, n + 1) if n % k == 0]))
    words = st.dictionaries(st.sampled_from(sorted(orders)), st.sampled_from([-2, -1, 1, 2]),
                            max_size=3).map(CharWord.of)
    duals = draw(st.lists(st.tuples(st.integers(1, 13), words, st.booleans()), max_size=3))
    return n, orders, kinds, facts, orders_last, duals


_O = CharWord.gen(_OMEGA)


@settings(max_examples=150, deadline=None)
@example((6, {"c": 3, _OMEGA: 1}, [], [], False, [(3, _C, True)]))  # the three refusals above
@example((6, {_OMEGA: 3}, [], [], True, [(1, CharWord(), True)]))
@example((4, {_OMEGA: 1}, [], [], False, [(2, CharWord(), False)]))
@example((6, {"c": 3, _OMEGA: 1}, [], [], False, []))  # not self-dual, derived
@example((4, {"c": None, _OMEGA: None}, [(_C * _O, "non-real")], [], False, [(2, _C, True)]))
@given(self_duality_documents())
def test_the_self_duality_answers_hold_in_every_model(doc):
    """In a model, sym^n(p)*w is self-dual exactly where w^2*omega(p)^n is
    0, so a self-duality is one more character statement: a refused
    document has no model, an accepted one whose generators all have
    orders dividing N has one, and every answer of self_dual_declared holds
    in every model."""
    n, orders, kinds, facts, orders_last, duals = doc
    ledger, refused = FactLedger(), False
    p = ledger.declare_base("p", "icosahedral")
    steps = [lambda: [ledger.declare_character(g, order=o) for g, o in orders.items()],
             lambda: [ledger.declare_word_kind(w, kind) for w, kind in kinds],
             lambda: [ledger.assert_equiv(character(u), character(v), t) for u, v, t in facts],
             lambda: [ledger.declare_self_dual(Constituent(sym_cusp(p, k), w), t)
                      for k, w, t in duals]]
    try:
        for step in steps[1:] + steps[:1] if orders_last else steps:
            step()
    except LedgerError:
        refused = True
    names = sorted(orders.keys() | {g for u, v, _ in facts for g, _ in (u * v).word}
                   | {g for w, _ in kinds for g, _ in w.word}
                   | {g for _, w, _ in duals for g, _ in w.word})
    orders = {g: orders.get(g) for g in names}
    ones, apart = _statements(orders, kinds, facts + [
        (_self_dual_quotient(k, w), CharWord(), t) for k, w, t in duals])
    queries = [(k, w) for k, w, _ in duals] + [
        (k, CharWord.gen(g, e)) for k in (1, 2, 3, 12) for g in names for e in (0, 1, -1)]
    for model_n in _MODEL_NS:
        zeros, every = _zeros(model_n, names, orders, ones,
                              set(apart) | {_self_dual_quotient(k, w) for k, w in queries})

        def has_model(assignments: int) -> bool:
            return all(assignments & ~zeros[w] for w in apart)

        if refused:
            assert not has_model(every), doc
            continue
        if model_n == n and None not in orders.values():
            assert has_model(every), doc
        if not has_model(every):
            continue
        for k, w in queries:
            known = ledger.self_dual_declared(Constituent(sym_cusp(p, k), w))
            q = _self_dual_quotient(k, w)
            if known is not None:
                assert known == (zeros[q] == every), (doc, k, w)
                assert known or not has_model(zeros[q]), (doc, k, w)


# -- the finite-model pole check ---------------------------------------------


@pytest.mark.parametrize("name", IRREP_NAMES)
def test_pole_check_on_irreducible_rows(name):
    tab = default_table()
    assert galois_pole_check(tab.row(name)) == 1


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
        assert galois_pole_check(f) == sum(c * c for c in coeffs.values())


def test_pole_check_rejects_non_characters():
    tab = default_table()
    not_char = tab.row("U") + tab.row("V") * -1
    with pytest.raises(NotACharacterError):
        galois_pole_check(not_char)


# -- the degree-5 lift -------------------------------------------------------


def test_lift_tetrahedral_splits():
    ledger = FactLedger()
    p = ledger.declare_base("p", "tetrahedral")
    e = a4(p)
    assert e.degree == 5
    chars = [c for c, _ in e.terms if c.core is None]
    assert len(chars) == 2
    eta, eta2 = CharWord.gen(p.cubic_char), CharWord.gen(p.cubic_char, 2)
    assert {c.twist for c in chars} == {eta, eta2}
    assert not any(is_trivial(ledger, c.twist) for c in chars)
    assert (ad(p), 1) in e.terms
    # built directly, in the order the merging constructor sorts the terms to
    assert e == IsobaricExpr.of([(ad(p), 1), (character(eta), 1), (character(eta2), 1)])


def test_lift_octahedral_splits():
    ledger = FactLedger()
    p = ledger.declare_base("p", "octahedral")
    e = a4(p)
    assert e.degree == 5
    mu = CharWord.gen(p.quadratic_char)
    assert (ad(p).twisted(mu), 1) in e.terms
    induced = [c for c, _ in e.terms if isinstance(c.core, InducedCusp)]
    assert [c.core for c in induced] == [InducedCusp(p.induced_field, p.induced_char)]
    assert e == IsobaricExpr.of([(induced[0], 1), (ad(p).twisted(mu), 1)])


@pytest.mark.parametrize("typ", ["icosahedral", "general"])
def test_lift_stays_cuspidal(typ):
    ledger = FactLedger()
    p = ledger.declare_base("p", typ)
    e = a4(p)
    assert len(e.terms) == 1
    (c, m), = e.terms
    assert m == 1 and c.core == SymCusp(p, 4)
    assert c.twist == CharWord.gen(p.omega, -2)


def test_lift_rejects_dihedral_and_abstract():
    ledger = FactLedger()
    d = ledger.declare_base("d", "dihedral", dihedral_field="K", dihedral_char="chi")
    with pytest.raises(ValueError):
        a4(d)
    ab = ledger.declare_base("ab", "abstract")
    with pytest.raises(LedgerError):
        a4(ab)


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
    """A true adjoint fact between bases of two types is refused (the
    adjoint rule), and without it the rule decides as a false fact does."""
    ledger, p, q = fresh(typ1, typ2)
    if same_adjoint and typ1 != typ2:
        with pytest.raises(LedgerError, match=re.escape("(Ramakrishnan 2000)")):
            ledger.assert_equiv(ad(p), ad(q), True)
        same_adjoint = False
    else:
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
    """As above; a true fact on the twisted adjoint, which the adjoint rule
    leaves open, is kept between bases of any two types."""
    ad_eq, mu_eq = facts
    ledger, p, q = fresh(typ1, "octahedral")
    mu = CharWord.gen(q.quadratic_char)
    if ad_eq and typ1 != "octahedral":
        with pytest.raises(LedgerError, match=re.escape("(Ramakrishnan 2000)")):
            ledger.assert_equiv(ad(p), ad(q), True)
        ad_eq = False
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
    """Both adjoint facts true would make mu(q) a self-twist of Ad(q), which
    an octahedral base has none of: the second is refused as it is declared."""
    ledger, p, q = fresh("octahedral", "octahedral")
    mu = CharWord.gen(q.quadratic_char)
    ledger.assert_equiv(ad(p), ad(q), True)
    with pytest.raises(LedgerError) as err:
        ledger.assert_equiv(ad(p), ad(q).twisted(mu), True)
    assert str(err.value) == (
        "sym^2(p)*omega(p)^-1 ~ sym^2(q)*mu(q)*omega(q)^-1 cannot be declared true, by the "
        "declared facts sym^2(p)*omega(p)^-1 ~ sym^2(q)*omega(q)^-1 is True: then mu(q) would "
        "be 1, but mu(q) has order 2")
    assert both_routes(p, q, ledger)[0].verdict == "not-cuspidal"


OCTAHEDRAL_PAIR = {
    "bases": [{"name": "p", "type": "octahedral"}, {"name": "q", "type": "octahedral"}],
    "facts": [{"lhs": "Ad(p)", "rhs": "Ad(q)", "relation": "equiv", "truth": True}],
}


def test_one_adjoint_fact_closes_the_pair_of_the_lift():
    """Ad(p) ~ Ad(q) puts both in one class, where Ad(p) against Ad(q)*mu(q)
    of the lift of q differs by mu(q), which is not 1: the pole order is
    exactly 2."""
    ledger = load_facts(OCTAHEDRAL_PAIR)
    p, q = ledger.bases["p"], ledger.bases["q"]
    v1, v2 = both_routes(p, q, ledger)
    assert v2.verdict == "not-cuspidal"
    assert (v2.pole.lo, v2.pole.hi, v2.missing) == (2, 2, ())
    assert v2.as_json()["pole_order"] == 2
    assert "L(Ad p x deg-5 lift) contributes 0" in v2.texts("witnesses")


def test_adjoint_facts_close_under_chains_and_common_twists():
    """Octahedral a, b, c with Ad(a) ~ Ad(b) ~ Ad(c): Ad(a) ~ Ad(c) false is
    refused naming both facts, the three adjoints pole exactly 9 times, and
    Ad(a)*chi ~ Ad(b)*chi holds."""
    ledger = FactLedger()
    a, b, c = (ledger.declare_base(n, "octahedral") for n in "abc")
    ledger.assert_equiv(ad(a), ad(b), True)
    ledger.assert_equiv(ad(b), ad(c), True)
    with pytest.raises(LedgerError) as refused:
        ledger.assert_equiv(ad(a), ad(c), False)
    assert f"{ad(a)} ~ {ad(b)} is True, {ad(b)} ~ {ad(c)} is True, it holds" in str(refused.value)
    assert pole_order(IsobaricExpr.of([(ad(a), 1), (ad(b), 1), (ad(c), 1)]), ledger) == PoleOrder(9, 9)
    ledger.declare_character("chi")
    chi = CharWord.gen("chi")
    assert ledger.equivalent(ad(a).twisted(chi), ad(b).twisted(chi))[0] is True


def test_bases_of_two_types_are_decided_without_facts():
    """The adjoint rule: Ad(p) and Ad(q) of an icosahedral and a tetrahedral
    base differ, so both routes read cuspidal."""
    ledger, p, q = fresh("icosahedral", "tetrahedral")
    v1, v2 = both_routes(p, q, ledger)
    assert v1.verdict == "cuspidal" and v2.pole.value() == 1
    assert v1.texts("witnesses") == (
        "Ad(p) and Ad(q) are inequivalent, as p is icosahedral and q is tetrahedral: Ad(pi) ~ "
        "Ad(pi') implies pi' ~ pi (x) chi (Ramakrishnan 2000), and a twist keeps the "
        "projective image",)


def test_undetermined_without_facts():
    ledger, p, q = fresh("icosahedral", "icosahedral")
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
    assert any("base change" in msg for msg in v.texts("missing"))


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
        ledger.assert_equiv(lhs, lhs.twisted(twist), self_twist)
    assert decide_cuspidality(p, q, ledger).verdict == expected


def test_a_second_base_change_to_one_field_is_refused_and_not_declared():
    ledger = FactLedger()
    q = ledger.declare_base("q", "icosahedral")
    first = ledger.declare_base_change(q, "K", "q_K", "dihedral")
    with pytest.raises(LedgerError) as err:
        ledger.declare_base_change(q, "K", "q_K2", "general")
    assert str(err.value) == (
        "contradictory declarations of the base change of q to K: q_K vs q_K2"
    )
    assert "q_K2" not in ledger.bases
    assert ledger.declare_base_change(q, "K", "q_K", "dihedral") == first
    assert ledger.base_change(q, "K") is ledger.bases["q_K"]


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
    before = set(ledger.characters)
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
    _, p, p_tau = standard_icosahedral_pair()
    fam = icosahedral_family(p, p_tau)
    assert [row for _, _, row in fam] == [
        "U", "X'", "X''", "W'", "W''", "X1", "X2", "V", "W",
    ]
    degrees = [c.degree for _, c, _ in fam]
    assert degrees == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert sum(d * d for d in degrees) == 120


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "value"])
@pytest.mark.parametrize("row", ["X'", "X''"])
def test_family_rows_are_the_rows_of_the_restrictions(row, declared):
    # the family reads its rows from the table; restricting each generator
    # and decomposing it is the reference they must match
    ledger = FactLedger()
    f = ledger.declare_base("f", "icosahedral", galois_row=row)
    other = "X''" if row == "X'" else "X'"
    if declared:
        g = ledger.declare_base("g", "icosahedral", galois_row=other)
    else:
        g = BaseCusp("g", "icosahedral", galois_row=other)
    fam = icosahedral_family(f, g)
    for label, c, r in fam:
        mults = {"U": 1} if c.core is None else ledger.galois_decomposition(c.core)
        assert mults == {r: 1}, label
    assert sorted(r for _, _, r in fam) == sorted(IRREP_NAMES)


@pytest.mark.parametrize(
    "rows", [(None, None), ("X'", None), (None, "X''"), ("X'", "X'"), ("X''", "X''")]
)
def test_family_refuses_a_pair_not_tagged_with_both_rows(rows):
    ledger = FactLedger()
    f = ledger.declare_base("f", "icosahedral", galois_row=rows[0])
    g = ledger.declare_base("g", "icosahedral", galois_row=rows[1])
    with pytest.raises(LedgerError, match="need the galois_row tags X' and X''"):
        icosahedral_family(f, g)
