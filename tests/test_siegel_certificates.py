"""The auxiliary square computed from the Clebsch--Gordan expansion, and
reports and scans that certify each family row once: once per scan with a
caller's ledger, once per process in the shared standard context."""

from __future__ import annotations

import contextlib
import hashlib
import io
from collections import Counter

import pytest

import icosym.siegel
from icosym.cli import cmd_dispatch
from icosym.isobaric import (
    CharWord,
    Constituent,
    FactLedger,
    PoleOrder,
    SymCusp,
    ad,
    standard_icosahedral_pair,
    sym_cusp,
)
from icosym.siegel import (
    LFactor,
    expand_aux_square,
    siegel_report,
    siegel_scan,
)

CHI = CharWord.gen("chi")


@pytest.fixture
def fresh_standard_context():
    """Scans without a ledger share one standard context per process, which
    earlier tests may have filled; start from a new one, and leave a new one
    behind for later tests."""
    icosym.siegel._standard_scan_context.cache_clear()
    yield
    icosym.siegel._standard_scan_context.cache_clear()


def hand_factors(m, p, chi):
    """The seven factors of L(s, Pi x Pi), written out by hand."""
    omega = CharWord.gen(p.omega)
    target = Constituent(SymCusp(p, m), chi)
    adjoint = ad(p)
    return [
        LFactor("zeta", (), 1),
        LFactor("single", (target,), 4),
        LFactor("single", (adjoint,), 2),
        LFactor("single", (Constituent(SymCusp(p, m + 2), chi * omega ** -1),), 2),
        LFactor("single", (Constituent(sym_cusp(p, m - 2), chi * omega),), 2),
        LFactor("pair", (target, target), 1),
        LFactor("pair", (adjoint, adjoint), 1),
    ]


def assert_matches_hand_list(m, p, chi, ledger):
    fact = expand_aux_square(m, p, chi, ledger)
    assert Counter(fact.factors) == Counter(hand_factors(m, p, chi))
    assert (fact.k, fact.r) == (4, 3)
    assert fact.total_degree == (m + 5) ** 2


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize(
    "chi",
    [CHI, CharWord(), CharWord.of({"chi": 1, "nu": 2}), CharWord.gen("omega(pi)", 3)],
    ids=str,
)
def test_standard_base_square_is_the_hand_list(m, chi):
    ledger, p, _ = standard_icosahedral_pair()
    assert_matches_hand_list(m, p, chi, ledger)


@pytest.mark.parametrize(
    "chi", [CHI, CharWord(), CharWord.gen("omega(p)", 3)], ids=str
)
def test_general_base_square_is_the_hand_list(chi):
    for m in range(3, 40):
        ledger = FactLedger()
        p = ledger.declare_base("p", "general")
        ledger.declare_cuspidal(SymCusp(p, m), True)
        for n in (m + 2, m - 2):
            if n > 1:
                ledger.declare_automorphic(SymCusp(p, n), True)
        assert_matches_hand_list(m, p, chi, ledger)


def test_a_square_whose_target_does_not_beat_the_pole_is_refused(monkeypatch):
    monkeypatch.setattr(icosym.siegel, "pole_order", lambda e, ledger: PoleOrder(4, 4))
    ledger, p, _ = standard_icosahedral_pair()
    with pytest.raises(RuntimeError, match="target exponent 4 is not above the edge pole order 4"):
        expand_aux_square(3, p, CHI, ledger)


def test_a_scan_certifies_each_auxiliary_row_once(monkeypatch, fresh_standard_context):
    calls = []

    def counting(m, p, chi, ledger):
        calls.append(m)
        return expand_aux_square(m, p, chi, ledger)

    monkeypatch.setattr(icosym.siegel, "expand_aux_square", counting)
    reports = siegel_scan(0, 400)
    assert len(reports) == 401
    assert sorted(calls) == [3, 4, 5]


def test_a_report_at_m0_builds_no_character_table(monkeypatch, fresh_standard_context):
    def refuse():
        raise AssertionError("the character table was built")

    monkeypatch.setattr("icosym.chartab.default_table", refuse)
    report = siegel_report(0)
    assert (report.verdict, report.k) == ("exceptional-case", None)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 12])
def test_headline_k_and_r_only_when_sym_m_is_one_auxiliary_row(m):
    report = siegel_report(m)
    expected = (4, 3) if m in (3, 4, 5) else (None, None)
    assert (report.k, report.r) == expected


# SHA-256 of stdout of `icosym siegel --scan 0..400`, recorded before the
# auxiliary square was computed from the expansion; re-pinned when m = 0 came
# to flag a twisting character not known to be non-self-dual, the m = 0
# report being the one difference
SCAN_0_400 = {
    (): "5ff3be013473f17e4bd019f1bfe02a1ee76b7a904eaee7d1c56cc3df389fa06a",
    ("--json",): "a908c0520a626577a85e407ff1ac60ef391d3cfc56dc81538014b202fcbf6e80",
}


# the same for `icosym siegel --scan 0..2000`, recorded while each power was
# still built by a fresh recursion from sym^0, and re-pinned alike
SCAN_0_2000 = {
    (): "5eea7d9600b096ec5bfefc586e6860596bb0fc463ac036c83f0098f2b50a4f67",
    ("--json",): "2ed39d2126a334e1508ad79d047ef1a665554d0a83123326baf8e1ce8627a5e5",
}


def scan_digest(top, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cmd_dispatch(["siegel", "--scan", f"0..{top}", *flags]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("flags", sorted(SCAN_0_400), ids=["text", "json"])
def test_scan_output_is_pinned(flags):
    assert scan_digest(400, flags) == SCAN_0_400[flags]


@pytest.mark.parametrize("flags", sorted(SCAN_0_2000), ids=["text", "json"])
def test_long_scan_output_is_pinned(flags):
    assert scan_digest(2000, flags) == SCAN_0_2000[flags]


@pytest.mark.parametrize("chi", [None, CharWord.of({"chi": 1, "nu": 2})], ids=["chi", "chi*nu^2"])
def test_a_default_report_is_the_report_on_a_fresh_standard_ledger(chi):
    """The default pi and pi_tau, undeclared, report as the declared pair."""
    for m in range(401):
        ledger, p, _ = standard_icosahedral_pair()
        shared = siegel_report(m, chi=chi)
        empty = siegel_report(m, chi=chi, ledger=FactLedger())
        for explicit in (siegel_report(m, p, chi, ledger), empty):
            assert str(shared) == str(explicit)
            assert shared.as_json() == explicit.as_json()


def test_default_reports_build_the_family_and_certificates_once(
    monkeypatch, fresh_standard_context
):
    families, squares = [], []
    family, square = icosym.siegel.icosahedral_family, icosym.siegel.expand_aux_square

    def counting_family(p, p_tau):
        families.append(p)
        return family(p, p_tau)

    def counting_square(m, p, chi, ledger):
        squares.append(m)
        return square(m, p, chi, ledger)

    monkeypatch.setattr(icosym.siegel, "icosahedral_family", counting_family)
    monkeypatch.setattr(icosym.siegel, "expand_aux_square", counting_square)
    for i in range(200):
        siegel_report(7 * i % 200)
    assert len(families) == 1
    assert sorted(squares) == [3, 4, 5]


Q12 = CharWord.of({"chi": 1, "omega(pi)": 6})  # the character constituent at m = 12


@pytest.mark.parametrize(
    "m, mutate",
    [
        (12, lambda ledger, p: ledger.declare_self_dual(Constituent(SymCusp(p, 12), CHI), False)),
        (12, lambda ledger, p: ledger.declare_word_kind(Q12, "cubic")),
        # a generator's kind that fixes its order is declared with the generator
        (0, lambda ledger, p: ledger.declare_character("chi", kind="cubic")),
    ],
    ids=["self_dual", "word_kind", "word_kind_m0"],
)
def test_a_mutated_standard_ledger_leaves_default_reports_alone(m, mutate):
    before = siegel_report(m)
    ledger, p, _ = standard_icosahedral_pair()
    mutate(ledger, p)
    # the mutation does change a report on that ledger ...
    assert siegel_report(m, p, None, ledger).verdict != before.verdict
    # ... but not a later default report
    after = siegel_report(m)
    assert (str(after), after.as_json()) == (str(before), before.as_json())
    assert icosym.siegel._standard_scan_context().ledger is not ledger
