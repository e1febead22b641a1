"""Cross-validation of table data against the exact quaternion model.

These tests rebuild the binary icosahedral group from raw coordinates and
compare sums over its 120 elements against what the character machinery
claims, with no shared code paths beyond Q(sqrt 5) arithmetic.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from icosians import qconj, qmul, qnorm, sym_trace_sums, trace, unit_icosians
from icosym.chartab import default_table
from icosym.icostruct import scan_trivial
from icosym.isobaric import FactLedger, decide_cuspidality, decide_cuspidality_via_poles
from icosym.scalar import Qsqrt5

# invariant degrees of the binary icosahedral group below 31, from the
# generating function (1 + t^30) / ((1 - t^12) (1 - t^20))
EXPECTED_SCAN = {0: 1, 12: 1, 20: 1, 24: 1, 30: 1}


@pytest.fixture(scope="module")
def icosians():
    return unit_icosians()


def test_there_are_120_unit_icosians(icosians):
    assert len(icosians) == 120
    assert all(qnorm(q) == Qsqrt5(1) for q in icosians)


def test_icosians_form_a_group(icosians):
    one = (Qsqrt5(1), Qsqrt5(0), Qsqrt5(0), Qsqrt5(0))
    assert one in icosians
    assert all(qconj(q) in icosians for q in icosians)
    rng = random.Random(5)
    sample = rng.sample(sorted(icosians, key=str), 40)
    for p in sample:
        for q in icosians:
            assert qmul(p, q) in icosians


def test_trace_multiset_matches_a_two_dimensional_row(icosians):
    tab = default_table()
    row = tab.row("X'")
    want = Counter()
    for size, value in zip(tab.sizes, row.values):
        want[value] += size
    got = Counter(trace(q) for q in icosians)
    assert got == want


def test_trivial_constituent_scan_matches_engine(icosians):
    sums = sym_trace_sums(30)
    oracle = {}
    for n, total in enumerate(sums):
        mult = total / 120
        assert mult.is_integer(), f"non-integral multiplicity at n={n}"
        oracle[n] = mult.as_int()
    assert oracle == {n: EXPECTED_SCAN.get(n, 0) for n in range(31)}
    assert scan_trivial(30) == oracle


def _pairing(icosians, twisted: bool, twisted_prime: bool) -> int:
    """<chi, chi> = sum of chi^2 / 120 for chi = rho * (rho'^2 - 1), the
    character of rho (x) Ad rho' (det = 1), where rho and rho' have the
    trace t of an icosian, or its Galois conjugate tau(t) where twisted."""
    total = Qsqrt5(0)
    for q in icosians:
        t = trace(q)
        rho, rho_prime = (t.conj() if flag else t for flag in (twisted, twisted_prime))
        chi = rho * (rho_prime * rho_prime - 1)
        total = total + chi * chi
    pairing = total / 120
    assert pairing.is_integer()
    return pairing.as_int()


def test_the_criterion_meets_the_finite_image(icosians):
    """The paper's criterion for pi box sym^2(pi') against 2I itself: the
    edge pole of the product's self-pairing is <chi, chi> of its finite
    image, 1 for X' against X'' (the 6-dimensional irreducible) and 2 for X'
    against X' (sym^3 X' + X').  Both cuspidality routes agree with it where
    the tags decide, and a second base tagged X' leaves 2 open."""
    assert _pairing(icosians, False, True) == _pairing(icosians, True, False) == 1
    assert _pairing(icosians, False, False) == _pairing(icosians, True, True) == 2

    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral", galois_row="X'")
    p_tau = ledger.declare_base("p_tau", "icosahedral", galois_row="X''")
    p2 = ledger.declare_base("p2", "icosahedral", galois_row="X'")
    for left, right, verdict, pole in [(p, p_tau, "cuspidal", 1), (p_tau, p, "cuspidal", 1),
                                       (p, p, "not-cuspidal", 2)]:
        assert pole == _pairing(icosians, left is p_tau, right is p_tau)
        assert decide_cuspidality(left, right, ledger).verdict == verdict
        by_poles = decide_cuspidality_via_poles(left, right, ledger)
        assert (by_poles.verdict, by_poles.pole.lo, by_poles.pole.hi) == (verdict, pole, pole)
    # Ad(p) ~ Ad(p2) is open: both restrict to the same row, so 2 stays possible
    by_poles = decide_cuspidality_via_poles(p, p2, ledger)
    assert by_poles.pole.lo <= _pairing(icosians, False, False) <= by_poles.pole.hi
    assert "cuspidal" not in {by_poles.verdict, decide_cuspidality(p, p2, ledger).verdict}
