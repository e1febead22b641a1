"""Acceptance gate: the nine headline checks, one printed line each.

Every comparison underneath is exact rational/quadratic arithmetic — there
is no tolerance anywhere.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

from __future__ import annotations

from icosym.verify import (
    all_passed,
    verify_auxiliary,
    verify_classification,
    verify_clebsch_gordan,
    verify_cuspidality,
    verify_identities,
    verify_pole_identity,
    verify_siegel_criterion,
    verify_table,
    verify_trivial_scan,
)


def check(num: int, results, description: str) -> None:
    passed = all_passed(results)
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} — {description}")
    failures = [r for r in results if not r.passed]
    assert passed, f"criterion {num} failed: {[(r.name, r.detail) for r in failures]}"


def test_criterion_1_character_table():
    check(
        1,
        verify_table(),
        "orthogonality relations, squared dimensions summing to 120, "
        "class sizes and element orders — all exact",
    )


def test_criterion_2_decomposition_identities():
    results = verify_identities()
    assert len(results) == 11
    check(
        2,
        results,
        "the eleven low symmetric-power decompositions, including "
        "sym^5(X') = W, sym^6(X') = W'' + X2, sym^7(X') = X'' + W",
    )


def test_criterion_3_product_rule():
    results = verify_clebsch_gordan()
    assert "121/121" in results[0].detail
    check(
        3,
        results,
        "sym^a (x) sym^b = (+)_k sym^(a+b-2k) as exact class functions "
        "for all 0 <= a, b <= 10 (121 identities)",
    )


def test_criterion_4_trivial_scan():
    check(
        4,
        verify_trivial_scan(),
        "no trivial constituent in sym^n for 1 <= n <= 11, exactly one at n = 12",
    )


def test_criterion_5_classification():
    check(
        5,
        verify_classification(),
        "for 1 <= m <= 8: 9m irreducibles in 9 twist classes with squared "
        "dimensions summing to 120m, plus the generator-family checks",
    )


def test_criterion_6_cuspidality_routes():
    check(
        6,
        verify_cuspidality(),
        "structural and pole-counting routes agree on the full scenario "
        "matrix (>= 24 determinable cases) and the tagged conjugate pair "
        "is cuspidal with no declared facts",
    )


def test_criterion_7_auxiliary_squares():
    check(
        7,
        verify_auxiliary(),
        "the factored square carries the target with k = 4 against an edge "
        "pole of order r = 3 for m in {3, 4, 5, 7, 9, 11}, with exact "
        "finite-model accounting for m in {3, 4, 5}",
    )


def test_criterion_8_pole_bookkeeping():
    check(
        8,
        verify_pole_identity(),
        "edge pole order 1 on each irreducible row and equal to the sum of "
        "squared multiplicities on 50 random nonnegative combinations",
    )


def test_criterion_9_exceptional_zero_reports():
    check(
        9,
        verify_siegel_criterion(),
        "no exceptional zero for m = 1..11; the exceptional case appears "
        "exactly when the scan finds a character constituent (at m = 0 the "
        "twisting character itself), reported in both normalizations",
    )
