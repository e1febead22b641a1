from __future__ import annotations

import random

import pytest

from icosym.chartab import (
    GALOIS_SWAPS,
    IRREP_NAMES,
    CharacterTable,
    ClassFunction,
    NotACharacterError,
    format_decomposition,
)
from icosym.scalar import GOLDEN, SQRT5, Qsqrt5
from icosym.verify import all_passed, verify_identities, verify_table

DIMS = {"U": 1, "V": 5, "W": 6, "X1": 4, "X2": 4, "W'": 3, "W''": 3, "X'": 2, "X''": 2}


@pytest.fixture(scope="module")
def tab() -> CharacterTable:
    return CharacterTable()


def test_dimensions(tab):
    assert {n: tab.dim(n) for n in IRREP_NAMES} == DIMS
    assert sum(d * d for d in DIMS.values()) == 120


def test_inner_product_hand_sums(tab):
    # <V, V> = (25 + 25 + 0 + 0 + 0 + 0 + 30*1 + 20*1 + 20*1) / 120 = 1
    assert tab.inner_product(tab.row("V"), tab.row("V")) == Qsqrt5(1)
    # <U, W> = (6 + 6 + 12 + 12 - 12 - 12 + 0 + 0 + 0) / 120 = 0
    assert tab.inner_product(tab.row("U"), tab.row("W")) == Qsqrt5(0)


def test_inner_product_bilinearity(tab):
    doubled = 2 * tab.row("U")
    assert tab.inner_product(doubled, doubled) == Qsqrt5(4)


def test_rows_are_orthonormal(tab):
    for i, a in enumerate(IRREP_NAMES):
        for b in IRREP_NAMES[i:]:
            want = Qsqrt5(1 if a == b else 0)
            assert tab.inner_product(tab.row(a), tab.row(b)) == want


def test_verify_table_passes():
    report = verify_table()
    assert len(report) == 6
    assert all_passed(report), [r for r in report if not r.passed]


def test_verify_table_flags_perturbed_entry(tab, monkeypatch):
    # bump a single zero in row W; column orthogonality must notice
    rows = {n: list(tab.row(n).values) for n in IRREP_NAMES}
    rows["W"][6] = rows["W"][6] + 1
    monkeypatch.setattr("icosym.chartab._TABLE_ROWS", rows)
    corrupted = CharacterTable(tab.group)
    monkeypatch.setattr("icosym.verify.default_table", lambda: corrupted)
    report = verify_table()
    assert not all_passed(report)
    assert any(r.name == "column-orthogonality" and not r.passed for r in report)


def test_decompose_products(tab):
    assert tab.decompose(tab.row("X'") * tab.row("X''")) == {"X2": 1}
    assert tab.decompose(tab.row("X'") * tab.row("X'")) == {"U": 1, "W'": 1}
    assert tab.decompose(tab.row("V") * tab.row("U")) == {"V": 1}


def test_sym_power_small_cases(tab):
    assert tab.sym_power("X'", 0) == tab.row("U")
    assert tab.sym_power("X'", 1) == tab.row("X'")
    assert tab.decompose(tab.sym_power("X'", 2)) == {"W'": 1}
    assert tab.decompose(tab.sym_power("X'", 5)) == {"W": 1}


def test_an_ascending_scan_takes_one_recursion_step_per_power(monkeypatch):
    steps = []
    subtract = ClassFunction.__sub__

    def counting(self, other):
        steps.append(1)  # each recursion step subtracts once
        return subtract(self, other)

    monkeypatch.setattr(ClassFunction, "__sub__", counting)
    fresh, reference = CharacterTable(), CharacterTable()
    powers = [fresh.sym_power("X'", n) for n in range(401)]
    assert len(steps) == 399  # none for sym^0 and sym^1
    steps.clear()
    assert reference.sym_power("X'", 400) == powers[400]
    assert len(steps) == 399  # a single cold power still starts from sym^0
    assert len(fresh._sym_cache) == 401  # each requested power, as before


def test_sym_power_needs_degree_two(tab):
    with pytest.raises(ValueError):
        tab.sym_power("W", 2)


def test_sym_power_of_doubled_trivial_character(tab):
    # the recursion is generic in degree 2: sym^2(U + U) = 3 U
    f = tab.row("U") + tab.row("U")
    assert tab.decompose(tab.sym_power(f, 2)) == {"U": 3}


def test_first_trivial_constituent_at_twelve(tab):
    mults = [
        tab.inner_product(tab.sym_power("X'", n), tab.row("U")) for n in range(13)
    ]
    assert mults[0] == Qsqrt5(1)
    assert all(m == Qsqrt5(0) for m in mults[1:12])
    assert mults[12] == Qsqrt5(1)


def test_clebsch_gordan_spot_check(tab):
    lhs = tab.sym_power("X'", 2) * tab.sym_power("X'", 3)
    rhs = (
        tab.sym_power("X'", 5) + tab.sym_power("X'", 3) + tab.sym_power("X'", 1)
    )
    assert lhs == rhs


def test_dual_fixes_every_row(tab):
    for n in IRREP_NAMES:
        assert tab.dual(tab.row(n)) == tab.row(n)


def test_galois_tau_swaps_conjugate_rows(tab):
    for n in IRREP_NAMES:
        assert tab.galois_tau(tab.row(n)) == tab.row(GALOIS_SWAPS.get(n, n))


def test_section1_identities_all_pass():
    report = verify_identities()
    assert len(report) == 11
    for r in report:
        assert r.passed, f"{r.name}: {r.detail}"


def test_decompose_rejects_negative_multiplicity(tab):
    f = tab.row("U") - tab.row("V")
    with pytest.raises(NotACharacterError) as exc:
        tab.decompose(f)
    assert "V" in str(exc.value)


def test_decompose_rejects_fractional_multiplicity(tab):
    f = Qsqrt5(1, 0, 2) * tab.row("U")
    with pytest.raises(NotACharacterError):
        tab.decompose(f)


@pytest.mark.parametrize(
    "scale, name", [(SQRT5, "U"), (GOLDEN, "V")], ids=["sqrt5*U", "golden*V"]
)
def test_decompose_rejects_irrational_multiplicity(tab, scale, name):
    f = scale * tab.row(name)
    with pytest.raises(NotACharacterError) as exc:
        tab.decompose(f)
    want = {n: tab.inner_product(f, tab.row(n)) for n in IRREP_NAMES}
    assert exc.value.coefficients == want
    assert want[name] == scale
    assert all(c == 0 for n, c in want.items() if n != name)


def test_decompose_round_trips_random_characters(tab):
    rng = random.Random(97)
    for _ in range(30):
        mults = {n: rng.randrange(4) for n in IRREP_NAMES}
        f = ClassFunction.of([0] * 9)
        for n, m in mults.items():
            f = f + m * tab.row(n)
        want = {n: m for n, m in mults.items() if m}
        assert tab.decompose(f) == want


def test_format_decomposition():
    assert format_decomposition({"X2": 1, "W''": 1}) == "X2 + W''"
    assert format_decomposition({"U": 2, "W": 1}) == "2U + W"
    assert format_decomposition({}) == "0"
