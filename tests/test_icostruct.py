from __future__ import annotations

import pytest

from icosym import rules
from icosym.chartab import IRREP_NAMES, CharacterTable
from icosym.icostruct import (
    IcoIrrep,
    base_parity,
    classify_irreps,
    dim_irrep,
    dual_irrep,
    generator_family,
    is_self_dual,
    scan_trivial,
    sym_power_irrep,
    twist_equivalent,
    validate_irrep,
)
from icosym.verify import all_passed, verify_generators

SPIN_ROWS = {"X'", "X''", "X1", "W"}


def test_base_parities():
    for name in IRREP_NAMES:
        assert base_parity(name) == (1 if name in SPIN_ROWS else 0)


@pytest.mark.parametrize("m", range(1, 9))
def test_classification_counts(m):
    irreps = classify_irreps(m)
    assert len(irreps) == 9 * m
    assert sum(dim_irrep(r) ** 2 for r in irreps) == 120 * m
    by_row = {}
    for r in irreps:
        by_row.setdefault(r.base, []).append(r.exponent)
    assert set(by_row) == set(IRREP_NAMES)
    assert all(len(v) == m for v in by_row.values())


def test_m_equals_one_is_the_plain_table():
    irreps = classify_irreps(1)
    assert len(irreps) == 9
    assert {r.base for r in irreps} == set(IRREP_NAMES)
    for r in irreps:
        assert r.exponent == (1 if r.base in SPIN_ROWS else 0)


def test_validate_rejects_parity_mismatch():
    with pytest.raises(ValueError):
        validate_irrep(IcoIrrep("X'", 0), 2)
    with pytest.raises(ValueError):
        validate_irrep(IcoIrrep("U", 1), 2)
    with pytest.raises(ValueError):
        validate_irrep(IcoIrrep("U", 4), 2)
    validate_irrep(IcoIrrep("W", 3), 2)


def test_twist_equivalence_is_same_row():
    assert twist_equivalent(IcoIrrep("X'", 1), IcoIrrep("X'", 3), 2)
    assert not twist_equivalent(IcoIrrep("X'", 1), IcoIrrep("X''", 1), 2)


def test_duality_negates_exponent():
    assert dual_irrep(IcoIrrep("X'", 1), 2) == IcoIrrep("X'", 3)
    assert dual_irrep(IcoIrrep("U", 2), 3) == IcoIrrep("U", 4)


def test_duality_reads_no_table_row(monkeypatch):
    # row self-duality is verify_table's check, not a cost per irreducible
    def refuse(self, f):
        raise AssertionError("dual_irrep computed a dual row")

    monkeypatch.setattr(CharacterTable, "dual", refuse)
    irreps = classify_irreps(40)
    assert sum(is_self_dual(r, 40) for r in irreps) == 2 * 5


@pytest.mark.parametrize(
    "r,m,want",
    [
        (IcoIrrep("X'", 1), 1, True),
        (IcoIrrep("X'", 1), 2, False),
        (IcoIrrep("X'", 3), 3, True),
        (IcoIrrep("U", 0), 5, True),
        (IcoIrrep("W'", 2), 2, True),
        (IcoIrrep("W'", 2), 3, False),
    ],
)
def test_self_duality(r, m, want):
    assert is_self_dual(r, m) is want


def test_sym_power_attaches_scaled_exponent():
    assert sym_power_irrep(IcoIrrep("X'", 1), 5, 3) == {IcoIrrep("W", 5): 1}
    assert sym_power_irrep(IcoIrrep("X''", 1), 2, 3) == {IcoIrrep("W''", 2): 1}
    # exponent reduction mod 2m
    assert sym_power_irrep(IcoIrrep("X'", 1), 6, 1) == {
        IcoIrrep("W''", 0): 1,
        IcoIrrep("X2", 0): 1,
    }


def test_sym_power_rejects_higher_dimensional_input():
    with pytest.raises(ValueError):
        sym_power_irrep(IcoIrrep("W'", 0), 2, 1)


@pytest.mark.parametrize("m", range(1, 5))
def test_sym_power_parities_consistent(m):
    lam = IcoIrrep("X'", 1)
    for n in range(31):
        for r in sym_power_irrep(lam, n, m):
            validate_irrep(r, m)


def test_scan_trivial_frozen_values():
    scan = scan_trivial(30)
    nonzero = {n: v for n, v in scan.items() if v}
    assert nonzero == {0: 1, 12: 1, 20: 1, 24: 1, 30: 1}
    assert all(scan[n] == 0 for n in range(1, 12))


def test_self_dual_two_dim_report():
    # The 'no self-dual 2-dimensional irrep' claim holds exactly for even m:
    # a 2-dimensional (row, a) has a odd, and self-duality needs a in {0, m}.
    def self_dual_two_dim(m):
        return {
            r for r in classify_irreps(m) if dim_irrep(r) == 2 and is_self_dual(r, m)
        }

    assert not self_dual_two_dim(2)
    assert self_dual_two_dim(1) == {IcoIrrep("X'", 1), IcoIrrep("X''", 1)}
    assert self_dual_two_dim(3) == {IcoIrrep("X'", 3), IcoIrrep("X''", 3)}


@pytest.mark.parametrize("m", range(1, 5))
def test_generator_family_covers_all_rows(m):
    gens = generator_family(m)
    assert sorted(g.base for g in gens.values()) == sorted(IRREP_NAMES)
    assert gens["sym^5(Lam)"].base == "W"
    assert gens["Lam*Lam'"].base == "X2"
    assert gens["sym^4(Lam)"].base == "V"


def test_a_wrong_row_in_the_generator_table_fails(monkeypatch):
    # swap the rows of sym^3(pi) and box(pi, pi^tau): still nine distinct
    # rows, each generator still irreducible, but the table is wrong
    gens = rules.GENERATORS
    x1, x2 = gens[5:7]
    assert (x1.row, x2.row) == ("X1", "X2")
    swapped = (
        rules.Generator(x1.a, x1.b, "X2", x1.rule), rules.Generator(x2.a, x2.b, "X1", x2.rule)
    )
    monkeypatch.setattr(rules, "GENERATORS", gens[:5] + swapped + gens[7:])
    with pytest.raises(RuntimeError) as err:
        generator_family(8)
    assert str(err.value) == "sym^3(Lam) decomposes as {'X1': 1}, not as the row X2"
    failed = [r.name for r in verify_generators(8) if not r.passed]
    assert failed == ["m=8: generator family"]


def test_verify_generators_keeps_only_what_no_other_check_makes():
    # counts, twist classes and degree sums are verify_classification's
    assert [r.name for r in verify_generators(8)] == [
        "m=8: generator family",
        "m=8: sym^3(Lam) ~ sym^3(Lam')",
        "m=8: sym^4(Lam) ~ sym^4(Lam')",
        "m=8: sym^5(Lam) ~ sym^5(Lam')",
        "m=8: sym^5(Lam) ~ Lam' * sym^2(Lam)",
        "m=8: sym^5(Lam) ~ Lam * sym^2(Lam')",
    ]


@pytest.mark.parametrize("m", range(1, 9))
def test_verify_generators_all_pass(m):
    report = verify_generators(m)
    assert all_passed(report), [r for r in report if not r.passed]
