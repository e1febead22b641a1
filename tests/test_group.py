from __future__ import annotations

import random

import pytest

from icosym.group import (
    CLASS_REPS,
    IDENTITY,
    GroupTable,
    Mat,
    build_sl2f5,
    element_order,
    mdet,
    minv,
    mmul,
    mpow,
)

TABLE_SIZES = [1, 1, 12, 12, 12, 12, 30, 20, 20]
TABLE_ORDERS = [1, 2, 5, 5, 10, 10, 4, 6, 3]


def commutators_closure(elements: list[Mat]) -> set[Mat]:
    """Subgroup generated by all commutators g h g^-1 h^-1 (brute force)."""
    gens = {
        mmul(mmul(g, h), minv(mmul(h, g)))
        for g in elements
        for h in elements
    }
    closure = set(gens) | {IDENTITY}
    frontier = list(closure)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mmul(x, g)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return closure


def center(elements: list[Mat]) -> set[Mat]:
    return {
        g for g in elements if all(mmul(g, h) == mmul(h, g) for h in elements)
    }


@pytest.fixture(scope="module")
def table() -> GroupTable:
    return build_sl2f5()


def test_group_order(table):
    assert table.order == 120
    assert len(set(table.elements)) == 120


def test_every_element_unimodular(table):
    assert all(mdet(g) == 1 for g in table.elements)


def test_class_sizes_and_orders(table):
    assert [c.size for c in table.classes] == TABLE_SIZES
    assert [c.element_order for c in table.classes] == TABLE_ORDERS
    assert sum(c.size for c in table.classes) == 120


def test_class_representative_of_order_three():
    # (2 2; 4 2) cubes to the identity but does not square to it
    g = (2, 2, 4, 2)
    assert mmul(g, mmul(g, g)) == IDENTITY
    assert mmul(g, g) != IDENTITY


def test_classes_partition_group(table):
    assert set(table.class_of) == set(table.elements)
    for i, rep in enumerate(CLASS_REPS):
        assert table.class_of[rep] == i


def test_class_of_is_conjugation_invariant(table):
    rng = random.Random(20260819)
    for _ in range(500):
        g = rng.choice(table.elements)
        h = rng.choice(table.elements)
        conj = mmul(mmul(h, g), minv(h))
        assert table.class_of[conj] == table.class_of[g]


def test_power_map_well_defined_across_members(table):
    for g in table.elements:
        i = table.class_of[g]
        for k in range(table.classes[i].element_order + 1):
            assert table.class_of[mpow(g, k)] == table.class_power(i, k)


def test_specific_power_classes(table):
    # squaring the unipotent (1 1; 0 1) lands in the other unipotent class
    assert table.class_power(2, 2) == 3
    # an order-6 element squares into the order-3 class and cubes to -1
    assert table.class_power(7, 2) == 8
    assert table.class_power(7, 3) == 1
    # an order-4 element squares to -1
    assert table.class_power(6, 2) == 1


def test_all_classes_are_self_inverse(table):
    assert [table.inverse_class(i) for i in range(9)] == list(range(9))


def test_inverse_and_pow():
    g = (3, 2, 4, 3)
    assert mmul(g, minv(g)) == IDENTITY
    assert mpow(g, 6) == IDENTITY
    assert mpow(g, -1) == minv(g)
    assert element_order(g) == 6


def test_unipotent_class_split_by_square_classes(table):
    # b a nonzero square lands with (1 1; 0 1); a non-square with (1 2; 0 1)
    assert table.class_of[(1, 4, 0, 1)] == 2
    assert table.class_of[(1, 3, 0, 1)] == 3


def test_group_is_perfect(table):
    assert commutators_closure(table.elements) == set(table.elements)


def test_center_is_plus_minus_identity(table):
    assert center(table.elements) == {IDENTITY, (4, 0, 0, 4)}
