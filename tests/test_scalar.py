from __future__ import annotations

import copy
import pickle
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosym.scalar import GOLDEN, GOLDEN_CONJ, ONE, SQRT5, ZERO, Qsqrt5, parse, render

# hand-derived frozen values: phi = (1+√5)/2 satisfies phi² = phi + 1 = (3+√5)/2,
# phi·(−1+√5)/2 = (−1+5−√5+√5)/4 = 1, and (√5)·(√5/5) = 1
PHI_SQUARED = Qsqrt5(Fraction(3, 2), Fraction(1, 2))
PHI_INVERSE = Qsqrt5(Fraction(-1, 2), Fraction(1, 2))
SQRT5_INVERSE = Qsqrt5(0, Fraction(1, 5))


def test_golden_ratio_square():
    assert GOLDEN * GOLDEN == PHI_SQUARED
    assert GOLDEN * GOLDEN == GOLDEN + 1


def test_golden_ratio_inverse():
    assert GOLDEN.inv() == PHI_INVERSE
    assert GOLDEN * GOLDEN.inv() == ONE


def test_sqrt5_inverse():
    assert SQRT5.inv() == SQRT5_INVERSE
    assert SQRT5 * SQRT5 == Qsqrt5(5)


def test_conjugate_swaps_golden_pair():
    assert GOLDEN.conj() == GOLDEN_CONJ
    assert GOLDEN_CONJ.conj() == GOLDEN
    assert GOLDEN + GOLDEN_CONJ == ONE
    assert GOLDEN * GOLDEN_CONJ == Qsqrt5(-1)


def test_norm_is_product_with_conjugate():
    x = Qsqrt5(Fraction(7, 3), Fraction(-2, 5))
    assert x * x.conj() == Qsqrt5(x.norm())


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        Qsqrt5(0, 0).inv()


def test_mixed_arithmetic_with_rationals():
    assert 1 + SQRT5 == Qsqrt5(1, 1)
    assert Fraction(1, 2) * SQRT5 == Qsqrt5(0, Fraction(1, 2))
    assert 2 - GOLDEN == Qsqrt5(Fraction(3, 2), Fraction(-1, 2))
    assert 1 / SQRT5 == SQRT5_INVERSE
    assert GOLDEN ** -1 == PHI_INVERSE
    assert GOLDEN ** 0 == ONE


def test_equality_and_hash_against_rationals():
    assert Qsqrt5(3) == 3
    assert Qsqrt5(Fraction(1, 2)) == Fraction(1, 2)
    assert Qsqrt5(3) != Qsqrt5(3, 1)
    assert hash(Qsqrt5(3)) == hash(3)
    assert hash(Qsqrt5(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_immutability():
    with pytest.raises(AttributeError):
        GOLDEN.a = Fraction(0)  # type: ignore[misc]


@pytest.mark.parametrize(
    "round_trip",
    [
        copy.copy,
        copy.deepcopy,
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    ],
    ids=["copy", "deepcopy", "pickle", "pickle-protocol-0"],
)
def test_copy_and_pickle_round_trip(round_trip):
    for x in (GOLDEN, SQRT5, ZERO, Qsqrt5(Fraction(7, 11), -3), Qsqrt5(10**30, 1)):
        y = round_trip(x)
        assert y == x and hash(y) == hash(x)
        assert (y.p, y.q, y.d) == (x.p, x.q, x.d)
    # small values come back as the shared instances
    assert round_trip(GOLDEN) is GOLDEN
    assert round_trip(ZERO) is ZERO


@pytest.mark.parametrize(
    "value,text",
    [
        (ZERO, "0"),
        (Qsqrt5(Fraction(3, 2)), "3/2"),
        (Qsqrt5(-1), "-1"),
        (SQRT5, "√5"),
        (-SQRT5, "-√5"),
        (Qsqrt5(0, Fraction(2, 3)), "2/3√5"),
        (GOLDEN, "1/2 + 1/2√5"),
        (GOLDEN_CONJ, "1/2 - 1/2√5"),
        (Qsqrt5(-2, -3), "-2 - 3√5"),
    ],
)
def test_render_fixed_forms(value, text):
    assert render(value) == text
    assert parse(text) == value


def test_parse_accepts_ascii_surd():
    assert parse("1/2 + 1/2sqrt5") == GOLDEN
    assert parse("sqrt5") == SQRT5
    assert parse("-3sqrt5") == Qsqrt5(0, -3)


@pytest.mark.parametrize("bad", ["", "x", "1 +", "√7", "1/0", "2 2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse(bad)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
scalars = st.builds(Qsqrt5, rationals, rationals)


@settings(max_examples=200)
@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=200)
@given(scalars, scalars)
def test_conjugation_is_a_field_automorphism(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


@settings(max_examples=200)
@given(scalars)
def test_inverse_and_render_round_trip(x):
    if not x.is_zero():
        assert x * x.inv() == ONE
    assert parse(render(x)) == x


# -- the integer representation against a Fraction-pair reference model -----


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 5 * b * d, a * d + b * c


def ref_inv(x):
    a, b = x
    n = a * a - 5 * b * b
    return a / n, -b / n


def assert_matches(x: Qsqrt5, ref: tuple[Fraction, Fraction]) -> None:
    """*x* is in lowest terms and equals the reference pair ``a + b√5``."""
    assert all(type(v) is int for v in (x.p, x.q, x.d))
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1
    assert (x.a, x.b) == ref


pairs = st.tuples(rationals, rationals)


@settings(max_examples=200)
@given(pairs, pairs, rationals, st.integers(-10**6, 10**6), st.integers(-4, 6))
def test_arithmetic_matches_the_fraction_model(xr, yr, r, k, n):
    x, y = Qsqrt5(*xr), Qsqrt5(*yr)
    assert_matches(x, xr)
    assert_matches(x + y, (xr[0] + yr[0], xr[1] + yr[1]))
    assert_matches(x - y, (xr[0] - yr[0], xr[1] - yr[1]))
    assert_matches(x * y, ref_mul(xr, yr))
    assert_matches(-x, (-xr[0], -xr[1]))
    assert_matches(x.conj(), (xr[0], -xr[1]))
    assert x.norm() == xr[0] ** 2 - 5 * xr[1] ** 2
    if yr != (0, 0):
        assert_matches(y.inv(), ref_inv(yr))
        assert_matches(x / y, ref_mul(xr, ref_inv(yr)))
    for c in (r, k):
        assert_matches(x + c, (xr[0] + c, xr[1]))
        assert_matches(c - x, (c - xr[0], -xr[1]))
        assert_matches(c * x, (c * xr[0], c * xr[1]))
        if c != 0:
            assert_matches(x / c, (xr[0] / c, xr[1] / c))
    if n >= 0 or xr != (0, 0):
        power = (Fraction(1), Fraction(0))
        for _ in range(abs(n)):
            power = ref_mul(power, xr)
        assert_matches(x**n, ref_inv(power) if n < 0 else power)


@settings(max_examples=200)
@given(pairs, st.integers(min_value=1, max_value=50))
def test_normal_form_repr_and_parse(xr, k):
    x = Qsqrt5(*xr)
    scaled = Qsqrt5.from_ints(-k * x.p, -k * x.q, -k * x.d)
    assert (scaled.p, scaled.q, scaled.d) == (x.p, x.q, x.d)
    assert scaled == x and hash(scaled) == hash(x)
    assert repr(x) == f"Qsqrt5({xr[0]!r}, {xr[1]!r})"
    assert eval(repr(x), {"Qsqrt5": Qsqrt5, "Fraction": Fraction}) == x
    assert parse(render(x)) == x


@settings(max_examples=200)
@given(rationals)
def test_rational_hash_and_equality_agree_with_fraction(r):
    x = Qsqrt5(r)
    assert x == r and r == x
    assert hash(x) == hash(r)
    if r.denominator == 1:
        assert x == int(r) and hash(x) == hash(int(r))


def test_hash_where_the_denominator_has_no_inverse_modulo_the_hash_prime():
    modulus = sys.hash_info.modulus
    for r in (Fraction(3, modulus), Fraction(-5, 2 * modulus)):
        assert hash(Qsqrt5(r)) == hash(r)


def test_from_ints_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Qsqrt5.from_ints(1, 1, 0)


def test_arithmetic_and_the_tower_build_no_fraction(monkeypatch):
    from icosym.chartab import CharacterTable, default_table

    group = default_table().group

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    x, y = GOLDEN + 3, SQRT5 - Qsqrt5.from_ints(1, 0, 3)
    for value in (x + y, x - y, x * y, x / y, 2 / x, x ** 5, y ** -3, x.conj(),
                  x.inv(), -y, 1 - x):
        hash(value), value == y
    tab = CharacterTable(group)
    assert tab.decompose(tab.sym_power("X'", 60)).get("U") == 2
