from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosym.chartab import ClassFunction
from icosym.scalar import GOLDEN, GOLDEN_CONJ, ONE, SQRT5, ZERO, Qsqrt5, render

# hand-derived frozen values: phi = (1+√5)/2 satisfies phi² = phi + 1 = (3+√5)/2,
# phi·(−1+√5)/2 = (−1+5−√5+√5)/4 = 1, and (√5)·(√5/5) = 1
PHI_SQUARED = Qsqrt5(3, 1, 2)
PHI_INVERSE = Qsqrt5(-1, 1, 2)
SQRT5_INVERSE = Qsqrt5(0, 1, 5)


def from_pair(a: Fraction, b: Fraction) -> Qsqrt5:
    """The element ``a + b√5`` of the Fraction-pair reference model."""
    return Qsqrt5(a.numerator * b.denominator, b.numerator * a.denominator,
                  a.denominator * b.denominator)


NUMBER = r"\d+(?:/\d+)?"


def parse(text: str) -> Qsqrt5:
    """The round trip's reader of what ``render`` writes: ``a``, ``[-]b√5`` or
    ``a ± b√5``, each of ``a`` and ``b`` an int or ``n/d``; written here, so
    that ``render`` is checked against a reader the package does not ship."""
    match = re.fullmatch(rf"(-?{NUMBER})|(?:(-?{NUMBER}) ([+-]) |(-?))({NUMBER})?√5", text)
    if match is None:
        raise ValueError(f"not a rendered scalar: {text!r}")
    rational, a, op, sign, coef = match.groups()
    try:
        if rational is not None:
            return from_pair(Fraction(rational), Fraction(0))
        b = Fraction(coef or 1)
        return from_pair(Fraction(a or 0), -b if "-" in (op, sign) else b)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        Qsqrt5(0, 0).inv()


def test_mixed_arithmetic_with_rationals():
    assert 1 + SQRT5 == Qsqrt5(1, 1)
    assert Qsqrt5(1, 0, 2) * SQRT5 == Qsqrt5(0, 1, 2)
    assert GOLDEN - 2 == Qsqrt5(-3, 1, 2)
    assert SQRT5 / 5 == SQRT5_INVERSE


def test_equality_and_hash_against_rationals():
    assert Qsqrt5(3) == 3 and 3 == Qsqrt5(3)
    assert Qsqrt5(3) != Qsqrt5(3, 1)
    assert Qsqrt5(6, 0, 2) == 3 and Qsqrt5(3, 0, 2) != 1
    assert hash(Qsqrt5(3)) == hash(3)
    assert hash(Qsqrt5(-4, 0, -2)) == hash(2)


def test_immutability():
    with pytest.raises(AttributeError):
        GOLDEN.p = 0  # type: ignore[misc]


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
    for x in (GOLDEN, SQRT5, ZERO, Qsqrt5(7, -33, 11), Qsqrt5(10**30, 1)):
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
        (Qsqrt5(3, 0, 2), "3/2"),
        (Qsqrt5(-1), "-1"),
        (SQRT5, "√5"),
        (-SQRT5, "-√5"),
        (Qsqrt5(0, 2, 3), "2/3√5"),
        (GOLDEN, "1/2 + 1/2√5"),
        (GOLDEN_CONJ, "1/2 - 1/2√5"),
        (Qsqrt5(-2, -3), "-2 - 3√5"),
    ],
)
def test_render_fixed_forms(value, text):
    assert render(value) == text
    assert parse(text) == value


@pytest.mark.parametrize("bad", ["", "x", "1 +", "√7", "1/0", "2 2"])
def test_parse_rejects_garbage(bad):
    # the round trip proves something only if its reader is strict
    with pytest.raises(ValueError):
        parse(bad)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
scalars = st.builds(from_pair, rationals, rationals)


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
    if x:
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
    assert (Fraction(x.p, x.d), Fraction(x.q, x.d)) == ref


pairs = st.tuples(rationals, rationals)


@settings(max_examples=200)
@given(pairs, pairs, rationals, st.integers(-10**6, 10**6))
def test_arithmetic_matches_the_fraction_model(xr, yr, r, k):
    x, y = from_pair(*xr), from_pair(*yr)
    assert_matches(x, xr)
    assert_matches(x + y, (xr[0] + yr[0], xr[1] + yr[1]))
    assert_matches(x - y, (xr[0] - yr[0], xr[1] - yr[1]))
    assert_matches(x * y, ref_mul(xr, yr))
    assert_matches(-x, (-xr[0], -xr[1]))
    assert_matches(x.conj(), (xr[0], -xr[1]))
    if yr != (0, 0):
        assert_matches(y.inv(), ref_inv(yr))
        assert_matches(x / y, ref_mul(xr, ref_inv(yr)))
    for c, cx in ((r, from_pair(r, Fraction(0))), (k, k)):
        assert_matches(x + cx, (xr[0] + c, xr[1]))
        assert_matches(x - cx, (xr[0] - c, xr[1]))
        assert_matches(cx * x, (c * xr[0], c * xr[1]))
        if c != 0:
            assert_matches(x / cx, (xr[0] / c, xr[1] / c))


@settings(max_examples=200)
@given(pairs, st.integers(min_value=1, max_value=50))
def test_normal_form_repr_and_parse(xr, k):
    x = from_pair(*xr)
    scaled = Qsqrt5(-k * x.p, -k * x.q, -k * x.d)
    assert (scaled.p, scaled.q, scaled.d) == (x.p, x.q, x.d)
    assert scaled == x and hash(scaled) == hash(x)
    assert repr(x) == f"Qsqrt5({x.p}, {x.q}, {x.d})"
    assert eval(repr(x), {"Qsqrt5": Qsqrt5}) == x
    assert parse(render(x)) == x


@settings(max_examples=200)
@given(st.integers(), st.integers(min_value=1, max_value=50))
def test_hash_and_equality_agree_with_int(n, k):
    x = Qsqrt5(n * k, 0, k)
    assert x == n and n == x
    assert hash(x) == hash(n)
    assert x != n + 1 and Qsqrt5(n, 1) != n


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), Fraction(2), "3/2", None, 1j])
def test_constructor_takes_ints_only(bad):
    with pytest.raises(TypeError):
        Qsqrt5(bad)
    with pytest.raises(TypeError):
        Qsqrt5(1, bad)
    with pytest.raises(TypeError):
        Qsqrt5(1, 1, bad)
    with pytest.raises(TypeError):
        ClassFunction.of([bad] * 9)
    assert GOLDEN.__eq__(bad) is NotImplemented
    assert GOLDEN.__add__(bad) is NotImplemented


def test_constructor_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Qsqrt5(1, 1, 0)
    with pytest.raises(ZeroDivisionError):
        Qsqrt5(0, 0, 0)


def test_constructor_reduces_and_shares_small_values():
    assert Qsqrt5() is ZERO and Qsqrt5(2, 2, 4) is GOLDEN
    x = Qsqrt5(3, -6, -9)
    assert (x.p, x.q, x.d) == (-1, 2, 3)
    assert Qsqrt5(True) is ONE


def test_arithmetic_and_the_tower_build_no_fraction(monkeypatch):
    from icosym.chartab import CharacterTable, default_table

    group = default_table().group

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    x, y = GOLDEN + 3, SQRT5 - Qsqrt5(1, 0, 3)
    for value in (x + y, x - y, x * y, x / y, x / 2, x.conj(), x.inv(), -y, x - 1):
        hash(value), value == y
    tab = CharacterTable(group)
    assert tab.decompose(tab.sym_power("X'", 60)).get("U") == 2
