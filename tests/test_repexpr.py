"""Expression parsing, rendering round-trips, and evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosym.chartab import IRREP_NAMES, default_table
from icosym.repexpr import (
    MAX_DEPTH,
    MAX_POWER,
    Atom,
    DimensionError,
    Dual,
    ParseError,
    Plus,
    Sym,
    Tensor,
    evaluate,
    parse,
    render,
)

TAB = default_table()


class TestParsing:
    def test_atom(self):
        assert parse("U") == Atom("U")

    @pytest.mark.parametrize("name", IRREP_NAMES)
    def test_all_names_parse(self, name):
        assert parse(name) == Atom(name)

    def test_primes_are_part_of_the_name(self):
        assert parse("X''") == Atom("X''")
        assert parse("W'") == Atom("W'")

    def test_sym(self):
        assert parse("sym^5(X')") == Sym(5, Atom("X'"))

    def test_dual(self):
        assert parse("dual(X2)") == Dual(Atom("X2"))

    def test_tensor_binds_tighter_than_plus(self):
        assert parse("U + V*W") == Plus(Atom("U"), Tensor(Atom("V"), Atom("W")))
        assert parse("U*V + W") == Plus(Tensor(Atom("U"), Atom("V")), Atom("W"))

    def test_left_associativity(self):
        assert parse("U + V + W") == Plus(Plus(Atom("U"), Atom("V")), Atom("W"))
        assert parse("U*V*W") == Tensor(Tensor(Atom("U"), Atom("V")), Atom("W"))

    def test_parens_override_precedence(self):
        assert parse("(U + V)*W") == Tensor(Plus(Atom("U"), Atom("V")), Atom("W"))

    def test_whitespace_is_free(self):
        assert parse(" sym^2( X' ) * V ") == parse("sym^2(X')*V")

    def test_nested(self):
        expr = parse("dual(sym^3(X'') + V)*X1")
        assert expr == Tensor(
            Dual(Plus(Sym(3, Atom("X''")), Atom("V"))), Atom("X1")
        )


class TestParseErrors:
    def test_unknown_name_is_reported_with_column(self):
        with pytest.raises(ParseError) as err:
            parse("U + Q")
        assert err.value.column == 5
        assert "unknown name 'Q'" in str(err.value)

    def test_line_numbers_in_multiline_input(self):
        with pytest.raises(ParseError) as err:
            parse("U +\n  Z2")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_missing_paren(self):
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse("sym^2(X'")

    def test_missing_power(self):
        with pytest.raises(ParseError, match="integer power"):
            parse("sym^(X')")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("U V")

    def test_dangling_operator(self):
        with pytest.raises(ParseError, match="expected an expression"):
            parse("U +")

    def test_stray_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("U & V")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")


class TestNestingDepth:
    def test_deepest_nesting_parses(self):
        expr = parse("(" * MAX_DEPTH + "X'" + ")" * MAX_DEPTH)
        assert expr == Atom("X'")

    @pytest.mark.parametrize(
        "opener", ["(", "sym^1(", "dual("], ids=["paren", "sym", "dual"]
    )
    def test_one_level_deeper_is_a_parse_error(self, opener):
        text = opener * (MAX_DEPTH + 1) + "X'" + ")" * (MAX_DEPTH + 1)
        with pytest.raises(ParseError, match="nested more than") as err:
            parse(text)
        assert err.value.pos == MAX_DEPTH * len(opener)

    def test_very_deep_input_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested more than"):
            parse("(" * 3000 + "U" + ")" * 3000)

    @pytest.mark.parametrize(
        "text,dim",
        [
            (" + ".join(["X'*U"] * 3000), 2 * 3000),
            ("*".join(["(X' + U)"] * 3000), 3**3000),
        ],
        ids=["sum", "product"],
    )
    def test_long_chains_evaluate_and_render(self, text, dim):
        expr = parse(text)
        assert render(expr) == text
        assert evaluate(expr).dim() == dim

    @settings(max_examples=300)
    @given(st.text(alphabet="()()+*^UVWX12'symdual ", max_size=300))
    def test_any_string_parses_or_is_a_parse_error(self, text):
        try:
            expr = parse(text)
        except ParseError:
            return
        assert parse(render(expr)) == expr


class TestPowerBound:
    def test_largest_power_parses(self):
        assert parse(f"sym^{MAX_POWER}(X')") == Sym(MAX_POWER, Atom("X'"))
        assert parse("sym^0005(X')") == Sym(5, Atom("X'"))

    @pytest.mark.parametrize(
        "power",
        [str(MAX_POWER + 1), "10000000", "9" * 5000, "0" * 5000 + str(MAX_POWER + 1)],
        ids=["one-over", "ten-million", "5000-digits", "leading-zeros"],
    )
    def test_larger_power_is_a_parse_error_at_the_power(self, power):
        text = f"U + sym^{power}(X')"
        with pytest.raises(ParseError, match=f"largest supported, {MAX_POWER}") as err:
            parse(text)
        assert err.value.pos == text.index(power)


def random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(IRREP_NAMES))
    kind = rng.choice(["sym", "dual", "tensor", "plus"])
    if kind == "sym":
        # keep arguments 2-dimensional so the tree also evaluates
        base = Atom(rng.choice(["X'", "X''"]))
        return Sym(rng.randrange(0, 6), base)
    if kind == "dual":
        return Dual(random_expr(rng, depth - 1))
    left = random_expr(rng, depth - 1)
    right = random_expr(rng, depth - 1)
    return Tensor(left, right) if kind == "tensor" else Plus(left, right)


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "U",
            "sym^5(X')",
            "dual(W')",
            "U + V*W",
            "(U + V)*W",
            "U*V*W + X1",
            "sym^2(X'')*sym^3(X')",
        ],
    )
    def test_parse_render_parse(self, text):
        expr = parse(text)
        assert parse(render(expr)) == expr

    def test_random_trees_round_trip(self):
        rng = random.Random(20260819)
        for _ in range(200):
            expr = random_expr(rng, 4)
            assert parse(render(expr)) == expr

    def test_right_nested_trees_keep_their_shape(self):
        expr = Plus(Atom("U"), Plus(Atom("V"), Atom("W")))
        assert render(expr) == "U + (V + W)"
        assert parse(render(expr)) == expr
        expr = Tensor(Atom("U"), Tensor(Atom("V"), Atom("W")))
        assert render(expr) == "U*(V*W)"
        assert parse(render(expr)) == expr


class TestEvaluation:
    def test_atom_evaluates_to_its_row(self):
        assert evaluate(parse("W'")) == TAB.row("W'")

    def test_spec_identity_sym5(self):
        assert evaluate(parse("sym^5(X')")) == TAB.row("W")

    def test_sum_and_product(self):
        f = evaluate(parse("X' * X''"))
        assert TAB.decompose(f) == {"X2": 1}
        g = evaluate(parse("X' * X'' + U"))
        assert TAB.decompose(g) == {"X2": 1, "U": 1}

    def test_dual_fixes_real_rows(self):
        for name in IRREP_NAMES:
            assert evaluate(parse(f"dual({name})")) == TAB.row(name)

    def test_sym_on_wrong_dimension_is_a_semantic_error(self):
        expr = parse("sym^2(W)")
        with pytest.raises(DimensionError, match="dimension 6"):
            evaluate(expr)

    def test_sym_accepts_composite_two_dimensional_arguments(self):
        f = evaluate(parse("sym^2(dual(X'))"))
        assert TAB.decompose(f) == {"W'": 1}

    def test_decompose_text(self):
        mults = TAB.decompose(evaluate(parse("sym^6(X')")))
        assert mults == {"W''": 1, "X2": 1}

    def test_decompose_text_spec_example(self):
        mults = TAB.decompose(evaluate(parse("sym^5(X')")))
        assert mults == {"W": 1}
