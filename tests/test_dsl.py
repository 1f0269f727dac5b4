"""Game-expression parsing, printing, elaboration, shape matching."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from colgames import TOP, BOT, Direction, EnumBounds, LabMove
from colgames.dsl import (
    MAX_EXPR_DEPTH,
    Atom,
    CbrL,
    CbrT,
    ElaborationError,
    ExprParseError,
    Not,
    Or,
    TbrL,
    TbrT,
    elaborate,
    format_game_expr,
    parse_game_expr,
    translation_shape,
)
from colgames.suite import suite_defs

BOUNDS = EnumBounds(2, 5)

atoms = st.sampled_from(["A", "B9", "leaf_top", "x_1"]).map(Atom)
exprs = st.recursive(
    atoms,
    lambda inner: st.one_of(
        inner.map(Not),
        inner.map(TbrT),
        inner.map(TbrL),
        inner.map(CbrT),
        inner.map(CbrL),
        st.tuples(inner, inner).map(lambda pair: Or(*pair)),
    ),
    max_leaves=6,
)


class TestParse:
    def test_translation_compound(self):
        expr = parse_game_expr("or(cbr_t(not(A)), tbr_l(A))")
        assert expr == Or(CbrT(Not(Atom("A"))), TbrL(Atom("A")))

    def test_whitespace_insensitive(self):
        assert parse_game_expr(" or ( cbr_t( not(A) ) ,\n tbr_l(A) ) ") == parse_game_expr(
            "or(cbr_t(not(A)),tbr_l(A))"
        )

    def test_unclosed_paren_reports_position(self):
        with pytest.raises(ExprParseError) as excinfo:
            parse_game_expr("tbr_t(A")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 8

    def test_unknown_operator(self):
        with pytest.raises(ExprParseError):
            parse_game_expr("tbr_x(A)")

    def test_trailing_input(self):
        with pytest.raises(ExprParseError):
            parse_game_expr("A B")

    def test_nesting_at_the_cap_parses(self):
        text = "not(" * MAX_EXPR_DEPTH + "A" + ")" * MAX_EXPR_DEPTH
        assert format_game_expr(parse_game_expr(text)) == text

    @pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH + 1, 1200])
    def test_nesting_past_the_cap_is_a_parse_error(self, depth):
        with pytest.raises(ExprParseError):
            parse_game_expr("not(" * depth + "A" + ")" * depth)
        with pytest.raises(ExprParseError):
            parse_game_expr("or(A, " * depth + "A" + ")" * depth)

    @given(exprs)
    def test_print_parse_round_trip(self, expr):
        assert parse_game_expr(format_game_expr(expr)) == expr


class TestElaborate:
    def test_atoms_resolve_against_defs(self):
        game = elaborate(parse_game_expr("leaf_top"), suite_defs())
        assert game.winner(()) is TOP

    def test_unknown_atom(self):
        with pytest.raises(ElaborationError):
            elaborate(parse_game_expr("nope"), suite_defs())

    def test_operators_compose(self):
        game = elaborate(
            parse_game_expr("or(cbr_t(not(bot_choice)), tbr_l(bot_choice))"),
            suite_defs(),
        )
        assert game.is_legal((LabMove(BOT, "2.0"),))
        assert not game.is_legal((LabMove(BOT, "1.0"),))

    def test_negation_flips_winner(self):
        game = elaborate(parse_game_expr("not(leaf_top)"), suite_defs())
        assert game.winner(()) is BOT


class TestTheoremShape:
    def test_tight_to_loose(self):
        expr = parse_game_expr("or(cbr_t(not(A)), tbr_l(A))")
        assert translation_shape(expr) == (Direction.TIGHT_TO_LOOSE, Atom("A"))

    def test_loose_to_tight(self):
        expr = parse_game_expr("or(cbr_l(not(A)), tbr_t(A))")
        assert translation_shape(expr) == (Direction.LOOSE_TO_TIGHT, Atom("A"))

    def test_non_compound(self):
        assert translation_shape(parse_game_expr("tbr_t(A)")) is None
        assert translation_shape(parse_game_expr("or(cbr_t(not(A)), tbr_l(B9))")) is None

    def test_nested_subexpression(self):
        expr = parse_game_expr("or(cbr_t(not(not(A))), tbr_l(not(A)))")
        assert translation_shape(expr) == (Direction.TIGHT_TO_LOOSE, Not(Atom("A")))
