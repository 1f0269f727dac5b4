"""Game-expression parsing, elaboration, game names, shape matching."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from colgames import TOP, BOT, Direction, EnumBounds, FiniteGame, LabMove, leaf
from colgames.dsl import (
    MAX_EXPR_DEPTH,
    Atom,
    ElaborationError,
    ExprParseError,
    Not,
    Or,
    Rec,
    elaborate,
    parse_game_expr,
)
from colgames.recurrence import ALL_KINDS, LOOSE_RECURRENCE, TIGHT_CORECURRENCE
from colgames.sim import translation_compound, translation_shape
from colgames.suite import suite_defs

from _util import is_legal

BOUNDS = EnumBounds(2, 5)

ATOM_NAMES = ["A", "B9", "leaf_top", "x_1"]
# Each atom's game is named after the atom, so a game's name is the text
# of the expression it was elaborated from.
NAMED = {name: FiniteGame(name, leaf(TOP)) for name in ATOM_NAMES}

atoms = st.sampled_from(ATOM_NAMES).map(Atom)
exprs = st.recursive(
    atoms,
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(st.sampled_from(ALL_KINDS), inner).map(lambda pair: Rec(*pair)),
        st.tuples(inner, inner).map(lambda pair: Or(*pair)),
    ),
    max_leaves=6,
)


class TestParse:
    def test_translation_compound(self):
        expr = parse_game_expr("or(cbr_t(not(A)), tbr_l(A))")
        assert expr == Or(Rec(TIGHT_CORECURRENCE, Not(Atom("A"))), Rec(LOOSE_RECURRENCE, Atom("A")))

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
        expr = parse_game_expr(text)
        name = elaborate(expr, NAMED).name
        assert name == text
        assert parse_game_expr(name) == expr

    @pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH + 1, 1200])
    def test_nesting_past_the_cap_is_a_parse_error(self, depth):
        with pytest.raises(ExprParseError):
            parse_game_expr("not(" * depth + "A" + ")" * depth)
        with pytest.raises(ExprParseError):
            parse_game_expr("or(A, " * depth + "A" + ")" * depth)

    @given(exprs)
    def test_game_name_parses_back(self, expr):
        assert parse_game_expr(elaborate(expr, NAMED).name) == expr


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
        assert is_legal(game, (LabMove(BOT, "2.0"),))
        assert not is_legal(game, (LabMove(BOT, "1.0"),))

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

    def test_kinds_outside_the_table(self):
        assert translation_shape(parse_game_expr("or(cbr_t(not(A)), tbr_t(A))")) is None
        assert translation_shape(parse_game_expr("or(tbr_t(not(A)), cbr_l(A))")) is None

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize(
        "base", ["bot_choice", "not(bot_choice)", "or(bot_choice, top_choice)", "tbr_l(alternating)"]
    )
    def test_compound_names_have_their_shape(self, base, direction):
        # translation_compound builds and translation_shape recognizes the
        # same COMPOUND_KINDS entry
        game = elaborate(parse_game_expr(base), suite_defs())
        compound = translation_compound(game, direction)
        assert translation_shape(parse_game_expr(compound.name)) == (direction, parse_game_expr(game.name))
