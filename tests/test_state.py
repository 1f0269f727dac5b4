"""Each constructor's state machine against the whole-run oracle.

``start``/``step``/``outcome`` must judge every run as ``WholeRunGame``
does, which re-reads the whole run at every move: the same first
offender, the same winner of every legal prefix, and the same legal
moves at the position reached.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from colgames import BOT, TOP, EnumBounds, LabMove, offender
from colgames.delay import move_pool
from colgames.games import FiniteGame, disjoin, leaf, negate, node
from colgames.recurrence import ALL_KINDS, LOOSE_RECURRENCE, TIGHT_RECURRENCE, make_recurrence

from _util import WholeRunGame, game_nodes, is_legal

# A finite tree's moves are its alphabet plus a junk move; a recurrence's
# are every probe-move shape at addresses of length <= 2 over its base's
# moves, and a disjunction's are its components' moves under 1. and 2.
_JUNK = "x"
_BASE_MOVES = ("a", "b", "c", _JUNK)
_ADDRESSES = ("", "0", "1", "00", "01", "10", "11")
_OPERATORS = ("tree", "not", "or") + tuple(ALL_KINDS)

BOUNDS = EnumBounds(max_address_len=2, max_run_len=6)


@st.composite
def _games(draw, layers):
    """(game, moves): a random finite tree of depth <= 3 under at most
    ``layers`` nested constructors, and the moves to draw runs from."""
    op = draw(st.sampled_from(_OPERATORS)) if layers else "tree"
    if op == "tree":
        return FiniteGame("random", draw(game_nodes(3))), _BASE_MOVES
    inner, moves = draw(_games(layers - 1))
    if op == "not":
        return negate(inner), moves
    if op == "or":
        right, right_moves = draw(_games(layers - 1))
        moves = tuple("1." + m for m in moves) + tuple("2." + m for m in right_moves)
        return disjoin(inner, right), moves + (_JUNK,)
    moves = (
        _ADDRESSES[1:]
        + tuple(w + ":" for w in _ADDRESSES)
        + tuple(f"{w}.{m}" for w in _ADDRESSES for m in moves)
    )
    return make_recurrence(inner, op), moves + (_JUNK,)


@st.composite
def _cases(draw):
    """(game, run): five moves, each in three of four draws one the oracle
    offers at the position reached, else any move of the game's universe,
    so that long legal runs and offences at every length both occur."""
    game, moves = draw(_games(2))
    oracle = WholeRunGame(game)
    run = ()
    for _ in range(5):
        offered = []
        if is_legal(oracle, run):
            offered = [LabMove(player, m) for player in (TOP, BOT)
                       for m in sorted(oracle.legal_moves(run, player, BOUNDS))]
        if offered and draw(st.integers(0, 3)) < 3:
            run += (draw(st.sampled_from(offered)),)
        else:
            run += (LabMove(draw(st.sampled_from((TOP, BOT))), draw(st.sampled_from(moves))),)
    return game, run


class TestStateMachineAgainstWholeRun:
    @settings(max_examples=200, deadline=None)
    @given(_cases())
    def test_equals_whole_run_oracle(self, case):
        game, run = case
        oracle = WholeRunGame(game)
        off = offender(game, run)
        assert off == offender(oracle, run)
        legal = run if off is None else run[: off.index]
        for n in range(len(legal) + 1):
            assert game.winner(legal[:n]) is oracle.winner(legal[:n])
        for player in (TOP, BOT):
            assert game.legal_moves(legal, player, BOUNDS) == oracle.legal_moves(legal, player, BOUNDS)


class TestMovePool:
    @settings(max_examples=60, deadline=None)
    @given(_games(1), st.integers(0, 2), st.integers(0, 3))
    def test_every_offered_move_and_a_junk_move(self, drawn, max_address_len, max_run_len):
        # the pool is the union of the oracle's legal moves, for both
        # players, after every run of offered moves shorter than the bound,
        # and its last move is one no such run may be extended by.  One
        # constructor over a tree: the oracle takes about 15 s on a loose
        # recurrence of a loose recurrence at (2,2), and nested move
        # answers are compared with it in the test above
        game, _ = drawn
        bounds = EnumBounds(max_address_len, max_run_len)
        oracle = WholeRunGame(game)
        runs, offered = [], set()
        level = [()] if max_run_len else []
        while level:
            runs += level
            following = []
            for run in level:
                for player in (TOP, BOT):
                    moves = oracle.legal_moves(run, player, bounds)
                    offered |= moves
                    if len(run) + 1 < max_run_len:
                        following += [run + (LabMove(player, m),) for m in moves]
            level = following
        pool = move_pool(game, bounds)
        assert pool[:-1] == tuple(sorted(offered))
        junk = pool[-1]
        assert junk not in offered
        for run in runs:
            for player in (TOP, BOT):
                assert not oracle.extend_legal(run, LabMove(player, junk))


# B wins at the root; T's move a wins for T and B's move b for B.
_A_OR_B = FiniteGame("a_or_b", node(BOT, {LabMove(TOP, "a"): leaf(TOP), LabMove(BOT, "b"): leaf(BOT)}))


def _run(*moves):
    return tuple(LabMove(TOP if text[0] == "T" else BOT, text[1:]) for text in moves)


class TestRayClasses:
    """Runs whose projections differ between ray classes, so that a class
    split, the choice of classes a move steps, or the class the outcome
    reads shows in the offender or the winner."""

    @pytest.mark.parametrize("kind, run, winner", [
        # the switch to 1 decides along 1000..., the class keyed 10
        (LOOSE_RECURRENCE, _run("B1", "T10.a"), TOP),
        (TIGHT_RECURRENCE, _run("B:", "B1:", "B1", "T10.a"), TOP),
        # a split copies each class into its own children: 01 stays at
        # the root after 1.a, while 10 and 11 hold a
        (LOOSE_RECURRENCE, _run("T1.a", "B00.b", "B01"), BOT),
        (LOOSE_RECURRENCE, _run("T1.a", "B00.b", "B11"), TOP),
        # 0.a steps only the classes below 0, so 1.b stays legal
        (LOOSE_RECURRENCE, _run("T0.a", "B1.b", "B1"), BOT),
        (TIGHT_RECURRENCE, _run("B:", "T0.a", "B1.b"), TOP),
    ])
    def test_projections_of_different_classes(self, kind, run, winner):
        game = make_recurrence(_A_OR_B, kind)
        assert offender(game, run) is None
        assert game.winner(run) is winner
        assert offender(WholeRunGame(game), run) is None
        assert WholeRunGame(game).winner(run) is winner
