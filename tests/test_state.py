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
from colgames.core import ShapeKind, parse_move
from colgames.delay import move_pool
from colgames.games import FiniteGame, disjoin, leaf, negate, node
from colgames.recurrence import ALL_KINDS, LOOSE_RECURRENCE, OP_NAMES, TIGHT_RECURRENCE, Version, make_recurrence
from colgames.sim import Direction, translation_compound
from colgames.suite import STATIC_SUITE, SWAP_SUITE, bot_choice, first_mover_wins, leaf_top, second_mover_wins

from _util import WholeRunGame, all_stems, game_nodes, is_legal, same_position

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


@st.composite
def _offered_runs(draw, game):
    """A legal run of one to five moves, each one that ``moves`` offers
    either player in the state reached (the structural player may always
    switch)."""
    run, state = (), game.start()
    for _ in range(draw(st.integers(1, 5))):
        lm = draw(st.sampled_from([LabMove(player, move) for player in (TOP, BOT)
                                   for move in sorted(game.moves(state, player, BOUNDS))]))
        run, state = run + (lm,), game.step(state, lm)
    return run


@st.composite
def _run_pairs(draw):
    """(game, one, two): a recurrence of any kind over a random tree of
    depth <= 3, a legal run, and a second legal run.  The second is drawn
    on its own, or rewritten from the first by changes that may keep the
    position (a switch to w as one to w0 or to w without trailing zeros,
    an addressed move u.x as u0.x then u1.x) and cut at its first offence."""
    game = make_recurrence(FiniteGame("random", draw(game_nodes(3))), draw(st.sampled_from(ALL_KINDS)))
    one = draw(_offered_runs(game))
    if draw(st.booleans()):
        return game, one, draw(_offered_runs(game))
    two = ()
    for lm in one:
        sh = parse_move(lm.move)
        if sh.kind is ShapeKind.SWITCH:
            two += (LabMove(lm.label, draw(st.sampled_from((sh.address + "0", sh.address.rstrip("0"))))),)
        elif sh.kind is ShapeKind.NONREPLICATIVE and len(sh.address) < 2 and draw(st.booleans()):
            two += tuple(LabMove(lm.label, f"{sh.address}{bit}.{sh.payload}") for bit in "01")
        else:
            two += (lm,)
    off = offender(game, two)
    return game, one, two if off is None else two[: off.index]


class TestCanonicalStates:
    """A recurrence's state is canonical: two legal runs reach equal states
    exactly when they denote one position, which ``same_position`` decides
    from the runs alone."""

    @settings(max_examples=300, deadline=None)
    @given(_run_pairs())
    def test_equal_states_exactly_for_one_position(self, case):
        game, one, two = case
        assert (game.replay(one) == game.replay(two)) == same_position(game, one, two)

    @pytest.mark.parametrize("game, one, two", [
        # a switch to 0 names the root's ray, 000...
        (make_recurrence(leaf_top(), TIGHT_RECURRENCE), _run("B:", "B0"), _run("B:")),
        # b at both children of 0 is b at 0: the classes below 0 collapse
        (make_recurrence(bot_choice(), LOOSE_RECURRENCE), _run("B00.b", "B01.b"), _run("B0.b")),
        # the last of the four grandchildren collapses two levels at once
        (make_recurrence(bot_choice(), LOOSE_RECURRENCE), _run("B00.b", "B01.b", "B10.b", "B11.b"), _run("B.b")),
    ], ids=["switch-to-0-is-the-root", "both-children-are-the-parent", "four-grandchildren-are-the-root"])
    def test_one_position_one_state(self, game, one, two):
        assert same_position(game, one, two)
        assert game.replay(one) == game.replay(two)


class TestMoveQueryContract:
    """At every state the honest-pool scan reaches, ``step`` accepts a pool
    move for a label exactly when ``moves`` offers it, so the pool's runs
    cover every move within the bounds.  ``moves`` reads class tuples that
    may be shallower than the addresses it offers."""

    GAMES = [make_recurrence(base, kind) for base in STATIC_SUITE + SWAP_SUITE + (first_mover_wins(),)
             for kind in ALL_KINDS]

    # negations and disjunctions of recurrences, the translation compounds
    # among them, and recurrences of recurrences (of second_mover_wins only
    # the four that nest one kind twice: each takes up to 0.7 s at (1,3))
    COMPOSITES = (
        [negate(make_recurrence(base, kind)) for base in (bot_choice(), second_mover_wins()) for kind in ALL_KINDS]
        + [translation_compound(base, direction) for base in STATIC_SUITE + SWAP_SUITE for direction in Direction]
        + [make_recurrence(make_recurrence(bot_choice(), inner), outer) for inner in ALL_KINDS for outer in ALL_KINDS]
        + [make_recurrence(make_recurrence(second_mover_wins(), kind), kind) for kind in ALL_KINDS]
    )

    @pytest.mark.parametrize("max_address_len", [1, 2])
    @pytest.mark.parametrize("game", GAMES, ids=[game.name for game in GAMES])
    def test_step_accepts_what_moves_offers(self, game, max_address_len):
        self._assert_contract(game, EnumBounds(max_address_len, 4))

    @pytest.mark.parametrize("game", COMPOSITES, ids=[game.name for game in COMPOSITES])
    def test_step_accepts_what_moves_offers_on_composite_bases(self, game):
        self._assert_contract(game, EnumBounds(1, 3))

    @staticmethod
    def _assert_contract(game, bounds):
        pool = move_pool(game, bounds)
        level, seen = {game.start()}, set()
        for n in range(bounds.max_run_len + 1):
            seen |= level
            following = set()
            for state in level:
                for player in (TOP, BOT):
                    offered = game.moves(state, player, bounds)
                    accepted = set()
                    for move in pool:
                        after = game.step(state, LabMove(player, move))
                        if after is not None:
                            accepted.add(move)
                            following.add(after)
                    assert accepted == offered & set(pool), (state, player)
                    assert n == bounds.max_run_len or offered <= set(pool)
            level = following - seen


class TestRefutePoolStates:
    """At every state a scan over the static_refute benchmark's explicit
    pools reaches, at (2,4), ``step`` accepts and refuses each probe move
    as ``WholeRunGame`` does, and every outcome, before and after a probe,
    is its winner.  The probes are the pool, every switch and replication,
    and addressed moves of three payloads, up to two bits deeper than the
    state's classes."""

    POOLS = {Version.TIGHT: (":", "0:", "0", "0.a", "0.b"),
             Version.LOOSE: (":", "01", ".a", ".b", "0.a", "0.b")}
    BOUNDS = EnumBounds(2, 4)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[OP_NAMES[kind] for kind in ALL_KINDS])
    def test_step_judges_probes_as_the_whole_run_oracle(self, kind):
        game = make_recurrence(first_mover_wins(), kind)
        oracle = WholeRunGame(game)
        pool = self.POOLS[kind.version]
        # one run to each state, breadth-first over the pool as the scan steps it
        runs, level = {game.start(): ()}, [game.start()]
        for _ in range(self.BOUNDS.max_run_len):
            following = []
            for state in level:
                for move in (LabMove(player, m) for player in (TOP, BOT) for m in pool):
                    after = game.step(state, move)
                    if after is not None and after not in runs:
                        runs[after] = runs[state] + (move,)
                        following.append(after)
            level = following
        assert len(runs) == (7 if kind.version is Version.TIGHT else 10)
        for state, run in runs.items():
            assert game.outcome(state) is oracle.winner(run)
            stems = list(all_stems(state.depth + 2))
            probes = pool + tuple(stems) + tuple(w + ":" for w in stems) + tuple(
                f"{w}.{a}" for w in stems for a in ("a", "b", "x"))
            for move in (LabMove(player, m) for player in (TOP, BOT) for m in probes):
                after = game.step(state, move)
                assert (after is not None) == oracle.extend_legal(run, move), (run, move)
                assert after is None or game.outcome(after) is oracle.winner(run + (move,)), (run, move)
