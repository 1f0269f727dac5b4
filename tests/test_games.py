"""Finite tree games, negation, disjunction, offender and won_by."""

from __future__ import annotations

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings

from colgames import (
    BOT,
    TOP,
    EnumBounds,
    FiniteGame,
    GameNode,
    LabMove,
    Offender,
    disjoin,
    leaf,
    negate,
    node,
    offender,
    split_disjunction,
    won_by,
)
from colgames.files import dump_game_defs, load_game_defs
from colgames.suite import (
    STATIC_SUITE,
    bot_choice,
    first_mover_wins,
    leaf_top,
    second_mover_wins,
    suite_defs,
    top_choice,
)

from _util import _node_at, all_runs, first_difference, game_nodes, is_legal, probe_pool

BOUNDS = EnumBounds(max_address_len=2, max_run_len=5)
SUITE_TEXT = dump_game_defs(suite_defs())


def lm(label, move):
    return LabMove(label, move)


class TestFiniteGameInterface:
    def test_leaf_game(self):
        g = leaf_top()
        assert is_legal(g, ())
        assert g.winner(()) is TOP
        assert not is_legal(g, (lm(TOP, "x"),))

    def test_child_winner(self):
        g = bot_choice()
        assert g.winner((lm(BOT, "b"),)) is BOT

    def test_winner_of_an_illegal_run_is_refused(self):
        with pytest.raises(ValueError, match="only defined on legal runs"):
            bot_choice().winner((lm(TOP, "b"),))

    @pytest.mark.parametrize("bounds", [(-1, 0), (0, -1)])
    def test_negative_bounds_are_refused(self, bounds):
        with pytest.raises(ValueError, match="non-negative"):
            EnumBounds(*bounds)

    def test_winner_defined_at_every_node(self):
        g = bot_choice()
        assert g.winner(()) is TOP  # stopping early is a completed play

    def test_duplicate_edges_rejected(self):
        child = leaf(TOP)
        with pytest.raises(ValueError):
            GameNode(TOP, ((lm(BOT, "m"), child), (lm(BOT, "m"), child)))

    def test_legal_moves_by_player(self):
        g = first_mover_wins()
        assert g.legal_moves((), TOP, BOUNDS) == {"a"}
        assert g.legal_moves((), BOT, BOUNDS) == {"b"}

    def test_prefix_closure_exhaustive(self):
        for suite_game in STATIC_SUITE:
            g = suite_game
            pool = probe_pool(g, BOUNDS)
            for run in all_runs(pool, 5):
                if is_legal(g, run):
                    for cut in range(len(run)):
                        assert is_legal(g, run[:cut])


class TestHashConsing:
    """Trees are plain values, and a finite game compiles each distinct
    subtree to one state: equal subtrees are one state, so the scans step
    each once."""

    @staticmethod
    def _tree(winner=BOT, label=TOP, move="a", flip=False):
        edges = [(lm(label, move), node(TOP, {lm(BOT, "b"): leaf(BOT)})), (lm(BOT, "b"), leaf(TOP))]
        return GameNode(winner, tuple(edges[::-1] if flip else edges))

    def test_equal_trees_built_apart_are_equal(self):
        by_helpers = node(BOT, {lm(TOP, "a"): node(TOP, {lm(BOT, "b"): leaf(BOT)}), lm(BOT, "b"): leaf(TOP)})
        by_class = self._tree()
        loaded = load_game_defs(dump_game_defs({"t": FiniteGame("t", by_class)}))["t"].root
        assert by_helpers == by_class == loaded
        assert copy.deepcopy(by_class) == pickle.loads(pickle.dumps(by_class)) == by_class

    @pytest.mark.parametrize("change", [{"winner": TOP}, {"label": BOT}, {"move": "c"}, {"flip": True}],
                             ids=["winner", "label", "move", "edge order"])
    def test_a_different_tree_is_another_object(self, change):
        assert self._tree(**change) != self._tree()

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            self._tree().winner = TOP

    @staticmethod
    def _legal_runs(root, run=()):
        yield run
        for edge, child in root.edges:
            yield from TestHashConsing._legal_runs(child, run + (edge,))

    @settings(max_examples=200, deadline=None)
    @given(game_nodes(3), game_nodes(3))
    def test_equal_subtrees_are_one_state(self, one, two):
        # a copy of one built apart, beside it, so that equal subtrees meet
        root = GameNode(BOT, ((lm(TOP, "a"), one), (lm(BOT, "b"), copy.deepcopy(one)), (lm(TOP, "c"), two)))
        game = FiniteGame("g", root)
        runs = list(self._legal_runs(root))
        states = [game.replay(run) for run in runs]
        nodes = [_node_at(root, run) for run in runs]
        for state, at in zip(states, nodes):
            assert [other == state for other in states] == [other == at for other in nodes]

    def test_shared_subtrees_are_compiled_once(self):
        # 64 levels, each node's two edges sharing one child: 2^64 paths
        current = leaf(BOT)
        for _ in range(64):
            current = GameNode(TOP, ((lm(TOP, "a"), current), (lm(BOT, "b"), current)))
        game = FiniteGame("shared", current)
        bounds = EnumBounds(0, 64)
        seen, frontier = {game.start()}, [game.start()]
        while frontier:
            state = frontier.pop()
            for player in (TOP, BOT):
                for move in game.moves(state, player, bounds):
                    after = game.step(state, lm(player, move))
                    if after not in seen:
                        seen.add(after)
                        frontier.append(after)
        assert len(seen) == 65
        end = game.replay(tuple(lm(TOP, "a") if i % 2 else lm(BOT, "b") for i in range(64)))
        assert end is not None and game.outcome(end) is BOT
        assert game.probe_moves(bounds) == ("a", "b", "x")

    def test_a_game_compares_hashes_and_prints_without_walking_paths(self):
        # the 64 levels above: a game's cost follows its states, not its 2^64 paths
        root = leaf(BOT)
        for _ in range(64):
            root = GameNode(TOP, ((lm(TOP, "a"), root), (lm(BOT, "b"), root)))
        game = FiniteGame("shared", root)
        assert hash(game) == hash(game)
        assert game == game
        assert game != FiniteGame("shared", root)
        assert repr(game) == "FiniteGame('shared')"

    @pytest.mark.parametrize("build", [second_mover_wins, lambda: load_game_defs(SUITE_TEXT)],
                             ids=["second_mover_wins", "suite defs"])
    def test_building_a_game_leaves_no_cycles(self, build):
        gc.collect()
        gc.disable()
        try:
            build()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOffender:
    def test_legal_run_has_no_offender(self):
        g = bot_choice()
        assert offender(g, (lm(BOT, "b"),)) is None

    def test_leaf_game_first_move_offends(self):
        g = leaf_top()
        assert offender(g, (lm(TOP, "x"),)) == Offender(0, TOP)

    def test_agrees_with_prefix_scan(self):
        g = first_mover_wins()
        pool = probe_pool(g, BOUNDS)
        for run in all_runs(pool, 4):
            expected = None
            for i in range(len(run)):
                if not is_legal(g, run[: i + 1]):
                    expected = Offender(i, run[i].label)
                    break
            assert offender(g, run) == expected


class TestWonBy:
    def test_leaf_trivials(self):
        g = leaf_top()
        assert won_by(g, (), TOP)
        assert won_by(g, (lm(BOT, "junk"),), TOP)  # the environment offends

    def test_first_mover_winner_table(self):
        g = first_mover_wins()
        table = {
            (): BOT,
            (lm(TOP, "a"),): TOP,
            (lm(BOT, "b"),): BOT,
            (lm(TOP, "a"), lm(BOT, "b")): TOP,
            (lm(BOT, "b"), lm(TOP, "a")): BOT,
        }
        for run, expected in table.items():
            assert won_by(g, run, expected)
            assert not won_by(g, run, TOP if expected is BOT else BOT)

    def test_exclusivity_exhaustive(self):
        for suite_game in STATIC_SUITE + (first_mover_wins(),):
            g = suite_game
            pool = probe_pool(g, BOUNDS)
            for run in all_runs(pool, 4):
                assert won_by(g, run, TOP) != won_by(g, run, BOT)


class TestNegate:
    def test_leaf(self):
        g = negate(leaf_top())
        assert g.winner(()) is BOT

    def test_legality_matches_flip_label_oracle(self):
        inner = first_mover_wins()
        neg = negate(inner)
        pool = probe_pool(inner, BOUNDS)
        for run in all_runs(pool, 3):
            flipped = tuple(LabMove(BOT if x.label is TOP else TOP, x.move) for x in run)
            assert is_legal(neg, run) == is_legal(inner, flipped)

    def test_involution_behavioral(self):
        for suite_game in STATIC_SUITE:
            g = suite_game
            double = negate(negate(g))
            assert first_difference(g, double, probe_pool(g, BOUNDS), 4) is None

    def test_legal_moves_role_swapped(self):
        g = negate(first_mover_wins())
        assert g.legal_moves((), TOP, BOUNDS) == {"b"}
        assert g.legal_moves((), BOT, BOUNDS) == {"a"}


class TestDisjoin:
    def test_winner_trivials(self):
        bot_leaf = FiniteGame("bl", leaf(BOT))
        top_leaf = leaf_top()
        assert disjoin(bot_leaf, bot_leaf).winner(()) is BOT
        assert disjoin(top_leaf, bot_leaf).winner(()) is TOP
        assert disjoin(bot_leaf, top_leaf).winner(()) is TOP

    def test_moves_need_component_prefix(self):
        g = disjoin(
            top_choice(), bot_choice()
        )
        assert is_legal(g, (lm(TOP, "1.a"),))
        assert is_legal(g, (lm(BOT, "2.b"),))
        assert not is_legal(g, (lm(TOP, "a"),))
        assert offender(g, (lm(TOP, "a"),)) == Offender(0, TOP)

    def test_legality_is_conjunction_of_components(self):
        left = top_choice()
        right = bot_choice()
        g = disjoin(left, right)
        pool = probe_pool(g, BOUNDS)
        for run in all_runs(pool, 4):
            parts = split_disjunction(run)
            expected = (
                parts is not None
                and is_legal(left, parts[0])
                and is_legal(right, parts[1])
            )
            assert is_legal(g, run) == expected

    def test_split_concatenation_identity(self):
        # Splitting then re-tagging each component reproduces the original
        # interleaving move for move; checked against an independent splitter.
        left = top_choice()
        right = bot_choice()
        g = disjoin(left, right)
        pool = probe_pool(g, BOUNDS)
        for run in all_runs(pool, 5):
            parts = split_disjunction(run)
            oracle_first = tuple(
                LabMove(x.label, x.move[2:]) for x in run if x.move.startswith("1.")
            )
            oracle_second = tuple(
                LabMove(x.label, x.move[2:]) for x in run if x.move.startswith("2.")
            )
            if parts is None:
                assert any(not x.move.startswith(("1.", "2.")) for x in run)
            else:
                assert parts == (oracle_first, oracle_second)

    def test_a_move_without_a_component_prefix_does_not_split(self):
        assert split_disjunction((lm(TOP, "1.a"), lm(BOT, "b"))) is None
        assert split_disjunction((lm(BOT, "3.b"),)) is None

    def test_legal_moves_are_prefixed_union(self):
        g = disjoin(
            top_choice(), bot_choice()
        )
        assert g.legal_moves((), TOP, BOUNDS) == {"1.a"}
        assert g.legal_moves((), BOT, BOUNDS) == {"2.b"}
