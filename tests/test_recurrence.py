"""Tight and loose (co)recurrence legality, winners and enumeration."""

from __future__ import annotations

import itertools

import pytest

from colgames import (
    BOT,
    TOP,
    EnumBounds,
    LabMove,
    NodeTree,
    Ray,
    actual_nodes,
    finite_game_interface,
    loose_extension_legal,
    make_recurrence,
    negate,
    project,
    tight_extension_legal,
)
from colgames.core import ShapeKind, parse_move
from colgames.recurrence import (
    ALL_KINDS,
    LOOSE_CORECURRENCE,
    LOOSE_RECURRENCE,
    TIGHT_CORECURRENCE,
    TIGHT_RECURRENCE,
)
from colgames.suite import STATIC_SUITE, bot_choice, first_mover_wins, leaf_bot, leaf_top, top_choice

from _util import all_runs, all_stems, first_difference

BOUNDS = EnumBounds(max_address_len=2, max_run_len=5)


def lm(label, move):
    return LabMove(label, move)


def outer_brute(nodes):
    """Outer = not a proper prefix of any other node, by direct scan."""
    return {v for v in nodes if not any(w != v and w.startswith(v) for w in nodes)}


class TestActualNodes:
    def test_empty_position(self):
        tree = actual_nodes((), BOT)
        assert tree.nodes() == {""}
        assert tree.outer() == {""}

    def test_single_replication(self):
        tree = actual_nodes((lm(BOT, ":"),), BOT)
        assert tree.nodes() == {"", "0", "1"}
        assert tree.outer() == {"0", "1"}

    def test_two_replications_with_brute_outer(self):
        tree = actual_nodes((lm(BOT, ":"), lm(BOT, "0:")), BOT)
        assert tree.nodes() == {"", "0", "1", "00", "01"}
        assert tree.outer() == {"1", "00", "01"}
        assert tree.outer() == outer_brute(tree.nodes())

    def test_only_structural_replications_count(self):
        tree = actual_nodes((lm(TOP, ":"),), BOT)
        assert tree.nodes() == {""}

    def test_random_trees_outer_matches_brute(self):
        # Grow trees by replicating arbitrary current leaves, up to 7 times.
        import random

        rng = random.Random(7)
        for _ in range(50):
            tree = NodeTree(frozenset())
            for _ in range(rng.randrange(8)):
                leaf_choice = sorted(tree.outer())[rng.randrange(len(tree.outer()))]
                tree = tree.replicate(leaf_choice)
            assert tree.outer() == outer_brute(tree.nodes())

    def test_incremental_equals_scratch(self):
        pool = [":", "0:", "1:", "0", ".a"]
        for run in all_runs(pool, 3):
            tree = NodeTree(frozenset())
            for x in run:
                sh = parse_move(x.move)
                if x.label is BOT and sh.kind is ShapeKind.REPLICATIVE:
                    tree = tree.replicate(sh.address)
            assert tree.nodes() == actual_nodes(run, BOT).nodes()


class TestTightExtension:
    def setup_method(self):
        self.base = finite_game_interface(bot_choice())

    def test_switch_to_root_by_structural(self):
        assert tight_extension_legal(self.base, (), lm(BOT, ""), BOT)

    def test_switch_by_wrong_player(self):
        assert not tight_extension_legal(self.base, (), lm(TOP, ""), BOT)

    def test_replication_only_at_outer(self):
        position = (lm(BOT, ":"),)
        assert not tight_extension_legal(self.base, position, lm(BOT, ":"), BOT)
        assert tight_extension_legal(self.base, position, lm(BOT, "0:"), BOT)
        # recomputed from scratch: the actual/outer sets after the move
        tree = actual_nodes(position, BOT)
        assert "" not in outer_brute(tree.nodes())
        assert "0" in outer_brute(tree.nodes())

    def test_addressed_move_needs_actual_node(self):
        assert tight_extension_legal(self.base, (), lm(BOT, ".b"), BOT)
        assert not tight_extension_legal(self.base, (), lm(BOT, "0.b"), BOT)

    def test_addressed_move_checks_base_along_rays(self):
        # "b" is the environment's move in the base, so the machine may not
        # play it; and a second "b" on the same ray exceeds the base tree.
        assert not tight_extension_legal(self.base, (), lm(TOP, ".b"), BOT)
        position = (lm(BOT, ".b"),)
        assert not tight_extension_legal(self.base, position, lm(BOT, ".b"), BOT)

    def test_malformed_is_illegal(self):
        assert not tight_extension_legal(self.base, (), lm(BOT, "xyz"), BOT)

    def test_corecurrence_swaps_structural_player(self):
        assert tight_extension_legal(self.base, (), lm(TOP, ""), TOP)
        assert not tight_extension_legal(self.base, (), lm(BOT, ""), TOP)


class TestLooseExtension:
    def setup_method(self):
        self.base = finite_game_interface(top_choice())

    def test_switch_to_any_bitstring(self):
        assert loose_extension_legal(self.base, (), lm(BOT, "1101"), BOT)

    def test_no_replication_clause(self):
        assert not loose_extension_legal(self.base, (), lm(BOT, ":"), BOT)

    def test_addressed_move_then_repeat_is_illegal(self):
        first = lm(TOP, "01.a")
        assert loose_extension_legal(self.base, (), first, BOT)
        assert not loose_extension_legal(self.base, (first,), first, BOT)
        # oracle: direct projection legality along every stem of length 3
        doubled = (first, first)
        verdicts = [
            self.base.is_legal(project(doubled, Ray(stem)))
            for stem in all_stems(3)
            if len(stem) == 3
        ]
        assert not all(verdicts)

    def test_switch_by_wrong_player(self):
        assert not loose_extension_legal(self.base, (), lm(TOP, "01"), BOT)


class TestWholeRunLooseDefinition:
    def test_incremental_agrees_with_whole_run_check(self):
        # The run-level definition: all moves well shaped for their author
        # and every ray-class projection legal in the base.
        base = finite_game_interface(first_mover_wins())
        game = make_recurrence(base, LOOSE_RECURRENCE)
        pool = game.probe_moves(BOUNDS)
        from colgames import ray_classes

        for run in all_runs(pool, 4):
            shapes_ok = True
            for x in run:
                sh = parse_move(x.move)
                if sh.kind is ShapeKind.SWITCH:
                    shapes_ok &= x.label is BOT
                elif sh.kind is not ShapeKind.NONREPLICATIVE:
                    shapes_ok = False
            whole = shapes_ok and all(
                base.is_legal(project(run, r)) for r in ray_classes(run, "")
            )
            assert game.is_legal(run) == whole


class TestTightProjectionInvariant:
    def test_all_ray_projections_of_legal_positions_are_legal(self):
        base = finite_game_interface(first_mover_wins())
        game = make_recurrence(base, TIGHT_RECURRENCE)
        pool = game.probe_moves(BOUNDS)
        for run in all_runs(pool, 4):
            if game.is_legal(run):
                for stem in all_stems(4):
                    assert base.is_legal(project(run, Ray(stem)))


class TestRecurrenceWinner:
    def test_leaf_trivials(self):
        assert make_recurrence(
            finite_game_interface(leaf_top()), TIGHT_RECURRENCE
        ).winner(()) is TOP
        assert make_recurrence(
            finite_game_interface(leaf_bot()), TIGHT_CORECURRENCE
        ).winner(()) is BOT

    def test_last_switch_decides(self):
        # Enumerate legal runs of <= 4 moves with <= 2 switches and check
        # the winner against an independent recomputation from the stem of
        # the last structural switch.
        base = finite_game_interface(top_choice())
        for kind in (TIGHT_RECURRENCE, LOOSE_RECURRENCE):
            game = make_recurrence(base, kind)
            pool = game.probe_moves(BOUNDS) + ("1",)
            checked = 0
            for run in all_runs(pool, 4):
                switches = [
                    x for x in run
                    if x.label is BOT and parse_move(x.move).kind is ShapeKind.SWITCH
                ]
                if len(switches) > 2 or not game.is_legal(run):
                    continue
                stem = parse_move(switches[-1].move).address if switches else ""
                assert game.winner(run) is base.winner(project(run, Ray(stem)))
                checked += 1
            assert checked > 10

    def test_two_switches_only_last_counts(self):
        base = finite_game_interface(top_choice())
        game = make_recurrence(base, LOOSE_RECURRENCE)
        run = (lm(TOP, "1.a"), lm(BOT, "1"), lm(BOT, "0"))
        assert game.is_legal(run)
        # the play on branch 1 is won by the machine, but the final switch
        # points at branch 0 where nothing happened
        assert game.winner(run) is BOT
        assert game.winner(run[:2]) is TOP


class TestLegalMoveEnumeration:
    CANDIDATE_ALPHABET = "01:.ab"

    def candidates(self, max_len=4):
        for length in range(max_len + 1):
            for chars in itertools.product(self.CANDIDATE_ALPHABET, repeat=length):
                yield "".join(chars)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("player", [TOP, BOT])
    def test_matches_extension_legality_on_candidates(self, kind, player):
        base = finite_game_interface(first_mover_wins())
        game = make_recurrence(base, kind)
        bounds = EnumBounds(max_address_len=1, max_run_len=5)
        for position in [(), (lm(kind.structural, ":"),) if kind.version.value == "tight" else (lm(kind.structural, "0"),)]:
            enumerated = game.legal_moves(position, player, bounds)
            oracle = {
                s
                for s in self.candidates()
                if len(parse_move(s).address) <= bounds.max_address_len
                and game.extend_legal(position, LabMove(player, s))
            }
            assert enumerated == oracle

    def test_tight_root_moves_exclude_unreplicated_addresses(self):
        base = finite_game_interface(bot_choice())
        game = make_recurrence(base, TIGHT_RECURRENCE)
        moves = game.legal_moves((), BOT, EnumBounds(1, 5))
        assert moves == {"", ":", ".b"}
        assert "0.b" not in moves

    def test_loose_root_moves_include_unreplicated_addresses(self):
        base = finite_game_interface(bot_choice())
        game = make_recurrence(base, LOOSE_RECURRENCE)
        moves = game.legal_moves((), BOT, EnumBounds(1, 5))
        assert {"0.b", "1.b", ".b", "", "0", "1"} <= moves
        assert ":" not in moves

    def test_every_enumerated_move_extends_legally(self):
        base = finite_game_interface(first_mover_wins())
        for kind in ALL_KINDS:
            game = make_recurrence(base, kind)
            position = ()
            for player in (TOP, BOT):
                for move in game.legal_moves(position, player, BOUNDS):
                    assert game.extend_legal(position, LabMove(player, move))


class TestDeMorgan:
    @pytest.mark.parametrize("version_pair", [
        (TIGHT_CORECURRENCE, TIGHT_RECURRENCE),
        (LOOSE_CORECURRENCE, LOOSE_RECURRENCE),
    ])
    def test_corecurrence_is_negated_recurrence_of_negation(self, version_pair):
        co_kind, rec_kind = version_pair
        for suite_game in STATIC_SUITE:
            base = finite_game_interface(suite_game)
            left = make_recurrence(base, co_kind)
            right = negate(make_recurrence(negate(base), rec_kind))
            pool = sorted(set(left.probe_moves(BOUNDS)) | set(right.probe_moves(BOUNDS)))
            assert first_difference(left, right, pool, 4) is None
