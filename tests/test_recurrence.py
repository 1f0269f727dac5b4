"""Tight and loose (co)recurrence legality, winners and enumeration."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from colgames import (
    BOT,
    TOP,
    EnumBounds,
    FiniteGame,
    LabMove,
    NodeTree,
    PreconditionError,
    Ray,
    actual_nodes,
    disjoin,
    loose_extension_legal,
    make_recurrence,
    negate,
    project,
    tight_extension_legal,
)
from colgames.core import ShapeKind, parse_move
from colgames.delay import _StateScan, move_pool, static_and_lemma
from colgames.recurrence import (
    ALL_KINDS,
    LOOSE_CORECURRENCE,
    LOOSE_RECURRENCE,
    MAX_ADDRESS_BITS,
    TIGHT_CORECURRENCE,
    TIGHT_RECURRENCE,
    _nodes_of,
    _outer_of,
)
from colgames.suite import (
    STATIC_SUITE,
    bot_choice,
    first_mover_wins,
    leaf_bot,
    leaf_top,
    suite_defs,
    top_choice,
)

from _util import all_runs, all_stems, first_difference, game_nodes, is_legal, probe_pool

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
                if x.label is BOT and sh.kind is ShapeKind.REPLICATIVE and sh.address in tree.outer():
                    tree = tree.replicate(sh.address)
            assert tree.nodes() == actual_nodes(run, BOT).nodes()

    @pytest.mark.parametrize("moves, nodes", [
        # 0 is not yet a node, so 0: replicates nothing
        (("0:",), {""}),
        # 00 is not yet a node, nor is 1 before the root is replicated
        ((":", "00:"), {"", "0", "1"}),
        (("1:", ":"), {"", "0", "1"}),
        # the root is no longer outer after the first :
        ((":", ":"), {"", "0", "1"}),
        ((":", ":", "1:"), {"", "0", "1", "10", "11"}),
        # the second 0: finds 0 no longer outer
        ((":", "0:", "0:"), {"", "0", "1", "00", "01"}),
    ])
    def test_replications_off_the_outer_nodes_do_not_count(self, moves, nodes):
        tree = actual_nodes(tuple(lm(BOT, m) for m in moves), BOT)
        assert tree.nodes() == nodes
        assert tree.outer() == outer_brute(nodes)

    def test_equals_the_tight_games_tree_on_legal_runs(self):
        game = make_recurrence(bot_choice(), TIGHT_RECURRENCE)
        pool = [":", "0:", "1:", "00:", "0", "1", ".b", "0.b"]
        for run in all_runs(pool, 3):
            state = game.replay(run)
            if state is not None:
                assert actual_nodes(run, BOT) == state.tree, run

    @pytest.mark.parametrize("grown, w", [
        (("", "0"), ""),  # inner: the root, with grandchildren
        (("", "0"), "0"),  # replicated already, its children leaves
        (("", "0"), "000"),  # no node: below the leaf 00
        ((), "0"),  # no node: the bare root has no children
        (("", "1", "10"), "0a"),  # no address at all
    ], ids=["inner", "replicated", "below-a-leaf", "child-of-the-bare-root", "not-an-address"])
    def test_replicate_refuses_all_but_outer_nodes(self, grown, w):
        tree = NodeTree()
        for u in grown:
            tree = tree.replicate(u)
        assert tree.replicate(w) is None
        for u in tree.outer():
            grown = tree.replicate(u)
            assert grown.outer() == outer_brute(grown.nodes())

    @pytest.mark.parametrize("cached", [_nodes_of, _outer_of], ids=lambda f: f.__name__)
    def test_distinct_trees_past_the_bound_leave_the_cache_at_it(self, cached):
        bound = cached.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 10):
            # a distinct tree per i, grown as play grows it: replicate the
            # root and each prefix of i's binary digits, then the digits
            tree, w = NodeTree(), f"{i:b}"
            for k in range(len(w) + 1):
                tree = tree.replicate(w[:k])
            tree.outer()
        assert cached.cache_info().currsize == bound


class TestTightExtension:
    def setup_method(self):
        self.base = bot_choice()

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
        self.base = top_choice()

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
            is_legal(self.base, project(doubled, Ray(stem)))
            for stem in all_stems(3)
            if len(stem) == 3
        ]
        assert not all(verdicts)

    def test_switch_by_wrong_player(self):
        assert not loose_extension_legal(self.base, (), lm(TOP, "01"), BOT)


class TestAddressGuard:
    # An addressed move at depth d splits the rays into 2**d class states.
    def test_seventeen_bits_raise_before_anything_is_copied(self):
        game = make_recurrence(bot_choice(), LOOSE_RECURRENCE)
        with pytest.raises(PreconditionError):
            game.step(game.start(), lm(BOT, "0" * 17 + ".b"))
        deep = game.step(game.start(), lm(BOT, "1" * 16 + ".b"))
        with pytest.raises(PreconditionError):
            game.step(deep, lm(BOT, "0" * 17 + ".b"))

    # bot_choice refuses TOP's a and a junk move in every class state, so
    # only the guard, checked before any class is stepped, can refuse these
    @pytest.mark.parametrize("label, payload", [(TOP, "a"), (BOT, "x")], ids=["top-a", "junk"])
    def test_the_guard_comes_before_the_class_states(self, label, payload):
        game = make_recurrence(bot_choice(), LOOSE_RECURRENCE)
        deep = game.step(game.start(), lm(BOT, "1" * 16 + ".b"))
        assert deep.depth == 16
        for state in (game.start(), deep):
            assert all(game.base.step(inner, lm(label, payload)) is None for inner in state.classes)
            with pytest.raises(PreconditionError):
                game.step(state, lm(label, "0" * 17 + "." + payload))

    @pytest.mark.parametrize("kind", [TIGHT_RECURRENCE, LOOSE_RECURRENCE])
    def test_a_bound_past_sixteen_bits_offers_no_moves(self, kind):
        # step refuses the deepest moves such a bound would offer
        game = make_recurrence(bot_choice(), kind)
        with pytest.raises(PreconditionError):
            game.moves(game.start(), BOT, 17)
        assert game.moves(game.start(), BOT, 2)

    @pytest.mark.parametrize("bound", [-1, MAX_ADDRESS_BITS + 1])
    @pytest.mark.parametrize("kind", [TIGHT_RECURRENCE, LOOSE_RECURRENCE], ids=["tight", "loose"])
    @pytest.mark.parametrize("wrap", [lambda rec: rec, negate, lambda rec: disjoin(leaf_top(), rec)],
                             ids=["alone", "not", "or"])
    def test_a_bound_outside_the_guard_is_refused(self, bound, kind, wrap):
        # at -1 a loose recurrence would offer the root's moves, past 16 bits moves step refuses
        game = wrap(make_recurrence(bot_choice(), kind))
        for player in (TOP, BOT):
            with pytest.raises(PreconditionError):
                game.moves(game.start(), player, bound)
            with pytest.raises(PreconditionError):
                game.legal_moves((), player, bound)

    def test_sixteen_bits_still_step(self):
        game = make_recurrence(bot_choice(), LOOSE_RECURRENCE)
        state = game.step(game.start(), lm(BOT, "0" * 16 + ".b"))
        assert len(state.classes) == 65536
        assert game.outcome(state) is BOT


class TestWholeRunLooseDefinition:
    def test_incremental_agrees_with_whole_run_check(self):
        # The run-level definition: all moves well shaped for their author
        # and every ray-class projection legal in the base.
        base = first_mover_wins()
        game = make_recurrence(base, LOOSE_RECURRENCE)
        pool = probe_pool(game, BOUNDS)
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
                is_legal(base, project(run, r)) for r in ray_classes(run, "")
            )
            assert is_legal(game, run) == whole


class TestTightProjectionInvariant:
    def test_all_ray_projections_of_legal_positions_are_legal(self):
        base = first_mover_wins()
        game = make_recurrence(base, TIGHT_RECURRENCE)
        pool = probe_pool(game, BOUNDS)
        for run in all_runs(pool, 4):
            if is_legal(game, run):
                for stem in all_stems(4):
                    assert is_legal(base, project(run, Ray(stem)))


class TestRecurrenceWinner:
    def test_leaf_trivials(self):
        assert make_recurrence(
            leaf_top(), TIGHT_RECURRENCE
        ).winner(()) is TOP
        assert make_recurrence(
            leaf_bot(), TIGHT_CORECURRENCE
        ).winner(()) is BOT

    def test_last_switch_decides(self):
        # Enumerate legal runs of <= 4 moves with <= 2 switches and check
        # the winner against an independent recomputation from the stem of
        # the last structural switch.
        base = top_choice()
        for kind in (TIGHT_RECURRENCE, LOOSE_RECURRENCE):
            game = make_recurrence(base, kind)
            pool = probe_pool(game, BOUNDS) + ("1",)
            checked = 0
            for run in all_runs(pool, 4):
                switches = [
                    x for x in run
                    if x.label is BOT and parse_move(x.move).kind is ShapeKind.SWITCH
                ]
                if len(switches) > 2 or not is_legal(game, run):
                    continue
                stem = parse_move(switches[-1].move).address if switches else ""
                assert game.winner(run) is base.winner(project(run, Ray(stem)))
                checked += 1
            assert checked > 10

    def test_two_switches_only_last_counts(self):
        base = top_choice()
        game = make_recurrence(base, LOOSE_RECURRENCE)
        run = (lm(TOP, "1.a"), lm(BOT, "1"), lm(BOT, "0"))
        assert is_legal(game, run)
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
        base = first_mover_wins()
        game = make_recurrence(base, kind)
        bounds = EnumBounds(max_address_len=1, max_run_len=5)
        for position in [(), (lm(kind.structural, ":"),) if kind.version.value == "tight" else (lm(kind.structural, "0"),)]:
            enumerated = game.legal_moves(position, player, bounds.max_address_len)
            oracle = {
                s
                for s in self.candidates()
                if len(parse_move(s).address) <= bounds.max_address_len
                and game.extend_legal(position, LabMove(player, s))
            }
            assert enumerated == oracle

    def test_tight_root_moves_exclude_unreplicated_addresses(self):
        base = bot_choice()
        game = make_recurrence(base, TIGHT_RECURRENCE)
        moves = game.legal_moves((), BOT, 1)
        assert moves == {"", ":", ".b"}
        assert "0.b" not in moves

    def test_loose_root_moves_include_unreplicated_addresses(self):
        base = bot_choice()
        game = make_recurrence(base, LOOSE_RECURRENCE)
        moves = game.legal_moves((), BOT, 1)
        assert {"0.b", "1.b", ".b", "", "0", "1"} <= moves
        assert ":" not in moves

    def test_every_enumerated_move_extends_legally(self):
        base = first_mover_wins()
        for kind in ALL_KINDS:
            game = make_recurrence(base, kind)
            position = ()
            for player in (TOP, BOT):
                for move in game.legal_moves(position, player, BOUNDS.max_address_len):
                    assert game.extend_legal(position, LabMove(player, move))


class TestDeMorgan:
    @pytest.mark.parametrize("version_pair", [
        (TIGHT_CORECURRENCE, TIGHT_RECURRENCE),
        (LOOSE_CORECURRENCE, LOOSE_RECURRENCE),
    ])
    def test_corecurrence_is_negated_recurrence_of_negation(self, version_pair):
        co_kind, rec_kind = version_pair
        for suite_game in STATIC_SUITE:
            base = suite_game
            left = make_recurrence(base, co_kind)
            right = negate(make_recurrence(negate(base), rec_kind))
            pool = sorted(set(probe_pool(left, BOUNDS)) | set(probe_pool(right, BOUNDS)))
            assert first_difference(left, right, pool, 4) is None

    @pytest.mark.parametrize("bounds", [EnumBounds(1, 4), EnumBounds(2, 5)], ids=["1-4", "2-5"])
    @pytest.mark.parametrize("kinds", [(TIGHT_CORECURRENCE, TIGHT_RECURRENCE),
                                       (LOOSE_CORECURRENCE, LOOSE_RECURRENCE)], ids=["tight", "loose"])
    @pytest.mark.parametrize("name", sorted(suite_defs()))
    def test_corecurrence_scans_as_negated_recurrence(self, name, kinds, bounds):
        # the two builds walk equal states in one order, so the delay scans
        # find one pool, one state table and one pair of verdicts
        base, (co_kind, rec_kind) = suite_defs()[name], kinds
        left = make_recurrence(base, co_kind)
        right = negate(make_recurrence(negate(base), rec_kind))
        assert move_pool(left, bounds) == move_pool(right, bounds)
        assert _StateScan(left, bounds, None).rows == _StateScan(right, bounds, None).rows
        assert static_and_lemma(left, bounds) == static_and_lemma(right, bounds)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(game_nodes(3).map(lambda root: FiniteGame("random", root)),
                     st.sampled_from([negate(bot_choice()), make_recurrence(bot_choice(), TIGHT_RECURRENCE)])),
           st.sampled_from([(TIGHT_CORECURRENCE, TIGHT_RECURRENCE), (LOOSE_CORECURRENCE, LOOSE_RECURRENCE)]),
           st.data())
    def test_corecurrence_is_negated_recurrence_state_for_state(self, base, kinds, data):
        # cbr_x(A) = not(tbr_x(not(A))) at every state of a walk over offered moves
        co_kind, rec_kind = kinds
        left = make_recurrence(base, co_kind)
        right = negate(make_recurrence(negate(base), rec_kind))
        one, two, steps = left.start(), right.start(), data.draw(st.integers(0, 8))
        for n in range(steps + 1):
            assert one == two
            offered = {p: left.moves(one, p, BOUNDS.max_address_len) for p in (TOP, BOT)}
            assert offered == {p: right.moves(two, p, BOUNDS.max_address_len) for p in (TOP, BOT)}
            assert left.outcome(one) is right.outcome(two)
            labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in sorted(offered[p])]
            if n == steps or not labmoves:
                break
            move = data.draw(st.sampled_from(labmoves))
            one, two = left.step(one, move), right.step(two, move)
            assert one is not None
