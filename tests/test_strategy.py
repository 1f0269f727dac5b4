"""Translation routines, adversaries, and tree-growing moves."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from colgames import (
    BOT,
    TOP,
    Direction,
    EnumBounds,
    LabMove,
    Offender,
    MirrorStrategy,
    NodeTree,
    RemapStrategy,
    actual_nodes,
    exhaustive_adversaries,
    fmap_prefix_free,
    grow_to_actual,
    pass_strategy,
    random_adversary,
    run_interaction,
    scripted_adversary,
    translation_compound,
    tight_extension_legal,
)
from colgames.sim import strategy_for
from colgames.suite import TRANSLATION_SUITE, alternating, bot_choice, leaf_top, top_choice

from _util import CountingGame, ReplayingRandomAdversary, TreeOracle

BOUNDS = EnumBounds(max_address_len=2, max_run_len=12)
ROOT = NodeTree(frozenset())


def lm(label, move):
    return LabMove(label, move)


def compound1(base_game):
    return translation_compound(base_game, Direction.TIGHT_TO_LOOSE)


def compound2(base_game):
    return translation_compound(base_game, Direction.LOOSE_TO_TIGHT)


class TestGrowToActual:
    def test_root_needs_nothing(self):
        assert grow_to_actual(ROOT, "") == ((), ROOT)

    def test_grows_along_prefixes(self):
        chain, grown = grow_to_actual(ROOT, "01")
        assert chain == (":", "0:")
        # oracle: replay the chain and recompute the tree after each move
        position = ()
        for move in chain:
            tree = actual_nodes(position, TOP)
            address = move[:-1]
            assert address in tree.outer()
            position = position + (lm(TOP, move),)
        assert actual_nodes(position, TOP) == grown
        assert grown.is_actual("01")

    def test_already_actual_after_root_replication(self):
        tree = actual_nodes((lm(TOP, ":"),), TOP)
        assert grow_to_actual(tree, "1") == ((), tree)


class TestMirrorStrategy:
    def test_copies_tight_co_moves_into_loose(self):
        # the environment owns "a" in not(top_choice), so it can attack
        # the tight-co component; the machine answers in the loose one
        game = compound1(top_choice())
        machine = MirrorStrategy()
        state = machine.init()
        position = (lm(BOT, "1..a"),)
        state, moves = machine.react(state, position)
        assert moves == ("2..a",)

    def test_mirrors_loose_switch_after_growing(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()
        state = machine.init()
        position = (lm(BOT, "2.01"),)
        state, moves = machine.react(state, position)
        assert moves == ("1.:", "1.0:", "1.01")
        # each intermediate move is legal in the tight-co component
        base = bot_choice()
        from colgames import negate

        not_base = negate(base)
        component = ()
        for move in moves:
            assert tight_extension_legal(not_base, component, lm(TOP, move[2:]), TOP)
            component = component + (lm(TOP, move[2:]),)

    def test_mirrors_loose_move_after_growing(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()
        state = machine.init()
        position = (lm(BOT, "2.1.b"),)
        state, moves = machine.react(state, position)
        assert moves == ("1.:", "1.1.b")

    def test_stays_silent_on_garbage(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()
        trace = run_interaction(machine, scripted_adversary(["xyz"]), game, 20)
        assert trace.offender == Offender(0, BOT)
        assert trace.outcome is TOP
        assert all(x.label is BOT for x in trace.moves)


class TestRemapStrategy:
    def test_replication_splits_map_without_moving(self):
        game = compound2(bot_choice())
        machine = RemapStrategy()
        state = machine.init()
        assert state.fmap == (("", ""),)
        position = (lm(BOT, "2.:"),)
        state, moves = machine.react(state, position)
        assert moves == ()
        assert dict(state.fmap) == {"0": "0", "1": "1"}

    def test_switch_follows_zero_path_to_outer(self):
        game = compound2(bot_choice())
        machine = RemapStrategy()
        state = machine.init()
        position = (lm(BOT, "2.:"),)
        state, _ = machine.react(state, position)
        position = position + (lm(BOT, "2.1"),)
        state, moves = machine.react(state, position)
        assert moves == ("1.1",)

    def test_switch_pads_inner_node_with_zeros(self):
        game = compound2(bot_choice())
        machine = RemapStrategy()
        state = machine.init()
        position = ()
        for move in ("2.:", "2.0:"):
            position = position + (lm(BOT, move),)
            state, out = machine.react(state, position)
            assert out == ()
        # switching to the inner node 0 lands on its zero-path leaf 00
        position = position + (lm(BOT, "2.0"),)
        state, moves = machine.react(state, position)
        assert moves == ("1.00",)

    @pytest.mark.parametrize("keys", [("1",), ("0", "00")], ids=["none", "two"])
    def test_switch_without_one_zero_path_key_raises(self, keys):
        # a map whose keys are no tree's outer nodes: no key, or two, on the zero path from 0
        state = replace(RemapStrategy().init(), fmap=tuple((k, k) for k in keys))
        with pytest.raises(ValueError):
            RemapStrategy().react(state, (lm(BOT, "2.0"),))

    def test_absorbs_off_ray_loose_move(self):
        game = compound2(top_choice())
        machine = RemapStrategy()
        state = machine.init()
        position = (lm(BOT, "1.01.a"),)
        state, moves = machine.react(state, position)
        assert moves == ()
        assert dict(state.fmap) == {"": "00"}
        assert fmap_prefix_free(state.fmap)

    def test_relays_on_ray_loose_move(self):
        game = compound2(top_choice())
        machine = RemapStrategy()
        state = machine.init()
        position = (lm(BOT, "1.00.a"),)
        state, moves = machine.react(state, position)
        # "00" extends the root's empty address with zeros only, so the
        # move sits on the mapped ray and is relayed into the tight side
        assert moves == ("2..a",)
        assert dict(state.fmap) == {"": "00"}

    def test_broadcasts_tight_move_to_all_outer_nodes(self):
        game = compound2(bot_choice())
        machine = RemapStrategy()
        state = machine.init()
        position = ()
        for move in ("2.:", "2.0:"):
            position = position + (lm(BOT, move),)
            state, _ = machine.react(state, position)
        position = position + (lm(BOT, "2..b"),)
        state, moves = machine.react(state, position)
        assert moves == ("1.00.b", "1.01.b", "1.1.b")
        assert frozenset(k for k, _ in state.fmap) == {"00", "01", "1"}

    def test_fmap_domain_tracks_outer_nodes(self):
        game = compound2(bot_choice())
        machine = RemapStrategy()
        trace = run_interaction(
            machine, scripted_adversary(["2.:", "2.0:", "2.1", "2..b"]), game, 30
        )
        assert trace.offender is None
        for note in trace.notes:
            assert note.state.fmap is not None
            assert fmap_prefix_free(note.state.fmap)


def books_after(machine, env_moves):
    """The machine's state after reacting to each environment move in turn."""
    state, position = machine.init(), ()
    for move in env_moves:
        position = position + (lm(BOT, move),)
        state, replies = machine.react(state, position)
        position = position + tuple(lm(TOP, reply) for reply in replies)
    return state


class TestMachineBooks:
    """A machine's reply is a function of its own state and the latest move;
    the tight tree it keeps is the one the position spells out; its state
    is exactly its books."""

    def test_a_reaction_that_keeps_the_books_returns_the_state(self):
        remap = RemapStrategy()
        state = books_after(remap, ["2.:"])
        after, moves = remap.react(state, (lm(BOT, "2.:"), lm(BOT, "2.1")))
        assert moves == ("1.1",)
        assert after == state
        mirror = MirrorStrategy()
        after, moves = mirror.react(mirror.init(), (lm(BOT, "1..a"),))
        assert moves == ("2..a",)
        assert after == mirror.init() == ROOT

    @pytest.mark.parametrize("machine, first, second", [
        (RemapStrategy(), ["2.:", "2..b"], ["2.:", "2.1"]),
        (MirrorStrategy(), ["2.1.b"], ["2.1"]),
    ], ids=["remap", "mirror"])
    def test_equal_books_are_equal_hashable_states(self, machine, first, second):
        one, other = books_after(machine, first), books_after(machine, second)
        assert one == other
        assert hash(one) == hash(other)
        assert len({one, other, machine.init()}) == 2

    @pytest.mark.parametrize("direction, adversaries",
                             [(Direction.TIGHT_TO_LOOSE, 5740), (Direction.LOOSE_TO_TIGHT, 753)])
    def test_kept_tree_is_the_tight_components_actual_nodes(self, direction, adversaries):
        played = checked = 0
        for base in TRANSLATION_SUITE:
            game = translation_compound(base, direction)
            machine = TreeOracle(strategy_for(game, direction), direction)
            played += sum(1 for _ in exhaustive_adversaries(game, machine, EnumBounds(2, 64), budget=3))
            checked += machine.checked
        assert played == adversaries
        assert checked > played

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TRANSLATION_SUITE), st.sampled_from(list(Direction)),
           st.integers(0, 2**32 - 1))
    def test_reply_reads_only_the_latest_move(self, base, direction, seed):
        game = translation_compound(base, direction)
        machine = strategy_for(game, direction)

        class LatestOnly:
            def init(self):
                return machine.init()

            def react(self, state, position):
                reply = machine.react(state, position)
                assert machine.react(state, (position[-1],)) == reply
                return reply

        adversary = random_adversary(game, seed, BOUNDS, budget=8, pass_probability=0.05)
        run_interaction(LatestOnly(), adversary, game, 40)


class TestScriptedAdversary:
    def test_empty_script_never_moves(self):
        game = compound1(leaf_top())
        trace = run_interaction(MirrorStrategy(), scripted_adversary([]), game, 10)
        assert trace.moves == ()

    def test_plays_one_move_per_reaction(self):
        adv = scripted_adversary(["m1", "m2"])
        state = adv.init()
        state, first = adv.react(state, ())
        state, second = adv.react(state, ())
        state, third = adv.react(state, ())
        assert (first, second, third) == (("m1",), ("m2",), ())


class TestExhaustiveAdversaries:
    def test_budget_zero_single_behavior(self):
        game = compound1(leaf_top())
        machine = MirrorStrategy()
        traces = list(exhaustive_adversaries(game, machine, BOUNDS, budget=0))
        assert [t.moves for t in traces] == [()]

    def test_budget_one_counts_moves_plus_pass(self):
        game = compound1(leaf_top())
        machine = MirrorStrategy()
        k = len(game.legal_moves((), BOT, BOUNDS))
        assert k > 0
        count = sum(1 for _ in exhaustive_adversaries(game, machine, BOUNDS, budget=1, max_steps=20))
        assert count == k + 1

    def test_budget_two_matches_independent_recount(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()

        def recount(run, machine_state, depth):
            options = sorted(game.legal_moves(run, BOT, BOUNDS))
            total = 1  # passing right here is one behavior
            if depth == 0:
                return total
            for move in options:
                new_run = run + (lm(BOT, move),)
                new_state, replies = machine.react(machine_state, new_run)
                for reply in replies:
                    new_run = new_run + (lm(TOP, reply),)
                total += recount(new_run, new_state, depth - 1)
            return total

        expected = recount((), machine.init(), 2)
        count = sum(1 for _ in exhaustive_adversaries(game, machine, BOUNDS, budget=2, max_steps=30))
        assert count == expected

    @pytest.mark.parametrize("base", [bot_choice, alternating])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_every_trace_is_the_play_of_its_own_script(self, base, direction):
        game = translation_compound(base(), direction)
        machine = strategy_for(game, direction)
        scripts = []
        for trace in exhaustive_adversaries(game, machine, BOUNDS, budget=2, max_steps=30):
            script = tuple(m.move for m in trace.moves if m.label is BOT)
            assert trace == run_interaction(machine, scripted_adversary(script), game, 30)
            scripts.append(script)
        assert len(set(scripts)) == len(scripts) > 1

    def test_truncated_play_has_no_children(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()
        max_steps = 3

        def plays(run, machine_state, depth):
            """(moves, truncated) of every play through ``run``, depth-first."""
            found = [(run, False)]
            if depth == 0:
                return found
            for move in sorted(game.legal_moves(run, BOT, BOUNDS)):
                if len(run) >= max_steps:
                    found.append((run, True))
                    continue
                new_run = run + (lm(BOT, move),)
                new_state, replies = machine.react(machine_state, new_run)
                room = max_steps - len(new_run)
                new_run = new_run + tuple(lm(TOP, reply) for reply in replies[:room])
                if len(replies) > room:
                    found.append((new_run, True))
                else:
                    found += plays(new_run, new_state, depth - 1)
            return found

        expected = plays((), machine.init(), 3)
        traces = exhaustive_adversaries(game, machine, BOUNDS, budget=3, max_steps=max_steps)
        assert [(t.moves, t.truncated) for t in traces] == expected
        assert any(truncated for _, truncated in expected)


class TestRandomAdversary:
    def test_same_seed_same_trace(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()
        adv = random_adversary(game, seed=42, bounds=BOUNDS, budget=3)
        first = run_interaction(machine, adv, game, 40)
        second = run_interaction(machine, adv, game, 40)
        assert first == second

    def test_different_seeds_can_differ(self):
        game = compound1(bot_choice())
        machine = MirrorStrategy()
        traces = {
            run_interaction(
                machine, random_adversary(game, seed, BOUNDS, 3), game, 40
            ).moves
            for seed in range(12)
        }
        assert len(traces) > 1

    def test_budget_exhaustion_passes(self):
        game = compound1(bot_choice())
        adv = random_adversary(game, seed=1, bounds=BOUNDS, budget=0)
        state = adv.init()
        state, moves = adv.react(state, ())
        assert moves == ()

    @pytest.mark.parametrize("direction", list(Direction))
    def test_steps_each_move_of_the_run_once(self, direction):
        # The adversary keeps the game state at its last move, so it steps
        # each move once; replaying the position at every reaction would
        # step a long play quadratically often.
        longest = 0
        for base in TRANSLATION_SUITE:
            game = translation_compound(base, direction)
            for seed in range(3):
                counting = CountingGame(game)
                adversary = random_adversary(counting, seed, BOUNDS, budget=30, pass_probability=0.05)
                trace = run_interaction(strategy_for(game, direction), adversary, game, 64)
                assert counting.steps <= len(trace.moves), (base.name, seed)
                longest = max(longest, len(trace.moves))
        assert longest > 40

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        base=st.sampled_from(TRANSLATION_SUITE),
        direction=st.sampled_from(list(Direction)),
        budget=st.integers(0, 12),
        pass_probability=st.sampled_from([0.0, 0.05, 0.25]),
        junk_machine=st.booleans(),
    )
    def test_plays_as_the_replaying_form(self, seed, base, direction, budget, pass_probability,
                                         junk_machine):
        game = translation_compound(base, direction)
        # a machine that offends at once leaves the adversary an illegal run
        machine = scripted_adversary(["xyz"]) if junk_machine else strategy_for(game, direction)
        traces = [
            run_interaction(machine, make(game, seed, BOUNDS, budget, pass_probability), game, 64)
            for make in (random_adversary, ReplayingRandomAdversary)
        ]
        assert traces[0] == traces[1]


class TestPassStrategy:
    def test_never_moves(self):
        game = compound1(leaf_top())
        trace = run_interaction(pass_strategy(), pass_strategy(), game, 5)
        assert trace.moves == ()


class TestFmapPrefixFree:
    def test_accepts_prefix_free(self):
        assert fmap_prefix_free([("0", "00"), ("1", "01")])

    def test_rejects_prefix(self):
        assert not fmap_prefix_free([("0", "0"), ("1", "01")])

    def test_rejects_duplicates(self):
        assert not fmap_prefix_free([("0", "0"), ("1", "0")])
