"""Interaction harness, trace audits, and the verification drivers."""

from __future__ import annotations

import itertools

import pytest

from colgames import (
    BOT,
    TOP,
    Direction,
    EnumBounds,
    FiniteGame,
    LabMove,
    LemmaReport,
    MirrorStrategy,
    Offender,
    PreconditionError,
    RemapStrategy,
    StaticVerdict,
    audit_trace,
    disjoin,
    leaf,
    negate,
    offender,
    pass_strategy,
    random_adversary,
    run_interaction,
    scripted_adversary,
    translation_compound,
    verify_static_preservation,
    verify_translation,
    won_by,
)
from colgames import sim
from colgames.suite import (
    alternating,
    bot_choice,
    first_mover_wins,
    leaf_top,
    second_mover_wins,
    top_choice,
)

from _util import BrokenRemapStrategy, late

BOUNDS = EnumBounds(max_address_len=2, max_run_len=12)


class _Recording:
    """A machine that records the length of every position it reacts to."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.asked: list[int] = []

    def init(self):
        return self.inner.init()

    def react(self, state, position):
        self.asked.append(len(position))
        return self.inner.react(state, position)


def lm(label, move):
    return LabMove(label, move)


class TestRunInteraction:
    def test_mutual_pass_on_disjoined_leaves(self):
        game = disjoin(
            FiniteGame("lb", leaf(BOT)),
            leaf_top(),
        )
        trace = run_interaction(pass_strategy(), pass_strategy(), game, 10)
        assert trace.moves == ()
        assert trace.outcome is TOP
        assert trace.offender is None

    def test_outcome_recomputes_from_run(self):
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        machine = MirrorStrategy()
        trace = run_interaction(machine, scripted_adversary(["2.0", "2..b"]), game, 30)
        assert (trace.outcome is TOP) == won_by(game, trace.moves, TOP)
        assert trace.offender == offender(game, trace.moves)

    def test_first_illegal_adversary_move_is_flagged(self):
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        machine = MirrorStrategy()
        trace = run_interaction(machine, scripted_adversary(["2.0", "1.0"]), game, 30)
        # "1.0" is a switch in the tight-co component, which belongs to the
        # machine there; index 2 because the machine mirrored the first switch
        assert trace.offender is not None
        assert trace.offender.culprit is BOT
        assert trace.outcome is TOP

    def test_machine_is_not_asked_after_the_adversary_offends(self):
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        machine = _Recording(MirrorStrategy())
        trace = run_interaction(machine, scripted_adversary(["xyz", "2.0"]), game, 30)
        assert trace.offender == Offender(0, BOT)
        assert machine.asked == []
        assert trace.notes == ()
        assert [x.move for x in trace.moves] == ["xyz", "2.0"]
        assert (trace.outcome is TOP) == won_by(game, trace.moves, TOP)

    def test_machine_is_not_asked_after_its_own_offence(self):
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        machine = _Recording(scripted_adversary(["xyz"]))
        trace = run_interaction(machine, scripted_adversary(["2.0", "2..b"]), game, 30)
        assert trace.offender == Offender(1, TOP)
        assert machine.asked == [1]
        assert [x.move for x in trace.moves] == ["2.0", "xyz", "2..b"]
        assert (trace.outcome is TOP) == won_by(game, trace.moves, TOP)
        assert trace.outcome is BOT

    def test_truncation_is_recorded(self):
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        machine = MirrorStrategy()
        trace = run_interaction(machine, scripted_adversary(["2.0", "2.0", "2.0"]), game, 2)
        assert trace.truncated
        assert len(trace.moves) == 2

    def test_replaying_a_trace_reproduces_it(self):
        game = translation_compound(bot_choice(), Direction.LOOSE_TO_TIGHT)
        machine = RemapStrategy()
        adversary = random_adversary(game, seed=7, bounds=BOUNDS, budget=3)
        golden = run_interaction(machine, adversary, game, 40)
        script = [x.move for x in golden.moves if x.label is BOT]
        replayed = run_interaction(machine, scripted_adversary(script), game, 40)
        assert replayed == golden
        # and the serialized forms are byte-identical
        from colgames.files import TraceFile, dumps_trace

        def serialize(trace):
            return dumps_trace(TraceFile(
                game=game.name, version="0.1.0", seed=None, bounds=BOUNDS,
                moves=trace.moves, outcome=trace.outcome, offender=trace.offender,
                truncated=trace.truncated,
            ))

        assert serialize(replayed) == serialize(golden)

    def test_thousand_seeded_adversaries_all_lose(self):
        game = translation_compound(bot_choice(), Direction.LOOSE_TO_TIGHT)
        machine = RemapStrategy()
        won = 0
        for seed in range(1000):
            adversary = random_adversary(game, seed, BOUNDS, budget=3)
            trace = run_interaction(machine, adversary, game, 40)
            won += trace.outcome is TOP
        assert won == 1000

    def test_notes_align_with_machine_batches(self):
        game = translation_compound(bot_choice(), Direction.LOOSE_TO_TIGHT)
        machine = RemapStrategy()
        trace = run_interaction(machine, scripted_adversary(["2.:", "2.1"]), game, 30)
        env_moves = [i for i, x in enumerate(trace.moves) if x.label is BOT]
        assert [n.reacted_to for n in trace.notes] == env_moves
        # a batch is the machine moves up to the next environment move:
        # the replication is answered by none, the switch by one
        ends = env_moves[1:] + [len(trace.moves)]
        assert [end - n.reacted_to - 1 for n, end in zip(trace.notes, ends)] == [0, 1]

    def test_notes_keep_the_states_react_returned(self):
        game = translation_compound(bot_choice(), Direction.LOOSE_TO_TIGHT)
        machine = RemapStrategy()
        trace = run_interaction(machine, scripted_adversary(["2.:", "2.1"]), game, 30)
        split, _ = machine.react(machine.init(), trace.moves[:1])
        switched, moves = machine.react(split, trace.moves[:2])
        assert moves == ("1.1",)
        assert [n.state for n in trace.notes] == [split, switched]
        assert dict(trace.notes[0].state.fmap) == {"0": "0", "1": "1"}
        # the switch changes no book, so its note keeps the state it was given
        assert trace.notes[1].state is trace.notes[0].state

    def test_notes_keep_a_state_with_no_node_map(self):
        # the mirror machine's state is its tight tree
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        machine = MirrorStrategy()
        trace = run_interaction(machine, scripted_adversary(["2.1", "2..b"]), game, 30)
        grown, moves = machine.react(machine.init(), trace.moves[:1])
        assert moves == ("1.:", "1.1")
        assert trace.offender is None
        assert [n.state for n in trace.notes] == [grown, grown]
        assert trace.notes[1].state is trace.notes[0].state


class TestVerifyTranslation:
    def test_leaf_base_budget_zero(self):
        report = verify_translation(leaf_top(), Direction.TIGHT_TO_LOOSE, BOUNDS, budget=0)
        assert report.adversaries == 1
        assert report.ok

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("base", [bot_choice(), top_choice(), alternating()])
    def test_small_budget_suites_pass(self, base, direction):
        report = verify_translation(base, direction, BOUNDS, budget=2, max_steps=64)
        assert report.adversaries > 1
        assert report.failures == ()

    def test_non_static_base_aborts(self):
        with pytest.raises(PreconditionError):
            verify_translation(first_mover_wins(), Direction.TIGHT_TO_LOOSE, BOUNDS, budget=1)

    def test_precheck_ignores_a_short_run_bound(self):
        # a precheck at run length 2 would pass late, whose counterexample
        # takes 3 moves, and 208 adversaries would play it without failure
        with pytest.raises(PreconditionError, match="not static"):
            verify_translation(late(), Direction.TIGHT_TO_LOOSE, EnumBounds(2, 2), budget=2)

    def test_corrupted_routine_is_caught(self):
        report = verify_translation(
            bot_choice(),
            Direction.LOOSE_TO_TIGHT,
            BOUNDS,
            budget=2,
            machine=BrokenRemapStrategy(),
        )
        assert len(report.failures) >= 1

    def test_a_loose_to_tight_machine_without_a_node_map_is_refused(self):
        with pytest.raises(PreconditionError, match="node map, not a MirrorStrategy's"):
            verify_translation(bot_choice(), Direction.LOOSE_TO_TIGHT, BOUNDS, budget=2,
                               machine=MirrorStrategy())

    def test_reports_are_deterministic(self):
        first = verify_translation(bot_choice(), Direction.LOOSE_TO_TIGHT, BOUNDS, budget=2)
        second = verify_translation(bot_choice(), Direction.LOOSE_TO_TIGHT, BOUNDS, budget=2)
        assert first == second


class TestCompositeBases:
    """The drivers take any static base, not only a finite tree."""

    @pytest.mark.parametrize(
        "base, budget, counts",
        [
            (negate(bot_choice()), 3, (950, 420)),
            (disjoin(bot_choice(), top_choice()), 2, (253, 88)),
        ],
        ids=["not", "or"],
    )
    def test_translation_wins_in_both_directions(self, base, budget, counts):
        for direction, count in zip(Direction, counts):
            report = verify_translation(base, direction, BOUNDS, budget=budget)
            assert report.adversaries == count
            assert report.failures == ()

    def test_corrupted_routine_is_caught_on_a_negation(self):
        report = verify_translation(
            negate(bot_choice()),
            Direction.LOOSE_TO_TIGHT,
            BOUNDS,
            budget=3,
            machine=BrokenRemapStrategy(),
        )
        assert len(report.failures) >= 1

    def test_static_preservation_on_a_negation(self):
        report = verify_static_preservation(negate(bot_choice()), EnumBounds(2, 5))
        assert report.ok


class TestSwapSuite:
    """``second_mover_wins``, a static base whose swaps matter: a legal
    swap's two orders reach different states, so the checks compare
    different legal outcomes."""

    def test_a_legal_swap_reaches_two_states(self):
        base = second_mover_wins()
        swaps, stack = [], [base.start()]
        while stack:
            state = stack.pop()
            tops, bots = (sorted(base.moves(state, p, BOUNDS)) for p in (TOP, BOT))
            for x, y in itertools.product(tops, bots):
                one = base.replay((LabMove(TOP, x), LabMove(BOT, y)), state)
                other = base.replay((LabMove(BOT, y), LabMove(TOP, x)), state)
                if one is not None and other is not None and one != other:
                    swaps.append((x, y))
            stack.extend(base.step(state, LabMove(TOP, m)) for m in tops)
            stack.extend(base.step(state, LabMove(BOT, m)) for m in bots)
        assert swaps

    @pytest.mark.parametrize("bounds", [EnumBounds(1, 5), EnumBounds(2, 5)], ids=str)
    def test_static_preservation(self, bounds):
        assert verify_static_preservation(second_mover_wins(), bounds).ok

    def test_translation_wins_in_both_directions(self):
        bounds = EnumBounds(max_address_len=2, max_run_len=64)
        for direction, count in zip(Direction, (3874, 682)):
            report = verify_translation(second_mover_wins(), direction, bounds, budget=3)
            assert report.adversaries == count
            assert report.failures == ()

    def test_corrupted_routine_is_caught(self):
        report = verify_translation(second_mover_wins(), Direction.LOOSE_TO_TIGHT,
                                    EnumBounds(2, 64), budget=3, machine=BrokenRemapStrategy())
        assert len(report.failures) == 541


class TestAuditTrace:
    def test_flags_wrong_outcome_traces(self):
        # hand-build a legal but machine-lost trace: the adversary plays its
        # base move in the loose component and the machine never answers
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        trace = run_interaction(pass_strategy(), scripted_adversary(["2..b"]), game, 10)
        problems = audit_trace(trace, Direction.TIGHT_TO_LOOSE, game)
        assert any("outcome" in p for p in problems)


class TestVerifyStaticPreservation:
    def test_leaf_base(self):
        report = verify_static_preservation(leaf_top(), EnumBounds(2, 4))
        assert report.ok

    def test_suite_base(self):
        report = verify_static_preservation(bot_choice(), EnumBounds(2, 4))
        assert report.failures == ()

    def test_lemma_failure_names_the_violation_count(self, monkeypatch):
        # no recurrence of a static base violates the lemma, so the scan's
        # report is replaced by one that lists 1 of 3 violations
        gamma = (LabMove(TOP, "0.a"), LabMove(BOT, "0.b"))
        report = LemmaReport(((gamma, gamma[::-1], TOP),), 7, 3)
        monkeypatch.setattr(sim, "static_and_lemma",
                            lambda game, bounds: (StaticVerdict(True), report))
        failures = verify_static_preservation(bot_choice(), EnumBounds(2, 4)).failures
        assert [f.kind for f in failures] == ["illegality-lemma"] * 4
        assert all(f.detail.endswith("(a shortest one of 3 violations)") for f in failures)
        assert all('delay pair <T"0.a", B"0.b"> / <B"0.b", T"0.a"> for T' in f.detail
                   for f in failures)

    def test_static_failure_prints_its_counterexample_as_runs(self, monkeypatch):
        gamma = (LabMove(TOP, "0.a"), LabMove(BOT, "0.b"))
        verdict = StaticVerdict(False, (gamma, gamma[::-1], TOP))
        monkeypatch.setattr(sim, "static_and_lemma",
                            lambda game, bounds: (verdict, LemmaReport((), 7, 0)))
        failures = verify_static_preservation(bot_choice(), EnumBounds(2, 4)).failures
        assert [f.kind for f in failures] == ["static-preservation"] * 4
        assert all(f.detail.endswith(': counterexample <T"0.a", B"0.b"> / <B"0.b", T"0.a"> for T')
                   for f in failures)

    @pytest.mark.parametrize("base", [first_mover_wins(), bot_choice()], ids=lambda g: g.name)
    @pytest.mark.parametrize("max_run_len", [0, 1])
    def test_a_run_bound_without_swaps_is_a_precondition_flag(self, base, max_run_len, monkeypatch):
        # no swap fits in a run shorter than 2, so a scan there passes vacuously
        def no_scan(*args):
            raise AssertionError("scanned at a bound that holds no swap")

        monkeypatch.setattr(sim, "is_static", no_scan)
        monkeypatch.setattr(sim, "static_and_lemma", no_scan)
        report = verify_static_preservation(base, EnumBounds(2, max_run_len))
        assert not report.ok
        assert [f.kind for f in report.failures] == ["precondition"]

    def test_non_static_base_is_a_precondition_flag(self):
        report = verify_static_preservation(first_mover_wins(), EnumBounds(2, 4))
        assert not report.ok
        assert all(f.kind == "precondition" for f in report.failures)
