"""Interaction harness, trace audits, and the verification drivers."""

from __future__ import annotations

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
    top_choice,
)

from _util import BrokenRemapStrategy

BOUNDS = EnumBounds(max_address_len=2, max_run_len=12)


class _Recording:
    """A machine that records the length of every position it reacts to."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.asked: list[int] = []

    def init(self):
        return self.inner.init()

    def react(self, state, position, latest):
        self.asked.append(len(position))
        return self.inner.react(state, position, latest)


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
        assert sum(n.emitted for n in trace.notes) == sum(
            1 for x in trace.moves if x.label is TOP
        )


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

    def test_corrupted_routine_is_caught(self):
        report = verify_translation(
            bot_choice(),
            Direction.LOOSE_TO_TIGHT,
            BOUNDS,
            budget=2,
            machine=BrokenRemapStrategy(),
        )
        assert len(report.failures) >= 1

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

    def test_non_static_base_is_a_precondition_flag(self):
        report = verify_static_preservation(first_mover_wins(), EnumBounds(2, 4))
        assert not report.ok
        assert all(f.kind == "precondition" for f in report.failures)
