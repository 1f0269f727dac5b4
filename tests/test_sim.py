"""Interaction harness, trace audits, and the verification drivers."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

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
    Trace,
    audit_trace,
    check_illegality_lemma,
    disjoin,
    is_static,
    leaf,
    make_recurrence,
    negate,
    node,
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
from colgames.delay import MAX_RUN_LEN
from colgames.recurrence import TIGHT_RECURRENCE
from colgames.strategy import StepNote, exhaustive_adversaries
from colgames.suite import (
    SWAP_SUITE,
    TRANSLATION_SUITE,
    alternating,
    bot_choice,
    first_mover_wins,
    leaf_top,
    top_choice,
)

from _util import BrokenRemapStrategy, late

BOUNDS = EnumBounds(max_address_len=2, max_run_len=12)


@pytest.fixture
def broken_machine(monkeypatch):
    """verify_translation plays the corrupted routine as the direction's machine."""
    monkeypatch.setattr(sim, "strategy_for", lambda compound, direction: BrokenRemapStrategy())


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


def _trees(depth):
    """Every game tree of at most ``depth`` moves over T a and B b: 2, 18
    and 722 for depths 0, 1 and 2."""
    if depth == 0:
        return [leaf(TOP), leaf(BOT)]
    below = [None] + _trees(depth - 1)
    return [node(winner, {edge: child for edge, child in ((lm(TOP, "a"), a), (lm(BOT, "b"), b))
                          if child is not None})
            for winner in (TOP, BOT) for a in below for b in below]


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

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_a_step_cap_under_one_is_refused(self, max_steps):
        with pytest.raises(ValueError, match="at least 1"):
            run_interaction(pass_strategy(), pass_strategy(), leaf_top(), max_steps)

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
        # the same refusal, and message, as verify_static_preservation's
        with pytest.raises(PreconditionError, match="^base game 'first_mover_wins' is not static; "
                                                    'counterexample: <T"a", B"b"> / '):
            verify_translation(first_mover_wins(), Direction.TIGHT_TO_LOOSE, BOUNDS, budget=1)

    def test_precheck_ignores_a_short_run_bound(self):
        # a precheck at run length 2 would pass late, whose counterexample
        # takes 3 moves, and 208 adversaries would play it without failure
        with pytest.raises(PreconditionError, match="not static"):
            verify_translation(late(), Direction.TIGHT_TO_LOOSE, EnumBounds(2, 2), budget=2)

    def test_precheck_covers_every_play_length(self):
        # static at run bound 4 and refuted at 5: a precheck at 4 passed it,
        # and 211 adversaries then played it at budget 2 without a failure
        base = late(forced=3)
        assert is_static(base, EnumBounds(2, 4)).static
        with pytest.raises(PreconditionError, match="not static; counterexample: <B\"c\", B\"c\", B\"c\""):
            verify_translation(base, Direction.TIGHT_TO_LOOSE, EnumBounds(2, 64), budget=2)

    def test_step_cap_past_the_ceiling_is_refused(self):
        # the precheck runs one move past the cap, so the cap stays under the ceiling
        with pytest.raises(PreconditionError, match=f"step cap {MAX_RUN_LEN} leaves no room"):
            verify_translation(bot_choice(), Direction.TIGHT_TO_LOOSE, BOUNDS, budget=1, max_steps=MAX_RUN_LEN)
        report = verify_translation(bot_choice(), Direction.TIGHT_TO_LOOSE, BOUNDS, budget=1,
                                    max_steps=MAX_RUN_LEN - 1)
        assert report.ok and report.truncated == 0

    def test_corrupted_routine_is_caught(self, broken_machine):
        # at the default step cap of 64, no play is cut short
        report = verify_translation(bot_choice(), Direction.LOOSE_TO_TIGHT, BOUNDS, budget=2)
        assert (len(report.failures), report.adversaries, report.truncated) == (16, 17, 0)

    # plays of bot_choice at budget 2 that the step caps 1 to 6 cut off
    CUT_SHORT = {Direction.TIGHT_TO_LOOSE: (14, 33, 77, 166, 140, 32),
                 Direction.LOOSE_TO_TIGHT: (10, 11, 4, 0, 0, 0)}

    @pytest.mark.parametrize("direction", list(Direction))
    def test_a_play_cut_short_is_not_a_lost_play(self, direction):
        # a truncated trace is audited only on what its prefix shows
        reports = [verify_translation(bot_choice(), direction, BOUNDS, budget=2, max_steps=max_steps)
                   for max_steps in range(1, 7)]
        assert all(report.failures == () for report in reports)
        assert tuple(report.truncated for report in reports) == self.CUT_SHORT[direction]

    def test_reports_are_deterministic(self):
        first = verify_translation(bot_choice(), Direction.LOOSE_TO_TIGHT, BOUNDS, budget=2)
        second = verify_translation(bot_choice(), Direction.LOOSE_TO_TIGHT, BOUNDS, budget=2)
        assert first == second

    def test_budget_three_traces_are_pinned(self):
        # one running sha256 over every budget-3 trace of the translation
        # suite in both directions, as the benchmark plays them: the moves,
        # each note's reacted-to index and node map, the outcome, the
        # offender and the truncation flag
        digest, count = hashlib.sha256(), 0
        for base in TRANSLATION_SUITE:
            for direction in Direction:
                compound = translation_compound(base, direction)
                machine = sim.strategy_for(compound, direction)
                for t in exhaustive_adversaries(compound, machine, EnumBounds(2, 64), 3, max_steps=64):
                    notes = [(n.reacted_to, getattr(n.state, "fmap", None)) for n in t.notes]
                    digest.update(repr((t.moves, notes, t.outcome, t.offender, t.truncated)).encode())
                    count += 1
        assert (count, digest.hexdigest()[:16]) == (6493, "da7edfd40f992ba4")


class TestCompositeBases:
    """The drivers take any static base, not only a finite tree."""

    # (base, budget, adversaries per direction, failures of the corrupted routine)
    CASES = [
        (negate(bot_choice()), 3, (950, 420), 344),
        (disjoin(bot_choice(), top_choice()), 2, (253, 88), 30),
        (make_recurrence(bot_choice(), TIGHT_RECURRENCE), 2, (861, 44), 26),
    ]
    IDS = ["not", "or", "tbr_t"]

    @pytest.mark.parametrize("base, budget, counts, broken", CASES, ids=IDS)
    def test_translation_wins_in_both_directions(self, base, budget, counts, broken):
        for direction, count in zip(Direction, counts):
            report = verify_translation(base, direction, BOUNDS, budget=budget)
            assert report.adversaries == count
            assert report.failures == ()

    @pytest.mark.parametrize("base, budget, counts, broken", CASES, ids=IDS)
    def test_corrupted_routine_is_caught(self, base, budget, counts, broken, broken_machine):
        report = verify_translation(base, Direction.LOOSE_TO_TIGHT, BOUNDS, budget=budget)
        assert (len(report.failures), report.adversaries) == (broken, counts[1])

    @pytest.mark.parametrize(
        "base, bounds",
        [
            (negate(bot_choice()), EnumBounds(2, 5)),
            (disjoin(bot_choice(), top_choice()), EnumBounds(1, 5)),
            (make_recurrence(bot_choice(), TIGHT_RECURRENCE), EnumBounds(1, 4)),
        ],
        ids=lambda x: str(x) if isinstance(x, EnumBounds) else x.name,
    )
    def test_static_preservation(self, base, bounds):
        assert verify_static_preservation(base, bounds).ok


@pytest.mark.parametrize("base", SWAP_SUITE, ids=lambda g: g.name)
class TestSwapSuite:
    """Static bases whose swaps matter: a legal swap's two orders reach
    different states, so the checks compare different legal outcomes."""

    def test_a_legal_swap_reaches_two_states(self, base):
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
    def test_static_preservation(self, base, bounds):
        assert verify_static_preservation(base, bounds).ok

    def test_translation_wins_in_both_directions(self, base):
        bounds = EnumBounds(max_address_len=2, max_run_len=64)
        for direction, count in zip(Direction, (3874, 682)):
            report = verify_translation(base, direction, bounds, budget=3)
            assert report.adversaries == count
            assert report.failures == ()

    def test_corrupted_routine_is_caught(self, base, broken_machine):
        report = verify_translation(base, Direction.LOOSE_TO_TIGHT, EnumBounds(2, 64), budget=3)
        expected = {"second_mover_wins": 541, "first_mover_loses": 535}[base.name]
        assert (len(report.failures), report.adversaries) == (expected, 682)


class TestAuditTrace:
    """One test per audit message; each asserts the whole tuple."""

    LOST = "outcome: machine did not win"

    @staticmethod
    def _tight_to_loose(machine, script):
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        trace = run_interaction(machine, scripted_adversary(script), game, 10)
        return audit_trace(trace, Direction.TIGHT_TO_LOOSE, game)

    @staticmethod
    def _loose_to_tight(move, state):
        # one environment move in the tight component, noted with ``state``
        game = translation_compound(bot_choice(), Direction.LOOSE_TO_TIGHT)
        trace = Trace((LabMove(BOT, move),), (StepNote(0, state),), TOP, None)
        return audit_trace(trace, Direction.LOOSE_TO_TIGHT, game)

    def test_flags_wrong_outcome_traces(self):
        # hand-build a legal but machine-lost trace: the adversary plays its
        # base move in the loose component and the machine never answers
        assert self._tight_to_loose(pass_strategy(), ["2..b"]) == (
            self.LOST, "identity: decisive projections do not mirror")

    def test_a_wrong_recorded_offender_is_reported_not_trusted(self):
        # the environment's junk move offends, but the trace records no
        # offender; the audit must not split the illegal run
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        trace = Trace((LabMove(BOT, "9"),), (), TOP, None)
        assert audit_trace(trace, Direction.TIGHT_TO_LOOSE, game) == (
            "offender: recorded offender disagrees with recomputation",)

    def test_flags_a_machine_offence(self):
        assert self._tight_to_loose(scripted_adversary(["9"]), ["2.1"]) == (
            self.LOST, "offender: machine made the first illegal move")

    def test_flags_disagreeing_last_switches(self):
        assert self._tight_to_loose(pass_strategy(), ["2.1"]) == (
            "identity: components disagree on the last switch",)

    def test_flags_differing_switch_counts(self):
        assert self._loose_to_tight("2.", RemapStrategy().init()) == (
            "identity: switch counts differ between components",)

    def test_flags_a_map_domain_off_the_outer_nodes(self):
        assert self._loose_to_tight("2.:", RemapStrategy().init()) == (
            "fmap: domain is not the outer nodes after step 0",)

    def test_a_truncated_trace_is_judged_on_its_prefix(self):
        # cut off before the machine answers: neither lost nor unmirrored,
        # but an offence or a node map off the outer nodes still shows
        game = translation_compound(bot_choice(), Direction.TIGHT_TO_LOOSE)
        cut = Trace((LabMove(BOT, "2..b"),), (), BOT, None, truncated=True)
        assert audit_trace(cut, Direction.TIGHT_TO_LOOSE, game) == ()
        cut = Trace((LabMove(BOT, "2.1"), LabMove(TOP, "9")), (), BOT, Offender(1, TOP), True)
        assert audit_trace(cut, Direction.TIGHT_TO_LOOSE, game) == (
            "offender: machine made the first illegal move",)
        game = translation_compound(bot_choice(), Direction.LOOSE_TO_TIGHT)
        for move, found in (("2.", ()), ("2.:", ("fmap: domain is not the outer nodes after step 0",))):
            cut = Trace((LabMove(BOT, move),), (StepNote(0, RemapStrategy().init()),), TOP, None, True)
            assert audit_trace(cut, Direction.LOOSE_TO_TIGHT, game) == found

    def test_flags_map_values_that_prefix_each_other(self):
        state = replace(RemapStrategy().init(), fmap=(("0", "0"), ("1", "0")))
        assert self._loose_to_tight("2.:", state) == (
            "fmap: values not prefix-free after step 0",)


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
                            lambda game, bounds: (StaticVerdict(), report))
        failures = verify_static_preservation(bot_choice(), EnumBounds(2, 4)).failures
        assert [f.kind for f in failures] == ["illegality-lemma"] * 4
        assert all(f.detail.endswith("(a shortest one of 3 violations)") for f in failures)
        assert all('delay pair <T"0.a", B"0.b"> / <B"0.b", T"0.a"> for T' in f.detail
                   for f in failures)

    def test_static_failure_prints_its_counterexample_as_runs(self, monkeypatch):
        gamma = (LabMove(TOP, "0.a"), LabMove(BOT, "0.b"))
        verdict = StaticVerdict(counterexample=(gamma, gamma[::-1], TOP))
        monkeypatch.setattr(sim, "static_and_lemma",
                            lambda game, bounds: (verdict, LemmaReport((), 7, 0)))
        failures = verify_static_preservation(bot_choice(), EnumBounds(2, 4)).failures
        assert [f.kind for f in failures] == ["static-preservation"] * 4
        assert all(f.detail.endswith(': counterexample <T"0.a", B"0.b"> / <B"0.b", T"0.a"> for T')
                   for f in failures)

    @pytest.mark.parametrize("base", [first_mover_wins(), bot_choice()], ids=lambda g: g.name)
    @pytest.mark.parametrize("max_run_len", [0, 1])
    def test_a_run_bound_without_swaps_is_refused(self, base, max_run_len, monkeypatch):
        # no swap fits in a run shorter than 2, so a scan there passes vacuously
        def no_scan(*args):
            raise AssertionError("scanned at a bound that holds no swap")

        monkeypatch.setattr(sim, "is_static", no_scan)
        monkeypatch.setattr(sim, "static_and_lemma", no_scan)
        with pytest.raises(PreconditionError,
                           match=f"^run bound {max_run_len} holds no swap; use at least 2$"):
            verify_static_preservation(base, EnumBounds(2, max_run_len))

    @pytest.mark.parametrize("max_run_len", [MAX_RUN_LEN, 10 ** 20])
    def test_a_run_bound_without_room_for_the_base_check_is_refused(self, max_run_len, monkeypatch):
        # the base is checked one move past the bound, which the scan refuses past MAX_RUN_LEN
        def no_scan(*args):
            raise AssertionError("scanned at a bound the base check cannot reach")

        monkeypatch.setattr(sim, "is_static", no_scan)
        monkeypatch.setattr(sim, "static_and_lemma", no_scan)
        with pytest.raises(PreconditionError, match=f"^run bound {max_run_len} leaves no room to check "
                                                    f"the base one move past it; use at most 1023$"):
            verify_static_preservation(bot_choice(), EnumBounds(2, max_run_len))

    def test_a_base_whose_own_lemma_fails_at_the_bound_is_refused(self):
        # static at run length 2, where its own lemma fails: T offends first
        # in B b, T a but not in T a, B b; with an illegal B move after both,
        # T wins the first and loses the second, a counterexample at length 3
        base = FiniteGame("lemma_at_two", node(TOP, {lm(TOP, "a"): node(TOP, {lm(BOT, "b"): leaf(BOT)}),
                                                     lm(BOT, "b"): node(TOP, {lm(BOT, "b"): leaf(BOT)})}))
        assert is_static(base, EnumBounds(1, 2)).static
        assert check_illegality_lemma(base, EnumBounds(1, 2)).violation_count
        with pytest.raises(PreconditionError, match="^base game 'lemma_at_two' is not static"):
            verify_static_preservation(base, EnumBounds(1, 2))

    @pytest.mark.parametrize("max_run_len, accepted", [(2, 66), (3, 66)])
    def test_every_base_static_past_the_bound_passes(self, max_run_len, accepted):
        # the bounded claim over all 722 trees of depth <= 2 over T a and B b:
        # a base static at n + 1 gets an ok report at n, any other is refused
        bounds, passed = EnumBounds(1, max_run_len), 0
        for i, root in enumerate(_trees(2)):
            base = FiniteGame(f"tree{i}", root)
            if is_static(base, EnumBounds(1, max_run_len + 1)).static:
                assert verify_static_preservation(base, bounds).ok, base
                passed += 1
            else:
                with pytest.raises(PreconditionError, match="not static"):
                    verify_static_preservation(base, bounds)
        assert (i + 1, passed) == (722, accepted)

    def test_a_non_static_base_is_refused(self):
        message = ("base game 'first_mover_wins' is not static; counterexample: "
                   '<T"a", B"b"> / <B"b", T"a"> for T')
        with pytest.raises(PreconditionError) as raised:
            verify_static_preservation(first_mover_wins(), EnumBounds(2, 4))
        assert str(raised.value) == message
