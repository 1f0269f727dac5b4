"""Delay relation, delay enumeration, static checking."""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from colgames import (
    BOT,
    TOP,
    EnumBounds,
    LabMove,
    check_illegality_lemma,
    enumerate_delays,
    is_delay,
    is_static,
    label_subsequence,
    make_recurrence,
    neg_player,
    offender,
    won_by,
)
from colgames.delay import MAX_RUN_LEN, OFF_B, _StateScan, move_pool, static_and_lemma
from colgames.games import FiniteGame, Game, GameNode, PreconditionError, leaf, node
from colgames.dsl import elaborate, parse_game_expr
from colgames.recurrence import ALL_KINDS, LOOSE_RECURRENCE, OP_NAMES, TIGHT_RECURRENCE, Version
from colgames.sim import Direction, translation_compound
from colgames.suite import (
    STATIC_SUITE,
    SWAP_SUITE,
    TRANSLATION_SUITE,
    bot_choice,
    first_mover_wins,
    leaf_top,
    second_mover_wins,
    suite_defs,
)

from _util import (
    CountingGame,
    ReferenceRunTable,
    SwapScan,
    all_interleavings,
    all_runs,
    game_nodes,
    is_delay_naive,
    pairwise_lemma_scan,
    pairwise_static_scan,
    probe_pool,
)

BOUNDS = EnumBounds(max_address_len=2, max_run_len=5)


def lm(label, move):
    return LabMove(label, move)


class TestIsDelay:
    def test_reflexive(self):
        run = (lm(TOP, "a"), lm(BOT, "b"), lm(TOP, "a"))
        assert is_delay(run, run, TOP)
        assert is_delay(run, run, BOT)

    def test_machine_move_may_move_later(self):
        gamma = (lm(TOP, "a"), lm(BOT, "b"))
        delta = (lm(BOT, "b"), lm(TOP, "a"))
        assert is_delay(delta, gamma, TOP)
        assert not is_delay(delta, gamma, BOT)
        assert is_delay_naive(delta, gamma, TOP)
        assert not is_delay_naive(delta, gamma, BOT)

    def test_machine_move_may_not_move_earlier(self):
        gamma = (lm(BOT, "b"), lm(TOP, "a"))
        delta = (lm(TOP, "a"), lm(BOT, "b"))
        assert not is_delay(delta, gamma, TOP)
        assert not is_delay_naive(delta, gamma, TOP)

    def test_requires_equal_subsequences(self):
        assert not is_delay((lm(TOP, "a"),), (lm(TOP, "b"),), TOP)
        assert not is_delay((), (lm(BOT, "b"),), TOP)

    def test_agrees_with_naive_oracle_exhaustively(self):
        runs = list(all_runs(["a", "b"], 4))
        for gamma in runs:
            for p in (TOP, BOT):
                mine = label_subsequence(gamma, p)
                theirs = label_subsequence(gamma, neg_player(p))
                for delta in all_interleavings(mine, theirs):
                    assert is_delay(delta, gamma, p) == is_delay_naive(delta, gamma, p)


class TestEnumerateDelays:
    def test_empty_and_singleton(self):
        assert enumerate_delays((), TOP) == {()}
        single = (lm(TOP, "a"),)
        assert enumerate_delays(single, TOP) == {single}

    def test_guard_on_long_runs(self):
        with pytest.raises(ValueError):
            enumerate_delays(tuple(lm(TOP, "a") for _ in range(9)), TOP)

    def test_matches_interleaving_filter_oracle(self):
        for gamma in all_runs(["a", "b"], 5):
            for p in (TOP, BOT):
                mine = label_subsequence(gamma, p)
                theirs = label_subsequence(gamma, neg_player(p))
                oracle = {
                    delta
                    for delta in all_interleavings(mine, theirs)
                    if is_delay_naive(delta, gamma, p)
                }
                assert enumerate_delays(gamma, p) == oracle

    def test_every_result_is_a_delay(self):
        gamma = (lm(TOP, "a"), lm(BOT, "b"), lm(TOP, "a"), lm(BOT, "b"))
        for p in (TOP, BOT):
            for delta in enumerate_delays(gamma, p):
                assert is_delay(delta, gamma, p)


class TestDelayAlgebra:
    def test_symmetry(self):
        # A delay for one player is, seen from the other side, an
        # anticipation: the original is the adversary's delay of it.
        for gamma in all_runs(["a", "b"], 5):
            for p in (TOP, BOT):
                for delta in enumerate_delays(gamma, p):
                    assert is_delay(gamma, delta, neg_player(p))

    def test_transitivity_within_one_player(self):
        for gamma in all_runs(["a", "b"], 4):
            for p in (TOP, BOT):
                delays_1 = enumerate_delays(gamma, p)
                for delta_1 in delays_1:
                    for delta_2 in enumerate_delays(delta_1, p):
                        assert is_delay(delta_2, gamma, p)


class _SetWinnerGame(Game):
    """Depth-one game: every move always legal, winner a function of the
    set of labeled moves played.  Such games are static by construction.
    The state is the set of labeled moves played; its probe pool for the
    oracles is the alphabet."""

    def __init__(self, alphabet, winner_fn):
        self._alphabet = tuple(alphabet)
        self._winner_fn = winner_fn
        self.name = "set_winner"

    def start(self):
        return frozenset()

    def step(self, state, lab_move):
        return state | {lab_move} if lab_move.move in self._alphabet else None

    def outcome(self, state):
        return self._winner_fn(state)

    def moves(self, state, player, bounds):
        return frozenset(self._alphabet)

    def probe_moves(self, bounds):
        return self._alphabet


class TestIsStatic:
    def test_leaf_game_is_static(self):
        verdict = is_static(leaf_top(), BOUNDS)
        assert verdict.static
        assert verdict.counterexample is None

    def test_first_mover_wins_is_not_static(self):
        verdict = is_static(first_mover_wins(), BOUNDS)
        assert not verdict.static
        gamma, delta, p = verdict.counterexample
        assert gamma == (lm(TOP, "a"), lm(BOT, "b"))
        assert delta == (lm(BOT, "b"), lm(TOP, "a"))
        assert p is TOP
        # independently confirm the counterexample
        from colgames import won_by

        g = first_mover_wins()
        assert is_delay_naive(delta, gamma, p)
        assert won_by(g, gamma, p)
        assert not won_by(g, delta, p)

    def test_set_winner_games_are_static(self):
        # exhaustively over winner functions that depend on at most two
        # designated labeled moves over a two-move alphabet
        alphabet = ("a", "b")
        probes = [lm(TOP, "a"), lm(BOT, "b")]
        for bits in itertools.product([False, True], repeat=4):
            def winner_fn(moves, bits=bits):
                index = 2 * (probes[0] in moves) + (probes[1] in moves)
                return TOP if bits[index] else BOT

            game = _SetWinnerGame(alphabet, winner_fn)
            assert is_static(game, EnumBounds(0, 4)).static

    def test_explicit_pool_override(self):
        verdict = is_static(
            leaf_top(), BOUNDS, pool=["p", "q"]
        )
        assert verdict.static


class TestIllegalityLemma:
    def test_zero_violations_on_recurrence_of_static_base(self):
        base = bot_choice()
        game = make_recurrence(base, TIGHT_RECURRENCE)
        report = check_illegality_lemma(game, BOUNDS)
        assert report.violations == ()
        assert report.violation_count == 0
        assert report.pairs_checked > 0

    def test_vacuous_on_empty_universe(self):
        base = leaf_top()
        game = make_recurrence(base, TIGHT_RECURRENCE)
        report = check_illegality_lemma(game, EnumBounds(0, 0), pool=[])
        assert report.violations == ()
        assert report.pairs_checked == 0

    def test_reflexive_pairs_are_consistent(self):
        # a run that offends for p is trivially its own p-delay; the scan
        # never flags identical pairs
        base = bot_choice()
        game = make_recurrence(base, TIGHT_RECURRENCE)
        report = check_illegality_lemma(game, EnumBounds(1, 3))
        assert report.violations == ()


class TestStaticPreservation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_recurrences_of_bot_choice_are_static(self, kind):
        base = bot_choice()
        game = make_recurrence(base, kind)
        verdict = is_static(game, EnumBounds(2, 4))
        assert verdict.static, verdict.counterexample


class TestMovePool:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.version.value + "-" + kind.structural.name)
    def test_first_mover_wins_recurrences_are_refuted_with_the_default_pool(self, kind):
        # the four-move probe pool offered one root payload, a, so every
        # recurrence of first_mover_wins passed for static
        game = make_recurrence(first_mover_wins(), kind)
        verdict = is_static(game, EnumBounds(2, 3))
        assert not verdict.static
        gamma, delta, p = verdict.counterexample
        assert is_delay_naive(delta, gamma, p)
        assert won_by(game, gamma, p) and not won_by(game, delta, p)

    @pytest.mark.parametrize("base", TRANSLATION_SUITE, ids=lambda base: base.name)
    def test_translation_bases_keep_the_precheck_pool(self, base):
        # every move of a shallow tree, then the junk move x
        bounds = EnumBounds(2, 4)
        assert move_pool(base, bounds) == base.probe_moves(bounds)

    # x is a move of the first tree, x and y of the second, so the junk
    # move is y, then z
    _JUNK_TREES = (
        FiniteGame("x_move", node(TOP, {lm(TOP, "x"): leaf(BOT)})),
        FiniteGame("xy_moves", node(TOP, {lm(TOP, "x"): node(BOT, {lm(BOT, "y"): leaf(TOP)})})),
    )

    @pytest.mark.parametrize("base", tuple(suite_defs().values()) + _JUNK_TREES,
                             ids=lambda base: base.name)
    def test_the_oracle_pool_of_a_tree_is_its_probe_moves(self, base):
        bounds = EnumBounds(2, 4)
        assert probe_pool(base, bounds) == base.probe_moves(bounds)


# first_mover_wins recurrences need both root payloads in the pool to
# show that they are not static.
_BOTH_PAYLOAD_POOLS = {
    Version.TIGHT: (":", "0:", "0", "0.a", "0.b"),
    Version.LOOSE: (":", "01", ".a", ".b", "0.a", "0.b"),
}


def _oracle_cases():
    """(game, pool) for each static suite base and first_mover_wins, and
    their four recurrences, with the probe pools the oracles can afford."""
    for base in STATIC_SUITE + (first_mover_wins(),):
        yield base, probe_pool(base, BOUNDS)
        for kind in ALL_KINDS:
            game = make_recurrence(base, kind)
            pool = (_BOTH_PAYLOAD_POOLS[kind.version] if base.name == "first_mover_wins"
                    else probe_pool(game, BOUNDS))
            yield game, pool


def _is_adjacent_swap(gamma, delta, p):
    """delta is gamma with one p move swapped past the next adversary move."""
    diff = [i for i, (g, d) in enumerate(zip(gamma, delta)) if g != d]
    if len(gamma) != len(delta) or len(diff) != 2 or diff[1] != diff[0] + 1:
        return False
    i = diff[0]
    return (
        gamma[i].label is p
        and gamma[i + 1].label is not p
        and (delta[i], delta[i + 1]) == (gamma[i + 1], gamma[i])
    )


class TestSwapScanAgainstPairwiseOracle:
    BOUNDS = EnumBounds(2, 3)
    CASES = list(_oracle_cases())

    @pytest.mark.parametrize("game, pool", CASES, ids=[g.name for g, _ in CASES])
    def test_agrees_with_pairwise_scan(self, game, pool):
        verdict, report = static_and_lemma(game, self.BOUNDS, pool)
        table = ReferenceRunTable(game, self.BOUNDS, pool)
        assert verdict.static == pairwise_static_scan(table).static
        assert bool(report.violations) == bool(pairwise_lemma_scan(table).violations)
        if verdict.counterexample is not None:
            gamma, delta, p = verdict.counterexample
            assert _is_adjacent_swap(gamma, delta, p)
            assert is_delay_naive(delta, gamma, p)
            assert won_by(game, gamma, p)
            assert not won_by(game, delta, p)
        for gamma, delta, p in report.violations:
            assert _is_adjacent_swap(gamma, delta, p)
            assert is_delay_naive(delta, gamma, p)
            off_delta, off_gamma = offender(game, delta), offender(game, gamma)
            assert off_delta is not None and off_delta.culprit is p
            assert off_gamma is None or off_gamma.culprit is not p

    def test_oracle_cases_include_refutations(self):
        # the agreement above must cover non-static games and lemma
        # violations, not only vacuous passes
        refuted = [
            game.name
            for game, pool in self.CASES
            if not is_static(game, self.BOUNDS, pool).static
        ]
        assert refuted == ["first_mover_wins"] + [
            f"{op}(first_mover_wins)" for op in ("tbr_t", "cbr_t", "tbr_l", "cbr_l")
        ]


# The swap-scan oracle of tests/_util.py, with its lemma walk.
SWAP_SCAN = functools.partial(SwapScan, lemma=True)

# T a, B b, T c is legal, and both its swaps are lemma violations of the
# shortest length: B b, T a, T c is first offended by T, and T a, T c, B b
# by B.
_TWICE = FiniteGame("twice", node(BOT, {
    lm(TOP, "a"): node(BOT, {lm(BOT, "b"): node(BOT, {lm(TOP, "c"): leaf(BOT)}),
                             lm(TOP, "c"): node(BOT, {})}),
    lm(BOT, "b"): node(BOT, {lm(TOP, "a"): node(BOT, {})}),
}))


class TestRunTableAgainstReference:
    """The state scan reports exactly what the run table and the swap
    scan of the test oracles report: the same counterexample, the same
    count of swaps checked and of violations, and the same shortest
    violations in the same order."""

    CASES = list(_oracle_cases())

    @staticmethod
    def _assert_same(game, bounds, pool, oracle=ReferenceRunTable):
        table = oracle(game, bounds, pool)
        expected = (table.static_verdict(), table.lemma_report())
        assert static_and_lemma(game, bounds, pool) == expected
        assert is_static(game, bounds, pool) == expected[0]
        assert check_illegality_lemma(game, bounds, pool) == expected[1]

    @pytest.mark.parametrize("game, pool", CASES, ids=[g.name for g, _ in CASES])
    def test_suite_games(self, game, pool):
        self._assert_same(game, EnumBounds(2, 3), pool)

    @pytest.mark.parametrize("game, pool", CASES, ids=[g.name for g, _ in CASES])
    def test_suite_games_at_run_length_4(self, game, pool):
        self._assert_same(game, EnumBounds(2, 4), pool)
        self._assert_same(game, EnumBounds(2, 4), pool, SWAP_SCAN)

    @pytest.mark.parametrize("game, pool", CASES, ids=[g.name for g, _ in CASES])
    def test_suite_games_at_run_length_5(self, game, pool):
        self._assert_same(game, EnumBounds(2, 5), pool, SWAP_SCAN)

    def test_loose_recurrence_at_run_length_6(self):
        # static_refute's loose problem two moves longer: the count and the
        # shortest violations stand for 197,416 violations
        game = make_recurrence(first_mover_wins(), LOOSE_RECURRENCE)
        self._assert_same(game, EnumBounds(2, 6), _BOTH_PAYLOAD_POOLS[Version.LOOSE], SWAP_SCAN)
        report = check_illegality_lemma(game, EnumBounds(2, 6), _BOTH_PAYLOAD_POOLS[Version.LOOSE])
        assert report.violation_count == 197416
        assert {len(gamma) for gamma, _, _ in report.violations} == {2}

    def test_two_violations_of_one_run_come_in_position_order(self):
        bounds, pool = EnumBounds(0, 3), ("a", "b", "c")
        self._assert_same(_TWICE, bounds, pool)
        self._assert_same(_TWICE, bounds, pool, SWAP_SCAN)
        report = check_illegality_lemma(_TWICE, bounds, pool)
        assert [(gamma, p) for gamma, _, p in report.violations] == [
            ((lm(TOP, "a"), lm(BOT, "b"), lm(TOP, "c")), TOP),
            ((lm(TOP, "a"), lm(BOT, "b"), lm(TOP, "c")), BOT),
        ]

    @pytest.mark.parametrize("pool", [(), ("a",), ("a", "b")], ids=len)
    @pytest.mark.parametrize("max_run_len", [0, 1, 2])
    def test_edge_tables(self, pool, max_run_len):
        game = first_mover_wins()
        self._assert_same(game, EnumBounds(0, max_run_len), pool)

    def test_edge_tables_on_a_recurrence(self):
        game = make_recurrence(first_mover_wins(), TIGHT_RECURRENCE)
        for pool in ((), ("0.a",)):
            for max_run_len in (0, 1, 3):
                self._assert_same(game, EnumBounds(2, max_run_len), pool)


class TestLateCounterexamples:
    """Games whose shortest counterexamples need a third move, so the walk
    must keep following a swap's tail and report the first in (length,
    id, position) order, not the first it meets."""

    # After a and b, in either order, the third move decides; in the order
    # T a, B b both c moves win for T, in the order B b, T a both lose.
    LATE = FiniteGame("late", node(BOT, {
        lm(TOP, "a"): node(BOT, {lm(BOT, "b"): node(BOT, {lm(TOP, "c"): leaf(TOP),
                                                          lm(BOT, "c"): leaf(TOP)})}),
        lm(BOT, "b"): node(BOT, {lm(TOP, "a"): node(BOT, {lm(TOP, "c"): leaf(BOT),
                                                          lm(BOT, "c"): leaf(BOT)})}),
    }))
    # T a, B b is offended by B and so won by T; B b, T a is legal and won
    # by T until T moves again.
    CUT = FiniteGame("cut", node(TOP, {
        lm(TOP, "a"): leaf(TOP),
        lm(BOT, "b"): node(TOP, {lm(TOP, "a"): node(TOP, {})}),
    }))
    # T a, B b is legal and won by B; B b, T a is offended by T and so
    # lost by T, and T a, B b wins for T once B moves again.
    WAIT = FiniteGame("wait", node(BOT, {
        lm(TOP, "a"): node(BOT, {lm(BOT, "b"): node(BOT, {lm(BOT, "c"): leaf(TOP)})}),
        lm(BOT, "b"): node(BOT, {}),
    }))

    @pytest.mark.parametrize(
        "game, third",
        [(LATE, lm(TOP, "c")), (CUT, lm(TOP, "a")), (WAIT, lm(BOT, "a"))],
        ids=["late", "cut", "wait"],
    )
    def test_first_counterexample_is_the_smallest_of_length_3(self, game, third):
        bounds = EnumBounds(0, 3)
        ref = ReferenceRunTable(game, bounds, ("a", "b", "c"))
        expected = (ref.static_verdict(), ref.lemma_report())
        gamma = (lm(TOP, "a"), lm(BOT, "b"), third)
        assert expected[0].counterexample == (gamma, (gamma[1], gamma[0], gamma[2]), TOP)
        assert static_and_lemma(game, bounds, ("a", "b", "c")) == expected
        assert is_static(game, bounds, ("a", "b", "c")) == expected[0]


# Static at run length 2, where its own lemma fails: T offends first in
# B b, T a but not in T a, B b.  With an illegal B move after both, T wins
# the first and loses the second, so its shortest counterexample has length 3.
_LEMMA_AT_TWO = FiniteGame("lemma_at_two", node(TOP, {lm(TOP, "a"): node(TOP, {lm(BOT, "b"): leaf(BOT)}),
                                                      lm(BOT, "b"): node(TOP, {lm(BOT, "b"): leaf(BOT)})}))


# T a, B b is won by B and B b, T a is first offended by T: a lemma
# violation but no counterexample, and it comes before T c, B b, which is
# both, so one walk must not take the first swap it finds as the
# counterexample.
_VIOLATION_FIRST = FiniteGame("violation_first", node(BOT, {lm(TOP, "a"): node(BOT, {lm(BOT, "b"): leaf(BOT)}),
                                                            lm(TOP, "c"): node(BOT, {lm(BOT, "b"): leaf(TOP)}),
                                                            lm(BOT, "b"): node(BOT, {})}))


def _tally_cases():
    """(game, bounds, pool): the oracle cases at run length 4, and the
    late-counterexample games, ``_TWICE``, ``_VIOLATION_FIRST`` and
    ``_LEMMA_AT_TWO`` at run length 3."""
    for game, pool in _oracle_cases():
        yield game, EnumBounds(2, 4), pool
    for game in (TestLateCounterexamples.LATE, TestLateCounterexamples.CUT, TestLateCounterexamples.WAIT, _TWICE,
                 _VIOLATION_FIRST):
        yield game, EnumBounds(0, 3), ("a", "b", "c")
    yield _LEMMA_AT_TWO, EnumBounds(1, 3), ("a", "b", "c")


class TestOneSearchForBothVerdicts:
    """The count flags the lengths that hold a counterexample, and the
    search decodes only the shortest one flagged, so a static game is
    decided by the count alone.  When the shortest counterexample and the
    shortest violations have one length, one walk decodes both."""

    CASES = list(_tally_cases())

    @pytest.mark.parametrize("game, bounds, pool", CASES, ids=[g.name for g, _, _ in CASES])
    def test_one_call_equals_the_two_scans(self, game, bounds, pool):
        assert static_and_lemma(game, bounds, pool) == (is_static(game, bounds, pool),
                                                        check_illegality_lemma(game, bounds, pool))

    @pytest.mark.parametrize("game, bounds, pool, walks", [
        *((make_recurrence(first_mover_wins(), kind), EnumBounds(2, 4), _BOTH_PAYLOAD_POOLS[kind.version],
           [3] if kind.version is Version.TIGHT else [2]) for kind in ALL_KINDS),
        # the lemma flags length 2 and the counterexample length 3: two walks
        (_LEMMA_AT_TWO, EnumBounds(1, 3), ("a", "b", "c"), [3, 2]),
    ], ids=lambda case: getattr(case, "name", None))
    def test_equal_shortest_lengths_take_one_walk(self, game, bounds, pool, walks, monkeypatch):
        entered, bad_swaps = [], _StateScan._bad_swaps

        def counted(scan, n, kinds):
            entered.append(n)
            return bad_swaps(scan, n, kinds)

        monkeypatch.setattr(_StateScan, "_bad_swaps", counted)
        verdict, report = static_and_lemma(game, bounds, pool)
        assert entered == walks
        assert len(verdict.counterexample[0]) == walks[0] and len(report.violations[0][0]) == walks[-1]

    @pytest.mark.parametrize("game, bounds, pool", CASES, ids=[g.name for g, _, _ in CASES])
    def test_the_tally_flags_the_lengths_of_the_counterexamples(self, game, bounds, pool):
        flagged = {n for n, (_, _, bad) in enumerate(_StateScan(game, bounds, pool)._count(), 2) if bad}
        table = ReferenceRunTable(game, bounds, pool)
        assert flagged == {len(gamma) for gamma, delta, p in table.swaps()
                           if table.won(gamma, p) and not table.won(delta, p)}

    def test_the_tally_cases_include_late_and_offended_counterexamples(self):
        # flagged lengths past 2, and counterexamples whose runs are offended
        lengths = {n for game, bounds, pool in self.CASES
                   for n, (_, _, bad) in enumerate(_StateScan(game, bounds, pool)._count(), 2) if bad}
        assert lengths == {2, 3, 4}
        table = ReferenceRunTable(TestLateCounterexamples.CUT, EnumBounds(0, 3), ("a", "b", "c"))
        assert any(table.offenders[gamma] is not None and table.won(gamma, p) and not table.won(delta, p)
                   for gamma, delta, p in table.swaps())

    @pytest.mark.parametrize("game", [make_recurrence(base, kind) for base in STATIC_SUITE + SWAP_SUITE
                                      for kind in ALL_KINDS], ids=lambda g: g.name)
    def test_a_static_game_never_enters_the_search(self, game, monkeypatch):
        def search(*args):
            raise AssertionError("the search ran on a static game")

        monkeypatch.setattr(_StateScan, "_bad_swaps", search)
        bounds = EnumBounds(2, 5)
        assert is_static(game, bounds).static
        verdict, report = static_and_lemma(game, bounds)
        assert verdict.static and report.violation_count == 0

    @pytest.mark.parametrize("scan, counts", [
        (is_static, [(0, 0, 1)]),
        (static_and_lemma, [(0, 0, 1)]),
        (check_illegality_lemma, [(1, 1, 0)]),
        (static_and_lemma, [(1, 1, 0)]),
        (static_and_lemma, [(1, 1, 1)]),
    ])
    def test_a_flagged_length_without_a_bad_swap_raises(self, scan, counts, monkeypatch):
        # leaf_top has no bad swap, so a count that flags length 2 is wrong
        monkeypatch.setattr(_StateScan, "_count", lambda self: iter(counts))
        with pytest.raises(RuntimeError, match="the count flags runs of length 2"):
            scan(leaf_top(), EnumBounds(0, 2), ("a", "x"))

    def test_a_flagged_kind_the_one_walk_does_not_find_raises(self, monkeypatch):
        # _LEMMA_AT_TWO has lemma violations at length 2 but no counterexample
        monkeypatch.setattr(_StateScan, "_count", lambda self: iter([(1, 1, 1)]))
        with pytest.raises(RuntimeError, match="the count flags runs of length 2"):
            static_and_lemma(_LEMMA_AT_TWO, EnumBounds(0, 2), ("a", "b", "c"))


# Random pools draw a finite base's moves from its alphabet plus a junk
# move, and a recurrence's from every probe-move shape at addresses of
# length <= 2: switches, replications and payload moves.
_BASE_MOVES = ("a", "b", "c", "x")
_STEMS = ("", "0", "1", "00", "01")
_RECURRENCE_MOVES = (
    tuple(w for w in _STEMS if w)
    + tuple(w + ":" for w in _STEMS)
    + tuple(f"{w}.{a}" for w in _STEMS for a in "abc")
)


def _random_game(draw, root):
    """The finite tree ``root`` or one of its four recurrences, and the
    moves its pools draw from."""
    game = FiniteGame("random", root)
    kind = draw(st.sampled_from((None,) + tuple(ALL_KINDS)))
    if kind is None:
        return game, _BASE_MOVES
    return make_recurrence(game, kind), _RECURRENCE_MOVES


@st.composite
def _scan_cases(draw):
    """(game, bounds, pool): a random finite tree of depth <= 3 over moves
    a, b and c, or one of its four recurrences, at run length <= 3, with
    a random pool or (drawn as None) its probe pool."""
    game, moves = _random_game(draw, draw(game_nodes(3)))
    pool = draw(st.none() | st.lists(st.sampled_from(moves), max_size=4, unique=True))
    bounds = EnumBounds(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    return game, bounds, probe_pool(game, bounds) if pool is None else pool


@st.composite
def _long_scan_cases(draw):
    """(game, bounds, pool) at run length 4 with at most 3 pool moves, so a
    pair settled at length 2 has tails of two moves below it.  The tree's
    root offers a move to each player, so that the two orders of those
    moves can settle at length 2 with a lemma violation."""
    moves = st.sampled_from(("a", "b", "c"))
    root = GameNode(draw(st.sampled_from((TOP, BOT))), (
        (LabMove(TOP, draw(moves)), draw(game_nodes(2))),
        (LabMove(BOT, draw(moves)), draw(game_nodes(2))),
    ))
    game, moves = _random_game(draw, root)
    pool = draw(st.lists(st.sampled_from(moves), min_size=1, max_size=3, unique=True))
    return game, EnumBounds(draw(st.integers(0, 2)), 4), pool


class TestNoCyclicGarbage:
    """A scan leaves nothing for the cycle collector: reference counting
    frees all it built, also when the static verdict stops at its first
    counterexample."""

    @pytest.mark.parametrize("pooled", [True, False], ids=["benchmark pool", "default pool"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: OP_NAMES[kind])
    def test_a_scan_leaves_no_cycles(self, kind, pooled):
        game = make_recurrence(first_mover_wins(), kind)
        pool = _BOTH_PAYLOAD_POOLS[kind.version] if pooled else None
        gc.collect()
        gc.disable()
        try:
            for scan in (static_and_lemma, is_static, check_illegality_lemma):
                scan(game, EnumBounds(2, 4), pool)
                assert gc.collect() == 0, scan.__name__
        finally:
            gc.enable()


class TestSwapScanProperty:
    """On random finite trees and their recurrences, with random pools, the
    scan equals the tuple-keyed reference, including the swaps it counts
    by multiplicity below settled pairs and behind illegal prefixes, and
    the violations it decodes from a settled head and a tail."""

    @staticmethod
    def _assert_equals_reference(game, bounds, pool):
        ref = ReferenceRunTable(game, bounds, pool)
        expected = (ref.static_verdict(), ref.lemma_report())
        assert static_and_lemma(game, bounds, pool) == expected
        assert is_static(game, bounds, pool) == expected[0]

    @settings(max_examples=150, deadline=None)
    @given(_scan_cases())
    def test_equals_reference(self, case):
        self._assert_equals_reference(*case)

    @settings(max_examples=100, deadline=None)
    @given(_long_scan_cases())
    def test_equals_reference_with_long_tails(self, case):
        self._assert_equals_reference(*case)


@st.composite
def _oracle_scan_cases(draw):
    """(game, bounds, pool) for the swap-scan oracle: a random finite tree
    or one of its recurrences, a set-winner game with a random winner
    table, or a late-counterexample game or ``_TWICE``, at run length <= 5."""
    family = draw(st.sampled_from(("random", "set", "late")))
    if family == "random":
        game, moves = _random_game(draw, draw(game_nodes(3)))
    elif family == "set":
        alphabet = draw(st.lists(st.sampled_from("abc"), min_size=1, unique=True))
        watched = draw(st.lists(st.builds(LabMove, st.sampled_from((TOP, BOT)), st.sampled_from(alphabet)),
                                min_size=1, max_size=2, unique=True))
        table = draw(st.lists(st.sampled_from((TOP, BOT)), min_size=4, max_size=4))

        def winner_fn(moves):
            return table[sum(1 << i for i, lm in enumerate(watched) if lm in moves)]

        game, moves = _SetWinnerGame(alphabet, winner_fn), _BASE_MOVES
    else:
        game = draw(st.sampled_from((TestLateCounterexamples.LATE, TestLateCounterexamples.CUT,
                                     TestLateCounterexamples.WAIT, _TWICE)))
        moves = _BASE_MOVES
    pool = draw(st.none() | st.lists(st.sampled_from(moves), max_size=4, unique=True))
    max_run_len = draw(st.integers(0, 5 if pool is not None and len(pool) <= 3 else 4))
    bounds = EnumBounds(draw(st.integers(0, 2)), max_run_len)
    return game, bounds, probe_pool(game, bounds) if pool is None else pool


class TestStateScanAgainstSwapScan:
    """The state scan reports what the swap scan, which visits every swap
    of every run, reports: the counterexample, the count of swaps checked
    and of violations, and the violations of the shortest length."""

    @settings(max_examples=150, deadline=None)
    @given(_oracle_scan_cases())
    def test_equals_swap_scan(self, case):
        oracle = SWAP_SCAN(*case)
        expected = (oracle.static_verdict(), oracle.lemma_report())
        assert static_and_lemma(*case) == expected
        assert is_static(*case) == expected[0]
        assert check_illegality_lemma(*case) == expected[1]
        # every pool run is counted once, under the state it leads to
        scan, runs = _StateScan(*case), {OFF_B + 1: 1}
        for n in range(case[1].max_run_len + 1):
            assert sum(runs.values()) == len(scan.labmoves) ** n
            if n < case[1].max_run_len:
                after: dict[int, int] = {}
                for s, c in runs.items():
                    for t in scan.rows[s]:
                        after[t] = after.get(t, 0) + c
                runs = after


# Twin moves: T a and T c, and B b and B d, lead to equal states from
# every state, so each pair is one move class.
_TWINS = (
    FiniteGame("first_mover_wins_twins", node(BOT, {
        lm(TOP, "a"): leaf(TOP), lm(TOP, "c"): leaf(TOP),
        lm(BOT, "b"): leaf(BOT), lm(BOT, "d"): leaf(BOT)})),
    FiniteGame("second_mover_wins_twins", node(TOP, {
        lm(TOP, "a"): node(TOP, {lm(BOT, "b"): leaf(BOT), lm(BOT, "d"): leaf(BOT)}),
        lm(TOP, "c"): node(TOP, {lm(BOT, "b"): leaf(BOT), lm(BOT, "d"): leaf(BOT)}),
        lm(BOT, "b"): node(TOP, {lm(TOP, "a"): leaf(TOP), lm(TOP, "c"): leaf(TOP)}),
        lm(BOT, "d"): node(TOP, {lm(TOP, "a"): leaf(TOP), lm(TOP, "c"): leaf(TOP)})})),
)


def _class_cases():
    """(game, pool) whose pools hold move classes of more than one move:
    the first_mover_wins recurrences with two junk moves added to their
    pools, and the twin-move bases with a junk move."""
    for kind in ALL_KINDS:
        yield make_recurrence(first_mover_wins(), kind), _BOTH_PAYLOAD_POOLS[kind.version] + ("x", "y")
    for base in _TWINS:
        yield base, ("a", "b", "c", "d", "x")


class TestMoveClasses:
    """The scan steps by one move per class of moves that lead to equal
    states, weighted by the class's size, and reports what the swap scan
    reports, which steps by every move."""

    CASES = list(_class_cases())

    @pytest.mark.parametrize("game, pool", CASES, ids=[g.name for g, _ in CASES])
    @pytest.mark.parametrize("max_run_len", [3, 4])
    def test_equals_swap_scan(self, game, pool, max_run_len):
        bounds = EnumBounds(2, max_run_len)
        scan = _StateScan(game, bounds, pool)
        assert any(m > 1 for _, m in scan.tops + scan.bots)
        oracle = SWAP_SCAN(game, bounds, pool)
        assert static_and_lemma(game, bounds, pool) == (oracle.static_verdict(), oracle.lemma_report())

    def test_twin_moves_share_a_class(self):
        scan = _StateScan(_TWINS[0], EnumBounds(0, 3), ("a", "b", "c", "d", "x"))
        # T a and T c; T b, T d and T x are illegal everywhere; likewise for B
        assert scan.tops == [(0, 2), (1, 3)]
        assert scan.bots == [(5, 3), (6, 2)]
        assert scan.rep == [0, 1, 0, 1, 1, 5, 6, 5, 6, 5]

    @pytest.mark.parametrize("scan", [static_and_lemma, is_static, check_illegality_lemma])
    def test_a_pool_listing_a_move_twice_is_refused(self, scan):
        # the repeated move would count its runs twice: 482 swaps checked
        # and 4 violations, each listed twice, where there are 290 and 2
        game = make_recurrence(first_mover_wins(), TIGHT_RECURRENCE)
        with pytest.raises(PreconditionError, match="'0.a' twice"):
            scan(game, EnumBounds(2, 3), (":", "0:", "0", "0.a", "0.b", "0.a"))
        report = check_illegality_lemma(game, EnumBounds(2, 3), _BOTH_PAYLOAD_POOLS[Version.TIGHT])
        assert (report.pairs_checked, report.violation_count) == (290, 2)


class TestPinnedResults:
    def test_the_sixty_static_and_lemma_results(self):
        # every static suite base and first_mover_wins, under each of the
        # four recurrences, at run lengths 3, 4 and 5
        digest = hashlib.sha256()
        for base in STATIC_SUITE + (first_mover_wins(),):
            for kind in ALL_KINDS:
                game = make_recurrence(base, kind)
                for max_run_len in (3, 4, 5):
                    v, r = static_and_lemma(game, EnumBounds(2, max_run_len), _BOTH_PAYLOAD_POOLS[kind.version])
                    digest.update(repr((v.static, v.counterexample, r.violations, r.pairs_checked,
                                        r.violation_count)).encode())
        assert digest.hexdigest()[:16] == "3c1a8e4153371eb2"

    def test_the_honest_pool_results(self):
        # the same bases and kinds with no pool given: the pool each walk
        # finds and both verdicts, at (2,4) and (1,5)
        digest = hashlib.sha256()
        for base in STATIC_SUITE + (first_mover_wins(),):
            for kind in ALL_KINDS:
                game = make_recurrence(base, kind)
                for bounds in (EnumBounds(2, 4), EnumBounds(1, 5)):
                    v, r = static_and_lemma(game, bounds)
                    digest.update(repr((move_pool(game, bounds), v.static, v.counterexample, r.violations,
                                        r.pairs_checked, r.violation_count)).encode())
        assert digest.hexdigest()[:16] == "007b99f82122e652"

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[OP_NAMES[kind] for kind in ALL_KINDS])
    def test_the_explicit_pool_step_counts(self, kind):
        # each state is stepped once by each labmove of the pool
        game = CountingGame(make_recurrence(first_mover_wins(), kind))
        static_and_lemma(game, EnumBounds(2, 4), _BOTH_PAYLOAD_POOLS[kind.version])
        assert game.steps == {Version.TIGHT: 70, Version.LOOSE: 120}[kind.version]


class TestOffendedTallies:
    """On ``leaf_top`` every move of a pool of m junk moves is illegal, so a
    run is offended by the author of its first move.  A swap of p's move
    past the adversary's at position i leaves delta offended by p exactly
    when i >= 1 and the run opens with a move of p's; gamma opens with the
    same move, so no swap is a violation.  With k = 2m, a run of length n
    holds 2 (n - 2) m^3 k^(n-3) such swaps.  The scan keeps every run and
    pair in the offended states, and no enumeration reaches these lengths."""

    @pytest.mark.parametrize("m, max_run_len", [(1, 30), (2, 30), (3, 30), (1, MAX_RUN_LEN)])
    def test_closed_form(self, m, max_run_len):
        k, pool = 2 * m, tuple("x" * (i + 1) for i in range(m))
        verdict, report = static_and_lemma(leaf_top(), EnumBounds(0, max_run_len), pool)
        assert verdict.static
        assert report.pairs_checked == sum(2 * (n - 2) * m**3 * k ** (n - 3) for n in range(3, max_run_len + 1))
        assert report.violation_count == 0 and report.violations == ()


class TestStateInterning:
    """Equal game states compare and hash equal (game trees are hash-consed),
    so runs that reach separately built but equal states share one state id."""

    @staticmethod
    def _tree():
        return node(BOT, {lm(TOP, "a"): node(TOP, {lm(BOT, "b"): leaf(BOT)}), lm(BOT, "b"): leaf(TOP)})

    def test_equal_trees_compare_and_hash_equal(self):
        one, two = self._tree(), self._tree()
        assert one == two and hash(one) == hash(two)
        assert one != node(BOT, {lm(TOP, "a"): leaf(TOP), lm(BOT, "b"): leaf(TOP)})

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_recurrence_states_intern_to_one_id(self, kind):
        # T a and T c lead to two separately built copies of one tree
        twins = FiniteGame("twins", GameNode(BOT, ((lm(TOP, "a"), self._tree()),
                                                   (lm(TOP, "c"), self._tree()))))
        game = make_recurrence(twins, kind)
        after_a, after_c = (game.step(game.start(), lm(TOP, move)) for move in (".a", ".c"))
        assert after_a == after_c and hash(after_a) == hash(after_c)
        # the start state's row: T .a, T .c, B .a, B .c, the last two offended
        row = _StateScan(game, EnumBounds(0, 1), (".a", ".c")).rows[OFF_B + 1]
        assert [t for t in row if t > OFF_B] == [row[0]] * 2

    ROWS = [
        (make_recurrence(second_mover_wins(), TIGHT_RECURRENCE), 1075),
        (make_recurrence(second_mover_wins(), LOOSE_RECURRENCE), 2418),
        (make_recurrence(bot_choice(), TIGHT_RECURRENCE), 246),
        (make_recurrence(bot_choice(), LOOSE_RECURRENCE), 66),
    ]

    @pytest.mark.parametrize("game, rows", ROWS, ids=[game.name for game, _ in ROWS])
    def test_canonical_states_fix_the_row_count(self, game, rows):
        # the honest-pool rows, both offended rows included: a switch keeps
        # its stem without trailing zeros and equal sibling classes merge,
        # so one position is one row (1575, 4405, 406 and 142 without)
        assert len(_StateScan(game, EnumBounds(2, 5), None).rows) == rows


def _composite_games():
    """Every suite atom, its four recurrences and their negations, a
    disjunction of each atom with the next, the sixteen recurrences of a
    recurrence of bot_choice, each recurrence of second_mover_wins under
    its own kind, and the translation compounds."""
    defs = suite_defs()
    atoms = sorted(defs)
    ops = [OP_NAMES[kind] for kind in ALL_KINDS]
    texts = (atoms + [f"{op}({a})" for a in atoms for op in ops] + [f"not({op}({a}))" for a in atoms for op in ops]
             + [f"or({a}, {b})" for a, b in zip(atoms, atoms[1:])]
             + [f"{x}({y}(bot_choice))" for x in ops for y in ops] + [f"{x}({x}(second_mover_wins))" for x in ops])
    return ([elaborate(parse_game_expr(text), defs) for text in texts]
            + [translation_compound(base, direction) for base in TRANSLATION_SUITE for direction in Direction])


class TestDefaultPoolWalk:
    """Without a pool the scan steps each state only by the moves it offers
    and makes the pool from them.  It must report what the scan over that
    pool given explicitly reports, which steps every pool move blind, over
    the same states: the state ids differ, as the interning order does, so
    the rows are compared by number and the count of each length by value."""

    @staticmethod
    def _assert_same(game, bounds):
        pool = move_pool(game, bounds)
        assert static_and_lemma(game, bounds) == static_and_lemma(game, bounds, pool)
        walked, stepped = _StateScan(game, bounds, None), _StateScan(game, bounds, pool)
        assert walked.pool == pool
        assert len(walked.rows) == len(stepped.rows)
        assert list(walked._count()) == list(stepped._count())

    @settings(max_examples=100, deadline=None)
    @given(_oracle_scan_cases())
    def test_equals_the_explicit_pool(self, case):
        game, bounds, _ = case
        self._assert_same(game, bounds)

    GAMES = _composite_games()

    @pytest.mark.parametrize("game", GAMES, ids=[game.name for game in GAMES])
    def test_equals_the_explicit_pool_on_composite_games(self, game):
        self._assert_same(game, EnumBounds(1, 3))

    STEPS = [
        ("tbr_t(" * 20 + "bot_choice" + ")" * 20, EnumBounds(1, 2), 1761),
        ("tbr_l(first_mover_loses)", EnumBounds(2, 5), 19208),
        ("tbr_t(second_mover_wins)", EnumBounds(2, 5), 3638),
    ]

    @pytest.mark.parametrize("text, bounds, steps", STEPS, ids=["tbr_t-20-deep", "tbr_l-first_mover_loses",
                                                                 "tbr_t-second_mover_wins"])
    def test_steps_only_offered_moves(self, text, bounds, steps):
        # stepping every pool move at every state took 40,609, 81,558 and
        # 17,379 steps; most of them were refused
        game = CountingGame(elaborate(parse_game_expr(text), suite_defs()))
        static_and_lemma(game, bounds)
        assert game.steps == steps


class TestRunBoundCeiling:
    """The scans count runs of each length in integers that grow with the
    length, so a run bound past ``MAX_RUN_LEN`` is refused before any
    level is built."""

    @pytest.mark.parametrize("max_run_len", [MAX_RUN_LEN + 1, 10**20])
    def test_a_bound_past_the_ceiling_is_refused(self, max_run_len):
        bounds = EnumBounds(0, max_run_len)
        with pytest.raises(PreconditionError, match="past the 1024 moves"):
            move_pool(leaf_top(), bounds)
        for scan in (static_and_lemma, is_static, check_illegality_lemma):
            for pool in (None, ("x",)):
                with pytest.raises(PreconditionError, match="past the 1024 moves"):
                    scan(leaf_top(), bounds, pool)

    def test_the_ceiling_itself_is_scanned(self):
        bounds = EnumBounds(0, MAX_RUN_LEN)
        verdict, report = static_and_lemma(leaf_top(), bounds)
        assert verdict.static and report.violation_count == 0
        assert move_pool(leaf_top(), bounds) == ("x",)
