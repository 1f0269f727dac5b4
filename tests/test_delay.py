"""Delay relation, delay enumeration, static checking."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from colgames import (
    BOT,
    TOP,
    DelayWitness,
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
from colgames.delay import _StateScan, static_and_lemma
from colgames.games import FiniteGame, Game, GameNode, leaf, node
from colgames.recurrence import ALL_KINDS, LOOSE_RECURRENCE, TIGHT_RECURRENCE, Version
from colgames.suite import STATIC_SUITE, bot_choice, first_mover_wins, leaf_top

from _util import (
    ReferenceRunTable,
    SwapScan,
    all_interleavings,
    all_runs,
    game_nodes,
    is_delay_naive,
    pairwise_lemma_scan,
    pairwise_static_scan,
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


class TestDelayWitness:
    def test_accepts_valid(self):
        gamma = (lm(TOP, "a"), lm(BOT, "b"))
        DelayWitness(gamma, (lm(BOT, "b"), lm(TOP, "a")), TOP)

    def test_rejects_invalid(self):
        gamma = (lm(BOT, "b"), lm(TOP, "a"))
        with pytest.raises(ValueError):
            DelayWitness(gamma, (lm(TOP, "a"), lm(BOT, "b")), TOP)


class _SetWinnerGame(Game):
    """Depth-one game: every move always legal, winner a function of the
    set of labeled moves played.  Such games are static by construction.
    The state is the set of labeled moves played."""

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

    def legal_moves(self, position, player, bounds):
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


# first_mover_wins recurrences need both root payloads in the pool to
# show that they are not static.
_BOTH_PAYLOAD_POOLS = {
    Version.TIGHT: (":", "0:", "0", "0.a", "0.b"),
    Version.LOOSE: (":", "01", ".a", ".b", "0.a", "0.b"),
}


def _oracle_cases():
    """(game, pool) for each static suite base and first_mover_wins, and
    their four recurrences; pool None means the game's probe pool."""
    for base in STATIC_SUITE + (first_mover_wins(),):
        yield base, None
        for kind in ALL_KINDS:
            pool = _BOTH_PAYLOAD_POOLS[kind.version] if base.name == "first_mover_wins" else None
            yield make_recurrence(base, kind), pool


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
    a, b and c, or one of its four recurrences, at run length <= 3; pool
    None is the probe pool."""
    game, moves = _random_game(draw, draw(game_nodes(3)))
    pool = draw(st.none() | st.lists(st.sampled_from(moves), max_size=4, unique=True))
    return game, EnumBounds(draw(st.integers(0, 2)), draw(st.integers(0, 3))), pool


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
    return game, EnumBounds(draw(st.integers(0, 2)), max_run_len), pool


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


class TestStateInterning:
    """Game states are compared and hashed by structure, so runs that
    reach separately built but equal states share one state id."""

    @staticmethod
    def _tree():
        return node(BOT, {lm(TOP, "a"): node(TOP, {lm(BOT, "b"): leaf(BOT)}), lm(BOT, "b"): leaf(TOP)})

    def test_equal_trees_compare_and_hash_equal(self):
        one, two = self._tree(), self._tree()
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert hash(one) == hash((one.winner, one.edges))
        assert one != node(BOT, {lm(TOP, "a"): leaf(TOP), lm(BOT, "b"): leaf(TOP)})

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_recurrence_states_intern_to_one_id(self, kind):
        # T a and T c lead to two separately built copies of one tree
        twins = FiniteGame("twins", GameNode(BOT, ((lm(TOP, "a"), self._tree()),
                                                   (lm(TOP, "c"), self._tree()))))
        game = make_recurrence(twins, kind)
        after_a, after_c = (game.step(game.start(), lm(TOP, move)) for move in (".a", ".c"))
        assert after_a == after_c and hash(after_a) == hash(after_c)
        scan = _StateScan(game, EnumBounds(0, 1), (".a", ".c"))
        assert list(scan.levels[1].values()) == [2]
