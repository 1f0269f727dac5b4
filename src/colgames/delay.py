"""The move-delay relation, delay enumeration, and static-game checking.

A run Delta is a ``p``-delay of Gamma when both players made the same
moves in the same respective order, but ``p``'s moves may occur later in
Delta relative to the adversary's.  A game is *static* when winning is
insensitive to such delays: every run won by ``p`` stays won by ``p``
after delaying ``p``'s moves.

Every ``p``-delay of Gamma is reached from Gamma by a chain of adjacent
swaps, each moving one ``p`` move past the adversary move right after
it, and every run along the chain is itself a ``p``-delay of Gamma.  So
a property that must survive every delay survives them all exactly when
it survives every single swap: the scans below and ``enumerate_delays``
all take this one step.

Static checking is brute force at desk scale: it enumerates every run up
to a length bound whose moves are drawn from a finite pool (by default
the game's own probe pool), classifies each as legal / first-offender,
and checks every adjacent swap of every run.  The pool is a parameter
because "all runs" over unrestricted move strings is infinite; a probe
pool keeps the scan exhaustive over a universe that still exercises
every move shape.

The run table holds no run tuples.  With the pool's k labelled moves
numbered (TOP moves first), a run of length n is the id of its digit
string in base k, and each level of the table is one byte per id: legal
and won by T or by B, or first offended by T or by B.  A swap is then
id arithmetic, and only the counterexample and the violations a scan
reports are decoded back into runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .core import BOT, TOP, LabMove, Player, Run, label_subsequence, neg_player
from .games import EnumBounds, Game, PreconditionError


def _delay_profile(run: Run, p: Player) -> tuple[int, ...]:
    """For each of p's moves in order, how many adversary moves precede it."""
    out = []
    seen_other = 0
    for lm in run:
        if lm.label is p:
            out.append(seen_other)
        else:
            seen_other += 1
    return tuple(out)


def is_delay(delta: Run, gamma: Run, p: Player) -> bool:
    """Is ``delta`` a ``p``-delay of ``gamma``?

    Requires (1) equal label subsequences for both players and (2) that
    whenever the i-th adversary move precedes the j-th ``p`` move in
    gamma, it still does in delta.  Condition (2) is checked through the
    equivalent per-move counts of preceding adversary moves: delaying
    ``p``'s moves can only increase them.
    """
    q = neg_player(p)
    if label_subsequence(delta, p) != label_subsequence(gamma, p):
        return False
    if label_subsequence(delta, q) != label_subsequence(gamma, q):
        return False
    return all(
        d >= g for d, g in zip(_delay_profile(delta, p), _delay_profile(gamma, p))
    )


def _swaps(runs: Iterable[Run]) -> Iterator[tuple[Run, Run, Player]]:
    """One delay step: each adjacent pair of differently labelled moves, swapped.

    For each run gamma in order, yields ``(gamma, delta, p)`` where delta
    is gamma with the moves at i and i+1 exchanged and ``p`` labels the
    left one, so delta is the ``p``-delay of gamma that moves one ``p``
    move past the adversary move right after it.
    """
    for gamma in runs:
        for i in range(len(gamma) - 1):
            left, right = gamma[i], gamma[i + 1]
            if left.label is not right.label:
                yield gamma, gamma[:i] + (right, left) + gamma[i + 2 :], left.label


def enumerate_delays(gamma: Run, p: Player) -> frozenset[Run]:
    """All ``p``-delays of ``gamma``; guarded against interleaving blowup."""
    if len(gamma) > 8:
        raise PreconditionError("enumerate_delays is limited to runs of length <= 8")
    out = {gamma}
    frontier = {gamma}
    while frontier:
        frontier = {delta for _, delta, q in _swaps(frontier) if q is p} - out
        out |= frontier
    return frozenset(out)


@dataclass(frozen=True)
class DelayWitness:
    """A validated original/delayed run pair for one player."""

    original: Run
    delayed: Run
    player: Player

    def __post_init__(self) -> None:
        if not is_delay(self.delayed, self.original, self.player):
            raise ValueError("delayed run is not a delay of the original")


@dataclass(frozen=True)
class StaticVerdict:
    """Outcome of a bounded static check, with the first violation if any."""

    static: bool
    counterexample: tuple[Run, Run, Player] | None = None

    def __post_init__(self) -> None:
        if self.static == (self.counterexample is not None):
            raise ValueError("counterexample must be present iff not static")


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of the illegality-propagation scan over adjacent swaps.

    ``pairs_checked`` counts the swaps (gamma, delta, p) whose swapped run
    delta has ``p`` as first offender; ``violations`` are those where gamma
    does not.  A violating delay pair exists iff a violating swap does:
    along the swap chain from gamma to delta, the first run with ``p`` as
    first offender is one swap after a run without.
    """

    violations: tuple[tuple[Run, Run, Player], ...]
    pairs_checked: int


# Outcome codes, one byte per run: legal and won by T or B, or first
# offended by T or B.
WON_T, WON_B, OFF_T, OFF_B = range(4)
# The player who wins a run with each code: a legal run's winner, or the
# opponent of the culprit of an illegal one.
_WINNER = (TOP, BOT, BOT, TOP)


class _RunTable:
    """Every run over a labmove pool up to a length bound, one byte each.

    A pool of None stands for the game's probe pool.  ``labmoves`` are
    the pool's moves labelled TOP followed by the same moves labelled
    BOT, so with ``k = 2 |pool|`` a digit ``d < |pool|`` is a TOP move.
    A run of length n is numbered by its digit string read in base k,
    first move most significant, and ``levels[n][id]`` is its code: WON_T
    or WON_B if it is legal and won by that player, OFF_T or OFF_B if
    that player made its first illegal move.  The levels shortest first,
    each in ascending id, list the runs in the order a scan visits them,
    so the first violation a scan reports is a shortest one.

    Only legal runs are built as tuples, to ask the game for their winners
    and the legality of their extensions; the k extensions of an offended
    run copy its code.
    """

    def __init__(self, game: Game, bounds: EnumBounds, pool: Sequence[str] | None) -> None:
        if pool is None:
            pool = game.probe_moves(bounds)
        self.tops = len(pool)
        self.labmoves = [LabMove(TOP, m) for m in pool] + [LabMove(BOT, m) for m in pool]
        k = len(self.labmoves)
        self.levels: list[bytearray] = []
        level = bytearray(1)
        legal: dict[int, Run] = {0: ()}
        for n in range(bounds.max_run_len + 1):
            for rid, run in legal.items():
                level[rid] = WON_T if game.winner(run) is TOP else WON_B
            self.levels.append(level)
            if n == bounds.max_run_len:
                break
            children = bytearray(k ** (n + 1))
            for d in range(k):
                children[d::k] = level
            legal_children: dict[int, Run] = {}
            for rid, run in legal.items():
                for child, lm in enumerate(self.labmoves, rid * k):
                    if game.extend_legal(run, lm):
                        legal_children[child] = run + (lm,)
                    else:
                        children[child] = OFF_T if lm.label is TOP else OFF_B
            level, legal = children, legal_children

    def _run(self, n: int, rid: int) -> Run:
        """The run of length n numbered rid."""
        k = len(self.labmoves)
        return tuple(self.labmoves[rid // k ** (n - 1 - i) % k] for i in range(n))

    def _swap_ids(self) -> Iterator[tuple[int, bytearray, int, int, Player]]:
        """``_swaps`` over the table: ``(n, level, gamma, delta, p)`` with
        gamma and delta ids in ``level``, the level of runs of length n.

        Swapping digits a and b at positions i and i+1 adds
        ``(b - a) * (k**(n-1-i) - k**(n-2-i))`` to a run's id.
        """
        tops, k = self.tops, len(self.labmoves)
        for n, level in enumerate(self.levels):
            steps = [k ** (n - 1 - i) - k ** (n - 2 - i) for i in range(n - 1)]
            for gamma, digits in enumerate(product(range(k), repeat=n)):
                for a, b, step in zip(digits, digits[1:], steps):
                    if a < tops:
                        if b >= tops:
                            yield n, level, gamma, gamma + (b - a) * step, TOP
                    elif b < tops:
                        yield n, level, gamma, gamma + (b - a) * step, BOT

    def static_verdict(self) -> StaticVerdict:
        """The first swap (in table order) that p wins before but not after."""
        for n, level, gamma, delta, p in self._swap_ids():
            if _WINNER[level[gamma]] is p and _WINNER[level[delta]] is not p:
                return StaticVerdict(False, (self._run(n, gamma), self._run(n, delta), p))
        return StaticVerdict(True)

    def lemma_report(self) -> LemmaReport:
        violations: list[tuple[Run, Run, Player]] = []
        pairs = 0
        for n, level, gamma, delta, p in self._swap_ids():
            offence = OFF_T if p is TOP else OFF_B
            if level[delta] != offence:
                continue
            pairs += 1
            if level[gamma] != offence:
                violations.append((self._run(n, gamma), self._run(n, delta), p))
        return LemmaReport(tuple(violations), pairs)


def is_static(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> StaticVerdict:
    """Brute-force static check of ``game`` over all pool-runs within bounds.

    Static means: for both players ``p``, every run won by ``p`` has all
    its ``p``-delays won by ``p`` too, with illegal runs resolved by the
    offender rule.  The first violating adjacent swap (in the deterministic
    enumeration order) is returned as a counterexample.
    """
    return _RunTable(game, bounds, pool).static_verdict()


def check_illegality_lemma(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> LemmaReport:
    """Scan for illegality propagating backwards through delays.

    For every pair within bounds where Delta is a ``p``-delay of Gamma and
    Delta's first offender is ``p``, Gamma must also have ``p`` as first
    offender.  Checks the adjacent swaps and reports the violating ones
    (expected: none for recurrences of static bases).
    """
    return _RunTable(game, bounds, pool).lemma_report()


def static_and_lemma(
    game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None
) -> tuple[StaticVerdict, LemmaReport]:
    """Run both scans over a single shared run table."""
    table = _RunTable(game, bounds, pool)
    return table.static_verdict(), table.lemma_report()
