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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import BOT, TOP, LabMove, Player, Run, label_subsequence, neg_player
from .games import EnumBounds, Game, Offender


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
        raise ValueError("enumerate_delays is limited to runs of length <= 8")
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


class _RunTable:
    """Every run over a labmove pool up to a length bound, classified.

    A pool of None stands for the game's probe pool.

    ``offenders[run]`` is the first offender or None; ``winners`` holds
    the winner of each legal run.  Runs are listed level by level (short
    runs first) so the first violation a scan reports is a shortest one.
    """

    def __init__(self, game: Game, bounds: EnumBounds, pool: Sequence[str] | None) -> None:
        if pool is None:
            pool = game.probe_moves(bounds)
        labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool]
        self.runs: list[Run] = []
        self.offenders: dict[Run, Offender | None] = {}
        self.winners: dict[Run, Player] = {}
        level: list[tuple[Run, Offender | None]] = [((), None)]
        while level:
            next_level: list[tuple[Run, Offender | None]] = []
            for run, off in level:
                self.runs.append(run)
                self.offenders[run] = off
                if off is None:
                    self.winners[run] = game.winner(run)
                if len(run) >= bounds.max_run_len:
                    continue
                for lm in labmoves:
                    if off is None and not game.extend_legal(run, lm):
                        child_off: Offender | None = Offender(len(run), lm.label)
                    else:
                        child_off = off
                    next_level.append((run + (lm,), child_off))
            level = next_level

    def won(self, run: Run, p: Player) -> bool:
        off = self.offenders[run]
        if off is not None:
            return off.culprit is not p
        return self.winners[run] is p

    def static_verdict(self) -> StaticVerdict:
        """The first swap (in table order) that p wins before but not after."""
        for gamma, delta, p in _swaps(self.runs):
            if self.won(gamma, p) and not self.won(delta, p):
                return StaticVerdict(False, (gamma, delta, p))
        return StaticVerdict(True)

    def lemma_report(self) -> LemmaReport:
        violations: list[tuple[Run, Run, Player]] = []
        pairs = 0
        for gamma, delta, p in _swaps(self.runs):
            off = self.offenders[delta]
            if off is None or off.culprit is not p:
                continue
            pairs += 1
            gamma_off = self.offenders[gamma]
            if gamma_off is None or gamma_off.culprit is not p:
                violations.append((gamma, delta, p))
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
