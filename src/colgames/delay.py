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

Static checking is brute force at desk scale: it covers every run up to
a length bound whose moves are drawn from a finite pool (by default the
game's own probe pool), classified as legal or by its first offender,
and every adjacent swap of every such run.  The pool is a parameter
because "all runs" over unrestricted move strings is infinite; a probe
pool keeps the scan exhaustive over a universe that still exercises
every move shape.

Only the legal runs are stored, built shortest first: the game state of
each legal run is stepped by every pool move, so a run costs one
``step`` and, when legal, one ``outcome`` call, and the states are
dropped once the tree is built.  A swap's outcome depends only on the
two runs up to their first offences.  So for each legal prefix P and
moves x and y of different players, the scan walks gamma = P x y T and
delta = P y x T along one shared tail T until both runs are offended, and counts
the swaps below that point by their number, k^m at m more moves for a
pool of k labelled moves.  Behind an illegal prefix gamma and delta share
its first offender, so those swaps are counted without a walk.  A run is
the id of its digit string in base k, TOP moves numbered first; only the
counterexample and the violations a scan reports are decoded into runs.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``pairs_checked`` counts the swaps (gamma, delta, p) of every pool run
    within bounds whose swapped run delta has ``p`` as first offender,
    including the swaps the scan counts without visiting them; it is the
    count a scan of every run would make.  ``violations`` are those swaps
    where gamma does not have ``p`` as first offender, shortest first, then
    by gamma's id and the swap's position.  A violating delay pair exists
    iff a violating swap does: along the swap chain from gamma to delta,
    the first run with ``p`` as first offender is one swap after a run
    without.
    """

    violations: tuple[tuple[Run, Run, Player], ...]
    pairs_checked: int


# The state of an offended run: the culprit of its first offence.  A
# legal run's state is its node in the legal tree, counted from 0.
OFF_T, OFF_B = -1, -2


class _SwapScan:
    """One walk over every adjacent swap of the runs over a labmove pool.

    A pool of None stands for the game's probe pool.  ``labmoves`` are
    the pool's moves labelled TOP followed by the same moves labelled
    BOT, so with ``k = 2 |pool|`` a digit ``d < |pool|`` is a TOP move.
    A run of length n is numbered by its digit string read in base k,
    first move most significant, and scans report in (length, id, swap
    position) order, so the first counterexample is a shortest one.

    Only legal runs are stored, as the nodes of a tree numbered shortest
    first.  A run's state is its node, or OFF_T / OFF_B once it has a
    first offender; ``kids[s][d]`` is the state after appending digit d
    and ``winners[s]`` the player who wins a run in state s.  Both lists
    end with the two offended states, so that negative states index them
    and an offended run keeps its state and winner under every extension.
    ``levels[n]`` lists the node and id of each legal run of length n, and
    ``offended[n]`` counts the runs of length n that are not legal.
    """

    def __init__(self, game: Game, bounds: EnumBounds, pool: Sequence[str] | None,
                 lemma: bool) -> None:
        if pool is None:
            pool = game.probe_moves(bounds)
        self.tops = len(pool)
        self.labmoves = [LabMove(TOP, m) for m in pool] + [LabMove(BOT, m) for m in pool]
        self.max_len = bounds.max_run_len
        self._build(game)
        self._walk(lemma)

    def _build(self, game: Game) -> None:
        """Step the game's state of every legal run by each labmove, and
        ask for the winner of each legal run, shortest runs first."""
        k = len(self.labmoves)
        states = [game.start()]
        self.winners: list[Player] = [game.outcome(states[0])]
        self.kids: list[list[int] | tuple[int, ...]] = []
        self.levels: list[list[tuple[int, int]]] = []
        self.offended: list[int] = []
        level, offended = [(0, 0)], 0
        for n in range(self.max_len + 1):
            self.levels.append(level)
            self.offended.append(offended)
            if n == self.max_len:
                break
            children: list[tuple[int, int]] = []
            offended *= k
            for node, rid in level:
                state = states[node]
                row = []
                for d, lm in enumerate(self.labmoves):
                    child = game.step(state, lm)
                    if child is not None:
                        row.append(len(states))
                        children.append((len(states), rid * k + d))
                        states.append(child)
                        self.winners.append(game.outcome(child))
                    else:
                        row.append(OFF_T if d < self.tops else OFF_B)
                        offended += 1
                self.kids.append(row)
            level = children
        self.kids += [(OFF_B,) * k, (OFF_T,) * k]
        self.winners += [TOP, BOT]

    def _walk(self, lemma: bool) -> None:
        """Find the first swap that p wins before but not after; with
        ``lemma``, also count the swaps whose delta has p as first offender
        and collect those whose gamma does not.  Without it, a branch also
        stops once no longer tail can give a counterexample, and no branch
        goes past the length of the first counterexample found so far."""
        k, tops, longest = len(self.labmoves), self.tops, self.max_len
        kids, winners = self.kids, self.winners
        below = [sum(k ** m for m in range(1, longest - n + 1)) for n in range(longest + 1)]
        first: tuple[int, int, int] | None = None
        limit = longest
        pairs = 0
        found: list[tuple[int, int, int]] = []
        for i, level in enumerate(self.levels):
            if i + 2 > limit:
                break
            for node, pid in level:
                row = kids[node]
                for x in range(k):
                    if x < tops:
                        p, off_p, off_q, ys = TOP, OFF_T, OFF_B, range(tops, k)
                    else:
                        p, off_p, off_q, ys = BOT, OFF_B, OFF_T, range(tops)
                    for y in ys:
                        stack = [(kids[row[x]][y], kids[row[y]][x], i + 2, (pid * k + x) * k + y)]
                        while stack:
                            g, d, n, gid = stack.pop()
                            if n > limit:
                                continue
                            if winners[g] is p and winners[d] is not p:
                                if first is None or (n, gid, i) < first:
                                    first = (n, gid, i)
                                    if not lemma:
                                        limit = n
                            settled = g < 0 and d < 0
                            if lemma and d == off_p:
                                pairs += 1 + below[n] if settled else 1
                                if g != off_p:
                                    found.append((n, gid, i))
                                    if settled:
                                        for m in range(1, longest - n + 1):
                                            km = k ** m
                                            found.extend((n + m, gid * km + t, i) for t in range(km))
                            if settled or n == limit or not lemma and (g == off_p or d == off_q):
                                continue
                            stack.extend(zip(kids[g], kids[d], [n + 1] * k, range(gid * k, gid * k + k)))
        if lemma:
            pairs += tops * tops * sum(self.offended[i] * k ** (n - i - 2)
                                       for n in range(longest + 1) for i in range(n - 1))
        found.sort()
        self.first, self.pairs, self.found = first, pairs, found

    def _swap(self, n: int, gamma: int, i: int) -> tuple[Run, Run, Player]:
        """The swap at position i of the run of length n numbered gamma."""
        moves = []
        for _ in range(n):
            gamma, d = divmod(gamma, len(self.labmoves))
            moves.append(self.labmoves[d])
        run = tuple(reversed(moves))
        return run, run[:i] + (run[i + 1], run[i]) + run[i + 2 :], run[i].label

    def static_verdict(self) -> StaticVerdict:
        if self.first is None:
            return StaticVerdict(True)
        return StaticVerdict(False, self._swap(*self.first))

    def lemma_report(self) -> LemmaReport:
        return LemmaReport(tuple(self._swap(*swap) for swap in self.found), self.pairs)


def is_static(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> StaticVerdict:
    """Brute-force static check of ``game`` over all pool-runs within bounds.

    Static means: for both players ``p``, every run won by ``p`` has all
    its ``p``-delays won by ``p`` too, with illegal runs resolved by the
    offender rule.  The first violating adjacent swap (shortest first,
    then in run-id and position order) is returned as a counterexample.
    """
    return _SwapScan(game, bounds, pool, lemma=False).static_verdict()


def check_illegality_lemma(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> LemmaReport:
    """Scan for illegality propagating backwards through delays.

    For every pair within bounds where Delta is a ``p``-delay of Gamma and
    Delta's first offender is ``p``, Gamma must also have ``p`` as first
    offender.  Checks the adjacent swaps and reports the violating ones
    (expected: none for recurrences of static bases).
    """
    return _SwapScan(game, bounds, pool, lemma=True).lemma_report()


def static_and_lemma(
    game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None
) -> tuple[StaticVerdict, LemmaReport]:
    """Run both scans in a single walk."""
    scan = _SwapScan(game, bounds, pool, lemma=True)
    return scan.static_verdict(), scan.lemma_report()
