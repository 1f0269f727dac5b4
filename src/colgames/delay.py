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
a length bound over a finite pool of moves, classified as legal or by its
first offender, and every adjacent swap of every such run; "all runs"
over unrestricted move strings would be infinite.  The default pool,
``move_pool``, is every move the game offers either player within the
bounds at a state reached in fewer moves than the length bound, plus one
junk move.  Any other move string behaves like the junk move at every
such state (illegal for its author), so the scans then cover every move
within the address bound, not a sample.

The scans count runs by game state: equal states have equal futures (the
contract of :class:`Game`), so each distinct state is stepped once by
each pool move, and the runs of each length are a count per state.  An
offended run's state is the culprit of its first offence, which every
move keeps.  A swap gamma = P x y T, delta = P y x T is decided by the
pair of states the two runs reach.  Pairs start from each state's head
swaps, weighted by its runs, and follow the tails one move at a time,
both states stepped by the same move.  The counterexample and the
shortest lemma violations are found by a depth-first search over
gamma's digits, pruned by memoised checks that a bad pair is reachable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .core import BOT, TOP, LabMove, Player, Run, label_subsequence, neg_player
from .games import EnumBounds, Game, PreconditionError, State


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
    within bounds whose delta has ``p`` as first offender, and
    ``violation_count`` those among them whose gamma does not.  The full
    list grows exponentially with the length, so ``violations`` lists the
    violations of the shortest violating length only, by gamma's id and
    then the swap's position.  A violating delay pair exists iff a
    violating swap does: along the swap chain from gamma to delta, the
    first run with ``p`` as first offender is one swap after a run without.
    """

    violations: tuple[tuple[Run, Run, Player], ...]
    pairs_checked: int
    violation_count: int


def move_pool(game: Game, bounds: EnumBounds) -> tuple[str, ...]:
    """Every move ``game.moves`` offers either player, within ``bounds``, at
    a state reached by offered moves in fewer than ``bounds.max_run_len``
    moves; sorted, then a junk move (``x``, else ``xx``, ...) that is not
    among them."""
    longest = bounds.max_run_len
    level, seen, found = {game.start()}, set(), set()
    for n in range(longest):
        seen |= level
        offered = [(state, LabMove(p, m)) for state in level for p in (TOP, BOT)
                   for m in game.moves(state, p, bounds)]
        found.update(lm.move for _, lm in offered)
        if n + 1 < longest:
            level = {game.step(state, lm) for state, lm in offered} - seen
    junk = "x"
    while junk in found:
        junk += "x"
    return tuple(sorted(found)) + (junk,)


# The two absorbing states: an offended run's state id is the bit of its
# first offence's culprit, 0 for TOP and 1 for BOT, and every move keeps
# it.  Legal states count from 2, the start state first.
OFF_T, OFF_B = 0, 1


class _StateScan:
    """Every adjacent swap of the runs over a labmove pool (None: the
    ``move_pool``), counted over the distinct game states the runs reach,
    the two absorbing offended states among them.

    ``labmoves`` are the pool's moves labelled TOP, then labelled BOT, so
    with ``k = 2 |pool|`` a digit ``d < |pool|`` is a TOP move.  A run of
    length n is numbered by its digit string read in base k, first move
    most significant; reports come in (length, id, position) order.
    ``rows[s][d]`` is the state after digit d in state s, ``wins[s]`` the
    bit of the player who wins in s, and a swap's pair (g, d, p) holds
    gamma's and delta's states and p's bit.
    """

    def __init__(self, game: Game, bounds: EnumBounds, pool: Sequence[str] | None) -> None:
        pool = move_pool(game, bounds) if pool is None else pool
        self.tops = len(pool)
        self.labmoves = [LabMove(TOP, m) for m in pool] + [LabMove(BOT, m) for m in pool]
        self.rows: list[list[int] | None] = [[OFF_T] * len(self.labmoves), [OFF_B] * len(self.labmoves)]
        self.wins = [1, 0]
        self._build(game, bounds.max_run_len)

    def _build(self, game: Game, longest: int) -> None:
        """Count the runs of each length by the state they reach (``levels``);
        a state is stepped once, by every labmove."""
        rows, wins, ids, states = self.rows, self.wins, {}, [None, None]

        def intern(state: State) -> int:
            s = ids.get(state)
            if s is None:
                s = ids[state] = len(states)
                states.append(state)
                rows.append(None)
                wins.append(0 if game.outcome(state) is TOP else 1)
            return s

        self.levels = [{intern(game.start()): 1}]
        for _ in range(longest):
            level = {}
            for s, c in self.levels[-1].items():
                if rows[s] is None:
                    rows[s] = [(OFF_T if d < self.tops else OFF_B) if (t := game.step(states[s], lm)) is None
                               else intern(t) for d, lm in enumerate(self.labmoves)]
                for t in rows[s]:
                    level[t] = level.get(t, 0) + c
            self.levels.append(level)

    def _count(self) -> tuple[int, list[int]]:
        """Follow the swap pairs to every length, counting by weight the swaps
        whose delta has p as first offender, and per length the violations.
        An offended state s heads tops² swaps of each p, all to (s, s, p)."""
        k, tops, longest = len(self.labmoves), self.tops, len(self.levels) - 1
        rows, heads, counts, pairs = self.rows, {}, [0] * (longest + 1), 0
        here: dict[tuple[int, int, int], int] = {}
        for n in range(2, longest + 1):
            for s, c in self.levels[n - 2].items():
                if s not in heads:
                    kids = [rows[t] for t in rows[s]]
                    found = Counter([(kids[x][y], kids[y][x]) for x in range(tops) for y in range(tops, k)])
                    heads[s] = [(key, m) for (a, b), m in found.items() for key in ((a, b, 0), (b, a, 1))]
                for key, m in heads[s]:
                    here[key] = here.get(key, 0) + c * m
            after: dict[tuple[int, int, int], int] = {}
            for key, w in here.items():
                g, d, p = key
                if d == p:
                    pairs += w
                    if g != p:
                        counts[n] += w
                if n == longest:
                    continue
                for a, b in zip(rows[g], rows[d]):
                    key = (a, b, p)
                    after[key] = after.get(key, 0) + w
            here = after
        return pairs, counts

    def _bad_swaps(self, lengths: Iterable[int], bad: Callable[[int, int, int], bool]) -> Iterator:
        """(length, gamma's id, position) of each swap of the given lengths
        whose pair is bad, in that order: a depth-first walk over gamma's
        digits, entering a digit only while a swap begun or to begin can end
        bad.  A pair is never bad if its runs agree or p offended in gamma."""
        rows, tops, k = self.rows, self.tops, len(self.labmoves)
        reachable, opening = {}, {}  # keyed by (g, d, p, m) and by (s, x, m)

        def reach(g: int, d: int, p: int, m: int) -> bool:
            """Some tail of m moves takes the pair to a bad one."""
            if m == 0:
                return bad(g, d, p)
            if g == d or g == p:
                return False
            key = (g, d, p, m)
            found = reachable.get(key)
            if found is None:
                found = reachable[key] = any(reach(a, b, p, m - 1) for a, b in zip(rows[g], rows[d]))
            return found

        def viable(s: int, x: int, m: int) -> bool:
            """After digit x from state s and m more moves, a swap of x or of
            a later move can be bad."""
            key = (s, x, m)
            found = opening.get(key)
            if found is None:
                row, p = rows[s], (0 if x < tops else 1)
                found = opening[key] = row[x] > OFF_B and (
                    m > 0 and any(reach(rows[row[x]][y], rows[row[y]][x], p, m - 1)
                                  for y in (range(tops, k) if p == 0 else range(tops)))
                    or m > 1 and any(viable(row[x], y, m - 1) for y in range(k)))
            return found

        def walk(n: int, j: int, gid: int, before: int, s: int, x: int, begun: list) -> Iterator:
            """Below gamma's first j of n digits, numbered gid, the last x from
            state ``before`` to s; ``begun``: (i, delta's state, p) of live swaps."""
            if j == n:
                yield from ((n, gid, i) for i, _, _ in begun)
                return
            left, row = n - j - 1, rows[s]
            for t in range(k):
                after = row[t]
                kept = [(i, rows[d][t], p) for i, d, p in begun if reach(after, rows[d][t], p, left)]
                if j and (x < tops) != (t < tops):
                    p, d = (0 if x < tops else 1), rows[rows[before][t]][x]
                    if reach(after, d, p, left):
                        kept.append((j - 1, d, p))
                if kept or s > OFF_B and viable(s, t, left):
                    yield from walk(n, j + 1, gid * k + t, s, after, t, kept)

        for n in lengths:
            yield from walk(n, 0, 0, OFF_B + 1, OFF_B + 1, 0, [])

    def _swap(self, n: int, gamma: int, i: int) -> tuple[Run, Run, Player]:
        """The swap at position i of the run of length n numbered gamma."""
        k = len(self.labmoves)
        run = tuple(self.labmoves[gamma // k ** (n - 1 - j) % k] for j in range(n))
        return run, run[:i] + (run[i + 1], run[i]) + run[i + 2 :], run[i].label

    def static_verdict(self) -> StaticVerdict:
        wins = self.wins
        first = next(self._bad_swaps(range(2, len(self.levels)), lambda g, d, p: wins[g] == p != wins[d]), None)
        return StaticVerdict(True) if first is None else StaticVerdict(False, self._swap(*first))

    def lemma_report(self) -> LemmaReport:
        pairs, counts = self._count()
        shortest = [n for n, c in enumerate(counts) if c][:1]
        found = self._bad_swaps(shortest, lambda g, d, p: d == p != g)
        return LemmaReport(tuple(self._swap(*f) for f in found), pairs, sum(counts))


def is_static(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> StaticVerdict:
    """Brute-force static check of ``game`` over all pool-runs within bounds.

    Static means: for both players ``p``, every run won by ``p`` has all
    its ``p``-delays won by ``p`` too, with illegal runs resolved by the
    offender rule.  The first violating adjacent swap (shortest first,
    then in run-id and position order) is returned as a counterexample.
    A run bound under 2 holds no swap, so every game is static there.
    """
    return _StateScan(game, bounds, pool).static_verdict()


def check_illegality_lemma(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> LemmaReport:
    """Scan for illegality propagating backwards through delays.

    For every pair within bounds where Delta is a ``p``-delay of Gamma and
    Delta's first offender is ``p``, Gamma must also have ``p`` as first
    offender.  Checks the adjacent swaps and reports the violating ones
    (expected: none for recurrences of static bases).  A run bound under
    2 holds no swap, so it reports none.
    """
    return _StateScan(game, bounds, pool).lemma_report()


def static_and_lemma(game: Game, bounds: EnumBounds,
                     pool: Sequence[str] | None = None) -> tuple[StaticVerdict, LemmaReport]:
    """Both scans over one interning of the states; a run bound under 2 holds no swap."""
    scan = _StateScan(game, bounds, pool)
    return scan.static_verdict(), scan.lemma_report()
