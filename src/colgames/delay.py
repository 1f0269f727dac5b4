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
within the address bound, not a sample.  The scan finds that pool in
its own walk, stepping each state only by the moves it offers: the move
query's contract makes every other pool move illegal there.

The scans count runs by game state: equal states have equal futures (the
contract of :class:`Game`), so each distinct state is stepped once, and
the runs of each length are a count per state.  An offended run's state
is the culprit of its first offence, which every move keeps, so offended
runs and pairs of two offended states are tallies each move multiplies
by the number of pool labmoves.  Pool moves of one label that lead to
the same state from every state stepped form a move class, and after the
build every phase steps by one move per class, weighted by the class's
size.  A swap gamma = P x y T, delta = P y x T is decided by the pair of
states the two runs reach.  Pairs start from each state's head swaps,
weighted by its runs, and follow the tails one move at a time, both
states stepped by the same move.  One pair key, the states after x y and
after y x, stands for the swap of each player, read in mirror.  The
count flags the lengths that hold a counterexample or a lemma violation,
and a depth-first search over gamma's digits, pruned by memoised checks
that a bad pair is reachable, decodes only the shortest length flagged,
once for both verdicts when their shortest lengths are equal, sorting
its swaps by their final pairs.  A pool listing a move twice, whose runs
would count twice, and a run bound past ``MAX_RUN_LEN`` raise
:class:`PreconditionError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

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


def enumerate_delays(gamma: Run, p: Player) -> frozenset[Run]:
    """All ``p``-delays of ``gamma``; guarded against interleaving blowup."""
    if len(gamma) > 8:
        raise PreconditionError("enumerate_delays is limited to runs of length <= 8")
    out = {gamma}
    frontier = {gamma}
    while frontier:
        frontier = {run[:i] + (y, x) + run[i + 2 :] for run in frontier
                    for i, (x, y) in enumerate(zip(run, run[1:]))
                    if x.label is p and y.label is not p} - out
        out |= frontier
    return frozenset(out)


@dataclass(frozen=True, kw_only=True)
class StaticVerdict:
    """Outcome of a bounded static check: its first violating swap
    (gamma, delta, p), or None when the game is static."""

    counterexample: tuple[Run, Run, Player] | None = None

    @property
    def static(self) -> bool:
        return self.counterexample is None


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


# The longest run bound the scans take.  They count the runs of length n in
# integers of about n log2(2 |pool|) bits, one length at a time, so it bounds
# their size and the time, not the memory: at address <= 2 and 1,024, on a
# 2-CPU VM, ``tbr_t(bot_choice)`` takes 10 s in 18 MB.  It does not bound the
# states, which grow with the address bound.
MAX_RUN_LEN = 1 << 10


def move_pool(game: Game, bounds: EnumBounds) -> tuple[str, ...]:
    """Every move ``game.moves`` offers either player, within ``bounds``, at
    a state reached by offered moves in fewer than ``bounds.max_run_len``
    moves; sorted, then a junk move (``x``, else ``xx``, ...) that is not
    among them: the pool a delay scan finds in its one walk.  A run bound
    past ``MAX_RUN_LEN`` raises :class:`PreconditionError`."""
    return _StateScan(game, bounds, None).pool


# The kinds of bad swap, as bits: p wins gamma and not delta (a counterexample),
# and p offends first in delta and not in gamma (a lemma violation).
REFUTES, VIOLATES = 1, 2

# The two absorbing states: an offended run's state id is the bit of its
# first offence's culprit, 0 for TOP and 1 for BOT, and every move keeps
# it.  Legal states count from 2, the start state first.
OFF_T, OFF_B = 0, 1


class _StateScan:
    """Every adjacent swap of the runs over a labmove pool (None: every move
    the game offers, ``pool`` after the build), counted over the distinct
    game states the runs reach, the two absorbing offended states among them.

    ``labmoves`` are the pool's moves labelled TOP, then labelled BOT, so
    with ``k = 2 |pool|`` a digit ``d < |pool|`` is a TOP move.  A run of
    length n is numbered by its digit string read in base k, first move
    most significant; reports come in (length, id, position) order.
    ``rows[s][d]`` is the state after digit d in state s, and ``wins[s]``
    the bit of the player who wins in s.

    Digits of one label whose columns are equal, so that they lead to the
    same state from every stepped state, form a move class.  Every phase
    after the build steps by one representative per class, weighted by
    the class's size: ``tops`` and ``bots`` list (representative, size)
    for each class of TOP and of BOT digits, and ``rep[d]`` is the
    representative of d's class.  A swap's pair (a, b) holds the states
    after x y and after y x, x TOP's digit and y BOT's: TOP's swap has
    gamma in a and delta in b, BOT's the reverse.  Both verdicts take one
    path, ``verdicts``: ``_count`` flags the lengths that hold a bad pair,
    and ``_bad_swaps`` decodes the bad swaps of one flagged length.
    """

    def __init__(self, game: Game, bounds: EnumBounds, pool: Sequence[str] | None) -> None:
        if bounds.max_run_len > MAX_RUN_LEN:
            raise PreconditionError(f"run bound {bounds.max_run_len} is past the {MAX_RUN_LEN} moves "
                                    f"a delay scan takes")
        if pool is not None and len(set(pool)) < len(pool):
            twice = next(m for m, c in Counter(pool).items() if c > 1)
            raise PreconditionError(f"the pool lists the move {twice!r} twice")
        self.max_run_len = bounds.max_run_len
        self.pool = pool = self._build(game, bounds, pool)
        first: dict[tuple, int] = {}
        self.rep = [first.setdefault((d < len(pool), column), d)
                    for d, column in enumerate(zip(*[row for row in self.rows if row is not None]))]
        sizes = Counter(self.rep)
        self.tops = [(d, m) for d, m in sizes.items() if d < len(pool)]
        self.bots = [(d, m) for d, m in sizes.items() if d >= len(pool)]

    def _build(self, game: Game, bounds: EnumBounds, pool: Sequence[str] | None) -> Sequence[str]:
        """Intern the states the runs reach and step once each reached in fewer
        than ``bounds.max_run_len`` moves, in one breadth-first walk whose
        frontier is the states interned while stepping the level before, and
        return the pool.  A given pool is stepped labmove by labmove; with
        none, a state is stepped by the moves it offers, the pool is their
        union and a junk move, and a digit not offered goes to its label's
        offended state, as the move query's contract in :class:`Game` says."""
        ids, states, step = {}, [None, None], game.step
        self.wins = wins = [1, 0]

        def intern(state: State) -> int:
            s = ids[state] = len(states)
            states.append(state)
            wins.append(0 if game.outcome(state) is TOP else 1)
            return s

        intern(game.start())
        self.labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool or ()]
        given = None if pool is None else list(zip(self.labmoves, [off for off in (OFF_T, OFF_B) for _ in pool]))
        offers, stepped = {}, OFF_B + 1
        for _ in range(bounds.max_run_len):
            frontier, stepped = range(stepped, len(states)), len(states)
            for s in frontier:
                state = states[s]
                if given is not None:  # the row itself
                    offers[s] = [off if (t := step(state, lm)) is None else ids.get(t) or intern(t)
                                 for lm, off in given]
                else:  # the state after each offered move, by player
                    offers[s] = [{m: off if (t := step(state, LabMove(p, m))) is None else ids.get(t) or intern(t)
                                  for m in game.moves(state, p, bounds)} for p, off in ((TOP, OFF_T), (BOT, OFF_B))]
        if pool is None:
            found = {m for tops, bots in offers.values() for m in (*tops, *bots)}
            junk = next(x for n in range(1, len(found) + 2) if (x := "x" * n) not in found)
            pool = tuple(sorted(found)) + (junk,)
            offers = {s: [tops.get(m, OFF_T) for m in pool] + [bots.get(m, OFF_B) for m in pool]
                      for s, (tops, bots) in offers.items()}
            self.labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool]
        k = len(self.labmoves)
        self.rows = [[OFF_T] * k, [OFF_B] * k] + [offers.get(s) for s in range(OFF_B + 1, len(states))]
        return pool

    def _count(self) -> Iterator[tuple[int, int, int]]:
        """Follow the swap pairs length by length, yielding for each length from
        2 the weight of its swaps whose delta has p as first offender, of the
        violations among them, and of its pairs (a, b), keyed a * len(rows) + b,
        that TOP wins in a and BOT in b: such a pair is a counterexample for both
        players' mirrored swaps, which have equal weights, any other for neither.
        Only one length is held: the runs of length n - 2 by state, whose head
        swaps join the pairs; then runs and pairs step one move per class (one
        for all k when every state in them is offended)."""
        rows, wins, tops, bots, longest = self.rows, self.wins, self.tops, self.bots, self.max_run_len
        size, every, heads, runs, here = len(rows), tops + bots, {}, {OFF_B + 1: 1}, {}
        stay = [(0, len(self.labmoves))]  # an offended state's one move, standing for all k
        for n in range(2, longest + 1):
            for s, c in runs.items():
                found = heads.get(s)
                if found is None:
                    row, found = rows[s], {}
                    after_bots = [(y, my, rows[row[y]]) for y, my in bots]
                    for x, mx in tops:
                        after_x = rows[row[x]]
                        for y, my, after_y in after_bots:
                            key = after_x[y] * size + after_y[x]
                            found[key] = found.get(key, 0) + mx * my
                    heads[s] = found = list(found.items())
                for key, m in found:
                    here[key] = here.get(key, 0) + c * m
            after: dict[int, int] = {}
            pairs = violations = flagged = 0
            for key, w in here.items():
                a, b = key // size, key % size
                if wins[a] < wins[b]:
                    flagged += w
                if b == OFF_T:
                    pairs += w
                    if a != OFF_T:
                        violations += w
                if a == OFF_B:
                    pairs += w
                    if b != OFF_B:
                        violations += w
                if n < longest:
                    row_a, row_b = rows[a], rows[b]
                    for t, m in every if a > OFF_B or b > OFF_B else stay:
                        key = row_a[t] * size + row_b[t]
                        after[key] = after.get(key, 0) + w * m
            yield pairs, violations, flagged
            before, runs, here = runs, {}, after
            for s, c in before.items() if n < longest else ():
                row = rows[s]
                for t, m in every if s > OFF_B else stay:
                    runs[row[t]] = runs.get(row[t], 0) + c * m

    def _bad_swaps(self, n: int, kinds: int) -> Iterator[tuple[tuple[Run, Run, Player], int]]:
        """Each swap of a length n the count flags that is bad for one of
        ``kinds``, by gamma's id and then position: decoded, with the kinds it
        is bad for; then an error if a kind had none.  A depth-first walk over
        gamma's digits enters a digit only while a swap begun or to begin can
        end bad; no pair is bad if its runs agree or p offended in gamma.  The
        walk steps by every digit, which spells gamma, but the memoised checks
        step by class representatives, key on them and stop at the first hit."""
        rows, rep, labmoves, wins = self.rows, self.rep, self.labmoves, self.wins
        k, half = len(labmoves), len(labmoves) // 2
        tops, bots = [x for x, _ in self.tops], [y for y, _ in self.bots]
        every, opposite = tops + bots, (bots, tops)
        reachable, opening = {}, {}  # keyed by (g, d, p, m) and by (s, x, m)

        def reach(g: int, d: int, p: int, m: int) -> int:
            """Some tail of m moves takes p's swap pair (g, d) to a bad one; at
            m = 0, the kinds asked for that the pair is bad for."""
            if m == 0:  # p wins gamma and not delta; p offends first in delta and not in gamma
                return ((REFUTES if wins[g] == p != wins[d] else 0) | (VIOLATES if d == p != g else 0)) & kinds
            if g == d or g == p:
                return False
            key = (g, d, p, m)
            found = reachable.get(key)
            if found is None:
                row_g, row_d, found = rows[g], rows[d], False
                for t in every:
                    if reach(row_g[t], row_d[t], p, m - 1):
                        found = True
                        break
                reachable[key] = found
            return found

        def viable(s: int, x: int, m: int) -> bool:
            """After the class of digit x from state s and m more moves, a swap
            of x or of a later move can be bad."""
            key = (s, x, m)
            found = opening.get(key)
            if found is None:
                row, p, found = rows[s], (0 if x < half else 1), False
                if row[x] > OFF_B and m:
                    for y in opposite[p]:
                        if reach(rows[row[x]][y], rows[row[y]][x], p, m - 1):
                            found = True
                            break
                    else:
                        for y in every if m > 1 else ():
                            if viable(row[x], y, m - 1):
                                found = True
                                break
                opening[key] = found
            return found

        # The walk's nodes: j, gamma's first j of n moves, the states before and
        # after the last, its digit x, and ``begun``, (i, delta's state, p) of
        # live swaps, all bad at j = n.  A node decides each digit before any is entered.
        found, stack = 0, [(0, (), OFF_B + 1, OFF_B + 1, 0, [])]
        try:
            while stack:
                j, gamma, before, s, x, begun = stack.pop()
                if j == n:
                    for i, d, p in begun:
                        failed = ((REFUTES if wins[s] == p != wins[d] else 0) | (VIOLATES if d == p != s else 0)) & kinds
                        found |= failed
                        yield (gamma, gamma[:i] + (gamma[i + 1], gamma[i]) + gamma[i + 2 :], gamma[i].label), failed
                    continue
                left, row, decided = n - j - 1, rows[s], {}
                for t in range(k - 1, -1, -1):  # pushed last to first, so popped first to last
                    kept = decided.get(r := rep[t])
                    if kept is None:  # the digits of one class lead alike: decide each class once
                        g = row[t]
                        kept = [(i, rows[d][t], p) for i, d, p in begun if reach(g, rows[d][t], p, left)] if begun else []
                        if j and (x < half) != (t < half):
                            p, d = (0 if x < half else 1), rows[rows[before][t]][x]
                            if reach(g, d, p, left):
                                kept.append((j - 1, d, p))
                        decided[r] = kept = kept if kept or left and s > OFF_B and viable(s, r, left) else False
                    if kept is not False:
                        stack.append((j + 1, gamma + (labmoves[t],), s, row[t], t, kept))
        finally:  # reach and viable refer to themselves: free them, and their memos, now
            reach = viable = None
        if found != kinds:
            raise RuntimeError(f"the count flags runs of length {n}, but no swap among them is bad")

    def verdicts(self, kinds: int) -> tuple[StaticVerdict | None, LemmaReport | None]:
        """The static verdict if ``kinds`` has REFUTES, the lemma report if it has
        VIOLATES, else None: one count, stopped at the first flag when only REFUTES
        is asked, and one walk per distinct shortest flagged length, refuting first."""
        seen, lengths, pairs, violation_count = 0, {}, 0, 0  # lengths: n -> the kinds first flagged at n
        for n, (checked, violations, flagged) in enumerate(self._count(), 2):
            pairs, violation_count = pairs + checked, violation_count + violations
            if first := ((REFUTES if flagged else 0) | (VIOLATES if violations else 0)) & kinds & ~seen:
                lengths[n], seen = first, seen | first
            if seen and kinds == REFUTES:
                break
        counterexample, found = None, []
        for n, wanted in sorted(lengths.items(), key=lambda item: not item[1] & REFUTES):
            for swap, failed in self._bad_swaps(n, wanted):
                if failed & VIOLATES:
                    found.append(swap)
                if failed & REFUTES and counterexample is None:
                    counterexample = swap
                    if wanted == REFUTES:
                        break
        return (StaticVerdict(counterexample=counterexample) if kinds & REFUTES else None,
                LemmaReport(tuple(found), pairs, violation_count) if kinds & VIOLATES else None)


def is_static(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> StaticVerdict:
    """Brute-force static check of ``game`` over all pool-runs within bounds.

    Static means: for both players ``p``, every run won by ``p`` has all
    its ``p``-delays won by ``p`` too, with illegal runs resolved by the
    offender rule.  The first violating adjacent swap (shortest first,
    then in run-id and position order) is returned as a counterexample.
    A run bound under 2 holds no swap, so every game is static there.
    """
    return _StateScan(game, bounds, pool).verdicts(REFUTES)[0]


def check_illegality_lemma(game: Game, bounds: EnumBounds, pool: Sequence[str] | None = None) -> LemmaReport:
    """Scan for illegality propagating backwards through delays.

    For every pair within bounds where Delta is a ``p``-delay of Gamma and
    Delta's first offender is ``p``, Gamma must also have ``p`` as first
    offender.  Checks the adjacent swaps and reports the violating ones
    (expected: none for recurrences of static bases).  A run bound under
    2 holds no swap, so it reports none.
    """
    return _StateScan(game, bounds, pool).verdicts(VIOLATES)[1]


def static_and_lemma(game: Game, bounds: EnumBounds,
                     pool: Sequence[str] | None = None) -> tuple[StaticVerdict, LemmaReport]:
    """Both verdicts from one scan: one count, and one walk for both when their
    shortest flagged lengths agree; a run bound under 2 holds no swap."""
    return _StateScan(game, bounds, pool).verdicts(REFUTES | VIOLATES)
