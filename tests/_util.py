"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles, without
going through the implementation paths under test.  The run table judges
a game through ``WholeRunGame``, which reads each run whole the way the
constructors did before they became state machines, so it shares no
``start``/``step``/``outcome`` code with the library scan it checks.  The
swap scan walks the runs one by one, where the library counts them by
game state, and lists every violation it finds.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Sequence

from hypothesis import strategies as st

from colgames import BOT, TOP, Direction, LabMove, RemapStrategy, label_subsequence
from colgames.core import (
    Player,
    Ray,
    Run,
    ShapeKind,
    flip_labels,
    neg_player,
    parse_move,
    project,
    ray_classes,
)
from colgames.delay import LemmaReport, StaticVerdict
from colgames.games import (
    EnumBounds,
    FiniteGame,
    Game,
    GameNode,
    Offender,
    _Disjoined,
    _Negated,
    _split_move,
    offender,
    split_disjunction,
)
from colgames.recurrence import (
    RecurrenceGame,
    Version,
    _all_stems,
    actual_nodes,
    switches,
)
from colgames.suite import first_mover_wins


def late(forced: int = 1) -> FiniteGame:
    """first_mover_wins behind ``forced`` forced environment moves c: not
    static, but its shortest counterexample, <B"c", T"a", B"b"> behind one,
    takes forced + 2 moves."""
    root = first_mover_wins().root
    for _ in range(forced):
        root = GameNode(TOP, ((LabMove(BOT, "c"), root),))
    return FiniteGame("late", root)


def is_legal(game, run) -> bool:
    """Is ``run`` a legal run of ``game``?"""
    return offender(game, run) is None


class BrokenRemapStrategy(RemapStrategy):
    """Sensitivity fixture: on an environment replication it forgets to
    update its node map, so the map's domain drifts away from the outer
    nodes.  A switch goes to the outer node on the zero path of the
    environment's tight tree, read from the position, and is passed when
    the stale map lacks it."""

    def react(self, state, position):
        move = position[-1].move
        sh = parse_move(move[2:])
        if move[0] == "2" and sh.kind is ShapeKind.REPLICATIVE:
            return state, ()
        if move[0] == "2" and sh.kind is ShapeKind.SWITCH:
            target, outer = sh.address, actual_nodes(split_disjunction(position)[1], BOT).outer()
            while target not in outer:
                target += "0"
            # a real machine would crash on the stale map; for the harness
            # test a silent pass is enough to keep playing
            fmap = dict(state)
            return state, ("1." + fmap[target],) if target in fmap else ()
        return super().react(state, position)


class TreeOracle:
    """Wraps a translation machine and asserts, after every reaction, that
    the machine's books match ``actual_nodes`` of the tight component of
    the whole position and the machine's replies.  Tight-to-loose, the
    machine's state is that tree (component 1, grown by the machine);
    loose-to-tight, its node map's keys are that tree's outer nodes
    (component 2, grown by the environment).  Counts the reactions it
    checked."""

    def __init__(self, machine, direction: Direction) -> None:
        self.machine = machine
        self.tight_to_loose = direction is Direction.TIGHT_TO_LOOSE
        self.component, self.structural = (0, TOP) if self.tight_to_loose else (1, BOT)
        self.checked = 0

    def init(self):
        return self.machine.init()

    def react(self, state, position):
        state, moves = self.machine.react(state, position)
        after = position + tuple(LabMove(TOP, move) for move in moves)
        expected = actual_nodes(split_disjunction(after)[self.component], self.structural)
        if self.tight_to_loose:
            assert state == expected, (after, state, expected)
        else:
            keys = frozenset(k for k, _ in state)
            assert keys == expected.outer(), (after, keys, expected.outer())
        self.checked += 1
        return state, moves


class ReplayingRandomAdversary:
    """A random adversary that replays the whole position through
    ``legal_moves`` at every reaction: the oracle for the library's, which
    follows the run by its own game state.  It draws from the generator in
    the same order, so the two play the same moves."""

    def __init__(self, game: Game, seed: int, bounds: EnumBounds, budget: int,
                 pass_probability: float = 0.25) -> None:
        self.game, self.seed, self.bounds = game, seed, bounds
        self.budget, self.pass_probability = budget, pass_probability

    def init(self):
        return random.Random(self.seed), 0

    def react(self, state, position):
        rng, made = state
        if made >= self.budget:
            return state, ()
        if rng.random() < self.pass_probability:
            return state, ()
        options = sorted(self.game.legal_moves(position, BOT, self.bounds.max_address_len))
        if not options:
            return state, ()
        return (rng, made + 1), (options[rng.randrange(len(options))],)


class CountingGame(Game):
    """Forwards every call to ``inner`` and counts the ``step`` calls,
    replays included."""

    def __init__(self, inner: Game) -> None:
        self.inner, self.name, self.steps = inner, inner.name, 0

    def start(self):
        return self.inner.start()

    def step(self, state, lm):
        self.steps += 1
        return self.inner.step(state, lm)

    def outcome(self, state):
        return self.inner.outcome(state)

    def moves(self, state, player, max_address_len):
        return self.inner.moves(state, player, max_address_len)


def classify_move_brute(move: str) -> tuple[str, str, str]:
    """(kind, address, payload) by direct character inspection."""
    address = ""
    rest = move
    while rest and rest[0] in "01":
        address += rest[0]
        rest = rest[1:]
    if rest == "":
        return "switch", address, ""
    if rest == ":":
        return "replicative", address, ""
    if rest.startswith("."):
        return "nonreplicative", address, rest[1:]
    return "malformed", "", ""


def project_brute(run, stem: str):
    """Projection along stem + 000... using the brute classifier.

    Pads the stem with zeros out to the address length, which spells out
    "the address is an initial segment of the infinite string" directly.
    """
    out = []
    for lm in run:
        kind, address, payload = classify_move_brute(lm.move)
        if kind != "nonreplicative":
            continue
        padded = stem + "0" * max(0, len(address) - len(stem))
        if padded[: len(address)] == address:
            out.append(LabMove(lm.label, payload))
    return tuple(out)


_PLAYERS = st.sampled_from((TOP, BOT))
_LABMOVES = st.builds(LabMove, _PLAYERS, st.sampled_from(("a", "b", "c")))


def game_nodes(depth):
    """Finite game trees of at most ``depth`` moves over moves a, b and c;
    any node may be a leaf."""
    if depth == 0:
        return st.builds(GameNode, _PLAYERS)
    edges = st.lists(st.tuples(_LABMOVES, game_nodes(depth - 1)),
                     max_size=3, unique_by=lambda edge: edge[0])
    return st.builds(GameNode, _PLAYERS, edges.map(tuple))


def all_runs(pool_moves, max_len, labels=(TOP, BOT)):
    """Every run up to max_len whose moves come from the pool, both labels."""
    labmoves = [LabMove(p, m) for p in labels for m in pool_moves]
    for length in range(max_len + 1):
        for combo in itertools.product(labmoves, repeat=length):
            yield combo


def all_stems(max_len):
    for length in range(max_len + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def all_interleavings(seq_a, seq_b):
    """Every merge of two sequences preserving each one's internal order."""
    if not seq_a:
        yield tuple(seq_b)
        return
    if not seq_b:
        yield tuple(seq_a)
        return
    for rest in all_interleavings(seq_a[1:], seq_b):
        yield (seq_a[0],) + rest
    for rest in all_interleavings(seq_a, seq_b[1:]):
        yield (seq_b[0],) + rest


def is_delay_naive(delta, gamma, p):
    """Direct transcription of the delay conditions, quadratic scan."""
    from colgames import neg_player

    q = neg_player(p)

    def positions(run, player):
        return [i for i, lm in enumerate(run) if lm.label is player]

    def subseq(run, player):
        return tuple(lm for lm in run if lm.label is player)

    if subseq(delta, p) != subseq(gamma, p) or subseq(delta, q) != subseq(gamma, q):
        return False
    gp, gq = positions(gamma, p), positions(gamma, q)
    dp, dq = positions(delta, p), positions(delta, q)
    for i in range(len(gq)):
        for j in range(len(gp)):
            if gq[i] < gp[j] and not dq[i] < dp[j]:
                return False
    return True


def delay_profile(run, p):
    """For each of p's moves in order, how many adversary moves precede it."""
    out = []
    seen_other = 0
    for lm in run:
        if lm.label is p:
            out.append(seen_other)
        else:
            seen_other += 1
    return tuple(out)


def _node_at(root, run):
    current = root
    for lm in run:
        for edge, child in current.edges:
            if edge == lm:
                current = child
                break
        else:
            return None
    return current


def _tight_extension_legal(base, position, lm, structural):
    sh = parse_move(lm.move)
    if sh.kind is ShapeKind.MALFORMED:
        return False
    tree = actual_nodes(position, structural)
    if sh.kind is ShapeKind.SWITCH:
        return lm.label is structural and sh.address in tree.nodes()
    if sh.kind is ShapeKind.REPLICATIVE:
        return lm.label is structural and sh.address in tree.outer()
    if sh.address not in tree.nodes():
        return False
    extended = position + (lm,)
    return all(
        is_legal(base, project(extended, ray))
        for ray in ray_classes(extended, sh.address)
    )


def _loose_extension_legal(base, position, lm, structural):
    sh = parse_move(lm.move)
    if sh.kind is ShapeKind.SWITCH:
        return lm.label is structural
    if sh.kind is not ShapeKind.NONREPLICATIVE:
        return False
    extended = position + (lm,)
    return all(
        is_legal(base, project(extended, ray)) for ray in ray_classes(extended, "")
    )


class WholeRunGame(Game):
    """A library game judged run by run: every ``extend_legal``,
    ``winner`` and ``legal_moves`` call re-reads the whole position.

    A finite game walks its tree from the root, a negation flips every
    label of the run, a disjunction splits the run into its components,
    and a recurrence projects the run along one ray per class, checking
    each projection with the base's ``offender``.  The wrapper recurses
    through each constructor's components, so no ``step`` of the library
    is called; a game of another type is asked directly.
    """

    def __init__(self, game):
        self.game = game
        self.name = game.name
        if isinstance(game, _Negated):
            self.inner = WholeRunGame(game.inner)
        elif isinstance(game, _Disjoined):
            self.left, self.right = WholeRunGame(game.left), WholeRunGame(game.right)
        elif isinstance(game, RecurrenceGame):
            self.base = WholeRunGame(game.base)

    def extend_legal(self, position, lm):
        game = self.game
        if isinstance(game, FiniteGame):
            current = _node_at(game.root, position)
            return current is not None and any(edge == lm for edge, _ in current.edges)
        if isinstance(game, _Negated):
            flipped = LabMove(neg_player(lm.label), lm.move)
            return self.inner.extend_legal(flip_labels(position), flipped)
        if isinstance(game, _Disjoined):
            split = _split_move(lm.move)
            if split is None:
                return False
            parts = split_disjunction(position)
            if parts is None:
                return False
            index, rest = split
            component = self.left if index == 0 else self.right
            return component.extend_legal(parts[index], LabMove(lm.label, rest))
        if isinstance(game, RecurrenceGame):
            if game.kind.version is Version.TIGHT:
                return _tight_extension_legal(self.base, position, lm, game.kind.structural)
            return _loose_extension_legal(self.base, position, lm, game.kind.structural)
        return game.extend_legal(position, lm)

    def winner(self, run):
        game = self.game
        if isinstance(game, FiniteGame):
            current = _node_at(game.root, run)
            if current is None:
                raise ValueError("winner is only defined on legal runs")
            return current.winner
        if isinstance(game, _Negated):
            return neg_player(self.inner.winner(flip_labels(run)))
        if isinstance(game, _Disjoined):
            parts = split_disjunction(run)
            if parts is None:
                raise ValueError("winner is only defined on legal runs")
            if self.left.winner(parts[0]) is TOP or self.right.winner(parts[1]) is TOP:
                return TOP
            return BOT
        if isinstance(game, RecurrenceGame):
            stems = switches(run, game.kind.structural)
            return self.base.winner(project(run, Ray(stems[-1] if stems else "")))
        return game.winner(run)

    def legal_moves(self, position, player, max_address_len):
        game = self.game
        if isinstance(game, FiniteGame):
            current = _node_at(game.root, position)
            if current is None:
                return frozenset()
            return frozenset(edge.move for edge, _ in current.edges if edge.label is player)
        if isinstance(game, _Negated):
            return self.inner.legal_moves(flip_labels(position), neg_player(player), max_address_len)
        if isinstance(game, _Disjoined):
            parts = split_disjunction(position)
            if parts is None:
                return frozenset()
            out = {"1." + m for m in self.left.legal_moves(parts[0], player, max_address_len)}
            out |= {"2." + m for m in self.right.legal_moves(parts[1], player, max_address_len)}
            return frozenset(out)
        if isinstance(game, RecurrenceGame):
            return self._recurrence_legal_moves(position, player, max_address_len)
        return game.legal_moves(position, player, max_address_len)

    def _recurrence_legal_moves(self, position, player, limit):
        kind = self.game.kind
        candidates = set()
        if kind.version is Version.TIGHT:
            tree = actual_nodes(position, kind.structural)
            addresses = sorted(w for w in tree.nodes() if len(w) <= limit)
            if player is kind.structural:
                candidates.update(addresses)
                candidates.update(w + ":" for w in tree.outer() if len(w) <= limit)
        else:
            addresses = _all_stems(limit)
            if player is kind.structural:
                candidates.update(addresses)
        for w in addresses:
            payloads = set()
            for ray in ray_classes(position, w):
                payloads |= self.base.legal_moves(project(position, ray), player, limit)
            candidates.update(f"{w}.{a}" for a in payloads)
        return frozenset(
            m for m in candidates if self.extend_legal(position, LabMove(player, m))
        )


def same_position(game, one, two) -> bool:
    """Do two legal runs of the recurrence ``game`` denote one position?

    Read from the runs alone: they must have the same actual-node tree
    (tight only), the same decisive ray (the last switch's stem padded
    with zeros, so stems equal up to trailing zeros), and, along every ray
    of the classes of both runs together, projections that take the base
    to equal states."""
    structural = game.kind.structural
    if game.kind.version is Version.TIGHT and actual_nodes(one, structural) != actual_nodes(two, structural):
        return False
    last = [switches(run, structural)[-1:] or ("",) for run in (one, two)]
    if Ray(last[0][0]) != Ray(last[1][0]):
        return False
    return all(game.base.replay(project(one, ray)) == game.base.replay(project(two, ray))
               for ray in ray_classes(one + two))


def probe_pool(game, bounds):
    """A small deterministic pool of a game's move shapes: the library's
    default pool before it offered every move, kept for the brute-force
    oracles, which cannot take a full pool (at (2,5) a 29-move pool has
    58^5 runs of length 5).

    A finite tree gives every move of the tree, sorted, and the first of
    ``x``, ``y``, ``z`` it lacks; a negation its inner game's pool and a
    disjunction its components' under ``1.`` and ``2.``; a recurrence four
    moves of its version's shapes, with the least payload its base offers
    at the start.  A game of another type gives its own ``probe_moves``."""
    if isinstance(game, FiniteGame):
        moves, stack = set(), [game.root]
        while stack:
            for edge, child in stack.pop().edges:
                moves.add(edge.move)
                stack.append(child)
        junk = [m for m in ("x", "y", "z") if m not in moves][:1]
        return tuple(sorted(moves)) + tuple(junk)
    if isinstance(game, _Negated):
        return probe_pool(game.inner, bounds)
    if isinstance(game, _Disjoined):
        return (tuple("1." + m for m in probe_pool(game.left, bounds))
                + tuple("2." + m for m in probe_pool(game.right, bounds)))
    if isinstance(game, RecurrenceGame):
        alphas = sorted(
            game.base.legal_moves((), TOP, bounds.max_address_len)
            | game.base.legal_moves((), BOT, bounds.max_address_len)
        )
        a = alphas[0] if alphas else "a"
        if game.kind.version is Version.TIGHT:
            return (":", "0:", "0", f"0.{a}")
        return (":", "01", f".{a}", f"0.{a}")
    return game.probe_moves(bounds)


class ReferenceRunTable:
    """Every run over a labmove pool up to a length bound, classified, as
    tuples: the reference for the library's swap scan.

    ``runs`` lists the runs level by level (short runs first);
    ``offenders[run]`` is the first offender or None and ``winners`` holds
    the winner of each legal run.  The game is judged through
    ``WholeRunGame``.
    """

    def __init__(self, game, bounds, pool):
        game = WholeRunGame(game)
        labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool]
        self.runs = []
        self.offenders = {}
        self.winners = {}
        level = [((), None)]
        while level:
            next_level = []
            for run, off in level:
                self.runs.append(run)
                self.offenders[run] = off
                if off is None:
                    self.winners[run] = game.winner(run)
                if len(run) >= bounds.max_run_len:
                    continue
                for lm in labmoves:
                    if off is None and not game.extend_legal(run, lm):
                        child_off = Offender(len(run), lm.label)
                    else:
                        child_off = off
                    next_level.append((run + (lm,), child_off))
            level = next_level

    def won(self, run, p):
        off = self.offenders[run]
        if off is not None:
            return off.culprit is not p
        return self.winners[run] is p

    def swaps(self):
        """Each run's adjacent swaps, in table order and then by position:
        (gamma, delta, p), delta being gamma with the move of p at i and
        the adversary move at i+1 exchanged."""
        for gamma in self.runs:
            for i in range(len(gamma) - 1):
                left, right = gamma[i], gamma[i + 1]
                if left.label is not right.label:
                    yield gamma, gamma[:i] + (right, left) + gamma[i + 2 :], left.label

    def static_verdict(self):
        """The first swap (in table order) that p wins before but not after."""
        for gamma, delta, p in self.swaps():
            if self.won(gamma, p) and not self.won(delta, p):
                return StaticVerdict(counterexample=(gamma, delta, p))
        return StaticVerdict()

    def lemma_report(self):
        violations = []
        pairs = 0
        for gamma, delta, p in self.swaps():
            off = self.offenders[delta]
            if off is None or off.culprit is not p:
                continue
            pairs += 1
            gamma_off = self.offenders[gamma]
            if gamma_off is None or gamma_off.culprit is not p:
                violations.append((gamma, delta, p))
        return reduced_report(violations, pairs)


def reduced_report(violations, pairs):
    """The library's report for a full list of lemma violations: their
    number, and those of the shortest length in the list's order."""
    shortest = min((len(gamma) for gamma, _, _ in violations), default=0)
    return LemmaReport(tuple(v for v in violations if len(v[0]) == shortest), pairs, len(violations))


# The state of an offended run: the culprit of its first offence.  A
# legal run's state is its node in the legal tree, counted from 0.
OFF_T, OFF_B = -1, -2


class SwapScan:
    """One walk over every adjacent swap of the runs over a labmove pool:
    the library's scan before it counted runs by game state, kept as the
    oracle that visits each swap.  It lists every lemma violation, and
    ``lemma_report`` reduces the list with ``reduced_report``.

    ``labmoves`` are the pool's moves labelled TOP followed by the same moves labelled
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

    def __init__(self, game: Game, bounds: EnumBounds, pool: Sequence[str],
                 lemma: bool) -> None:
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
        and collect those whose gamma does not, each as (length, id,
        position, length of the head it was found under).  Without it, a
        branch also stops once no longer tail can give a counterexample,
        and no branch goes past the length of the first counterexample
        found so far."""
        k, tops, longest = len(self.labmoves), self.tops, self.max_len
        kids, winners = self.kids, self.winners
        below = [sum(k ** m for m in range(1, longest - n + 1)) for n in range(longest + 1)]
        first: tuple[int, int, int] | None = None
        limit = longest
        pairs = 0
        found: list[tuple[int, int, int, int]] = []
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
                                    found.append((n, gid, i, n))
                                    if settled:
                                        for m in range(1, longest - n + 1):
                                            km = k ** m
                                            lowest = gid * km
                                            found.extend((n + m, lowest + t, i, n) for t in range(km))
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
            return StaticVerdict()
        return StaticVerdict(counterexample=self._swap(*self.first))

    def lemma_report(self) -> LemmaReport:
        """Decode each reported swap as its head's swap plus a shared tail.

        A swap (n, gamma, i) found under the head of length h numbered
        gamma // k^(n-h) is that head's swap with the tail numbered
        gamma mod k^(n-h) appended to both runs.  Each head is decoded
        once, and ``tails[m]`` lists the k^m tails of m moves by id."""
        k = len(self.labmoves)
        tails: list[list[Run]] = [[()]]
        for _ in range(max((n - h for n, _, _, h in self.found), default=0)):
            tails.append([tail + (lm,) for tail in tails[-1] for lm in self.labmoves])
        heads: dict[tuple[int, int, int], tuple[Run, Run, Player]] = {}
        violations = []
        for n, gid, i, h in self.found:
            m = n - h
            hid, t = divmod(gid, k ** m)
            head = heads.get((h, hid, i))
            if head is None:
                head = heads[h, hid, i] = self._swap(h, hid, i)
            tail = tails[m][t]
            violations.append((head[0] + tail, head[1] + tail, head[2]))
        return reduced_report(violations, self.pairs)


def delay_groups(table):
    """Runs of a delay run table grouped by label subsequences; delays only
    relate within groups."""
    groups = defaultdict(list)
    for run in table.runs:
        key = (label_subsequence(run, TOP), label_subsequence(run, BOT))
        groups[key].append(run)
    return groups.values()


def pairwise_static_scan(table):
    """Static verdict over every delay pair of the table, not just swaps."""
    for group in delay_groups(table):
        if len(group) < 2:
            continue
        profiles = {
            run: (delay_profile(run, TOP), delay_profile(run, BOT)) for run in group
        }
        for p_index, p in enumerate((TOP, BOT)):
            for gamma in group:
                if not table.won(gamma, p):
                    continue
                gamma_profile = profiles[gamma][p_index]
                for delta in group:
                    if delta == gamma:
                        continue
                    delta_profile = profiles[delta][p_index]
                    if all(d >= g for d, g in zip(delta_profile, gamma_profile)):
                        if not table.won(delta, p):
                            return StaticVerdict(counterexample=(gamma, delta, p))
    return StaticVerdict()


def pairwise_lemma_scan(table):
    """Illegality-lemma report over every delay pair of the table."""
    violations = []
    pairs = 0
    for group in delay_groups(table):
        if len(group) < 2:
            continue
        profiles = {
            run: (delay_profile(run, TOP), delay_profile(run, BOT)) for run in group
        }
        for p_index, p in enumerate((TOP, BOT)):
            for delta in group:
                off = table.offenders[delta]
                if off is None or off.culprit is not p:
                    continue
                delta_profile = profiles[delta][p_index]
                for gamma in group:
                    if gamma == delta:
                        continue
                    gamma_profile = profiles[gamma][p_index]
                    if not all(d >= g for d, g in zip(delta_profile, gamma_profile)):
                        continue
                    pairs += 1
                    gamma_off = table.offenders[gamma]
                    if gamma_off is None or gamma_off.culprit is not p:
                        violations.append((gamma, delta, p))
    return reduced_report(violations, pairs)


def chain_defs(depth):
    """A definitions file holding one game, ``deep``: a line of ``depth``
    moves, written out by hand so no JSON encoder limits its depth."""
    text = '{"winner": "T"}'
    for _ in range(depth):
        text = f'{{"winner": "T", "moves": [{{"label": "B", "move": "m", "child": {text}}}]}}'
    return f'{{"deep": {text}}}'


def first_difference(game_a, game_b, pool_moves, max_len):
    """First behavioral difference between two games over pool runs, or None.

    Compares extension legality edge by edge and winners on legal runs.
    """
    labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool_moves]
    stack = [((), True)]
    while stack:
        run, legal = stack.pop()
        if legal:
            wa, wb = game_a.winner(run), game_b.winner(run)
            if wa is not wb:
                return ("winner", run, wa, wb)
        if len(run) >= max_len:
            continue
        for lm in labmoves:
            if not legal:
                stack.append((run + (lm,), False))
                continue
            la = game_a.extend_legal(run, lm)
            lb = game_b.extend_legal(run, lm)
            if la != lb:
                return ("legality", run + (lm,), la, lb)
            stack.append((run + (lm,), la))
    return None
