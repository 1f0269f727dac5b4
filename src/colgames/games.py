"""Constant games: finite trees, negation, parallel disjunction.

A game is a state machine over labelled moves: ``start()`` is the state
of the empty run, ``step(state, lm)`` the state after one more move (or
None when the move is illegal there), and ``outcome(state)`` the winner
of a legal run in that state.  ``moves(state, player, max_address_len)``
answers which moves ``player`` may make in a state within an address
bound, the only bound a game's move query takes.  The whole-run views,
``extend_legal``, ``winner`` and ``legal_moves``, are derived once in
:class:`Game` by replaying ``step`` from ``start()``.  Legality is exact
and unbounded; only enumeration takes a bound, because the loose
recurrences admit unboundedly many legal moves at a position.

The winner is defined at every node of a finite game, not only at leaves:
a legal run that stops early is a completed play won by the label of the
node it reached.

Every constructor here and in ``recurrence`` is a :class:`Game`, the
finite tree included, so any game can be the base of another.  A finite
tree is compiled once into a table of integer states, one per distinct
subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from .core import BOT, TOP, LabMove, Player, Run, neg_player

# A game's state after a legal run; its shape is private to the constructor.
State = Any


@dataclass(frozen=True, slots=True)
class EnumBounds:
    """Bounds for move enumeration: address length and run length."""

    max_address_len: int
    max_run_len: int

    def __post_init__(self) -> None:
        if self.max_address_len < 0 or self.max_run_len < 0:
            raise ValueError("bounds must be non-negative")


class PreconditionError(ValueError):
    """A verification driver or a guarded routine was fed inputs violating
    its preconditions (a non-static base, a run past a guard's limit)."""


class Game:
    """Base interface shared by every game constructor in the package.

    Subclasses implement :meth:`start`, :meth:`step` and :meth:`outcome`,
    the game as a state machine over labelled moves, and :meth:`moves`,
    the move query on a state.  States are immutable, hashable and never
    None, and equal states have equal futures: the same moves step them
    to equal states, with equal outcomes and equal move answers; the
    delay scans step each distinct state once.  The whole-run methods
    :meth:`extend_legal`, :meth:`winner` and :meth:`legal_moves` replay
    the run.  Instances are immutable after construction and all
    operations are pure.
    """

    name: str

    def start(self) -> State:
        """The state of the empty run."""
        raise NotImplementedError

    def step(self, state: State, lm: LabMove) -> State | None:
        """The state after ``lm`` is played in ``state``; None if illegal."""
        raise NotImplementedError

    def outcome(self, state: State) -> Player:
        """The winner of a legal run that ends in ``state``."""
        raise NotImplementedError

    def moves(self, state: State, player: Player, max_address_len: int) -> frozenset[str]:
        """The moves ``player`` may make in ``state`` whose addresses have
        at most ``max_address_len`` bits.

        Exactly the moves ``step`` accepts there that pass a test of the
        move alone (its addresses are within the bound), so a move offered
        in one state and legal in another is offered there too.  A game
        whose ``step`` guards the address length checks the bound's range:
        a negative bound or one past that guard raises :class:`PreconditionError`.
        """
        raise NotImplementedError

    def replay(self, run: Run, state: State | None = None) -> State | None:
        """The state after ``run`` is played from ``state`` (by default
        ``start()``); None if the run is illegal there."""
        state = self.start() if state is None else state
        for lm in run:
            state = self.step(state, lm)
            if state is None:
                return None
        return state

    def extend_legal(self, position: Run, lm: LabMove) -> bool:
        """May ``lm`` legally extend the legal run ``position``?"""
        state = self.replay(position)
        return state is not None and self.step(state, lm) is not None

    def winner(self, run: Run) -> Player:
        """The winner of the legal run ``run``."""
        state = self.replay(run)
        if state is None:
            raise ValueError("winner is only defined on legal runs")
        return self.outcome(state)

    def legal_moves(self, position: Run, player: Player, max_address_len: int) -> frozenset[str]:
        """The moves ``player`` may make after ``position``; none after an illegal run."""
        state = self.replay(position)
        return frozenset() if state is None else self.moves(state, player, max_address_len)


class Offender(NamedTuple):
    """First illegal move of a run: its index and its author."""

    index: int
    culprit: Player


def offender(game: Game, run: Run) -> Offender | None:
    """Index and author of the first illegal move; None iff the run is legal."""
    position: Run = ()
    for i, lm in enumerate(run):
        if not game.extend_legal(position, lm):
            return Offender(i, lm.label)
        position = position + (lm,)
    return None


def won_by(game: Game, run: Run, p: Player) -> bool:
    """Does ``p`` win this run?  Total on all runs, legal or not.

    A run whose first offender is ``p``'s adversary is automatically won
    by ``p``; a run ``p`` offends in is lost by ``p``; a legal run is won
    by its winner.
    """
    off = offender(game, run)
    if off is not None:
        return off.culprit is not p
    return game.winner(run) is p


@dataclass(frozen=True, slots=True)
class GameNode:
    """Node of a finite game tree: the winner of a run that stops here and
    the edges, each a labeled move to a child.  Two edges out of the same
    node may not carry the same (label, move) pair."""

    winner: Player
    edges: tuple[tuple[LabMove, GameNode], ...] = ()

    def __post_init__(self) -> None:
        if len({lm for lm, _ in self.edges}) != len(self.edges):
            raise ValueError("duplicate (label, move) edge in game node")


def leaf(winner: Player) -> GameNode:
    return GameNode(winner)


def node(winner: Player, edges: dict[LabMove, GameNode]) -> GameNode:
    return GameNode(winner, tuple(edges.items()))


class FiniteGame(Game):
    """A named finite rooted game tree, compiled once into a state table.

    A state is an integer, one per distinct subtree (equal winners and
    equal edges in the same order); per state the table holds the winner
    and, for TOP and then BOT, a dict from move to next state.  Like any
    game it is equal only to itself and prints as ``FiniteGame('name')``,
    so neither walks the tree's paths."""

    def __init__(self, name: str, root: GameNode) -> None:
        self.name = name
        self.root = root
        # Children before parents on an explicit stack; only children not yet
        # compiled are pushed, so a subtree that many paths share is walked once.
        state_of: dict[int, int] = {}  # id(node) -> state
        states: dict[tuple, int] = {}  # (winner, ordered (move, child state) edges) -> state
        stack = [root]
        while stack:
            current = stack[-1]
            pending = [child for _, child in current.edges if id(child) not in state_of]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            edges = tuple((lm, state_of[id(child)]) for lm, child in current.edges)
            state_of[id(current)] = states.setdefault((current.winner, edges), len(states))
        self._winners = tuple(winner for winner, _ in states)
        self._next = tuple(tuple({lm.move: s for lm, s in edges if lm.label is p} for p in (TOP, BOT))
                           for _, edges in states)

    def __repr__(self) -> str:
        return f"FiniteGame({self.name!r})"

    def start(self) -> int:
        return len(self._winners) - 1  # the root is compiled last

    def step(self, state: int, lm: LabMove) -> int | None:
        return self._next[state][lm.label is BOT].get(lm.move)

    def outcome(self, state: int) -> Player:
        return self._winners[state]

    def moves(self, state: int, player: Player, max_address_len: int) -> frozenset[str]:
        return frozenset(self._next[state][player is BOT])

    # Kept for perfbench/, which patches these names in each class's own
    # __dict__, until ROADMAP item 2 changes the benchmark.
    extend_legal, winner = Game.extend_legal, Game.winner

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
        """Every move of the tree, sorted, then a junk move: the translation
        precheck's pool as perfbench/ records it, kept until ROADMAP item 2;
        the library's delay scans find their pools in their own walk."""
        moves = {move for pair in self._next for by_player in pair for move in by_player}
        return tuple(sorted(moves)) + tuple([junk for junk in ("x", "y", "z") if junk not in moves][:1])


# Old names kept only for perfbench/, which binds them; nothing else uses them.
_FiniteInterface = FiniteGame
def finite_game_interface(game: FiniteGame) -> FiniteGame: return game


class _Negated(Game):
    def __init__(self, inner: Game) -> None:
        self.inner = inner
        self.name = f"not({inner.name})"

    def start(self) -> State:
        return self.inner.start()

    def step(self, state: State, lm: LabMove) -> State | None:
        return self.inner.step(state, LabMove(neg_player(lm.label), lm.move))

    def outcome(self, state: State) -> Player:
        return neg_player(self.inner.outcome(state))

    def moves(self, state: State, player: Player, max_address_len: int) -> frozenset[str]:
        return self.inner.moves(state, neg_player(player), max_address_len)

    # Kept for perfbench/ until ROADMAP item 2 (see FiniteGame).
    extend_legal, winner = Game.extend_legal, Game.winner


def negate(game: Game) -> Game:
    """Role swap: legality and winner with both players interchanged."""
    return _Negated(game)


def _split_move(move: str) -> tuple[int, str] | None:
    """Component index (0 or 1) and remainder of a compound move, or None."""
    if move.startswith("1."):
        return 0, move[2:]
    if move.startswith("2."):
        return 1, move[2:]
    return None


def split_disjunction(run: Run) -> tuple[Run, Run] | None:
    """Split a compound run into its two component runs.

    Returns None if any move lacks a valid ``1.``/``2.`` component prefix.
    """
    parts: tuple[list[LabMove], list[LabMove]] = ([], [])
    for lm in run:
        split = _split_move(lm.move)
        if split is None:
            return None
        index, rest = split
        parts[index].append(LabMove(lm.label, rest))
    return tuple(parts[0]), tuple(parts[1])


class _Disjoined(Game):
    def __init__(self, left: Game, right: Game) -> None:
        self.left = left
        self.right = right
        self.name = f"or({left.name}, {right.name})"

    def start(self) -> tuple[State, State]:
        return self.left.start(), self.right.start()

    def step(self, state: tuple[State, State], lm: LabMove) -> tuple[State, State] | None:
        split = _split_move(lm.move)
        if split is None:
            return None
        index, rest = split
        component = self.left if index == 0 else self.right
        stepped = component.step(state[index], LabMove(lm.label, rest))
        if stepped is None:
            return None
        return (stepped, state[1]) if index == 0 else (state[0], stepped)

    def outcome(self, state: tuple[State, State]) -> Player:
        if self.left.outcome(state[0]) is TOP or self.right.outcome(state[1]) is TOP:
            return TOP
        return BOT

    def moves(self, state: tuple[State, State], player: Player, max_address_len: int) -> frozenset[str]:
        left = self.left.moves(state[0], player, max_address_len)
        right = self.right.moves(state[1], player, max_address_len)
        return frozenset(["1." + m for m in left] + ["2." + m for m in right])

    # Kept for perfbench/ until ROADMAP item 2 (see FiniteGame).
    extend_legal, winner = Game.extend_legal, Game.winner


def disjoin(left: Game, right: Game) -> Game:
    """Parallel disjunction: play proceeds in both components at once.

    Every move must be ``1.rest`` or ``2.rest``; a run is legal iff both
    component runs are, and the machine wins iff it wins either component.
    """
    return _Disjoined(left, right)
