"""Constant games: finite trees, negation, parallel disjunction.

A game is a state machine over labelled moves: ``start()`` is the state
of the empty run, ``step(state, lm)`` the state after one more move (or
None when the move is illegal there), and ``outcome(state)`` the winner
of a legal run in that state.  ``moves(state, player, bounds)`` answers
which moves ``player`` may make in a state, within enumeration bounds.
The whole-run views, ``extend_legal``, ``winner`` and ``legal_moves``,
are derived once in :class:`Game` by replaying ``step`` from
``start()``.  Legality checking is exact and unbounded; only enumeration
takes bounds, because some constructors (the loose recurrences) admit
unboundedly many legal moves at a position.

The winner is defined at every node of a finite game, not only at leaves:
a legal run that stops early is a completed play won by the label of the
node it reached.

Every constructor here and in ``recurrence`` is a :class:`Game`, the
finite tree included, so any game can be the base of another.  Tree nodes
are hash-consed: equal trees are one object, equal by identity.
"""

from __future__ import annotations

import threading
import weakref
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

    def moves(self, state: State, player: Player, bounds: EnumBounds) -> frozenset[str]:
        """The moves ``player`` may make in ``state`` within ``bounds``.

        Exactly the moves ``step`` accepts there that pass a test of the
        move alone (its addresses are no longer than the bound), so a
        move offered in one state and legal in another is offered there
        too.  A game whose ``step`` guards the address length raises
        :class:`PreconditionError` for a bound past that guard.
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

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        """The moves ``player`` may make after ``position`` within ``bounds``;
        none after an illegal run."""
        state = self.replay(position)
        return frozenset() if state is None else self.moves(state, player, bounds)


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


class GameNode:
    """Node of a finite game tree, built once per distinct tree.

    Children are keyed by labeled move; two edges out of the same node may
    not carry the same (label, move) pair.  The children are built first, so
    (winner, edges), children by identity, names a tree exactly: equal trees
    are one object and compare and hash by identity, in C.  The table of
    built nodes is weak, so an entry dies with its node."""

    __slots__ = ("winner", "edges", "__weakref__")
    winner: Player
    edges: tuple[tuple[LabMove, GameNode], ...]

    def __new__(cls, winner: Player, edges: tuple[tuple[LabMove, GameNode], ...] = ()) -> GameNode:
        if len({lm for lm, _ in edges}) != len(edges):
            raise ValueError("duplicate (label, move) edge in game node")
        with _interning:
            self = _interned.get((winner, edges))
            if self is None:
                self = _interned[winner, edges] = object.__new__(cls)
                object.__setattr__(self, "winner", winner)
                object.__setattr__(self, "edges", edges)
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("a GameNode is immutable")

    def __reduce__(self) -> tuple:
        return GameNode, (self.winner, self.edges)

    def __repr__(self) -> str:
        return f"GameNode(winner={self.winner!r}, edges={self.edges!r})"


_interned: weakref.WeakValueDictionary[tuple, GameNode] = weakref.WeakValueDictionary()
_interning = threading.Lock()


def leaf(winner: Player) -> GameNode:
    return GameNode(winner)


def node(winner: Player, edges: dict[LabMove, GameNode]) -> GameNode:
    return GameNode(winner, tuple(edges.items()))


@dataclass(frozen=True)
class FiniteGame(Game):
    """A named finite rooted game tree."""

    name: str
    root: GameNode

    def start(self) -> GameNode:
        return self.root

    def step(self, state: GameNode, lm: LabMove) -> GameNode | None:
        for edge, child in state.edges:
            if edge.move == lm.move and edge.label is lm.label:
                return child
        return None

    def outcome(self, state: GameNode) -> Player:
        return state.winner

    def moves(self, state: GameNode, player: Player, bounds: EnumBounds) -> frozenset[str]:
        return frozenset(edge.move for edge, _ in state.edges if edge.label is player)

    # Kept for perfbench/, which patches these names in each class's own
    # __dict__, until ROADMAP item 2 changes the benchmark.
    extend_legal, winner = Game.extend_legal, Game.winner

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
        """Every move of the tree, sorted, then a junk move: the translation
        precheck's pool as perfbench/ records it, kept until ROADMAP item 2;
        the library's delay scans find their pools in their own walk."""
        moves: set[str] = set()
        stack = [self.root]
        while stack:
            current = stack.pop()
            for edge, child in current.edges:
                moves.add(edge.move)
                stack.append(child)
        for junk in ("x", "y", "z"):
            if junk not in moves:
                return tuple(sorted(moves)) + (junk,)
        return tuple(sorted(moves))


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

    def moves(self, state: State, player: Player, bounds: EnumBounds) -> frozenset[str]:
        return self.inner.moves(state, neg_player(player), bounds)

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

    def moves(self, state: tuple[State, State], player: Player, bounds: EnumBounds) -> frozenset[str]:
        left = self.left.moves(state[0], player, bounds)
        right = self.right.moves(state[1], player, bounds)
        return frozenset(["1." + m for m in left] + ["2." + m for m in right])

    # Kept for perfbench/ until ROADMAP item 2 (see FiniteGame).
    extend_legal, winner = Game.extend_legal, Game.winner


def disjoin(left: Game, right: Game) -> Game:
    """Parallel disjunction: play proceeds in both components at once.

    Every move must be ``1.rest`` or ``2.rest``; a run is legal iff both
    component runs are, and the machine wins iff it wins either component.
    """
    return _Disjoined(left, right)
