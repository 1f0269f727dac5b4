"""Constant games: finite trees, negation, parallel disjunction.

A game is a state machine over labelled moves: ``start()`` is the state
of the empty run, ``step(state, lm)`` the state after one more move (or
None when the move is illegal there), and ``outcome(state)`` the winner
of a legal run in that state.  The whole-run views, ``extend_legal`` and
``winner``, are derived once in :class:`Game` by replaying ``step`` from
``start()``.  A game also has a bound-parameterized enumerator of legal
moves.  Legality checking is exact and unbounded; only enumeration takes
bounds, because some constructors (the loose recurrences) admit
unboundedly many legal moves at a position.

The winner is defined at every node of a finite game, not only at leaves:
a legal run that stops early is a completed play won by the label of the
node it reached.

Every constructor here and in ``recurrence`` is a :class:`Game`, the
finite tree included, so any game can be the base of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from .core import BOT, TOP, LabMove, Player, Run, flip_labels, neg_player

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
    the game as a state machine over labelled moves, plus
    :meth:`legal_moves` and :meth:`probe_moves`.  States are immutable,
    hashable and never None, and equal states have equal futures: the
    same moves step them to equal states, with equal outcomes; the delay
    scans step each distinct state once.  The whole-run methods
    :meth:`extend_legal` and :meth:`winner` replay the run.  Instances
    are immutable after construction and all operations are pure.
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

    def replay(self, run: Run) -> State | None:
        """The state after ``run``; None if the run is illegal."""
        state = self.start()
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
        raise NotImplementedError

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
        """A small deterministic move pool exercising this game's move shapes.

        Used as the default run universe by the exhaustive scanners.
        """
        raise NotImplementedError

    def is_legal(self, run: Run) -> bool:
        return offender(self, run) is None


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


@dataclass(frozen=True)
class GameNode:
    """Node of a finite game tree.

    Children are keyed by labeled move; two edges out of the same node may
    not carry the same (label, move) pair.
    """

    winner: Player
    edges: tuple[tuple[LabMove, "GameNode"], ...] = ()

    def __post_init__(self) -> None:
        keys = [lm for lm, _ in self.edges]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate (label, move) edge in game node")
        # the structural hash, once: each child's is already cached
        object.__setattr__(self, "_hash", hash((self.winner, self.edges)))

    def __hash__(self) -> int:
        return self._hash


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
            if edge == lm:
                return child
        return None

    def outcome(self, state: GameNode) -> Player:
        return state.winner

    # Kept for perfbench/, which patches these names in each class's own
    # __dict__, until ROADMAP item 1 changes the benchmark.
    extend_legal, winner = Game.extend_legal, Game.winner

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        current = self.replay(position)
        if current is None:
            return frozenset()
        return frozenset(edge.move for edge, _ in current.edges if edge.label is player)

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
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

    # Kept for perfbench/ until ROADMAP item 1 (see FiniteGame).
    extend_legal, winner = Game.extend_legal, Game.winner

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        return self.inner.legal_moves(flip_labels(position), neg_player(player), bounds)

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
        return self.inner.probe_moves(bounds)


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

    # Kept for perfbench/ until ROADMAP item 1 (see FiniteGame).
    extend_legal, winner = Game.extend_legal, Game.winner

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        parts = split_disjunction(position)
        if parts is None:
            return frozenset()
        out = {"1." + m for m in self.left.legal_moves(parts[0], player, bounds)}
        out |= {"2." + m for m in self.right.legal_moves(parts[1], player, bounds)}
        return frozenset(out)

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
        out = ["1." + m for m in self.left.probe_moves(bounds)]
        out += ["2." + m for m in self.right.probe_moves(bounds)]
        return tuple(out)


def disjoin(left: Game, right: Game) -> Game:
    """Parallel disjunction: play proceeds in both components at once.

    Every move must be ``1.rest`` or ``2.rest``; a run is legal iff both
    component runs are, and the machine wins iff it wins either component.
    """
    return _Disjoined(left, right)
