"""Constant games: finite trees, negation, parallel disjunction.

A game is a prefix-closed legality predicate on runs, a winner function
total on legal runs, and a bound-parameterized enumerator of legal moves.
Legality checking is exact and unbounded; only enumeration takes bounds,
because some constructors (the loose recurrences) admit unboundedly many
legal moves at a position.

The winner is defined at every node of a finite game, not only at leaves:
a legal run that stops early is a completed play won by the label of the
node it reached.

Every constructor here and in ``recurrence`` is a :class:`Game`, the
finite tree included, so any game can be the base of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import BOT, TOP, LabMove, Player, Run, flip_labels, neg_player


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

    Subclasses implement :meth:`extend_legal` (legality of appending one
    labeled move to a known-legal position), :meth:`winner` (total on
    legal runs), :meth:`legal_moves` and :meth:`probe_moves`.  Instances
    are immutable after construction and all operations are pure.
    """

    name: str

    def extend_legal(self, position: Run, lm: LabMove) -> bool:
        raise NotImplementedError

    def winner(self, run: Run) -> Player:
        raise NotImplementedError

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


def leaf(winner: Player) -> GameNode:
    return GameNode(winner)


def node(winner: Player, edges: dict[LabMove, GameNode]) -> GameNode:
    return GameNode(winner, tuple(edges.items()))


@dataclass(frozen=True)
class FiniteGame(Game):
    """A named finite rooted game tree."""

    name: str
    root: GameNode

    def _node_at(self, run: Run) -> GameNode | None:
        current = self.root
        for lm in run:
            for edge, child in current.edges:
                if edge == lm:
                    current = child
                    break
            else:
                return None
        return current

    def extend_legal(self, position: Run, lm: LabMove) -> bool:
        current = self._node_at(position)
        return current is not None and any(edge == lm for edge, _ in current.edges)

    def winner(self, run: Run) -> Player:
        current = self._node_at(run)
        if current is None:
            raise ValueError("winner is only defined on legal runs")
        return current.winner

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        current = self._node_at(position)
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

    def extend_legal(self, position: Run, lm: LabMove) -> bool:
        flipped = LabMove(neg_player(lm.label), lm.move)
        return self.inner.extend_legal(flip_labels(position), flipped)

    def winner(self, run: Run) -> Player:
        return neg_player(self.inner.winner(flip_labels(run)))

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

    def extend_legal(self, position: Run, lm: LabMove) -> bool:
        split = _split_move(lm.move)
        if split is None:
            return False
        parts = split_disjunction(position)
        if parts is None:
            return False
        index, rest = split
        component = self.left if index == 0 else self.right
        return component.extend_legal(parts[index], LabMove(lm.label, rest))

    def winner(self, run: Run) -> Player:
        parts = split_disjunction(run)
        if parts is None:
            raise ValueError("winner is only defined on legal runs")
        if self.left.winner(parts[0]) is TOP or self.right.winner(parts[1]) is TOP:
            return TOP
        return BOT

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
