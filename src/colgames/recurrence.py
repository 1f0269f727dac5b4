"""Tight and loose toggling-branching (co)recurrence game constructors.

Both versions are compound games over a base game A.  Play happens on a
binary tree of copies of A addressed by bitstrings.  The structural
player (the environment for recurrences, the machine for corecurrences)
may repeatedly *switch* which branch will decide the outcome; only the
final switch counts, with the empty address as the default.

In the tight version the structural player also grows the tree explicitly
with replication requests ``w:`` at outer nodes, and every addressed move
must target an actual node of the tree.  The loose version drops the tree
bookkeeping entirely: switches may name any finite bitstring, addressed
moves may use any address, and there are no replication moves; the only
global constraint is that the projection along every infinite bitstring
is a legal run of the base.

A recurrence's state (:class:`RayState`) holds the replicated set (tight
only), the structural player's last switch stem, and one base state per
class of rays.  Rays in one class agree on their first ``depth`` bits,
where ``depth`` is the length of the longest addressed move so far, so
they project the run identically.  A longer address splits every class,
and the new classes copy their parent's base state; an addressed move
``u.x`` steps with ``x`` the base state of each class whose key starts
with ``u``, and the move is legal iff every one of those steps is.  The
outcome is the base outcome of the class holding the last switch stem
padded with zeros.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    BOT,
    TOP,
    LabMove,
    Player,
    Run,
    ShapeKind,
    parse_move,
    project,
    ray_classes,
)
from .games import EnumBounds, Game, State


class Version(enum.Enum):
    TIGHT = "tight"
    LOOSE = "loose"


@dataclass(frozen=True, slots=True)
class RecurrenceKind:
    """A version and the structural player, who owns switch (and, when
    tight, replication) moves: the environment in a recurrence, the
    machine in a corecurrence."""

    version: Version
    structural: Player


TIGHT_RECURRENCE = RecurrenceKind(Version.TIGHT, BOT)
TIGHT_CORECURRENCE = RecurrenceKind(Version.TIGHT, TOP)
LOOSE_RECURRENCE = RecurrenceKind(Version.LOOSE, BOT)
LOOSE_CORECURRENCE = RecurrenceKind(Version.LOOSE, TOP)

ALL_KINDS = (TIGHT_RECURRENCE, TIGHT_CORECURRENCE, LOOSE_RECURRENCE, LOOSE_CORECURRENCE)

# The operator keyword of each kind: the game-expression syntax and every
# recurrence's name.
OP_NAMES = {
    TIGHT_RECURRENCE: "tbr_t",
    TIGHT_CORECURRENCE: "cbr_t",
    LOOSE_RECURRENCE: "tbr_l",
    LOOSE_CORECURRENCE: "cbr_l",
}


@functools.lru_cache(maxsize=None)
def _nodes_of(replicated: frozenset[str]) -> frozenset[str]:
    nodes = {""}
    for u in replicated:
        nodes.add(u + "0")
        nodes.add(u + "1")
    return frozenset(nodes)


@functools.lru_cache(maxsize=None)
def _outer_of(nodes: frozenset[str]) -> frozenset[str]:
    return frozenset(
        v for v in nodes if not any(w != v and w.startswith(v) for w in nodes)
    )


@dataclass(frozen=True, slots=True)
class NodeTree:
    """The set of actual nodes of a tight position.

    Stored as the set of addresses whose replication request occurred; the
    actual nodes are the root plus both children of every replicated
    address.  For positions built from legal play this is a proper binary
    tree: prefix-closed, every node with zero or two children, and the
    outer nodes are exactly the leaves.
    """

    replicated: frozenset[str]

    def nodes(self) -> frozenset[str]:
        return _nodes_of(self.replicated)

    def is_actual(self, w: str) -> bool:
        return w in self.nodes()

    def outer(self) -> frozenset[str]:
        """Actual nodes that are not proper prefixes of other actual nodes."""
        return _outer_of(self.nodes())

    def replicate(self, w: str) -> "NodeTree":
        return NodeTree(self.replicated | {w})

    def longest_actual_prefix(self, w: str) -> str:
        for k in range(len(w), -1, -1):
            if self.is_actual(w[:k]):
                return w[:k]
        raise AssertionError("unreachable: the root is always actual")

    def zero_outer_from(self, w: str) -> str:
        """The unique outer node of the form w, w0, w00, ...

        Only meaningful when ``w`` is an actual node of a well-formed
        tree; existence follows from every node having zero or two
        children.
        """
        current = w
        outer = self.outer()
        while current not in outer:
            current = current + "0"
            if not self.is_actual(current):
                raise ValueError(f"no outer node on the zero path from {w!r}")
        return current


def actual_nodes(position: Run, structural: Player) -> NodeTree:
    """Tree of actual nodes: the root plus children of replicated addresses.

    Only replication requests made by the structural player count.
    """
    replicated = set()
    for lm in position:
        if lm.label is structural:
            sh = parse_move(lm.move)
            if sh.kind is ShapeKind.REPLICATIVE:
                replicated.add(sh.address)
    return NodeTree(frozenset(replicated))


def tight_extension_legal(base: Game, position: Run, lm: LabMove, structural: Player) -> bool:
    """May ``lm`` legally extend a legal tight position?

    Switches must be made by the structural player at actual nodes;
    replications by the structural player at outer nodes; addressed moves
    by either player at actual nodes, provided the payload extends the
    projection along every infinite bitstring below the address to a legal
    base run.
    """
    return RecurrenceGame(base, RecurrenceKind(Version.TIGHT, structural)).extend_legal(position, lm)


def loose_extension_legal(base: Game, position: Run, lm: LabMove, structural: Player) -> bool:
    """May ``lm`` legally extend a legal loose position?

    Switches (bare bitstrings) are the structural player's and carry no
    actuality requirement; addressed moves are anyone's, constrained only
    by projection legality; replication-shaped moves have no clause here
    and are illegal for their author.
    """
    return RecurrenceGame(base, RecurrenceKind(Version.LOOSE, structural)).extend_legal(position, lm)


def last_switch_stem(run: Run, structural: Player) -> str:
    """Address of the structural player's last switch; the root if none."""
    for lm in reversed(run):
        if lm.label is structural:
            sh = parse_move(lm.move)
            if sh.kind is ShapeKind.SWITCH:
                return sh.address
    return ""


class RayState(NamedTuple):
    """A recurrence's state after a legal run.

    ``tree`` holds the actual nodes (None in the loose version) and
    ``stem`` the address of the structural player's last switch.  The
    rays are split into classes by the ``depth`` first bits, where
    ``depth`` is the length of the longest addressed move so far; rays in
    one class project the run identically.  ``classes[i]`` is the base
    state of the projection along the class whose key is the ``depth``
    bits of ``i``.
    """

    tree: NodeTree | None
    stem: str
    depth: int
    classes: tuple[State, ...]


class RecurrenceGame(Game):
    def __init__(self, base: Game, kind: RecurrenceKind) -> None:
        self.base = base
        self.kind = kind
        self.name = f"{OP_NAMES[kind]}({base.name})"
        self.structural = kind.structural
        tree = NodeTree(frozenset()) if kind.version is Version.TIGHT else None
        self._start = RayState(tree, "", 0, (base.start(),))

    def start(self) -> RayState:
        return self._start

    def step(self, state: RayState, lm: LabMove) -> RayState | None:
        """Switches and replications change the stem and the tree; an
        addressed move ``u.x`` steps the base state of every class below
        ``u`` with ``x``, after splitting each class in copies of itself
        when ``u`` is longer than the classes' keys."""
        sh = parse_move(lm.move)
        tree, stem, depth, classes = state
        if sh.kind is ShapeKind.SWITCH:
            if lm.label is not self.structural or tree is not None and not tree.is_actual(sh.address):
                return None
            return RayState(tree, sh.address, depth, classes)
        if sh.kind is ShapeKind.REPLICATIVE:
            if tree is None or lm.label is not self.structural or sh.address not in tree.outer():
                return None
            return RayState(tree.replicate(sh.address), stem, depth, classes)
        if sh.kind is not ShapeKind.NONREPLICATIVE or tree is not None and not tree.is_actual(sh.address):
            return None
        u = sh.address
        if len(u) > depth:
            copies = 1 << (len(u) - depth)
            classes = tuple(inner for inner in classes for _ in range(copies))
            depth = len(u)
        width = 1 << (depth - len(u))
        low = int(u, 2) * width if u else 0
        payload = LabMove(lm.label, sh.payload)
        stepped = []
        for inner in classes[low : low + width]:
            inner = self.base.step(inner, payload)
            if inner is None:
                return None
            stepped.append(inner)
        return RayState(tree, stem, depth, classes[:low] + tuple(stepped) + classes[low + width :])

    def outcome(self, state: RayState) -> Player:
        """Winner of a legal run: the base winner of the decisive projection.

        The decisive branch is the last switch made by the structural
        player, padded with zeros forever; with no switches it is the
        all-zero branch.  A finite run always has finitely many switches,
        so the endless-switching outcome (a loss for the switching player)
        can never arise here and the winner never consults switch counts.
        """
        key = (state.stem + "0" * state.depth)[: state.depth]
        return self.base.outcome(state.classes[int(key, 2) if key else 0])

    # Kept for perfbench/ until ROADMAP item 1 (see games.FiniteGame).
    extend_legal, winner = Game.extend_legal, Game.winner

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        state = self.replay(position)
        if state is None:
            return frozenset()
        limit = bounds.max_address_len
        candidates: set[str] = set()
        if state.tree is not None:
            tree = state.tree
            addresses = sorted(w for w in tree.nodes() if len(w) <= limit)
            if player is self.structural:
                candidates.update(addresses)
                candidates.update(
                    w + ":" for w in tree.outer() if len(w) <= limit
                )
        else:
            addresses = _all_stems(limit)
            if player is self.structural:
                candidates.update(addresses)
        for w in addresses:
            payloads: set[str] = set()
            for projection in {project(position, ray) for ray in ray_classes(position, w)}:
                payloads |= self.base.legal_moves(projection, player, bounds)
            candidates.update(f"{w}.{a}" for a in payloads)
        return frozenset(
            m for m in candidates if self.step(state, LabMove(player, m)) is not None
        )

    def probe_moves(self, bounds: EnumBounds) -> tuple[str, ...]:
        alphas = sorted(
            self.base.legal_moves((), TOP, bounds)
            | self.base.legal_moves((), BOT, bounds)
        )
        a = alphas[0] if alphas else "a"
        if self.kind.version is Version.TIGHT:
            return (":", "0:", "0", f"0.{a}")
        return (":", "01", f".{a}", f"0.{a}")


def _all_stems(limit: int) -> list[str]:
    stems = [""]
    frontier = [""]
    for _ in range(limit):
        frontier = [s + b for s in frontier for b in "01"]
        stems.extend(frontier)
    return stems


def make_recurrence(base: Game, kind: RecurrenceKind) -> Game:
    """Build the tight or loose (co)recurrence of ``base`` as a Game."""
    return RecurrenceGame(base, kind)
