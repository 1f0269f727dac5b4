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
global constraint is that the run read along every infinite bitstring
(its moves addressed to prefixes of it, stripped to their payloads) is a
legal run of the base.

A recurrence's state (:class:`RayState`) is canonical: two legal runs
reach equal states exactly when they denote one position, with the same
tree, the same decisive ray and the same base state along every ray.  It
holds the replicated set (tight only), the structural player's last
switch stem without trailing zeros (the decisive ray is that stem padded
with zeros, so ``0`` and the root name one ray), and one base state per
class of rays.  Rays in one class agree on their first ``depth`` bits,
where ``depth`` is the fewest leading bits that fix every ray's base
state.  An addressed move ``u.x`` steps with ``x`` the base state of
every class below ``u``, and is legal iff every one of those steps is:
one class if ``u`` has ``depth`` bits or more, and a longer ``u`` then
splits every class, the copy at ``u`` stepped and the rest unchanged.
Last, while every pair of sibling classes holds equal states, each pair
merges into its parent.  The outcome is the base outcome of the class
holding the decisive ray.  The moves a player may make in a state come
from the state too: an addressed move ``u.x`` is offered when every
class below ``u`` offers ``x``, which is what ``step`` accepts.
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
)
from .games import Game, PreconditionError, State


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


# Both tree caches are bounded; translation runs to budget 5 meet at most 49 distinct trees.
@functools.lru_cache(maxsize=1 << 12)
def _nodes_of(replicated: frozenset[str]) -> frozenset[str]:
    nodes = {""}
    for u in replicated:
        nodes.add(u + "0")
        nodes.add(u + "1")
    return frozenset(nodes)


@functools.lru_cache(maxsize=1 << 12)
def _outer_of(replicated: frozenset[str]) -> frozenset[str]:
    return _nodes_of(replicated) - replicated


class NodeTree(NamedTuple):
    """The set of actual nodes of a tight position; a tuple, so that a
    state holding it hashes and compares in C.

    Stored as the set of addresses whose replication request occurred; the
    actual nodes are the root plus both children of every replicated
    address.  Every tree this package builds is grown from ``NodeTree()``,
    the bare root, by ``replicate``, so it is a proper binary tree and
    ``outer()`` is exact: the outer nodes are exactly the leaves.
    """

    replicated: frozenset[str] = frozenset()

    def nodes(self) -> frozenset[str]:
        return _nodes_of(self.replicated)

    def outer(self) -> frozenset[str]:
        """Actual nodes not yet replicated: in a tree grown by
        ``replicate``, exactly those that are no proper prefix of another."""
        return _outer_of(self.replicated)

    def replicate(self, w: str) -> NodeTree | None:
        """The tree with ``w`` replicated; None unless ``w`` is outer."""
        return NodeTree(self.replicated | {w}) if w in _outer_of(self.replicated) else None


def actual_nodes(position: Run, structural: Player) -> NodeTree:
    """Tree of actual nodes: the root plus children of replicated addresses.

    Only the legal replications count: the structural player's, at nodes
    outer when made, so the tree is the one the tight game grows.
    """
    tree = NodeTree()
    for lm in position:
        if lm.label is structural:
            sh = parse_move(lm.move)
            if sh.kind is ShapeKind.REPLICATIVE:
                tree = tree.replicate(sh.address) or tree
    return tree


def tight_extension_legal(base: Game, position: Run, lm: LabMove, structural: Player) -> bool:
    """May ``lm`` legally extend a legal tight position?

    Switches must be made by the structural player at actual nodes;
    replications by the structural player at outer nodes; addressed moves
    by either player at actual nodes, provided the payload extends the run
    read along every infinite bitstring below the address to a legal base
    run.
    """
    return RecurrenceGame(base, RecurrenceKind(Version.TIGHT, structural)).extend_legal(position, lm)


def loose_extension_legal(base: Game, position: Run, lm: LabMove, structural: Player) -> bool:
    """May ``lm`` legally extend a legal loose position?

    Switches (bare bitstrings) are the structural player's and carry no
    actuality requirement; addressed moves are anyone's, constrained only
    by the legality of the run read along each bitstring; replication-shaped
    moves have no clause here and are illegal for their author.
    """
    return RecurrenceGame(base, RecurrenceKind(Version.LOOSE, structural)).extend_legal(position, lm)


def switches(run: Run, structural: Player) -> tuple[str, ...]:
    """Addresses of the structural player's switches, in run order.

    The last one is the decisive stem (the root if there is none).
    """
    return tuple(
        sh.address
        for sh in (parse_move(lm.move) for lm in run if lm.label is structural)
        if sh.kind is ShapeKind.SWITCH
    )


# The longest address an addressed move may have: a move at depth d keeps
# 2**d class states, so this guard caps a state at 65,536 of them.
MAX_ADDRESS_BITS = 16

# Bound once for step, past slow Python 3.11 paths: Enum members, and NamedTuple's __new__ for a RayState.
_SWITCH, _REPLICATIVE, _NONREPLICATIVE = ShapeKind.SWITCH, ShapeKind.REPLICATIVE, ShapeKind.NONREPLICATIVE
_new = tuple.__new__


class RayState(NamedTuple):
    """A recurrence's state after a legal run, one per position.

    ``tree`` holds the actual nodes (None in the loose version) and
    ``stem`` the address of the structural player's last switch without
    its trailing zeros.  The rays are split into classes by their first
    ``depth`` bits, the fewest that fix every ray's base state, so no two
    sibling classes hold equal states.  ``classes[i]`` is the base state
    of the run read along the class whose key is the ``depth`` bits of
    ``i``.
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
        tree = NodeTree() if kind.version is Version.TIGHT else None
        self._start = RayState(tree, "", 0, (base.start(),))

    def start(self) -> RayState:
        return self._start

    def step(self, state: RayState, lm: LabMove) -> RayState | None:
        """Switches and replications change the stem and the tree; an
        addressed move ``u.x`` steps with ``x`` the base state of every class
        below ``u``, refused before any class is copied if one step is; a
        ``u`` longer than the classes' keys then splits every class in copies
        of itself, and sibling classes merge while every pair holds equal
        states.  Before all that, an address past ``MAX_ADDRESS_BITS``
        raises :class:`PreconditionError`."""
        sh = parse_move(lm.move)
        kind, u = sh.kind, sh.address
        tree, stem, depth, classes = state
        if kind is _SWITCH:
            if lm.label is not self.structural or tree is not None and u not in _nodes_of(tree.replicated):
                return None
            return _new(RayState, (tree, u.rstrip("0"), depth, classes))
        if kind is not _NONREPLICATIVE:
            if kind is not _REPLICATIVE or tree is None or lm.label is not self.structural:
                return None
            tree = tree.replicate(u)
            return None if tree is None else _new(RayState, (tree, stem, depth, classes))
        if tree is not None and u not in _nodes_of(tree.replicated):
            return None
        if len(u) > MAX_ADDRESS_BITS:
            raise PreconditionError(f"address {u!r} has {len(u)} bits; "
                                    f"a recurrence takes at most {MAX_ADDRESS_BITS}")
        payload, step = sh.payload_moves[lm.label is BOT], self.base.step
        if len(u) >= depth:  # u names one class: step it, then split it when u is deeper
            low = int(u[:depth], 2) if depth else 0
            after = step(classes[low], payload)
            if after is None:
                return None
            if len(u) > depth:
                copies = 1 << (len(u) - depth)
                classes = tuple([inner for inner in classes for _ in range(copies)])
                low, depth = low * copies + int(u[depth:], 2), len(u)
            classes = classes[:low] + (after,) + classes[low + 1 :]
        else:  # u is above several classes: step each run of equal states once
            width = 1 << (depth - len(u))
            low = int(u, 2) * width if u else 0
            stepped, last = [], None
            for inner in classes[low : low + width]:
                if inner is not last:  # a split leaves copies of one state side by side
                    last, after = inner, step(inner, payload)
                    if after is None:
                        return None
                stepped.append(after)
            classes = classes[:low] + tuple(stepped) + classes[low + width :]
        while depth and classes[::2] == classes[1::2]:
            classes, depth = classes[::2], depth - 1
        return _new(RayState, (tree, stem, depth, classes))

    def outcome(self, state: RayState) -> Player:
        """Winner of a legal run: the base winner of the run read along the
        decisive branch.

        The decisive branch is the last switch made by the structural
        player, padded with zeros forever; with no switches it is the
        all-zero branch.  A finite run always has finitely many switches,
        so the endless-switching outcome (a loss for the switching player)
        can never arise here and the winner never consults switch counts.
        """
        key = (state.stem + "0" * state.depth)[: state.depth]
        return self.base.outcome(state.classes[int(key, 2) if key else 0])

    def moves(self, state: RayState, player: Player, max_address_len: int) -> frozenset[str]:
        """Switches and replications from the tree (tight) or at every stem
        within the address bound (loose), and each addressed move ``w.a``
        whose payload every distinct class state below ``w`` offers.  A
        bound outside 0..``MAX_ADDRESS_BITS`` raises :class:`PreconditionError`
        before any stem is built: ``step`` refuses the deepest moves a larger
        one offers, and the loose stems of a negative one hold the root."""
        tree, _, depth, classes = state
        limit = max_address_len
        if not 0 <= limit <= MAX_ADDRESS_BITS:
            raise PreconditionError(f"address bound {limit} is outside the 0 to {MAX_ADDRESS_BITS} bits "
                                    f"a recurrence takes")
        if tree is not None:
            addresses = [w for w in tree.nodes() if len(w) <= limit]
            replications = [w + ":" for w in tree.outer() if len(w) <= limit]
        else:
            addresses, replications = _all_stems(limit), []
        out = addresses + replications if player is self.structural else []
        offered: dict[State, frozenset[str]] = {}
        for w in addresses:
            if len(w) >= depth:  # w names one class
                inner = classes[int(w[:depth], 2) if depth else 0]
                payloads = offered.get(inner)
                if payloads is None:
                    payloads = offered[inner] = self.base.moves(inner, player, limit)
            else:  # w is above several classes: what every distinct one offers
                width = 1 << (depth - len(w))
                low = int(w, 2) * width if w else 0
                below = set(classes[low : low + width])
                for inner in below - offered.keys():
                    offered[inner] = self.base.moves(inner, player, limit)
                payloads = frozenset.intersection(*map(offered.__getitem__, below))
            out.extend([f"{w}.{a}" for a in payloads])
        return frozenset(out)

    # Kept for perfbench/ until ROADMAP item 2 (see games.FiniteGame).
    winner, legal_moves = Game.winner, Game.legal_moves


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
