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
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .core import (
    BOT,
    TOP,
    LabMove,
    Player,
    Ray,
    Run,
    ShapeKind,
    parse_move,
    project,
    ray_classes,
)
from .games import EnumBounds, Game


class Version(enum.Enum):
    TIGHT = "tight"
    LOOSE = "loose"


class Polarity(enum.Enum):
    RECURRENCE = "recurrence"
    CORECURRENCE = "corecurrence"


@dataclass(frozen=True, slots=True)
class RecurrenceKind:
    version: Version
    polarity: Polarity

    @property
    def structural(self) -> Player:
        """The player who owns switch (and, when tight, replication) moves."""
        return BOT if self.polarity is Polarity.RECURRENCE else TOP


TIGHT_RECURRENCE = RecurrenceKind(Version.TIGHT, Polarity.RECURRENCE)
TIGHT_CORECURRENCE = RecurrenceKind(Version.TIGHT, Polarity.CORECURRENCE)
LOOSE_RECURRENCE = RecurrenceKind(Version.LOOSE, Polarity.RECURRENCE)
LOOSE_CORECURRENCE = RecurrenceKind(Version.LOOSE, Polarity.CORECURRENCE)

ALL_KINDS = (TIGHT_RECURRENCE, TIGHT_CORECURRENCE, LOOSE_RECURRENCE, LOOSE_CORECURRENCE)

_OP_NAMES = {
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
    sh = parse_move(lm.move)
    if sh.kind is ShapeKind.MALFORMED:
        return False
    tree = actual_nodes(position, structural)
    if sh.kind is ShapeKind.SWITCH:
        return lm.label is structural and tree.is_actual(sh.address)
    if sh.kind is ShapeKind.REPLICATIVE:
        return lm.label is structural and sh.address in tree.outer()
    if not tree.is_actual(sh.address):
        return False
    extended = position + (lm,)
    return all(
        base.is_legal(project(extended, ray))
        for ray in ray_classes(extended, sh.address)
    )


def loose_extension_legal(base: Game, position: Run, lm: LabMove, structural: Player) -> bool:
    """May ``lm`` legally extend a legal loose position?

    Switches (bare bitstrings) are the structural player's and carry no
    actuality requirement; addressed moves are anyone's, constrained only
    by projection legality; replication-shaped moves have no clause here
    and are illegal for their author.
    """
    sh = parse_move(lm.move)
    if sh.kind is ShapeKind.SWITCH:
        return lm.label is structural
    if sh.kind is not ShapeKind.NONREPLICATIVE:
        return False
    extended = position + (lm,)
    return all(
        base.is_legal(project(extended, ray)) for ray in ray_classes(extended, "")
    )


def last_switch_stem(run: Run, structural: Player) -> str:
    """Address of the structural player's last switch; the root if none."""
    for lm in reversed(run):
        if lm.label is structural:
            sh = parse_move(lm.move)
            if sh.kind is ShapeKind.SWITCH:
                return sh.address
    return ""


class RecurrenceGame(Game):
    def __init__(self, base: Game, kind: RecurrenceKind) -> None:
        self.base = base
        self.kind = kind
        self.name = f"{_OP_NAMES[kind]}({base.name})"

    def extend_legal(self, position: Run, lm: LabMove) -> bool:
        if self.kind.version is Version.TIGHT:
            return tight_extension_legal(self.base, position, lm, self.kind.structural)
        return loose_extension_legal(self.base, position, lm, self.kind.structural)

    def winner(self, run: Run) -> Player:
        """Winner of a legal run: the base winner of the decisive projection.

        The decisive branch is the last switch made by the structural
        player, padded with zeros forever; with no switches it is the
        all-zero branch.  A finite run always has finitely many switches,
        so the endless-switching outcome (a loss for the switching player)
        can never arise here and the winner never consults switch counts.
        """
        stem = last_switch_stem(run, self.kind.structural)
        return self.base.winner(project(run, Ray(stem)))

    def legal_moves(self, position: Run, player: Player, bounds: EnumBounds) -> frozenset[str]:
        limit = bounds.max_address_len
        candidates: set[str] = set()
        if self.kind.version is Version.TIGHT:
            tree = actual_nodes(position, self.kind.structural)
            addresses = sorted(w for w in tree.nodes() if len(w) <= limit)
            if player is self.kind.structural:
                candidates.update(addresses)
                candidates.update(
                    w + ":" for w in tree.outer() if len(w) <= limit
                )
        else:
            addresses = _all_stems(limit)
            if player is self.kind.structural:
                candidates.update(addresses)
        for w in addresses:
            payloads: set[str] = set()
            for ray in ray_classes(position, w):
                payloads |= self.base.legal_moves(project(position, ray), player, bounds)
            candidates.update(f"{w}.{a}" for a in payloads)
        return frozenset(
            m for m in candidates if self.extend_legal(position, LabMove(player, m))
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
