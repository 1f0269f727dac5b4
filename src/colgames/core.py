"""Players, labeled runs, move addressing, and the run projection operator.

A run is a finite sequence of labeled moves.  Moves are plain strings; at
this layer a move decomposes into a leading bitstring address followed by
one of three tails:

* nothing           -- a bare address ("switch" shape),
* a final ``:``     -- a replication request at that address,
* ``.`` + payload   -- a move addressed into the bitstring tree; the
                       payload is opaque here and may itself contain dots
                       and bits (which is what makes nesting work).

Anything else is malformed.  The address is read with maximal munch: the
longest leading run of ``0``/``1`` characters.

Infinite bitstrings are represented by :class:`Ray` values: a finite stem
denoting the stem followed by infinitely many zeros.  Every projection of
a finite run along an arbitrary infinite bitstring coincides with its
projection along one of finitely many such rays (see :func:`ray_classes`).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass


class Player(enum.Enum):
    """The two players: TOP is the machine, BOT the environment."""

    TOP = "T"
    BOT = "B"

    def __repr__(self) -> str:  # keeps runs readable in test output
        return self.name


TOP = Player.TOP
BOT = Player.BOT


def neg_player(p: Player) -> Player:
    """The adversary of ``p``; an involution."""
    return BOT if p is TOP else TOP


@dataclass(frozen=True, slots=True)
class LabMove:
    """A move together with the player who made it."""

    label: Player
    move: str


Run = tuple[LabMove, ...]


def flip_labels(run: Run) -> Run:
    """The same moves with every label replaced by its adversary."""
    return tuple(LabMove(neg_player(lm.label), lm.move) for lm in run)


def label_subsequence(run: Run, p: Player) -> Run:
    """The subsequence of moves labeled ``p``, order preserved."""
    return tuple(lm for lm in run if lm.label is p)


class ShapeKind(enum.Enum):
    SWITCH = "switch"
    REPLICATIVE = "replicative"
    NONREPLICATIVE = "nonreplicative"
    MALFORMED = "malformed"


@dataclass(frozen=True, slots=True)
class MoveShape:
    """Result of decomposing a move string.

    ``address`` is the leading bitstring (empty for malformed moves);
    ``payload`` is only meaningful for NONREPLICATIVE shapes.
    """

    kind: ShapeKind
    address: str = ""
    payload: str = ""


@functools.lru_cache(maxsize=None)
def parse_move(move: str) -> MoveShape:
    """Classify a move string into one of the three shapes, or malformed.

    The classification is deterministic: the address is the maximal
    leading run of bits, and the first non-bit character (if any) decides
    the shape.
    """
    i = 0
    while i < len(move) and move[i] in "01":
        i += 1
    address, rest = move[:i], move[i:]
    if not rest:
        return MoveShape(ShapeKind.SWITCH, address)
    if rest == ":":
        return MoveShape(ShapeKind.REPLICATIVE, address)
    if rest[0] == ".":
        return MoveShape(ShapeKind.NONREPLICATIVE, address, rest[1:])
    return MoveShape(ShapeKind.MALFORMED)


def is_bitstring(s: str) -> bool:
    return all(c in "01" for c in s)


class Ray:
    """A finite stem denoting the infinite bitstring stem + 000...

    Two rays are equal iff their stems agree after stripping trailing
    zeros, since both then denote the same infinite string.
    """

    __slots__ = ("stem",)

    def __init__(self, stem: str) -> None:
        if not is_bitstring(stem):
            raise ValueError(f"ray stem must be a bitstring, got {stem!r}")
        self.stem = stem

    @property
    def normal_stem(self) -> str:
        return self.stem.rstrip("0")

    def admits(self, address: str) -> bool:
        """True iff ``address`` is an initial segment of stem + 000..."""
        s = self.stem
        if len(address) <= len(s):
            return s.startswith(address)
        return address.startswith(s) and set(address[len(s):]) <= {"0"}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ray) and self.normal_stem == other.normal_stem

    def __hash__(self) -> int:
        return hash(self.normal_stem)

    def __repr__(self) -> str:
        return f"Ray({self.stem!r})"


def project(run: Run, ray: Ray) -> Run:
    """Restrict a run to the moves addressed along ``ray``.

    Keeps exactly the moves of shape ``u.payload`` whose address ``u`` is
    an initial segment of the ray, rewritten to their payload with labels
    preserved.  Bare addresses, replication requests and malformed moves
    are dropped.
    """
    out = []
    for lm in run:
        sh = parse_move(lm.move)
        if sh.kind is ShapeKind.NONREPLICATIVE and ray.admits(sh.address):
            out.append(LabMove(lm.label, sh.payload))
    return tuple(out)


def max_address_length(run: Run) -> int:
    """Longest address carried by any well-shaped move of the run."""
    best = 0
    for lm in run:
        sh = parse_move(lm.move)
        if sh.kind is not ShapeKind.MALFORMED:
            best = max(best, len(sh.address))
    return best


def ray_classes(run: Run, below: str = "") -> frozenset[Ray]:
    """A finite set of rays meeting every projection class below ``below``.

    Two infinite extensions of ``below`` project ``run`` identically iff
    they agree on which of the run's addresses are their prefixes, and all
    addresses have length at most ``max_address_length(run)``.  Stems one
    bit longer than that bound therefore separate every class, and each
    class contains the eventually-zero representative returned here.
    """
    if not is_bitstring(below):
        raise ValueError(f"'below' must be a bitstring, got {below!r}")
    depth = max_address_length(run) + 1
    return frozenset(
        Ray(below + "".join(bits)) for bits in itertools.product("01", repeat=depth)
    )


def format_run(run: Run) -> str:
    """Render a run as e.g. ``<B"0.b1", T"b2">``; empty run is ``<>``."""
    return "<" + ", ".join(f'{lm.label.value}"{lm.move}"' for lm in run) + ">"
