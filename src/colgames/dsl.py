"""Game-expression DSL: parsing and elaboration to games.

Grammar (whitespace-insensitive)::

    expr := NAME
          | "not(" expr ")"
          | "or(" expr "," expr ")"
          | "tbr_t(" expr ")" | "tbr_l(" expr ")"
          | "cbr_t(" expr ")" | "cbr_l(" expr ")"

``tbr_*`` are the recurrences (environment switches), ``cbr_*`` the
corecurrences (machine switches); ``_t``/``_l`` pick the tight or loose
version.  The four keywords are ``recurrence.OP_NAMES``.  Atom names
resolve against a definitions mapping of games at elaboration time.
There is no printer: when every atom's game is named after the atom, as
in the built-in and loaded definitions, an elaborated game's ``name`` is
the expression text and parses back to the expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .games import Game, disjoin, negate
from .recurrence import OP_NAMES, RecurrenceKind, make_recurrence
from .sim import COMPOUND_KINDS, Direction


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "GameExpr"


@dataclass(frozen=True)
class Or:
    left: "GameExpr"
    right: "GameExpr"


@dataclass(frozen=True)
class Rec:
    """One of the four (co)recurrences of ``arg``."""

    kind: RecurrenceKind
    arg: "GameExpr"


GameExpr = Union[Atom, Not, Or, Rec]

_KIND_NAMED = {name: kind for kind, name in OP_NAMES.items()}
_COMPOUND_DIRECTION = {kinds: direction for direction, kinds in COMPOUND_KINDS.items()}


# Deepest operator nesting an expression may have; the parser and every
# game built from an expression recurse once per level.
MAX_EXPR_DEPTH = 200


class ExprParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class ElaborationError(ValueError):
    """An atom in the expression has no definition."""


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprParseError:
        return ExprParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def expr(self, depth: int = 0) -> GameExpr:
        if depth > MAX_EXPR_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        head = self.name()
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            if head == "or":
                left = self.expr(depth + 1)
                self.expect(",")
                right = self.expr(depth + 1)
                self.expect(")")
                return Or(left, right)
            if head != "not" and head not in _KIND_NAMED:
                raise self.error(f"unknown operator {head!r}")
            arg = self.expr(depth + 1)
            self.expect(")")
            return Not(arg) if head == "not" else Rec(_KIND_NAMED[head], arg)
        return Atom(head)

    def parse(self) -> GameExpr:
        result = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("trailing input")
        return result


def parse_game_expr(text: str) -> GameExpr:
    return _Parser(text).parse()


def elaborate(expr: GameExpr, defs: Mapping[str, Game]) -> Game:
    """Build the game an expression denotes, resolving atoms in ``defs``."""
    if isinstance(expr, Atom):
        if expr.name not in defs:
            raise ElaborationError(f"unknown atom {expr.name!r}")
        return defs[expr.name]
    if isinstance(expr, Not):
        return negate(elaborate(expr.arg, defs))
    if isinstance(expr, Or):
        return disjoin(elaborate(expr.left, defs), elaborate(expr.right, defs))
    return make_recurrence(elaborate(expr.arg, defs), expr.kind)


def translation_shape(expr: GameExpr) -> tuple[Direction, GameExpr] | None:
    """Recognize the two translation compounds ``or(co(not(X)), rec(X))``
    of ``sim.COMPOUND_KINDS``; returns the direction and the shared
    subexpression X, or None."""
    if not (
        isinstance(expr, Or)
        and isinstance(expr.left, Rec)
        and isinstance(expr.right, Rec)
        and expr.left.arg == Not(expr.right.arg)
    ):
        return None
    direction = _COMPOUND_DIRECTION.get((expr.left.kind, expr.right.kind))
    return None if direction is None else (direction, expr.right.arg)
