"""Game-expression DSL: parsing, printing, and elaboration to games.

Grammar (whitespace-insensitive)::

    expr := NAME
          | "not(" expr ")"
          | "or(" expr "," expr ")"
          | "tbr_t(" expr ")" | "tbr_l(" expr ")"
          | "cbr_t(" expr ")" | "cbr_l(" expr ")"

``tbr_*`` are the recurrences (environment switches), ``cbr_*`` the
corecurrences (machine switches); ``_t``/``_l`` pick the tight or loose
version.  Atom names resolve against a definitions mapping of games at
elaboration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .games import Game, disjoin, negate
from .recurrence import (
    LOOSE_CORECURRENCE,
    LOOSE_RECURRENCE,
    TIGHT_CORECURRENCE,
    TIGHT_RECURRENCE,
    RecurrenceKind,
    make_recurrence,
)
from .sim import Direction


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
class TbrT:
    arg: "GameExpr"


@dataclass(frozen=True)
class TbrL:
    arg: "GameExpr"


@dataclass(frozen=True)
class CbrT:
    arg: "GameExpr"


@dataclass(frozen=True)
class CbrL:
    arg: "GameExpr"


GameExpr = Union[Atom, Not, Or, TbrT, TbrL, CbrT, CbrL]

_UNARY = {"not": Not, "tbr_t": TbrT, "tbr_l": TbrL, "cbr_t": CbrT, "cbr_l": CbrL}
_KIND_OF = {TbrT: TIGHT_RECURRENCE, TbrL: LOOSE_RECURRENCE,
            CbrT: TIGHT_CORECURRENCE, CbrL: LOOSE_CORECURRENCE}


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
            if head in _UNARY:
                arg = self.expr(depth + 1)
                self.expect(")")
                return _UNARY[head](arg)
            raise self.error(f"unknown operator {head!r}")
        return Atom(head)

    def parse(self) -> GameExpr:
        result = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("trailing input")
        return result


def parse_game_expr(text: str) -> GameExpr:
    return _Parser(text).parse()


def format_game_expr(expr: GameExpr) -> str:
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Or):
        return f"or({format_game_expr(expr.left)}, {format_game_expr(expr.right)})"
    for keyword, cls in _UNARY.items():
        if isinstance(expr, cls):
            return f"{keyword}({format_game_expr(expr.arg)})"
    raise TypeError(f"not a game expression: {expr!r}")


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
    kind: RecurrenceKind = _KIND_OF[type(expr)]
    return make_recurrence(elaborate(expr.arg, defs), kind)


def translation_shape(expr: GameExpr) -> tuple[Direction, GameExpr] | None:
    """Recognize the two translation compounds.

    ``or(cbr_t(not(X)), tbr_l(X))`` is the tight-to-loose shape and
    ``or(cbr_l(not(X)), tbr_t(X))`` the loose-to-tight one; returns the
    direction and the shared subexpression X, or None.
    """
    if not isinstance(expr, Or):
        return None
    left, right = expr.left, expr.right
    if (
        isinstance(left, CbrT)
        and isinstance(left.arg, Not)
        and isinstance(right, TbrL)
        and left.arg.arg == right.arg
    ):
        return Direction.TIGHT_TO_LOOSE, right.arg
    if (
        isinstance(left, CbrL)
        and isinstance(left.arg, Not)
        and isinstance(right, TbrT)
        and left.arg.arg == right.arg
    ):
        return Direction.LOOSE_TO_TIGHT, right.arg
    return None
