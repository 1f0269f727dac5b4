"""File formats: game definition files and trace files.

Both formats are JSON rendered canonically (sorted keys, two-space
indent, trailing newline), so serialization is byte-reproducible and
parse/serialize round-trips are exact.  Move strings are always JSON
strings, which keeps the empty move representable without sentinels.

Game definitions map names to finite game trees::

    {"mygame": {"winner": "T",
                "moves": [{"label": "B", "move": "b",
                           "child": {"winner": "B"}}]}}

Trace files carry a header (game expression, seed, bounds, tool
version), the recorded moves as ["T"|"B", move] pairs, the outcome, the
first offender if any, and a truncation flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .core import LabMove, Player, Run
from .games import EnumBounds, FiniteGame, GameNode, Offender

_PLAYERS = {"T": Player.TOP, "B": Player.BOT}

# Deepest game tree a definitions file may hold, in moves from the root.
# Each level is three levels of JSON nesting, so a file at the cap stays
# well inside what ``json.loads`` and the recursive readers can take.
MAX_TREE_DEPTH = 200


class FileFormatError(ValueError):
    """Malformed game-definition or trace file."""


def _require(obj: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in obj:
        raise FileFormatError(f"{context}: missing {key!r}")
    return obj[key]


def _nonneg_int(obj: Mapping[str, Any], key: str, context: str) -> int:
    value = _require(obj, key, context)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FileFormatError(f"{context}: {key} must be a non-negative integer, got {value!r}")
    return value


def _string(obj: Mapping[str, Any], key: str, context: str) -> str:
    value = _require(obj, key, context)
    if not isinstance(value, str):
        raise FileFormatError(f"{context}: {key} must be a string, got {value!r}")
    return value


def _player(tag: Any, context: str) -> Player:
    if not isinstance(tag, str) or tag not in _PLAYERS:
        raise FileFormatError(f"{context}: label must be 'T' or 'B', got {tag!r}")
    return _PLAYERS[tag]


def _loads_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError("JSON nested too deeply to read") from exc


def _node_from_obj(obj: Any, context: str, depth: int = 0) -> GameNode:
    if depth > MAX_TREE_DEPTH:
        name = context.split(".moves[", 1)[0]
        raise FileFormatError(f"{name}: game tree deeper than {MAX_TREE_DEPTH} moves")
    if not isinstance(obj, dict):
        raise FileFormatError(f"{context}: node must be an object")
    winner = _player(_require(obj, "winner", context), context)
    moves = obj.get("moves", [])
    if not isinstance(moves, list):
        raise FileFormatError(f"{context}: moves must be a list of edges")
    edges = []
    for i, edge in enumerate(moves):
        edge_context = f"{context}.moves[{i}]"
        if not isinstance(edge, dict):
            raise FileFormatError(f"{edge_context}: edge must be an object")
        label = _player(_require(edge, "label", edge_context), edge_context)
        move = _require(edge, "move", edge_context)
        if not isinstance(move, str):
            raise FileFormatError(f"{edge_context}: move must be a string")
        child = _node_from_obj(_require(edge, "child", edge_context), edge_context, depth + 1)
        edges.append((LabMove(label, move), child))
    try:
        return GameNode(winner, tuple(edges))
    except ValueError as exc:
        raise FileFormatError(f"{context}: {exc}") from exc


def _node_to_obj(node: GameNode) -> dict[str, Any]:
    obj: dict[str, Any] = {"winner": node.winner.value}
    if node.edges:
        obj["moves"] = [
            {"label": edge.label.value, "move": edge.move, "child": _node_to_obj(child)}
            for edge, child in node.edges
        ]
    return obj


def load_game_defs(text: str) -> dict[str, FiniteGame]:
    raw = _loads_json(text)
    if not isinstance(raw, dict):
        raise FileFormatError("definitions file must map names to game trees")
    return {
        name: FiniteGame(name, _node_from_obj(tree, name)) for name, tree in raw.items()
    }


def dump_game_defs(defs: Mapping[str, FiniteGame]) -> str:
    payload = {name: _node_to_obj(game.root) for name, game in defs.items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class TraceFile:
    """On-disk form of a recorded interaction."""

    game: str
    version: str
    seed: int | None
    bounds: EnumBounds | None
    moves: Run
    outcome: Player
    offender: Offender | None
    truncated: bool = False


def dumps_trace(tf: TraceFile) -> str:
    payload: dict[str, Any] = {
        "game": tf.game,
        "version": tf.version,
        "seed": tf.seed,
        "bounds": None
        if tf.bounds is None
        else {
            "max_address_len": tf.bounds.max_address_len,
            "max_run_len": tf.bounds.max_run_len,
        },
        "moves": [[lm.label.value, lm.move] for lm in tf.moves],
        "outcome": tf.outcome.value,
        "offender": None
        if tf.offender is None
        else {"index": tf.offender.index, "player": tf.offender.culprit.value},
        "truncated": tf.truncated,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def loads_trace(text: str) -> TraceFile:
    raw = _loads_json(text)
    if not isinstance(raw, dict):
        raise FileFormatError("trace file must be an object")
    context = "trace"
    records = _require(raw, "moves", context)
    if not isinstance(records, list):
        raise FileFormatError("moves must be a list of [label, move-string] pairs")
    moves = []
    for i, record in enumerate(records):
        if not (isinstance(record, list) and len(record) == 2 and isinstance(record[1], str)):
            raise FileFormatError(f"moves[{i}]: expected [label, move-string]")
        moves.append(LabMove(_player(record[0], f"moves[{i}]"), record[1]))
    bounds_obj = raw.get("bounds")
    bounds = None
    if bounds_obj is not None:
        if not isinstance(bounds_obj, dict):
            raise FileFormatError("bounds must be an object or null")
        bounds = EnumBounds(
            _nonneg_int(bounds_obj, "max_address_len", "bounds"),
            _nonneg_int(bounds_obj, "max_run_len", "bounds"),
        )
    offender_obj = raw.get("offender")
    off = None
    if offender_obj is not None:
        if not isinstance(offender_obj, dict):
            raise FileFormatError("offender must be an object or null")
        off = Offender(
            _nonneg_int(offender_obj, "index", "offender"),
            _player(_require(offender_obj, "player", "offender"), "offender"),
        )
        if off.index >= len(moves):
            raise FileFormatError(f"offender.index {off.index} is past the last of {len(moves)} moves")
        if off.culprit is not moves[off.index].label:
            raise FileFormatError(f"offender.player is not the label of moves[{off.index}]")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise FileFormatError(f"seed must be an integer or null, got {seed!r}")
    truncated = raw.get("truncated", False)
    if not isinstance(truncated, bool):
        raise FileFormatError(f"truncated must be true or false, got {truncated!r}")
    return TraceFile(
        game=_string(raw, "game", context),
        version=_string(raw, "version", context),
        seed=seed,
        bounds=bounds,
        moves=tuple(moves),
        outcome=_player(_require(raw, "outcome", context), context),
        offender=off,
        truncated=truncated,
    )
