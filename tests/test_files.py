"""Game definition and trace file formats."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from colgames import BOT, TOP, EnumBounds, LabMove, Offender
from colgames.files import (
    MAX_TREE_DEPTH,
    FileFormatError,
    TraceFile,
    dump_game_defs,
    dumps_trace,
    load_game_defs,
    loads_trace,
)
from colgames.suite import suite_defs

from _util import all_runs, chain_defs

moves_strategy = st.lists(
    st.tuples(st.sampled_from([TOP, BOT]), st.text(alphabet="01.:ab", max_size=6)),
    max_size=8,
).map(lambda pairs: tuple(LabMove(p, m) for p, m in pairs))


def offenders_of(moves):
    """No offender, or one of the run's own moves with its label."""
    if not moves:
        return st.none()
    return st.none() | st.integers(0, len(moves) - 1).map(lambda i: Offender(i, moves[i].label))


trace_files = moves_strategy.flatmap(
    lambda moves: st.builds(
        TraceFile,
        game=st.sampled_from(["A", "or(cbr_t(not(A)), tbr_l(A))"]),
        version=st.just("0.1.0"),
        seed=st.one_of(st.none(), st.integers(0, 2**31)),
        bounds=st.one_of(st.none(), st.builds(EnumBounds, st.integers(0, 4), st.integers(0, 9))),
        moves=st.just(moves),
        outcome=st.sampled_from([TOP, BOT]),
        offender=offenders_of(moves),
        truncated=st.booleans(),
    )
)


class TestGameDefs:
    def test_round_trip_preserves_behavior(self):
        defs = suite_defs()
        reloaded = load_game_defs(dump_game_defs(defs))
        assert set(reloaded) == set(defs)
        for name in defs:
            original = defs[name]
            copy = reloaded[name]
            pool = original.probe_moves(EnumBounds(2, 3))
            for run in all_runs(pool, 3):
                assert original.is_legal(run) == copy.is_legal(run)
                if original.is_legal(run):
                    assert original.winner(run) == copy.winner(run)

    def test_duplicate_edges_rejected(self):
        text = """
        {"bad": {"winner": "T", "moves": [
            {"label": "B", "move": "m", "child": {"winner": "T"}},
            {"label": "B", "move": "m", "child": {"winner": "B"}}
        ]}}
        """
        with pytest.raises(FileFormatError):
            load_game_defs(text)

    def test_bad_winner_tag(self):
        with pytest.raises(FileFormatError):
            load_game_defs('{"bad": {"winner": "X"}}')

    def test_missing_child(self):
        with pytest.raises(FileFormatError):
            load_game_defs('{"bad": {"winner": "T", "moves": [{"label": "B", "move": "m"}]}}')

    def test_not_json(self):
        with pytest.raises(FileFormatError):
            load_game_defs("not json at all")

    def test_tree_at_the_depth_cap_loads(self):
        game = load_game_defs(chain_defs(MAX_TREE_DEPTH))["deep"]
        run = tuple(LabMove(BOT, "m") for _ in range(MAX_TREE_DEPTH))
        assert game.is_legal(run)

    @pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 1200])
    def test_tree_past_the_depth_cap_is_a_format_error(self, depth):
        # 1200 levels are past what json.loads itself can nest
        with pytest.raises(FileFormatError):
            load_game_defs(chain_defs(depth))


class TestTraceFiles:
    @given(trace_files)
    def test_round_trip_identity(self, tf):
        assert loads_trace(dumps_trace(tf)) == tf

    @given(trace_files)
    def test_serialization_is_canonical(self, tf):
        text = dumps_trace(tf)
        assert dumps_trace(loads_trace(text)) == text

    def test_empty_move_is_representable(self):
        tf = TraceFile(
            game="tbr_t(leaf_top)",
            version="0.1.0",
            seed=None,
            bounds=None,
            moves=(LabMove(BOT, ""),),
            outcome=TOP,
            offender=None,
        )
        assert loads_trace(dumps_trace(tf)).moves == (LabMove(BOT, ""),)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("bounds.max_address_len", "x"),
            ("bounds.max_address_len", True),
            ("bounds.max_address_len", -1),
            ("bounds.max_run_len", 2.5),
            ("bounds.max_run_len", False),
            ("offender.index", "0"),
            ("offender.index", True),
            ("offender.index", -1),
            ("offender.index", 1),
            ("offender.player", "T"),
            ("game", 7),
            ("version", None),
            ("truncated", "no"),
            ("truncated", 0),
            ("seed", True),
        ],
    )
    def test_rejects_mistyped_fields(self, path, value):
        raw = {
            "game": "A",
            "version": "0.1.0",
            "seed": None,
            "bounds": {"max_address_len": 2, "max_run_len": 5},
            "moves": [["B", "b"]],
            "outcome": "T",
            "offender": {"index": 0, "player": "B"},
            "truncated": False,
        }
        loads_trace(json.dumps(raw))  # the unmodified file is accepted
        *parents, key = path.split(".")
        target = raw
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(FileFormatError):
            loads_trace(json.dumps(raw))

    def test_deep_json_is_a_format_error(self):
        with pytest.raises(FileFormatError):
            loads_trace('{"moves": ' + "[" * 5000 + "]" * 5000 + "}")

    def test_rejects_malformed_records(self):
        with pytest.raises(FileFormatError):
            loads_trace('{"game": "A", "version": "0", "moves": [["T"]], "outcome": "T"}')
        with pytest.raises(FileFormatError):
            loads_trace('{"game": "A", "version": "0", "moves": [], "outcome": "Q"}')


# JSON documents of any shape whose object keys are mostly the field names
# of the two formats, so that random values reach the nested readers.
_FIELDS = ("winner", "moves", "label", "move", "child", "game", "version", "seed",
           "bounds", "max_address_len", "max_run_len", "outcome", "offender",
           "index", "player", "truncated")
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["T", "B", "", "a", "0:"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=2), children, max_size=5),
    max_leaves=16,
)


def _with_value_at(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (keys and indices) replaced."""
    if not path:
        return value
    head, *rest = path
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[head] = _with_value_at(doc[head], rest, value)
    return copy


def _paths(doc, prefix=()):
    """The path of every value in ``doc``, ``doc`` itself first."""
    yield prefix
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_VALID_DOCUMENTS = (
    json.loads(dump_game_defs(suite_defs())),
    {"game": "A", "version": "0.1.0", "seed": 3,
     "bounds": {"max_address_len": 2, "max_run_len": 5},
     "moves": [["B", "b"], ["T", "a"]], "outcome": "T",
     "offender": {"index": 0, "player": "B"}, "truncated": False},
)


@st.composite
def mutated_documents(draw):
    """A valid definitions or trace document with one value replaced."""
    doc = draw(st.sampled_from(_VALID_DOCUMENTS))
    path = draw(st.sampled_from(list(_paths(doc))))
    return _with_value_at(doc, path, draw(json_documents))


class TestAnyJson:
    """Whatever JSON document a file holds, each loader returns or raises
    FileFormatError, never another exception."""

    @settings(max_examples=300)
    @given(json_documents | mutated_documents())
    def test_loads_or_is_a_format_error(self, doc):
        text = json.dumps(doc)
        for load in (load_game_defs, loads_trace):
            try:
                load(text)
            except FileFormatError:
                pass
