"""Runs, move shapes, rays and projection."""

from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

from colgames import (
    BOT,
    TOP,
    LabMove,
    Player,
    Ray,
    flip_labels,
    label_subsequence,
    neg_player,
    parse_move,
    project,
    ray_classes,
)
from colgames.core import ShapeKind

from _util import all_runs, all_stems, classify_move_brute, project_brute


def lm(label: Player, move: str) -> LabMove:
    return LabMove(label, move)


WORKED_RUN = (
    lm(BOT, "0.b1"),
    lm(TOP, "111.b2"),
    lm(TOP, "01.b2"),
    lm(TOP, "011.b3"),
    lm(BOT, "010.b4"),
)


class TestPlayers:
    def test_negation_values(self):
        assert neg_player(TOP) is BOT
        assert neg_player(BOT) is TOP

    def test_negation_involution(self):
        for p in Player:
            assert neg_player(neg_player(p)) is p

    def test_exactly_two_players(self):
        assert len(list(Player)) == 2


class TestMoveShapes:
    @pytest.mark.parametrize(
        "move,kind,address,payload",
        [
            ("", ShapeKind.SWITCH, "", ""),
            ("0110", ShapeKind.SWITCH, "0110", ""),
            (":", ShapeKind.REPLICATIVE, "", ""),
            ("01:", ShapeKind.REPLICATIVE, "01", ""),
            (".a", ShapeKind.NONREPLICATIVE, "", "a"),
            ("0.", ShapeKind.NONREPLICATIVE, "0", ""),
            ("010.b4", ShapeKind.NONREPLICATIVE, "010", "b4"),
            ("0.0.x", ShapeKind.NONREPLICATIVE, "0", "0.x"),
            ("xyz", ShapeKind.MALFORMED, "", ""),
            ("01x", ShapeKind.MALFORMED, "", ""),
            ("0:junk", ShapeKind.MALFORMED, "", ""),
        ],
    )
    def test_examples(self, move, kind, address, payload):
        sh = parse_move(move)
        assert sh.kind is kind
        assert sh.address == address
        assert sh.payload == payload
        assert parse_move(move) is sh
        if kind is ShapeKind.NONREPLICATIVE:
            for label in (TOP, BOT):
                assert sh.payload_moves[label is BOT] == LabMove(label, payload)
        else:
            assert sh.payload_moves == ()

    @given(st.text(alphabet="01.:abx", max_size=8))
    def test_agrees_with_brute_classifier(self, move):
        sh = parse_move(move)
        kind, address, payload = classify_move_brute(move)
        assert sh.kind.value == kind
        if kind != "malformed":
            assert sh.address == address
        if kind == "nonreplicative":
            assert sh.payload == payload


class TestRay:
    def test_equality_ignores_trailing_zeros(self):
        assert Ray("0100") == Ray("01")
        assert Ray("") == Ray("000")
        assert Ray("01") != Ray("1")
        assert hash(Ray("0100")) == hash(Ray("01"))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Ray("01a")

    def test_admits(self):
        ray = Ray("0100")
        assert ray.admits("")
        assert ray.admits("0")
        assert ray.admits("01")
        assert ray.admits("010000")
        assert not ray.admits("011")
        assert not ray.admits("1")
        assert not ray.admits("01001")


class TestProjection:
    def test_worked_example(self):
        assert project(WORKED_RUN, Ray("0100")) == (
            lm(BOT, "b1"),
            lm(TOP, "b2"),
            lm(BOT, "b4"),
        )

    def test_empty_run(self):
        assert project((), Ray("0101")) == ()

    def test_switch_moves_are_dropped(self):
        # A bare bitstring is not an addressed move, so projection along
        # the matching ray still drops it; the brute classifier agrees.
        run = (lm(BOT, "01"),)
        assert classify_move_brute("01")[0] == "switch"
        assert project(run, Ray("01")) == ()

    def test_matches_brute_projection_on_small_runs(self):
        pool = ["0.a", "1", ".b", ":", "01.c", "x"]
        for run in all_runs(pool, 3):
            for stem in all_stems(3):
                assert project(run, Ray(stem)) == project_brute(run, stem)

    def test_ray_equality_well_defined(self):
        pool = ["0.a", "1.b"]
        for run in all_runs(pool, 3):
            for stem in all_stems(3):
                assert project(run, Ray(stem)) == project(run, Ray(stem + "0"))

    def test_distributes_over_concatenation_small(self):
        pool = ["0.a", "1.b"]
        runs = list(all_runs(pool, 4))
        for run in runs:
            for stem in all_stems(3):
                ray = Ray(stem)
                full = project(run, ray)
                for cut in range(len(run) + 1):
                    assert project(run[:cut], ray) + project(run[cut:], ray) == full

    def test_preserves_order_and_labels(self):
        ray = Ray("0")
        projected = project(WORKED_RUN, ray)
        kept = [x for x in WORKED_RUN if parse_move(x.move).address in ("", "0")]
        assert [x.label for x in projected] == [x.label for x in kept]


class TestSubsequences:
    def test_label_subsequence(self):
        run = (lm(TOP, "a"), lm(BOT, "b"), lm(TOP, "c"))
        assert label_subsequence(run, TOP) == (lm(TOP, "a"), lm(TOP, "c"))
        assert label_subsequence((), BOT) == ()
        assert label_subsequence((lm(BOT, "x"), lm(BOT, "y")), TOP) == ()

    def test_flip_labels_involution(self):
        run = (lm(TOP, "a"), lm(BOT, "b"))
        assert flip_labels(flip_labels(run)) == run
        assert flip_labels(run)[0].label is BOT


class TestParseCache:
    def test_distinct_moves_past_the_bound_leave_the_cache_at_it(self):
        bound = parse_move.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 100):
            parse_move(f"{i:b}.x")
        assert parse_move.cache_info().currsize == bound


def _stem_lengths(run) -> set[int]:
    return {len(r.stem) for r in ray_classes(run, "")}


class TestRayClassDepth:
    """Ray stems are one bit longer than the run's longest address."""

    def test_examples(self):
        assert _stem_lengths((lm(BOT, "0.b"), lm(TOP, "111.b"))) == {4}
        assert _stem_lengths(()) == {1}
        assert _stem_lengths((lm(TOP, ".a"),)) == {1}

    def test_counts_all_three_shapes_but_not_malformed(self):
        assert _stem_lengths((lm(BOT, "01"),)) == {3}
        assert _stem_lengths((lm(BOT, "011:"),)) == {4}
        assert _stem_lengths((lm(BOT, "0101x"),)) == {1}


class TestRayClasses:
    def test_empty_run(self):
        assert ray_classes((), "") == {Ray("0"), Ray("1")}

    def test_single_address(self):
        rays = ray_classes((lm(TOP, "0.a"),), "")
        assert rays == {Ray("00"), Ray("01"), Ray("10"), Ray("11")}
        assert len(rays) == 4

    def test_rejects_bad_below(self):
        with pytest.raises(ValueError):
            ray_classes((), "2")

    def test_worked_run_classes_cover_all_projections(self):
        # The class representatives hit exactly the projections reachable
        # along any stem up to twice the longest address.
        via_classes = {project(WORKED_RUN, r) for r in ray_classes(WORKED_RUN, "")}
        via_all_stems = {project(WORKED_RUN, Ray(s)) for s in all_stems(8)}
        assert via_classes == via_all_stems

    def test_soundness_on_small_runs(self):
        pool = ["0.a", "10.b", "1"]
        bound = 2  # the pool's longest address
        for run in all_runs(pool, 3, labels=(BOT,)):
            classes = ray_classes(run, "")
            class_projections = {project(run, r) for r in classes}
            for stem in all_stems(bound + 4):
                assert project(run, Ray(stem)) in class_projections

    def test_soundness_below_prefix(self):
        run = (lm(TOP, "0.a"), lm(BOT, "01.b"), lm(BOT, "11.c"))
        bound = 2  # the run's longest address
        classes = ray_classes(run, "0")
        class_projections = {project(run, r) for r in classes}
        for stem in all_stems(bound + 4):
            assert project(run, Ray("0" + stem)) in class_projections
