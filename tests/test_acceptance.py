"""Acceptance suite: one test per criterion, one printed verdict line each.

All checks are exact (symbolic domain, zero tolerance).  Run with ``-s``
to see the verdict lines while the suite runs.
"""

from __future__ import annotations

import subprocess
import sys
from collections import defaultdict

from colgames import (
    BOT,
    TOP,
    Direction,
    EnumBounds,
    LabMove,
    Ray,
    is_delay,
    is_static,
    label_subsequence,
    make_recurrence,
    neg_player,
    negate,
    project,
    verify_static_preservation,
    verify_translation,
)
from colgames import sim
from colgames.recurrence import (
    LOOSE_CORECURRENCE,
    LOOSE_RECURRENCE,
    TIGHT_CORECURRENCE,
    TIGHT_RECURRENCE,
)
from colgames.suite import STATIC_SUITE, TRANSLATION_SUITE

from _util import BrokenRemapStrategy, all_runs, all_stems, first_difference, probe_pool


def _report(capsys, number: int, ok: bool, description: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {number}] {verdict}: {description}")


def test_criterion_1_projection_golden_and_distribution(capsys):
    golden_run = (
        LabMove(BOT, "0.b1"),
        LabMove(TOP, "111.b2"),
        LabMove(TOP, "01.b2"),
        LabMove(TOP, "011.b3"),
        LabMove(BOT, "010.b4"),
    )
    golden_ok = project(golden_run, Ray("0100")) == (
        LabMove(BOT, "b1"),
        LabMove(TOP, "b2"),
        LabMove(BOT, "b4"),
    )

    # distribution over concatenation: all runs of length <= 6 over the
    # two-letter base alphabet {a, b} (carried at addresses 0 and 1, so
    # rays both keep and drop moves), all stems of length <= 4, all cuts
    pool = ["0.a", "1.b"]
    stems = list(all_stems(4))
    projections = {}
    runs = list(all_runs(pool, 6))
    for run in runs:
        for stem in stems:
            projections[(run, stem)] = project(run, Ray(stem))
    distribution_ok = True
    for run in runs:
        for stem in stems:
            whole = projections[(run, stem)]
            for cut in range(len(run) + 1):
                if projections[(run[:cut], stem)] + projections[(run[cut:], stem)] != whole:
                    distribution_ok = False
    ok = golden_ok and distribution_ok
    _report(capsys, 1, ok, "projection golden example and concatenation distribution")
    assert golden_ok
    assert distribution_ok


def test_criterion_2_delay_symmetry(capsys):
    runs = list(all_runs(["a", "b"], 5))
    groups = defaultdict(list)
    for run in runs:
        groups[(label_subsequence(run, TOP), label_subsequence(run, BOT))].append(run)
    violations = 0
    checked = 0
    for group in groups.values():
        for pi in group:
            for sigma in group:
                for p in (TOP, BOT):
                    if is_delay(pi, sigma, p):
                        checked += 1
                        if not is_delay(sigma, pi, neg_player(p)):
                            violations += 1
    ok = violations == 0 and checked > len(runs)  # more than just reflexive pairs
    _report(capsys, 2, ok, f"delay symmetry over {checked} delay pairs, runs <= 5")
    assert violations == 0
    assert checked > len(runs)


def test_criterion_3_static_preservation(capsys):
    bounds = EnumBounds(max_address_len=2, max_run_len=6)
    assert len(STATIC_SUITE) >= 3
    base_verdicts = [
        is_static(base, bounds) for base in STATIC_SUITE
    ]
    bases_ok = all(v.static for v in base_verdicts)
    failures = []
    for base in STATIC_SUITE:
        report = verify_static_preservation(base, bounds)
        failures.extend(report.failures)
    ok = bases_ok and not failures
    _report(
        capsys, 3, ok,
        f"static preservation + illegality lemma, {len(STATIC_SUITE)} bases x 4 kinds",
    )
    assert bases_ok
    assert failures == []


def test_criterion_4_translation_both_directions(capsys):
    bounds = EnumBounds(max_address_len=2, max_run_len=64)
    total_adversaries = 0
    failures = []
    for base in TRANSLATION_SUITE:
        for direction in Direction:
            report = verify_translation(base, direction, bounds, budget=3, max_steps=64)
            total_adversaries += report.adversaries
            failures.extend(report.failures)
    ok = not failures and total_adversaries > 0
    _report(
        capsys, 4, ok,
        f"translation strategies beat {total_adversaries} exhaustive adversaries, "
        "identities and map invariants included",
    )
    assert failures == []


def test_criterion_5_de_morgan_duality(capsys):
    bad = None
    for base in STATIC_SUITE:
        for co_kind, rec_kind in (
            (TIGHT_CORECURRENCE, TIGHT_RECURRENCE),
            (LOOSE_CORECURRENCE, LOOSE_RECURRENCE),
        ):
            left = make_recurrence(base, co_kind)
            right = negate(make_recurrence(negate(base), rec_kind))
            bounds = EnumBounds(2, 4)
            pool = sorted(set(probe_pool(left, bounds)) | set(probe_pool(right, bounds)))
            difference = first_difference(left, right, pool, 4)
            if difference is not None:
                bad = (base.name, co_kind, difference)
    ok = bad is None
    _report(capsys, 5, ok, "corecurrence = negated recurrence of negation, runs <= 4")
    assert bad is None, bad


def test_criterion_6_harness_sensitivity(capsys, monkeypatch):
    # verify_translation runs whole, with the corrupted routine as the direction's machine
    monkeypatch.setattr(sim, "strategy_for", lambda compound, direction: BrokenRemapStrategy())
    bounds = EnumBounds(max_address_len=2, max_run_len=64)
    failures = 0
    for base in TRANSLATION_SUITE:
        report = verify_translation(base, Direction.LOOSE_TO_TIGHT, bounds, budget=3)
        failures += len(report.failures)
    ok = failures == 792
    _report(
        capsys, 6, ok,
        f"corrupted replication handling caught ({failures} failures reported)",
    )
    assert failures == 792


def test_criterion_7_trace_determinism(capsys, tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        result = subprocess.run(
            [
                sys.executable, "-m", "colgames.cli",
                "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
                "--adversary", "random", "--seed", "42", "--budget", "3",
                "--out", str(path),
            ],
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(capsys, 7, ok, "seeded simulate runs produce byte-identical trace files")
    assert ok
