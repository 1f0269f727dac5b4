"""Tests of the benchmark itself, at a size of one block per workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, blocks: int = 1, attempt: int = 0) -> tuple[dict, dict]:
    """The context and the result line of a run of the first blocks."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--blocks", str(blocks)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    context = json.loads(next(line for line in out if line.startswith("context "))[8:])
    return context, json.loads(out[-1])


def self_share(context: dict, prefix: str) -> float:
    """Self time of the spans named ``prefix...`` over all item time."""
    return sum(s[4] for s in context["spans"] if s[0].startswith(prefix)) / context["items_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_and_verdicts_hold(workload, trace, kind):
    _, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1, attempt=1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert [first[1]["metrics"][c] for c in counts] == [second[1]["metrics"][c] for c in counts]
    assert [s[:3] for s in first[0]["spans"]] == [s[:3] for s in second[0]["spans"]]


# The traced batch of translation_exhaustive up to its budget-4 run: the
# 8 budget-3 problems, then the 8 blocks of random plays.
PROBLEMS, PLAY_BLOCKS = 8, 8


def test_dominant_layers_match_the_predictions():
    refute, _ = bench("static_refute", 1)
    assert self_share(refute, "delay.") > 0.5
    translation, _ = bench("translation_exhaustive", 1, blocks=PROBLEMS + PLAY_BLOCKS)
    assert sum(self_share(translation, layer) for layer in ("games.", "recurrence.", "core.")) > 0.5
    assert self_share(translation, "delay.") < 0.05
    # In the random plays, legal_moves is called by the random adversary.
    plays_s = sum(translation["block_seconds"][PROBLEMS:])
    in_legal_moves = sum(s[3] for s in translation["spans"]
                         if s[0] == "recurrence.legal_moves" and s[1] == "strategy.react.random")
    assert in_legal_moves / plays_s > 0.5


def test_every_patched_layer_is_reached():
    seen = {s[0] for s in bench("static_refute", 1)[0]["spans"]}
    seen |= {s[0] for s in bench("translation_exhaustive", 1, blocks=PROBLEMS + PLAY_BLOCKS)[0]["spans"]}
    assert {name.split(".")[0] for name in seen} >= {
        "core", "games", "recurrence", "delay", "strategy", "sim", "dsl", "files"}


def test_without_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""
