"""The colgames benchmark: one workload per call, each in fresh processes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--blocks N]

``--trace 0`` sets the workload up several times in fresh processes (for
``setup_s``, in CPU time), then measures it untraced: one caller, each
item started when the previous one has finished, in whole passes over the
same items until ``--seconds`` have passed and the workload's minimum
number of passes is done.  Each timed metric is the median over the passes
of that pass's value.  Set-ups are spread before and after the measuring
process.  All times are CPU times rescaled to a fixed speed of a reference
loop (see worker.py); set-up times by the mean rescaling of the run.  The
raw times are in the context line.
``--trace 1`` runs the workload's fixed traced batch once with every layer
wrapped, then once untraced, and reports the per-layer numbers.
``--blocks N`` keeps only the first N blocks of a pass or batch.  Every
item's verdict is checked against the expected answer on every pass.

Lines before the last describe the run (inputs, context, each metric
with its unit); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 when the
checkout holds no colgames sources, and 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src" / "colgames"
WORKLOADS = ("static_refute", "translation_exhaustive")
SETUP_REPEATS = 9
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[float, dict | None]:
    """Start one worker; return its set-up CPU seconds and its result line."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker did not finish in time")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise WorkerError(f"worker exited with code {proc.returncode}")
    setup = float(lines[0].split()[1])
    return setup, (json.loads(lines[-1]) if len(lines) > 1 else None)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def source_context() -> dict:
    files = sorted(SOURCES.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest(), "src_lines": lines}


def end_to_end(args, deadline) -> tuple[dict, dict, dict]:
    before = SETUP_REPEATS // 2
    setups = [run_worker(args, deadline, "--setup-only")[0] for _ in range(before)]
    setup, result = run_worker(args, deadline, *_blocks(args))
    setups.append(setup)
    setups += [run_worker(args, deadline, "--setup-only")[0]
               for _ in range(SETUP_REPEATS - 1 - before)]
    passes = result["passes"]
    items = [sorted(p["items"]) for p in passes]
    # The host's speed over the run, as the reference loop measured it.
    speed = sum(p["seconds"] for p in passes) / sum(p["raw_seconds"] for p in passes)
    result["raw_setups_s"] = setups
    metrics = {
        "setup_s": statistics.median(setups) * speed,
        "work_per_s": statistics.median(p["work"] / p["seconds"] for p in passes),
        "item_p50_ms": statistics.median(statistics.median(i) for i in items) * 1e3,
        "item_p99_ms": statistics.median(percentile(i, 0.99) for i in items) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    over = f"median over {len(passes)} passes of {len(items[0])} items each"
    notes = {"setup_s": f"median of {len(setups)} set-ups, rescaled by {speed:.3f}", "work_per_s": over,
             "item_p50_ms": over, "item_p99_ms": f"nearest rank, {over}"}
    return result, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(args, deadline) -> tuple[dict, dict, dict]:
    _, traced = run_worker(args, deadline, "--trace", *_blocks(args))
    _, plain = run_worker(args, deadline, "--batch", *_blocks(args))
    traced_s, plain_s = traced["passes"][0]["seconds"], plain["passes"][0]["seconds"]
    layers = dict(traced["layers"], **{"trace.overhead_ratio": traced_s / plain_s})
    metrics = {k: (v, _unit(k)) for k, v in sorted(layers.items())}
    return traced, metrics, {"trace.overhead_ratio": f"{traced_s:.2f} s traced, {plain_s:.2f} s not"}


def _blocks(args) -> list[str]:
    return ["--blocks", str(args.blocks)] if args.blocks is not None else []


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, help="keep only the first N blocks of a pass")
    args = parser.parse_args()
    if not (SOURCES / "__init__.py").is_file():
        print(f"run.py: no colgames sources under {SOURCES}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        result, metrics, notes = measure(args, deadline)
    except WorkerError as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    passes = result.pop("passes")
    result.pop("layers", None)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, **source_context(), "passes": len(passes),
               "items_per_pass": len(passes[0]["items"]),
               "work_per_pass": passes[0]["work"], "items_s": sum(p["seconds"] for p in passes),
               "raw_pass_s": [p["raw_seconds"] for p in passes],
               "block_seconds": passes[0]["block_seconds"],
               "failed_share": failed / attempted, **result}
    print("context " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_share = {failed / attempted:.6g}  ({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
