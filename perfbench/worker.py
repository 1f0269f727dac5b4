"""Run one workload in this process and print its raw result.

Started by run.py, once per measurement, so every workload begins in a
fresh interpreter.  Prints ``ready <setup seconds>`` once the first item
can start: the CPU time this process has used so far (interpreter start,
imports, games, pools and seeds).  Then, unless ``--setup-only``, it
prints one JSON line with the time, items and verdict counts of every
pass.  A timed run makes whole passes until ``--seconds`` of CPU time have passed and at least the
workload's minimum number of passes are done.  It runs the reference loop
between blocks and rescales each block's times to the speed at which the
loop takes ``REFERENCE_S``; ``raw_seconds`` keeps the measured sum.
``--batch`` runs the workload's traced batch once instead, and ``--trace``
(which implies ``--batch``) records per-layer spans while doing so.
``--blocks K`` keeps only the first K blocks of a pass or batch.

Usage: python3 perfbench/worker.py --workload NAME --seed N
       [--seconds S] [--batch] [--trace] [--blocks K] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# CPU time of one reference() call on the machine these figures were first
# taken on (a 2-core x86 VM, Python 3.11) while its host was busy.
REFERENCE_S = 0.025


def reference() -> float:
    """CPU seconds of a fixed pure-Python loop of tuple, dict and str work,
    the kind of work colgames does.  The host this benchmark was written on
    changes the speed of a CPU second by up to 2x for tens of seconds at a
    time; timing this loop next to each block measures that speed."""
    start = time.process_time()
    counts: dict[tuple[int, int], int] = {}
    for i in range(40000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    return time.process_time() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--batch", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import colgames
    if Path(colgames.__file__).resolve().parent != ROOT / "src" / "colgames":
        raise SystemExit(f"imported colgames from {colgames.__file__}, not from this checkout")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, clock

    workload = WORKLOADS[args.workload](args.seed)
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    batch = args.batch or args.trace
    blocks = (workload.trace_blocks or workload.blocks) if batch else workload.blocks
    blocks = blocks[:args.blocks]
    passes, attempted, failed, examples = [], 0, 0, []
    start = clock()
    before = 0.0 if batch else reference()
    while not passes or not (batch or (len(passes) >= workload.min_passes
                                       and clock() - start >= args.seconds)):
        seconds, raw, work, items, block_s = 0.0, 0.0, 0, [], []
        for block in blocks:
            done = block()
            scale = 1.0
            if not batch:
                after = reference()
                scale, before = 2 * REFERENCE_S / (before + after), after
            seconds += done.seconds * scale
            raw += done.seconds
            block_s.append(done.seconds)
            work += done.work
            items += [t * scale for t in done.items]
            if tracer is None:
                problems = done.check()
            else:
                with tracer.pause():
                    problems = done.check()
            attempted += done.attempted
            failed += len(problems)
            examples += problems[:max(0, 20 - len(examples))]
        passes.append({"seconds": seconds, "raw_seconds": raw, "work": work, "items": items,
                       "block_seconds": block_s})
    result = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failure_examples": examples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": workload.inputs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = [[*key, *value] for key, value in sorted(tracer.spans.items())]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
