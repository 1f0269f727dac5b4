"""Mutants of ``src/colgames`` that the tests must kill.

Each entry names a module, a source fragment that occurs in it exactly
once, the fragment's replacement, and the tests known to kill the mutant.
``tests/test_mutants.py`` checks that every fragment still occurs once, so
a change to the code it names cannot leave an entry silently stale.

Run ``python -m tests.mutants`` from the repository root.  For each
mutant, it copies ``src/`` to a temporary directory, applies the
replacement there, and runs the mutant's killers against the copy in a
subprocess under a CPU limit.  It prints which test killed each mutant
and exits 1 if any mutant survives or cannot be run.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# CPU seconds one mutant's killers may take; the killers below take a few
# seconds on a 2-CPU VM.
CPU_LIMIT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a module of src/colgames, without ".py"
    fragment: str  # occurs exactly once in the module
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root

    @property
    def path(self) -> Path:
        return Path("src", "colgames", f"{self.module}.py")


_DELAY = "tests/test_delay.py::"
_PINNED = _DELAY + "TestPinnedResults::test_the_sixty_static_and_lemma_results"
_ONE_CALL = _DELAY + "TestOneSearchForBothVerdicts::test_one_call_equals_the_two_scans"
_SUITE_TABLES = _DELAY + "TestRunTableAgainstReference::test_suite_games"
_LATE = _DELAY + "TestLateCounterexamples::test_first_counterexample_is_the_smallest_of_length_3"
_POOL = "tests/test_state.py::TestMovePool::test_every_offered_move_and_a_junk_move"
_REC = "tests/test_recurrence.py::"
_SIM = "tests/test_sim.py::"

MUTANTS = (
    # _StateScan.verdicts, the one reader of the delay count
    Mutant(
        "refuting-length-decoded-last", "delay",
        "sorted(lengths.items(), key=lambda item: not item[1] & REFUTES)",
        "lengths.items()",
        (_DELAY + "TestOneSearchForBothVerdicts::test_equal_shortest_lengths_take_one_walk",),
    ),
    Mutant(
        "count-stops-at-first-flag-with-violates-asked", "delay",
        "if seen and kinds == REFUTES:",
        "if seen:",
        (_PINNED, _SUITE_TABLES, _LATE),
    ),
    Mutant(
        "walk-stops-at-first-refuting-swap-with-violations-at-its-length", "delay",
        "                    if wanted == REFUTES:\n                        break\n",
        "                    break\n",
        (_PINNED, _DELAY + "TestRunTableAgainstReference::test_two_violations_of_one_run_come_in_position_order",
         _ONE_CALL),
    ),
    Mutant(
        "lemma-counts-summed-only-to-the-decoded-length", "delay",
        "if seen and kinds == REFUTES:",
        "if seen == kinds:",
        (_PINNED, _SUITE_TABLES, _ONE_CALL),
    ),
    Mutant(
        "count-flags-kinds-not-asked", "delay",
        "(VIOLATES if violations else 0)) & kinds & ~seen:",
        "(VIOLATES if violations else 0)) & ~seen:",
        (_LATE, _ONE_CALL,
         "tests/test_sim.py::TestVerifyStaticPreservation::test_a_base_whose_own_lemma_fails_at_the_bound_is_refused"),
    ),
    Mutant(
        "last-refuting-swap-of-a-shared-walk-kept", "delay",
        "if failed & REFUTES and counterexample is None:",
        "if failed & REFUTES:",
        (_PINNED, _SUITE_TABLES, _ONE_CALL),
    ),
    # the move query's address bound, and the decode's depth
    Mutant(
        "recurrence-offers-addresses-one-bit-past-the-bound", "recurrence",
        "limit = max_address_len",
        "limit = max_address_len + 1",
        ("tests/test_recurrence.py::TestLegalMoveEnumeration::test_matches_extension_legality_on_candidates",
         _POOL, _PINNED),
    ),
    Mutant(
        "address-guard-accepts-a-negative-bound", "recurrence",
        "if not 0 <= limit <= MAX_ADDRESS_BITS:",
        "if limit > MAX_ADDRESS_BITS:",
        ("tests/test_recurrence.py::TestAddressGuard::test_a_bound_outside_the_guard_is_refused",),
    ),
    Mutant(
        "scan-passes-the-run-bound-to-the-move-query", "delay",
        "game.step, bounds.max_address_len",
        "game.step, bounds.max_run_len",
        (_POOL, _PINNED),
    ),
    Mutant(
        "decode-keeps-the-default-recursion-limit", "delay",
        "sys.setrecursionlimit(frames + n)",
        "sys.setrecursionlimit(frames)",
        (_DELAY + "TestLateCounterexamples::test_a_counterexample_at_the_longest_run_bound_decodes",),
    ),
    # the tight tree's replication rule and the verdicts built on it
    Mutant(
        "outer-nodes-include-the-replicated-ones", "recurrence",
        "return _nodes_of(replicated) - replicated",
        "return _nodes_of(replicated)",
        (_REC + "TestActualNodes::test_single_replication", _DELAY + "TestPinnedResults::test_the_honest_pool_results",
         _SIM + "TestVerifyTranslation::test_budget_three_traces_are_pinned"),
    ),
    Mutant(
        "replicate-accepts-any-address", "recurrence",
        " if w in _outer_of(self.replicated) else None",
        "",
        (_REC + "TestTightExtension::test_replication_only_at_outer",
         _REC + "TestActualNodes::test_replications_off_the_outer_nodes_do_not_count",
         _REC + "TestActualNodes::test_replicate_refuses_all_but_outer_nodes"),
    ),
    Mutant(
        "static-verdict-inverted", "delay",
        "return self.counterexample is None",
        "return self.counterexample is not None",
        (_DELAY + "TestIsStatic::test_leaf_game_is_static",
         "tests/test_acceptance.py::test_criterion_3_static_preservation"),
    ),
    Mutant(
        "precheck-refuses-only-past-the-run-bound-ceiling", "sim",
        "if n >= MAX_RUN_LEN:",
        "if n > MAX_RUN_LEN:",
        (_SIM + "TestVerifyTranslation::test_step_cap_past_the_ceiling_is_refused",
         _SIM + "TestVerifyStaticPreservation::test_a_run_bound_without_room_for_the_base_check_is_refused"),
    ),
    Mutant(
        "audit-skips-the-node-map-domain-check", "sim",
        "if frozenset(k for k, _ in fmap) != expected:",
        "if False:",
        (_SIM + "TestAuditTrace::test_flags_a_map_domain_off_the_outer_nodes",
         "tests/test_acceptance.py::test_criterion_6_harness_sensitivity"),
    ),
)


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def run(mutant: Mutant) -> str | None:
    """Apply ``mutant`` to a copy of ``src/`` and run its killers there: the
    first test that failed, or None if every killer passed.  A fragment not
    found once, or a run that ends other than by a failed test, raises
    RuntimeError."""
    with tempfile.TemporaryDirectory(prefix="colgames-mutant-") as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = Path(tmp, mutant.path)
        text = target.read_text()
        if text.count(mutant.fragment) != 1:
            raise RuntimeError(f"{mutant.name}: the fragment does not occur exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *mutant.killers],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, preexec_fn=_limit_cpu,
        )
    if result.returncode == 0:
        return None
    failed = re.search(r"^FAILED (\S+)", result.stdout, re.MULTILINE)
    if result.returncode != 1 or failed is None:
        raise RuntimeError(f"{mutant.name}: the killers ended with exit {result.returncode}:\n"
                           f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    return failed.group(1)


def main() -> int:
    bad = []
    for mutant in MUTANTS:
        try:
            killer = run(mutant)
        except RuntimeError as error:
            print(f"ERROR    {error}")
            bad.append(mutant.name)
            continue
        if killer is None:
            print(f"SURVIVED {mutant.name}")
            bad.append(mutant.name)
        else:
            print(f"killed   {mutant.name} by {killer}")
    if bad:
        print(f"{len(bad)} mutant(s) not killed: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
