"""The two workloads: their inputs, expected verdicts and timed blocks.

One *pass* of a workload is a list of blocks.  A block is a function that
makes one or more library calls and returns a ``Done``: the CPU seconds
of those calls, the work they did (what ``work_per_s`` counts), the time
of each item in them, how many verdicts it produced, and ``check()``.
``check()`` returns one line for every item whose verdict, count or round
trip differs from the expected one; it runs after the clock has stopped
and with tracing paused, because some checks call the library.

Every pass makes the same calls on the same inputs, so a run of several
passes repeats them and the runner reports medians over the passes.

Every call goes through a module attribute (``delay.static_and_lemma``,
never an imported name), so the traced run's patches are the functions
called.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import colgames
from colgames import delay, dsl, files, games, recurrence, sim, strategy, suite

# Everything is timed in CPU time of the measuring process.  The workloads
# are single-threaded and do no I/O, so on an idle machine this equals wall
# time; on a shared host it leaves out the time the CPU serves others.
clock = time.process_time


@dataclass
class Done:
    seconds: float
    work: int
    items: list[float]
    attempted: int
    check: Callable[[], list[str]]


Block = Callable[[], Done]


@dataclass
class Workload:
    """One pass, the passes a timed run makes at least, the batch a traced
    run makes once (one pass unless given), and the inputs written out."""

    blocks: list[Block]
    min_passes: int
    inputs: dict
    trace_blocks: list[Block] | None = None


def _bounds(bounds: games.EnumBounds) -> list[int]:
    return [bounds.max_address_len, bounds.max_run_len]


# --- static_refute -------------------------------------------------------

# The refutation problem at run length 4: at length 5 one loose table takes
# about 18 s, too long to repeat within a run.
REFUTE_BOUNDS = games.EnumBounds(max_address_len=2, max_run_len=4)

# first_mover_wins pools carrying every root base move.
REFUTE_POOLS = {
    recurrence.Version.TIGHT: (":", "0:", "0", "0.a", "0.b"),
    recurrence.Version.LOOSE: (":", "01", ".a", ".b", "0.a", "0.b"),
}


def table_runs(pool: tuple[str, ...], bounds: games.EnumBounds) -> int:
    """Runs a delay table enumerates: sum over k <= L of (2 |pool|)^k."""
    return sum((2 * len(pool)) ** k for k in range(bounds.max_run_len + 1))


def _refute_block(game: games.Game, pool: tuple[str, ...]) -> Block:
    """One item: both delay scans of ``game`` over ``pool``."""
    def block() -> Done:
        t = clock()
        verdict, report = delay.static_and_lemma(game, REFUTE_BOUNDS, pool)
        seconds = clock() - t
        return Done(seconds, table_runs(pool, REFUTE_BOUNDS), [seconds], 1,
                    lambda: _expect_refuted(game, verdict, report))
    return block


def _expect_refuted(game, verdict, report) -> list[str]:
    """Not static with a valid counterexample, and a valid lemma violation."""
    if verdict.static:
        return [f"{game.name}: expected not static"]
    gamma, delta, p = verdict.counterexample
    if not (delay.is_delay(delta, gamma, p) and games.won_by(game, gamma, p)
            and not games.won_by(game, delta, p)):
        return [f"{game.name}: counterexample does not re-validate"]
    if not report.violations:
        return [f"{game.name}: expected lemma violations"]
    gamma, delta, p = report.violations[0]
    off_delta, off_gamma = games.offender(game, delta), games.offender(game, gamma)
    if not (delay.is_delay(delta, gamma, p) and off_delta is not None
            and off_delta.culprit is p
            and (off_gamma is None or off_gamma.culprit is not p)):
        return [f"{game.name}: lemma violation does not re-validate"]
    return []


def static_refute(seed: int) -> Workload:
    """A pass is the 4 recurrences of first_mover_wins, about 2.3 s."""
    base = games.finite_game_interface(suite.first_mover_wins())
    blocks, pools = [], {}
    for kind in recurrence.ALL_KINDS:
        game = recurrence.make_recurrence(base, kind)
        pools[game.name] = REFUTE_POOLS[kind.version]
        blocks.append(_refute_block(game, pools[game.name]))
    inputs = {"bounds": _bounds(REFUTE_BOUNDS), "pools": pools}
    return Workload(blocks, min_passes=3, inputs=inputs)


# Criterion 4 of the acceptance suite.
PLAY_BOUNDS = games.EnumBounds(max_address_len=2, max_run_len=64)
MAX_STEPS = 64

# Exact adversary counts of every exhaustive enumeration at this commit:
# the budget-3 suite sums to 6493, bot_choice at budget 4 gives 21559.
TIGHT, LOOSE = sim.Direction.TIGHT_TO_LOOSE, sim.Direction.LOOSE_TO_TIGHT
EXPECTED_ADVERSARIES = {
    ("leaf_top", TIGHT, 3): 400,
    ("leaf_top", LOOSE, 3): 48,
    ("bot_choice", TIGHT, 3): 2054,
    ("bot_choice", LOOSE, 3): 104,
    ("top_choice", TIGHT, 3): 950,
    ("top_choice", LOOSE, 3): 420,
    ("alternating", TIGHT, 3): 2336,
    ("alternating", LOOSE, 3): 181,
    ("bot_choice", TIGHT, 4): 21559,
}


def compound_text(atom: str, direction: sim.Direction) -> str:
    """The expression of a translation compound, as `colgames simulate`
    writes it into its trace files."""
    if direction is TIGHT:
        return f"or(cbr_t(not({atom})), tbr_l({atom}))"
    return f"or(cbr_l(not({atom})), tbr_t({atom}))"


def _verify_block(base: games.FiniteGame, direction: sim.Direction, budget: int) -> Block:
    """One ``verify_translation`` call.  Its items are the adversaries: the
    time from the end of one audit to the end of the next, read from a thin
    wrapper around ``sim.audit_trace``.  The first item also carries the
    static precheck and the strategy's set-up."""
    expected = EXPECTED_ADVERSARIES[(base.name, direction, budget)]
    text = compound_text(base.name, direction)

    def block() -> Done:
        stamps: list[float] = []
        audit = sim.audit_trace

        def stamped(*args, **kwargs):
            problems = audit(*args, **kwargs)
            stamps.append(clock())
            return problems

        sim.audit_trace = stamped
        try:
            start = clock()
            report = sim.verify_translation(base, direction, PLAY_BOUNDS, budget,
                                            max_steps=MAX_STEPS)
            seconds = clock() - start
        finally:
            sim.audit_trace = audit
        items = [b - a for a, b in zip([start] + stamps, stamps)]
        return Done(seconds, report.adversaries, items, report.adversaries + 1,
                    lambda: _expect_verified(text, budget, expected, report))
    return block


def _expect_verified(text: str, budget: int, expected: int, report) -> list[str]:
    """One line per adversary whose trace fails its audit, and one if the
    adversary count is not the expected one."""
    failed = {id(f.trace): f"{text}: {f.kind}: {f.detail}" for f in report.failures}
    found = list(failed.values())
    if report.adversaries != expected:
        found.append(f"{text} budget {budget}: {report.adversaries} adversaries, expected {expected}")
    return found


# --- translation_exhaustive, and random plays for its traced batch ---------

# `colgames simulate --adversary random --out` with a budget large enough
# that plays run 10 to 63 moves.
RANDOM_BOUNDS = PLAY_BOUNDS
RANDOM_BUDGET = 30
RANDOM_PASS_PROBABILITY = 0.05
PLAYS_PER_COMPOUND = 10


def _plays_block(text: str, direction: sim.Direction, compound: games.Game,
                 seeds: list[int]) -> Block:
    """One item per seed: the strategy plays a random adversary; the play is
    audited, written as a trace file and read back."""
    def block() -> Done:
        items, moves, failed = [], 0, []
        for seed in seeds:
            t = clock()
            machine = sim.strategy_for(compound, direction)
            adversary = strategy.random_adversary(compound, seed, RANDOM_BOUNDS, RANDOM_BUDGET,
                                                  RANDOM_PASS_PROBABILITY)
            trace = sim.run_interaction(machine, adversary, compound, MAX_STEPS)
            audit = sim.audit_trace(trace, direction, compound)
            tf = files.TraceFile(game=text, version=colgames.__version__, seed=seed,
                                 bounds=RANDOM_BOUNDS, moves=trace.moves, outcome=trace.outcome,
                                 offender=trace.offender, truncated=trace.truncated)
            back = files.loads_trace(files.dumps_trace(tf))
            items.append(clock() - t)
            moves += len(trace.moves)
            if audit or back != tf:
                failed.append(f"{text} seed {seed}: audit {list(audit)}, round trip {back == tf}")
        return Done(sum(items), moves, items, len(seeds), lambda: failed)
    return block


def _random_plays(seed: int) -> tuple[list[Block], dict[str, list[int]]]:
    """10 plays on each of the 8 translation compounds, built from their
    expression text with ``dsl``, about 3 s; the adversary seeds are drawn
    from the workload seed."""
    defs = suite.suite_defs()
    rng = random.Random(seed)
    blocks, seeds = [], {}
    for base in suite.TRANSLATION_SUITE:
        for direction in sim.Direction:
            text = compound_text(base.name, direction)
            compound = dsl.elaborate(dsl.parse_game_expr(text), defs)
            seeds[text] = [rng.randrange(2 ** 32) for _ in range(PLAYS_PER_COMPOUND)]
            blocks.append(_plays_block(text, direction, compound, seeds[text]))
    return blocks, seeds


def translation_exhaustive(seed: int) -> Workload:
    """A pass (about 6 s) is the whole budget-3 suite: both directions on
    every base, 6493 adversaries.  The traced batch adds 80 random plays,
    for the layers exhaustive verification does not reach (``dsl``,
    ``files``, the random adversary), then bot_choice tight-to-loose at
    budget 4 (21559 adversaries, about 25 s)."""
    blocks = [_verify_block(base, direction, 3)
              for base in suite.TRANSLATION_SUITE for direction in sim.Direction]
    plays, seeds = _random_plays(seed)
    deep = _verify_block(suite.bot_choice(), TIGHT, 4)
    precheck = games.EnumBounds(PLAY_BOUNDS.max_address_len, min(PLAY_BOUNDS.max_run_len, 4))
    inputs = {
        "bounds": _bounds(PLAY_BOUNDS),
        "problems": [[compound_text(b, d), n, count]
                     for (b, d, n), count in EXPECTED_ADVERSARIES.items()],
        # verify_translation takes no pool: its precheck uses the game's own
        # probe pool, recorded here as it is at this commit.
        "precheck_pools": {base.name: games.finite_game_interface(base).probe_moves(precheck)
                           for base in suite.TRANSLATION_SUITE},
        "random_plays": {"budget": RANDOM_BUDGET, "pass_probability": RANDOM_PASS_PROBABILITY,
                         "max_steps": MAX_STEPS, "seeds": seeds},
    }
    return Workload(blocks, min_passes=3, inputs=inputs, trace_blocks=blocks + plays + [deep])


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "static_refute": static_refute,
    "translation_exhaustive": translation_exhaustive,
}
