"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces the public entry points of each colgames
module, and the ``Game`` and strategy methods of each concrete class, by
wrappers that record spans.  A function is replaced in every colgames
module that holds it, so ``recurrence.project`` and ``sim.project`` are
both traced.  Spans are aggregated per (name, parent name) as
``[calls, total seconds, self seconds]``, where self time is the span's
duration minus the time its child spans cover; memory therefore stays
bounded however many calls a run makes.  ``lru_cache`` leaves such as
``parse_move`` are not wrapped: their ``cache_info()`` is read instead.

A name that is missing from the library raises at install time, so a
renamed entry point breaks the traced run instead of reading zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

from colgames import core, delay, dsl, files, games, recurrence, sim, strategy
from workloads import table_runs

ROOT = "bench.item"
DELAY_SPANS = ("delay.is_static", "delay.check_illegality_lemma", "delay.static_and_lemma")
REACTS = ("strategy.react.mirror", "strategy.react.remap")


def _table_runs(args: tuple) -> int:
    """Runs of the table a delay entry point builds from its positional
    (game, bounds[, pool]) arguments; without a pool the library uses the
    game's probe pool."""
    game, bounds = args[:2]
    pool = args[2] if len(args) > 2 else game.probe_moves(bounds)
    return table_runs(pool, bounds)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]
        self.spans: dict[tuple[str, str], list[float]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.paused = False

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """``fn`` recording a span ``name``; ``on_call(args, result)`` may
        add counters."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                record = spans.get((name, parent[0]))
                if record is None:
                    spans[(name, parent[0])] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
            if on_call is not None:
                with self.pause():
                    on_call(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next()`` is a span ``name``."""
        step = self.wrap(name, next)

        def traced(*args: Any, **kwargs: Any):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                yield item

        return traced

    @contextmanager
    def pause(self):
        """Call the library untraced, for the benchmark's own checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def install(self) -> None:
        count = self.count
        functions = [
            (core.project, "core.project", None),
            (core.ray_classes, "core.ray_classes",
             lambda a, r: count("core.ray_classes.rays", len(r))),
            (games.split_disjunction, "games.split_disjunction", None),
            (games.offender, "games.offender", None),
            (recurrence.tight_extension_legal, "recurrence.extend_legal.tight", None),
            (recurrence.loose_extension_legal, "recurrence.extend_legal.loose", None),
            (recurrence.actual_nodes, "recurrence.actual_nodes", None),
            (delay.is_static, "delay.is_static",
             lambda a, r: count("delay.table.runs", _table_runs(a))),
            (delay.check_illegality_lemma, "delay.check_illegality_lemma", self._on_lemma),
            (delay.static_and_lemma, "delay.static_and_lemma",
             lambda a, r: self._on_lemma(a, r[1])),
            (sim.run_interaction, "sim.run_interaction", self._on_interaction),
            (sim.audit_trace, "sim.audit_trace", None),
            (dsl.parse_game_expr, "dsl.parse_game_expr", None),
            (dsl.elaborate, "dsl.elaborate", None),
            (files.dumps_trace, "files.dumps_trace",
             lambda a, r: count("files.dumps_trace.bytes", len(r.encode()))),
            (files.loads_trace, "files.loads_trace", None),
        ]
        for fn, name, on_call in functions:
            _replace_everywhere(fn, self.wrap(name, fn, on_call))
        enum = strategy.exhaustive_adversaries
        _replace_everywhere(enum, self.wrap_generator("strategy.enum.next", enum))

        methods = [
            (games._FiniteInterface, "extend_legal", "games.extend_legal.finite", None),
            (games._Negated, "extend_legal", "games.extend_legal.negated", None),
            (games._Disjoined, "extend_legal", "games.extend_legal.disjoined", None),
            (recurrence.RecurrenceGame, "legal_moves", "recurrence.legal_moves",
             lambda a, r: count("recurrence.legal_moves.returned", len(r))),
            (strategy.MirrorStrategy, "react", "strategy.react.mirror", None),
            (strategy.RemapStrategy, "react", "strategy.react.remap", None),
            (strategy._RandomAdversary, "react", "strategy.react.random", None),
        ]
        methods += [(cls, "winner", "games.winner", None)
                    for cls in (games._FiniteInterface, games._Negated, games._Disjoined,
                                recurrence.RecurrenceGame)]
        for cls, attr, name, on_call in methods:
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], on_call))

    def _on_lemma(self, args: tuple, report: delay.LemmaReport) -> None:
        self.count("delay.table.runs", _table_runs(args))
        self.count("delay.lemma.pairs_checked", report.pairs_checked)
        self.count("delay.lemma.violations", len(report.violations))

    def _on_interaction(self, args: tuple, trace: sim.Trace) -> None:
        self.count("sim.run_interaction.moves", len(trace.moves))
        self.count("sim.truncated", trace.truncated)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values, named as in BENCHMARK.json (all but the
        overhead ratio, which needs an untraced run)."""
        calls: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for (name, _), (n, dur, own) in self.spans.items():
            calls[name] += n
            total[name] += dur
            self_s[name] += own

        def calls_under(names, parents) -> float:
            return sum(self.spans.get((n, p), (0,))[0] for n in names for p in parents)

        c = self.counters
        out: dict[str, float] = {}
        for name in ("core.project", "games.extend_legal.finite", "games.extend_legal.negated",
                     "games.extend_legal.disjoined", "games.split_disjunction", "games.offender",
                     "recurrence.extend_legal.tight", "recurrence.extend_legal.loose",
                     "recurrence.actual_nodes", "recurrence.legal_moves",
                     "strategy.react.mirror", "strategy.react.remap", "strategy.react.random",
                     "sim.run_interaction", "sim.audit_trace",
                     "files.dumps_trace", "files.loads_trace"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["core.ray_classes.calls"] = calls["core.ray_classes"]
        out["core.ray_classes.rays"] = c["core.ray_classes.rays"]
        info = core.parse_move.cache_info()
        out["core.parse_move.cache_entries"] = info.currsize
        out["core.parse_move.cache_hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
        out["games.winner.calls"] = calls["games.winner"] - calls_under(["games.winner"], ["games.winner"])
        checks = ["recurrence.extend_legal.tight", "recurrence.extend_legal.loose"]
        out["recurrence.legal_moves.accept_ratio"] = _ratio(
            c["recurrence.legal_moves.returned"], calls_under(checks, ["recurrence.legal_moves"]))
        out["recurrence.nodes_cache_entries"] = recurrence._nodes_of.cache_info().currsize
        out["recurrence.outer_cache_entries"] = recurrence._outer_of.cache_info().currsize
        out["delay.table_s"] = sum(dur for (_, parent), (_, dur, _) in self.spans.items()
                                   if parent in DELAY_SPANS)
        out["delay.scan_s"] = sum(self_s[name] for name in DELAY_SPANS)
        out["delay.table.runs"] = c["delay.table.runs"]
        out["delay.table.legal_share"] = _ratio(
            calls_under(["games.winner"], DELAY_SPANS), c["delay.table.runs"])
        out["delay.lemma.pairs_checked"] = c["delay.lemma.pairs_checked"]
        out["delay.lemma.violations"] = c["delay.lemma.violations"]
        out["strategy.enum.next_s"] = total["strategy.enum.next"]
        replays = calls_under(REACTS, ["strategy.enum.next"])
        out["strategy.enum.replay_reacts"] = replays
        out["strategy.enum.replay_ratio"] = _ratio(replays, calls_under(REACTS, ["sim.run_interaction"]))
        out["sim.run_interaction.moves"] = c["sim.run_interaction.moves"]
        out["sim.truncated"] = c["sim.truncated"]
        out["dsl.parse_game_expr.self_s"] = self_s["dsl.parse_game_expr"]
        out["dsl.elaborate.self_s"] = self_s["dsl.elaborate"]
        out["files.dumps_trace.bytes"] = c["files.dumps_trace.bytes"]
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` in every loaded colgames module that holds it."""
    found = False
    for module_name, module in list(sys.modules.items()):
        if module_name != "colgames" and not module_name.startswith("colgames."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"{original.__qualname__} is bound in no colgames module")
