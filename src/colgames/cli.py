"""Command-line front end: projection, evaluation, delay queries, static
checks, strategy-vs-adversary simulation, and an interactive play mode.

Exit codes: 0 success, 1 property failure (lost plays, static
counterexamples, verification failures), 2 parse/format errors, 3
precondition violations (non-static base, guard limits), 141 a closed
stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .core import (
    BOT,
    TOP,
    Ray,
    Run,
    format_run,
    is_bitstring,
    neg_player,
    project,
)
from .delay import REFUTES, _StateScan, enumerate_delays, is_delay
from .dsl import ElaborationError, ExprParseError, Rec, elaborate, parse_game_expr, translation_shape
from .files import FileFormatError, TraceFile, dumps_trace, load_game_defs, loads_trace
from .games import EnumBounds, State, offender, split_disjunction
from .recurrence import actual_nodes
from .sim import (
    Direction,
    PreconditionError,
    Trace,
    audit_trace,
    run_interaction,
    strategy_for,
    translation_compound,
    verify_translation,
)
from .strategy import pass_strategy, random_adversary, scripted_adversary
from .suite import suite_defs

_PLAYERS = {"T": TOP, "B": BOT}


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8 whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_defs(path: str | None):
    if path is None:
        return suite_defs()
    return load_game_defs(_read_text(path))


def _load_trace(path: str) -> TraceFile:
    return loads_trace(_read_text(path))


def cmd_project(args) -> int:
    trace = _load_trace(args.trace)
    if not is_bitstring(args.ray):
        raise FileFormatError(f"--ray must be a bitstring, got {args.ray!r}")
    print(format_run(project(trace.moves, Ray(args.ray))))
    return 0


def cmd_eval(args) -> int:
    defs = _load_defs(args.defs)
    game = elaborate(parse_game_expr(args.game), defs)
    run = _load_trace(args.trace).moves
    state = game.replay(run)
    if state is not None:
        print(f"legal; winner: {game.outcome(state).value}")
    else:
        off = offender(game, run)
        print(
            f"illegal; offender: index {off.index} by {off.culprit.value}; "
            f"won by {neg_player(off.culprit).value}"
        )
    return 0


def cmd_nodes(args) -> int:
    run = _load_trace(args.trace).moves
    tree = actual_nodes(run, _PLAYERS[args.structural])
    def show(nodes):
        return "{" + ", ".join(f'"{n}"' for n in sorted(nodes)) + "}"
    print(f"actual: {show(tree.nodes())}")
    print(f"outer:  {show(tree.outer())}")
    return 0


def cmd_delays(args) -> int:
    run = _load_trace(args.trace).moves
    player = _PLAYERS[args.player]
    if args.check is not None:
        other = _load_trace(args.check).moves
        verdict = is_delay(other, run, player)
        print("yes" if verdict else "no")
        return 0 if verdict else 1

    def ordering(delayed_run):
        return tuple((x.label.value, x.move) for x in delayed_run)

    for delayed in sorted(enumerate_delays(run, player), key=ordering):
        print(format_run(delayed))
    return 0


def cmd_static(args) -> int:
    defs = _load_defs(args.defs)
    game = elaborate(parse_game_expr(args.game), defs)
    scan = _StateScan(game, EnumBounds(args.max_addr, args.max_run), None)
    verdict, _ = scan.verdicts(REFUTES)
    print(f"static: {'yes' if verdict.static else 'no'}")
    print(f"pool: {len(scan.pool)} moves")
    print(f"states: {len(scan.rows) - 2}")  # the legal states the walk reached
    if verdict.static:
        return 0
    gamma, delta, p = verdict.counterexample
    print(f"counterexample player: {p.value}")
    print(f"original: {format_run(gamma)}")
    print(f"delayed:  {format_run(delta)}")
    return 1


def _write_trace(path: str, trace: Trace, game_text: str, seed: int | None, bounds: EnumBounds) -> None:
    tf = TraceFile(
        game=game_text,
        version=__version__,
        seed=seed,
        bounds=bounds,
        moves=trace.moves,
        outcome=trace.outcome,
        offender=trace.offender,
        truncated=trace.truncated,
    )
    Path(path).write_text(dumps_trace(tf))


def _seed(args) -> int:
    """``--seed``, else the ``COL_SEED`` environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("COL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(f"COL_SEED must be an integer, got {text!r}") from None


def cmd_simulate(args) -> int:
    if args.adversary == "exhaustive" and args.out:
        raise FileFormatError("--out takes the trace of one play; an exhaustive run plays many")
    if args.seed is not None and args.adversary != "random":
        raise FileFormatError("--seed seeds the random adversary; this run draws no moves at random")
    base = elaborate(parse_game_expr(args.atom), _load_defs(args.defs))
    direction = Direction(args.direction)
    # A play's own run bound is its step cap.
    bounds = EnumBounds(args.max_addr, args.max_steps)
    compound = translation_compound(base, direction)

    if args.adversary == "exhaustive":
        report = verify_translation(
            base, direction, bounds, budget=args.budget, max_steps=args.max_steps
        )
        print(f"game: {compound.name}")
        print(f"adversaries: {report.adversaries}")
        print(f"failures: {len(report.failures)}")
        for failure in report.failures[:20]:
            print(f"  {failure.kind}: {failure.detail}")
        print(f"truncated: {report.truncated}")
        failed, cut = not report.ok, report.truncated
    else:
        machine = strategy_for(compound, direction)
        if args.adversary == "random":
            seed: int | None = _seed(args)
            adversary = random_adversary(compound, seed, bounds, args.budget)
        elif args.adversary.startswith("script:"):
            script_trace = _load_trace(args.adversary.split(":", 1)[1])
            adversary = scripted_adversary(
                [lm.move for lm in script_trace.moves if lm.label is BOT]
            )
            seed = None
        else:
            raise FileFormatError(
                f"--adversary must be exhaustive, random or script:FILE, got {args.adversary!r}"
            )
        trace = run_interaction(machine, adversary, compound, args.max_steps)
        problems = audit_trace(trace, direction, compound)
        print(f"game: {compound.name}")
        print(f"run: {format_run(trace.moves)}")
        print(f"outcome: {trace.outcome.value}")
        if trace.offender is not None:
            print(f"offender: index {trace.offender.index} by {trace.offender.culprit.value}")
        for problem in problems:
            print(f"failure: {problem}")
        if args.out:
            _write_trace(args.out, trace, compound.name, seed, bounds)
        failed, cut = bool(problems), int(trace.truncated)
    if cut and not failed:  # a play cut off is neither won nor lost
        raise PreconditionError(f"{cut} play(s) reached --max-steps {args.max_steps} before they ended")
    return 1 if failed else 0


def _print_position(run: Run, expr, state: State) -> None:
    """The legal position ``run``, in game state ``state``; for a
    recurrence, or each component of a translation compound, the
    projection along the structural player's last switch, after the
    actual and outer nodes of a tight recurrence (a compound's tight
    component's only; a loose one has no tree).  The tree and the stem
    are read from the recurrences' states, so a stem shows without its
    trailing zeros, and a switch to ``0`` as the root."""
    print(f"position: {format_run(run)}")
    if translation_shape(expr) is not None:
        shown = list(zip(("component 1 ", "component 2 "), split_disjunction(run), state))
        tree_label = "tight component "
    elif isinstance(expr, Rec):
        shown, tree_label = [("", run, state)], ""
    else:
        return
    for _, _, ray_state in shown:
        if ray_state.tree is not None:
            print(f"{tree_label}actual: {sorted(ray_state.tree.nodes())}")
            print(f"{tree_label}outer:  {sorted(ray_state.tree.outer())}")
    for label, part, ray_state in shown:
        stem = ray_state.stem
        print(f"{label}along last switch ({stem or 'root'}): {format_run(project(part, Ray(stem)))}")


# The longest play ``colgames play`` records, in labeled moves.
_PLAY_STEPS = 1000


class _Terminal:
    """The environment at the terminal (state: the run's length when it
    last read a move, and the game state there): shows the machine's
    replies since, stops at the first illegal move, else shows the
    position and reads a move; a blank line or end of input is a pass."""

    def __init__(self, expr, game) -> None:
        self._expr, self._game = expr, game

    def init(self) -> tuple[int, State]:
        return 0, self._game.start()

    def react(self, state: tuple[int, State], position: Run) -> tuple[tuple[int, State], tuple[str, ...]]:
        seen, current = state
        for lm in position[seen:]:
            if lm.label is TOP:
                print(f"machine plays: {lm.move!r}")
            current = self._game.step(current, lm)
            if current is None:
                return state, ()
        _print_position(position, self._expr, current)
        try:
            entered = input("environment move (blank to stop): ")
        except EOFError:
            print()
            return state, ()
        if entered == "":
            return state, ()
        return (len(position), current), (entered,)


def cmd_play(args) -> int:
    defs = _load_defs(args.defs)
    expr = parse_game_expr(args.game)
    game = elaborate(expr, defs)
    shape = translation_shape(expr)
    if shape is None:
        machine = pass_strategy()
        print("no machine strategy for this expression; you play the environment")
    else:
        machine = strategy_for(game, shape[0])
        print(f"machine plays the {shape[0].value} translation strategy")
    trace = run_interaction(machine, _Terminal(expr, game), game, _PLAY_STEPS)
    if trace.truncated:
        print(f"play stopped at {_PLAY_STEPS} moves")
    if trace.offender is not None:
        print(f"offender: index {trace.offender.index} by {trace.offender.culprit.value}")
    print(f"outcome: won by {trace.outcome.value}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, worded as main's own refusals
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colgames",
        description="Constant games with toggling-branching (co)recurrences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a recorded run along a ray")
    p.add_argument("--trace", required=True)
    p.add_argument("--ray", required=True, help="bitstring stem of the ray")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("eval", help="legality, offender and winner of a recorded run")
    p.add_argument("--game", required=True, help="game expression")
    p.add_argument("--defs", default=None, help="definitions file (default: built-ins)")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nodes", help="actual and outer nodes of a recorded position")
    p.add_argument("--trace", required=True)
    p.add_argument("--structural", choices=["T", "B"], default="B",
                   help="who owns replication moves (default B)")
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("delays", help="check or enumerate move delays")
    p.add_argument("--trace", required=True)
    p.add_argument("--player", choices=["T", "B"], required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", default=None, help="trace file to test as a delay")
    group.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=cmd_delays)

    p = sub.add_parser("static", help="brute-force static check of a game expression")
    p.add_argument("--game", required=True)
    p.add_argument("--defs", default=None)
    p.add_argument("--max-run", type=int, default=5, dest="max_run")
    p.add_argument("--max-addr", type=int, default=2, dest="max_addr")
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("simulate", help="play a translation strategy against adversaries")
    p.add_argument("--direction", choices=[d.value for d in Direction], required=True)
    p.add_argument("--defs", default=None)
    p.add_argument("--atom", required=True, help="base game expression")
    p.add_argument("--adversary", default="exhaustive",
                   help="exhaustive | random | script:FILE")
    p.add_argument("--budget", type=int, default=3)
    p.add_argument("--seed", type=int, default=None,
                   help="random adversary seed (default: $COL_SEED, else 0)")
    p.add_argument("--max-steps", type=int, default=64, dest="max_steps")
    p.add_argument("--max-addr", type=int, default=2, dest="max_addr")
    p.add_argument("--out", default=None, help="write the trace file here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("play", help="interactive play; you are the environment")
    p.add_argument("--game", required=True)
    p.add_argument("--defs", default=None)
    p.set_defaults(func=cmd_play)

    return parser


# The least value each numeric option takes; below it the option is
# malformed input.  No swap fits in a run shorter than 2 moves, so a static
# check there would pass vacuously.
_LEAST = {"budget": 0, "max_run": 2, "max_addr": 0, "max_steps": 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, least in _LEAST.items():
        value = getattr(args, dest, least)
        if value < least:
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader of stdout is gone: drop the rest, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ExprParseError, ElaborationError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
