"""Event-driven strategies, the interaction loop and the adversary enumerator.

A strategy is an object with ``init() -> state`` and
``react(state, position, latest) -> (state, moves)``.  The harness calls
``react`` with the full run so far (including the opponent's latest
labeled move, which is also passed explicitly) and appends the returned
moves, attributed to the strategy's side, as one batch.  Reacting with an
empty batch is a pass.  States are strategy-private; the routines expose
``last_case`` (and, for the map-maintaining routine, ``fmap``) on their
states so the harness can annotate traces.

MirrorStrategy wins "tight-co of not-A  or  loose of A": it mirrors every move
of one component into the other at the same tree address, growing the
tight component's tree with replications first when needed.

RemapStrategy wins "loose-co of not-A  or  tight of A": the tight component's
tree lives on the adversary's side, so the machine maintains a mapping
``f`` from that tree's outer nodes to loose-side addresses, kept
pairwise prefix-free, and translates moves through it.

``run_interaction`` pits a reactive machine strategy against an
environment strategy over a game, recording a trace: the run, one
annotation per machine reaction, the outcome and the first offender.
The environment moves first in each round; the play ends when the
environment passes (the machine is reactive, so that is a mutual pass)
or when the step limit is hit.  It alone decides legality: it records
the first offender, which decides the outcome, and stops asking the
machine from then on, so a machine's ``react`` sees only legal
positions.  ``exhaustive_adversaries`` plays the machine against every
scripted adversary up to a move budget, each through that one loop, and
yields the traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .core import BOT, TOP, LabMove, Player, Run, ShapeKind, neg_player, parse_move
from .games import EnumBounds, Game, Offender, split_disjunction
from .recurrence import actual_nodes


def grow_to_actual(position: Run, w: str, structural: Player) -> tuple[str, ...]:
    """Replication moves making ``w`` an actual node of a tight position.

    Repeatedly replicates the longest actual prefix of ``w`` (always an
    outer node of a well-formed tree, so each step is legal) until ``w``
    is actual.  Empty when ``w`` is already actual.
    """
    tree = actual_nodes(position, structural)
    chain: list[str] = []
    while not tree.is_actual(w):
        u = tree.longest_actual_prefix(w)
        chain.append(u + ":")
        tree = tree.replicate(u)
    return tuple(chain)


def fmap_prefix_free(items: Iterable[tuple[str, str]]) -> bool:
    """Do the mapped values of distinct nodes avoid prefixing each other?"""
    pairs = list(items)
    for n1, v1 in pairs:
        for n2, v2 in pairs:
            if n1 != n2 and v2.startswith(v1):
                return False
    return True


@dataclass(frozen=True)
class _R1State:
    last_case: str | None = None


class MirrorStrategy:
    """Mirror strategy for or(cbr_t(not(A)), tbr_l(A)); ``react`` sees only legal positions."""

    def init(self) -> _R1State:
        return _R1State()

    def react(self, state: _R1State, position: Run, latest: LabMove | None) -> tuple[_R1State, tuple[str, ...]]:
        if latest is None:
            return state, ()
        component, rest = latest.move[0], latest.move[2:]
        sh = parse_move(rest)
        if component == "1" and sh.kind is ShapeKind.NONREPLICATIVE:
            # Adversary moved in the tight-co component: copy it verbatim
            # into the loose component, where any address is available.
            return replace(state, last_case="copy-move"), ("2." + rest,)
        parts = split_disjunction(position)
        assert parts is not None
        tight_position = parts[0]
        if component == "2" and sh.kind in (ShapeKind.SWITCH, ShapeKind.NONREPLICATIVE):
            # Grow the tight tree to the address, then repeat the move there.
            chain = grow_to_actual(tight_position, sh.address, TOP)
            moves = tuple("1." + c for c in chain) + ("1." + rest,)
            case = "mirror-switch" if sh.kind is ShapeKind.SWITCH else "mirror-move"
            return replace(state, last_case=case), moves
        return replace(state, last_case=None), ()


@dataclass(frozen=True)
class _R2State:
    fmap: tuple[tuple[str, str], ...]
    last_case: str | None = None


def _freeze(mapping: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(mapping.items()))


class RemapStrategy:
    """Map-maintaining strategy for compounds of the form or(cbr_l(not(A)), tbr_t(A)).

    The tree of the tight component (grown by the adversary) is shadowed
    by the mapping ``f`` from its outer nodes to loose-side addresses.
    ``react`` sees only legal positions.  Subclasses may override the
    replication handler; a deliberately broken override is used as a
    sensitivity fixture by the test suite.
    """

    def init(self) -> _R2State:
        return _R2State(fmap=(("", ""),))

    def _on_replication(self, f: dict[str, str], w: str) -> None:
        v = f.pop(w)
        f[w + "0"] = v + "0"
        f[w + "1"] = v + "1"

    def react(self, state: _R2State, position: Run, latest: LabMove | None) -> tuple[_R2State, tuple[str, ...]]:
        if latest is None:
            return state, ()
        component, rest = latest.move[0], latest.move[2:]
        sh = parse_move(rest)
        f = dict(state.fmap)
        if component == "2" and sh.kind is ShapeKind.REPLICATIVE:
            self._on_replication(f, sh.address)
            return replace(state, fmap=_freeze(f), last_case="split-map"), ()
        if component == "2" and sh.kind is ShapeKind.SWITCH:
            parts = split_disjunction(position)
            assert parts is not None
            tree = actual_nodes(parts[1], BOT)
            target = tree.zero_outer_from(sh.address)
            return replace(state, last_case="mirror-switch"), ("1." + f[target],)
        if component == "2" and sh.kind is ShapeKind.NONREPLICATIVE:
            targets = sorted(x for x in f if x.startswith(sh.address))
            moves = tuple(f"1.{f[x]}.{sh.payload}" for x in targets)
            return replace(state, last_case="broadcast-move"), moves
        if component == "1" and sh.kind is ShapeKind.NONREPLICATIVE:
            w = sh.address
            extended = sorted(x for x, v in f.items() if v != w and w.startswith(v))
            if extended:
                # Unique by prefix-freeness: the adversary moved strictly
                # below some node's address.  Pad that address with zeros
                # past the move; relay only if the move sat on its ray.
                x = extended[0]
                tail = w[len(f[x]):]
                f[x] = f[x] + "0" * len(tail)
                moves = (f"2.{x}.{sh.payload}",) if "1" not in tail else ()
                return replace(state, fmap=_freeze(f), last_case="absorb-move"), moves
            targets = sorted(x for x, v in f.items() if v.startswith(w))
            moves = tuple(f"2.{x}.{sh.payload}" for x in targets)
            return replace(state, last_case="reflect-move"), moves
        return replace(state, last_case=None), ()


class _Scripted:
    def __init__(self, script: Sequence[str]) -> None:
        self._script = tuple(script)

    def init(self) -> int:
        return 0

    def react(self, state: int, position: Run, latest: LabMove | None) -> tuple[int, tuple[str, ...]]:
        if state < len(self._script):
            return state + 1, (self._script[state],)
        return state, ()


def scripted_adversary(script: Sequence[str]):
    """Plays the given moves one per reaction (legal or not), then passes."""
    return _Scripted(script)


class _PassStrategy:
    def init(self) -> None:
        return None

    def react(self, state: None, position: Run, latest: LabMove | None) -> tuple[None, tuple[str, ...]]:
        return state, ()


def pass_strategy():
    """Never moves; useful as a null machine."""
    return _PassStrategy()


class _RandomAdversary:
    def __init__(self, game: Game, seed: int, bounds: EnumBounds, budget: int, pass_probability: float) -> None:
        self._game = game
        self._seed = seed
        self._bounds = bounds
        self._budget = budget
        self._pass_probability = pass_probability

    def init(self) -> tuple[random.Random, int]:
        return random.Random(self._seed), 0

    def react(self, state: tuple[random.Random, int], position: Run, latest: LabMove | None):
        rng, made = state
        if made >= self._budget:
            return state, ()
        if rng.random() < self._pass_probability:
            return state, ()
        options = sorted(self._game.legal_moves(position, BOT, self._bounds))
        if not options:
            return state, ()
        return (rng, made + 1), (options[rng.randrange(len(options))],)


def random_adversary(game: Game, seed: int, bounds: EnumBounds, budget: int, pass_probability: float = 0.25):
    """Seeded adversary: passes with fixed probability, else plays a
    uniformly chosen legal move within bounds, up to ``budget`` moves.
    Fully determined by the seed."""
    return _RandomAdversary(game, seed, bounds, budget, pass_probability)


@dataclass(frozen=True)
class StepNote:
    """Annotation for one machine reaction (one batch)."""

    reacted_to: int  # index in the run of the adversary move reacted to
    case: str | None
    fmap: tuple[tuple[str, str], ...] | None
    emitted: int


@dataclass(frozen=True)
class Trace:
    """A completed interaction: run, per-batch notes, outcome, offender."""

    game_name: str
    moves: Run
    notes: tuple[StepNote, ...]
    outcome: Player
    offender: Offender | None
    truncated: bool = False


def run_interaction(machine, env, game: Game, max_steps: int) -> Trace:
    """Alternate environment and machine reactions from the empty run.

    Environment moves carry the environment label, machine moves the
    machine label.  Stops when the environment passes or ``max_steps``
    labeled moves have been recorded (recorded as truncation, not an
    error).  After the first offence only the environment is asked.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    run: Run = ()
    notes: list[StepNote] = []
    first_offender: Offender | None = None
    truncated = False
    m_state = machine.init()
    e_state = env.init()
    latest_for_env: LabMove | None = None

    def append(lm: LabMove) -> bool:
        nonlocal run, first_offender, truncated
        if len(run) >= max_steps:
            truncated = True
            return False
        if first_offender is None and not game.extend_legal(run, lm):
            first_offender = Offender(len(run), lm.label)
        run = run + (lm,)
        return True

    running = True
    while running:
        e_state, env_moves = env.react(e_state, run, latest_for_env)
        if not env_moves:
            break
        for move in env_moves:
            if not append(LabMove(BOT, move)):
                running = False
                break
            if first_offender is not None:
                continue
            m_state, machine_moves = machine.react(m_state, run, run[-1])
            notes.append(
                StepNote(
                    reacted_to=len(run) - 1,
                    case=getattr(m_state, "last_case", None),
                    fmap=getattr(m_state, "fmap", None),
                    emitted=len(machine_moves),
                )
            )
            for reply in machine_moves:
                if not append(LabMove(TOP, reply)):
                    running = False
                    break
            if not running:
                break
        latest_for_env = run[-1] if run and run[-1].label is TOP else None

    outcome = game.winner(run) if first_offender is None else neg_player(first_offender.culprit)
    return Trace(game.name, run, tuple(notes), outcome, first_offender, truncated)


def exhaustive_adversaries(game: Game, machine, bounds: EnumBounds, budget: int,
                           max_steps: int = 64) -> Iterator[Trace]:
    """The machine's play against every adversary of at most ``budget`` moves.

    An adversary plays, after each machine response, one of the legal
    moves within bounds or a pass; passing ends the play, so adversaries
    are exactly the scripts of at most ``budget`` such moves, and a
    play's last position is where its script's next move is chosen.
    Scripts are walked depth-first in ascending move order, and each is
    played once from the empty run; a truncated play has no children.
    Deterministic and duplicate-free; nothing is cached.
    """
    stack: list[tuple[str, ...]] = [()]
    while stack:
        script = stack.pop()
        trace = run_interaction(machine, scripted_adversary(script), game, max_steps)
        # Children are found before the yield, so the time a consumer sees
        # between two traces covers one play and its own legal_moves call.
        if len(script) < budget and not trace.truncated:
            options = sorted(game.legal_moves(trace.moves, BOT, bounds))
            stack.extend(script + (m,) for m in reversed(options))
        yield trace
