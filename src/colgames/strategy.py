"""Event-driven strategies, the interaction loop and the adversary enumerator.

A strategy is an object with ``init() -> state`` and
``react(state, position) -> (state, moves)``.  The harness calls
``react`` with the run so far and appends the returned moves, attributed
to the strategy's side, as one batch.  Reacting with an empty batch is a
pass.  States are strategy-private.  A translation machine's state is
exactly its books: the mirror's is its tight tree, the map-keeper's is
its node map itself, a sorted tuple of pairs whose keys are the tight
tree's outer nodes, and the trace audit reads that tuple.  So a reply
depends only on the state and the environment's latest move,
``position[-1]``; a reaction that changes no book returns the state it
was given, so states are hashable values, equal exactly when the books
are.  Each trace note keeps the state the machine's reaction returned.
The random adversary keeps the game state at its last move, so it steps
each move once.

MirrorStrategy wins "tight-co of not-A  or  loose of A": it mirrors every move
of one component into the other at the same tree address, growing the
tight component's tree with replications first when needed.

RemapStrategy wins "loose-co of not-A  or  tight of A": the tight component's
tree lives on the adversary's side, so the machine maintains a mapping
``f`` from that tree's outer nodes to loose-side addresses, kept
pairwise prefix-free, and translates moves through it.

``run_interaction`` pits a reactive machine strategy against an
environment strategy over a game, recording a trace: the run, one
note per machine reaction, the outcome and the first offender.
The environment moves first in each round; the play ends when the
environment passes (the machine is reactive, so that is a mutual pass)
or when the step limit is hit.  A local generator asks both sides and
yields the play's moves in order; one loop over it applies the step
limit and alone decides legality: it records the first offender, which
decides the outcome, and the generator stops asking the machine from
then on, so a machine's ``react`` sees only legal positions.
``exhaustive_adversaries`` plays the machine against every scripted
adversary up to a move budget, each through that one loop, and yields
the traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import BOT, TOP, LabMove, Player, Run, ShapeKind, neg_player, parse_move
from .games import EnumBounds, Game, Offender, State
from .recurrence import NodeTree


def grow_to_actual(tree: NodeTree, w: str) -> tuple[tuple[str, ...], NodeTree]:
    """Replication moves making ``w`` an actual node of ``tree``, and the grown tree.

    Replicates each proper prefix of ``w`` that ``replicate`` accepts (the
    outer ones), from the root down (each prefix is then actual, so each
    step is legal).  No moves when ``w`` is already actual.
    """
    chain: list[str] = []
    for u in (w[:k] for k in range(len(w))):
        if (grown := tree.replicate(u)) is not None:
            chain.append(u + ":")
            tree = grown
    return tuple(chain), tree


def fmap_prefix_free(items: Iterable[tuple[str, str]]) -> bool:
    """Do the mapped values of distinct nodes avoid prefixing each other?"""
    pairs = list(items)
    for n1, v1 in pairs:
        for n2, v2 in pairs:
            if n1 != n2 and v2.startswith(v1):
                return False
    return True


class MirrorStrategy:
    """Mirror strategy for or(cbr_t(not(A)), tbr_l(A)); ``react`` sees only legal positions.

    Its state is the tight-co tree.  Only the machine replicates there
    (the environment offends if it does and is not answered), so the
    machine's replies grow it.
    """

    def init(self) -> NodeTree:
        return NodeTree()

    def react(self, tree: NodeTree, position: Run) -> tuple[NodeTree, tuple[str, ...]]:
        move = position[-1].move
        component, rest = move[0], move[2:]
        sh = parse_move(rest)
        if component == "1" and sh.kind is ShapeKind.NONREPLICATIVE:
            # Adversary moved in the tight-co component: copy it verbatim
            # into the loose component, where any address is available.
            return tree, ("2." + rest,)
        if component == "2" and sh.kind in (ShapeKind.SWITCH, ShapeKind.NONREPLICATIVE):
            # Grow the tight tree to the address, then repeat the move there.
            chain, tree = grow_to_actual(tree, sh.address)
            return tree, tuple("1." + c for c in chain) + ("1." + rest,)
        return tree, ()


_NodeMap = tuple[tuple[str, str], ...]


def _freeze(mapping: dict[str, str]) -> _NodeMap:
    return tuple(sorted(mapping.items()))


class RemapStrategy:
    """Map-maintaining strategy for compounds of the form or(cbr_l(not(A)), tbr_t(A)).

    Its state is its node map ``f``, sorted: the pairs from the outer
    nodes of the tight component's tree (grown by the adversary) to
    loose-side addresses, so the tree is kept only as the map's keys.
    ``react`` sees only legal positions.
    """

    def init(self) -> _NodeMap:
        return (("", ""),)

    def react(self, state: _NodeMap, position: Run) -> tuple[_NodeMap, tuple[str, ...]]:
        move = position[-1].move
        component, rest = move[0], move[2:]
        sh = parse_move(rest)
        f = dict(state)
        if component == "2" and sh.kind is ShapeKind.REPLICATIVE:
            # The replicated node's address splits between its two children.
            w, v = sh.address, f.pop(sh.address)
            f[w + "0"], f[w + "1"] = v + "0", v + "1"
            return _freeze(f), ()
        if component == "2" and sh.kind is ShapeKind.SWITCH:
            # To the one outer node among a, a0, a00, ...; ValueError if none or two.
            a = sh.address
            target, = (x for x in f if x.startswith(a) and not x[len(a):].strip("0"))
            return state, ("1." + f[target],)
        if component == "2" and sh.kind is ShapeKind.NONREPLICATIVE:
            targets = sorted(x for x in f if x.startswith(sh.address))
            return state, tuple(f"1.{f[x]}.{sh.payload}" for x in targets)
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
                return _freeze(f), moves
            targets = sorted(x for x, v in f.items() if v.startswith(w))
            return state, tuple(f"2.{x}.{sh.payload}" for x in targets)
        return state, ()


class _Scripted:
    def __init__(self, script: Sequence[str]) -> None:
        self._script = tuple(script)

    def init(self) -> int:
        return 0

    def react(self, state: int, position: Run) -> tuple[int, tuple[str, ...]]:
        if state < len(self._script):
            return state + 1, (self._script[state],)
        return state, ()


def scripted_adversary(script: Sequence[str]):
    """Plays the given moves one per reaction (legal or not), then passes."""
    return _Scripted(script)


def pass_strategy():
    """Never moves; useful as a null machine."""
    return _Scripted(())


class _RandomAdversary:
    def __init__(self, game: Game, seed: int, bounds: EnumBounds, budget: int, pass_probability: float) -> None:
        self._game = game
        self._seed = seed
        self._max_address_len = bounds.max_address_len
        self._budget = budget
        self._pass_probability = pass_probability

    def init(self) -> tuple[random.Random, int, int, State]:
        return random.Random(self._seed), 0, 0, self._game.start()

    def react(self, state: tuple[random.Random, int, int, State], position: Run):
        rng, made, seen, current = state
        if made >= self._budget or rng.random() < self._pass_probability:
            return state, ()
        current = self._game.replay(position[seen:], current)
        options = () if current is None else sorted(self._game.moves(current, BOT, self._max_address_len))
        if not options:
            return state, ()
        return (rng, made + 1, len(position), current), (options[rng.randrange(len(options))],)


def random_adversary(game: Game, seed: int, bounds: EnumBounds, budget: int, pass_probability: float = 0.25):
    """Seeded adversary: passes with fixed probability, else plays a
    uniformly chosen legal move within bounds, up to ``budget`` moves.
    Fully determined by the seed; it steps each move of the run once.
    Only ``bounds.max_address_len`` is read: ``budget`` and the play's
    step cap bound its moves, whatever ``bounds.max_run_len`` says."""
    return _RandomAdversary(game, seed, bounds, budget, pass_probability)


@dataclass(frozen=True)
class StepNote:
    """Note on one machine reaction (one batch)."""

    reacted_to: int  # index in the run of the adversary move reacted to
    state: object  # the state the machine's reaction returned


@dataclass(frozen=True)
class Trace:
    """A completed interaction: run, per-batch notes, outcome, offender."""

    moves: Run
    notes: tuple[StepNote, ...]
    outcome: Player
    offender: Offender | None
    truncated: bool = False


def run_interaction(machine, env, game: Game, max_steps: int) -> Trace:
    """Alternate environment and machine reactions from the empty run.

    ``play`` yields each environment move, labelled so, then, while the
    run has no offender, the machine's labelled reply batch.  The loop
    appends them and stops when the environment passes or ``max_steps``
    moves have been recorded (recorded as truncation, not an error).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    run: Run = ()
    notes: list[StepNote] = []
    first_offender: Offender | None = None
    truncated = False

    def play() -> Iterator[LabMove]:
        # Reads ``run`` and ``first_offender`` as the loop below leaves them.
        m_state, e_state = machine.init(), env.init()
        while True:
            e_state, env_moves = env.react(e_state, run)
            if not env_moves:
                return
            for move in env_moves:
                yield LabMove(BOT, move)
                if first_offender is None:
                    m_state, machine_moves = machine.react(m_state, run)
                    notes.append(StepNote(len(run) - 1, m_state))
                    yield from (LabMove(TOP, reply) for reply in machine_moves)

    for lm in play():
        if len(run) >= max_steps:
            truncated = True
            break
        if first_offender is None and not game.extend_legal(run, lm):
            first_offender = Offender(len(run), lm.label)
        run = run + (lm,)

    outcome = game.winner(run) if first_offender is None else neg_player(first_offender.culprit)
    return Trace(run, tuple(notes), outcome, first_offender, truncated)


def exhaustive_adversaries(game: Game, machine, max_address_len: int, budget: int,
                           max_steps: int = 64) -> Iterator[Trace]:
    """The machine's play against every adversary of at most ``budget`` moves.

    An adversary plays, after each machine response, one of the legal
    moves at addresses of at most ``max_address_len`` bits, or a pass;
    passing ends the play, so adversaries are exactly the scripts of at
    most ``budget`` such moves, and a play's last position is where its
    script's next move is chosen.  Scripts are walked depth-first in
    ascending move order, and each is played once from the empty run; a
    truncated play has no children.  Deterministic and duplicate-free;
    nothing is cached.  ``budget`` and ``max_steps`` bound the plays.
    """
    stack: list[tuple[str, ...]] = [()]
    while stack:
        script = stack.pop()
        trace = run_interaction(machine, scripted_adversary(script), game, max_steps)
        # Children are found before the yield, so the time a consumer sees
        # between two traces covers one play and its own legal_moves call.
        if len(script) < budget and not trace.truncated:
            options = sorted(game.legal_moves(trace.moves, BOT, max_address_len))
            stack.extend(script + (m,) for m in reversed(options))
        yield trace
