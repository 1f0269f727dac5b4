"""Translation compounds, trace audits and batch verification drivers.

The interaction loop (``run_interaction``, recording a ``Trace``) and
the exhaustive adversary enumerator live in ``strategy``; the first two
are re-exported here.

``verify_translation`` builds one of the two translation compounds over
any base game, plays the matching routine against every exhaustive
adversary, and audits each trace: machine-won, machine never the first
offender, the decisive projections of the two components mirror each
other, and (for the map-maintaining routine) the node map stays
prefix-free with domain equal to the tight component's outer nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .core import (
    BOT,
    TOP,
    Player,
    Ray,
    Run,
    flip_labels,
    format_run,
    project,
)
from .delay import MAX_RUN_LEN, is_static, static_and_lemma
from .games import (
    EnumBounds,
    Game,
    PreconditionError,
    disjoin,
    negate,
    offender,
    split_disjunction,
)
from .recurrence import (
    ALL_KINDS,
    LOOSE_CORECURRENCE,
    LOOSE_RECURRENCE,
    TIGHT_CORECURRENCE,
    TIGHT_RECURRENCE,
    actual_nodes,
    make_recurrence,
    switches,
)
from .strategy import (
    MirrorStrategy,
    RemapStrategy,
    Trace,
    exhaustive_adversaries,
    fmap_prefix_free,
    run_interaction,
)


class Direction(enum.Enum):
    TIGHT_TO_LOOSE = "tight-to-loose"
    LOOSE_TO_TIGHT = "loose-to-tight"


# The corecurrence and recurrence kinds of each direction's compound
# ``or(co(not(A)), rec(A))``.
COMPOUND_KINDS = {
    Direction.TIGHT_TO_LOOSE: (TIGHT_CORECURRENCE, LOOSE_RECURRENCE),
    Direction.LOOSE_TO_TIGHT: (LOOSE_CORECURRENCE, TIGHT_RECURRENCE),
}


def translation_compound(base: Game, direction: Direction) -> Game:
    """The compound game the corresponding translation routine plays."""
    co, rec = COMPOUND_KINDS[direction]
    return disjoin(make_recurrence(negate(base), co), make_recurrence(base, rec))


def strategy_for(compound: Game, direction: Direction):
    """The translation strategy for ``direction``; ``compound`` is unused."""
    return MirrorStrategy() if direction is Direction.TIGHT_TO_LOOSE else RemapStrategy()


def _delay_pair(gamma: Run, delta: Run, p: Player) -> str:
    """A swap as the diagnostics print it, e.g. ``<T"a", B"b"> / <B"b", T"a"> for T``."""
    return f"{format_run(gamma)} / {format_run(delta)} for {p.value}"


def audit_trace(trace: Trace, direction: Direction, game: Game) -> tuple[str, ...]:
    """Check one trace against the routine invariants; returns violations.
    A loose-to-tight trace's notes must hold :class:`RemapStrategy` states.
    A truncated trace is judged only on its offender and its node maps."""
    problems: list[str] = []
    if trace.outcome is not TOP and not trace.truncated:
        problems.append("outcome: machine did not win")
    # The rest is judged by the recomputed offender, so a wrong record
    # cannot send an illegal run to the split below.
    first = offender(game, trace.moves)
    if first != trace.offender:
        problems.append("offender: recorded offender disagrees with recomputation")
    if first is not None:
        if first.culprit is TOP:
            problems.append("offender: machine made the first illegal move")
        return tuple(problems)

    if not trace.truncated:  # a play cut off mid-reply has no final projections
        parts = split_disjunction(trace.moves)
        assert parts is not None  # legal compound runs always split
        sigma, pi = parts
        sigma_switches, pi_switches = switches(sigma, TOP), switches(pi, BOT)
        sigma_ray = Ray(sigma_switches[-1] if sigma_switches else "")
        pi_ray = Ray(pi_switches[-1] if pi_switches else "")
        if direction is Direction.TIGHT_TO_LOOSE:
            if sigma_ray != pi_ray:
                problems.append("identity: components disagree on the last switch")
            if project(sigma, pi_ray) != flip_labels(project(pi, pi_ray)):
                problems.append("identity: decisive projections do not mirror")
        else:
            if len(sigma_switches) != len(pi_switches):
                problems.append("identity: switch counts differ between components")
            if project(sigma, sigma_ray) != flip_labels(project(pi, pi_ray)):
                problems.append("identity: decisive projections do not mirror")
    for note in trace.notes if direction is Direction.LOOSE_TO_TIGHT else ():
        fmap = note.state.fmap
        if not fmap_prefix_free(fmap):
            problems.append(f"fmap: values not prefix-free after step {note.reacted_to}")
            break
        prefix = trace.moves[: note.reacted_to + 1]
        prefix_parts = split_disjunction(prefix)
        assert prefix_parts is not None
        expected = actual_nodes(prefix_parts[1], BOT).outer()
        if frozenset(k for k, _ in fmap) != expected:
            problems.append(f"fmap: domain is not the outer nodes after step {note.reacted_to}")
            break
    return tuple(problems)


@dataclass(frozen=True)
class Failure:
    kind: str
    detail: str
    trace: Trace | None = None


@dataclass(frozen=True)
class VerificationReport:
    """What a verification run checked and found.  ``bounds`` are the
    bounds it was given: ``verify_translation`` reads only their address
    bound and caps its plays at ``max_steps``, so there ``max_run_len`` is
    recorded but bounds nothing."""

    game: str
    bounds: EnumBounds
    adversaries: int
    failures: tuple[Failure, ...] = field(default=())
    truncated: int = 0  # plays cut off at the step cap

    @property
    def ok(self) -> bool:
        return not self.failures


def _require_static(base: Game, address_bound: int, n: int, bound_name: str) -> None:
    """Both drivers' precheck of their bound ``n``, called ``bound_name`` in
    messages: refuse an n not under ``MAX_RUN_LEN``, since the base is
    checked one move past it, then a base that is not static at n + 1
    within ``address_bound``, naming a counterexample swap."""
    if n >= MAX_RUN_LEN:
        raise PreconditionError(f"{bound_name} {n} leaves no room to check the base one move "
                                f"past it; use at most {MAX_RUN_LEN - 1}")
    verdict = is_static(base, EnumBounds(address_bound, n + 1))
    if not verdict.static:
        pair = _delay_pair(*verdict.counterexample)
        raise PreconditionError(f"base game {base.name!r} is not static; counterexample: {pair}")


def verify_translation(
    base: Game,
    direction: Direction,
    bounds: EnumBounds,
    budget: int,
    max_steps: int = 64,
) -> VerificationReport:
    """Play the translation routine against every exhaustive adversary.

    The base must be static one move past the step cap, over every move it
    offers within the address bound (the delay scan's default pool): no
    play is longer than ``max_steps``, and static at ``max_steps + 1``
    covers the base's illegality lemma at ``max_steps`` too.  A base that
    is not, and a step cap not under ``MAX_RUN_LEN``, raise
    :class:`PreconditionError`.  Every resulting trace is audited; the
    report aggregates all violations.  Only ``bounds.max_address_len`` is
    read: plays are capped by ``max_steps`` and adversaries by ``budget``,
    whatever ``bounds.max_run_len`` says.
    """
    _require_static(base, bounds.max_address_len, max_steps, "step cap")
    compound = translation_compound(base, direction)
    machine = strategy_for(compound, direction)
    failures: list[Failure] = []
    count = truncated = 0
    for trace in exhaustive_adversaries(compound, machine, bounds, budget, max_steps=max_steps):
        count += 1
        truncated += trace.truncated
        for problem in audit_trace(trace, direction, compound):
            failures.append(Failure("trace-audit", problem, trace))
    return VerificationReport(compound.name, bounds, count, tuple(failures), truncated)


def verify_static_preservation(base: Game, bounds: EnumBounds) -> VerificationReport:
    """Static preservation and illegality propagation for all four kinds.

    A run bound n under 2 (no swap fits, so every check would pass
    vacuously) or not under ``MAX_RUN_LEN``, and a base not static at n + 1
    raise :class:`PreconditionError`.  That covers the base's own lemma at
    n: a violation, then an illegal adversary move, is a counterexample at
    n + 1.  So a report that is not ok names a recurrence's failure.
    """
    if bounds.max_run_len < 2:
        raise PreconditionError(f"run bound {bounds.max_run_len} holds no swap; use at least 2")
    _require_static(base, bounds.max_address_len, bounds.max_run_len, "run bound")
    failures: list[Failure] = []
    for kind in ALL_KINDS:
        rec = make_recurrence(base, kind)
        verdict, lemma = static_and_lemma(rec, bounds)
        if not verdict.static:
            pair = _delay_pair(*verdict.counterexample)
            failures.append(Failure("static-preservation", f"{rec.name}: counterexample {pair}"))
        for gamma, delta, p in lemma.violations:
            detail = (f"{rec.name}: delay pair {_delay_pair(gamma, delta, p)}"
                      f" (a shortest one of {lemma.violation_count} violations)")
            failures.append(Failure("illegality-lemma", detail))
    return VerificationReport(base.name, bounds, 0, tuple(failures))
