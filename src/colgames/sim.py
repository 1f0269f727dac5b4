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
    ShapeKind,
    flip_labels,
    parse_move,
    project,
)
from .delay import is_static, static_and_lemma
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
    last_switch_stem,
    make_recurrence,
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


def _switch_count(run: Run, structural: Player) -> int:
    return sum(
        1
        for lm in run
        if lm.label is structural and parse_move(lm.move).kind is ShapeKind.SWITCH
    )


def audit_trace(trace: Trace, direction: Direction, game: Game) -> tuple[str, ...]:
    """Check one trace against the routine invariants; returns violations."""
    problems: list[str] = []
    if trace.outcome is not TOP:
        problems.append("outcome: machine did not win")
    if offender(game, trace.moves) != trace.offender:
        problems.append("offender: recorded offender disagrees with recomputation")
    if trace.offender is not None and trace.offender.culprit is TOP:
        problems.append("offender: machine made the first illegal move")
    if trace.offender is not None:
        return tuple(problems)

    parts = split_disjunction(trace.moves)
    assert parts is not None  # legal compound runs always split
    sigma, pi = parts
    sigma_ray = Ray(last_switch_stem(sigma, TOP))
    pi_ray = Ray(last_switch_stem(pi, BOT))
    if direction is Direction.TIGHT_TO_LOOSE:
        if sigma_ray != pi_ray:
            problems.append("identity: components disagree on the last switch")
        if project(sigma, pi_ray) != flip_labels(project(pi, pi_ray)):
            problems.append("identity: decisive projections do not mirror")
    else:
        if _switch_count(sigma, TOP) != _switch_count(pi, BOT):
            problems.append("identity: switch counts differ between components")
        if project(sigma, sigma_ray) != flip_labels(project(pi, pi_ray)):
            problems.append("identity: decisive projections do not mirror")
        for note in trace.notes:
            if note.fmap is None:
                continue
            if not fmap_prefix_free(note.fmap):
                problems.append(f"fmap: values not prefix-free after step {note.reacted_to}")
                break
            prefix = trace.moves[: note.reacted_to + 1]
            prefix_parts = split_disjunction(prefix)
            assert prefix_parts is not None
            expected = actual_nodes(prefix_parts[1], BOT).outer()
            if frozenset(k for k, _ in note.fmap) != expected:
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
    game: str
    bounds: EnumBounds
    adversaries: int
    failures: tuple[Failure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_translation(
    base: Game,
    direction: Direction,
    bounds: EnumBounds,
    budget: int,
    machine=None,
    max_steps: int = 64,
) -> VerificationReport:
    """Play the translation routine against every exhaustive adversary.

    The base must be static; this is verified up front over runs of
    length up to 4 (plenty for desk-scale bases, and independent of the
    interaction bound in ``bounds``), and violating bases abort with a
    diagnostic.  Every resulting trace is audited; the report aggregates
    all violations.
    """
    precheck = EnumBounds(bounds.max_address_len, min(bounds.max_run_len, 4))
    verdict = is_static(base, precheck)
    if not verdict.static:
        raise PreconditionError(
            f"base game {base.name!r} is not static; counterexample: {verdict.counterexample}"
        )
    compound = translation_compound(base, direction)
    mach = machine if machine is not None else strategy_for(compound, direction)
    failures: list[Failure] = []
    count = 0
    for trace in exhaustive_adversaries(compound, mach, bounds, budget, max_steps=max_steps):
        count += 1
        for problem in audit_trace(trace, direction, compound):
            failures.append(Failure("trace-audit", problem, trace))
    return VerificationReport(compound.name, bounds, count, tuple(failures))


def verify_static_preservation(base: Game, bounds: EnumBounds) -> VerificationReport:
    """Static preservation and illegality propagation for all four kinds.

    A non-static base is reported as a precondition failure, not as a
    property violation.
    """
    base_verdict = is_static(base, bounds)
    if not base_verdict.static:
        failure = Failure(
            "precondition",
            f"base game {base.name!r} is not static; counterexample: {base_verdict.counterexample}",
        )
        return VerificationReport(base.name, bounds, 0, (failure,))
    failures: list[Failure] = []
    for kind in ALL_KINDS:
        rec = make_recurrence(base, kind)
        verdict, lemma = static_and_lemma(rec, bounds)
        if not verdict.static:
            failures.append(
                Failure("static-preservation", f"{rec.name}: {verdict.counterexample}")
            )
        for gamma, delta, p in lemma.violations:
            failures.append(
                Failure(
                    "illegality-lemma",
                    f"{rec.name}: delay pair {gamma} / {delta} for {p.name}"
                    f" (a shortest one of {lemma.violation_count} violations)",
                )
            )
    return VerificationReport(base.name, bounds, 0, tuple(failures))
