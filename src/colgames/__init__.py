"""Engine for Computability Logic constant games.

Implements runs and their bitstring-ray projections, finite tree games
with negation and parallel disjunction, tight and loose toggling-branching
(co)recurrences, the move-delay relation with brute-force static checking,
the two reactive translation strategies, and an interaction harness with
exhaustive desk-scale verification drivers.
"""

from .core import (
    BOT,
    TOP,
    LabMove,
    Player,
    Ray,
    Run,
    flip_labels,
    format_run,
    label_subsequence,
    neg_player,
    parse_move,
    project,
    ray_classes,
)
from .delay import (
    LemmaReport,
    StaticVerdict,
    check_illegality_lemma,
    enumerate_delays,
    is_delay,
    is_static,
    move_pool,
)
from .games import (
    EnumBounds,
    FiniteGame,
    Game,
    GameNode,
    Offender,
    disjoin,
    leaf,
    negate,
    node,
    offender,
    split_disjunction,
    won_by,
)
from .recurrence import (
    ALL_KINDS,
    LOOSE_CORECURRENCE,
    LOOSE_RECURRENCE,
    TIGHT_CORECURRENCE,
    TIGHT_RECURRENCE,
    NodeTree,
    RecurrenceKind,
    Version,
    actual_nodes,
    loose_extension_legal,
    make_recurrence,
    tight_extension_legal,
)
from .sim import (
    Direction,
    PreconditionError,
    Trace,
    VerificationReport,
    audit_trace,
    run_interaction,
    translation_compound,
    verify_static_preservation,
    verify_translation,
)
from .strategy import (
    MirrorStrategy,
    RemapStrategy,
    exhaustive_adversaries,
    fmap_prefix_free,
    grow_to_actual,
    pass_strategy,
    random_adversary,
    scripted_adversary,
)

__version__ = "0.1.0"
