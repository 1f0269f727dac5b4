"""Built-in desk-scale games used by the verification suites and the CLI.

All suite bases are depth <= 2 with at most two moves per node.  The
static ones are brute-force verified static by the test suite; the
first-mover game is the stock non-static example (whoever moves first
wins, so delaying the winner's move flips the outcome); the second-mover
game is static, yet swapping its two moves changes the winner.
"""

from __future__ import annotations

from .core import BOT, TOP, LabMove
from .games import FiniteGame, leaf, node


def leaf_top() -> FiniteGame:
    """No moves; the machine wins the only run."""
    return FiniteGame("leaf_top", leaf(TOP))


def leaf_bot() -> FiniteGame:
    return FiniteGame("leaf_bot", leaf(BOT))


def bot_choice() -> FiniteGame:
    """The machine wins unless the environment plays its one move."""
    return FiniteGame(
        "bot_choice", node(TOP, {LabMove(BOT, "b"): leaf(BOT)})
    )


def top_choice() -> FiniteGame:
    """The environment wins unless the machine plays its one move."""
    return FiniteGame(
        "top_choice", node(BOT, {LabMove(TOP, "a"): leaf(TOP)})
    )


def alternating() -> FiniteGame:
    """Depth two: the environment attacks, the machine can answer."""
    answer = node(BOT, {LabMove(TOP, "a"): leaf(TOP)})
    return FiniteGame("alternating", node(TOP, {LabMove(BOT, "b"): answer}))


def first_mover_wins() -> FiniteGame:
    """Not static: each player has a winning move, first one played decides."""
    return FiniteGame(
        "first_mover_wins",
        node(BOT, {LabMove(TOP, "a"): leaf(TOP), LabMove(BOT, "b"): leaf(BOT)}),
    )


def second_mover_wins() -> FiniteGame:
    """Static, yet its swap's two orders differ: when both players move,
    the second one wins."""
    a, b = LabMove(TOP, "a"), LabMove(BOT, "b")
    return FiniteGame("second_mover_wins",
                      node(TOP, {a: node(TOP, {b: leaf(BOT)}), b: node(TOP, {a: leaf(TOP)})}))


STATIC_SUITE: tuple[FiniteGame, ...] = (
    leaf_top(),
    bot_choice(),
    top_choice(),
    alternating(),
)

# The strategy-vs-adversary verification runs over the same bases; they
# are small enough that budget-3 exhaustive adversary trees stay cheap.
TRANSLATION_SUITE: tuple[FiniteGame, ...] = STATIC_SUITE


def suite_defs() -> dict[str, FiniteGame]:
    """All built-in games keyed by name, for the CLI's default defs."""
    games = list(STATIC_SUITE) + [second_mover_wins(), leaf_bot(), first_mover_wins()]
    return {g.name: g for g in games}
