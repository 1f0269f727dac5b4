"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles, without
going through the implementation paths under test.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from colgames import BOT, TOP, LabMove, RemapStrategy, label_subsequence
from colgames.delay import LemmaReport, StaticVerdict, _swaps
from colgames.games import Offender


class BrokenRemapStrategy(RemapStrategy):
    """Sensitivity fixture: the replication handler forgets to update the
    node map, so the map's domain drifts away from the outer nodes."""

    def _on_replication(self, f, w):
        pass

    def react(self, state, position, latest):
        try:
            return super().react(state, position, latest)
        except KeyError:
            # the stale map may lack entries; a real machine would crash,
            # for the harness test a silent pass is enough to keep playing
            return state, ()


def classify_move_brute(move: str) -> tuple[str, str, str]:
    """(kind, address, payload) by direct character inspection."""
    address = ""
    rest = move
    while rest and rest[0] in "01":
        address += rest[0]
        rest = rest[1:]
    if rest == "":
        return "switch", address, ""
    if rest == ":":
        return "replicative", address, ""
    if rest.startswith("."):
        return "nonreplicative", address, rest[1:]
    return "malformed", "", ""


def project_brute(run, stem: str):
    """Projection along stem + 000... using the brute classifier.

    Pads the stem with zeros out to the address length, which spells out
    "the address is an initial segment of the infinite string" directly.
    """
    out = []
    for lm in run:
        kind, address, payload = classify_move_brute(lm.move)
        if kind != "nonreplicative":
            continue
        padded = stem + "0" * max(0, len(address) - len(stem))
        if padded[: len(address)] == address:
            out.append(LabMove(lm.label, payload))
    return tuple(out)


def all_runs(pool_moves, max_len, labels=(TOP, BOT)):
    """Every run up to max_len whose moves come from the pool, both labels."""
    labmoves = [LabMove(p, m) for p in labels for m in pool_moves]
    for length in range(max_len + 1):
        for combo in itertools.product(labmoves, repeat=length):
            yield combo


def all_stems(max_len):
    for length in range(max_len + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def all_interleavings(seq_a, seq_b):
    """Every merge of two sequences preserving each one's internal order."""
    if not seq_a:
        yield tuple(seq_b)
        return
    if not seq_b:
        yield tuple(seq_a)
        return
    for rest in all_interleavings(seq_a[1:], seq_b):
        yield (seq_a[0],) + rest
    for rest in all_interleavings(seq_a, seq_b[1:]):
        yield (seq_b[0],) + rest


def is_delay_naive(delta, gamma, p):
    """Direct transcription of the delay conditions, quadratic scan."""
    from colgames import neg_player

    q = neg_player(p)

    def positions(run, player):
        return [i for i, lm in enumerate(run) if lm.label is player]

    def subseq(run, player):
        return tuple(lm for lm in run if lm.label is player)

    if subseq(delta, p) != subseq(gamma, p) or subseq(delta, q) != subseq(gamma, q):
        return False
    gp, gq = positions(gamma, p), positions(gamma, q)
    dp, dq = positions(delta, p), positions(delta, q)
    for i in range(len(gq)):
        for j in range(len(gp)):
            if gq[i] < gp[j] and not dq[i] < dp[j]:
                return False
    return True


def delay_profile(run, p):
    """For each of p's moves in order, how many adversary moves precede it."""
    out = []
    seen_other = 0
    for lm in run:
        if lm.label is p:
            out.append(seen_other)
        else:
            seen_other += 1
    return tuple(out)


class ReferenceRunTable:
    """Every run over a labmove pool up to a length bound, classified, as
    tuples: the reference for the library's swap scan.

    ``runs`` lists the runs level by level (short runs first);
    ``offenders[run]`` is the first offender or None and ``winners`` holds
    the winner of each legal run.  A pool of None stands for the game's
    probe pool.
    """

    def __init__(self, game, bounds, pool):
        if pool is None:
            pool = game.probe_moves(bounds)
        labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool]
        self.runs = []
        self.offenders = {}
        self.winners = {}
        level = [((), None)]
        while level:
            next_level = []
            for run, off in level:
                self.runs.append(run)
                self.offenders[run] = off
                if off is None:
                    self.winners[run] = game.winner(run)
                if len(run) >= bounds.max_run_len:
                    continue
                for lm in labmoves:
                    if off is None and not game.extend_legal(run, lm):
                        child_off = Offender(len(run), lm.label)
                    else:
                        child_off = off
                    next_level.append((run + (lm,), child_off))
            level = next_level

    def won(self, run, p):
        off = self.offenders[run]
        if off is not None:
            return off.culprit is not p
        return self.winners[run] is p

    def static_verdict(self):
        """The first swap (in table order) that p wins before but not after."""
        for gamma, delta, p in _swaps(self.runs):
            if self.won(gamma, p) and not self.won(delta, p):
                return StaticVerdict(False, (gamma, delta, p))
        return StaticVerdict(True)

    def lemma_report(self):
        violations = []
        pairs = 0
        for gamma, delta, p in _swaps(self.runs):
            off = self.offenders[delta]
            if off is None or off.culprit is not p:
                continue
            pairs += 1
            gamma_off = self.offenders[gamma]
            if gamma_off is None or gamma_off.culprit is not p:
                violations.append((gamma, delta, p))
        return LemmaReport(tuple(violations), pairs)


# Outcome codes of DenseRunTable, one byte per run: legal and won by T or
# B, or first offended by T or B.
WON_T, WON_B, OFF_T, OFF_B = range(4)
# The player who wins a run with each code: a legal run's winner, or the
# opponent of the culprit of an illegal one.
_WINNER = (TOP, BOT, BOT, TOP)


class DenseRunTable:
    """Every run over a labmove pool up to a length bound, one byte each:
    the dense reference for the library's swap scan, fast enough for the
    k^n runs of length 5 where ``ReferenceRunTable`` builds every tuple.

    A pool of None stands for the game's probe pool.  ``labmoves`` are
    the pool's moves labelled TOP followed by the same moves labelled
    BOT, so with ``k = 2 |pool|`` a digit ``d < |pool|`` is a TOP move.
    A run of length n is numbered by its digit string read in base k,
    first move most significant, and ``levels[n][id]`` is its code.  The
    levels shortest first, each in ascending id, list the runs in the
    order ``_swaps`` visits them; every swap of every run is visited.
    """

    def __init__(self, game, bounds, pool):
        if pool is None:
            pool = game.probe_moves(bounds)
        self.tops = len(pool)
        self.labmoves = [LabMove(TOP, m) for m in pool] + [LabMove(BOT, m) for m in pool]
        k = len(self.labmoves)
        self.levels = []
        level = bytearray(1)
        legal = {0: ()}
        for n in range(bounds.max_run_len + 1):
            for rid, run in legal.items():
                level[rid] = WON_T if game.winner(run) is TOP else WON_B
            self.levels.append(level)
            if n == bounds.max_run_len:
                break
            children = bytearray(k ** (n + 1))
            for d in range(k):
                children[d::k] = level
            legal_children = {}
            for rid, run in legal.items():
                for child, lm in enumerate(self.labmoves, rid * k):
                    if game.extend_legal(run, lm):
                        legal_children[child] = run + (lm,)
                    else:
                        children[child] = OFF_T if lm.label is TOP else OFF_B
            level, legal = children, legal_children

    def _run(self, n, rid):
        k = len(self.labmoves)
        return tuple(self.labmoves[rid // k ** (n - 1 - i) % k] for i in range(n))

    def _swap_ids(self):
        """``_swaps`` over the table: ``(n, level, gamma, delta, p)`` with
        gamma and delta ids in ``level``, the level of runs of length n.

        Swapping digits a and b at positions i and i+1 adds
        ``(b - a) * (k**(n-1-i) - k**(n-2-i))`` to a run's id.
        """
        tops, k = self.tops, len(self.labmoves)
        for n, level in enumerate(self.levels):
            steps = [k ** (n - 1 - i) - k ** (n - 2 - i) for i in range(n - 1)]
            for gamma, digits in enumerate(itertools.product(range(k), repeat=n)):
                for a, b, step in zip(digits, digits[1:], steps):
                    if a < tops:
                        if b >= tops:
                            yield n, level, gamma, gamma + (b - a) * step, TOP
                    elif b < tops:
                        yield n, level, gamma, gamma + (b - a) * step, BOT

    def static_verdict(self):
        """The first swap (in table order) that p wins before but not after."""
        for n, level, gamma, delta, p in self._swap_ids():
            if _WINNER[level[gamma]] is p and _WINNER[level[delta]] is not p:
                return StaticVerdict(False, (self._run(n, gamma), self._run(n, delta), p))
        return StaticVerdict(True)

    def lemma_report(self):
        violations = []
        pairs = 0
        for n, level, gamma, delta, p in self._swap_ids():
            offence = OFF_T if p is TOP else OFF_B
            if level[delta] != offence:
                continue
            pairs += 1
            if level[gamma] != offence:
                violations.append((self._run(n, gamma), self._run(n, delta), p))
        return LemmaReport(tuple(violations), pairs)


def delay_groups(table):
    """Runs of a delay run table grouped by label subsequences; delays only
    relate within groups."""
    groups = defaultdict(list)
    for run in table.runs:
        key = (label_subsequence(run, TOP), label_subsequence(run, BOT))
        groups[key].append(run)
    return groups.values()


def pairwise_static_scan(table):
    """Static verdict over every delay pair of the table, not just swaps."""
    for group in delay_groups(table):
        if len(group) < 2:
            continue
        profiles = {
            run: (delay_profile(run, TOP), delay_profile(run, BOT)) for run in group
        }
        for p_index, p in enumerate((TOP, BOT)):
            for gamma in group:
                if not table.won(gamma, p):
                    continue
                gamma_profile = profiles[gamma][p_index]
                for delta in group:
                    if delta == gamma:
                        continue
                    delta_profile = profiles[delta][p_index]
                    if all(d >= g for d, g in zip(delta_profile, gamma_profile)):
                        if not table.won(delta, p):
                            return StaticVerdict(False, (gamma, delta, p))
    return StaticVerdict(True)


def pairwise_lemma_scan(table):
    """Illegality-lemma report over every delay pair of the table."""
    violations = []
    pairs = 0
    for group in delay_groups(table):
        if len(group) < 2:
            continue
        profiles = {
            run: (delay_profile(run, TOP), delay_profile(run, BOT)) for run in group
        }
        for p_index, p in enumerate((TOP, BOT)):
            for delta in group:
                off = table.offenders[delta]
                if off is None or off.culprit is not p:
                    continue
                delta_profile = profiles[delta][p_index]
                for gamma in group:
                    if gamma == delta:
                        continue
                    gamma_profile = profiles[gamma][p_index]
                    if not all(d >= g for d, g in zip(delta_profile, gamma_profile)):
                        continue
                    pairs += 1
                    gamma_off = table.offenders[gamma]
                    if gamma_off is None or gamma_off.culprit is not p:
                        violations.append((gamma, delta, p))
    return LemmaReport(tuple(violations), pairs)


def chain_defs(depth):
    """A definitions file holding one game, ``deep``: a line of ``depth``
    moves, written out by hand so no JSON encoder limits its depth."""
    text = '{"winner": "T"}'
    for _ in range(depth):
        text = f'{{"winner": "T", "moves": [{{"label": "B", "move": "m", "child": {text}}}]}}'
    return f'{{"deep": {text}}}'


def first_difference(game_a, game_b, pool_moves, max_len):
    """First behavioral difference between two games over pool runs, or None.

    Compares extension legality edge by edge and winners on legal runs.
    """
    labmoves = [LabMove(p, m) for p in (TOP, BOT) for m in pool_moves]
    stack = [((), True)]
    while stack:
        run, legal = stack.pop()
        if legal:
            wa, wb = game_a.winner(run), game_b.winner(run)
            if wa is not wb:
                return ("winner", run, wa, wb)
        if len(run) >= max_len:
            continue
        for lm in labmoves:
            if not legal:
                stack.append((run + (lm,), False))
                continue
            la = game_a.extend_legal(run, lm)
            lb = game_b.extend_legal(run, lm)
            if la != lb:
                return ("legality", run + (lm,), la, lb)
            stack.append((run + (lm,), la))
    return None
