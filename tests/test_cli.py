"""Command-line interface: commands, exit codes, REPL."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from colgames import BOT, TOP, EnumBounds, LabMove, cli, sim
from colgames.cli import main
from colgames.dsl import elaborate
from colgames.files import TraceFile, dump_game_defs, dumps_trace, loads_trace

from _util import BrokenRemapStrategy, CountingGame, chain_defs, late

DATA = Path(__file__).parent / "data"
PROJECTION_TRACE = str(DATA / "projection_example.json")
SUITE_DEFS = str(DATA / "suite.json")


def write_trace(tmp_path, moves, name="t.json"):
    tf = TraceFile(
        game="adhoc",
        version="0.1.0",
        seed=None,
        bounds=None,
        moves=tuple(moves),
        outcome=TOP,
        offender=None,
    )
    path = tmp_path / name
    path.write_text(dumps_trace(tf))
    return str(path)


def assert_one_line_error(capsys):
    """Nothing on stdout and one line on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


class TestProject:
    def test_worked_example(self, capsys):
        assert main(["project", "--trace", PROJECTION_TRACE, "--ray", "0100"]) == 0
        assert capsys.readouterr().out.strip() == '<B"b1", T"b2", B"b4">'

    def test_bad_ray_is_a_format_error(self, capsys):
        assert main(["project", "--trace", PROJECTION_TRACE, "--ray", "01x"]) == 2

    def test_missing_file(self, capsys):
        assert main(["project", "--trace", "no/such/file.json", "--ray", "0"]) == 2

    def test_mistyped_trace_field_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(
            '{"game": "A", "version": "0.1.0", "outcome": "T", "moves": [],'
            ' "bounds": {"max_address_len": "x", "max_run_len": 5}}'
        )
        assert main(["project", "--trace", str(path), "--ray", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


class TestMalformedFiles:
    """A file the loaders cannot read exits 2 with one line on stderr."""

    _TRACE = '{"game": "A", "version": "0.1.0", "moves": [], "outcome": %s}'
    _DEFS = "static --defs FILE --game g"
    _PROJECT = "project --trace FILE --ray 0"
    # every command that reads a file: a trace, an adversary script or
    # game definitions
    _READERS = (
        "eval --game leaf_top --trace FILE",
        _PROJECT,
        "nodes --trace FILE",
        "delays --trace FILE --player T --enumerate",
        "simulate --direction tight-to-loose --atom bot_choice --adversary script:FILE",
        "static --game leaf_top --defs FILE",
        "play --game leaf_top --defs FILE",
    )

    @pytest.mark.parametrize(
        "command, data",
        [
            (_DEFS, b'{"g": {"winner": ["T"]}}'),
            (_DEFS, b'{"g": {"winner": "T", "moves": 5}}'),
            (_PROJECT, (_TRACE % "{}").encode()),
            (_DEFS, b'\xff\xfe{"g": {"winner": "T"}}'),
            (_PROJECT, b'\xff\xfe' + (_TRACE % '"T"').encode()),
            (_PROJECT, (_TRACE % '"T", "bounds": [2, 5]').encode()),
            (_PROJECT, (_TRACE % '"T", "offender": 0').encode()),
        ] + [(command, b"{") for command in _READERS],
        ids=["unhashable-winner", "moves-not-a-list", "unhashable-outcome",
             "defs-not-utf8", "trace-not-utf8", "bounds-not-an-object", "offender-not-an-object"]
        + ["truncated-" + command.split()[0] for command in _READERS],
    )
    def test_exits_two(self, command, data, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        argv = [arg.replace("FILE", str(path)) for arg in command.split()]
        assert main(argv) == 2
        assert_one_line_error(capsys)


class TestEval:
    def test_legal_empty_run(self, tmp_path, capsys):
        trace = write_trace(tmp_path, ())
        assert main(["eval", "--game", "tbr_t(leaf_top)", "--trace", trace]) == 0
        assert capsys.readouterr().out.strip() == "legal; winner: T"

    def test_illegal_run_reports_offender(self, tmp_path, capsys):
        trace = write_trace(tmp_path, (LabMove(TOP, "xyz"),))
        assert main(["eval", "--game", "tbr_t(leaf_top)", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "illegal; offender: index 0 by T" in out
        assert "won by B" in out

    def test_defs_file(self, tmp_path, capsys):
        trace = write_trace(tmp_path, (LabMove(BOT, "b"),))
        code = main(["eval", "--game", "bot_choice", "--defs", SUITE_DEFS, "--trace", trace])
        assert code == 0
        assert capsys.readouterr().out.strip() == "legal; winner: B"

    def test_offender_past_the_run_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(
            '{"game": "A", "version": "0.1.0", "outcome": "T", "moves": [],'
            ' "offender": {"index": 5, "player": "B"}}'
        )
        assert main(["eval", "--game", "tbr_t(leaf_top)", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_address_past_the_guard_exits_three(self, tmp_path, capsys):
        # 17 bits would split the rays into 131,072 class states
        trace = write_trace(tmp_path, (LabMove(BOT, "0" * 17 + ".b"),))
        assert main(["eval", "--game", "tbr_l(bot_choice)", "--trace", trace]) == 3
        assert_one_line_error(capsys)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        trace = write_trace(tmp_path, ())
        assert main(["eval", "--game", "tbr_t(leaf_top", "--trace", trace]) == 2

    def test_verdicts_agree_with_library_calls(self, tmp_path, capsys):
        from colgames import offender, won_by
        from colgames.dsl import elaborate, parse_game_expr
        from colgames.suite import suite_defs

        expr_text = "tbr_l(top_choice)"
        game = elaborate(parse_game_expr(expr_text), suite_defs())
        runs = [
            (),
            (LabMove(TOP, "1.a"), LabMove(BOT, "1")),
            (LabMove(BOT, ":"),),  # replication-shaped, illegal in loose
            (LabMove(TOP, "0.a"), LabMove(TOP, "0.a")),
        ]
        for i, run in enumerate(runs):
            trace = write_trace(tmp_path, run, f"agree{i}.json")
            assert main(["eval", "--game", expr_text, "--trace", trace]) == 0
            out = capsys.readouterr().out.strip()
            off = offender(game, run)
            if off is None:
                assert out == f"legal; winner: {game.winner(run).value}"
            else:
                winner = TOP if won_by(game, run, TOP) else BOT
                assert out == (
                    f"illegal; offender: index {off.index} by {off.culprit.value}; "
                    f"won by {winner.value}"
                )

    def test_unknown_atom_exit_code(self, tmp_path):
        trace = write_trace(tmp_path, ())
        assert main(["eval", "--game", "tbr_t(mystery)", "--trace", trace]) == 2


class TestNodes:
    def test_replicated_position(self, tmp_path, capsys):
        trace = write_trace(tmp_path, (LabMove(BOT, ":"), LabMove(BOT, "0:")))
        assert main(["nodes", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert 'actual: {"", "0", "00", "01", "1"}' in out
        assert 'outer:  {"00", "01", "1"}' in out

    def test_replication_off_the_tree_adds_no_node(self, tmp_path, capsys):
        # 0 is not a node of the empty tree, so the tight game refuses 0:
        # and the set printed must stay a tree
        trace = write_trace(tmp_path, (LabMove(BOT, "0:"),))
        assert main(["nodes", "--trace", trace]) == 0
        assert capsys.readouterr().out == 'actual: {""}\nouter:  {""}\n'

    def test_structural_flag(self, tmp_path, capsys):
        trace = write_trace(tmp_path, (LabMove(TOP, ":"),))
        assert main(["nodes", "--trace", trace, "--structural", "T"]) == 0
        assert '"0"' in capsys.readouterr().out


class TestDelays:
    def test_enumerate(self, tmp_path, capsys):
        trace = write_trace(tmp_path, (LabMove(TOP, "a"), LabMove(BOT, "b")))
        assert main(["delays", "--trace", trace, "--player", "T", "--enumerate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == ['<B"b", T"a">', '<T"a", B"b">']

    def test_check_yes_and_no(self, tmp_path, capsys):
        original = write_trace(tmp_path, (LabMove(TOP, "a"), LabMove(BOT, "b")), "o.json")
        delayed = write_trace(tmp_path, (LabMove(BOT, "b"), LabMove(TOP, "a")), "d.json")
        assert main(["delays", "--trace", original, "--player", "T", "--check", delayed]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["delays", "--trace", delayed, "--player", "T", "--check", original]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_guard_exit_code(self, tmp_path):
        trace = write_trace(tmp_path, tuple(LabMove(TOP, "a") for _ in range(9)))
        assert main(["delays", "--trace", trace, "--player", "T", "--enumerate"]) == 3

    def test_plain_value_error_is_not_a_precondition(self, tmp_path, monkeypatch):
        # Only PreconditionError means exit 3; any other ValueError is a
        # fault of the program and must not pass for a refused input.
        def broken(gamma, p):
            raise ValueError("internal fault")

        monkeypatch.setattr("colgames.cli.enumerate_delays", broken)
        trace = write_trace(tmp_path, (LabMove(TOP, "a"),))
        with pytest.raises(ValueError, match="internal fault"):
            main(["delays", "--trace", trace, "--player", "T", "--enumerate"])


class TestStatic:
    @pytest.mark.parametrize(
        "args",
        [
            ["--game", "bot_choice", "--max-run", "4", "--max-addr", "2"],
            ["--game", "tbr_l(top_choice)"],
            # bases whose legal swaps reach two different states, and a
            # recurrence of each, whose pool moves fall into classes of
            # several moves each, at the default bounds
            ["--game", "second_mover_wins"],
            ["--game", "first_mover_loses"],
            ["--game", "tbr_t(second_mover_wins)"],
            ["--game", "tbr_l(first_mover_loses)"],
        ],
        ids=lambda args: args[1],
    )
    def test_static_game(self, args, capsys):
        assert main(["static", *args]) == 0
        assert "static: yes" in capsys.readouterr().out

    _NON_STATIC = [("first_mover_wins", '<T"a", B"b">')] + [
        (f"{op}(first_mover_wins)", '<T".a", B".b">') for op in ("tbr_t", "cbr_t", "tbr_l", "cbr_l")
    ]

    @pytest.mark.parametrize("game, original", _NON_STATIC, ids=[game for game, _ in _NON_STATIC])
    def test_non_static_game(self, game, original, capsys):
        code = main(["static", "--game", game, "--max-run", "4", "--max-addr", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "static: no" in out
        assert f"original: {original}" in out

    def test_recurrence_expression(self, capsys):
        code = main(["static", "--game", "tbr_l(top_choice)", "--max-run", "4", "--max-addr", "2"])
        assert code == 0

    def test_long_runs_of_a_recurrence(self, capsys):
        # a 15-move pool, so 30^10 runs of length 10; the scan steps only
        # the distinct states they reach
        code = main(["static", "--game", "tbr_l(top_choice)", "--max-run", "10", "--max-addr", "2"])
        assert code == 0
        assert capsys.readouterr().out == "static: yes\npool: 15 moves\nstates: 64\n"
        # the tight recurrence's legal states stop growing at 1,226 by run
        # length 10, and the count alone decides a static game at every length
        code = main(["static", "--game", "tbr_t(bot_choice)", "--max-run", "64"])
        assert code == 0
        assert capsys.readouterr().out == "static: yes\npool: 22 moves\nstates: 1226\n"
        # at the ceiling the count stops at the first flagged length, 2,
        # after the walk, and holds one length of counts at a time
        code = main(["static", "--game", "tbr_t(first_mover_wins)", "--max-run", "1024"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("static: no\npool: 29 moves\nstates: 5853\n")
        assert 'original: <T".a", B".b">\n' in out

    def test_non_static_recurrence_names_its_pool(self, capsys):
        # every move within the bounds is in the pool, both root payloads
        # of first_mover_wins included, so its recurrences are refuted
        code = main(["static", "--game", "tbr_t(first_mover_wins)"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("static: no\npool: 29 moves\nstates: 549\n")

    def test_deep_recurrence_nesting(self, capsys, monkeypatch):
        # each level asks its base for moves once per distinct class state,
        # not once per ray class, so 50 levels stay linear in the depth
        # instead of doubling per level; the scan steps each state only by
        # the moves it offers: 10,401 steps, where stepping every state by
        # all 5302 moves of the pool for each player took 23 s
        counted = []

        def counting(expr, defs):
            counted.append(CountingGame(elaborate(expr, defs)))
            return counted[-1]

        monkeypatch.setattr("colgames.cli.elaborate", counting)
        game = "tbr_t(" * 50 + "bot_choice" + ")" * 50
        code = main(["static", "--game", game, "--max-run", "2", "--max-addr", "1"])
        assert code == 0
        assert capsys.readouterr().out == "static: yes\npool: 5302 moves\nstates: 4027\n"
        assert counted[0].steps == 10401

    def test_deeply_nested_expression_is_a_parse_error(self, capsys):
        game = "not(" * 1200 + "leaf_top" + ")" * 1200
        assert main(["static", "--game", game]) == 2
        assert_one_line_error(capsys)

    def test_deeply_nested_definitions_are_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(chain_defs(1200))
        assert main(["static", "--defs", str(path), "--game", "deep"]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("option", ["--max-run", "--max-addr"])
    def test_negative_bound_is_malformed(self, option, capsys):
        assert main(["static", "--game", "leaf_top", option, "-1"]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("game", ["first_mover_wins", "tbr_t(first_mover_wins)"])
    def test_run_bound_below_two_is_malformed(self, game, capsys):
        # no swap fits in a run of 1 move, so "static: yes" would be vacuous
        assert main(["static", "--game", game, "--max-run", "1"]) == 2
        assert_one_line_error(capsys)

    def test_address_bound_past_the_guard_exits_three(self, capsys):
        # the 17-bit moves would be refused by step, so none are offered
        assert main(["static", "--game", "tbr_l(bot_choice)", "--max-addr", "17"]) == 3
        assert_one_line_error(capsys)

    def test_run_bound_past_the_ceiling_exits_three(self, capsys):
        # one level per unit of the bound, its run counts 2**n-sized integers
        assert main(["static", "--game", "leaf_top", "--max-run", "99999999999999999999"]) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("buffering", [-1, 1], ids=["buffered", "line-buffered"])
    def test_a_closed_stdout_exits_quietly(self, buffering, capsys, monkeypatch):
        # stdout is a pipe whose reader is gone, so writing to it raises
        # BrokenPipeError: that is no malformed input (2), and nothing is said
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", buffering=buffering) as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            code = main(["static", "--game", "tbr_l(first_mover_wins)", "--max-run", "4", "--max-addr", "2"])
            assert code == 141
        assert capsys.readouterr().err == ""


class TestSimulate:
    # the adversary is exhaustive by default; second_mover_wins and
    # first_mover_loses are static bases whose swaps matter
    @pytest.mark.parametrize(
        "direction, atom",
        [("loose-to-tight", "bot_choice"), ("tight-to-loose", "second_mover_wins"),
         ("loose-to-tight", "first_mover_loses")],
    )
    def test_exhaustive_suite_exit_zero(self, direction, atom, capsys):
        code = main(["simulate", "--direction", direction, "--atom", atom, "--budget", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out

    @pytest.mark.parametrize("adversary", ["exhaustive", "random"])
    def test_plays_cut_short_exit_three(self, adversary, capsys):
        # a play cut off by the step cap is neither won nor lost: none of
        # them fails its audit, and the run names them on one line
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
            "--adversary", adversary, *(["--seed", "2"] if adversary == "random" else []),
            "--budget", "2", "--max-steps", "5" if adversary == "exhaustive" else "3",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "failure" not in captured.out.replace("failures: 0", "")
        if adversary == "exhaustive":
            assert "adversaries: 184\nfailures: 0\ntruncated: 140\n" in captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "reached --max-steps" in captured.err
        code = main(["simulate", "--direction", "tight-to-loose", "--atom", "bot_choice", "--budget", "2",
                     "--max-steps", "8"])
        assert code == 0
        assert "failures: 0\ntruncated: 0\n" in capsys.readouterr().out

    def test_non_static_base_exit_three(self, capsys):
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "first_mover_wins",
            "--adversary", "exhaustive", "--budget", "1",
        ])
        assert code == 3

    def test_non_static_base_prints_its_counterexample_as_runs(self, capsys):
        code = main([
            "simulate", "--direction", "loose-to-tight", "--atom", "first_mover_wins",
            "--budget", "2",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert 'counterexample: <T"a", B"b"> / <B"b", T"a"> for T' in err

    @pytest.mark.parametrize("adversary", ["exhaustive", "random"])
    def test_address_bound_past_the_guard_exits_three(self, adversary, capsys):
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
            "--adversary", adversary, "--budget", "2", "--max-addr", "17",
        ])
        assert code == 3
        assert_one_line_error(capsys)

    def test_step_cap_past_the_ceiling_exits_three(self, capsys):
        # the precheck scans runs one move past the step cap, at most 1023 moves
        code = main(["simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
                     "--budget", "1", "--max-steps", "1024"])
        assert code == 3
        assert_one_line_error(capsys)

    def test_short_run_bound_keeps_the_precheck(self, tmp_path, capsys):
        # late's counterexample takes 3 moves; the precheck scans runs one
        # move past the step cap
        path = tmp_path / "late.json"
        path.write_text(dump_game_defs({"late": late()}))
        code = main([
            "simulate", "--direction", "tight-to-loose", "--defs", str(path), "--atom", "late",
            "--budget", "2",
        ])
        assert code == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "option, value",
        [("--budget", "-1"), ("--max-addr", "-1"),
         ("--max-steps", "0"), ("--max-steps", "-3")],
    )
    def test_out_of_range_number_is_malformed(self, option, value, capsys):
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "leaf_top", option, value,
        ])
        assert code == 2
        assert_one_line_error(capsys)

    def test_random_play_writes_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "top_choice",
            "--adversary", "random", "--seed", "11", "--budget", "3",
            "--out", str(out_path),
        ])
        assert code == 0
        tf = loads_trace(out_path.read_text())
        assert tf.outcome is TOP
        assert tf.game == "or(cbr_t(not(top_choice)), tbr_l(top_choice))"
        assert tf.seed == 11
        # the play's run bound is its step cap
        assert tf.bounds == EnumBounds(2, 64)

    def test_max_run_is_not_a_simulate_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--direction", "tight-to-loose", "--atom", "leaf_top", "--max-run", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "--max-run" not in capsys.readouterr().out

    def test_script_adversary_replays_trace(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        main([
            "simulate", "--direction", "loose-to-tight", "--atom", "bot_choice",
            "--adversary", "random", "--seed", "5", "--budget", "3",
            "--out", str(golden),
        ])
        capsys.readouterr()
        replay = tmp_path / "replay.json"
        code = main([
            "simulate", "--direction", "loose-to-tight", "--atom", "bot_choice",
            "--adversary", f"script:{golden}", "--out", str(replay),
        ])
        assert code == 0
        golden_tf = loads_trace(golden.read_text())
        replay_tf = loads_trace(replay.read_text())
        assert replay_tf.moves == golden_tf.moves
        assert replay_tf.outcome == golden_tf.outcome

    def test_unknown_adversary_is_malformed(self, capsys):
        code = main(["simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
                     "--adversary", "bogus"])
        assert code == 2
        assert_one_line_error(capsys)

    def test_script_adversary_offending_first(self, tmp_path, capsys):
        # the environment's first move is illegal: the play ends there, and
        # the machine, which made no move, wins
        script = write_trace(tmp_path, (LabMove(BOT, "zzz"),))
        code = main(["simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
                     "--adversary", f"script:{script}"])
        assert code == 0
        out = capsys.readouterr().out
        assert 'run: <B"zzz">\noutcome: T\noffender: index 0 by B\n' in out
        assert "failure" not in out

    def test_seed_determinism_bytes(self, tmp_path):
        # end-to-end determinism through fresh interpreter processes
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "colgames.cli",
                 "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
                 "--adversary", "random", "--seed", "42", "--budget", "3",
                 "--out", str(path)],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_col_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COL_SEED", "9")
        out_path = tmp_path / "t.json"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "leaf_top",
            "--adversary", "random", "--out", str(out_path),
        ])
        assert code == 0
        assert loads_trace(out_path.read_text()).seed == 9

    def test_malformed_col_seed_is_malformed_input(self, monkeypatch, capsys):
        monkeypatch.setenv("COL_SEED", "abc")
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "leaf_top",
            "--adversary", "random",
        ])
        assert code == 2
        assert_one_line_error(capsys)

    def test_col_seed_is_read_only_by_simulate(self, monkeypatch, capsys):
        monkeypatch.setenv("COL_SEED", "abc")
        assert main(["static", "--game", "bot_choice"]) == 0
        assert capsys.readouterr().out == "static: yes\npool: 2 moves\nstates: 2\n"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "leaf_top",
            "--adversary", "random", "--seed", "3",
        ])
        assert code == 0


    def test_col_seed_is_not_read_by_exhaustive_runs(self, monkeypatch, capsys):
        monkeypatch.setenv("COL_SEED", "abc")
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice", "--budget", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[2] == "failures: 0"

    def test_col_seed_is_not_read_by_script_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COL_SEED", "abc")
        script = write_trace(tmp_path, [LabMove(BOT, "2.0.b")])
        out_path = tmp_path / "replay.json"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
            "--adversary", f"script:{script}", "--out", str(out_path),
        ])
        assert code == 0
        assert loads_trace(out_path.read_text()).seed is None

    @pytest.mark.parametrize("adversary", ["exhaustive", "script"])
    def test_seed_is_rejected_without_a_random_adversary(self, adversary, tmp_path, capsys):
        if adversary == "script":
            adversary = f"script:{write_trace(tmp_path, [LabMove(BOT, '2.0.b')])}"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice", "--budget", "1",
            "--adversary", adversary, "--seed", "5",
        ])
        assert code == 2
        assert_one_line_error(capsys)

    def test_out_is_rejected_for_exhaustive_runs(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "bot_choice",
            "--adversary", "exhaustive", "--out", str(out_path),
        ])
        assert code == 2
        assert_one_line_error(capsys)
        assert not out_path.exists()


class TestSimulateBrokenMachine:
    """With the corrupted routine as every direction's machine, the
    command lists what the audits found and exits 1."""

    @pytest.fixture(autouse=True)
    def broken_machine(self, monkeypatch):
        for module in (sim, cli):
            monkeypatch.setattr(module, "strategy_for", lambda compound, direction: BrokenRemapStrategy())

    def test_exhaustive_run_lists_its_failures(self, capsys):
        code = main(["simulate", "--direction", "loose-to-tight", "--atom", "bot_choice", "--budget", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "adversaries: 17\nfailures: 16\n" in out
        assert "  trace-audit: fmap: domain is not the outer nodes after step 0\n" in out

    def test_one_play_prints_each_failure(self, tmp_path, capsys):
        script = write_trace(tmp_path, (LabMove(BOT, "2.:"), LabMove(BOT, "2.0.b")))
        code = main(["simulate", "--direction", "loose-to-tight", "--atom", "bot_choice",
                     "--adversary", f"script:{script}"])
        assert code == 1
        out = capsys.readouterr().out
        assert "outcome: B\nfailure: outcome: machine did not win\n" in out


class TestSimulateCompositeBase:
    """``--atom`` takes any base expression, not only a definition name."""

    BASE = "not(bot_choice)"
    GAME = "or(cbr_t(not(not(bot_choice))), tbr_l(not(bot_choice)))"

    def test_exhaustive_on_a_negation(self, capsys):
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", self.BASE, "--budget", "2",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"game: {self.GAME}", "adversaries: 92", "failures: 0", "truncated: 0"]

    @pytest.mark.parametrize("atom", ["nope", "not(("])
    def test_bad_base_expression_is_malformed(self, atom, capsys):
        code = main(["simulate", "--direction", "tight-to-loose", "--atom", atom])
        assert code == 2
        assert_one_line_error(capsys)

    def test_random_trace_is_read_back_by_eval(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", self.BASE,
            "--adversary", "random", "--seed", "5", "--budget", "3", "--out", str(out_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == f"game: {self.GAME}"
        tf = loads_trace(out_path.read_text())
        assert tf.game == self.GAME
        assert len(tf.moves) == 6
        assert main(["eval", "--game", tf.game, "--trace", str(out_path)]) == 0
        assert capsys.readouterr().out == "legal; winner: T\n"


class TestPlay:
    def test_scripted_session(self, capsys, monkeypatch):
        lines = iter(["2.:", "2.1", ""])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = main(["play", "--game", "or(cbr_l(not(bot_choice)), tbr_t(bot_choice))"])
        assert code == 0
        out = capsys.readouterr().out
        assert "machine plays the loose-to-tight translation strategy" in out
        assert "machine plays: '1.1'" in out
        assert "outcome: won by T" in out

    def test_no_machine_for_plain_expression(self, capsys, monkeypatch):
        monkeypatch.setattr("builtins.input", lambda prompt="": "")
        code = main(["play", "--game", "tbr_t(leaf_top)"])
        assert code == 0
        assert "no machine strategy" in capsys.readouterr().out

    def test_offending_move_is_reported_and_not_answered(self, capsys, monkeypatch):
        # "2.01" switches to a node the adversary's tight tree lacks; the
        # play ends there, without asking for another move
        lines = iter(["2.01"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = main(["play", "--game", "or(cbr_l(not(bot_choice)), tbr_t(bot_choice))"])
        assert code == 0
        out = capsys.readouterr().out
        assert "machine plays:" not in out
        assert "offender: index 0 by B" in out
        assert "outcome: won by T" in out

    def test_first_illegal_move_ends_the_play(self):
        # "2.0" switches to node 0, which the tight component lacks: the
        # offence is reported at once, and "2.1" is never read
        result = subprocess.run(
            [sys.executable, "-m", "colgames.cli", "play",
             "--game", "or(cbr_l(not(bot_choice)), tbr_t(bot_choice))"],
            input="2.0\n2.1\n\n", capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("environment move") == 1
        assert "along last switch (0)" not in result.stdout
        assert result.stdout.endswith(": offender: index 0 by B\noutcome: won by T\n")

    def test_address_past_the_guard_exits_three(self, capsys, monkeypatch):
        lines = iter(["0" * 17 + ".b"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["play", "--game", "tbr_l(bot_choice)"]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_end_of_input_is_a_pass(self, capsys, monkeypatch):
        def closed(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", closed)
        assert main(["play", "--game", "tbr_t(leaf_top)"]) == 0
        assert "outcome: won by T" in capsys.readouterr().out

    # The whole of a session's output: the position display before each
    # prompt covers both translation compounds (tight component and both
    # decisive projections) and a plain recurrence of each polarity.
    SESSIONS = {
        "or(cbr_l(not(bot_choice)), tbr_t(bot_choice))": (["2.:", "2.1", "2.1.b", ""], """\
machine plays the loose-to-tight translation strategy
position: <>
tight component actual: ['']
tight component outer:  ['']
component 1 along last switch (root): <>
component 2 along last switch (root): <>
position: <B"2.:">
tight component actual: ['', '0', '1']
tight component outer:  ['0', '1']
component 1 along last switch (root): <>
component 2 along last switch (root): <>
machine plays: '1.1'
position: <B"2.:", B"2.1", T"1.1">
tight component actual: ['', '0', '1']
tight component outer:  ['0', '1']
component 1 along last switch (1): <>
component 2 along last switch (1): <>
machine plays: '1.1.b'
position: <B"2.:", B"2.1", T"1.1", B"2.1.b", T"1.1.b">
tight component actual: ['', '0', '1']
tight component outer:  ['0', '1']
component 1 along last switch (1): <T"b">
component 2 along last switch (1): <B"b">
outcome: won by T
"""),
        "or(cbr_t(not(bot_choice)), tbr_l(bot_choice))": (["2.01", "2.01.b", "1.0.b"], """\
machine plays the tight-to-loose translation strategy
position: <>
tight component actual: ['']
tight component outer:  ['']
component 1 along last switch (root): <>
component 2 along last switch (root): <>
machine plays: '1.:'
machine plays: '1.0:'
machine plays: '1.01'
position: <B"2.01", T"1.:", T"1.0:", T"1.01">
tight component actual: ['', '0', '00', '01', '1']
tight component outer:  ['00', '01', '1']
component 1 along last switch (01): <>
component 2 along last switch (01): <>
machine plays: '1.01.b'
position: <B"2.01", T"1.:", T"1.0:", T"1.01", B"2.01.b", T"1.01.b">
tight component actual: ['', '0', '00', '01', '1']
tight component outer:  ['00', '01', '1']
component 1 along last switch (01): <T"b">
component 2 along last switch (01): <B"b">
offender: index 6 by B
outcome: won by T
"""),
        "tbr_t(leaf_top)": ([":", "0:", "01", ""], """\
no machine strategy for this expression; you play the environment
position: <>
actual: ['']
outer:  ['']
along last switch (root): <>
position: <B":">
actual: ['', '0', '1']
outer:  ['0', '1']
along last switch (root): <>
position: <B":", B"0:">
actual: ['', '0', '00', '01', '1']
outer:  ['00', '01', '1']
along last switch (root): <>
position: <B":", B"0:", B"01">
actual: ['', '0', '00', '01', '1']
outer:  ['00', '01', '1']
along last switch (01): <>
outcome: won by T
"""),
        # a switch to 0 names the root's ray, so the stem shows as the root
        "tbr_t(bot_choice)": ([":", "0", "0.b", ""], """\
no machine strategy for this expression; you play the environment
position: <>
actual: ['']
outer:  ['']
along last switch (root): <>
position: <B":">
actual: ['', '0', '1']
outer:  ['0', '1']
along last switch (root): <>
position: <B":", B"0">
actual: ['', '0', '1']
outer:  ['0', '1']
along last switch (root): <>
position: <B":", B"0", B"0.b">
actual: ['', '0', '1']
outer:  ['0', '1']
along last switch (root): <B"b">
outcome: won by B
"""),
        # a plain game shows its position and nothing more
        "bot_choice": (["b", ""], """\
no machine strategy for this expression; you play the environment
position: <>
position: <B"b">
outcome: won by B
"""),
        "cbr_l(bot_choice)": (["0.b", "1"], """\
no machine strategy for this expression; you play the environment
position: <>
along last switch (root): <>
position: <B"0.b">
along last switch (root): <B"b">
offender: index 1 by B
outcome: won by T
"""),
    }

    @pytest.mark.parametrize("game", list(SESSIONS))
    def test_position_display(self, game, capsys, monkeypatch):
        entered, expected = self.SESSIONS[game]
        lines = iter(entered)
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["play", "--game", game]) == 0
        assert capsys.readouterr().out == expected

    def test_endless_input_stops_at_the_step_cap(self, capsys, monkeypatch):
        # a loose recurrence takes the environment's switches at any address
        monkeypatch.setattr("builtins.input", lambda prompt="": "1")
        assert main(["play", "--game", "tbr_l(leaf_top)"]) == 0
        out = capsys.readouterr().out
        assert "play stopped at 1000 moves" in out
        assert "offender" not in out
        assert "outcome: won by T" in out


class TestUsageErrors:
    """argparse's refusals exit 2 with one stderr line, worded as main's."""

    @pytest.mark.parametrize(
        "argv",
        [["static"], ["static", "--game", "leaf_top", "--max-run", "abc"],
         ["simulate", "--direction", "bogus"], ["bogus"]],
        ids=["missing-option", "not-an-integer", "bad-choice", "unknown-command"],
    )
    def test_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
