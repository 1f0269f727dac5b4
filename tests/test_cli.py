"""Command-line interface: commands, exit codes, REPL."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from colgames import BOT, TOP, LabMove
from colgames.cli import main
from colgames.files import TraceFile, dumps_trace, loads_trace

from _util import chain_defs

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

    @pytest.mark.parametrize(
        "command, data",
        [
            ("defs", b'{"g": {"winner": ["T"]}}'),
            ("defs", b'{"g": {"winner": "T", "moves": 5}}'),
            ("trace", (_TRACE % "{}").encode()),
            ("defs", b'\xff\xfe{"g": {"winner": "T"}}'),
            ("trace", b'\xff\xfe' + (_TRACE % '"T"').encode()),
        ],
        ids=["unhashable-winner", "moves-not-a-list", "unhashable-outcome",
             "defs-not-utf8", "trace-not-utf8"],
    )
    def test_exits_two(self, command, data, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        if command == "defs":
            argv = ["static", "--defs", str(path), "--game", "g"]
        else:
            argv = ["project", "--trace", str(path), "--ray", "0"]
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
    def test_static_game(self, capsys):
        code = main(["static", "--game", "bot_choice", "--max-run", "4", "--max-addr", "2"])
        assert code == 0
        assert "static: yes" in capsys.readouterr().out

    def test_non_static_game(self, capsys):
        code = main(["static", "--game", "first_mover_wins", "--max-run", "4", "--max-addr", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "static: no" in out
        assert 'original: <T"a", B"b">' in out

    def test_recurrence_expression(self, capsys):
        code = main(["static", "--game", "tbr_l(top_choice)", "--max-run", "4", "--max-addr", "2"])
        assert code == 0

    def test_long_runs_of_a_recurrence(self, capsys):
        # 4-move probe pool, so 8^10 runs of length 10; the scan stores
        # only the legal ones
        code = main(["static", "--game", "tbr_l(top_choice)", "--max-run", "10", "--max-addr", "2"])
        assert code == 0
        assert capsys.readouterr().out == "static: yes\n"

    def test_deep_recurrence_nesting(self, capsys):
        # each level asks its base for legal moves once per distinct
        # projection, not once per ray class, so probing 50 levels stays
        # linear in the depth instead of doubling per level
        game = "tbr_t(" * 50 + "bot_choice" + ")" * 50
        code = main(["static", "--game", game, "--max-run", "2", "--max-addr", "1"])
        assert code == 0
        assert capsys.readouterr().out == "static: yes\n"

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


class TestSimulate:
    def test_exhaustive_suite_exit_zero(self, capsys):
        code = main([
            "simulate", "--direction", "loose-to-tight", "--atom", "bot_choice",
            "--adversary", "exhaustive", "--budget", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out

    def test_non_static_base_exit_three(self, capsys):
        code = main([
            "simulate", "--direction", "tight-to-loose", "--atom", "first_mover_wins",
            "--adversary", "exhaustive", "--budget", "1",
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "option, value",
        [("--budget", "-1"), ("--max-run", "-1"), ("--max-addr", "-1"),
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
        assert capsys.readouterr().out == "static: yes\n"
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
        assert lines[:3] == [f"game: {self.GAME}", "adversaries: 92", "failures: 0"]

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
        "cbr_l(bot_choice)": (["0.b", "1"], """\
no machine strategy for this expression; you play the environment
position: <>
actual: ['']
outer:  ['']
along last switch (root): <>
position: <B"0.b">
actual: ['']
outer:  ['']
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


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
