import json
import os
import subprocess
import sys
from pathlib import Path

import secgames
from secgames.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestValues:
    def test_g1_example_table(self, capsys):
        code, out = run_cli(["values", "--game", FIXTURES / "g1.game", "--player", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == {
            "v0": ["4", "4"],
            "v1": ["4", "4"],
            "v2": ["3", "2"],
            "v3": ["4", "3"],
            "v4": ["3", "2"],
        }
        assert doc["strategy_max"]["v0"] == "v1"
        assert doc["strategy_min"]["v2"] == "v4"

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(["values", "--game", FIXTURES / "g1.game", "--player", "2"], capsys)
        _, out2 = run_cli(["values", "--game", FIXTURES / "g1.game", "--player", "2"], capsys)
        assert out1 == out2

    def test_values_per_init_strategies_for_inf(self, capsys):
        code, out = run_cli(["values", "--game", FIXTURES / "g3.game", "--player", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["v4"] == ["3", "1"]
        assert not doc["uniform"]
        # per-initial-vertex strategies: from v4 keep looping, from v0 exit
        assert doc["strategy_max"]["v4"]["v4"] == "v4"
        assert doc["strategy_max"]["v0"]["v4"] == "v3"

    def test_rationals_rendered_as_fractions(self, capsys):
        code, out = run_cli(
            ["values", "--game", FIXTURES / "g1_disc.game", "--player", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["v2"] == ["3/2", "1"]
        assert "." not in out.replace(".game", "")


class TestDecisions:
    def test_constrained_g2_true(self, capsys):
        code, out = run_cli(
            [
                "constrained",
                "--game",
                FIXTURES / "g2.game",
                "--init",
                "v0",
                "--mu",
                "1,1",
                "--nu",
                "inf,inf",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip() == "true"

    def test_constrained_false_exit_one(self, capsys):
        code, out = run_cli(
            [
                "constrained",
                "--game",
                FIXTURES / "g1.game",
                "--init",
                "v0",
                "--mu",
                "5,0",
                "--nu",
                "inf,inf",
            ],
            capsys,
        )
        assert code == 1
        assert out.strip() == "false"

    def test_constrained_disc_unsupported_exit_three(self, capsys):
        code = main(
            [
                "constrained",
                "--game",
                str(FIXTURES / "g1_disc.game"),
                "--init",
                "v0",
                "--mu",
                "0,0",
                "--nu",
                "inf,inf",
            ]
        )
        assert code == 3

    def test_jobs_flag_same_answer(self, capsys):
        base = [
            "constrained",
            "--game",
            FIXTURES / "g2.game",
            "--init",
            "v0",
            "--mu",
            "1,1",
            "--nu",
            "inf,inf",
        ]
        code1, out1 = run_cli(base, capsys)
        code2, out2 = run_cli(["--jobs", "3"] + base, capsys)
        assert (code1, out1) == (code2, out2)


class TestSynthVerify:
    def test_synth_then_verify(self, tmp_path, capsys):
        prof = tmp_path / "g1.profile"
        code, out = run_cli(
            ["synth", "--game", FIXTURES / "g1.game", "--init", "v0", "--out", prof],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payoff"] == ["4", "4"]
        assert doc["outcome"] == {"stem": ["v0"], "cycle": ["v1"]}
        assert max(doc["memory"]) <= 7
        code, out = run_cli(
            [
                "verify",
                "--game",
                FIXTURES / "g1.game",
                "--init",
                "v0",
                "--profile",
                prof,
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "true"

    def test_synth_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "m.dot"
        code, _ = run_cli(
            ["synth", "--game", FIXTURES / "g1.game", "--init", "v0", "--dot", dot],
            capsys,
        )
        assert code == 0
        assert dot.read_text().count("digraph") == 2


class TestValidateOracle:
    def test_validate_good(self, capsys):
        code, out = run_cli(["validate", "--game", FIXTURES / "g3.game"], capsys)
        assert code == 0
        assert json.loads(out)["valid"]

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.game"
        bad.write_text("measure 1 mpinf\nmeasure 2 mpinf\nvertex a 1\nedge a b 0 0\n")
        code, out = run_cli(["validate", "--game", bad], capsys)
        assert code == 2
        assert not json.loads(out)["valid"]

    def test_oracle_matches_values(self, capsys):
        _, oracle_out = run_cli(
            ["oracle", "--game", FIXTURES / "g1.game", "--player", "1"], capsys
        )
        doc = json.loads(oracle_out)
        assert doc["determined"]
        assert doc["maxmin"]["v2"] == ["3", "2"]

    def test_oracle_cap_exit_four(self, capsys):
        code = main(
            ["oracle", "--game", str(FIXTURES / "g1.game"), "--player", "1", "--cap", "1"]
        )
        assert code == 4


class TestInternalError:
    def test_internal_error_exit_five(self, tmp_path, capsys, swapped_parity_game):
        from secgames.format import serialize_game

        path = tmp_path / "swap.game"
        path.write_text(serialize_game(swapped_parity_game))
        code = main(["values", "--game", str(path), "--player", "1"])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith("error: internal: ")


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        # the child imports the same package as this suite, installed or not
        package_root = str(Path(secgames.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "secgames.cli", "values", "--game",
             str(FIXTURES / "g1.game"), "--player", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "lex-values"
