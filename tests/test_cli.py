import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import secgames
from secgames.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
G1 = FIXTURES / "g1.game"


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


class TestInputErrors:
    # PROFILE, NOT_UTF8 and TRUNCATED name files the test writes; MISSING is
    # never written, and UNWRITABLE lies in a directory that does not exist
    @pytest.mark.parametrize(
        "args",
        [
            ["constrained", "--game", G1, "--init", "v0", "--mu", "1", "--nu", "inf,inf"],
            ["constrained", "--game", G1, "--init", "v0", "--mu", "x,0", "--nu", "inf,inf"],
            ["constrained", "--game", G1, "--init", "nosuch", "--mu", "0,0", "--nu", "inf,inf"],
            ["synth", "--game", G1, "--init", "nosuch"],
            ["verify", "--game", G1, "--init", "nosuch", "--profile", "PROFILE"],
            ["verify", "--game", G1, "--init", "v0", "--profile", "MISSING"],
            ["verify", "--game", G1, "--init", "v0", "--profile", "TRUNCATED"],
            ["values", "--game", "NOT_UTF8", "--player", "1"],
            ["values", "--game", G1, "--player", "1", "--dot", "UNWRITABLE"],
            ["synth", "--game", G1, "--init", "v0", "--out", "UNWRITABLE"],
            ["synth", "--game", G1, "--init", "v0", "--dot", "UNWRITABLE"],
            ["validate", "--game", G1, "--dot", "UNWRITABLE"],
        ],
        ids=[
            "mu-one-component",
            "mu-not-rational",
            "constrained-unknown-init",
            "synth-unknown-init",
            "verify-unknown-init",
            "verify-missing-profile",
            "verify-profile-without-next-line",
            "game-not-utf8",
            "values-dot-unwritable",
            "synth-out-unwritable",
            "synth-dot-unwritable",
            "validate-dot-unwritable",
        ],
    )
    def test_exit_two_with_error_line(self, args, tmp_path, capsys):
        code, _ = run_cli(
            ["synth", "--game", G1, "--init", "v0", "--out", tmp_path / "p"], capsys
        )
        assert code == 0
        lines = (tmp_path / "p").read_text().splitlines()
        files = {
            "PROFILE": tmp_path / "p",
            "NOT_UTF8": tmp_path / "latin1.game",
            "MISSING": tmp_path / "missing.txt",
            "TRUNCATED": tmp_path / "truncated.profile",
            "UNWRITABLE": tmp_path / "nosuch" / "out.txt",
        }
        files["NOT_UTF8"].write_bytes(b"# caf\xe9\n" + G1.read_bytes())
        files["TRUNCATED"].write_text(
            "\n".join(x for x in lines if not x.startswith("machine 1 next s0 v0 "))
        )
        code = main([str(files.get(a, a)) for a in args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


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


# vertex names with a quote and backslashes; none contains "\n", ", ", "/" or "|"
ODD_NAMES_GAME = r"""measure 1 inf
measure 2 inf
vertex a"b 1
vertex c\d 2
vertex e\ 1
edge a"b c\d 1 1
edge a"b e\ 2 0
edge c\d a"b 0 2
edge c\d c\d 1 1
edge e\ e\ 1 1
init a"b
"""
QUOTED = r'"((?:[^"\\]|\\.)*)"'
DOT_LINES = {
    "graph": re.compile(r"digraph \w+ \{|\}"),
    "vertex": re.compile(rf"  {QUOTED} \[shape=\w+, label={QUOTED}\];"),
    "edge": re.compile(rf"  {QUOTED} -> {QUOTED} \[label={QUOTED}\];"),
    "state": re.compile(rf"  s\d+ \[shape=\w+, label={QUOTED}\];"),
    "move": re.compile(rf"  s\d+ -> s\d+ \[label={QUOTED}\];"),
}


def _unescape(body):
    """A DOT quoted string's body, unescaped and split at its \n separators."""
    parts = [""]
    for tok in re.findall(r"\\.|[^\\]", body):
        if tok == "\\n":
            parts.append("")
        else:
            parts[-1] += tok[-1]
    return parts


def _dot_lines(text):
    """(form, unescaped quoted strings) per line of a DOT file; fails on a
    line of no expected form, such as one with a stray quote."""
    out = []
    for line in text.splitlines():
        form = next((f for f, r in DOT_LINES.items() if r.fullmatch(line)), None)
        assert form is not None, line
        out.append((form, [_unescape(body) for body in DOT_LINES[form].fullmatch(line).groups()]))
    return out


class TestDotEscaping:
    def test_odd_vertex_names_round_trip(self, tmp_path, capsys):
        game = tmp_path / "odd.game"
        game.write_text(ODD_NAMES_GAME)
        names = ['a"b', "c\\d", "e\\"]
        dots = {cmd: tmp_path / f"{cmd}.dot" for cmd in ("validate", "values", "synth")}
        for args in (
            ["validate", "--game", game, "--dot", dots["validate"]],
            ["values", "--game", game, "--player", "1", "--dot", dots["values"]],
            ["synth", "--game", game, "--dot", dots["synth"]],
        ):
            code, _ = run_cli(args, capsys)
            assert code == 0, args
        # arena: vertex ids and labels are names, values add a "\n" line
        for cmd in ("validate", "values"):
            vertices = []
            for form, strings in _dot_lines(dots[cmd].read_text()):
                if form == "vertex":
                    (name,), label = strings
                    assert label[0] == name and len(label) == (2 if cmd == "values" else 1)
                    vertices.append(name)
                elif form == "edge":
                    assert strings[0][0] in names and strings[1][0] in names
            assert vertices == names
        # machines: punish and move labels name vertices
        seen = set()
        for form, strings in _dot_lines(dots["synth"].read_text()):
            label = strings[0][0] if strings else ""
            if form == "state" and label.startswith("punish|"):
                seen.add(label.split("|")[1])
            elif form == "move":
                for move in label.split(", "):
                    seen.update(move.split("/"))
        assert seen == set(names)


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
