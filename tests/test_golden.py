"""Golden CLI transcript: the answers the CLI gives stay byte-identical.

`tests/golden/transcript.json` records, for a fixed corpus of game files, the
stdout, stderr and exit code of every command below and the sha256 of every
profile and DOT file it writes.  A refactor must leave all of it unchanged.

The corpus is the four fixtures under `tests/fixtures/` plus the seeded games
under `tests/golden/games/`, a few for every measure pair that `synth`
supports.  Per game, with v0 its first vertex:

    validate --dot D
    values --player 1 --dot D, values --player 2 --dot D
    synth --init v0 --out P --dot D
    verify --init v0 --profile P           (the profile synth just wrote)
    verify --init v0 --profile F           (one state, first edge everywhere)
    constrained --init v0 on two boxes     (same-measure, non-discounted games)

Re-record only for a change that is meant to alter answers, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from secgames import cli
from secgames.format import parse_game, serialize_game
from secgames.game import Measure, WeightedGame

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
TRANSCRIPT = GOLDEN / "transcript.json"
FIXTURES = ("g1", "g2", "g3", "g1_disc")

# (measure 1, measure 2, discount): every pair synthesis supports
PAIRS = (
    ("mpinf", "mpinf", None),
    ("mpsup", "mpsup", None),
    ("liminf", "liminf", None),
    ("limsup", "limsup", None),
    ("disc", "disc", "1/2"),
    ("disc", "disc", "9/10"),
    ("inf", "inf", None),
    ("sup", "sup", None),
    ("inf", "liminf", None),
    ("liminf", "inf", None),
    ("sup", "limsup", None),
    ("limsup", "sup", None),
)
GAMES_PER_PAIR = 4
BOXES = (("1,0", "inf,inf"), ("-inf,-inf", "1,2"))


def _seeded_games() -> dict[str, str]:
    """name -> game text; vertices v0.., out-degree 1 to 3, weights 0..3."""
    rng = random.Random(20261018)
    games = {}
    for m1, m2, disc in PAIRS:
        for j in range(GAMES_PER_PAIR):
            n = rng.randint(3, 6)
            names = [f"v{i}" for i in range(n)]
            owner = {v: rng.choice((1, 2)) for v in names}
            edges = []
            weights = {}
            for u in names:
                for t in rng.sample(names, rng.randint(1, min(3, n))):
                    edges.append((u, t))
                    weights[(u, t)] = (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
            discount = Fraction(disc) if disc else None
            game = WeightedGame(names, owner, edges, weights, Measure(m1), Measure(m2), discount)
            tag = f"{m1}_{m2}" + (f"_{disc.replace('/', 'over')}" if disc else "")
            games[f"{tag}_{j}"] = serialize_game(game, "v0")
    return games


def _corpus() -> list[tuple[str, Path]]:
    fixtures = [(name, HERE / "fixtures" / f"{name}.game") for name in FIXTURES]
    seeded = sorted((p.stem, p) for p in (GOLDEN / "games").glob("*.game"))
    return fixtures + seeded


def _first_edge_profile(game) -> str:
    """Both machines with one state, each picking a vertex's first edge."""
    first = {}
    for u, v in game.edges:
        first.setdefault(u, v)
    path, cur = [], game.vertices[0]
    while cur not in path:
        path.append(cur)
        cur = first[cur]
    k = path.index(cur)
    out = ["outcome stem " + " ".join(path[:k]), "outcome cycle " + " ".join(path[k:])]
    for i in (1, 2):
        out.append(f"machine {i} states 1 init s0")
        out += [f"machine {i} next s0 {v} s0" for v in game.vertices]
        out += [f"machine {i} move s0 {v} {first[v]}" for v in game.vertices if game.owner[v] == i]
    return "\n".join(out) + "\n"


def _commands(game) -> list[list[str]]:
    """argv lists; {game}, {dot}, {prof} and {first} stand for paths."""
    v0 = game.vertices[0]
    cmds = [
        ["validate", "--game", "{game}", "--dot", "{dot}"],
        ["values", "--game", "{game}", "--player", "1", "--dot", "{dot}"],
        ["values", "--game", "{game}", "--player", "2", "--dot", "{dot}"],
        ["synth", "--game", "{game}", "--init", v0, "--out", "{prof}", "--dot", "{dot}"],
        ["verify", "--game", "{game}", "--init", v0, "--profile", "{prof}"],
        ["verify", "--game", "{game}", "--init", v0, "--profile", "{first}"],
    ]
    if game.measure1 is game.measure2 and game.measure1 is not Measure.DISC:
        for mu, nu in BOXES:
            cmds.append(["constrained", "--game", "{game}", "--init", v0, f"--mu={mu}", f"--nu={nu}"])
    return cmds


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _transcript(workdir: Path) -> list[dict]:
    records = []
    for name, path in _corpus():
        game, _init = parse_game(path.read_bytes())
        first = workdir / f"{name}.first.prof"
        first.write_text(_first_edge_profile(game))
        paths = {
            "game": str(path),
            "dot": str(workdir / f"{name}.dot"),
            "prof": str(workdir / f"{name}.prof"),
            "first": str(first),
        }
        for template in _commands(game):
            # each command writes afresh; verify reads synth's profile
            Path(paths["dot"]).unlink(missing_ok=True)
            if template[0] == "synth":
                Path(paths["prof"]).unlink(missing_ok=True)
            code, out, err = _run([arg.format(**paths) for arg in template])
            records.append(
                {
                    "game": name,
                    "argv": template,
                    "exit": code,
                    "stdout": out,
                    "stderr": err,
                    "dot_sha256": _sha256(Path(paths["dot"])),
                    "prof_sha256": _sha256(Path(paths["prof"])) if template[0] == "synth" else None,
                }
            )
    return records


def test_cli_transcript_unchanged(tmp_path):
    expected = json.loads(TRANSCRIPT.read_text())
    got = _transcript(tmp_path)
    assert [(r["game"], r["argv"]) for r in got] == [(r["game"], r["argv"]) for r in expected]
    for want, have in zip(expected, got):
        assert have == want, (want["game"], want["argv"])


def _record() -> None:
    import tempfile

    (GOLDEN / "games").mkdir(parents=True, exist_ok=True)
    for name, text in _seeded_games().items():
        (GOLDEN / "games" / f"{name}.game").write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        records = _transcript(Path(tmp))
    TRANSCRIPT.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} commands recorded in {TRANSCRIPT}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
