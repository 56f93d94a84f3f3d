"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout, that
1. a wrong answer is counted as a failure, both by the answer checks and
   through the forked command loop (with a deliberately broken solver);
2. every count metric of the traced run repeats exactly across two runs with
   the same seed;
3. the benchmark exits with an error, printing no result, in a directory
   that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from secgames import cli  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_checks_reject_wrong_answers(tmp: Path) -> None:
    for name in ("limit-solve", "mp-solve", "large-arena"):
        for case in generate(WORKLOADS[name], 7, count=2):
            path = tmp / "g.game"
            path.write_text(case.text)
            game = checks.load_game(str(path))
            for player in (1, 2):
                code, out = _cli(["values", "--game", str(path), "--player", str(player)])
                assert checks.check_step(game, f"values{player}", code, out, None) is None
                doc = json.loads(out)
                v = sorted(doc["values"])[0]
                doc["values"][v][player - 1] = str(int(doc["values"][v][player - 1].split("/")[0]) + 5)
                assert checks.check_step(game, f"values{player}", 0, json.dumps(doc), None)
                assert checks.check_step(game, f"values{player}", 1, out, None)
            prof = tmp / "prof.txt"
            code, out = _cli(["synth", "--game", str(path), "--out", str(prof)])
            assert checks.check_step(game, "synth", code, out, prof.read_text()) is None
            doc = json.loads(out)
            doc["payoff"][0] = str(int(doc["payoff"][0].split("/")[0]) + 1)
            assert checks.check_step(game, "synth", 0, json.dumps(doc), prof.read_text())
            assert checks.check_step(game, "verify", 0, "true\n", None) is None
            assert checks.check_step(game, "verify", 1, "false\n", None)
            assert checks.check_step(game, "constrained:above", 0, "true\n", None)
            assert checks.check_step(game, "constrained:full", 70, "", None)


def test_loop_counts_wrong_answers(tmp: Path) -> None:
    """A solver that returns wrong values makes the command loop fail."""
    from secgames import lex

    real = lex.solve_lex

    def broken(game, which, need_strategies=True):
        table = real(game, which, need_strategies)
        v = game.vertices[0]
        table.values[v] = table.values[v]._replace(p1=table.values[v].p1 + 1)
        return table

    pool = json.loads(_prepare(tmp, "mp-solve")[1].read_text())[:2]
    runner = run.Runner(tmp, time.perf_counter() + 120)
    report: list[str] = []
    _m, attempted, failed = run.untraced(runner, pool, 0.0, report)
    assert attempted > 0 and failed == 0, (attempted, failed)
    cli.solve_lex = broken
    try:
        _m, attempted, failed = run.untraced(runner, pool, 0.0, report)
    finally:
        cli.solve_lex = real
    assert failed > 0, "a wrong values document was not counted"


def _prepare(tmp: Path, name: str) -> tuple[Path, Path]:
    out = tmp / f"games-{name}"
    subprocess.run([sys.executable, str(HERE / "prepare.py"), name, "3", str(out)], check=True)
    return out, out / "manifest.json"


def _result(args: list[str], cwd: Path) -> tuple[int, str]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return p.returncode, p.stdout


def test_counts_repeat() -> None:
    args = ["--workload", "limit-solve", "--seed", "11", "--seconds", "0", "--trace", "1"]
    results = []
    for _ in range(2):
        code, out = _result(args, ROOT)
        assert code == 0, out
        results.append(json.loads(out.strip().splitlines()[-1]))
    for r in results:
        assert r["correct"], r
    for name in spans.DETERMINISTIC:
        a, b = (r["metrics"][name]["value"] for r in results)
        assert a == b, f"{name}: {a} != {b}"


def test_fails_without_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out = _result(["--workload", "mp-solve", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    assert code != 0, "ran without the package sources"
    assert '"correct"' not in out


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    tmp = run.WORK / f"selftest-{os.getpid()}"
    tmp.mkdir()
    try:
        for test in (
            lambda: test_checks_reject_wrong_answers(tmp),
            lambda: test_loop_counts_wrong_answers(tmp),
            test_counts_repeat,
            lambda: test_fails_without_sources(tmp),
        ):
            test()
        print("selftest: all checks passed")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
