"""Benchmark of the secgames command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
`src/`, and scratch files go to `.perfbench_work/`, which is removed again.
Workloads and their reasons are defined in `workloads.py`.

Set-up.  `prepare.py` generates and writes the workload's games for the seed
in a fresh interpreter, SETUP_REPEATS times; `setup_s` is their median wall
time.

Untraced run (`--trace 0`).  A closed loop with one client: the games go
through their command sequences one after another, and every command runs
`secgames.cli.main(argv)` in a child forked from this warmed process, one
child at a time.  Each command therefore starts from the state of a fresh
`secgames` invocation, minus interpreter start-up and imports: nothing it
computes reaches the next command.  The loop stops at the first game boundary
after S seconds of command wall time.  After each game a forked checker
process checks every answer (`checks.py`); checks are never timed.

Traced run (`--trace 1`).  The first `trace_games` games of the pool run in
passes, each game once untraced and once with the wrappers of `spans.py`
installed in the command process, until S seconds have passed and at least
two passes are done.  Count metrics are totals over one pass and must repeat
exactly in every pass; times are the median over passes.  Every wrapped
function must be called on the workloads that use it and on no other.

End-to-end metrics (untraced run):
    games_per_s.ref   games taken through their whole command sequence per
                      second of command wall time
    synth_s.mean.ref  mean wall time of one `synth` command, the one command
                      every workload runs (a mean: the measures alternate
                      game by game, and a median flips between their costs)
    peak_rss_mb       peak resident memory of any command process
    setup_s           median wall time of the set-up, scaled like the
                      `.ref` metrics by reference runs around each set-up
The timing metrics are scaled to a machine of fixed speed (see
REFERENCE_S).  The readable report adds the unscaled figures, every
command's p50 and, with at least P90_MIN_SAMPLES samples, its p90, the
sample counts, and failed_frac, the share of commands whose answer failed.

The last line of standard output is the JSON result; the lines before it
are the readable report.  Exit code 0 means the run completed, whatever
`correct` says; anything else means no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
# a command that runs longer than this is killed and counts as failed
COMMAND_TIMEOUT_S = 60
# no new command starts after this many seconds of the run
RUN_LIMIT_S = 150
# a p90 needs this many samples, so that ten lie beyond it
P90_MIN_SAMPLES = 100

# The `.ref` metrics are scaled to a machine of fixed speed.  The fixed
# computation of reference.py runs in a forked child before the first game
# and after every game; a game whose two neighbouring reference runs took r
# seconds on average counts its command times divided by r / REFERENCE_S.
# Shared virtual machines drift in speed by a third within a minute (seen on
# a 2-vCPU VM with Python 3.11), far more than the bounds, and the reference
# drifts with them: interleaved with a fixed command, the ratio of the two
# stayed within 4% while each moved by 30%.  REFERENCE_S only fixes the
# unit: it is about the reference time on that VM at full speed.
REFERENCE_S = 0.016

E2E_UNITS = {
    "games_per_s.ref": "1/s",
    "synth_s.mean.ref": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Step:
    step: str
    seconds: float | None = None  # None: not run
    code: int | None = None
    rss_kb: int = 0
    spans: list | None = None

    @property
    def command(self) -> str:
        return self.step.split(":")[0].rstrip("12")


def _payoff_point(synth_out: str) -> str | None:
    """`p1,p2` of a synth document's payoff, for the point-box step."""
    try:
        p1, p2 = json.loads(synth_out)["payoff"]
    except (ValueError, KeyError, TypeError):
        return None
    return f"{p1},{p2}"


def _argv(step: str, game: str, profile: str, max_w1: int, point: str | None):
    if step.startswith("values"):
        return ["values", "--game", game, "--player", step[-1]]
    if step == "synth":
        return ["synth", "--game", game, "--out", profile]
    if step == "verify":
        return ["verify", "--game", game, "--profile", profile]
    box = step.split(":")[1]
    if box == "full":
        mu, nu = "-inf,-inf", "inf,inf"
    elif box == "above":
        mu, nu = f"{max_w1 + 1},-inf", "inf,inf"
    elif point is None:
        return None
    else:
        mu = nu = point
    return ["constrained", "--game", game, f"--mu={mu}", f"--nu={nu}"]


class Runner:
    """Runs commands and checks in forked children, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.profile = work / "prof.txt"
        self.spans_path = work / "spans.bin"
        self.failures = work / "failures.log"

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.deadline

    def _out(self, step: str) -> Path:
        return self.work / f"{step.replace(':', '-')}.out"

    def _err(self, step: str) -> Path:
        return self.work / f"{step.replace(':', '-')}.err"

    def command(self, step: str, argv: list[str], traced: bool) -> Step:
        from secgames import cli

        alarm = max(1, min(COMMAND_TIMEOUT_S, int(self.deadline - time.perf_counter()) + 1))
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                signal.alarm(alarm)
                for fd, path in ((1, self._out(step)), (2, self._err(step))):
                    f = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(f, fd)
                    os.close(f)
                tracer = spans.install() if traced else None
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                if tracer is not None:
                    tracer.dump(str(self.spans_path))
            except Exception:
                traceback.print_exc()
                code = 70
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
        try:
            _pid, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        seconds = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        recorded = None
        if traced and code >= 0 and self.spans_path.exists():
            recorded = spans.load(str(self.spans_path))
            self.spans_path.unlink()
        return Step(step, seconds, code, usage.ru_maxrss, recorded)

    def reference(self) -> float:
        """Wall time of the reference computation in a forked child."""
        from reference import reference_work

        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                reference_work()
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        return time.perf_counter() - start

    def game(self, case: dict, traced: bool) -> list[Step]:
        done = []
        point = None
        self.profile.unlink(missing_ok=True)
        for step in case["steps"]:
            argv = _argv(step, case["path"], str(self.profile), case["max_w1"], point)
            if argv is None or self.out_of_time():
                done.append(Step(step))
                continue
            result = self.command(step, argv, traced)
            if step == "synth" and result.code == 0:
                point = _payoff_point(self._out(step).read_text())
            done.append(result)
        return done

    def check(self, case: dict, steps: list[Step]) -> int:
        """Number of steps whose answer failed its check."""
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            bad = len(steps)
            try:
                bad = self._check(case, steps)
            except Exception:
                with open(self.failures, "a") as log:
                    log.write(f"{case['path']}: checker crashed\n{traceback.format_exc()}")
            finally:
                os._exit(bad)
        _pid, status = os.waitpid(pid, 0)
        bad = os.waitstatus_to_exitcode(status)
        return bad if 0 <= bad <= len(steps) else len(steps)

    def _check(self, case: dict, steps: list[Step]) -> int:
        import checks

        game = checks.load_game(case["path"])
        profile = self.profile.read_text() if self.profile.exists() else None
        bad = 0
        with open(self.failures, "a") as log:
            for s in steps:
                if s.seconds is None:
                    problem = "not run"
                else:
                    try:
                        problem = checks.check_step(
                            game, s.step, s.code, self._out(s.step).read_text(), profile
                        )
                    except Exception as exc:  # a malformed answer is a failed answer
                        problem = f"unreadable answer: {exc!r}"
                if problem:
                    bad += 1
                    err = self._err(s.step)
                    tail = err.read_text()[-300:] if s.seconds is not None and err.exists() else ""
                    log.write(f"{case['path']} {s.step}: {problem}\n{tail}")
        return bad


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def untraced(runner: Runner, pool: list[dict], seconds: float, report: list[str]):
    per_command: dict[str, list[float]] = {}
    game_s: list[float] = []
    scaled_game_s: list[float] = []
    scaled_synth_s: list[float] = []
    refs = [runner.reference()]
    timed = 0.0
    attempted = failed = rss_kb = 0
    i = 0
    while i == 0 or (timed < seconds and not runner.out_of_time()):
        case = pool[i % len(pool)]
        i += 1
        steps = runner.game(case, traced=False)
        refs.append(runner.reference())
        slowness = (refs[-1] + refs[-2]) / 2 / REFERENCE_S
        failed += runner.check(case, steps)
        attempted += len(steps)
        ran = [s for s in steps if s.seconds is not None]
        for s in ran:
            per_command.setdefault(s.command, []).append(s.seconds)
            rss_kb = max(rss_kb, s.rss_kb)
            if s.command == "synth":
                scaled_synth_s.append(s.seconds / slowness)
        game_s.append(sum(s.seconds for s in ran))
        scaled_game_s.append(game_s[-1] / slowness)
        timed += game_s[-1]

    every = [t for times in per_command.values() for t in times]
    reference_s = statistics.median(refs)
    games_per_s = len(game_s) / timed
    synth_mean = statistics.mean(per_command["synth"])
    metrics = {
        "games_per_s.ref": len(game_s) / sum(scaled_game_s),
        "synth_s.mean.ref": statistics.mean(scaled_synth_s),
        "peak_rss_mb": rss_kb / 1024,
    }
    report.append(f"games {len(game_s)} (pool {len(pool)}), commands {len(every)}, timed {timed:.3f} s")
    for cmd in ("values", "synth", "verify", "constrained"):
        times = per_command.get(cmd)
        if not times:
            report.append(f"{cmd}_s: not run on this workload")
            continue
        line = f"{cmd}_s.p50 {statistics.median(times):.6f} s  n={len(times)}"
        if len(times) >= P90_MIN_SAMPLES:
            line += f"   {cmd}_s.p90 {_p90(times):.6f} s"
        else:
            line += f"   {cmd}_s.p90 omitted (n < {P90_MIN_SAMPLES})"
        report.append(line)
    report.append(f"game_s.p50 {statistics.median(game_s):.6f} s  n={len(game_s)}")
    report.append(f"cmd_s.p90 {_p90(every):.6f} s  n={len(every)}")
    report.append(f"games_per_s {games_per_s:.4f} 1/s   synth_s.mean {synth_mean:.6f} s")
    report.append(f"reference_s.p50 {reference_s:.6f} s  n={len(refs)}")
    report.append(f"games_per_s.ref {metrics['games_per_s.ref']:.4f} 1/s")
    report.append(f"synth_s.mean.ref {metrics['synth_s.mean.ref']:.6f} s")
    report.append(f"failed_frac {failed / max(attempted, 1):.4f}  ({failed} of {attempted} commands)")
    report.append(f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB")
    return metrics, attempted, failed


def traced(runner: Runner, workload, pool: list[dict], seconds: float, report: list[str]):
    cases = pool[: workload.trace_games]
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        stats = spans.PassStats()
        plain = with_spans = 0.0
        for case in cases:
            for mode in (False, True):
                steps = runner.game(case, traced=mode)
                failed += runner.check(case, steps)
                attempted += len(steps)
                t = sum(s.seconds for s in steps if s.seconds is not None)
                if mode:
                    with_spans += t
                    for s in steps:
                        if s.spans is not None:
                            stats.add(s.spans)
                else:
                    plain += t
        m = stats.metrics()
        m[spans.OVERHEAD[0]] = (with_spans - plain) / plain
        m[spans.COMMAND_S[0]] = with_spans
        passes.append((m, stats.called()))
        if runner.out_of_time():
            break

    problems = []
    first, called = passes[0]
    for m, _called in passes[1:]:
        for name in spans.DETERMINISTIC:
            if m[name] != first[name]:
                problems.append(f"count {name} differs between passes: {first[name]} vs {m[name]}")
    uses = set(workload.uses)
    for f in sorted(uses - called):
        problems.append(f"coverage: {f} was never called, but {workload.name} uses it")
    for f in sorted(called - uses):
        problems.append(f"coverage: {f} was called, but {workload.name} bypasses it")

    metrics = {}
    for name in spans.UNITS:
        if name in spans.DETERMINISTIC:
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(m[name] for m, _c in passes)
    report.append(
        f"traced passes {len(passes)} over {len(cases)} games; counts are per pass, "
        "times are seconds per pass (median over passes)"
    )
    command_s = metrics[spans.COMMAND_S[0]]
    for name, value in metrics.items():
        line = f"{name} {value:.6g} {spans.UNITS[name]}"
        if spans.UNITS[name] == "s" and name != spans.COMMAND_S[0]:
            line += f"  ({value / command_s:.1%} of traced command time)"
        report.append(line)
    report.append(
        "note: equilibrium.synthesize_secure_eq.self_s includes the inf/sup strategy "
        "extraction, which calls private lex helpers that are not wrapped"
    )
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.perf_counter()
    # on SIGTERM, unwind through the clean-up below instead of dying at once
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "secgames" / "cli.py").is_file():
        print(f"perfbench: no secgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import secgames.cli  # noqa: F401  (warm the parent that commands fork from)
    import checks  # noqa: F401

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(work, begun + RUN_LIMIT_S)
        setup_times = []
        scaled_setup_times = []
        refs = [runner.reference()]
        for i in range(SETUP_REPEATS):
            games = work / f"games{i}"
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "prepare.py"), workload.name, str(args.seed), str(games)],
                check=True,
            )
            setup_times.append(time.perf_counter() - t0)
            refs.append(runner.reference())
            scaled_setup_times.append(setup_times[-1] / ((refs[-1] + refs[-2]) / 2 / REFERENCE_S))
            if i:
                shutil.rmtree(work / f"games{i - 1}")
        pool = json.loads((games / "manifest.json").read_text())

        report = [f"workload {workload.name}: {workload.why}"]
        if args.trace:
            metrics, attempted, failed, problems = traced(runner, workload, pool, args.seconds, report)
            units = spans.UNITS
        else:
            metrics, attempted, failed = untraced(runner, pool, args.seconds, report)
            metrics["setup_s"] = statistics.median(scaled_setup_times)
            report.append(
                f"setup_s {metrics['setup_s']:.6f} s at reference speed, "
                f"{statistics.median(setup_times):.6f} s measured  (median of {SETUP_REPEATS})"
            )
            units = E2E_UNITS
            problems = []
        for line in report:
            print(line)
        if runner.failures.exists():
            print(runner.failures.read_text()[:4000], file=sys.stderr)
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
