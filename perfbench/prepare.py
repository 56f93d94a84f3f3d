"""Set-up step of the benchmark: generate a workload's games and write them.

It runs in a fresh interpreter, so its wall time covers interpreter start-up,
the imports a `secgames` command pays for, game generation and file writing:

    python3 perfbench/prepare.py WORKLOAD SEED OUTDIR

OUTDIR receives one `.game` file per game and `manifest.json`, the list of
games with the steps to run on each.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import secgames.cli  # noqa: E402,F401  (the import cost of a command)
from workloads import WORKLOADS, generate  # noqa: E402


def prepare(name: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for case in generate(WORKLOADS[name], seed):
        path = out / f"g{case.index}.game"
        path.write_text(case.text)
        manifest.append({"path": str(path), "steps": case.steps, "max_w1": case.max_w1})
    (out / "manifest.json").write_text(json.dumps(manifest))


if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
