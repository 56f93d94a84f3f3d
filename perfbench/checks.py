"""Answer checks for the benchmark's CLI commands.

They run after a game's command sequence, outside the timed region, in a
process of their own, and use the package's model code plus the brute-force
oracle's enumeration helpers as ground truth:

* values, mean-payoff and liminf/limsup: the returned uniform strategies form
  a saddle point at the reported values.  Against the protagonist's strategy
  every positional opponent strategy yields at least the value, some yields
  exactly it, and symmetrically for the opponent's strategy.  With positional
  strategies sufficient for these measures this pins every value exactly.
* values, discounted: the primary component satisfies the optimality
  equations (`zerosum.check_discounted_fixpoint`).
* values, inf/sup: playing the returned per-vertex strategies from each
  vertex gives a lasso whose payoff is the reported value.
* synth: the profile file's outcome (`outcome_of_profile`) and its payoff
  (`eval_lasso_payoff`) reproduce the printed outcome and payoff.
* verify: prints `true` for the profile just synthesized.
* constrained: the known answer of each box.

A command that crashed or exited with an unexpected code also fails.
"""

from __future__ import annotations

import json

from secgames.equilibrium import outcome_of_profile
from secgames.format import parse_game, parse_profile
from secgames.game import Lasso, Measure, PayoffPair, eval_lasso_payoff, lex_key
from secgames.lex import make_view
from secgames.oracle import enumerate_positional, profile_outcome
from secgames.rational import rational
from secgames.zerosum import ScalarGame, check_discounted_fixpoint

# (exit code, stdout) of the steps whose answer is known in advance
EXPECTED = {
    "verify": (0, "true"),
    "constrained:full": (0, "true"),
    "constrained:point": (0, "true"),
    "constrained:above": (1, "false"),
}


def _pair(doc_pair) -> PayoffPair:
    return PayoffPair(rational(doc_pair[0]), rational(doc_pair[1]))


def _edge_strategy(game, names: dict[str, str]) -> dict[int, int]:
    """name -> successor name map as vertex index -> edge index."""
    edge_index = {e: k for k, e in enumerate(game.edges)}
    return {game.index[u]: edge_index[(u, v)] for u, v in names.items()}


def _walk(choice, v0: str) -> Lasso:
    seen: dict[str, int] = {}
    path: list[str] = []
    cur = v0
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = choice(cur)
    k = seen[cur]
    return Lasso(tuple(path[:k]), tuple(path[k:]))


def check_values(game, which: int, text: str) -> str | None:
    """None when the values document is right, else what is wrong."""
    doc = json.loads(text)
    if doc.get("kind") != "lex-values" or doc.get("player") != which:
        return "not a values document for this player"
    values = {v: _pair(p) for v, p in doc["values"].items()}
    if sorted(values) != sorted(game.vertices):
        return "values do not cover the vertices"
    own = 0 if which == 1 else 1
    opp = 2 if which == 1 else 1
    key = lambda p: lex_key(p, which)  # noqa: E731

    if game.measure1 is Measure.DISC:
        view = make_view(game, which)
        primary = [values[v][own] for v in game.vertices]
        if not check_discounted_fixpoint(ScalarGame(view.arena, view.wa, 0), game.discount, primary):
            return "discounted values break the optimality equations"
        return None

    if game.measure1 in (Measure.INF, Measure.SUP):
        for v in game.vertices:
            smax, smin = doc["strategy_max"][v], doc["strategy_min"][v]

            def choice(u):
                return (smax if game.owner[u] == which else smin)[u]

            if eval_lasso_payoff(game, _walk(choice, v)) != values[v]:
                return f"optimal strategies from {v} do not achieve its value"
        return None

    smax = _edge_strategy(game, doc["strategy_max"])
    smin = _edge_strategy(game, doc["strategy_min"])
    opp_strats = list(enumerate_positional(game, opp))
    own_strats = list(enumerate_positional(game, which))
    for v in game.vertices:
        start = game.index[v]
        worst = min(
            (eval_lasso_payoff(game, profile_outcome(game, smax, s, start)) for s in opp_strats),
            key=key,
        )
        best = max(
            (eval_lasso_payoff(game, profile_outcome(game, s, smin, start)) for s in own_strats),
            key=key,
        )
        if worst != values[v] or best != values[v]:
            return f"value at {v} is not the saddle point of the returned strategies"
    return None


def check_synth(game, text: str, profile_text: str) -> str | None:
    doc = json.loads(text)
    printed = Lasso(tuple(doc["outcome"]["stem"]), tuple(doc["outcome"]["cycle"]))
    profile, _outcome = parse_profile(profile_text, game)
    if outcome_of_profile(game, doc["init"], profile) != printed.canonical():
        return "profile outcome differs from the printed outcome"
    if eval_lasso_payoff(game, printed) != _pair(doc["payoff"]):
        return "printed payoff is not the outcome's payoff"
    return None


def check_step(game, step: str, code: int, out: str, profile_text: str | None) -> str | None:
    """Check one command's exit code and output; None when right."""
    if step in EXPECTED:
        want_code, want_out = EXPECTED[step]
        if code != want_code or out.strip() != want_out:
            return f"exit {code}, output {out.strip()[:40]!r}; expected {want_out}"
        return None
    if code != 0:
        return f"exit {code}"
    if step.startswith("values"):
        return check_values(game, int(step[-1]), out)
    if step == "synth":
        if profile_text is None:
            return "no profile file written"
        return check_synth(game, out, profile_text)
    return f"unknown step {step}"


def load_game(path: str):
    with open(path, "rb") as fh:
        return parse_game(fh.read())[0]
