"""Workload definitions and the seeded game generator.

Every game is generated the same way: |V| = n vertices v0..v{n-1}, each with
two distinct uniformly random successors (a self-loop is allowed), uniform
owners, both weight components uniform integers in [0, W], and `init v0`.
A workload lists one or more game families; consecutive games cycle through
the families, and inside a family through its measures, so the measures
alternate game by game.

Each step of a game is one CLI command, run in a fresh child process:

    values1 / values2   values --player 1 / 2
    synth               synth --out prof.txt
    verify              verify --profile prof.txt (the profile just written)
    constrained:full    constrained --mu -inf,-inf --nu inf,inf      (true)
    constrained:above   constrained --mu max(w1)+1,-inf --nu inf,inf (false)
    constrained:point   constrained --mu p --nu p, p = synth payoff  (true)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from secgames.format import serialize_game
from secgames.game import Measure, WeightedGame

SOLVE_STEPS = ("values1", "values2", "synth", "verify")

# Wrapped functions (spans.FUNCTIONS) that a step calls whatever the measure:
# synth, then verify on top of it, and constrained.
SYNTH_LAYERS = (
    "format.parse_game",
    "format.serialize_profile",
    "game.eval_lasso_payoff",
    "lex.solve_lex",
    "equilibrium.synthesize_secure_eq",
)
SOLVE_LAYERS = SYNTH_LAYERS + (
    "format.parse_profile",
    "equilibrium.verify_profile_secure",
    "equilibrium.check_secure_outcome",
)
DECIDE_LAYERS = (
    "graphs.tarjan_sccs",
    "constrained.decide_constrained_existence",
    "constrained.path_in_box",
)


@dataclass(frozen=True)
class Family:
    measures: tuple[str, ...]
    n: int
    w: int
    steps: tuple[str, ...]
    discount: Fraction | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[Family, ...]
    # games in the traced pass; counts are totals over exactly these games
    trace_games: int
    # size of the generated pool; the closed loop wraps around if it runs out
    pool: int
    # wrapped functions the traced pass must call; it must call no other
    uses: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mp-solve",
            "Only workload where the mean-payoff engine (zerosum.energy_region, "
            "via the scalarized lex game) does most of the work; no parity or "
            "LP code runs.",
            (Family(("mpinf", "mpsup"), 7, 2, SOLVE_STEPS),),
            trace_games=12,
            pool=240,
            uses=SOLVE_LAYERS
            + ("game.normalize_weights", "zerosum.energy_region", "zerosum.solve_mean_payoff"),
        ),
        Workload(
            "limit-solve",
            "Strategy extraction dominates: the edge dichotomy in lex re-solves "
            "parity games through graphs.attractor; energy and LP never run.",
            (
                Family(
                    ("liminf", "limsup"),
                    10,
                    4,
                    SOLVE_STEPS + ("constrained:full", "constrained:above"),
                ),
            ),
            trace_games=12,
            pool=300,
            uses=SOLVE_LAYERS
            + DECIDE_LAYERS
            + (
                "game.normalize_weights",
                "graphs.attractor",
                "zerosum.solve_parity",
                "zerosum.streett2_nonempty",
            ),
        ),
        # n = 4 rather than 5: LP time per game varies tenfold between games;
        # at n = 5 a 25 s run holds about 35 games and its throughput spread
        # 16-30% across seeds, at n = 4 it holds about 55
        Workload(
            "mp-decide",
            "lp.lp_feasible dominates constrained: true boxes stop at the first "
            "feasible branch, the false box works through every pair and branch.",
            (
                Family(
                    ("mpinf", "mpsup"),
                    4,
                    2,
                    ("synth", "constrained:point", "constrained:full", "constrained:above"),
                ),
            ),
            trace_games=8,
            pool=120,
            uses=SYNTH_LAYERS
            + DECIDE_LAYERS
            + (
                "game.normalize_weights",
                "zerosum.energy_region",
                "zerosum.solve_mean_payoff",
                "lp.lp_feasible",
                "lp.simplex_max",
            ),
        ),
        Workload(
            "large-arena",
            "Only workload with big arenas: running-extremes arenas, large Mealy "
            "machines and profile files, and discounted policy iteration.",
            (
                Family(("inf", "sup"), 30, 2, SOLVE_STEPS + ("constrained:full",)),
                Family(("disc",), 150, 10, SOLVE_STEPS, discount=Fraction(9, 10)),
            ),
            trace_games=4,
            pool=80,
            uses=SOLVE_LAYERS
            + DECIDE_LAYERS
            + (
                "graphs.attractor",
                "zerosum.solve_parity",
                "zerosum.solve_discounted",
                "zerosum.streett2_nonempty",
                "lex.augment_view",
            ),
        ),
    )
}


@dataclass(frozen=True)
class GameCase:
    index: int
    text: str
    steps: tuple[str, ...]
    max_w1: int


def _closure(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for t in adj[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _extremes_states(succ: list[list[int]], weights, pick) -> int:
    """Number of (vertex, running extreme of each component) states reachable
    from v0, where `pick` is min (inf) or max (sup)."""
    start = (0, None, None)
    seen = {start}
    stack = [start]
    while stack:
        v, e1, e2 = stack.pop()
        for t, (w1, w2) in zip(succ[v], weights[v]):
            s = (t, w1 if e1 is None else pick(e1, w1), w2 if e2 is None else pick(e2, w2))
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return len(seen)


def _shape(succ: list[list[int]], weights, measure: Measure) -> tuple[int, ...]:
    """The arena property the solvers' cost follows most closely: the
    running-extremes arena size for inf/sup, otherwise the largest SCC
    reachable from v0 and then the number of vertices reachable from v0."""
    if measure in (Measure.INF, Measure.SUP):
        return (_extremes_states(succ, weights, min if measure is Measure.INF else max),)
    pred: list[list[int]] = [[] for _ in succ]
    for u, targets in enumerate(succ):
        for t in targets:
            pred[t].append(u)
    reach = _closure(succ, 0)
    left = set(reach)
    largest = 0
    while left:
        v = min(left)
        scc = _closure(succ, v) & _closure(pred, v)
        largest = max(largest, len(scc))
        left -= scc
    return largest, len(reach)


def _spread_order(k: int) -> list[int]:
    """Bit-reversal permutation of range(k): every prefix is spread evenly
    over the range."""
    bits = max(1, (k - 1).bit_length())
    out = []
    for i in range(1 << bits):
        j = int(format(i, f"0{bits}b")[::-1], 2)
        if j < k:
            out.append(j)
    return out


def random_game(rng: random.Random, measure: str, n: int, w: int, discount):
    """A game as the workloads define it, with its arena shape."""
    names = [f"v{i}" for i in range(n)]
    owner = {v: rng.choice((1, 2)) for v in names}
    succ = [rng.sample(range(n), 2) for _ in range(n)]
    pairs = [[(rng.randint(0, w), rng.randint(0, w)) for _t in succ[i]] for i in range(n)]
    edges = [(names[i], names[t]) for i in range(n) for t in succ[i]]
    weights = {
        (names[i], names[t]): (Fraction(a), Fraction(b))
        for i in range(n)
        for t, (a, b) in zip(succ[i], pairs[i])
    }
    m = Measure(measure)
    game = WeightedGame(names, owner, edges, weights, m, m, discount if m is Measure.DISC else None)
    return game, _shape(succ, pairs, m)


def generate(workload: Workload, seed: int, count: int | None = None) -> list[GameCase]:
    """The workload's game pool for `seed`: the same seed gives the same games.

    Game i belongs to family i mod F and, inside it, to the measures in turn.
    Each (family, measure) class draws its games independently, then orders
    them so that any prefix covers the range of arena shapes evenly: the
    loop's first N games form a balanced sample of the class, whatever N the
    run reaches, so runs with different seeds see the same mix of easy and
    hard games.  The pool as a whole is an ordinary independent sample.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    total = workload.pool if count is None else count
    nfam = len(workload.families)
    classes = []
    for i in range(total):
        fam = workload.families[i % nfam]
        classes.append((fam, fam.measures[(i // nfam) % len(fam.measures)]))
    queues = {}
    for key in dict.fromkeys(classes):
        fam, measure = key
        drawn = [random_game(rng, measure, fam.n, fam.w, fam.discount) for _ in range(classes.count(key))]
        by_shape = sorted(range(len(drawn)), key=lambda j: drawn[j][1])
        queues[key] = [drawn[by_shape[j]][0] for j in reversed(_spread_order(len(drawn)))]
    cases = []
    for i, key in enumerate(classes):
        game = queues[key].pop()
        cases.append(GameCase(i, serialize_game(game, "v0"), key[0].steps, int(max(game.w1))))
    return cases
