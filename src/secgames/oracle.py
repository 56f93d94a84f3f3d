"""Brute-force ground truth: positional minimax, lasso enumeration, cycle
decomposition, Zwick-Paterson value iteration for mean-payoff games,
one-vertex energy lifting, and the seeded test corpus generator.

The oracle never touches solver code paths; it enumerates positional
strategies, materializes profile outcomes as lassos and evaluates them
directly.  Its validity for exact values rests on positional determinacy of
the lexicographic games, which the max-min = min-max check itself
corroborates empirically.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import EnumerationCapError, InvalidLassoError
from .game import Lasso, Measure, PayoffPair, WeightedGame, eval_lasso_payoff, lex_key
from .graphs import Arena
from .zerosum import ScalarGame

DEFAULT_CAP = 10**6


def strategy_count(game: WeightedGame, player: int) -> int:
    count = 1
    for v in range(game.n):
        if game.owner_of[v] == player:
            count *= len(game.out_edges[v])
    return count


def enumerate_positional(game: WeightedGame, player: int, cap: int = DEFAULT_CAP):
    """All positional strategies of a player, as vertex->edge-index dicts,
    in deterministic declaration order."""
    if strategy_count(game, player) > cap:
        raise EnumerationCapError(
            f"player {player} has more than {cap} positional strategies"
        )
    owned = [v for v in range(game.n) if game.owner_of[v] == player]
    pools = [game.out_edges[v] for v in owned]
    for combo in itertools.product(*pools):
        yield dict(zip(owned, combo))


def strategy_names(game: WeightedGame, strat: dict[int, int]) -> dict[str, str]:
    return {
        game.vertices[v]: game.vertices[game.edge_tgt[k]] for v, k in strat.items()
    }


def profile_outcome(game: WeightedGame, strat1, strat2, start: int) -> Lasso:
    """Outcome lasso of a positional profile from a vertex index."""
    choice = {}
    choice.update(strat1)
    choice.update(strat2)
    seen = {}
    path = []
    cur = start
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = game.edge_tgt[choice[cur]]
    k = seen[cur]
    return Lasso(
        tuple(game.vertices[x] for x in path[:k]),
        tuple(game.vertices[x] for x in path[k:]),
    ).canonical()


@dataclass
class OracleLexTable:
    which: int
    maxmin: dict[str, PayoffPair]
    minmax: dict[str, PayoffPair]

    @property
    def determined(self) -> bool:
        return self.maxmin == self.minmax


def oracle_lex_values(game: WeightedGame, which: int, cap: int = DEFAULT_CAP) -> OracleLexTable:
    """Positional minimax of the lexicographic game of player `which`.

    maxmin(v) = best payoff the protagonist can guarantee, minmax(v) the
    best the opponent can limit him to; equality is the empirical
    determinacy check.
    """
    prot, ant = (1, 2) if which == 1 else (2, 1)
    prot_strats = list(enumerate_positional(game, prot, cap))
    ant_strats = list(enumerate_positional(game, ant, cap))

    # payoff of every profile from every vertex, deduplicating lassos
    payoff_cache: dict[tuple, PayoffPair] = {}

    def payoff(sp, sa, v) -> PayoffPair:
        lasso = profile_outcome(game, sp, sa, v)
        key = (lasso.stem, lasso.cycle)
        if key not in payoff_cache:
            payoff_cache[key] = eval_lasso_payoff(game, lasso)
        return payoff_cache[key]

    maxmin = {}
    minmax = {}
    for v in range(game.n):
        rows = [
            [payoff(sp, sa, v) for sa in ant_strats]
            for sp in prot_strats
        ]
        key = lambda p: lex_key(p, which)
        maxmin[game.vertices[v]] = max(
            (min(row, key=key) for row in rows), key=key
        )
        minmax[game.vertices[v]] = min(
            (max(col, key=key) for col in zip(*rows)), key=key
        )
    return OracleLexTable(which, maxmin, minmax)


def oracle_guarantee(game: WeightedGame, which: int, prot_strat, start: str, cap: int = DEFAULT_CAP) -> PayoffPair:
    """Worst-case payoff of a fixed protagonist positional strategy."""
    ant = 2 if which == 1 else 1
    v = game.index[start]
    best = None
    for sa in enumerate_positional(game, ant, cap):
        p = eval_lasso_payoff(game, profile_outcome(game, prot_strat, sa, v))
        if best is None or lex_key(p, which) < lex_key(best, which):
            best = p
    return best


# ---------------------------------------------------------------------------
# cycle decomposition (stack algorithm)


def cycle_decomposition(prefix, game: WeightedGame | None = None):
    """Factor a finite path into a multiset of simple cycles plus the
    residual stack, pushing vertices and popping whenever one repeats.

    Returns (Counter of rotation-canonical cycle tuples, residual list).
    """
    if game is not None:
        for u, v in zip(prefix, prefix[1:]):
            if not game.has_edge(u, v):
                raise InvalidLassoError(f"({u}, {v}) is not an edge")
    stack = []
    pos = {}
    cycles = Counter()
    for v in prefix:
        if v in pos:
            cyc = tuple(stack[pos[v]:])
            cycles[_canonical_rotation(cyc)] += 1
            for w in stack[pos[v] + 1 :]:
                del pos[w]
            del stack[pos[v] + 1 :]
        else:
            pos[v] = len(stack)
            stack.append(v)
    return cycles, stack


def _canonical_rotation(cycle: tuple) -> tuple:
    rots = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rots)


# ---------------------------------------------------------------------------
# mean-payoff values by value iteration (independent of the energy route)


def zp_value_iteration(game: ScalarGame, check_every: int = 64) -> list[Fraction]:
    """Value iteration nu_{k+1}(v) = opt_e (w(e) + nu_k(v')) with rounding.

    After k steps every true value lies in [nu_k(v)/k - 2nW/k, + 2nW/k];
    iteration stops as soon as that interval isolates a unique rational with
    denominator <= n (guaranteed by k = 4 n^3 W + 1).  Exponentially slower
    than the energy route on scaled weights; kept as an independent oracle.
    """
    arena = game.arena
    n = arena.n
    wts = [int(w) for w in game.weights]
    W = max((abs(w) for w in wts), default=0)
    if W == 0:
        return [Fraction(0)] * n
    pmax = game.maximizer
    kmax = 4 * n**3 * W + 1
    nu = [0] * n
    values: list[Fraction | None] = [None] * n
    remaining = set(range(n))
    k = 0
    while k < kmax and remaining:
        k += 1
        new = [0] * n
        for v in range(n):
            best = None
            if arena.owner[v] == pmax:
                for e in arena.out_edges[v]:
                    c = wts[e] + nu[arena.edge_tgt[e]]
                    if best is None or c > best:
                        best = c
            else:
                for e in arena.out_edges[v]:
                    c = wts[e] + nu[arena.edge_tgt[e]]
                    if best is None or c < best:
                        best = c
            new[v] = best
        nu = new
        if k % check_every == 0 or k == kmax:
            bound = Fraction(2 * n * W, k)
            for v in list(remaining):
                centre = Fraction(nu[v], k)
                found = []
                for q in range(1, n + 1):
                    p0 = ceil((centre - bound) * q)
                    p1 = floor((centre + bound) * q)
                    for p in range(p0, p1 + 1):
                        f = Fraction(p, q)
                        if abs(f - centre) <= bound:
                            found.append(f)
                    if len(set(found)) > 1:
                        break
                cand = sorted(set(found))
                if len(cand) == 1:
                    values[v] = cand[0]
                    remaining.discard(v)
    if remaining:
        raise RuntimeError("value iteration failed to isolate a value")
    return [v for v in values]  # type: ignore[list-item]


def energy_measure_by_lifting(
    arena: Arena,
    wts: list[int],
    keeper: int,
    frozen_win: set[int] = frozenset(),
    frozen_lose: set[int] = frozenset(),
) -> list[int]:
    """Least progress measure for "keeper forms only cycles of weight >= 0"
    by one-vertex lifting from a worklist (Brim et al., FMSD 2011).

    Measures lie in 0..cap or top = cap + 1 with cap = n * maxdrop;
    frozen_win / frozen_lose vertices are pinned to 0 / top and an edge
    into a frozen_win vertex asks for 0.  Each lift raises one vertex to
    its need, so a losing vertex climbs to top one cycle weight at a time;
    kept as an independent oracle for the set-lifting engine.
    """
    n = arena.n
    maxdrop = max(0, -min(wts)) if wts else 0
    cap = n * maxdrop
    top = cap + 1

    f = [0] * n
    for v in frozen_lose:
        f[v] = top

    def lift_needed(v: int) -> int:
        best = None
        is_keeper = arena.owner[v] == keeper
        for k in arena.out_edges[v]:
            t = arena.edge_tgt[k]
            if t in frozen_win:
                cand = 0
            else:
                ft = f[t]
                if ft >= top:
                    cand = top
                else:
                    cand = ft - wts[k]
                    if cand < 0:
                        cand = 0
                    elif cand > cap:
                        cand = top
            if is_keeper:
                if best is None or cand < best:
                    best = cand
                    if best == 0:
                        break
            else:
                if best is None or cand > best:
                    best = cand
                    if best >= top:
                        break
        return best if best is not None else top

    queue = [v for v in range(n) if v not in frozen_win and v not in frozen_lose]
    in_queue = [False] * n
    for v in queue:
        in_queue[v] = True
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        in_queue[v] = False
        need = lift_needed(v)
        if need > f[v]:
            f[v] = need
            for k in arena.in_edges[v]:
                u = arena.edge_src[k]
                if u in frozen_win or u in frozen_lose:
                    continue
                if not in_queue[u]:
                    in_queue[u] = True
                    queue.append(u)
    return f


# ---------------------------------------------------------------------------
# lasso enumeration


def enumerate_lassos(game: WeightedGame, start: str, max_stem: int, max_cycle: int):
    """All lassos from `start` within the length bounds, each infinite play
    yielded once in canonical (shortest stem) form."""
    if max_stem < 0 or max_cycle < 1:
        raise ValueError("bounds must allow a nonempty cycle")
    seen = set()
    v0 = game.index[start]

    def emit(stem_idx, cyc_idx):
        lasso = Lasso(
            tuple(game.vertices[x] for x in stem_idx),
            tuple(game.vertices[x] for x in cyc_idx),
        ).canonical()
        key = (lasso.stem, lasso.cycle)
        if key not in seen:
            seen.add(key)
            return lasso
        return None

    def cycles_from(c0, path):
        # closed walks from c0 back to c0 of length <= max_cycle
        if len(path) > 1 and path[-1] == c0:
            yield path[:-1]
            return
        if len(path) > max_cycle:
            return
        for k in game.out_edges[path[-1]]:
            t = game.edge_tgt[k]
            if len(path) + (0 if t == c0 else 1) <= max_cycle + 1:
                yield from cycles_from(c0, path + [t])

    def stems(path):
        yield path
        if len(path) - 1 >= max_stem:
            return
        for k in game.out_edges[path[-1]]:
            yield from stems(path + [game.edge_tgt[k]])

    for stem in stems([v0]):
        anchor = stem[-1]
        for cyc in cycles_from(anchor, [anchor]):
            out = emit(stem[:-1], cyc)
            if out is not None:
                yield out


def enumerate_cycle_profiles(game: WeightedGame, start: str, max_len: int):
    """Mean-payoff pairs of all closed walks of length <= max_len reachable
    from `start`, enumerated as balanced connected edge multisets.

    Equivalent to exhausting lassos for prefix-independent mean payoffs,
    without walking the exponentially many interleavings.
    """
    from .graphs import Arena, reachable_from

    arena = Arena(game.n, [0] * game.n, list(zip(game.edge_src, game.edge_tgt)))
    reach = reachable_from(arena, [game.index[start]])
    edges = [k for k in range(len(game.edges)) if game.edge_src[k] in reach]
    results = set()

    counts = [0] * len(edges)

    def balanced_connected() -> bool:
        out_deg = Counter()
        in_deg = Counter()
        verts = set()
        used = []
        for i, c in enumerate(counts):
            if c:
                k = edges[i]
                out_deg[game.edge_src[k]] += c
                in_deg[game.edge_tgt[k]] += c
                verts.add(game.edge_src[k])
                verts.add(game.edge_tgt[k])
                used.append(k)
        if not used:
            return False
        if any(out_deg[v] != in_deg[v] for v in verts):
            return False
        # connectivity of the support (undirected suffices for Eulerian
        # closed walks given balance, but check directed reachability)
        root = game.edge_src[used[0]]
        frontier = [root]
        seen = {root}
        succ = {}
        for k in used:
            succ.setdefault(game.edge_src[k], []).append(game.edge_tgt[k])
        while frontier:
            x = frontier.pop()
            for t in succ.get(x, ()):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return verts <= seen

    def rec(i: int, remaining: int):
        if i == len(edges):
            if balanced_connected():
                total = sum(counts)
                s1 = sum(game.w1[edges[j]] * counts[j] for j in range(len(edges)))
                s2 = sum(game.w2[edges[j]] * counts[j] for j in range(len(edges)))
                results.add(PayoffPair(Fraction(s1, total), Fraction(s2, total)))
            return
        for c in range(remaining + 1):
            counts[i] = c
            rec(i + 1, remaining - c)
        counts[i] = 0

    rec(0, max_len)
    return sorted(results)


# ---------------------------------------------------------------------------
# seeded corpus


def random_game(
    rng: random.Random,
    max_vertices: int = 5,
    max_out_degree: int = 2,
    weight_alphabet=(0, 1, 2),
    measure: Measure = Measure.MPINF,
    discount: Fraction | None = None,
) -> WeightedGame:
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    owners = {names[i]: rng.choice((1, 2)) for i in range(n)}
    edges = []
    weights = {}
    for i in range(n):
        deg = rng.randint(1, max_out_degree)
        targets = rng.sample(range(n), min(deg, n))
        for t in targets:
            e = (names[i], names[t])
            edges.append(e)
            weights[e] = (
                Fraction(rng.choice(weight_alphabet)),
                Fraction(rng.choice(weight_alphabet)),
            )
    return WeightedGame(
        names,
        owners,
        edges,
        weights,
        measure,
        measure,
        discount if measure is Measure.DISC else None,
    )


def corpus(
    seed: int,
    count: int,
    measure: Measure = Measure.MPINF,
    discount: Fraction | None = None,
    max_vertices: int = 5,
    max_out_degree: int = 2,
    weight_alphabet=(0, 1, 2),
):
    """Deterministic stream of small random games."""
    rng = random.Random(seed)
    return [
        random_game(rng, max_vertices, max_out_degree, weight_alphabet, measure, discount)
        for _ in range(count)
    ]
