"""One-dimensional zero-sum solvers on integer-indexed arenas.

Engines:
  * attractor-based reachability/safety (graphs.attractor)
  * Zielonka recursion for parity games with a handful of priorities
  * exact mean-payoff values via threshold (energy) progress measures,
    with optimal strategies read off the finished measures.  The least
    measure is computed by set lifting: each round raises, by the same
    amount, the least set S that holds every vertex whose measure is too
    low and is closed under edges that are tight into S, so a closed
    losing set jumps to top in one round instead of climbing one cycle
    weight at a time.  It is the measure one-vertex lifting reaches
    (`energy_region` gives S, the amount and the reason)
  * exact policy iteration for discounted games
  * SCC-based emptiness for a conjunction of two Rabin pairs on graphs
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .errors import InternalError
from .graphs import Arena, attractor, reachable_from, shortest_path, tarjan_sccs


@dataclass
class ScalarGame:
    arena: Arena
    weights: list  # Fraction or int per edge index
    maximizer: int  # arena player index (0 or 1)


@dataclass
class SolveResult1D:
    values: list[Fraction]
    strategy_max: dict[int, int]  # vertex -> edge index
    strategy_min: dict[int, int]


# ---------------------------------------------------------------------------
# parity games


def solve_parity(arena: Arena, priority: list[int]):
    """Zielonka recursion; player 0 wins iff the maximum priority seen
    infinitely often is even.  Returns (win0, win1, strat0, strat1) with
    positional strategies defined on the owner's winning region."""

    def rec(sub: set[int]):
        if not sub:
            return set(), set(), {}, {}
        p = max(priority[v] for v in sub)
        sigma = p % 2  # player favored by priority p
        targets = {v for v in sub if priority[v] == p}
        a_set, a_strat = attractor(arena, sigma, targets, allowed=sub)
        w0, w1, s0, s1 = rec(sub - a_set)
        w_sig, w_oth = (w0, w1) if sigma == 0 else (w1, w0)
        s_sig, s_oth = (s0, s1) if sigma == 0 else (s1, s0)
        if not w_oth:
            strat = dict(s_sig)
            strat.update(a_strat)
            for v in targets:
                if arena.owner[v] == sigma and v not in strat:
                    for k in arena.out_edges[v]:
                        if arena.edge_tgt[k] in sub:
                            strat[v] = k
                            break
            win_sig, win_oth, strat_oth = set(sub), set(), {}
        else:
            b_set, b_strat = attractor(arena, 1 - sigma, w_oth, allowed=sub)
            w0b, w1b, s0b, s1b = rec(sub - b_set)
            wb_sig, wb_oth = (w0b, w1b) if sigma == 0 else (w1b, w0b)
            sb_sig, sb_oth = (s0b, s1b) if sigma == 0 else (s1b, s0b)
            win_sig = wb_sig
            win_oth = wb_oth | b_set
            strat = sb_sig
            strat_oth = dict(sb_oth)
            strat_oth.update(b_strat)
            strat_oth.update(s_oth)
        if sigma == 0:
            return win_sig, win_oth, strat, strat_oth
        return win_oth, win_sig, strat_oth, strat

    return rec(set(range(arena.n)))


# ---------------------------------------------------------------------------
# mean-payoff games (exact, pseudo-polynomial)


def _least_progress_measure(
    arena: Arena,
    wts: list[int],
    keeper: int,
    frozen_win: set[int],
    frozen_lose: set[int],
) -> tuple[list[int], int]:
    """The least progress measure and its top, by set lifting (see
    `energy_region`)."""
    n = arena.n
    maxdrop = max(0, -min(wts)) if wts else 0
    top = n * maxdrop + 1
    owner, out_edges, in_edges = arena.owner, arena.out_edges, arena.in_edges
    edge_src, edge_tgt = arena.edge_src, arena.edge_tgt

    f = [0] * n
    win = [False] * n
    frozen = [False] * n
    for v in frozen_win:
        win[v] = frozen[v] = True
    for v in frozen_lose:
        f[v] = top
        frozen[v] = True

    # Only the lifted set and its predecessors can turn unhappy, so they are
    # the next round's `dirty` list.  `checked` and `in_s` hold round stamps.
    dirty = [v for v in range(n) if not frozen[v]]
    checked = [0] * n
    in_s = [0] * n
    rnd = 0
    while True:
        rnd += 1
        s_list = []
        for v in dirty:
            if checked[v] == rnd:
                continue
            checked[v] = rnd
            fv = f[v]
            if fv >= top:
                continue
            edges = out_edges[v]
            if owner[v] == keeper:
                unhappy = True
                for k in edges:
                    t = edge_tgt[k]
                    if win[t] or (f[t] < top and f[t] - wts[k] <= fv):
                        unhappy = False
                        break
            else:
                unhappy = not edges
                for k in edges:
                    t = edge_tgt[k]
                    if not win[t] and (f[t] >= top or f[t] - wts[k] > fv):
                        unhappy = True
                        break
            if unhappy:
                in_s[v] = rnd
                s_list.append(v)
        if not s_list:
            return f, top

        # close S under tight edges, collecting every predecessor on the way
        dirty = list(s_list)
        into_s: dict[int, int] = {}  # keeper vertex -> edges violated or tight into S
        i = 0
        while i < len(s_list):
            u = s_list[i]
            i += 1
            fu = f[u]
            for k in in_edges[u]:
                p = edge_src[k]
                if frozen[p] or in_s[p] == rnd or f[p] >= top:
                    continue
                dirty.append(p)
                fp = f[p]
                if fu - wts[k] != fp:
                    continue
                if owner[p] == keeper:
                    c = into_s.get(p)
                    if c is None:
                        c = 0
                        for k2 in out_edges[p]:
                            t = edge_tgt[k2]
                            if not win[t] and (f[t] >= top or f[t] - wts[k2] > fp):
                                c += 1
                    c += 1
                    if c < len(out_edges[p]):
                        into_s[p] = c
                        continue
                in_s[p] = rnd
                s_list.append(p)

        delta = top
        for u in s_list:
            fu = f[u]
            for k in out_edges[u]:
                t = edge_tgt[k]
                if in_s[t] == rnd or win[t] or f[t] >= top:
                    continue
                x = f[t] - wts[k] - fu
                if 0 < x < delta:
                    delta = x
        for u in s_list:
            x = f[u] + delta
            f[u] = x if x < top else top


def energy_region(
    arena: Arena,
    wts: list[int],
    keeper: int,
    frozen_win: set[int] = frozenset(),
    frozen_lose: set[int] = frozenset(),
):
    """Least progress measure for "keeper forms only cycles of weight >= 0".

    frozen_win / frozen_lose vertices are treated as absorbing winning /
    losing positions (their measure is pinned to 0 / top).  Returns
    (region, strategy) where the strategy picks, for keeper vertices inside
    the region, the lowest-index edge consistent with the measure.

    The measure f maps each vertex to 0..cap or top = cap + 1, with
    cap = n * maxdrop.  An edge u -> t needs f[u] >= f[t] - w, read as 0
    below 0 and as top above cap; an edge into a frozen_win vertex needs 0.
    A keeper vertex needs its cheapest edge, an opponent vertex its
    dearest; a vertex is unhappy while its need exceeds f.  Rather than
    lift one vertex at a time, which proves a loss one cycle weight at a
    time, each round lifts a set (Dorfman, Kaplan & Zwick, ICALP 2019):
      * S is the least set of unfrozen vertices below top that holds every
        unhappy vertex, every keeper vertex each of whose edges is violated
        or tight into S, and every opponent vertex with an edge tight into
        S.  Tight means f[t] - w == f[u] exactly, so an edge with
        f[t] - w < f[u] is slack even at f[u] = 0.
      * delta is the smallest violation f[t] - w - f[u] over the violated
        edges from S to outside S; an edge into a top vertex counts as
        violation top.  All of S rises by delta, capped at top, so S goes
        to top when no edge bounds it.
    The rounds reach the least fixpoint mu of one-vertex lifting, because
    no round passes mu.  Let M be the vertices of S whose rise d to mu is
    smallest, and suppose d < delta.  Under mu, a violated edge from S
    needs more than f[u] + d: one that leaves S is violated by at least
    delta, one that stays in S also gains its target's rise.  So does an
    edge tight into S outside M.  A vertex of M, whose mu is f + d, is
    therefore not unhappy and would not join S without M by either rule;
    S without M is closed, against S being least.  When no vertex is
    unhappy, f is a fixpoint below mu, so it is mu.
    """
    f, top = _least_progress_measure(arena, wts, keeper, frozen_win, frozen_lose)
    region = set(frozen_win)
    region.update(v for v in range(arena.n) if f[v] < top and v not in frozen_lose)
    strategy = {}
    for v in region:
        if arena.owner[v] != keeper or v in frozen_win:
            continue
        for k in arena.out_edges[v]:
            t = arena.edge_tgt[k]
            if t in frozen_win:
                strategy[v] = k
                break
            if f[t] >= top:
                continue
            need = f[t] - wts[k]
            if need <= f[v]:
                strategy[v] = k
                break
    return region, strategy


def mp_threshold_region(
    arena: Arena,
    wts: list[int],
    maximizer: int,
    threshold: Fraction,
    known_in: set[int] = frozenset(),
    known_out: set[int] = frozenset(),
):
    """Vertices from which the maximizer forces mean payoff >= threshold,
    together with a witnessing positional strategy on that region.

    known_in / known_out short-circuit vertices whose comparison with the
    threshold is already settled; treating them as absorbing is exact.
    """
    q, p = threshold.denominator, threshold.numerator
    scaled = [q * w - p for w in wts]
    return energy_region(arena, scaled, maximizer, set(known_in), set(known_out))


def _mp_candidates(n: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    cands = []
    for q in range(1, n + 1):
        p0 = ceil(lo * q)
        p1 = floor(hi * q)
        for p in range(p0, p1 + 1):
            if gcd(p, q) == 1 or (p == 0 and q == 1):
                cands.append(Fraction(p, q))
    cands.sort()
    return cands


def solve_mean_payoff(game: ScalarGame, candidates: list[list[Fraction]] | None = None) -> SolveResult1D:
    """Exact values and uniform positional optimal strategies.

    Values are pinned by binary search over the rationals with denominator
    at most |V| in the weight range, each query answered by an energy
    progress measure.  `candidates` optionally restricts, per vertex, the
    set of possible values (must contain the true value); tight candidate
    ranges let threshold queries freeze far-away vertices as absorbing.
    Vertices that share one candidate list object are bisected together,
    so a caller passes the same list to every vertex of a group.
    """
    arena = game.arena
    n = arena.n
    wts = [int(w) for w in game.weights]
    if any(Fraction(w) != game.weights[i] for i, w in enumerate(wts)):
        raise ValueError("mean-payoff solver expects integer weights")
    pmax = game.maximizer

    if candidates is None:
        lo, hi = Fraction(min(wts)), Fraction(max(wts))
        shared = _mp_candidates(n, lo, hi)
        per_vertex = [shared] * n
    else:
        # sort each distinct list once; vertices keep sharing the sorted copy
        sorted_of: dict[int, list[Fraction]] = {}
        per_vertex = []
        for v in range(n):
            given = candidates[v]
            cands = sorted_of.get(id(given))
            if cands is None:
                cands = sorted_of[id(given)] = sorted(set(given))
            per_vertex.append(cands)

    # current known bracket of each vertex's value, as candidate bounds
    br_lo = [pv[0] for pv in per_vertex]
    br_hi = [pv[-1] for pv in per_vertex]
    values: list[Fraction | None] = [None] * n

    def query(t: Fraction, vset: set[int]) -> set[int]:
        fin = {v for v in range(n) if v not in vset and br_lo[v] >= t}
        fout = {v for v in range(n) if v not in vset and br_hi[v] < t}
        region, _ = mp_threshold_region(arena, wts, pmax, t, fin, fout)
        return region

    def rec(vset: set[int], cands: list[Fraction]):
        if not vset:
            return
        if len(cands) == 1:
            for v in vset:
                values[v] = cands[0]
                br_lo[v] = br_hi[v] = cands[0]
            return
        mid = len(cands) // 2
        t = cands[mid]
        region = query(t, vset)
        high = {v for v in vset if v in region}
        low = vset - high
        for v in high:
            br_lo[v] = max(br_lo[v], t)
        for v in low:
            br_hi[v] = min(br_hi[v], cands[mid - 1])
        rec(high, cands[mid:])
        rec(low, cands[:mid])

    groups: dict[int, tuple[list[Fraction], set[int]]] = {}
    for v in range(n):
        cands = per_vertex[v]
        groups.setdefault(id(cands), (cands, set()))[1].add(v)
    for cands, vset in sorted(groups.values(), key=lambda g: g[0]):
        rec(vset, cands)

    if None in values:
        raise InternalError("value bisection left a vertex without a value")
    vals = values

    strategy_max: dict[int, int] = {}
    strategy_min: dict[int, int] = {}
    neg = [-w for w in wts]
    for t in sorted(set(vals)):
        cls = {v for v in range(n) if vals[v] == t}
        kin = {v for v in range(n) if vals[v] > t}
        kout = {v for v in range(n) if vals[v] < t}
        region, strat = mp_threshold_region(arena, wts, pmax, t, kin, kout)
        for v in cls:
            if arena.owner[v] == pmax:
                strategy_max[v] = strat[v]
        # dual game: the minimizer keeps mean payoff <= t
        region2, strat2 = mp_threshold_region(
            arena, neg, 1 - pmax, -t, kout, kin
        )
        for v in cls:
            if arena.owner[v] != pmax:
                strategy_min[v] = strat2[v]
    return SolveResult1D(vals, strategy_max, strategy_min)


# ---------------------------------------------------------------------------
# discounted games (exact policy iteration)


def _eval_profile(arena: Arena, wts, lam: Fraction, choice: list[int]) -> list[Fraction]:
    n = arena.n
    values: list[Fraction | None] = [None] * n
    one_minus = 1 - lam
    for start in range(n):
        if values[start] is not None:
            continue
        path = []
        pos: dict[int, int] = {}
        cur = start
        while values[cur] is None and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = arena.edge_tgt[choice[cur]]
        if values[cur] is None:
            # fresh cycle discovered at pos[cur]
            cyc = path[pos[cur]:]
            ws = [wts[choice[x]] for x in cyc]
            p = len(ws)
            acc = Fraction(0)
            power = Fraction(1)
            for w in ws:
                acc += power * w
                power *= lam
            lam_p = power
            v0 = one_minus * acc / (1 - lam_p)
            values[cyc[0]] = v0
            for j in range(p - 1, 0, -1):
                nxt = cyc[(j + 1) % p]
                values[cyc[j]] = one_minus * ws[j] + lam * values[nxt]
            tail = path[: pos[cur]]
        else:
            tail = path
        for x in reversed(tail):
            nxt = arena.edge_tgt[choice[x]]
            values[x] = one_minus * wts[choice[x]] + lam * values[nxt]
    return values  # type: ignore[return-value]


def solve_discounted(game: ScalarGame, lam: Fraction) -> SolveResult1D:
    """Exact discounted values by Hoffman-Karp policy iteration.

    The maximizer improves against an exact best response of the minimizer;
    rational discount factors keep every evaluation exact.
    """
    if not (0 < lam < 1):
        raise ValueError("discount factor must lie in (0, 1)")
    arena = game.arena
    n = arena.n
    wts = [Fraction(w) for w in game.weights]
    pmax = game.maximizer
    one_minus = 1 - lam

    choice = [arena.out_edges[v][0] for v in range(n)]

    def min_best_response():
        while True:
            vals = _eval_profile(arena, wts, lam, choice)
            changed = False
            for v in range(n):
                if arena.owner[v] == pmax:
                    continue
                best_k = choice[v]
                best_val = one_minus * wts[best_k] + lam * vals[arena.edge_tgt[best_k]]
                for k in arena.out_edges[v]:
                    cand = one_minus * wts[k] + lam * vals[arena.edge_tgt[k]]
                    if cand < best_val:
                        best_val = cand
                        best_k = k
                if best_k != choice[v] and best_val < vals[v]:
                    choice[v] = best_k
                    changed = True
            if not changed:
                return vals

    while True:
        vals = min_best_response()
        improved = False
        for v in range(n):
            if arena.owner[v] != pmax:
                continue
            cur = vals[v]
            best_k = choice[v]
            best_val = cur
            for k in arena.out_edges[v]:
                cand = one_minus * wts[k] + lam * vals[arena.edge_tgt[k]]
                if cand > best_val:
                    best_val = cand
                    best_k = k
            if best_val > cur:
                choice[v] = best_k
                improved = True
        if not improved:
            break

    strategy_max = {v: choice[v] for v in range(n) if arena.owner[v] == pmax}
    strategy_min = {v: choice[v] for v in range(n) if arena.owner[v] != pmax}
    return SolveResult1D(vals, strategy_max, strategy_min)


def check_discounted_fixpoint(game: ScalarGame, lam: Fraction, vals: list[Fraction]) -> bool:
    """Verify the optimality equations as an exact rational identity."""
    arena = game.arena
    ok = True
    for v in range(arena.n):
        opts = [
            (1 - lam) * Fraction(game.weights[k]) + lam * vals[arena.edge_tgt[k]]
            for k in arena.out_edges[v]
        ]
        want = max(opts) if arena.owner[v] == game.maximizer else min(opts)
        ok = ok and want == vals[v]
    return ok


# ---------------------------------------------------------------------------
# two-pair Streett emptiness on graphs


def streett2_nonempty(
    arena: Arena,
    pair1: tuple[set[int], set[int]],
    pair2: tuple[set[int], set[int]],
    source: int,
):
    """Does some infinite path from `source` visit each A_k finitely often
    and each B_k infinitely often?  Returns (answer, witness) where the
    witness is a (stem, cycle) pair of vertex index tuples."""
    a1, b1 = pair1
    a2, b2 = pair2
    avoid = a1 | a2
    reach = reachable_from(arena, [source])
    core = {v for v in reach if v not in avoid}
    for scc in tarjan_sccs(arena, allowed=core):
        sset = set(scc)
        has_edge = any(
            arena.edge_tgt[k] in sset
            for v in scc
            for k in arena.out_edges[v]
        )
        if not has_edge:
            continue
        hits1 = sorted(sset & b1)
        hits2 = sorted(sset & b2)
        if not hits1 or not hits2:
            continue
        x, y = hits1[0], hits2[0]
        stem = shortest_path(arena, source, {x}, allowed=reach)
        if stem is None:
            continue
        if x == y:
            nxt = None
            for k in arena.out_edges[x]:
                if arena.edge_tgt[k] in sset:
                    nxt = arena.edge_tgt[k]
                    break
            mid = shortest_path(arena, nxt, {x}, allowed=sset)
            cycle = [x] + (mid[:-1] if len(mid) > 1 else [])
        else:
            there = shortest_path(arena, x, {y}, allowed=sset)
            back = shortest_path(arena, y, {x}, allowed=sset)
            cycle = there[:-1] + back[:-1]
        return True, (tuple(stem[:-1]), tuple(cycle))
    return False, None
