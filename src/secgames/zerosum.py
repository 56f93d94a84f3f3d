"""One-dimensional zero-sum solvers on integer-indexed arenas.

Engines:
  * attractor-based reachability/safety (graphs.attractor)
  * Zielonka recursion for parity games with a handful of priorities
  * exact mean-payoff values via threshold (energy) progress measures,
    with optimal strategies read off the finished measures
  * exact policy iteration for discounted games
  * SCC-based emptiness for a conjunction of two Rabin pairs on graphs
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

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

    pending = [v for v in range(n) if v not in frozen_win and v not in frozen_lose]
    in_queue = [False] * n
    for v in pending:
        in_queue[v] = True
    qi = 0
    queue = pending
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

    region = set(frozen_win)
    region.update(v for v in range(n) if f[v] < top and v not in frozen_lose)
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


def solve_mean_payoff(game: ScalarGame, candidates: dict[int, list[Fraction]] | None = None) -> SolveResult1D:
    """Exact values and uniform positional optimal strategies.

    Values are pinned by binary search over the rationals with denominator
    at most |V| in the weight range, each query answered by an energy
    progress measure.  `candidates` optionally restricts, per vertex, the
    set of possible values (must contain the true value); tight candidate
    ranges let threshold queries freeze far-away vertices as absorbing.
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
        per_vertex = [sorted(set(candidates[v])) for v in range(n)]

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

    groups: dict[tuple, set[int]] = {}
    for v in range(n):
        groups.setdefault(tuple(per_vertex[v]), set()).add(v)
    for key, vset in sorted(groups.items(), key=lambda kv: kv[0]):
        rec(vset, list(key))

    vals = [v if v is not None else Fraction(0) for v in values]

    strategy_max: dict[int, int] = {}
    strategy_min: dict[int, int] = {}
    for t in sorted(set(vals)):
        cls = {v for v in range(n) if vals[v] == t}
        kin = {v for v in range(n) if vals[v] > t}
        kout = {v for v in range(n) if vals[v] < t}
        region, strat = mp_threshold_region(arena, wts, pmax, t, kin, kout)
        for v in cls:
            if arena.owner[v] == pmax:
                strategy_max[v] = strat[v]
        # dual game: the minimizer keeps mean payoff <= t
        neg = [-w for w in wts]
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
