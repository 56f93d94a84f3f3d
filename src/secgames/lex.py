"""Solvers for the two lexicographic payoff games attached to a weighted game.

For player i the associated zero-sum game has player i maximize the payoff
pair under "own component first, opponent component reversed"; the opponent
minimizes.  Both directions run through one canonical view with the roles and
components swapped, never through separate code paths.

Per measure family:
  * mean-payoff: scalarize the pair into a single integer weight that makes
    scalar comparisons of simple-cycle means agree with the lexicographic
    order, then solve one mean-payoff game;
  * liminf/limsup: decide thresholds as small parity games on an arena where
    every edge is split through a weight-labelled intermediate vertex, and
    bisect the sorted list of candidate thresholds over groups of vertices;
    uniform strategies are stitched from the positional winning strategies
    of the threshold solves, per value class;
  * inf/sup: reduce to liminf/limsup on an augmented arena tracking running
    extremes; positional strategies come from a four-step attractor
    partition computed per initial vertex;
  * discounted: solve the primary component, keep only optimal edges, then
    solve the secondary component on the restricted arena with the
    protagonist minimizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalError, MeasureCombinationError
from .game import (
    Lasso,
    Measure,
    NormalizationInfo,
    PayoffPair,
    WeightedGame,
    eval_lasso_payoff,
    normalize_weights,
    require_valid,
)
from .graphs import Arena, attractor
from .zerosum import ScalarGame, solve_discounted, solve_mean_payoff, solve_parity

MIN_LIKE = (Measure.INF, Measure.LIMINF)
MAX_LIKE = (Measure.SUP, Measure.LIMSUP)


@dataclass
class LexView:
    """Role-normalized game: player 0 of the arena is the protagonist who
    maximizes (wa, then minimized wb) lexicographically."""

    arena: Arena
    wa: list[Fraction]
    wb: list[Fraction]
    ma: Measure
    mb: Measure
    discount: Fraction | None
    names: list[str]

    def pair_to_game(self, which: int, a: Fraction, b: Fraction) -> PayoffPair:
        return PayoffPair(a, b) if which == 1 else PayoffPair(b, a)


def make_view(game: WeightedGame, which: int) -> LexView:
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    owner = [0 if o == which else 1 for o in game.owner_of]
    arena = Arena(game.n, owner, list(zip(game.edge_src, game.edge_tgt)))
    if which == 1:
        wa, wb, ma, mb = game.w1, game.w2, game.measure1, game.measure2
    else:
        wa, wb, ma, mb = game.w2, game.w1, game.measure2, game.measure1
    return LexView(arena, list(wa), list(wb), ma, mb, game.discount, list(game.vertices))


def restrict_view(view: LexView, keep_edges: set[int]) -> tuple[LexView, list[int]]:
    """Sub-view with only `keep_edges`; returns (view, new->old edge map)."""
    emap = [k for k in range(view.arena.m) if k in keep_edges]
    edges = [(view.arena.edge_src[k], view.arena.edge_tgt[k]) for k in emap]
    arena = Arena(view.arena.n, view.arena.owner, edges)
    return (
        LexView(
            arena,
            [view.wa[k] for k in emap],
            [view.wb[k] for k in emap],
            view.ma,
            view.mb,
            view.discount,
            view.names,
        ),
        emap,
    )


@dataclass
class LexValueTable:
    """Values of one lexicographic payoff game plus optimal strategies.

    Strategies are uniform (one map valid from every vertex) for the
    prefix-independent and discounted measures, and per-initial-vertex for
    inf/sup.  strat_max belongs to the protagonist (player `which`),
    strat_min to the opponent.  Maps send a vertex name to the successor
    name the strategy picks.
    """

    which: int
    values: dict[str, PayoffPair]
    uniform: bool
    strat_max: dict | None
    strat_min: dict | None
    aug: "AugSolve | None" = None

    def value(self, v: str) -> PayoffPair:
        return self.values[v]

    def strategy_max(self, init: str | None = None) -> dict[str, str]:
        if self.strat_max is None:
            raise MeasureCombinationError("no positional strategies for this measure pair")
        return self.strat_max if self.uniform else self.strat_max[init]

    def strategy_min(self, init: str | None = None) -> dict[str, str]:
        if self.strat_min is None:
            raise MeasureCombinationError("no positional strategies for this measure pair")
        return self.strat_min if self.uniform else self.strat_min[init]


# ---------------------------------------------------------------------------
# split arena (edges become weight-labelled intermediate vertices)


@dataclass
class SplitArena:
    arena: Arena
    n_orig: int
    # decoration of intermediate vertex n_orig + e is (wa[e], wb[e]);
    # original vertices carry no weights and are classified neutrally
    wa: list[Fraction]
    wb: list[Fraction]

    def is_orig(self, v: int) -> bool:
        return v < self.n_orig

    def edge_of(self, v: int) -> int:
        return v - self.n_orig


def build_split(view: LexView) -> SplitArena:
    n, m = view.arena.n, view.arena.m
    owner = list(view.arena.owner) + [0] * m
    edges = []
    for k in range(m):
        edges.append((view.arena.edge_src[k], n + k))
    for k in range(m):
        edges.append((n + k, view.arena.edge_tgt[k]))
    return SplitArena(Arena(n + m, owner, edges), n, view.wa, view.wb)


# ---------------------------------------------------------------------------
# liminf / limsup lexicographic games


def _threshold_priorities(split: SplitArena, ma: Measure, alpha, beta) -> tuple[list[int], int]:
    """Priority labelling so that the protagonist forces
    (alpha, beta) <= payoff  iff he wins the parity condition.

    Returns (priorities, protagonist_parity).  Both measures of the pair are
    `ma` (liminf or limsup); weights must be naturals and alpha integral so
    that "strictly above alpha" is "at least alpha + 1".
    """
    pri = []
    if ma is Measure.LIMINF:
        # "only cycles with min first-weight above alpha" wins outright
        # (priority 0 tail), otherwise the second weight must dip below beta
        # infinitely often (2) without the first weight dipping below alpha
        # (3 fatal) while visits to exactly-alpha (1) are tolerated
        for v in range(split.arena.n):
            if split.is_orig(v):
                pri.append(0)
                continue
            a = split.wa[split.edge_of(v)]
            b = split.wb[split.edge_of(v)]
            if a < alpha:
                pri.append(3)
            elif b <= beta:
                pri.append(2)
            elif a == alpha:
                pri.append(1)
            else:
                pri.append(0)
        return pri, 0
    # limsup: recurring first-weight above alpha (4) wins outright; else the
    # protagonist needs recurring exactly-alpha (2) with only finitely many
    # second-weights above beta (3); neutral vertices recur harmlessly (1)
    for v in range(split.arena.n):
        if split.is_orig(v):
            pri.append(1)
            continue
        a = split.wa[split.edge_of(v)]
        b = split.wb[split.edge_of(v)]
        if a > alpha:
            pri.append(4)
        elif b > beta:
            pri.append(3)
        elif a == alpha:
            pri.append(2)
        else:
            pri.append(1)
    return pri, 0


def _threshold_solver(view: LexView):
    """Memoised threshold solves on the split arena: pair -> solve_parity result."""
    split = build_split(view)
    solves: dict[tuple, tuple] = {}

    def solve(pair):
        if pair not in solves:
            pri, _parity = _threshold_priorities(split, view.ma, *pair)
            solves[pair] = solve_parity(split.arena, pri)
        return solves[pair]

    return solve


def _solve_lex_liminf_view(view: LexView, need_strategies: bool):
    """Values of a liminf/limsup-pair view with natural weights and, on
    request, uniform positional strategies of both players (vertex -> edge).

    Values bisect the candidate pairs, sorted weakest first for the
    protagonist, over groups of vertices; the weakest pair is won everywhere.
    A protagonist vertex of value c plays its threshold-c winning strategy,
    an opponent vertex its winning strategy against the next candidate above
    c.  Winning strategies stay in their winning regions, so values only rise
    along protagonist-consistent plays and only fall along opponent-consistent
    ones; each play settles in one value class and, by prefix independence,
    gets that value.
    """
    arena = view.arena
    cands = [(a, b) for a in sorted(set(view.wa)) for b in sorted(set(view.wb), reverse=True)]
    solve = _threshold_solver(view)
    level = [0] * arena.n

    def bisect(vset: set[int], lo: int, hi: int):
        if lo == hi:
            for v in vset:
                level[v] = lo
        elif vset:
            mid = (lo + hi + 1) // 2
            win0 = solve(cands[mid])[0]
            bisect({v for v in vset if v in win0}, mid, hi)
            bisect({v for v in vset if v not in win0}, lo, mid - 1)

    bisect(set(range(arena.n)), 0, len(cands) - 1)
    values = [cands[i] for i in level]
    if not need_strategies:
        return values, None, None
    # split edge k enters the intermediate vertex of edge k: no renumbering
    strats: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for v in range(arena.n):
        i = level[v]
        if arena.owner[v] == 0:
            strats[0][v] = solve(cands[i])[2][v]
        else:
            strats[1][v] = solve(cands[i + 1])[3][v] if i + 1 < len(cands) else arena.out_edges[v][0]
    # re-solve with each player held to its stitched edges: a value is c
    # exactly when threshold c is won and the next candidate is lost
    for player, strat in enumerate(strats):
        keep = {k for k in range(arena.m) if arena.owner[arena.edge_src[k]] != player}
        sub, _emap = restrict_view(view, keep | set(strat.values()))
        check = _threshold_solver(sub)
        for v, i in enumerate(level):
            if v not in check(cands[i])[0] or (i + 1 < len(cands) and v in check(cands[i + 1])[0]):
                raise InternalError(f"stitched strategy of arena player {player} changes the values")
    return values, strats[0], strats[1]


def solve_lex_liminf_threshold(
    game: WeightedGame, v: str, alpha_beta: PayoffPair, which: int
) -> bool:
    """Can player `which` force a payoff at least (alpha, beta) from v, in
    the normalized-naturals scale?"""
    gamen, _info = normalize_weights(game)
    view = make_view(gamen, which)
    if view.ma is not view.mb or view.ma not in (Measure.LIMINF, Measure.LIMSUP):
        raise MeasureCombinationError("threshold test needs a liminf or limsup pair")
    a, b = (alpha_beta.p1, alpha_beta.p2) if which == 1 else (alpha_beta.p2, alpha_beta.p1)
    win0 = _threshold_solver(view)((Fraction(a), Fraction(b)))[0]
    return game.index[v] in win0


# ---------------------------------------------------------------------------
# augmentation for inf / sup (running extremes)


@dataclass
class AugSolve:
    """Augmented arena solve kept alongside an inf/sup value table so that
    play suffixes can be re-evaluated at augmented vertices."""

    view: LexView  # augmented view (liminf/limsup measures), in view coords
    which: int
    states: list[tuple]  # (orig vertex index, extreme_a, extreme_b)
    state_index: dict
    start_of: dict[int, int]  # orig vertex -> index of (v, TOP, TOP)
    orig_edge: list[int]  # aug edge -> original edge index
    values: list[tuple[Fraction, Fraction]] | None = None
    track_a: bool = True
    track_b: bool = True
    comb_a: object = min
    comb_b: object = min
    base_wa: list[Fraction] = field(default_factory=list)
    base_wb: list[Fraction] = field(default_factory=list)


def _family(measure: Measure) -> str | None:
    if measure in MIN_LIKE:
        return "min"
    if measure in MAX_LIKE:
        return "max"
    return None


def augment_view(view: LexView, starts: list[int], which: int) -> AugSolve:
    fam_a, fam_b = _family(view.ma), _family(view.mb)
    if fam_a is None or fam_b is None or fam_a != fam_b:
        raise MeasureCombinationError(
            f"unsupported measure pair for augmentation: ({view.ma}, {view.mb})"
        )
    comb = min if fam_a == "min" else max
    track_a = view.ma in (Measure.INF, Measure.SUP)
    track_b = view.mb in (Measure.INF, Measure.SUP)
    arena = view.arena

    states: list[tuple] = []
    index: dict = {}
    start_of: dict[int, int] = {}

    def intern(s):
        if s not in index:
            index[s] = len(states)
            states.append(s)
        return index[s]

    frontier = []
    for v in starts:
        s = (v, None, None)
        if s not in index:
            frontier.append(intern(s))
            start_of[v] = index[s]
        else:
            start_of[v] = index[s]
    edges = []
    ewa: list[Fraction] = []
    ewb: list[Fraction] = []
    orig_edge: list[int] = []
    qi = 0
    while qi < len(frontier):
        si = frontier[qi]
        qi += 1
        v, ea, eb = states[si]
        for k in arena.out_edges[v]:
            wa, wb = view.wa[k], view.wb[k]
            na = (wa if ea is None else comb(ea, wa)) if track_a else None
            nb = (wb if eb is None else comb(eb, wb)) if track_b else None
            t = (arena.edge_tgt[k], na, nb)
            known = t in index
            ti = intern(t)
            if not known:
                frontier.append(ti)
            edges.append((si, ti))
            ewa.append(na if track_a else wa)
            ewb.append(nb if track_b else wb)
            orig_edge.append(k)
    owner = [arena.owner[s[0]] for s in states]
    aug_arena = Arena(len(states), owner, edges)
    ma = Measure.LIMINF if fam_a == "min" else Measure.LIMSUP
    aug_view = LexView(
        aug_arena,
        ewa,
        ewb,
        ma,
        ma,
        view.discount,
        [f"{view.names[s[0]]}|{s[1]}|{s[2]}" for s in states],
    )
    aug = AugSolve(
        aug_view,
        which,
        states,
        index,
        start_of,
        orig_edge,
        None,
        track_a,
        track_b,
        comb,
        comb,
        list(view.wa),
        list(view.wb),
    )
    return aug


# ---------------------------------------------------------------------------
# inf / sup partitions (four attractor steps on the split arena)


def _split_sets(split: SplitArena, pred) -> set[int]:
    out = set()
    for v in range(split.arena.n):
        if split.is_orig(v):
            continue
        e = split.edge_of(v)
        if pred(split.wa[e], split.wb[e]):
            out.add(v)
    return out


def _lowest_edge_into(arena: Arena, v: int, allowed: set[int]) -> int | None:
    for k in arena.out_edges[v]:
        if arena.edge_tgt[k] in allowed:
            return k
    return None


def _partition_inf(view: LexView, alpha: Fraction, beta: Fraction, strict_b: bool):
    """Partition for min-payoff pairs: protagonist region of
    "payoff >= (alpha, beta)" (or with the second component strict) plus
    positional strategies for both sides."""
    split = build_split(view)
    arena = split.arena
    full = set(range(arena.n))
    b_ok = (lambda a, b: b < beta) if strict_b else (lambda a, b: b <= beta)

    bad1 = _split_sets(split, lambda a, b: a < alpha)
    z1, z1s = attractor(arena, 1, bad1)
    a1 = full - z1
    tgt2 = {v for v in _split_sets(split, b_ok) if v in a1}
    z2, z2s = attractor(arena, 0, tgt2, allowed=a1)
    a2 = a1 - z2
    tgt3 = {v for v in _split_sets(split, lambda a, b: a == alpha) if v in a2}
    z3, z3s = attractor(arena, 1, tgt3, allowed=a2)
    safe = a2 - z3

    prot_region = z2 | safe
    ant_region = z1 | z3

    prot_strat: dict[int, int] = {}
    ant_strat: dict[int, int] = {}
    for v in range(split.n_orig):
        if arena.owner[v] == 0:
            if v in z2 and v in z2s:
                prot_strat[v] = z2s[v]
            else:
                k = None
                if v in safe:
                    k = _lowest_edge_into(arena, v, safe)
                if k is None and v in a1:
                    k = _lowest_edge_into(arena, v, a1)
                if k is None:
                    k = arena.out_edges[v][0]
                prot_strat[v] = k
        else:
            if v in z1 and v in z1s:
                ant_strat[v] = z1s[v]
            elif v in z3 and v in z3s:
                ant_strat[v] = z3s[v]
            else:
                k = None
                if v in a2:
                    k = _lowest_edge_into(arena, v, a2)
                if k is None:
                    k = arena.out_edges[v][0]
                ant_strat[v] = k
    return prot_region, ant_region, prot_strat, ant_strat, split


def _partition_sup(view: LexView, alpha: Fraction, beta: Fraction, strict_b: bool):
    """Mirror partition for max-payoff pairs."""
    split = build_split(view)
    arena = split.arena
    full = set(range(arena.n))
    b_bad = (lambda a, b: b >= beta) if strict_b else (lambda a, b: b > beta)

    good1 = _split_sets(split, lambda a, b: a > alpha)
    z1, z1s = attractor(arena, 0, good1)
    bset = full - z1
    tbad = {v for v in _split_sets(split, b_bad) if v in bset}
    t2, t2s = attractor(arena, 1, tbad, allowed=bset)
    cset = bset - t2
    tgt = {v for v in _split_sets(split, lambda a, b: a >= alpha) if v in cset}
    z2, z2s = attractor(arena, 0, tgt, allowed=cset)
    dset = cset - z2

    prot_region = z1 | z2
    ant_region = t2 | dset

    prot_strat: dict[int, int] = {}
    ant_strat: dict[int, int] = {}
    for v in range(split.n_orig):
        if arena.owner[v] == 0:
            if v in z1 and v in z1s:
                prot_strat[v] = z1s[v]
            elif v in z2 and v in z2s:
                prot_strat[v] = z2s[v]
            else:
                k = None
                if v in cset:
                    k = _lowest_edge_into(arena, v, cset)
                if k is None:
                    k = arena.out_edges[v][0]
                prot_strat[v] = k
        else:
            if v in t2 and v in t2s:
                ant_strat[v] = t2s[v]
            else:
                k = None
                if v in dset:
                    k = _lowest_edge_into(arena, v, dset)
                if k is None and v in bset:
                    k = _lowest_edge_into(arena, v, bset)
                if k is None:
                    k = arena.out_edges[v][0]
                ant_strat[v] = k
    return prot_region, ant_region, prot_strat, ant_strat, split


def _partition(view: LexView, alpha, beta, strict_b: bool):
    if view.ma is Measure.INF:
        return _partition_inf(view, alpha, beta, strict_b)
    return _partition_sup(view, alpha, beta, strict_b)


def _split_strategy_to_names(view: LexView, split: SplitArena, strat: dict[int, int]) -> dict[str, str]:
    out = {}
    for v, k in strat.items():
        tgt = split.arena.edge_tgt[k]
        edge = split.edge_of(tgt)
        out[view.names[v]] = view.names[view.arena.edge_tgt[edge]]
    return out


def inf_partition(game: WeightedGame, alpha_beta: PayoffPair, which: int = 1):
    """Vertices where player `which` can force payoff >= (alpha, beta) in the
    min-payoff (or max-payoff) lexicographic game, with a positional
    strategy witnessing it.  Returns (W1, W2, strategy)."""
    view = make_view(game, which)
    if view.ma is not view.mb or view.ma not in (Measure.INF, Measure.SUP):
        raise MeasureCombinationError("partition needs an inf or sup measure pair")
    a, b = (alpha_beta.p1, alpha_beta.p2) if which == 1 else (alpha_beta.p2, alpha_beta.p1)
    prot, ant, ps, _as, split = _partition(view, Fraction(a), Fraction(b), strict_b=False)
    w1 = {view.names[v] for v in prot if split.is_orig(v)}
    w2 = {view.names[v] for v in ant if split.is_orig(v)}
    return w1, w2, _split_strategy_to_names(view, split, ps)


def inf_partition_dual(game: WeightedGame, alpha_beta: PayoffPair, which: int = 1):
    """Dual partition: T2 is where the opponent forces payoff <= (alpha,
    beta); returns (T1, T2, opponent strategy)."""
    view = make_view(game, which)
    if view.ma is not view.mb or view.ma not in (Measure.INF, Measure.SUP):
        raise MeasureCombinationError("partition needs an inf or sup measure pair")
    a, b = (alpha_beta.p1, alpha_beta.p2) if which == 1 else (alpha_beta.p2, alpha_beta.p1)
    prot, ant, _ps, ants, split = _partition(view, Fraction(a), Fraction(b), strict_b=True)
    t1 = {view.names[v] for v in prot if split.is_orig(v)}
    t2 = {view.names[v] for v in ant if split.is_orig(v)}
    return t1, t2, _split_strategy_to_names(view, split, ants)


# ---------------------------------------------------------------------------
# mean-payoff lexicographic games


def scalarization_constant(n_vertices: int, max_wb: int) -> int:
    """m = |V|^2 * |r_other| + 1: collapses cycle-mean lexicographic
    comparisons into scalar ones for natural weights."""
    return n_vertices * n_vertices * max_wb + 1


def _profile_walk(arena: Arena, choice: dict[int, int], start: int):
    """Lasso (stem, cycle) of vertex indices induced by one edge per vertex."""
    seen = {}
    path = []
    cur = start
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = arena.edge_tgt[choice[cur]]
    k = seen[cur]
    return path[:k], path[k:]


def _solve_lex_mp_view(game: WeightedGame, which: int, need_strategies: bool):
    gamen, info = normalize_weights(game)
    view = make_view(gamen, which)
    n = view.arena.n
    wa = [int(w) for w in view.wa]
    wb = [int(w) for w in view.wb]
    max_wb = max(wb)
    m = scalarization_constant(n, max_wb)

    primary = solve_mean_payoff(ScalarGame(view.arena, wa, 0))
    scal = [m * wa[k] - wb[k] for k in range(view.arena.m)]

    # the scalar value at v is m * l(v) - beta with beta a cycle mean of the
    # second component on a cycle whose first-component mean is exactly l(v)
    per_vertex: dict[int, list[Fraction]] = {}
    for v in range(n):
        l = primary.values[v]
        cands = set()
        for length in range(1, n + 1):
            if (l * length).denominator != 1:
                continue
            for b in range(0, length * max_wb + 1):
                cands.add(m * l - Fraction(b, length))
        per_vertex[v] = sorted(cands)
    scalar = solve_mean_payoff(ScalarGame(view.arena, scal, 0), candidates=per_vertex)

    choice = dict(scalar.strategy_max)
    choice.update(scalar.strategy_min)
    values: list[PayoffPair] = []
    for v in range(n):
        stem, cyc = _profile_walk(view.arena, choice, v)
        lasso = Lasso(
            tuple(game.vertices[x] for x in stem), tuple(game.vertices[x] for x in cyc)
        )
        pair = eval_lasso_payoff(game, lasso)
        values.append(pair)
        # cross-check the primary component against the 1-D solve
        prim = info.to_original(primary.values[v])
        own = pair.p1 if which == 1 else pair.p2
        if own != prim:
            raise InternalError("scalarized outcome disagrees with primary value")
    strat_p = strat_a = None
    if need_strategies:
        strat_p = {v: k for v, k in scalar.strategy_max.items()}
        strat_a = {v: k for v, k in scalar.strategy_min.items()}
    return values, strat_p, strat_a, view


# ---------------------------------------------------------------------------
# discounted lexicographic games


def _solve_lex_disc_view(game: WeightedGame, which: int):
    view = make_view(game, which)
    lam = view.discount
    primary = solve_discounted(ScalarGame(view.arena, view.wa, 0), lam)
    one_minus = 1 - lam
    keep = set()
    for v in range(view.arena.n):
        for k in view.arena.out_edges[v]:
            if one_minus * view.wa[k] + lam * primary.values[view.arena.edge_tgt[k]] == primary.values[v]:
                keep.add(k)
    sub, emap = restrict_view(view, keep)
    for v in range(sub.arena.n):
        if not sub.arena.out_edges[v]:
            raise InternalError("optimal-edge restriction created a deadlock")
    # protagonist now minimizes the second component on optimal edges
    secondary = solve_discounted(ScalarGame(sub.arena, sub.wb, 1), lam)
    values = [
        view.pair_to_game(which, primary.values[v], secondary.values[v])
        for v in range(view.arena.n)
    ]
    strat_p = {v: emap[k] for v, k in secondary.strategy_min.items()}
    strat_a = {v: emap[k] for v, k in secondary.strategy_max.items()}
    return values, strat_p, strat_a, view


# ---------------------------------------------------------------------------
# dispatch


def _edge_strategy_to_names(game: WeightedGame, strat: dict[int, int]) -> dict[str, str]:
    return {
        game.vertices[v]: game.vertices[game.edge_tgt[k]] for v, k in strat.items()
    }


def _denorm_pair(pair, info: NormalizationInfo) -> tuple[Fraction, Fraction]:
    return info.to_original(pair[0]), info.to_original(pair[1])


def solve_lex(game: WeightedGame, which: int, need_strategies: bool = True) -> LexValueTable:
    """Values and optimal strategies of the lexicographic game of player
    `which`.  Same-measure pairs support all seven measures; mixed pairs are
    supported (values only) when both measures are min-like or both
    max-like."""
    require_valid(game)
    view_m = (game.measure1, game.measure2) if which == 1 else (game.measure2, game.measure1)
    ma, mb = view_m

    if ma is Measure.DISC or mb is Measure.DISC:
        if ma is not mb:
            raise MeasureCombinationError("discounted cannot mix with other measures")
        values, sp, sa, view = _solve_lex_disc_view(game, which)
        return LexValueTable(
            which,
            {game.vertices[v]: values[v] for v in range(game.n)},
            True,
            _edge_strategy_to_names(game, sp),
            _edge_strategy_to_names(game, sa),
        )

    if ma in (Measure.MPINF, Measure.MPSUP) or mb in (Measure.MPINF, Measure.MPSUP):
        if ma is not mb:
            raise MeasureCombinationError("mean-payoff cannot mix with other measures")
        values, sp, sa, view = _solve_lex_mp_view(game, which, need_strategies)
        return LexValueTable(
            which,
            {game.vertices[v]: values[v] for v in range(game.n)},
            True,
            _edge_strategy_to_names(game, sp) if sp is not None else None,
            _edge_strategy_to_names(game, sa) if sa is not None else None,
        )

    fam_a, fam_b = _family(ma), _family(mb)
    if fam_a is None or fam_b is None or fam_a != fam_b:
        raise MeasureCombinationError(f"unsupported measure pair ({ma}, {mb})")

    if ma is mb and ma in (Measure.LIMINF, Measure.LIMSUP):
        gamen, info = normalize_weights(game)
        view = make_view(gamen, which)
        vals, sp, sa = _solve_lex_liminf_view(view, need_strategies)
        values = {
            game.vertices[v]: view.pair_to_game(which, *_denorm_pair(vals[v], info))
            for v in range(game.n)
        }
        table = LexValueTable(which, values, True, None, None)
        if need_strategies:
            table.strat_max = _edge_strategy_to_names(game, sp)
            table.strat_min = _edge_strategy_to_names(game, sa)
        return table

    # inf/sup (possibly mixed with liminf/limsup of the same family):
    # reduce to a liminf/limsup pair over running extremes
    view = make_view(game, which)
    aug = augment_view(view, list(range(game.n)), which)
    gaug, info = _normalize_aug(aug)
    vals, _sp, _sa = _solve_lex_liminf_view(gaug, False)
    aug.values = [_denorm_pair(pair, info) for pair in vals]
    values = {
        game.vertices[v]: view.pair_to_game(which, *aug.values[aug.start_of[v]])
        for v in range(game.n)
    }
    pure = ma is mb and ma in (Measure.INF, Measure.SUP)
    table = LexValueTable(which, values, False, None, None, aug=aug)
    if need_strategies and pure:
        smax: dict[str, dict[str, str]] = {}
        smin: dict[str, dict[str, str]] = {}
        for v in range(game.n):
            a, b = aug.values[aug.start_of[v]]
            prot, ant, ps, _x, split = _partition(view, a, b, strict_b=False)
            if v not in prot:
                raise InternalError("vertex missing from its own value partition")
            _t1, t2, _y, ants, split2 = _partition(view, a, b, strict_b=True)
            if v not in t2:
                raise InternalError("vertex missing from the dual partition")
            name = game.vertices[v]
            smax[name] = _split_strategy_to_names(view, split, ps)
            smin[name] = _split_strategy_to_names(view, split2, ants)
        table.strat_max = smax
        table.strat_min = smin
    return table


def solve_lex_mp(game: WeightedGame, which: int, need_strategies: bool = True) -> LexValueTable:
    """Mean-payoff pair solver (both measures mpinf, or both mpsup)."""
    if game.measure1 is not game.measure2 or game.measure1 not in (
        Measure.MPINF,
        Measure.MPSUP,
    ):
        raise MeasureCombinationError("solve_lex_mp needs a matching mean-payoff pair")
    return solve_lex(game, which, need_strategies)


def solve_lex_liminf(game: WeightedGame, which: int, need_strategies: bool = True) -> LexValueTable:
    """Limit-value pair solver (both measures liminf, or both limsup)."""
    if game.measure1 is not game.measure2 or game.measure1 not in (
        Measure.LIMINF,
        Measure.LIMSUP,
    ):
        raise MeasureCombinationError("solve_lex_liminf needs a liminf or limsup pair")
    return solve_lex(game, which, need_strategies)


def solve_lex_inf(game: WeightedGame, which: int, need_strategies: bool = True) -> LexValueTable:
    """Extreme-value pair solver (both measures inf, or both sup)."""
    if game.measure1 is not game.measure2 or game.measure1 not in (
        Measure.INF,
        Measure.SUP,
    ):
        raise MeasureCombinationError("solve_lex_inf needs an inf or sup pair")
    return solve_lex(game, which, need_strategies)


def solve_lex_disc(game: WeightedGame, which: int) -> LexValueTable:
    """Discounted pair solver (shared discount factor)."""
    if game.measure1 is not Measure.DISC or game.measure2 is not Measure.DISC:
        raise MeasureCombinationError("solve_lex_disc needs a discounted pair")
    return solve_lex(game, which)


def _normalize_aug(aug: AugSolve):
    """Normalize the augmented view's weights to naturals."""
    view = aug.view
    weights = list(view.wa) + list(view.wb)
    b_star = 1
    for w in weights:
        b_star = b_star * w.denominator // math.gcd(b_star, w.denominator)
    smallest = min(int(w * b_star) for w in weights) if weights else 0
    a_star = min(0, smallest)
    info = NormalizationInfo(a_star, b_star, 0, 0)
    wa = [info.to_natural(w) for w in view.wa]
    wb = [info.to_natural(w) for w in view.wb]
    info = NormalizationInfo(
        a_star,
        b_star,
        max(int(w) for w in wa) if wa else 0,
        max(int(w) for w in wb) if wb else 0,
    )
    gaug = LexView(view.arena, wa, wb, view.ma, view.mb, view.discount, view.names)
    return gaug, info
