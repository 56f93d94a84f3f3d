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
  * inf/sup: reduce to liminf/limsup on the running-extremes arena
    (`augment_view`), built once in game coordinates and solved for either
    player through `make_view`.  Positional strategies per initial vertex
    come from a four-step attractor partition of the game (`_partition`);
    a sup game is partitioned as the inf game of its mirror, with weights
    negated and players swapped;
  * discounted: solve the primary component, keep only optimal edges, then
    solve the secondary component on the restricted arena with the
    protagonist minimizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, MeasureCombinationError
from .game import (
    Lasso,
    Measure,
    PayoffPair,
    WeightedGame,
    denormalize_value,
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


def make_view(game: WeightedGame | ExtremesArena, which: int) -> LexView:
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
    aug: ExtremesArena | None = None

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


def _threshold_priorities(split: SplitArena, ma: Measure, alpha, beta) -> list[int]:
    """Priority labelling so that the protagonist (arena player 0) forces
    (alpha, beta) <= payoff  iff he wins the parity condition.

    Both measures of the pair are `ma` (liminf or limsup).  Weights are only
    compared with alpha and beta, so any rationals work and a positive
    affine map of the weights and the threshold leaves the labelling as is.
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
        return pri
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
    return pri


def _threshold_solver(view: LexView):
    """Memoised threshold solves on the split arena: pair -> solve_parity result."""
    split = build_split(view)
    solves: dict[tuple, tuple] = {}

    def solve(pair):
        if pair not in solves:
            pri = _threshold_priorities(split, view.ma, *pair)
            solves[pair] = solve_parity(split.arena, pri)
        return solves[pair]

    return solve


def _solve_lex_liminf_view(view: LexView, need_strategies: bool):
    """Values of a liminf/limsup-pair view (pairs of its own weights) and,
    on request, uniform positional strategies of both players (vertex -> edge).

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


# ---------------------------------------------------------------------------
# running-extremes arena for inf / sup


@dataclass
class ExtremesArena:
    """Running-extremes arena of an inf/sup game, in game coordinates.

    State i is (game vertex index, running extreme of component 1, running
    extreme of component 2); an extreme is None before the first edge, and
    always for a liminf/limsup component, which is not tracked.  An edge
    carries the extremes it produces (the game weight for an untracked
    component), so both measures become liminf (inf family) or limsup (sup
    family).  The integer-indexed fields are those of a WeightedGame that
    make_view reads: make_view(arena, which) is either player's game on it.
    """

    states: list[tuple]
    state_index: dict[tuple, int]
    start_of: dict[int, int]  # game vertex -> index of (v, None, None)
    owner_of: list[int]
    edge_src: list[int]
    edge_tgt: list[int]
    w1: list[Fraction]
    w2: list[Fraction]
    measure1: Measure
    measure2: Measure
    discount: Fraction | None = None
    values: list[PayoffPair] | None = None  # set by solve_lex

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def vertices(self) -> list[tuple]:
        return self.states


def _family(measure: Measure) -> str | None:
    if measure in MIN_LIKE:
        return "min"
    if measure in MAX_LIKE:
        return "max"
    return None


def extremes_update(game: WeightedGame):
    """advance(e1, e2, w1, w2): the running extremes after an edge of
    weights (w1, w2), in game component order.  An inf (sup) component keeps
    its minimum (maximum); any other component stays None, so a pair of
    neither family (mean payoff, discounted) tracks nothing.  A pair that
    mixes families raises."""
    fam = _family(game.measure1)
    if fam != _family(game.measure2):
        raise MeasureCombinationError(
            f"unsupported measure pair for running extremes: ({game.measure1}, {game.measure2})"
        )
    comb = min if fam == "min" else max
    track1 = game.measure1 in (Measure.INF, Measure.SUP)
    track2 = game.measure2 in (Measure.INF, Measure.SUP)

    def advance(e1, e2, w1, w2):
        n1 = (w1 if e1 is None else comb(e1, w1)) if track1 else None
        n2 = (w2 if e2 is None else comb(e2, w2)) if track2 else None
        return n1, n2

    return advance


def augment_view(game: WeightedGame, starts: list[int]) -> ExtremesArena:
    """The running-extremes arena reachable from the game vertices `starts`,
    states numbered in breadth-first order."""
    advance = extremes_update(game)
    states: list[tuple] = []
    index: dict[tuple, int] = {}
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
    src: list[int] = []
    tgt: list[int] = []
    ew1: list[Fraction] = []
    ew2: list[Fraction] = []
    qi = 0
    while qi < len(frontier):
        si = frontier[qi]
        qi += 1
        v, e1, e2 = states[si]
        for k in game.out_edges[v]:
            w1, w2 = game.w1[k], game.w2[k]
            n1, n2 = advance(e1, e2, w1, w2)
            t = (game.edge_tgt[k], n1, n2)
            known = t in index
            ti = intern(t)
            if not known:
                frontier.append(ti)
            src.append(si)
            tgt.append(ti)
            ew1.append(w1 if n1 is None else n1)
            ew2.append(w2 if n2 is None else n2)
    owner = [game.owner_of[s[0]] for s in states]
    measure = Measure.LIMINF if _family(game.measure1) == "min" else Measure.LIMSUP
    return ExtremesArena(states, index, start_of, owner, src, tgt, ew1, ew2, measure, measure)


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


def _partition_inf(split: SplitArena, alpha: Fraction, beta: Fraction, strict_b: bool):
    """Partition for min-payoff pairs on the split arena of an inf view:
    protagonist region of "payoff >= (alpha, beta)" (or with the second
    component strict), opponent region, and positional strategies (vertex ->
    edge of the view) for both sides."""
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

    # split edge k leaves an original vertex along view edge k
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
    return prot_region, ant_region, prot_strat, ant_strat


def _partition(view: LexView):
    """partition(alpha, beta, strict_b) of an inf or sup pair view: the
    protagonist's region of "payoff >= (alpha, beta)" (second component
    strict on request) and the opponent's region of its complement, both on
    the split arena, then both players' positional strategies.

    A sup view is the inf view of its mirror (weights negated, players
    swapped) at (-alpha, -beta) with the strictness flipped; the two players'
    regions and strategies swap with it.  The split arena is built once."""
    if view.ma is Measure.INF:
        split = build_split(view)
        return lambda alpha, beta, strict_b: _partition_inf(split, alpha, beta, strict_b)
    arena = view.arena
    mirror = LexView(
        Arena(arena.n, [1 - o for o in arena.owner], list(zip(arena.edge_src, arena.edge_tgt))),
        [-w for w in view.wa],
        [-w for w in view.wb],
        Measure.INF,
        Measure.INF,
        view.discount,
        view.names,
    )
    split = build_split(mirror)

    def partition(alpha, beta, strict_b):
        prot, ant, prot_strat, ant_strat = _partition_inf(split, -alpha, -beta, not strict_b)
        return ant, prot, ant_strat, prot_strat

    return partition


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
    # second component on a cycle whose first-component mean is exactly l(v);
    # vertices with one primary value share one list
    by_value: dict[Fraction, list[Fraction]] = {}
    for l in primary.values:
        if l in by_value:
            continue
        cands = set()
        for length in range(1, n + 1):
            if (l * length).denominator != 1:
                continue
            for b in range(0, length * max_wb + 1):
                cands.add(m * l - Fraction(b, length))
        by_value[l] = sorted(cands)
    per_vertex = [by_value[l] for l in primary.values]
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
            game.vertices[v]: denormalize_value(view.pair_to_game(which, *vals[v]), info)
            for v in range(game.n)
        }
        table = LexValueTable(which, values, True, None, None)
        if need_strategies:
            table.strat_max = _edge_strategy_to_names(game, sp)
            table.strat_min = _edge_strategy_to_names(game, sa)
        return table

    # inf/sup (possibly mixed with liminf/limsup of the same family): a
    # liminf/limsup pair over the running extremes
    aug = augment_view(game, list(range(game.n)))
    aug_view = make_view(aug, which)
    vals, _sp, _sa = _solve_lex_liminf_view(aug_view, False)
    aug.values = [aug_view.pair_to_game(which, *pair) for pair in vals]
    values = {game.vertices[v]: aug.values[aug.start_of[v]] for v in range(game.n)}
    pure = ma is mb and ma in (Measure.INF, Measure.SUP)
    table = LexValueTable(which, values, False, None, None, aug=aug)
    if need_strategies and pure:
        partition = _partition(make_view(game, which))
        smax: dict[str, dict[str, str]] = {}
        smin: dict[str, dict[str, str]] = {}
        for v in range(game.n):
            a, b = vals[aug.start_of[v]]
            prot, _ant, ps, _x = partition(a, b, False)
            if v not in prot:
                raise InternalError("vertex missing from its own value partition")
            _t1, t2, _y, ants = partition(a, b, True)
            if v not in t2:
                raise InternalError("vertex missing from the dual partition")
            name = game.vertices[v]
            smax[name] = _edge_strategy_to_names(game, ps)
            smin[name] = _edge_strategy_to_names(game, ants)
        table.strat_max = smax
        table.strat_min = smin
    return table
