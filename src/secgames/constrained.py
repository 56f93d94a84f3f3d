"""Constrained existence of secure equilibria under payoff thresholds.

The outcome characterization turns the question into: does some infinite
path rho from v0 satisfy every visited vertex's two lexicographic values
against Payoff(rho), with Payoff(rho) inside the threshold box?  The pair
loop restricts to candidate maximal values, and each candidate splits into
four per-component bound systems (the two branches of each lexicographic
comparison).  Bound systems are decided per measure family:

  * mean payoff: per reachable SCC, a linear feasibility problem over two
    cycle frequency vectors x and y; x pins the first component's limit
    inferior (or superior) and y the second's, coupled so both dips (peaks)
    are simultaneously schedulable;
  * liminf/limsup: emptiness of a two-pair Streett condition on the
    edge-split graph;
  * inf/sup: the same machinery on the running-extremes arena;
  * discounted: refused (reduces from an open exact-representation problem).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidGameError, MeasureCombinationError, UnsupportedProblemError
from .game import Measure, PayoffPair, WeightedGame, lex_le, require_valid
from .graphs import Arena, reachable_from, tarjan_sccs
from .lex import solve_lex
from .lp import LinearSystem, lp_feasible
from .rational import ExtRational
from .zerosum import streett2_nonempty

F = Fraction


@dataclass
class ThresholdBox:
    mu: tuple[ExtRational, ExtRational]
    nu: tuple[ExtRational, ExtRational]

    @classmethod
    def parse(cls, mu_text: str, nu_text: str) -> "ThresholdBox":
        """Box from "a,b" and "c,d" (rationals, inf or -inf); malformed text
        raises InvalidGameError."""
        try:
            mu = tuple(ExtRational.parse(t) for t in mu_text.split(","))
            nu = tuple(ExtRational.parse(t) for t in nu_text.split(","))
        except ValueError as exc:
            raise InvalidGameError(f"bad threshold {mu_text!r} or {nu_text!r}: {exc}") from exc
        if len(mu) != 2 or len(nu) != 2:
            raise InvalidGameError("thresholds need exactly two components")
        return cls(mu, nu)


@dataclass
class Bounds:
    """One payoff component's lower/upper bound with strictness flags."""

    lo: ExtRational
    lo_strict: bool
    hi: ExtRational
    hi_strict: bool

    @classmethod
    def free(cls) -> "Bounds":
        return cls(ExtRational.neg_inf(), False, ExtRational.pos_inf(), False)

    def tighten_lo(self, value, strict: bool):
        value = value if isinstance(value, ExtRational) else ExtRational(value)
        if value > self.lo:
            self.lo, self.lo_strict = value, strict
        elif value == self.lo:
            self.lo_strict = self.lo_strict or strict

    def tighten_hi(self, value, strict: bool):
        value = value if isinstance(value, ExtRational) else ExtRational(value)
        if value < self.hi:
            self.hi, self.hi_strict = value, strict
        elif value == self.hi:
            self.hi_strict = self.hi_strict or strict

    def feasible(self) -> bool:
        if self.lo < self.hi:
            return True
        return self.lo == self.hi and not self.lo_strict and not self.hi_strict

    def admits_lower(self, w) -> bool:
        return self.lo < w if self.lo_strict else self.lo <= w

    def admits_upper(self, w) -> bool:
        return w < self.hi if self.hi_strict else w <= self.hi


@dataclass
class ValueAnnotatedGraph:
    """Arena with weights and both players' lexicographic values."""

    arena: Arena
    w1: list[Fraction]
    w2: list[Fraction]
    val1: list[PayoffPair]
    val2: list[PayoffPair]
    v0: int
    measure: Measure


SUPPORTED = {
    Measure.INF,
    Measure.SUP,
    Measure.LIMINF,
    Measure.LIMSUP,
    Measure.MPINF,
    Measure.MPSUP,
}


def _annotated_graph(game: WeightedGame, v0: str) -> ValueAnnotatedGraph:
    t1 = solve_lex(game, 1, need_strategies=False)
    t2 = solve_lex(game, 2, need_strategies=False)
    measure = game.measure1
    if measure in (Measure.INF, Measure.SUP):
        # both tables hold values on the same running-extremes arena, where
        # the measure pair is prefix-independent, so suffix payoffs equal
        # total payoffs
        src, val1, val2 = t1.aug, t1.aug.values, t2.aug.values
        start = t1.aug.start_of[game.index[v0]]
        measure = Measure.LIMINF if measure is Measure.INF else Measure.LIMSUP
    else:
        src, start = game, game.index[v0]
        val1 = [t1.values[v] for v in game.vertices]
        val2 = [t2.values[v] for v in game.vertices]
    arena = Arena(src.n, [0] * src.n, list(zip(src.edge_src, src.edge_tgt)))
    return ValueAnnotatedGraph(arena, src.w1, src.w2, val1, val2, start, measure)


def decide_constrained_existence(game: WeightedGame, v0: str, box: ThresholdBox) -> bool:
    """Is there a secure equilibrium from v0 whose payoff lies in the box?

    That is: is there a play from v0 whose payoff lies in the box and is, in
    each player's order, at least that player's value at every vertex it
    visits?  Candidate pairs (c1, c2) of value maxima are tried one at a
    time: the play must stay on vertices whose values are at most c1 and c2,
    with a payoff at least both.  Discounted games raise
    UnsupportedProblemError; different measures for the two players raise
    MeasureCombinationError.
    """
    require_valid(game)
    if game.measure1 is not game.measure2:
        raise MeasureCombinationError(
            "constrained existence needs the same measure for both players"
        )
    if game.measure1 is Measure.DISC:
        raise UnsupportedProblemError(
            "unsupported: constrained existence for discounted payoffs is an "
            "open problem"
        )
    if game.measure1 not in SUPPORTED:
        raise MeasureCombinationError(f"unsupported measure {game.measure1}")
    for i in range(2):
        if box.mu[i] > box.nu[i]:
            return False
        if box.mu[i] == ExtRational.pos_inf() or box.nu[i] == ExtRational.neg_inf():
            return False

    graph = _annotated_graph(game, v0)
    cands1 = _distinct(graph.val1)
    cands2 = _distinct(graph.val2)
    for c1 in cands1:
        for c2 in cands2:
            sub = {
                v
                for v in range(graph.arena.n)
                if lex_le(graph.val1[v], c1, 1) and lex_le(graph.val2[v], c2, 2)
            }
            if graph.v0 in sub and _pair_feasible(graph, sub, c1, c2, box):
                return True
    return False


def _distinct(values: list[PayoffPair]) -> list[PayoffPair]:
    seen = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


def _pair_feasible(graph, sub, c1: PayoffPair, c2: PayoffPair, box: ThresholdBox) -> bool:
    # the two lexicographic comparisons each split into a strict branch and
    # an equality branch, giving four bound systems
    for branch1 in ("strict", "eq"):
        for branch2 in ("strict", "eq"):
            b1, b2 = Bounds.free(), Bounds.free()
            b1.tighten_lo(box.mu[0], False)
            b1.tighten_hi(box.nu[0], False)
            b2.tighten_lo(box.mu[1], False)
            b2.tighten_hi(box.nu[1], False)
            if branch1 == "strict":
                b1.tighten_lo(c1.p1, True)
            else:
                b1.tighten_lo(c1.p1, False)
                b1.tighten_hi(c1.p1, False)
                b2.tighten_hi(c1.p2, False)
            if branch2 == "strict":
                b2.tighten_lo(c2.p2, True)
            else:
                b2.tighten_lo(c2.p2, False)
                b2.tighten_hi(c2.p2, False)
                b1.tighten_hi(c2.p1, False)
            if not (b1.feasible() and b2.feasible()):
                continue
            if path_in_box(graph, sub, b1, b2):
                return True
    return False


def path_in_box(graph: ValueAnnotatedGraph, sub, b1: Bounds, b2: Bounds) -> bool:
    if graph.measure in (Measure.MPINF, Measure.MPSUP):
        ok, _wit = path_in_box_mp(graph, sub, b1, b2)
        return ok
    return path_in_box_liminf(graph, sub, b1, b2)


# ---------------------------------------------------------------------------
# mean payoff: two-flow feasibility per SCC


def path_in_box_mp(graph: ValueAnnotatedGraph, sub, b1: Bounds, b2: Bounds):
    """Infinite path with componentwise mean-payoff bounds inside `sub`.

    The tail settles in one SCC; a payoff (z1, z2) is achievable there iff
    there are cycle frequency vectors x (witnessing the first component's
    dip or peak at z1) and y (the second's at z2) with F2(x) on the right
    side of F2(y) and F1(y) of F1(x).  Bounded components pin F1(x), F2(y).
    """
    sup = graph.measure is Measure.MPSUP
    arena, vmap, emap = graph.arena.restricted(sub)
    if graph.v0 not in sub:
        return False, None
    v0 = vmap.index(graph.v0)
    w1 = [graph.w1[emap[k]] for k in range(arena.m)]
    w2 = [graph.w2[emap[k]] for k in range(arena.m)]
    reach = reachable_from(arena, [v0])
    for scc in tarjan_sccs(arena, allowed=reach):
        sset = set(scc)
        edges = [
            k
            for k in range(arena.m)
            if arena.edge_src[k] in sset and arena.edge_tgt[k] in sset
        ]
        if not edges:
            continue
        ok, wit = _scc_two_flow_feasible(arena, edges, w1, w2, b1, b2, sup)
        if ok:
            orig_edges = [emap[k] for k in edges]
            return True, (sorted(vmap[v] for v in sset), orig_edges, wit)
    return False, None


def _scc_two_flow_feasible(arena, edges, w1, w2, b1: Bounds, b2: Bounds, sup: bool):
    ne = len(edges)
    names = [f"x{k}" for k in range(ne)] + [f"y{k}" for k in range(ne)]
    sys = LinearSystem(names)

    zero = [F(0)] * (2 * ne)
    # x and y are nonnegative as LP variables; each flow sums to 1
    for off in (0, ne):
        r = list(zero)
        r[off : off + ne] = [F(1)] * ne
        sys.add_equal(r, F(1))
    # conservation per vertex for both flows; the rows of one flow sum to
    # zero, so the last vertex's row follows from the others and is left out
    verts = sorted({arena.edge_src[k] for k in edges} | {arena.edge_tgt[k] for k in edges})
    for off in (0, ne):
        for v in verts[:-1]:
            r = list(zero)
            for j, k in enumerate(edges):
                if arena.edge_src[k] == v:
                    r[off + j] += 1
                if arena.edge_tgt[k] == v:
                    r[off + j] -= 1
            sys.add_equal(r, F(0))

    def weight_row(off, wts):
        r = list(zero)
        for j, k in enumerate(edges):
            r[off + j] = F(wts[k])
        return r

    f1x = weight_row(0, w1)
    f2x = weight_row(0, w2)
    f1y = weight_row(ne, w1)
    f2y = weight_row(ne, w2)
    # component bounds: z1 = F1(x), z2 = F2(y)
    for bounds, lo_row in ((b1, f1x), (b2, f2y)):
        if bounds.lo.is_finite:
            if bounds.lo_strict:
                sys.add_strict(lo_row, bounds.lo.value)
            else:
                sys.add_nonstrict(lo_row, bounds.lo.value)
        if bounds.hi.is_finite:
            neg = [-c for c in lo_row]
            if bounds.hi_strict:
                sys.add_strict(neg, -bounds.hi.value)
            else:
                sys.add_nonstrict(neg, -bounds.hi.value)
    # coupling: the companion component at each witness flow must sit on the
    # admissible side of the pinned one
    if not sup:
        sys.add_nonstrict([a - b for a, b in zip(f2x, f2y)], F(0))
        sys.add_nonstrict([a - b for a, b in zip(f1y, f1x)], F(0))
    else:
        sys.add_nonstrict([a - b for a, b in zip(f2y, f2x)], F(0))
        sys.add_nonstrict([a - b for a, b in zip(f1x, f1y)], F(0))
    ok, point = lp_feasible(sys)
    if not ok:
        return False, None
    return True, (point[:ne], point[ne:])


# ---------------------------------------------------------------------------
# liminf / limsup: Streett emptiness on the split graph


def path_in_box_liminf(graph: ValueAnnotatedGraph, sub, b1: Bounds, b2: Bounds) -> bool:
    limsup = graph.measure is Measure.LIMSUP
    arena, vmap, emap = graph.arena.restricted(sub)
    v0 = vmap.index(graph.v0)
    n, m = arena.n, arena.m
    owner = [0] * (n + m)
    edges = [(arena.edge_src[k], n + k) for k in range(m)]
    edges += [(n + k, arena.edge_tgt[k]) for k in range(m)]
    split = Arena(n + m, owner, edges)

    pairs = []
    for bounds, wts in ((b1, graph.w1), (b2, graph.w2)):
        a_set = set()
        b_set = set()
        for k in range(m):
            w = wts[emap[k]]
            if limsup:
                if not bounds.admits_upper(w):
                    a_set.add(n + k)
                if bounds.admits_lower(w):
                    b_set.add(n + k)
            else:
                if not bounds.admits_lower(w):
                    a_set.add(n + k)
                if bounds.admits_upper(w):
                    b_set.add(n + k)
        # original vertices carry no weight: they never violate an
        # eventually-always bound; they witness an infinitely-often bound
        # only when that bound is vacuous
        vac = (
            bounds.lo == ExtRational.neg_inf()
            if limsup
            else bounds.hi == ExtRational.pos_inf()
        )
        if vac:
            b_set.update(range(n))
        pairs.append((a_set, b_set))

    ok, _wit = streett2_nonempty(split, pairs[0], pairs[1], v0)
    return ok
