import random
from fractions import Fraction

import pytest

from conftest import with_measure
from secgames.constrained import (
    Bounds,
    ThresholdBox,
    decide_constrained_existence,
    path_in_box_mp,
    _annotated_graph,
)
from secgames.errors import MeasureCombinationError, UnsupportedProblemError
from secgames.fixtures import game_g1
from secgames.game import Measure, PayoffPair, WeightedGame, lex_le
from secgames.graphs import Arena, shortest_path
from secgames.oracle import enumerate_cycle_profiles
from secgames.rational import ExtRational

F = Fraction
INF = ExtRational.pos_inf()
NEG = ExtRational.neg_inf()


def box(mu1, mu2, nu1, nu2):
    def conv(x):
        return x if isinstance(x, ExtRational) else ExtRational(F(x))

    return ThresholdBox((conv(mu1), conv(mu2)), (conv(nu1), conv(nu2)))


def pp(a, b):
    return PayoffPair(F(a), F(b))


class TestExamples:
    def test_g2_one_one_exists(self, g2):
        assert decide_constrained_existence(g2, "v0", box(1, 1, INF, INF))

    def test_g2_no_finite_memory_witness(self, g2):
        # no ultimately periodic play with cycle length <= 20 reaches (1,1)
        profiles = enumerate_cycle_profiles(g2, "v0", 20)
        assert all(not (p.p1 >= 1 and p.p2 >= 1) for p in profiles)

    def test_g1_exact_four_four(self, g1):
        assert decide_constrained_existence(g1, "v0", box(4, 4, 4, 4))

    def test_g1_exceeding_weights_false(self, g1):
        assert not decide_constrained_existence(g1, "v0", box(5, 0, INF, INF))

    def test_discounted_refused(self):
        g = game_g1(Measure.DISC, discount=F(1, 2))
        with pytest.raises(UnsupportedProblemError):
            decide_constrained_existence(g, "v0", box(0, 0, INF, INF))

    def test_mixed_measures_refused(self, g1):
        gm = WeightedGame(
            g1.vertices, g1.owner, g1.edges, g1.weights, Measure.MPINF, Measure.MPSUP
        )
        with pytest.raises(MeasureCombinationError):
            decide_constrained_existence(gm, "v0", box(0, 0, INF, INF))

    def test_inverted_box_false(self, g1):
        assert not decide_constrained_existence(g1, "v0", box(3, 3, 2, INF))


class TestPathInBoxMp:
    def test_single_loop_exact(self):
        g = WeightedGame(
            ["a"],
            {"a": 1},
            [("a", "a")],
            {("a", "a"): (F(2), F(5))},
            Measure.MPINF,
            Measure.MPINF,
        )
        assert decide_constrained_existence(g, "a", box(2, 5, 2, 5))
        assert not decide_constrained_existence(g, "a", box(2, 5, 2, ExtRational(F(4))))

    def test_g2_flow_mix(self, g2):
        graph = _annotated_graph(g2, "v0")
        sub = set(range(graph.arena.n))
        b1 = Bounds(ExtRational(F(1)), False, INF, False)
        b2 = Bounds(ExtRational(F(1)), False, INF, False)
        ok, wit = path_in_box_mp(graph, sub, b1, b2)
        assert ok
        verts, edges, (x, y) = wit
        assert sum(x) == 1 and sum(y) == 1

    def test_strict_demand_exceeding_max_false(self, g2):
        graph = _annotated_graph(g2, "v0")
        sub = set(range(graph.arena.n))
        b1 = Bounds(ExtRational(F(2)), True, INF, False)
        b2 = Bounds(NEG, False, INF, False)
        ok, _ = path_in_box_mp(graph, sub, b1, b2)
        assert not ok


class TestTwoFlowLpSize:
    def test_rows_within_bound(self, g2, small_corpus, monkeypatch):
        # normalization 2, conservation 2(|V|-1), bound rows <= 4, coupling 2,
        # cap 1: no nonnegativity rows and no equality written twice
        from secgames import constrained, lp

        real_flow, real_simplex = constrained._scc_two_flow_feasible, lp.simplex_max
        calls = []

        def flow(arena, edges, *rest):
            verts = {arena.edge_src[k] for k in edges} | {arena.edge_tgt[k] for k in edges}
            calls.append([len(verts), None])
            return real_flow(arena, edges, *rest)

        def simplex(A, b, c):
            calls[-1][1] = len(A)
            return real_simplex(A, b, c)

        monkeypatch.setattr(constrained, "_scc_two_flow_feasible", flow)
        monkeypatch.setattr(lp, "simplex_max", simplex)
        games = [g2] + [
            with_measure(g, (Measure.MPINF, Measure.MPSUP)[i % 2])
            for i, g in enumerate(small_corpus[:8])
        ]
        ext = ExtRational
        bounds = [
            (Bounds.free(), Bounds.free()),
            (Bounds(ext(F(0)), False, ext(F(2)), False), Bounds(ext(F(-1)), True, ext(F(1)), True)),
            (Bounds(ext(F(1)), True, INF, False), Bounds(NEG, False, ext(F(1)), False)),
        ]
        for g in games:
            graph = _annotated_graph(g, g.vertices[0])
            sub = set(range(graph.arena.n))
            for b1, b2 in bounds:
                path_in_box_mp(graph, sub, b1, b2)
        assert len(calls) >= len(games)
        for nverts, rows in calls:
            assert rows is not None and rows <= 2 * nverts + 7, (nverts, rows)


def liminf_tailset_oracle(graph, box_, limsup):
    """Exhaustive: pick the set of edges visited infinitely often."""
    arena = graph.arena
    m = arena.m
    agg = max if limsup else min
    for mask in range(1, 1 << m):
        edges = [k for k in range(m) if mask >> k & 1]
        verts = sorted({arena.edge_src[k] for k in edges} | {arena.edge_tgt[k] for k in edges})
        if not _strongly_connected(arena, verts, edges):
            continue
        p = PayoffPair(
            agg(graph.w1[k] for k in edges), agg(graph.w2[k] for k in edges)
        )
        if not (box_.mu[0] <= p.p1 <= box_.nu[0] and box_.mu[1] <= p.p2 <= box_.nu[1]):
            continue
        ok_set = {
            v
            for v in range(arena.n)
            if lex_le(graph.val1[v], p, 1) and lex_le(graph.val2[v], p, 2)
        }
        if not set(verts) <= ok_set or graph.v0 not in ok_set:
            continue
        if shortest_path(arena, graph.v0, set(verts), allowed=ok_set) is not None:
            return True
    return False


def _strongly_connected(arena, verts, edges):
    if not verts:
        return False
    succ = {}
    for k in edges:
        succ.setdefault(arena.edge_src[k], []).append(arena.edge_tgt[k])
    for v in verts:
        if v not in succ:
            return False
    for root in verts:
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for t in succ.get(x, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if not set(verts) <= seen:
            return False
    return True


def random_boxes(rng, lo=-1, hi=3):
    def pick():
        r = rng.random()
        if r < 0.2:
            return NEG
        if r < 0.4:
            return INF
        return ExtRational(F(rng.randint(2 * lo, 2 * hi), rng.choice((1, 2))))

    while True:
        mu = (pick(), pick())
        nu = (pick(), pick())
        if mu[0] != INF and mu[1] != INF and nu[0] != NEG and nu[1] != NEG:
            return ThresholdBox(mu, nu)


class TestLimInfAgainstOracle:
    @pytest.mark.parametrize("measure", [Measure.LIMINF, Measure.LIMSUP])
    def test_corpus(self, measure, small_corpus):
        rng = random.Random(17)
        for g in small_corpus[:25]:
            gm = with_measure(g, measure)
            graph = _annotated_graph(gm, gm.vertices[0])
            for _ in range(6):
                bx = random_boxes(rng)
                got = decide_constrained_existence(gm, gm.vertices[0], bx)
                want = liminf_tailset_oracle(graph, bx, measure is Measure.LIMSUP)
                assert got == want, (gm.vertices, bx.mu, bx.nu)


def inf_constrained_oracle(game, v0, bx):
    """Tail cycles carry constant extremes, so enumerate (edge set, entry
    extremes) pairs and search a value-admissible stem in the extremes
    graph."""
    is_sup = game.measure1 is Measure.SUP
    comb = max if is_sup else min
    graph = _annotated_graph(game, v0)
    from secgames.lex import solve_lex

    t1 = solve_lex(game, 1, need_strategies=False)
    t2 = solve_lex(game, 2, need_strategies=False)
    aug1 = t1.aug
    arena0 = Arena(game.n, [0] * game.n, list(zip(game.edge_src, game.edge_tgt)))
    m = arena0.m
    vals1 = sorted({w for w in game.w1})
    vals2 = sorted({w for w in game.w2})
    for mask in range(1, 1 << m):
        edges = [k for k in range(m) if mask >> k & 1]
        verts = sorted({arena0.edge_src[k] for k in edges} | {arena0.edge_tgt[k] for k in edges})
        if not _strongly_connected(arena0, verts, edges):
            continue
        c1 = comb(game.w1[k] for k in edges)
        c2 = comb(game.w2[k] for k in edges)
        e1cands = [w for w in vals1 if (w <= c1 if not is_sup else w >= c1)] or [c1]
        e2cands = [w for w in vals2 if (w <= c2 if not is_sup else w >= c2)]
        for e1 in e1cands:
            for e2 in e2cands:
                p = PayoffPair(e1, e2)
                if not (bx.mu[0] <= p.p1 <= bx.nu[0] and bx.mu[1] <= p.p2 <= bx.nu[1]):
                    continue
                if _inf_oracle_reach(game, v0, t1, t2, edges, verts, e1, e2, comb):
                    return True
    return False


def _inf_oracle_reach(game, v0, t1, t2, edges, verts, e1, e2, comb):
    payoff = PayoffPair(e1, e2)

    def ok(state):
        try:
            a = t1.aug.values[t1.aug.state_index[state]]
            b = t2.aug.values[t2.aug.state_index[state]]
        except KeyError:
            return False
        return lex_le(a, payoff, 1) and lex_le(b, payoff, 2)

    # every tail state must be admissible
    for v in verts:
        if not ok((v, e1, e2)):
            return False
    # all tail edges must preserve the extremes
    for k in edges:
        if comb(e1, game.w1[k]) != e1 or comb(e2, game.w2[k]) != e2:
            return False
    start = (game.index[v0], None, None)
    if not ok(start):
        return False
    seen = {start}
    stack = [start]
    targets = {(v, e1, e2) for v in verts}
    while stack:
        cur = stack.pop()
        if cur in targets:
            return True
        vi, m1, m2 = cur
        for k in game.out_edges[vi]:
            w1, w2 = game.w1[k], game.w2[k]
            n1 = w1 if m1 is None else comb(m1, w1)
            n2 = w2 if m2 is None else comb(m2, w2)
            nxt = (game.edge_tgt[k], n1, n2)
            if nxt in seen or not ok(nxt):
                continue
            seen.add(nxt)
            stack.append(nxt)
    return False


class TestInfSupAgainstOracle:
    @pytest.mark.parametrize("measure", [Measure.INF, Measure.SUP])
    def test_corpus(self, measure, small_corpus):
        rng = random.Random(19)
        for g in small_corpus[:15]:
            gm = with_measure(g, measure)
            v0 = gm.vertices[0]
            for _ in range(4):
                bx = random_boxes(rng, lo=0, hi=2)
                got = decide_constrained_existence(gm, v0, bx)
                want = inf_constrained_oracle(gm, v0, bx)
                assert got == want, (gm.vertices, bx.mu, bx.nu, measure)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "measure", [Measure.MPINF, Measure.MPSUP, Measure.LIMINF, Measure.INF]
    )
    def test_enlarging_box_never_flips_to_false(self, measure, small_corpus):
        rng = random.Random(23)
        for g in small_corpus[:10]:
            gm = with_measure(g, measure)
            v0 = gm.vertices[0]
            bx = random_boxes(rng, lo=0, hi=2)
            inner = decide_constrained_existence(gm, v0, bx)
            if not inner:
                continue
            wider = ThresholdBox((NEG, bx.mu[1]), (bx.nu[0], INF))
            assert decide_constrained_existence(gm, v0, wider)
            widest = ThresholdBox((NEG, NEG), (INF, INF))
            assert decide_constrained_existence(gm, v0, widest)


class TestMpFlowScheduleSmoke:
    def test_witness_flows_schedule_within_slack(self, small_corpus):
        rng = random.Random(29)
        checked = 0
        for g in small_corpus:
            if checked >= 8:
                break
            gm = with_measure(g, Measure.MPINF)
            graph = _annotated_graph(gm, gm.vertices[0])
            sub = set(range(graph.arena.n))
            bx = random_boxes(rng, lo=0, hi=2)
            b1 = Bounds(bx.mu[0], False, bx.nu[0], False)
            b2 = Bounds(bx.mu[1], False, bx.nu[1], False)
            if not (b1.feasible() and b2.feasible()):
                continue
            ok, wit = path_in_box_mp(graph, sub, b1, b2)
            if not ok:
                continue
            checked += 1
            verts, edges, (x, y) = wit
            _simulate_flow_schedule(graph, edges, x, y, b1, b2)
        assert checked >= 3


def _simulate_flow_schedule(graph, edges, x, y, b1, b2):
    """Alternate geometrically growing blocks of the two witness flows and
    check the running averages stay consistent with the box (within the
    slack a truncated schedule implies)."""
    arena = graph.arena

    def decompose(flow):
        residual = {k: f for k, f in zip(edges, flow) if f > 0}
        cycles = []
        while residual:
            k0 = min(residual)
            cyc = [k0]
            cur = arena.edge_tgt[k0]
            while cur != arena.edge_src[k0]:
                nxt = min(k for k in residual if arena.edge_src[k] == cur)
                cyc.append(nxt)
                cur = arena.edge_tgt[nxt]
            q = min(residual[k] for k in cyc)
            cycles.append((cyc, q))
            for k in cyc:
                residual[k] -= q
                if residual[k] == 0:
                    del residual[k]
        return cycles

    cx = decompose(x)
    cy = decompose(y)
    seq = []
    block = 8
    for _ in range(5):
        for cycles in (cx, cy):
            total = sum(q * len(c) for c, q in cycles)
            reps = max(1, int(block / total)) if total else 1
            for c, q in cycles:
                # approximate the frequency mix by integer repetitions
                n = max(1, round(reps * q * len(c) / len(c)))
                seq.extend(c * n)
        block *= 2
    s1 = s2 = F(0)
    count = 0
    lows1 = []
    lows2 = []
    for k in seq:
        s1 += graph.w1[k]
        s2 += graph.w2[k]
        count += 1
        if count > len(seq) // 2:
            lows1.append(s1 / count)
            lows2.append(s2 / count)
    wmax = max(abs(w) for w in graph.w1 + graph.w2)
    slack = F(4 * wmax, 10)
    if b1.lo.is_finite:
        assert min(lows1) >= b1.lo.value - slack
    if b2.lo.is_finite:
        assert min(lows2) >= b2.lo.value - slack
