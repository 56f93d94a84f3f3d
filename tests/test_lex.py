import math
import random
from fractions import Fraction

import pytest

from conftest import with_measure
from secgames import lex
from secgames.errors import InternalError, MeasureCombinationError
from secgames.fixtures import game_g1, game_g3
from secgames.game import Measure, PayoffPair, lex_compare, lex_key, normalize_weights
from secgames.lex import (
    inf_partition,
    inf_partition_dual,
    scalarization_constant,
    solve_lex,
    solve_lex_disc,
    solve_lex_inf,
    solve_lex_liminf,
    solve_lex_liminf_threshold,
    solve_lex_mp,
)
from secgames.oracle import (
    corpus,
    enumerate_positional,
    oracle_guarantee,
    oracle_lex_values,
    strategy_names,
)

F = Fraction


def pp(a, b):
    return PayoffPair(F(a), F(b))


EXAMPLE_TABLE = {
    "v0": pp(4, 4),
    "v1": pp(4, 4),
    "v2": pp(3, 2),
    "v3": pp(4, 3),
    "v4": pp(3, 2),
}


class TestMeanPayoffLex:
    def test_g1_values(self, g1):
        table = solve_lex(g1, 1)
        assert table.values == EXAMPLE_TABLE

    def test_g1_uniform_strategies(self, g1):
        table = solve_lex(g1, 1)
        assert table.strategy_max()["v0"] == "v1"
        assert table.strategy_min()["v2"] == "v4"

    def test_scalarization_constant(self):
        assert scalarization_constant(5, 4) == 101

    def test_corpus_vs_oracle(self, small_corpus):
        for g in small_corpus:
            for measure in (Measure.MPINF, Measure.MPSUP):
                gm = with_measure(g, measure)
                for which in (1, 2):
                    table = solve_lex(gm, which, need_strategies=False)
                    oracle = oracle_lex_values(gm, which)
                    assert oracle.determined
                    assert table.values == oracle.maxmin, (g, measure, which)


class TestScalarizationMonotonicity:
    def test_cycle_pair_order_preserved(self):
        rng = random.Random(99)
        n = 5
        w2max = 2
        m = scalarization_constant(n, w2max)
        for _ in range(10_000):
            n1 = rng.randint(1, n)
            n2 = rng.randint(1, n)
            a1 = rng.randint(0, 2 * n1)
            a2 = rng.randint(0, 2 * n2)
            b1 = rng.randint(0, w2max * n1)
            b2 = rng.randint(0, w2max * n2)
            mean1 = pp(F(a1, n1), F(b1, n1))
            mean2 = pp(F(a2, n2), F(b2, n2))
            scal1 = F(a1 * m - b1, n1)
            scal2 = F(a2 * m - b2, n2)
            lex = lex_compare(mean1, mean2, which=1)
            scal = (scal1 > scal2) - (scal1 < scal2)
            assert lex == scal, (mean1, mean2)


class TestLimInfLex:
    def test_constant_weight_game(self):
        from secgames.game import WeightedGame

        g = WeightedGame(
            ["a", "b"],
            {"a": 1, "b": 2},
            [("a", "b"), ("b", "a")],
            {("a", "b"): (F(3), F(1)), ("b", "a"): (F(3), F(1))},
            Measure.LIMINF,
            Measure.LIMINF,
        )
        table = solve_lex(g, 1)
        assert table.values == {"a": pp(3, 1), "b": pp(3, 1)}

    def test_g1_liminf_equals_example_table(self, g1):
        gm = with_measure(g1, Measure.LIMINF)
        table = solve_lex(gm, 1)
        assert table.values == EXAMPLE_TABLE

    def test_threshold_weakest_and_unachievable(self, g1):
        gm = with_measure(g1, Measure.LIMINF)
        gn, _ = normalize_weights(gm)
        w1max = max(int(w) for w in gn.w1)
        w2max = max(int(w) for w in gn.w2)
        for v in gm.vertices:
            assert solve_lex_liminf_threshold(gm, v, pp(0, w2max), 1)
            assert not solve_lex_liminf_threshold(gm, v, pp(w1max + 1, 0), 1)

    def test_corpus_vs_oracle(self, small_corpus):
        for g in small_corpus:
            for measure in (Measure.LIMINF, Measure.LIMSUP):
                gm = with_measure(g, measure)
                for which in (1, 2):
                    table = solve_lex(gm, which, need_strategies=False)
                    oracle = oracle_lex_values(gm, which)
                    assert oracle.determined
                    assert table.values == oracle.maxmin, (g, measure, which)

    def test_uniform_strategies_on_corpus(self, small_corpus):
        for g in small_corpus[:15]:
            for measure in (Measure.LIMINF, Measure.LIMSUP):
                gm = with_measure(g, measure)
                for which in (1, 2):
                    table = solve_lex(gm, which)
                    smax = table.strategy_max()
                    idx = {gm.index[x]: _edge_index(gm, x, smax[x]) for x in smax}
                    smin = table.strategy_min()
                    idx2 = {gm.index[x]: _edge_index(gm, x, smin[x]) for x in smin}
                    for v in gm.vertices:
                        val = table.values[v]
                        got = oracle_guarantee(gm, which, idx, v)
                        assert lex_compare(got, val, which) >= 0, (v, measure, which)
                        worst = _oracle_counter_guarantee(gm, which, idx2, v)
                        assert lex_compare(worst, val, which) <= 0, (v, measure, which)

    @pytest.mark.parametrize("measure", [Measure.LIMINF, Measure.LIMSUP], ids=str)
    def test_parity_solve_counts(self, monkeypatch, measure):
        # values take at most ceil(log2 K) threshold solves per value class;
        # strategies add at most two solves per class for the stitching and
        # one restricted re-solve of the values per player
        calls = []
        real = lex.solve_parity

        def counting(arena, priority):
            calls.append(arena.n)
            return real(arena, priority)

        monkeypatch.setattr(lex, "solve_parity", counting)
        gm = _seeded_game(30_030, 30, 30, measure)
        k = len(set(gm.w1)) * len(set(gm.w2))
        bits = math.ceil(math.log2(k))
        table = solve_lex(gm, 1, need_strategies=False)
        d = len(set(table.values.values()))
        assert len(calls) <= d * bits, (len(calls), d, k)
        calls.clear()
        assert solve_lex(gm, 1).values == table.values
        assert len(calls) <= 3 * d * bits + 2 * d, (len(calls), d, k)

    def test_losing_stitched_strategy_raises(self, swapped_parity_game):
        with pytest.raises(InternalError):
            solve_lex(swapped_parity_game, 1)

    def test_threshold_matches_oracle_on_all_pairs(self, small_corpus):
        for g in small_corpus[:12]:
            gm = with_measure(g, Measure.LIMINF)
            gn, info = normalize_weights(gm)
            oracle = oracle_lex_values(gn, 1)
            alphas = sorted({int(w) for w in gn.w1})
            betas = sorted({int(w) for w in gn.w2})
            for v in gn.vertices:
                val = oracle.maxmin[v]
                for a in alphas:
                    for b in betas:
                        want = lex_compare(pp(a, b), val, 1) <= 0
                        got = solve_lex_liminf_threshold(gn, v, pp(a, b), 1)
                        assert got == want, (v, a, b, val)


class TestInfSupLex:
    def test_g3_values(self):
        g = game_g3(Measure.INF)
        table = solve_lex(g, 1)
        assert table.values == {
            "v0": pp(2, 0),
            "v2": pp(2, 0),
            "v3": pp(2, 0),
            "v4": pp(3, 1),
        }

    def test_g3_not_uniformly_determined(self):
        g = game_g3(Measure.INF)
        strategies = list(enumerate_positional(g, 1))
        both_optimal = 0
        for strat in strategies:
            named = strategy_names(g, strat)
            ok_v0 = lex_compare(oracle_guarantee(g, 1, strat, "v0"), pp(2, 0), 1) >= 0
            ok_v4 = lex_compare(oracle_guarantee(g, 1, strat, "v4"), pp(3, 1), 1) >= 0
            if ok_v0 and ok_v4:
                both_optimal += 1
        assert both_optimal == 0

    def test_g3_per_vertex_strategies_guarantee_value(self):
        g = game_g3(Measure.INF)
        table = solve_lex(g, 1)
        for v in g.vertices:
            strat = table.strategy_max(v)
            idx = {g.index[x]: _edge_index(g, x, strat[x]) for x in strat}
            got = oracle_guarantee(g, 1, idx, v)
            assert lex_compare(got, table.values[v], 1) >= 0

    def test_partitions_g3(self):
        g = game_g3(Measure.INF)
        w1, w2, strat = inf_partition(g, pp(2, 0))
        assert w1 == {"v0", "v2", "v3", "v4"}
        w1b, w2b, _ = inf_partition(g, pp(3, 1))
        assert w1b == {"v4"}

    def test_partition_weakest_demand(self, small_corpus):
        for g in small_corpus[:10]:
            gm = with_measure(g, Measure.INF)
            w2max = max(w[1] for w in gm.weights.values())
            w1, w2, _ = inf_partition(gm, PayoffPair(F(0), w2max))
            assert w1 == set(gm.vertices)

    def test_corpus_vs_oracle(self, small_corpus):
        for g in small_corpus:
            for measure in (Measure.INF, Measure.SUP):
                gm = with_measure(g, measure)
                for which in (1, 2):
                    table = solve_lex(gm, which, need_strategies=False)
                    oracle = oracle_lex_values(gm, which)
                    assert oracle.determined
                    assert table.values == oracle.maxmin, (g, measure, which)

    def test_per_vertex_strategies_on_corpus(self, small_corpus):
        for g in small_corpus[:15]:
            for measure in (Measure.INF, Measure.SUP):
                gm = with_measure(g, measure)
                table = solve_lex(gm, 1)
                for v in gm.vertices:
                    smax = table.strategy_max(v)
                    idx = {gm.index[x]: _edge_index(gm, x, smax[x]) for x in smax}
                    got = oracle_guarantee(gm, 1, idx, v)
                    assert lex_compare(got, table.values[v], 1) >= 0, (v, measure)
                    smin = table.strategy_min(v)
                    idx2 = {gm.index[x]: _edge_index(gm, x, smin[x]) for x in smin}
                    worst = _oracle_counter_guarantee(gm, 1, idx2, v)
                    assert lex_compare(worst, table.values[v], 1) <= 0, (v, measure)

    def test_augmented_values_antitone_in_extremes(self, small_corpus):
        # first component of the value at (v, m1, m2) never exceeds m1
        for g in small_corpus[:10]:
            gm = with_measure(g, Measure.INF)
            table = solve_lex(gm, 1, need_strategies=False)
            aug = table.aug
            for i, (v, m1, m2) in enumerate(aug.states):
                if m1 is None:
                    continue
                assert aug.values[i][0] <= m1


def _seeded_game(seed, n, w, measure):
    """n vertices of out-degree 2, weight pairs uniform in [0, w]^2."""
    from secgames.game import WeightedGame

    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    owners = {x: rng.choice((1, 2)) for x in names}
    edges, weights = [], {}
    for i in range(n):
        for t in rng.sample(range(n), 2):
            e = (names[i], names[t])
            edges.append(e)
            weights[e] = (F(rng.randint(0, w)), F(rng.randint(0, w)))
    return WeightedGame(names, owners, edges, weights, measure, measure)


def _aug_as_game(aug):
    """Materialize an augmented view as a WeightedGame (view coords)."""
    from secgames.game import WeightedGame

    arena = aug.view.arena
    names = [f"s{i}" for i in range(arena.n)]
    owners = {names[i]: 1 if arena.owner[i] == 0 else 2 for i in range(arena.n)}
    edges = []
    weights = {}
    seen = set()
    for k in range(arena.m):
        e = (names[arena.edge_src[k]], names[arena.edge_tgt[k]])
        if e in seen:
            continue  # parallel augmented edges carry identical weights
        seen.add(e)
        edges.append(e)
        weights[e] = (aug.view.wa[k], aug.view.wb[k])
    return WeightedGame(names, owners, edges, weights, aug.view.ma, aug.view.mb)


def _edge_index(game, u, v):
    for k in game.out_edges[game.index[u]]:
        if game.edge_tgt[k] == game.index[v]:
            return k
    raise AssertionError((u, v))


def _oracle_counter_guarantee(game, which, ant_strat, start):
    """Best payoff the protagonist reaches against a fixed opponent."""
    from secgames.game import eval_lasso_payoff
    from secgames.oracle import profile_outcome

    prot = 1 if which == 1 else 2
    best = None
    for sp in enumerate_positional(game, prot):
        p = eval_lasso_payoff(game, profile_outcome(game, sp, ant_strat, game.index[start]))
        if best is None or lex_key(p, which) > lex_key(best, which):
            best = p
    return best


class TestDiscountedLex:
    def test_zero_weights(self):
        from secgames.game import WeightedGame

        g = WeightedGame(
            ["a", "b"],
            {"a": 1, "b": 2},
            [("a", "b"), ("b", "a")],
            {("a", "b"): (F(0), F(0)), ("b", "a"): (F(0), F(0))},
            Measure.DISC,
            Measure.DISC,
            discount=F(1, 2),
        )
        table = solve_lex(g, 1)
        assert all(v == pp(0, 0) for v in table.values.values())

    def test_g1_table_half(self):
        g = game_g1(Measure.DISC, discount=F(1, 2))
        table = solve_lex(g, 1)
        assert table.values == {
            "v0": pp(2, 2),
            "v1": pp(4, 4),
            "v2": pp(F(3, 2), 1),
            "v3": pp(4, 3),
            "v4": pp(3, 2),
        }

    def test_corpus_vs_oracle(self, small_corpus):
        for g in small_corpus[:30]:
            for lam in (F(1, 2), F(1, 3), F(9, 10)):
                gm = with_measure(g, Measure.DISC, discount=lam)
                for which in (1, 2):
                    table = solve_lex(gm, which, need_strategies=False)
                    oracle = oracle_lex_values(gm, which)
                    assert oracle.determined
                    assert table.values == oracle.maxmin, (g, lam, which)

    def test_strategy_guarantees_on_corpus(self, small_corpus):
        for g in small_corpus[:10]:
            gm = with_measure(g, Measure.DISC, discount=F(1, 2))
            table = solve_lex(gm, 1)
            smax = table.strategy_max()
            idx = {gm.index[x]: _edge_index(gm, x, smax[x]) for x in smax}
            for v in gm.vertices:
                got = oracle_guarantee(gm, 1, idx, v)
                assert lex_compare(got, table.values[v], 1) >= 0


class TestMixedMeasures:
    def test_min_family_mix_values(self, small_corpus):
        # payoff = (Inf of r1, LimInf of r2).  Positional strategies in the
        # original game do not suffice here (the opponent may need to visit a
        # low-second-weight cycle once and then avoid it), so the oracle runs
        # on the augmented arena, whose positional strategies are exactly the
        # original game's finite-memory ones.
        for g in small_corpus[:12]:
            from secgames.game import WeightedGame

            gm = WeightedGame(
                g.vertices, g.owner, g.edges, g.weights, Measure.INF, Measure.LIMINF
            )
            table = solve_lex(gm, 1, need_strategies=False)
            aug_game = _aug_as_game(table.aug)
            oracle = oracle_lex_values(aug_game, 1)
            assert oracle.determined
            for v in gm.vertices:
                start = table.aug.start_of[gm.index[v]]
                assert table.values[v] == oracle.maxmin[aug_game.vertices[start]], v

    def test_min_family_mix_beats_positional_opponent_sometimes(self):
        # witness that the positional oracle and the true value can differ:
        # the opponent profits from leaving a low-second-weight cycle after
        # one pass, which no positional strategy can do
        from secgames.game import WeightedGame

        g = WeightedGame(
            ["v0", "v1"],
            {"v0": 2, "v1": 1},
            [("v0", "v1"), ("v0", "v0"), ("v1", "v0"), ("v1", "v1")],
            {
                ("v0", "v1"): (F(2), F(1)),
                ("v0", "v0"): (F(1), F(0)),
                ("v1", "v0"): (F(2), F(1)),
                ("v1", "v1"): (F(2), F(1)),
            },
            Measure.INF,
            Measure.LIMINF,
        )
        table = solve_lex(g, 1, need_strategies=False)
        positional = oracle_lex_values(g, 1)
        assert table.values["v0"] == pp(1, 1)
        assert positional.maxmin["v0"] == pp(1, 0)

    def test_cross_family_mix_rejected(self, g1):
        from secgames.game import WeightedGame

        gm = WeightedGame(
            g1.vertices, g1.owner, g1.edges, g1.weights, Measure.INF, Measure.LIMSUP
        )
        with pytest.raises(MeasureCombinationError):
            solve_lex(gm, 1)


class TestDeterminacyEmpirical:
    def test_maxmin_equals_minmax_everywhere(self, small_corpus):
        for g in small_corpus[:25]:
            for measure in (
                Measure.INF,
                Measure.SUP,
                Measure.LIMINF,
                Measure.LIMSUP,
                Measure.MPINF,
                Measure.MPSUP,
            ):
                gm = with_measure(g, measure)
                for which in (1, 2):
                    oracle = oracle_lex_values(gm, which)
                    assert oracle.determined, (measure, which)


class TestMpFirstComponent:
    def test_first_component_equals_scalar_value(self, small_corpus):
        from secgames.graphs import Arena
        from secgames.zerosum import ScalarGame, solve_mean_payoff

        for g in small_corpus[:15]:
            for measure in (Measure.MPINF, Measure.MPSUP):
                gm = with_measure(g, measure)
                for which in (1, 2):
                    table = solve_lex(gm, which, need_strategies=False)
                    own = [int(w) for w in (gm.w1 if which == 1 else gm.w2)]
                    arena = Arena(
                        gm.n,
                        [0 if o == which else 1 for o in gm.owner_of],
                        list(zip(gm.edge_src, gm.edge_tgt)),
                    )
                    res = solve_mean_payoff(ScalarGame(arena, own, 0))
                    for v in range(gm.n):
                        pair = table.values[gm.vertices[v]]
                        comp = pair.p1 if which == 1 else pair.p2
                        assert comp == res.values[v]


class TestDualPartition:
    def test_g3_dual_regions_and_strategy(self):
        g = game_g3(Measure.INF)
        t1, t2, strat2 = inf_partition_dual(g, pp(2, 0))
        # player 2 can cap the payoff at (2,0) everywhere except v4
        assert t2 == {"v0", "v2", "v3"}
        assert t1 == {"v4"}
        idx = {g.index[x]: _edge_index(g, x, strat2[x]) for x in strat2}
        worst = _oracle_counter_guarantee(g, 1, idx, "v0")
        assert lex_compare(worst, pp(2, 0), 1) <= 0

    def test_dual_matches_values_on_corpus(self, small_corpus):
        for g in small_corpus[:10]:
            gm = with_measure(g, Measure.INF)
            table = solve_lex(gm, 1, need_strategies=False)
            for v in gm.vertices:
                val = table.values[v]
                w1, _w2, _ = inf_partition(gm, val)
                t1, t2, _ = inf_partition_dual(gm, val)
                assert v in w1 and v in t2


class TestNamedEntryPoints:
    def test_dispatchers_agree_and_validate(self, g1):
        assert solve_lex_mp(g1, 1).values == solve_lex(g1, 1).values
        gl = with_measure(g1, Measure.LIMINF)
        assert solve_lex_liminf(gl, 2).values == solve_lex(gl, 2).values
        gi = game_g3(Measure.INF)
        assert solve_lex_inf(gi, 1).values == solve_lex(gi, 1).values
        gd = game_g1(Measure.DISC, discount=F(1, 2))
        assert solve_lex_disc(gd, 1).values == solve_lex(gd, 1).values
        with pytest.raises(MeasureCombinationError):
            solve_lex_mp(gl, 1)
        with pytest.raises(MeasureCombinationError):
            solve_lex_disc(g1, 1)
