import itertools
import random
from fractions import Fraction

import pytest

from secgames.game import Measure
from secgames.graphs import Arena, attractor
from secgames.oracle import energy_measure_by_lifting, zp_value_iteration
from secgames.zerosum import (
    ScalarGame,
    _least_progress_measure,
    check_discounted_fixpoint,
    energy_region,
    solve_discounted,
    solve_mean_payoff,
    solve_parity,
    streett2_nonempty,
)

F = Fraction


def arena_of(game, player_for_zero=1):
    owner = [0 if o == player_for_zero else 1 for o in game.owner_of]
    return Arena(game.n, owner, list(zip(game.edge_src, game.edge_tgt)))


def random_arena(rng, max_n=6, max_deg=3):
    n = rng.randint(2, max_n)
    owner = [rng.randint(0, 1) for _ in range(n)]
    edges = []
    for v in range(n):
        for t in rng.sample(range(n), rng.randint(1, min(max_deg, n))):
            edges.append((v, t))
    return Arena(n, owner, edges)


class TestAttractor:
    def test_target_everything(self):
        rng = random.Random(0)
        a = random_arena(rng)
        attr, strat = attractor(a, 0, set(range(a.n)))
        assert attr == set(range(a.n))
        assert strat == {}

    def test_empty_target(self):
        rng = random.Random(1)
        a = random_arena(rng)
        attr, strat = attractor(a, 0, set())
        assert attr == set() and strat == {}

    def test_monotone_and_idempotent(self):
        rng = random.Random(2)
        for _ in range(30):
            a = random_arena(rng)
            t1 = {v for v in range(a.n) if rng.random() < 0.3}
            t2 = t1 | {v for v in range(a.n) if rng.random() < 0.2}
            a1, _ = attractor(a, 1, t1)
            a2, _ = attractor(a, 1, t2)
            assert a1 <= a2
            again, _ = attractor(a, 1, a1)
            assert again == a1

    def test_strategy_reaches_target(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_arena(rng)
            target = {v for v in range(a.n) if rng.random() < 0.3}
            attr, strat = attractor(a, 0, target)
            for start in attr - target:
                # the opponent plays adversarially (all choices); player 0
                # follows the strategy: target must be hit within n steps
                frontier = {start}
                for _ in range(a.n + 1):
                    if frontier & target:
                        break
                    nxt = set()
                    for v in frontier:
                        if a.owner[v] == 0:
                            nxt.add(a.edge_tgt[strat[v]])
                        else:
                            nxt.update(a.edge_tgt[k] for k in a.out_edges[v])
                    assert nxt <= attr
                    frontier = nxt
                else:
                    pytest.fail("attractor strategy failed to reach target")


def parity_winner_oracle(arena, priority, start):
    """Exhaustive positional-profile evaluation of a parity game."""

    def plays(owner_choices):
        cur = start
        seen = {}
        path = []
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = arena.edge_tgt[owner_choices[cur]]
        cyc = path[seen[cur]:]
        top = max(priority[v] for v in cyc)
        return top % 2

    verts = list(range(arena.n))
    zero_owned = [v for v in verts if arena.owner[v] == 0]
    one_owned = [v for v in verts if arena.owner[v] == 1]
    best = None
    for c0 in itertools.product(*(arena.out_edges[v] for v in zero_owned)):
        worst = None
        choice0 = dict(zip(zero_owned, c0))
        for c1 in itertools.product(*(arena.out_edges[v] for v in one_owned)):
            choice = dict(choice0)
            choice.update(zip(one_owned, c1))
            res = plays(choice)
            if res == 1:
                worst = 1
                break
            worst = 0
        if worst == 0:
            return 0
    return 1


class TestParity:
    def test_all_even_priorities(self):
        rng = random.Random(4)
        a = random_arena(rng)
        win0, win1, _, _ = solve_parity(a, [2] * a.n)
        assert win0 == set(range(a.n)) and not win1

    def test_single_odd_loop(self):
        a = Arena(1, [0], [(0, 0)])
        win0, win1, _, _ = solve_parity(a, [1])
        assert win1 == {0}

    def test_against_positional_enumeration(self):
        rng = random.Random(5)
        for _ in range(120):
            a = random_arena(rng, max_n=5, max_deg=2)
            priority = [rng.randint(0, 3) for _ in range(a.n)]
            win0, win1, s0, s1 = solve_parity(a, priority)
            assert win0 | win1 == set(range(a.n))
            assert not (win0 & win1)
            for v in range(a.n):
                expect = parity_winner_oracle(a, priority, v)
                got = 0 if v in win0 else 1
                assert got == expect, (a.n, priority, v)

    def test_strategies_closed_and_winning(self):
        rng = random.Random(6)
        for _ in range(60):
            a = random_arena(rng, max_n=5, max_deg=2)
            priority = [rng.randint(0, 2) for _ in range(a.n)]
            win0, win1, s0, s1 = solve_parity(a, priority)
            for player, region, strat in ((0, win0, s0), (1, win1, s1)):
                for v in region:
                    if a.owner[v] == player:
                        assert v in strat
                        assert a.edge_tgt[strat[v]] in region
                # simulate all opponent behaviours, check the max recurring
                # priority has the right parity
                for start in region:
                    _check_parity_strategy(a, priority, player, strat, region, start)


def _check_parity_strategy(a, priority, player, strat, region, start):
    # exhaustive opponent positional responses on small arenas
    opp = [v for v in region if a.owner[v] != player]
    for combo in itertools.product(*(a.out_edges[v] for v in opp)):
        choice = dict(zip(opp, combo))
        choice.update({v: strat[v] for v in region if a.owner[v] == player})
        cur = start
        seen = {}
        path = []
        ok_region = True
        while cur not in seen:
            if cur not in region:
                ok_region = False  # opponent left the region: fine
                break
            seen[cur] = len(path)
            path.append(cur)
            cur = a.edge_tgt[choice[cur]]
        if not ok_region:
            continue
        cyc = path[seen[cur]:]
        top = max(priority[v] for v in cyc)
        assert top % 2 == player


def mp_value_oracle(arena, wts, pmax):
    """Positional minimax of cycle means."""
    verts = list(range(arena.n))
    maxv = [v for v in verts if arena.owner[v] == pmax]
    minv = [v for v in verts if arena.owner[v] != pmax]

    def outcome(choice, start):
        cur = start
        seen = {}
        path = []
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = arena.edge_tgt[choice[cur]]
        cyc = path[seen[cur]:]
        total = sum(wts[choice[v]] for v in cyc)
        return F(total, len(cyc))

    values = []
    for start in verts:
        best = None
        for cmax in itertools.product(*(arena.out_edges[v] for v in maxv)):
            worst = None
            base = dict(zip(maxv, cmax))
            for cmin in itertools.product(*(arena.out_edges[v] for v in minv)):
                choice = dict(base)
                choice.update(zip(minv, cmin))
                val = outcome(choice, start)
                if worst is None or val < worst:
                    worst = val
            if best is None or worst > best:
                best = worst
        values.append(best)
    return values


class TestMeanPayoff:
    def test_single_loop(self):
        a = Arena(1, [0], [(0, 0)])
        res = solve_mean_payoff(ScalarGame(a, [5], 0))
        assert res.values == [F(5)]

    def test_two_loops_choice(self):
        a = Arena(2, [0, 0], [(0, 0), (0, 1), (1, 1)])
        res = solve_mean_payoff(ScalarGame(a, [1, 0, 2], 0))
        assert res.values[0] == F(2)
        assert a.edge_tgt[res.strategy_max[0]] == 1

    def test_g1_first_component(self, g1):
        a = arena_of(g1)
        wts = [int(w) for w in g1.w1]
        res = solve_mean_payoff(ScalarGame(a, wts, 0))
        vals = {g1.vertices[i]: res.values[i] for i in range(g1.n)}
        assert vals == {"v0": 4, "v1": 4, "v2": 3, "v3": 4, "v4": 3}

    def test_matches_oracle_and_strategies(self):
        rng = random.Random(7)
        for i in range(100):
            a = random_arena(rng, max_n=5, max_deg=2)
            wts = [rng.randint(-3, 3) for _ in range(a.m)]
            pmax = rng.randint(0, 1)
            res = solve_mean_payoff(ScalarGame(a, wts, pmax))
            expect = mp_value_oracle(a, wts, pmax)
            assert res.values == expect, (i, wts)
            _check_mp_strategies(a, wts, pmax, res)

    def test_strategies_hold_on_larger_games(self):
        # one side fixed to the returned strategy, the other exhausted
        rng = random.Random(77)
        for _ in range(25):
            a = random_arena(rng, max_n=6, max_deg=3)
            wts = [rng.randint(-3, 3) for _ in range(a.m)]
            res = solve_mean_payoff(ScalarGame(a, wts, 0))
            _check_mp_strategies(a, wts, 0, res)

    def test_zp_iteration_agrees(self):
        rng = random.Random(8)
        for _ in range(25):
            a = random_arena(rng, max_n=4, max_deg=2)
            wts = [rng.randint(-2, 2) for _ in range(a.m)]
            game = ScalarGame(a, wts, 0)
            assert zp_value_iteration(game) == solve_mean_payoff(game).values


def _region_and_strategy(arena, wts, keeper, frozen_win, frozen_lose, f):
    """Region and lowest-index keeper strategy read from a finished measure."""
    top = arena.n * max(0, -min(wts)) + 1
    region = set(frozen_win) | {v for v in range(arena.n) if f[v] < top and v not in frozen_lose}
    strategy = {}
    for v in region:
        if arena.owner[v] != keeper or v in frozen_win:
            continue
        for k in arena.out_edges[v]:
            t = arena.edge_tgt[k]
            if t in frozen_win or (f[t] < top and f[t] - wts[k] <= f[v]):
                strategy[v] = k
                break
    return region, strategy


class CountingList(list):
    """A list that counts its item reads."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestEnergyRegion:
    def test_matches_one_vertex_lifting(self):
        # set lifting reaches the least progress measure of one-vertex lifting
        rng = random.Random(2019)
        for case in range(2400):
            n = rng.randint(2, 9)
            owner = [rng.randint(0, 1) for _ in range(n)]
            edges = []
            for v in range(n):
                for t in rng.sample(range(n), rng.randint(1, min(3, n))):
                    edges.append((v, t))
            a = Arena(n, owner, edges)
            W = 1000 if case % 25 == 0 else rng.choice((1, 3, 20))
            wts = [rng.randint(-W, W) for _ in edges]
            order = rng.sample(range(n), n)
            n_win, n_lose = rng.randint(0, n // 3), rng.randint(0, n // 3)
            frozen_win = set(order[:n_win])
            frozen_lose = set(order[n_win:n_win + n_lose])
            keeper = rng.randint(0, 1)
            case_args = (a, wts, keeper, frozen_win, frozen_lose)
            f = energy_measure_by_lifting(*case_args)
            assert _least_progress_measure(*case_args)[0] == f, (n, owner, edges, wts)
            assert energy_region(*case_args) == _region_and_strategy(*case_args, f)

    @pytest.mark.parametrize("K", [10**4, 10**5])
    def test_losing_cycles_cost_no_weight_steps(self, K):
        # keeper v0 -> v1 (+K); opponent v1 -> v0 (-(K+1)), v1 -> v2 (0);
        # v2 -> v2 (-1).  One-vertex lifting climbs to top = 3(K+1)+1 in
        # steps of one cycle weight; set lifting needs a few rounds
        a = Arena(3, [0, 1, 0], [(0, 1), (1, 0), (1, 2), (2, 2)])
        wts = [K, -(K + 1), 0, -1]
        a.out_edges = out_edges = CountingList(a.out_edges)
        a.in_edges = in_edges = CountingList(a.in_edges)
        region, strategy = energy_region(a, wts, 0)
        assert region == set() and strategy == {}
        assert out_edges.reads + in_edges.reads <= 10 * (a.n + a.m)


def _check_mp_strategies(a, wts, pmax, res):
    minv = [v for v in range(a.n) if a.owner[v] != pmax]
    maxv = [v for v in range(a.n) if a.owner[v] == pmax]
    for combo in itertools.product(*(a.out_edges[v] for v in minv)):
        choice = dict(zip(minv, combo))
        choice.update(res.strategy_max)
        for start in range(a.n):
            cur = start
            seen = {}
            path = []
            while cur not in seen:
                seen[cur] = len(path)
                path.append(cur)
                cur = a.edge_tgt[choice[cur]]
            cyc = path[seen[cur]:]
            mean = F(sum(wts[choice[v]] for v in cyc), len(cyc))
            assert mean >= res.values[start]
    for combo in itertools.product(*(a.out_edges[v] for v in maxv)):
        choice = dict(zip(maxv, combo))
        choice.update(res.strategy_min)
        for start in range(a.n):
            cur = start
            seen = {}
            path = []
            while cur not in seen:
                seen[cur] = len(path)
                path.append(cur)
                cur = a.edge_tgt[choice[cur]]
            cyc = path[seen[cur]:]
            mean = F(sum(wts[choice[v]] for v in cyc), len(cyc))
            assert mean <= res.values[start]


class TestDiscounted:
    def test_self_loop_fixpoint(self):
        a = Arena(1, [0], [(0, 0)])
        for lam in (F(1, 2), F(9, 10)):
            res = solve_discounted(ScalarGame(a, [F(7)], 0), lam)
            assert res.values == [F(7)]

    def test_g1_projection(self, g1):
        a = arena_of(g1)
        res = solve_discounted(ScalarGame(a, g1.w1, 0), F(1, 2))
        vals = {g1.vertices[i]: res.values[i] for i in range(g1.n)}
        assert vals["v0"] == F(2)
        assert vals["v2"] == F(3, 2)

    def test_all_zero(self):
        rng = random.Random(9)
        a = random_arena(rng)
        res = solve_discounted(ScalarGame(a, [F(0)] * a.m, 0), F(1, 3))
        assert all(v == 0 for v in res.values)

    def test_fixpoint_identity_random(self):
        rng = random.Random(10)
        for _ in range(40):
            a = random_arena(rng, max_n=5, max_deg=3)
            wts = [F(rng.randint(-3, 3)) for _ in range(a.m)]
            lam = rng.choice((F(1, 2), F(1, 3), F(9, 10)))
            game = ScalarGame(a, wts, rng.randint(0, 1))
            res = solve_discounted(game, lam)
            assert check_discounted_fixpoint(game, lam, res.values)

    def test_matches_profile_enumeration(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_arena(rng, max_n=4, max_deg=2)
            wts = [F(rng.randint(-2, 2)) for _ in range(a.m)]
            lam = F(1, 2)
            res = solve_discounted(ScalarGame(a, wts, 0), lam)
            expect = _disc_oracle(a, wts, 0, lam)
            assert res.values == expect


def _disc_oracle(a, wts, pmax, lam):
    maxv = [v for v in range(a.n) if a.owner[v] == pmax]
    minv = [v for v in range(a.n) if a.owner[v] != pmax]

    def value(choice, start):
        cur = start
        seen = {}
        path = []
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = a.edge_tgt[choice[cur]]
        k = seen[cur]
        cyc = path[k:]
        acc = F(0)
        power = F(1)
        for v in cyc:
            acc += power * wts[choice[v]]
            power *= lam
        v0 = (1 - lam) * acc / (1 - power)
        val = v0
        for v in reversed(path[:k]):
            val = (1 - lam) * wts[choice[v]] + lam * val
        return val

    out = []
    for start in range(a.n):
        best = None
        for cmax in itertools.product(*(a.out_edges[v] for v in maxv)):
            base = dict(zip(maxv, cmax))
            worst = None
            for cmin in itertools.product(*(a.out_edges[v] for v in minv)):
                choice = dict(base)
                choice.update(zip(minv, cmin))
                val = value(choice, start)
                if worst is None or val < worst:
                    worst = val
            if best is None or worst > best:
                best = worst
        out.append(best)
    return out


class TestStreett2:
    def test_trivial_pairs(self):
        rng = random.Random(12)
        a = random_arena(rng)
        allv = set(range(a.n))
        ok, wit = streett2_nonempty(a, (set(), allv), (set(), allv), 0)
        assert ok and wit is not None

    def test_empty_b_always_false(self):
        rng = random.Random(13)
        a = random_arena(rng)
        ok, wit = streett2_nonempty(a, (set(), set()), (set(), set(range(a.n))), 0)
        assert not ok and wit is None

    def test_against_lasso_enumeration(self):
        rng = random.Random(14)
        for _ in range(80):
            a = random_arena(rng, max_n=5, max_deg=2)
            allv = list(range(a.n))
            A1 = {v for v in allv if rng.random() < 0.25}
            B1 = {v for v in allv if rng.random() < 0.5}
            A2 = {v for v in allv if rng.random() < 0.25}
            B2 = {v for v in allv if rng.random() < 0.5}
            got, wit = streett2_nonempty(a, (A1, B1), (A2, B2), 0)
            expect = _streett_oracle(a, A1, B1, A2, B2, 0)
            assert got == expect
            if got:
                stem, cyc = wit
                cset = set(cyc)
                assert not (cset & A1) and not (cset & A2)
                assert cset & B1 and cset & B2
                seq = list(stem) + list(cyc) + [cyc[0]]
                assert seq[0] == 0
                for u, v in zip(seq, seq[1:]):
                    assert v in a.successors(u)


def _streett_oracle(a, A1, B1, A2, B2, start):
    # search all lassos with stem, cycle <= 8 steps
    def walk(path, depth):
        cur = path[-1]
        for k in a.out_edges[cur]:
            t = a.edge_tgt[k]
            if t in path:
                i = path.index(t)
                cyc = path[i:]
                cset = set(cyc)
                if not (cset & A1) and not (cset & A2) and (cset & B1) and (cset & B2):
                    return True
            elif depth < 8:
                if walk(path + [t], depth + 1):
                    return True
        return False

    return walk([start], 0)


class TestSplitArenaExamples:
    def test_attractor_on_g3_split(self):
        # the split arena pulls v2 into player 1's attractor toward the
        # low-second-weight intermediate vertices (via the edge to v3)
        from secgames.fixtures import game_g3
        from secgames.game import Measure
        from secgames.lex import build_split, make_view

        g = game_g3(Measure.INF)
        view = make_view(g, 1)
        split = build_split(view)
        targets = {
            split.n_orig + e
            for e in range(view.arena.m)
            if split.wb[e] <= 0
        }
        attr, strat = attractor(split.arena, 0, targets)
        assert g.index["v2"] in attr
        assert g.index["v4"] in attr
        v4 = g.index["v4"]
        chosen = split.arena.edge_tgt[strat[v4]]
        assert view.arena.edge_tgt[split.edge_of(chosen)] == g.index["v3"]

    def test_streett_g2_encoding_matches_lassos(self, g2):
        # eventually-always r1 >= 1 and infinitely-often r2 <= 1
        from secgames.lex import build_split, make_view

        view = make_view(g2, 1)
        split = build_split(view)
        n = split.n_orig
        a1 = {n + e for e in range(view.arena.m) if split.wa[e] < 1}
        b1 = set(range(split.arena.n))
        a2 = set()
        b2 = {n + e for e in range(view.arena.m) if split.wb[e] <= 1}
        got, wit = streett2_nonempty(split.arena, (a1, b1), (a2, b2), g2.index["v0"])
        # bounded-lasso reference on the original game
        from secgames.oracle import enumerate_lassos

        expect = False
        for lasso in enumerate_lassos(g2, "v0", max_stem=4, max_cycle=4):
            cyc = lasso.cycle_edges()
            if all(g2.weights[e][0] >= 1 for e in cyc) and any(
                g2.weights[e][1] <= 1 for e in cyc
            ):
                expect = True
        assert got == expect

    def test_parity_eight_vertices_vs_enumeration(self):
        rng = random.Random(88)
        for _ in range(15):
            a = random_arena(rng, max_n=8, max_deg=2)
            priority = [rng.randint(0, 3) for _ in range(a.n)]
            win0, win1, _, _ = solve_parity(a, priority)
            for v in range(a.n):
                expect = parity_winner_oracle(a, priority, v)
                assert (0 if v in win0 else 1) == expect
