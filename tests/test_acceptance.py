"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
each test also asserts its stated wall-clock budget.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import CORPUS_SEED, CORPUS_SIZE, with_measure
from secgames.constrained import ThresholdBox, decide_constrained_existence
from secgames.equilibrium import (
    check_secure_outcome,
    outcome_of_profile,
    synthesize_secure_eq,
)
from secgames.fixtures import game_g1, game_g2, game_g3
from secgames.game import (
    Lasso,
    Measure,
    PayoffPair,
    eval_lasso_payoff,
    lex_compare,
)
from secgames.graphs import Arena
from secgames.lex import scalarization_constant, solve_lex
from secgames.lp import LinearSystem, lp_feasible
from secgames.oracle import (
    corpus,
    enumerate_cycle_profiles,
    enumerate_positional,
    oracle_guarantee,
    oracle_lex_values,
)
from secgames.rational import ExtRational
from secgames.zerosum import (
    ScalarGame,
    check_discounted_fixpoint,
    solve_discounted,
    solve_mean_payoff,
)

F = Fraction


def pp(a, b):
    return PayoffPair(F(a), F(b))


def report(num, ok, text, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} ({elapsed:.2f}s / budget {budget}s) - {text}")
    assert ok
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def acceptance_corpus():
    return corpus(CORPUS_SEED, CORPUS_SIZE)


DISC_LAMBDAS = (F(1, 2), F(1, 3), F(9, 10))


def measure_variants():
    out = [
        (m, None)
        for m in (
            Measure.INF,
            Measure.SUP,
            Measure.LIMINF,
            Measure.LIMSUP,
            Measure.MPINF,
            Measure.MPSUP,
        )
    ]
    out += [(Measure.DISC, lam) for lam in DISC_LAMBDAS]
    return out


def test_criterion_1_g1_mpinf_values():
    start = time.time()
    g1 = game_g1()
    table = solve_lex(g1, 1)
    expected = {
        "v0": pp(4, 4),
        "v1": pp(4, 4),
        "v2": pp(3, 2),
        "v3": pp(4, 3),
        "v4": pp(3, 2),
    }
    ok = table.values == expected
    report(1, ok, "mean-payoff fixture values exact", time.time() - start, 1.0)


def test_criterion_2_g3_inf_values_and_nonuniformity():
    start = time.time()
    g3 = game_g3(Measure.INF)
    table = solve_lex(g3, 1)
    expected = {"v0": pp(2, 0), "v2": pp(2, 0), "v3": pp(2, 0), "v4": pp(3, 1)}
    ok = table.values == expected
    # every player-1 positional strategy fails to be optimal from both v0
    # and v4 simultaneously
    strategies = list(enumerate_positional(g3, 1))
    for strat in strategies:
        good_v0 = lex_compare(oracle_guarantee(g3, 1, strat, "v0"), pp(2, 0), 1) >= 0
        good_v4 = lex_compare(oracle_guarantee(g3, 1, strat, "v4"), pp(3, 1), 1) >= 0
        ok = ok and not (good_v0 and good_v4)
    report(
        2,
        ok,
        f"min-payoff fixture values exact; none of {len(strategies)} "
        "player-1 positional strategies optimal from both v0 and v4",
        time.time() - start,
        1.0,
    )


def test_criterion_3_g2_constrained_and_no_finite_witness():
    start = time.time()
    g2 = game_g2()
    inf = ExtRational.pos_inf()
    box = ThresholdBox((ExtRational(F(1)), ExtRational(F(1))), (inf, inf))
    exists = decide_constrained_existence(g2, "v0", box)
    profiles = enumerate_cycle_profiles(g2, "v0", 20)
    finite_witness = any(p.p1 >= 1 and p.p2 >= 1 for p in profiles)
    ok = exists and not finite_witness
    report(
        3,
        ok,
        "secure equilibrium above (1,1) exists but no lasso with cycle "
        "length <= 20 reaches it",
        time.time() - start,
        10.0,
    )


def test_criterion_4_oracle_equivalence(acceptance_corpus):
    start = time.time()
    games = acceptance_corpus
    assert len(games) >= 500
    checked = 0
    ok = True
    for g in games:
        for measure, lam in measure_variants():
            gm = with_measure(g, measure, discount=lam)
            for which in (1, 2):
                table = solve_lex(gm, which, need_strategies=False)
                oracle = oracle_lex_values(gm, which)
                ok = ok and oracle.determined and table.values == oracle.maxmin
                checked += 1
        if not ok:
            break
    report(
        4,
        ok,
        f"solver equals oracle minimax on {checked} solves over "
        f"{len(games)} games, max-min = min-max throughout",
        time.time() - start,
        300.0,
    )


def test_criterion_5_memory_bounds_and_deviations(acceptance_corpus):
    start = time.time()
    games = acceptance_corpus
    ok = True
    synths = 0
    for g in games:
        for measure, lam in measure_variants():
            if lam not in (None, F(1, 2)):
                continue  # one discount factor suffices for synthesis
            gm = with_measure(g, measure, discount=lam)
            v0 = gm.vertices[0]
            profile, outcome, payoff = synthesize_secure_eq(gm, v0)
            synths += 1
            if measure in (Measure.INF, Measure.SUP):
                bound = gm.n * len(gm.edges) ** 2 + 3
            else:
                bound = gm.n + 2
            for mach in (profile.strat1, profile.strat2):
                ok = ok and len(mach.reachable_states(gm, v0)) <= bound
            t1 = solve_lex(gm, 1, need_strategies=False)
            t2 = solve_lex(gm, 2, need_strategies=False)
            ok = ok and check_secure_outcome(gm, v0, outcome, (t1, t2))
            ok = ok and outcome_of_profile(gm, v0, profile) == outcome
            ok = ok and _no_profitable_positional_deviation(gm, v0, profile, payoff)
        if not ok:
            break
    report(
        5,
        ok,
        f"{synths} synthesized profiles: memory bounds hold, outcomes pass "
        "the security check, no positional deviation profits",
        time.time() - start,
        300.0,
    )


def _no_profitable_positional_deviation(game, v0, profile, payoff):
    for player in (1, 2):
        mach = profile.strat2 if player == 1 else profile.strat1
        for dev in enumerate_positional(game, player):
            state = mach.initial
            cur = v0
            seen = {}
            path = []
            while (cur, state) not in seen:
                seen[(cur, state)] = len(path)
                path.append(cur)
                if game.owner[cur] == player:
                    nxt = game.vertices[game.edge_tgt[dev[game.index[cur]]]]
                else:
                    nxt = mach.choose[(state, cur)]
                state = mach.delta[(state, cur)]
                cur = nxt
            k = seen[(cur, state)]
            lasso = Lasso(tuple(path[:k]), tuple(path[k:]))
            if lex_compare(eval_lasso_payoff(game, lasso), payoff, player) > 0:
                return False
    return True


def test_criterion_6_discounted_exactness(acceptance_corpus):
    start = time.time()
    ok = True
    # fixture table against the policy-iteration oracle values
    g = game_g1(Measure.DISC, discount=F(1, 2))
    table = solve_lex(g, 1)
    ok = ok and table.values == {
        "v0": pp(2, 2),
        "v1": pp(4, 4),
        "v2": pp(F(3, 2), 1),
        "v3": pp(4, 3),
        "v4": pp(3, 2),
    }
    # the optimality equations hold as exact rational identities everywhere
    rng = random.Random(61)
    count = 0
    for g in acceptance_corpus[:60]:
        arena = Arena(g.n, [o - 1 for o in g.owner_of], list(zip(g.edge_src, g.edge_tgt)))
        for lam in DISC_LAMBDAS:
            for comp in (g.w1, g.w2):
                game = ScalarGame(arena, list(comp), rng.randint(0, 1))
                res = solve_discounted(game, lam)
                ok = ok and check_discounted_fixpoint(game, lam, res.values)
                count += 1
    report(
        6,
        ok,
        f"fixture lexicographic table exact; optimality identities verified "
        f"on {count} discounted solves",
        time.time() - start,
        60.0,
    )


def test_criterion_7_strict_lp_suite():
    start = time.time()
    ok = True

    def run(strict, nonstrict, nvars):
        # LP variables are nonnegative: split each free x_i into x_i+ - x_i-
        sys_ = LinearSystem([f"x{i}{sign}" for sign in "+-" for i in range(nvars)])
        for c, b in strict:
            sys_.add_strict(list(c) + [-a for a in c], b)
        for c, b in nonstrict:
            sys_.add_nonstrict(list(c) + [-a for a in c], b)
        feas, wit = lp_feasible(sys_)
        if not feas:
            return feas, wit
        return feas, [wit[i] - wit[nvars + i] for i in range(nvars)]

    feas, wit = run([([1], 0)], [([1], 1)], 1)
    ok = ok and feas and wit[0] > 0 and wit[0] >= 1
    feas, _ = run([([1], 0)], [([-1], 0)], 1)
    ok = ok and not feas
    feas, _ = run([([1, 1], 1)], [([-1, 0], F(-1, 2)), ([0, -1], F(-1, 2))], 2)
    ok = ok and not feas
    # random nonstrict systems against exact Fourier-Motzkin elimination
    from test_lp import fourier_motzkin

    rng = random.Random(83)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        rows = [
            ([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-4, 4))
            for _ in range(rng.randint(1, 5))
        ]
        feas, _ = run([], rows, nvars)
        ok = ok and feas == fourier_motzkin([], rows, nvars)
    report(7, ok, "strict-relaxation LP decides the unit suite and matches "
           "exact elimination on random systems", time.time() - start, 10.0)


def test_criterion_8_scalarization_monotonicity():
    start = time.time()
    rng = random.Random(271)
    n = 5
    w2max = 2
    w1max = 2
    m = scalarization_constant(n, w2max)
    violations = 0
    for _ in range(10_000):
        n1, n2 = rng.randint(1, n), rng.randint(1, n)
        a1, a2 = rng.randint(0, w1max * n1), rng.randint(0, w1max * n2)
        b1, b2 = rng.randint(0, w2max * n1), rng.randint(0, w2max * n2)
        lex = lex_compare(
            pp(F(a1, n1), F(b1, n1)), pp(F(a2, n2), F(b2, n2)), which=1
        )
        s1, s2 = F(a1 * m - b1, n1), F(a2 * m - b2, n2)
        scal = (s1 > s2) - (s1 < s2)
        if lex != scal:
            violations += 1
    report(
        8,
        violations == 0,
        "lexicographic order of 10^4 random cycle-mean pairs matches the "
        "scalarized order exactly",
        time.time() - start,
        30.0,
    )


def test_runtime_ladder_smoke():
    """The growth ladder, polynomial solvers over |V| and pseudo-polynomial
    ones over the weight magnitude, with every answer checked: a liminf value
    pairs a first and a second weight of the game, and a mean-payoff value is
    the mean of the cycle its vertex reaches under the two returned
    strategies."""
    rng = random.Random(5)

    def ladder_game(n, wmax, measure):
        names = [f"v{i}" for i in range(n)]
        owners = {names[i]: rng.choice((1, 2)) for i in range(n)}
        edges = []
        weights = {}
        for i in range(n):
            for t in rng.sample(range(n), 2):
                e = (names[i], names[t])
                if e in weights:
                    continue
                edges.append(e)
                weights[e] = (F(rng.randint(0, wmax)), F(rng.randint(0, wmax)))
        from secgames.game import WeightedGame

        return WeightedGame(names, owners, edges, weights, measure, measure)

    for n in (10, 20, 40):
        g = ladder_game(n, 3, Measure.LIMINF)
        table = solve_lex(g, 1, need_strategies=False)
        firsts = {w1 for w1, _w2 in g.weights.values()}
        seconds = {w2 for _w1, w2 in g.weights.values()}
        for v, pair in table.values.items():
            assert pair.p1 in firsts and pair.p2 in seconds, (n, v, pair)
    for wmax in (10, 100, 1000):
        n = 10
        owner = [rng.randint(0, 1) for _ in range(n)]
        edges = []
        for v in range(n):
            for t in rng.sample(range(n), 2):
                edges.append((v, t))
        arena = Arena(n, owner, edges)
        wts = [rng.randint(-wmax, wmax) for _ in range(arena.m)]
        result = solve_mean_payoff(ScalarGame(arena, wts, 0))
        choice = {**result.strategy_max, **result.strategy_min}
        for v in range(n):
            walk = []
            cur = v
            while cur not in walk:
                walk.append(cur)
                cur = arena.edge_tgt[choice[cur]]
            cycle = walk[walk.index(cur) :]
            mean = F(sum(wts[choice[u]] for u in cycle), len(cycle))
            assert result.values[v] == mean, (wmax, v)
