import math
import random
from fractions import Fraction

import pytest

from secgames.errors import InvalidLassoError
from secgames.fixtures import game_g1, game_g3
from secgames.game import (
    Lasso,
    Measure,
    PayoffPair,
    WeightedGame,
    denormalize_value,
    eval_lasso_payoff,
    lex_compare,
    normalize_weights,
    validate_game,
)

F = Fraction


def pp(a, b):
    return PayoffPair(F(a), F(b))


class TestLexCompare:
    def test_first_component_dominates(self):
        assert lex_compare(pp(3, 2), pp(4, 3), which=1) == -1
        assert lex_compare(pp(3, 2), pp(4, 3), which=2) == -1

    def test_reversed_second_component(self):
        # (4, 4) is below (4, 3) for player 1: same own payoff, higher
        # opponent payoff
        assert lex_compare(pp(4, 4), pp(4, 3), which=1) == -1
        assert lex_compare(pp(4, 3), pp(4, 4), which=1) == 1

    def test_reflexive(self):
        assert lex_compare(pp(7, -2), pp(7, -2), which=1) == 0
        assert lex_compare(pp(7, -2), pp(7, -2), which=2) == 0

    def test_total_order_on_samples(self):
        rng = random.Random(7)
        pairs = [pp(rng.randint(-3, 3), F(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(40)]
        for which in (1, 2):
            for x in pairs:
                for y in pairs:
                    cxy = lex_compare(x, y, which)
                    cyx = lex_compare(y, x, which)
                    assert cxy == -cyx  # antisymmetry / totality
                    for z in pairs:
                        if cxy <= 0 and lex_compare(y, z, which) <= 0:
                            assert lex_compare(x, z, which) <= 0  # transitivity


class TestLassoPayoffs:
    def test_g1_main_loop_mean(self, g1):
        lasso = Lasso(("v0",), ("v1",))
        assert eval_lasso_payoff(g1, lasso) == pp(4, 4)

    def test_g3_inf_play(self):
        g = game_g3(Measure.INF)
        lasso = Lasso(("v0", "v2"), ("v4",))
        assert eval_lasso_payoff(g, lasso) == pp(2, 1)

    def test_discounted_constant_loop(self):
        g = game_g1(Measure.DISC, discount=F(1, 3))
        lasso = Lasso((), ("v1",))
        assert eval_lasso_payoff(g, lasso) == pp(4, 4)

    def test_invalid_lasso_rejected(self, g1):
        with pytest.raises(InvalidLassoError):
            eval_lasso_payoff(g1, Lasso(("v0",), ("v3",)))

    def test_prefix_independent_measures_ignore_stem(self):
        for measure in (Measure.LIMINF, Measure.LIMSUP, Measure.MPINF, Measure.MPSUP):
            g = game_g1(measure)
            short = Lasso(("v0", "v2"), ("v4",))
            long = Lasso(("v0", "v2", "v4", "v4"), ("v4",))
            assert eval_lasso_payoff(g, short) == eval_lasso_payoff(g, long)

    def test_unrolling_never_changes_payoff(self):
        rng = random.Random(3)
        from secgames.oracle import random_game

        for measure in Measure:
            for _ in range(15):
                g = random_game(rng, measure=measure, discount=F(2, 5))
                lasso = _random_lasso(rng, g)
                base = eval_lasso_payoff(g, lasso)
                for k in (1, 2, 3):
                    assert eval_lasso_payoff(g, lasso.unrolled(k)) == base

    def test_discounted_prefix_linear_recurrence(self):
        rng = random.Random(11)
        from secgames.oracle import random_game

        for _ in range(25):
            g = random_game(rng, measure=Measure.DISC, discount=F(1, 2))
            lasso = _random_lasso(rng, g)
            if not lasso.stem:
                continue
            lam = g.discount
            tail = eval_lasso_payoff(g, lasso.suffix(len(lasso.stem)))
            full = eval_lasso_payoff(g, lasso)
            acc1 = acc2 = F(0)
            power = F(1)
            for u, v in lasso.stem_edges():
                w1, w2 = g.weights[(u, v)]
                acc1 += power * w1
                acc2 += power * w2
                power *= lam
            assert full.p1 == (1 - lam) * acc1 + power * tail.p1
            assert full.p2 == (1 - lam) * acc2 + power * tail.p2

    @pytest.mark.parametrize("lam,eps_exp", [(F(1, 2), 9), (F(9, 10), 6)])
    def test_discounted_matches_truncated_series(self, lam, eps_exp):
        rng = random.Random(5)
        from secgames.oracle import random_game

        eps = F(1, 10**eps_exp)
        for _ in range(3):
            g = random_game(rng, measure=Measure.DISC, discount=lam)
            lasso = _random_lasso(rng, g)
            exact = eval_lasso_payoff(g, lasso)
            terms = 10 * g.n * math.ceil(
                math.log(10**eps_exp) / math.log(1 / float(lam))
            )
            seq = list(lasso.stem_edges()) + lasso.cycle_edges() * (
                terms // max(1, len(lasso.cycle)) + 1
            )
            approx1 = _truncated_disc(g, seq[:terms], lam, comp=0)
            approx2 = _truncated_disc(g, seq[:terms], lam, comp=1)
            assert abs(exact.p1 - approx1) <= eps
            assert abs(exact.p2 - approx2) <= eps


def _truncated_disc(game, edge_seq, lam, comp):
    # (1-lam) * sum_i w_i lam^i computed over a common denominator so the
    # partial sums stay integer-cheap
    a, b = lam.numerator, lam.denominator
    ws = [game.weights[e][comp] for e in edge_seq]
    den = 1
    for w in ws:
        den = den * w.denominator // math.gcd(den, w.denominator)
    coeffs = [int(w * den) for w in ws]
    T = len(coeffs)
    acc = 0
    bpow = 1
    # N_j = c_j b^{T-1-j} + a * N_{j+1}, evaluated from the tail
    for j in range(T - 1, -1, -1):
        acc = coeffs[j] * bpow + a * acc if j < T - 1 else coeffs[j]
        if j > 0:
            bpow *= b
    return F((b - a) * acc, b * den * b ** (T - 1))



def _random_lasso(rng, game):
    v = rng.randrange(game.n)
    path = [v]
    for _ in range(rng.randint(0, 2 * game.n)):
        k = rng.choice(game.out_edges[path[-1]])
        path.append(game.edge_tgt[k])
    # walk until a repeat to close a cycle deterministically
    seen = {}
    cur = path[-1]
    tail = []
    while cur not in seen:
        seen[cur] = len(tail)
        tail.append(cur)
        cur = game.edge_tgt[game.out_edges[cur][rng.randrange(len(game.out_edges[cur]))]]
    k = seen[cur]
    stem = path[:-1] + tail[:k]
    cycle = tail[k:]
    return Lasso(
        tuple(game.vertices[x] for x in stem),
        tuple(game.vertices[x] for x in cycle),
    )


class TestNormalization:
    def test_already_natural_is_identity(self, g1):
        gn, info = normalize_weights(g1)
        assert info.is_identity
        assert gn.weights == g1.weights

    def test_half_integers(self):
        g = WeightedGame(
            ["a"],
            {"a": 1},
            [("a", "a"), ("a", "a")][:1],
            {("a", "a"): (F(-1, 2), F(3, 2))},
            Measure.MPINF,
            Measure.MPINF,
        )
        gn, info = normalize_weights(g)
        assert info.b_star == 2 and info.a_star == -1
        assert gn.weights[("a", "a")] == (F(1), F(5))
        # w -> 2w + 2
        assert info.to_original(F(5)) == F(3, 2)
        assert info.to_original(F(1)) == F(-1, 2)

    def test_zero_maps_to_zero_when_no_negatives(self):
        g = WeightedGame(
            ["a"],
            {"a": 1},
            [("a", "a")],
            {("a", "a"): (F(0), F(2))},
            Measure.MPINF,
            Measure.MPINF,
        )
        gn, info = normalize_weights(g)
        assert gn.weights[("a", "a")][0] == 0

    def test_roundtrip_on_lasso_payoffs(self):
        rng = random.Random(23)
        from secgames.oracle import random_game

        for measure in Measure:
            for _ in range(10):
                g = random_game(
                    rng,
                    weight_alphabet=(F(-1, 2), 0, F(3, 4), 2),
                    measure=measure,
                    discount=F(1, 2),
                )
                gn, info = normalize_weights(g)
                lasso = _random_lasso(rng, g)
                orig = eval_lasso_payoff(g, lasso)
                norm = eval_lasso_payoff(gn, lasso)
                back = denormalize_value(norm, info)
                assert back == orig
                for pair in gn.weights.values():
                    assert pair[0].denominator == 1 and pair[0] >= 0
                    assert pair[1].denominator == 1 and pair[1] >= 0


class TestValidate:
    def test_g1_valid(self, g1):
        assert validate_game(g1) == []

    def test_deadlock_reported(self):
        g = WeightedGame(
            ["a", "b"],
            {"a": 1, "b": 2},
            [("a", "b")],
            {("a", "b"): (F(0), F(0))},
            Measure.MPINF,
            Measure.MPINF,
        )
        codes = [v.code for v in validate_game(g)]
        assert "deadlock" in codes

    def test_discount_out_of_range(self):
        g = WeightedGame(
            ["a"],
            {"a": 1},
            [("a", "a")],
            {("a", "a"): (F(0), F(0))},
            Measure.DISC,
            Measure.DISC,
            discount=F(1),
        )
        codes = [v.code for v in validate_game(g)]
        assert "discount" in codes
