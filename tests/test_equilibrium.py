from fractions import Fraction

import pytest

from conftest import measures_all, with_measure
from secgames.equilibrium import (
    MealyStrategy,
    StrategyProfile,
    check_secure_outcome,
    outcome_of_profile,
    synthesize_secure_eq,
    verify_profile_secure,
)
from secgames.errors import MeasureCombinationError
from secgames.game import Lasso, Measure, PayoffPair, eval_lasso_payoff, lex_compare
from secgames.lex import solve_lex
from secgames.oracle import enumerate_positional

F = Fraction


def pp(a, b):
    return PayoffPair(F(a), F(b))


class TestSynthesisG1:
    def test_outcome_and_payoff(self, g1):
        profile, outcome, payoff = synthesize_secure_eq(g1, "v0")
        assert outcome == Lasso(("v0",), ("v1",))
        assert payoff == pp(4, 4)

    def test_memory_bound(self, g1):
        profile, _, _ = synthesize_secure_eq(g1, "v0")
        for mach in (profile.strat1, profile.strat2):
            assert len(mach.reachable_states(g1, "v0")) <= g1.n + 2

    def test_punishment_after_deviation(self, g1):
        profile, _, _ = synthesize_secure_eq(g1, "v0")
        m2 = profile.strat2
        # player 1 deviates at v0 toward v2: machine 2 must then play v2->v4
        # forever
        s = m2.delta[(m2.initial, "v0")]  # on track after v0
        assert m2.choose[(s, "v2")] == "v4"  # deviation seen at v2
        s = m2.delta[(s, "v2")]  # punish state entered
        # the punish state is absorbing, so v2 is answered with v4 forever
        for v in g1.vertices:
            assert m2.delta[(s, v)] == s
        assert m2.choose[(s, "v2")] == "v4"

    def test_profile_outcome_simulation(self, g1):
        profile, outcome, _ = synthesize_secure_eq(g1, "v0")
        assert outcome_of_profile(g1, "v0", profile) == outcome

    def test_verify_synthesized(self, g1):
        profile, _, _ = synthesize_secure_eq(g1, "v0")
        assert verify_profile_secure(g1, "v0", profile)


class TestCheckSecureOutcome:
    def test_g1_main_outcome_true(self, g1):
        tables = (solve_lex(g1, 1, False), solve_lex(g1, 2, False))
        assert check_secure_outcome(g1, "v0", Lasso(("v0",), ("v1",)), tables)

    def test_g1_bottom_outcome_false(self, g1):
        tables = (solve_lex(g1, 1, False), solve_lex(g1, 2, False))
        # payoff (3,2) but Val1(v0) = (4,4) is strictly better for player 1
        assert not check_secure_outcome(
            g1, "v0", Lasso(("v0", "v2"), ("v4",)), tables
        )

    def test_invariant_under_unrolling(self, g1):
        tables = (solve_lex(g1, 1, False), solve_lex(g1, 2, False))
        base = Lasso(("v0",), ("v1",))
        for k in (1, 2, 3):
            assert check_secure_outcome(g1, "v0", base.unrolled(k), tables)

    def test_nash_but_not_secure_profile_has_secure_outcome(self, g1):
        # the profile (player 1 -> v1, player 2 -> v3) is Nash but not secure;
        # its outcome v0 (v1)^w nevertheless passes the outcome test, which is
        # exactly what the characterization decides
        m1 = _const_machine(g1, 1, {"v0": "v1", "v1": "v1", "v3": "v3", "v4": "v4"})
        m2 = _const_machine(g1, 2, {"v2": "v3"})
        assert verify_profile_secure(g1, "v0", StrategyProfile(m1, m2))

    def test_worst_loop_profile_rejected(self, g1):
        m1 = _const_machine(g1, 1, {"v0": "v2", "v1": "v1", "v3": "v3", "v4": "v4"})
        m2 = _const_machine(g1, 2, {"v2": "v4"})
        assert not verify_profile_secure(g1, "v0", StrategyProfile(m1, m2))

    def test_disc_compares_suffix_payoffs(self):
        # v0 (v1)^w pays (5, 5) in total, but from v1 on it pays (0, 0),
        # below Val1(v1) = (2, 0): player 1 would leave for v3
        from secgames.game import WeightedGame

        edges = {
            ("v0", "v1"): (10, 10),
            ("v0", "v2"): (0, -1),
            ("v2", "v2"): (0, -1),
            ("v1", "v1"): (0, 0),
            ("v1", "v3"): (2, 0),
            ("v3", "v3"): (2, 0),
        }
        game = WeightedGame(
            ["v0", "v1", "v2", "v3"],
            {"v0": 2, "v1": 1, "v2": 1, "v3": 1},
            list(edges),
            {e: (F(a), F(b)) for e, (a, b) in edges.items()},
            Measure.DISC,
            Measure.DISC,
            F(1, 2),
        )
        tables = (solve_lex(game, 1, False), solve_lex(game, 2, False))
        play = Lasso(("v0",), ("v1",))
        total = eval_lasso_payoff(game, play)
        assert total == pp(5, 5)
        assert tables[0].value("v1") == pp(2, 0)
        # the whole play's payoff beats every value along it
        for which, table in zip((1, 2), tables):
            for v in ("v0", "v1"):
                assert lex_compare(table.value(v), total, which) <= 0
        assert not check_secure_outcome(game, "v0", play, tables)


def _const_machine(game, player, choices):
    delta = {}
    choose = {}
    for v in game.vertices:
        delta[(0, v)] = 0
        if game.owner[v] == player:
            choose[(0, v)] = choices[v]
    return MealyStrategy(player, ["s0"], 0, delta, choose)


LAMBDAS = {Measure.DISC: F(1, 2)}


class TestSynthesisAcrossMeasures:
    def test_small_corpus_all_measures(self, small_corpus):
        for g in small_corpus[:12]:
            for measure in measures_all():
                gm = with_measure(g, measure, discount=LAMBDAS.get(measure))
                v0 = gm.vertices[0]
                profile, outcome, payoff = synthesize_secure_eq(gm, v0)
                assert eval_lasso_payoff(gm, outcome) == payoff
                # one state set and update table serve both machines
                assert profile.strat1.states is profile.strat2.states
                assert profile.strat1.delta is profile.strat2.delta
                t1 = solve_lex(gm, 1, need_strategies=False)
                t2 = solve_lex(gm, 2, need_strategies=False)
                assert check_secure_outcome(gm, v0, outcome, (t1, t2)), (
                    measure,
                    outcome,
                )
                assert outcome_of_profile(gm, v0, profile) == outcome
                _assert_no_profitable_positional_deviation(gm, v0, profile, payoff)
                if measure not in (Measure.INF, Measure.SUP):
                    # no extreme tracked: one state per lasso position and a
                    # single absorbing punish state
                    k = len(outcome.stem) + len(outcome.cycle)
                    states = profile.strat1.states
                    assert states == ["start"] + [f"track{l}" for l in range(k)] + ["punish"]
                    assert profile.strat1.state_count() == k + 2
                    punish = k + 1
                    for (state, _v), target in profile.strat1.delta.items():
                        assert state != punish or target == punish

    def test_memory_bounds_on_corpus(self, small_corpus):
        for g in small_corpus[:12]:
            for measure in measures_all():
                gm = with_measure(g, measure, discount=LAMBDAS.get(measure))
                v0 = gm.vertices[0]
                profile, _, _ = synthesize_secure_eq(gm, v0)
                if measure in (Measure.INF, Measure.SUP):
                    bound = gm.n * len(gm.edges) ** 2 + 3
                else:
                    bound = gm.n + 2
                for mach in (profile.strat1, profile.strat2):
                    assert len(mach.reachable_states(gm, v0)) <= bound


def _assert_no_profitable_positional_deviation(game, v0, profile, payoff):
    for player in (1, 2):
        mach_other = profile.strat2 if player == 1 else profile.strat1
        for dev in enumerate_positional(game, player):
            lasso = _simulate_positional_vs_machine(game, v0, player, dev, mach_other)
            got = eval_lasso_payoff(game, lasso)
            assert lex_compare(got, payoff, player) <= 0, (player, dev, lasso)


def _simulate_positional_vs_machine(game, v0, player, dev, mach):
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
    return Lasso(tuple(path[:k]), tuple(path[k:]))


class TestOneVertexGame:
    def test_no_deviation_no_punish_state(self):
        # every vertex read is the expected one, so no row leads to punishing
        from secgames.game import WeightedGame

        game = WeightedGame(
            ["v0"],
            {"v0": 1},
            [("v0", "v0")],
            {("v0", "v0"): (F(1), F(2))},
            Measure.MPINF,
            Measure.MPINF,
        )
        profile, outcome, payoff = synthesize_secure_eq(game, "v0")
        assert outcome == Lasso((), ("v0",)) and payoff == pp(1, 2)
        assert profile.strat1.states == ["start", "track0"]


class TestMixedMeasureSynthesis:
    def test_min_family_mix(self, small_corpus):
        from secgames.game import WeightedGame

        for g in small_corpus[:6]:
            gm = WeightedGame(
                g.vertices, g.owner, g.edges, g.weights, Measure.INF, Measure.LIMINF
            )
            v0 = gm.vertices[0]
            profile, outcome, payoff = synthesize_secure_eq(gm, v0)
            assert eval_lasso_payoff(gm, outcome) == payoff
            _assert_no_profitable_positional_deviation(gm, v0, profile, payoff)

    def test_unsupported_mix_rejected(self, g1):
        from secgames.game import WeightedGame

        gm = WeightedGame(
            g1.vertices, g1.owner, g1.edges, g1.weights, Measure.MPINF, Measure.SUP
        )
        with pytest.raises(MeasureCombinationError):
            synthesize_secure_eq(gm, "v0")


class TestProductBound:
    def test_outcome_length_bounded_by_product(self, g1):
        profile, outcome, _ = synthesize_secure_eq(g1, "v0")
        total = len(outcome.stem) + len(outcome.cycle)
        bound = g1.n * profile.strat1.state_count() * profile.strat2.state_count()
        assert total <= bound
