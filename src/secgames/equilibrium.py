"""Secure-equilibrium synthesis and verification.

Synthesis follows the punishment construction: both players follow the
outcome of the two optimal strategies; the first player to leave it is
punished forever with the opponent's optimal counter-strategy from the other
lexicographic game.  Machines are Mealy automata whose on-track states
remember the position along the outcome lasso.

For min/max (inf/sup) measures both players solve one running-extremes
arena (`lex.augment_view`); machines carry the extremes through their
punish states so the arena's positional strategies stay playable.  The
arena, the machines and the outcome check advance the extremes through one
update, `lex.extremes_update`.  The two machines of a profile share their
states and update table and differ only in their choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, MeasureCombinationError
from .game import (
    Lasso,
    Measure,
    WeightedGame,
    eval_lasso_payoff,
    lex_le,
    require_valid,
)
from .lex import (
    LexValueTable,
    augment_view,
    extremes_update,
    make_view,
    solve_lex,
    _solve_lex_liminf_view,
)


@dataclass
class MealyStrategy:
    """Finite strategy automaton (states, initial, update, choice)."""

    player: int
    states: list[str]
    initial: int
    delta: dict[tuple[int, str], int]
    choose: dict[tuple[int, str], str]

    def state_count(self) -> int:
        return len(self.states)

    def choice(self, state: int, vertex: str) -> str:
        return self.choose[(state, vertex)]

    def reachable_states(self, game: WeightedGame, v0: str) -> set[int]:
        """States reachable along plays consistent with this machine (the
        owner follows it, the opponent moves freely).

        Product pairs are (state after the history excluding the current
        vertex, current vertex), matching how the choice function is read.
        """
        start = (self.initial, v0)
        seen = {start}
        frontier = [start]
        reached = {self.initial}
        while frontier:
            m, v = frontier.pop()
            if game.owner[v] == self.player:
                succs = [self.choose[(m, v)]]
            else:
                succs = [
                    game.vertices[game.edge_tgt[k]]
                    for k in game.out_edges[game.index[v]]
                ]
            m2 = self.delta[(m, v)]
            reached.add(m2)
            for v2 in succs:
                if (m2, v2) not in seen:
                    seen.add((m2, v2))
                    frontier.append((m2, v2))
        return reached


@dataclass
class StrategyProfile:
    strat1: MealyStrategy
    strat2: MealyStrategy


def _lasso_positions(lasso: Lasso):
    rho = list(lasso.stem) + list(lasso.cycle)
    wrap = len(lasso.stem)
    def succ(l):
        return l + 1 if l + 1 < len(rho) else wrap
    return rho, succ


def _track_machines(game: WeightedGame, lasso: Lasso, punish: dict[int, dict[str, str]]):
    """Both players' Mealy machines: follow the lasso, else punish the
    deviator forever.  The machines share their states and update table.

    punish[p] gives player p's punishment successor at each of its vertices.
    """
    rho, succ = _lasso_positions(lasso)
    n = len(rho)
    states = ["start"] + [f"track{l}" for l in range(n)] + ["punish"]
    START, PUNISH = 0, n + 1
    delta = {}
    choose: dict[int, dict] = {1: {}, 2: {}}
    for m in range(n + 2):
        # lasso position the play is expected at, none once punishing
        pos = None if m == PUNISH else 0 if m == START else succ(m - 1)
        for v in game.vertices:
            player = game.owner[v]
            if pos is not None and v == rho[pos]:
                delta[(m, v)] = 1 + pos
                choose[player][(m, v)] = rho[succ(pos)]
            else:
                delta[(m, v)] = PUNISH
                choose[player][(m, v)] = punish[player][v]
    return tuple(MealyStrategy(p, states, START, delta, choose[p]) for p in (1, 2))


def _aug_track_machines(game: WeightedGame, rho: list[tuple], wrap: int, punish_next, step):
    """Both players' machines over an extreme-tracking play: on-track states
    follow the lifted lasso rho (cycle from position `wrap`); punish states
    carry the current running-extremes state.  The machines share their
    states and update table.

    punish_next[p] maps a running-extremes state at a vertex of player p to
    its punishment successor name; step(state, vertex) reads `vertex`.
    """
    n = len(rho)

    def succ(l):
        return l + 1 if l + 1 < n else wrap

    labels = ["start"] + [f"track{l}" for l in range(n)]
    semantics: list[tuple] = [("start",)] + [("track", l) for l in range(n)]
    index = {s: i for i, s in enumerate(semantics)}

    def intern(sem):
        if sem not in index:
            index[sem] = len(semantics)
            semantics.append(sem)
            v, e1, e2 = sem[1]
            labels.append(f"punish|{game.vertices[v]}|{e1}|{e2}")
        return index[sem]

    delta = {}
    choose: dict[int, dict] = {1: {}, 2: {}}
    qi = 0
    while qi < len(semantics):
        mi = qi
        qi += 1
        sem = semantics[mi]
        for vi, v in enumerate(game.vertices):
            if sem[0] == "start":
                base, expect_pos = (vi, None, None), 0
            elif sem[0] == "track":
                base, expect_pos = rho[sem[1]], succ(sem[1])
            else:
                base, expect_pos = sem[1], None
            player = game.owner[v]
            if expect_pos is not None and vi == rho[expect_pos][0]:
                delta[(mi, v)] = intern(("track", expect_pos))
                choose[player][(mi, v)] = game.vertices[rho[succ(expect_pos)][0]]
            else:
                ni = intern(("punish", step(base, v)))
                delta[(mi, v)] = ni
                choose[player][(mi, v)] = punish_next[player](semantics[ni][1])
    return tuple(MealyStrategy(p, labels, 0, delta, choose[p]) for p in (1, 2))


# ---------------------------------------------------------------------------


def _measure_route(game: WeightedGame) -> str:
    m1, m2 = game.measure1, game.measure2
    direct = {
        (Measure.MPINF, Measure.MPINF),
        (Measure.MPSUP, Measure.MPSUP),
        (Measure.LIMINF, Measure.LIMINF),
        (Measure.LIMSUP, Measure.LIMSUP),
        (Measure.DISC, Measure.DISC),
    }
    if (m1, m2) in direct:
        return "direct"
    fam = {Measure.INF: "min", Measure.LIMINF: "min", Measure.SUP: "max", Measure.LIMSUP: "max"}
    if m1 in fam and m2 in fam and fam[m1] == fam[m2]:
        return "augmented"
    raise MeasureCombinationError(f"unsupported measure combination ({m1}, {m2})")


def synthesize_secure_eq(game: WeightedGame, v0: str):
    """Build a finite-memory secure equilibrium from v0.

    Returns (profile, outcome lasso, payoff).  The reachable memory of each
    machine is checked against |V|+2, or |V|*|E|^2+3 when running through
    the augmented arena.
    """
    require_valid(game)
    route = _measure_route(game)
    if route == "direct":
        profile, outcome, payoff = _synthesize_direct(game, v0)
        bound = game.n + 2
    else:
        profile, outcome, payoff = _synthesize_augmented(game, v0)
        bound = game.n * len(game.edges) ** 2 + 3
    for mach in (profile.strat1, profile.strat2):
        reach = mach.reachable_states(game, v0)
        if len(reach) > bound:
            raise InternalError(f"reachable memory {len(reach)} exceeds the bound {bound}")
    return profile, outcome, payoff


def _synthesize_direct(game: WeightedGame, v0: str):
    t1 = solve_lex(game, 1)
    t2 = solve_lex(game, 2)
    s1 = t1.strategy_max()
    s2 = t2.strategy_max()
    punish1 = t2.strategy_min()  # player 1 punishing player 2
    punish2 = t1.strategy_min()  # player 2 punishing player 1
    choice = dict(s1)
    choice.update(s2)
    outcome = _walk_names(game, choice, v0)
    payoff = eval_lasso_payoff(game, outcome)
    m1, m2 = _track_machines(game, outcome, {1: punish1, 2: punish2})
    return StrategyProfile(m1, m2), outcome, payoff


def _walk_names(game: WeightedGame, choice: dict[str, str], v0: str) -> Lasso:
    seen = {}
    path = []
    cur = v0
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = choice[cur]
    k = seen[cur]
    return Lasso(tuple(path[:k]), tuple(path[k:])).canonical()


def _extremes_step(game: WeightedGame):
    """step(state, v): the running-extremes state (vertex index, extreme 1,
    extreme 2) after reading vertex name v; reading a vertex that is not a
    successor keeps the extremes."""
    advance = extremes_update(game)

    def step(state, v):
        u, e1, e2 = state
        w = game.weights.get((game.vertices[u], v))
        if w is None:
            return (game.index[v], e1, e2)
        return (game.index[v], *advance(e1, e2, *w))

    return step


def _synthesize_augmented(game: WeightedGame, v0: str):
    # both players solve one running-extremes arena, a liminf/limsup game
    # whose uniform positional strategies come from one threshold bisection
    # per player (`lex._solve_lex_liminf_view`)
    aug = augment_view(game, [game.index[v0]])

    def as_map(strat):
        return {
            aug.states[si]: game.vertices[aug.states[aug.edge_tgt[k]][0]]
            for si, k in strat.items()
        }

    strategies = {}
    for which in (1, 2):
        _values, sp, sa = _solve_lex_liminf_view(make_view(aug, which), True)
        strategies[which] = (as_map(sp), as_map(sa))
    (s1, punish2), (s2, punish1) = strategies[1], strategies[2]
    step = _extremes_step(game)

    # outcome of the two protagonist strategies
    cur = (game.index[v0], None, None)
    seen = {}
    path = []
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        nxt = s1[cur] if game.owner_of[cur[0]] == 1 else s2[cur]
        cur = step(cur, nxt)
    wrap = seen[cur]
    outcome = Lasso(
        tuple(game.vertices[s[0]] for s in path[:wrap]),
        tuple(game.vertices[s[0]] for s in path[wrap:]),
    ).canonical()
    payoff = eval_lasso_payoff(game, outcome)

    def fallback(strat):
        def f(state):
            if state in strat:
                return strat[state]
            return game.vertices[game.edge_tgt[game.out_edges[state[0]][0]]]
        return f

    m1, m2 = _aug_track_machines(
        game, path, wrap, {1: fallback(punish1), 2: fallback(punish2)}, step
    )
    return StrategyProfile(m1, m2), outcome, payoff


# ---------------------------------------------------------------------------
# outcome computation and the outcome characterization check


def outcome_of_profile(game: WeightedGame, v0: str, profile: StrategyProfile) -> Lasso:
    """Simulate both machines until the product state repeats.

    Machine states trail the play by one vertex: the choice at the current
    vertex is read before feeding that vertex into the update functions.
    """
    m1 = profile.strat1
    m2 = profile.strat2
    s1 = m1.initial
    s2 = m2.initial
    cur = v0
    seen = {}
    path = []
    while (cur, s1, s2) not in seen:
        seen[(cur, s1, s2)] = len(path)
        path.append(cur)
        if game.owner[cur] == 1:
            nxt = m1.choose[(s1, cur)]
        else:
            nxt = m2.choose[(s2, cur)]
        s1 = m1.delta[(s1, cur)]
        s2 = m2.delta[(s2, cur)]
        cur = nxt
    k = seen[(cur, s1, s2)]
    return Lasso(tuple(path[:k]), tuple(path[k:])).canonical()


def check_secure_outcome(
    game: WeightedGame,
    v0: str,
    lasso: Lasso,
    tables: tuple[LexValueTable, LexValueTable],
) -> bool:
    """Is this play the outcome of some secure equilibrium?

    Checks, at every stem position and one full cycle round, that no player's
    lexicographic value at the visited vertex beats the suffix payoff.  For
    inf/sup measures the values come from the augmented arena along the
    lifted play.
    """
    t1, t2 = tables
    if lasso.stem and lasso.stem[0] != v0:
        return False
    if not lasso.stem and lasso.cycle[0] != v0:
        return False
    length = len(lasso.stem) + len(lasso.cycle)
    if t1.aug is None and t2.aug is None:
        for k in range(length):
            suffix_payoff = eval_lasso_payoff(game, lasso.suffix(k))
            v = lasso.vertices_in_order[k]
            if not lex_le(t1.value(v), suffix_payoff, 1):
                return False
            if not lex_le(t2.value(v), suffix_payoff, 2):
                return False
        return True
    # augmented (inf/sup family): values live on extreme-annotated vertices,
    # and every suffix of the lifted play carries the accumulated extremes,
    # so its augmented payoff is the total payoff of the play
    if t1.aug is None or t2.aug is None:
        raise InternalError("augmented check needs both augmented value tables")
    total = eval_lasso_payoff(game, lasso)
    aug1, aug2 = t1.aug, t2.aug
    for state in _lift_states(game, lasso):
        if not lex_le(aug1.values[aug1.state_index[state]], total, 1):
            return False
        if not lex_le(aug2.values[aug2.state_index[state]], total, 2):
            return False
    return True


def _lift_states(game: WeightedGame, lasso: Lasso):
    """Running-extremes states along the play, walked until position and
    extremes turn periodic together."""
    step = _extremes_step(game)
    rho, succ = _lasso_positions(lasso)
    states = []
    cur = (game.index[rho[0]], None, None)
    pos = 0
    seen = set()
    while (pos, cur) not in seen:
        seen.add((pos, cur))
        states.append(cur)
        pos = succ(pos)
        cur = step(cur, rho[pos])
    return states


def verify_profile_secure(game: WeightedGame, v0: str, profile: StrategyProfile) -> bool:
    """Does the profile's outcome pass the secure-equilibrium outcome test?

    This decides outcome membership, not full profile security: a profile
    with non-punishing off-path behaviour can share its outcome with a
    secure equilibrium.
    """
    require_valid(game)
    _measure_route(game)
    outcome = outcome_of_profile(game, v0, profile)
    t1 = solve_lex(game, 1, need_strategies=False)
    t2 = solve_lex(game, 2, need_strategies=False)
    return check_secure_outcome(game, v0, outcome, (t1, t2))
