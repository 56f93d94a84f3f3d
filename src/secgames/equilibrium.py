"""Secure-equilibrium synthesis and verification.

Synthesis follows the punishment construction for every measure: both
players follow the outcome of the two optimal strategies; the first player
to leave it is punished forever with the opponent's optimal counter-strategy
from the other lexicographic game.

Plays are read over running-extremes states (vertex, extreme 1, extreme 2),
advanced by one update, `lex.extremes_update`.  An inf/sup component tracks
its extreme, and both players then solve one running-extremes arena
(`lex.augment_view`); every other component tracks nothing, so a
mean-payoff, liminf/limsup or discounted game reads states (v, None, None)
and takes its strategies from `lex.solve_lex`.  The two Mealy machines of a
profile share their states and update table and differ only in their
choices: on-track states remember the position along the outcome lasso, and
punish states what the next extremes update reads.  The outcome check walks
the same states.
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


def _track_machines(game: WeightedGame, rho: list[tuple], wrap: int, punish_next, tracked: bool):
    """Both players' Mealy machines over the outcome: on-track states follow
    the running-extremes states rho (cycle from position `wrap`); the first
    player to leave it is punished forever.  The machines share their states
    and update table.

    A punish state remembers what the next extremes update reads: the
    running-extremes state when an extreme is tracked, nothing otherwise, so
    a game that tracks nothing has one punish state.  punish_next[p] maps the
    state after reading a vertex of player p to its punishment successor.
    """
    step = _extremes_step(game)
    n = len(rho)

    def succ(l):
        return l + 1 if l + 1 < n else wrap

    labels = ["start"] + [f"track{l}" for l in range(n)]
    # per machine state: the running-extremes state it continues from (none
    # for the start state, which reads vertex v from (v, None, None)) and the
    # lasso position it expects next (none once punishing)
    bases: list[tuple | None] = [None] + list(rho)
    expect: list[int | None] = [0] + [succ(l) for l in range(n)]
    punish_of: dict[tuple | None, int] = {}

    def punish(state):
        key = state if tracked else None
        if key not in punish_of:
            punish_of[key] = len(labels)
            v, e1, e2 = state
            labels.append(f"punish|{game.vertices[v]}|{e1}|{e2}" if tracked else "punish")
            bases.append(state)
            expect.append(None)
        return punish_of[key]

    delta = {}
    choose: dict[int, dict] = {1: {}, 2: {}}
    mi = 0
    while mi < len(labels):
        pos = expect[mi]
        for vi, v in enumerate(game.vertices):
            player = game.owner[v]
            if pos is not None and vi == rho[pos][0]:
                delta[(mi, v)] = 1 + pos
                choose[player][(mi, v)] = game.vertices[rho[succ(pos)][0]]
            else:
                # the state after reading v; with nothing tracked, just v
                cur = step(bases[mi] or (vi, None, None), v) if tracked else (vi, None, None)
                delta[(mi, v)] = punish(cur)
                choose[player][(mi, v)] = punish_next[player](cur)
        mi += 1
    return tuple(MealyStrategy(p, labels, 0, delta, choose[p]) for p in (1, 2))


def _tracks_extremes(game: WeightedGame) -> bool:
    """Whether the measure pair tracks a running extreme: false for a
    same-measure pair other than inf/inf and sup/sup, true for a min-family
    (inf, liminf) or max-family (sup, limsup) pair with an inf/sup
    component.  Any other pair raises MeasureCombinationError."""
    m1, m2 = game.measure1, game.measure2
    if m1 is m2 and m1 not in (Measure.INF, Measure.SUP):
        return False
    fam = {Measure.INF: "min", Measure.LIMINF: "min", Measure.SUP: "max", Measure.LIMSUP: "max"}
    if m1 in fam and fam[m1] == fam.get(m2):
        return True
    raise MeasureCombinationError(f"unsupported measure combination ({m1}, {m2})")


def synthesize_secure_eq(game: WeightedGame, v0: str):
    """Build a finite-memory secure equilibrium from v0.

    Returns (profile, outcome lasso, payoff).  The reachable memory of each
    machine is checked against |V|+2, or |V|*|E|^2+3 when an extreme is
    tracked.
    """
    require_valid(game)
    tracked = _tracks_extremes(game)
    # each player's pair (protagonist, opponent) of positional strategies,
    # maps from running-extremes state to successor name
    if tracked:
        # both players solve one running-extremes arena, a liminf/limsup game
        # whose uniform positional strategies come from one threshold
        # bisection per player (`lex._solve_lex_liminf_view`)
        aug = augment_view(game, [game.index[v0]])

        def as_map(strat):
            return {
                aug.states[si]: game.vertices[aug.states[aug.edge_tgt[k]][0]]
                for si, k in strat.items()
            }

        solved = [_solve_lex_liminf_view(make_view(aug, which), True)[1:] for which in (1, 2)]
        bound = game.n * len(game.edges) ** 2 + 3
    else:

        def as_map(strat):
            return {(game.index[v], None, None): succ for v, succ in strat.items()}

        tables = (solve_lex(game, 1), solve_lex(game, 2))
        solved = [(t.strategy_max(), t.strategy_min()) for t in tables]
        bound = game.n + 2
    (s1, punish2), (s2, punish1) = [(as_map(sp), as_map(sa)) for sp, sa in solved]
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
        # a state off the arena (a row no play reaches) takes the first edge
        def f(state):
            if state in strat:
                return strat[state]
            return game.vertices[game.edge_tgt[game.out_edges[state[0]][0]]]
        return f

    profile = StrategyProfile(
        *_track_machines(game, path, wrap, {1: fallback(punish1), 2: fallback(punish2)}, tracked)
    )
    for mach in (profile.strat1, profile.strat2):
        reach = mach.reachable_states(game, v0)
        if len(reach) > bound:
            raise InternalError(f"reachable memory {len(reach)} exceeds the bound {bound}")
    return profile, outcome, payoff


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

    Walks the play over running-extremes states until position and extremes
    turn periodic together, and checks that no player's lexicographic value
    there beats the payoff.  A value is read on the table's extremes arena
    when it has one, else at the vertex.  Every suffix of the lifted play
    carries the extremes accumulated so far, so for a prefix-independent
    measure its payoff is the payoff of the whole play; a discounted payoff
    is not, and is compared suffix by suffix.
    """
    if lasso.stem and lasso.stem[0] != v0:
        return False
    if not lasso.stem and lasso.cycle[0] != v0:
        return False
    disc = game.measure1 is Measure.DISC
    total = None if disc else eval_lasso_payoff(game, lasso)
    for k, state in enumerate(_lift_states(game, lasso)):
        payoff = eval_lasso_payoff(game, lasso.suffix(k)) if disc else total
        for which, table in zip((1, 2), tables):
            if table.aug is not None:
                value = table.aug.values[table.aug.state_index[state]]
            else:
                value = table.value(game.vertices[state[0]])
            if not lex_le(value, payoff, which):
                return False
    return True


def _lift_states(game: WeightedGame, lasso: Lasso):
    """Running-extremes states along the play, walked until position and
    extremes turn periodic together."""
    step = _extremes_step(game)
    rho = list(lasso.stem) + list(lasso.cycle)
    states = []
    cur = (game.index[rho[0]], None, None)
    pos = 0
    seen = set()
    while (pos, cur) not in seen:
        seen.add((pos, cur))
        states.append(cur)
        pos = pos + 1 if pos + 1 < len(rho) else len(lasso.stem)
        cur = step(cur, rho[pos])
    return states


def verify_profile_secure(game: WeightedGame, v0: str, profile: StrategyProfile) -> bool:
    """Does the profile's outcome pass the secure-equilibrium outcome test?

    This decides outcome membership, not full profile security: a profile
    with non-punishing off-path behaviour can share its outcome with a
    secure equilibrium.
    """
    require_valid(game)
    _tracks_extremes(game)
    outcome = outcome_of_profile(game, v0, profile)
    t1 = solve_lex(game, 1, need_strategies=False)
    t2 = solve_lex(game, 2, need_strategies=False)
    return check_secure_outcome(game, v0, outcome, (t1, t2))
