"""Secure-equilibrium synthesis and verification.

Synthesis follows the punishment construction: both players follow the
outcome of the two optimal strategies; the first player to leave it is
punished forever with the opponent's optimal counter-strategy from the other
lexicographic game.  Machines are Mealy automata whose on-track states
remember the position along the outcome lasso.

For min/max (inf/sup) measures everything runs on the augmented arena that
tracks running extremes; machines then carry the extremes through their
punish states so the augmented positional strategies stay playable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, MeasureCombinationError
from .game import (
    Lasso,
    Measure,
    PayoffPair,
    WeightedGame,
    eval_lasso_payoff,
    lex_le,
    require_valid,
)
from .lex import (
    LexValueTable,
    augment_view,
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


def _track_machine(
    game: WeightedGame,
    player: int,
    lasso: Lasso,
    punish_choice,
) -> MealyStrategy:
    """Mealy machine: follow the lasso, else punish the deviator forever.

    punish_choice(v) gives the punishment successor at vertex v.
    """
    rho, succ = _lasso_positions(lasso)
    n = len(rho)
    states = ["start"] + [f"track{l}" for l in range(n)] + ["punish"]
    START, PUNISH = 0, n + 1
    delta = {}
    choose = {}

    def expected(state):
        return rho[0] if state == START else rho[succ(state - 1)]

    for m in range(n + 2):
        for v in game.vertices:
            if m == PUNISH:
                delta[(m, v)] = PUNISH
            elif v == expected(m):
                delta[(m, v)] = 1 + (0 if m == START else succ(m - 1))
            else:
                delta[(m, v)] = PUNISH
            if game.owner[v] == player:
                if m != PUNISH and v == expected(m):
                    pos = 0 if m == START else succ(m - 1)
                    choose[(m, v)] = rho[succ(pos)]
                else:
                    choose[(m, v)] = punish_choice(v)
    return MealyStrategy(player, states, START, delta, choose)


def _aug_track_machine(
    game: WeightedGame,
    player: int,
    aug_lasso_states: list[tuple],
    wrap: int,
    own_next,
    punish_next,
    step,
) -> MealyStrategy:
    """Machine over an extreme-tracking play: on-track states follow the
    augmented lasso; punish states carry the current augmented vertex.

    own/punish_next map an augmented state to the successor vertex name;
    step(aug_state, vertex) advances the extremes when reading `vertex`.
    """
    rho = aug_lasso_states
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
            v, ea, eb = sem[1]
            labels.append(f"punish|{v}|{ea}|{eb}")
        return index[sem]

    delta = {}
    choose = {}
    qi = 0
    while qi < len(semantics):
        mi = qi
        qi += 1
        sem = semantics[mi]
        for v in game.vertices:
            if sem[0] == "start":
                base, expect_pos = (v, None, None), 0
            elif sem[0] == "track":
                base, expect_pos = rho[sem[1]], succ(sem[1])
            else:
                base, expect_pos = sem[1], None
            on_track = expect_pos is not None and v == rho[expect_pos][0]
            if on_track:
                nxt = ("track", expect_pos)
            else:
                nxt = ("punish", step(base, v))
            ni = intern(nxt)
            delta[(mi, v)] = ni
            if game.owner[v] == player:
                if on_track:
                    choose[(mi, v)] = own_next(rho[expect_pos])
                else:
                    choose[(mi, v)] = punish_next(semantics[ni][1])
    return MealyStrategy(player, labels, 0, delta, choose)


# ---------------------------------------------------------------------------


def _uniform_choice_fn(strat: dict[str, str]):
    def f(v):
        return strat[v]
    return f


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
    m1 = _track_machine(game, 1, outcome, _uniform_choice_fn(punish1))
    m2 = _track_machine(game, 2, outcome, _uniform_choice_fn(punish2))
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


def _aug_uniform_strategies(game: WeightedGame, which: int, starts: list[int]):
    """Uniform strategies of the protagonist `which` and of its opponent on
    the running-extremes arena, in game vertex/extreme keys.

    The running-extremes arena is a liminf/limsup game, so both players'
    uniform positional strategies come from one threshold bisection on it
    (`lex._solve_lex_liminf_view`)."""
    view = make_view(game, which)
    aug = augment_view(view, starts)
    _values, sp, sa = _solve_lex_liminf_view(aug.view, True)
    arena = aug.view.arena

    def key_of(state):
        v, ea, eb = state
        return (game.vertices[v], ea, eb) if which == 1 else (game.vertices[v], eb, ea)

    def as_map(strat):
        out = {}
        for si, k in strat.items():
            out[key_of(aug.states[si])] = game.vertices[aug.states[arena.edge_tgt[k]][0]]
        return out

    return as_map(sp), as_map(sa)


def _synthesize_augmented(game: WeightedGame, v0: str):
    start = [game.index[v0]]
    s1, punish2 = _aug_uniform_strategies(game, 1, start)
    s2, punish1 = _aug_uniform_strategies(game, 2, start)
    # game-coordinate extreme tracking shared by both machines
    fam_min = game.measure1 in (Measure.INF, Measure.LIMINF)
    comb = min if fam_min else max
    track1 = game.measure1 in (Measure.INF, Measure.SUP)
    track2 = game.measure2 in (Measure.INF, Measure.SUP)

    def step(state, v2):
        v, e1, e2 = state
        if not game.has_edge(v, v2):
            return (v2, e1, e2)
        w1, w2 = game.weights[(v, v2)]
        n1 = (w1 if e1 is None else comb(e1, w1)) if track1 else None
        n2 = (w2 if e2 is None else comb(e2, w2)) if track2 else None
        return (v2, n1, n2)

    # outcome of the two protagonist strategies in the shared tracked space
    cur = (v0, None, None)
    seen = {}
    path = []
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        v = cur[0]
        nxt = s1[cur] if game.owner[v] == 1 else s2[cur]
        cur = step(cur, nxt)
    wrap = seen[cur]
    rho_states = path
    outcome = Lasso(
        tuple(s[0] for s in path[:wrap]), tuple(s[0] for s in path[wrap:])
    ).canonical()
    payoff = eval_lasso_payoff(game, outcome)

    def fallback(strat):
        def f(state):
            if state in strat:
                return strat[state]
            v = state[0]
            return game.vertices[game.edge_tgt[game.out_edges[game.index[v]][0]]]
        return f

    m1 = _aug_track_machine(
        game, 1, rho_states, wrap, fallback(s1), fallback(punish1), step
    )
    m2 = _aug_track_machine(
        game, 2, rho_states, wrap, fallback(s2), fallback(punish2), step
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
    for state in _lift_states(game, lasso):
        if not lex_le(_aug_value(t1, state, 1), total, 1):
            return False
        if not lex_le(_aug_value(t2, state, 2), total, 2):
            return False
    return True


def _lift_states(game: WeightedGame, lasso: Lasso):
    """Extreme-annotated vertices (game component order) along the play,
    walked until position and extremes turn periodic together."""
    fam_min = game.measure1 in (Measure.INF, Measure.LIMINF)
    comb = min if fam_min else max
    track1 = game.measure1 in (Measure.INF, Measure.SUP)
    track2 = game.measure2 in (Measure.INF, Measure.SUP)
    rho = list(lasso.stem) + list(lasso.cycle)
    wrap = len(lasso.stem)
    states = []
    cur = (game.index[rho[0]], None, None)
    pos = 0
    seen = set()
    while (pos, cur) not in seen:
        seen.add((pos, cur))
        states.append(cur)
        nxt_pos = pos + 1 if pos + 1 < len(rho) else wrap
        u, v2 = rho[pos], rho[nxt_pos]
        w1, w2 = game.weights[(u, v2)]
        _cv, e1, e2 = cur
        n1 = (w1 if e1 is None else comb(e1, w1)) if track1 else None
        n2 = (w2 if e2 is None else comb(e2, w2)) if track2 else None
        cur = (game.index[v2], n1, n2)
        pos = nxt_pos
    return states


def _aug_value(table: LexValueTable, state, which: int) -> PayoffPair:
    """Value at an extreme-annotated vertex, read from the table's augmented
    solve; `state` carries extremes in game component order."""
    aug = table.aug
    vidx, e1, e2 = state
    key = (vidx, e1, e2) if which == 1 else (vidx, e2, e1)
    idx = aug.state_index[key]
    a, b = aug.values[idx]
    return PayoffPair(a, b) if which == 1 else PayoffPair(b, a)


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
