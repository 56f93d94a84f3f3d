"""Core data model: weighted games, lexicographic orders, lasso payoffs.

A weighted game is a finite deadlock-free arena whose vertices are split
between player 1 and player 2 and whose edges carry a pair of rational
rewards, one component per player.  Plays are compared through one of seven
payoff measures; ultimately periodic plays (lassos) are the only play
representation ever materialized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidGameError, InvalidLassoError


class Measure(enum.Enum):
    INF = "inf"
    SUP = "sup"
    LIMINF = "liminf"
    LIMSUP = "limsup"
    MPINF = "mpinf"
    MPSUP = "mpsup"
    DISC = "disc"

    def __str__(self):
        return self.value


class PayoffPair(NamedTuple):
    p1: Fraction
    p2: Fraction

    def __str__(self):
        from .rational import format_rational

        return f"({format_rational(self.p1)}, {format_rational(self.p2)})"


LESS, EQUAL, GREATER = -1, 0, 1


def lex_compare(x: PayoffPair, y: PayoffPair, which: int) -> int:
    """Compare payoff pairs under the order of player `which`.

    Player i's order prefers a larger own component and, on ties, a smaller
    opponent component.  Returns -1, 0, or 1.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    own, other = (0, 1) if which == 1 else (1, 0)
    if x[own] != y[own]:
        return LESS if x[own] < y[own] else GREATER
    if x[other] != y[other]:
        # reversed second component: smaller opponent payoff is better
        return LESS if x[other] > y[other] else GREATER
    return EQUAL


def lex_key(pair: PayoffPair, which: int):
    """Sort key: ascending in lex_compare order for player `which`."""
    if which == 1:
        return (pair[0], -pair[1])
    return (pair[1], -pair[0])


def lex_le(x: PayoffPair, y: PayoffPair, which: int) -> bool:
    return lex_compare(x, y, which) <= 0


class WeightedGame:
    """Finite two-player arena with rational weight pairs on edges.

    Vertices and edges keep stable integer indices in declaration order; all
    deterministic tie-breaks in the package pick the lowest index.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        owner: dict[str, int],
        edges: Sequence[tuple[str, str]],
        weights: dict[tuple[str, str], tuple[Fraction, Fraction]],
        measure1: Measure,
        measure2: Measure,
        discount: Fraction | None = None,
    ):
        self.vertices = list(vertices)
        self.owner = dict(owner)
        self.edges = [tuple(e) for e in edges]
        self.weights = {tuple(e): (Fraction(w[0]), Fraction(w[1])) for e, w in weights.items()}
        self.measure1 = measure1
        self.measure2 = measure2
        self.discount = Fraction(discount) if discount is not None else None

        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise InvalidGameError("duplicate vertex names")
        # integer-indexed views used by the solvers
        self.n = len(self.vertices)
        self.owner_of = [self.owner.get(v) for v in self.vertices]
        self.edge_src = []
        self.edge_tgt = []
        self.out_edges = [[] for _ in range(self.n)]
        for k, (u, v) in enumerate(self.edges):
            if u not in self.index or v not in self.index:
                raise InvalidGameError(f"edge ({u}, {v}) references an undeclared vertex")
            self.edge_src.append(self.index[u])
            self.edge_tgt.append(self.index[v])
            self.out_edges[self.index[u]].append(k)
        self.w1 = []
        self.w2 = []
        for e in self.edges:
            if e not in self.weights:
                raise InvalidGameError(f"edge {e} has no weight")
            a, b = self.weights[e]
            self.w1.append(a)
            self.w2.append(b)

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.weights

    def with_weights(self, new_weights) -> "WeightedGame":
        return WeightedGame(
            self.vertices,
            self.owner,
            self.edges,
            new_weights,
            self.measure1,
            self.measure2,
            self.discount,
        )

    def __repr__(self):
        return (
            f"WeightedGame(|V|={self.n}, |E|={len(self.edges)}, "
            f"measures=({self.measure1}, {self.measure2}))"
        )


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic play: stem vertices followed by a repeated cycle.

    The stem includes the initial vertex; the cycle is nonempty and wraps
    around (last cycle vertex has an edge back to the first).
    """

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle:
            raise InvalidLassoError("lasso cycle must be nonempty")

    @property
    def vertices_in_order(self) -> tuple[str, ...]:
        return self.stem + self.cycle

    def edge_list(self) -> list[tuple[str, str]]:
        """All edges of one stem pass plus one cycle round, wrap included."""
        seq = list(self.stem) + list(self.cycle) + [self.cycle[0]]
        return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]

    def stem_edges(self) -> list[tuple[str, str]]:
        seq = list(self.stem) + [self.cycle[0]]
        return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]

    def cycle_edges(self) -> list[tuple[str, str]]:
        seq = list(self.cycle) + [self.cycle[0]]
        return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]

    def suffix(self, k: int) -> "Lasso":
        """The lasso representing the play suffix starting at position k."""
        if k <= len(self.stem):
            return Lasso(self.stem[k:], self.cycle)
        k = (k - len(self.stem)) % len(self.cycle)
        return Lasso((), self.cycle[k:] + self.cycle[:k])

    def unrolled(self, extra_rounds: int) -> "Lasso":
        return Lasso(self.stem + self.cycle * extra_rounds, self.cycle)

    def canonical(self) -> "Lasso":
        """Shortest-stem representation of the same infinite play."""
        stem, cycle = list(self.stem), list(self.cycle)
        while stem and stem[-1] == cycle[-1]:
            stem.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return Lasso(tuple(stem), tuple(cycle))


def check_lasso(game: WeightedGame, lasso: Lasso) -> None:
    for u, v in lasso.edge_list():
        if u not in game.index or v not in game.index:
            raise InvalidLassoError(f"lasso vertex {u!r} or {v!r} not in game")
        if not game.has_edge(u, v):
            raise InvalidLassoError(f"lasso step ({u}, {v}) is not an edge")


def _component_payoff(
    game: WeightedGame,
    lasso: Lasso,
    comp: int,
    measure: Measure,
) -> Fraction:
    pick = (lambda e: game.weights[e][0]) if comp == 1 else (lambda e: game.weights[e][1])
    if measure in (Measure.INF, Measure.SUP):
        values = [pick(e) for e in lasso.edge_list()]
        return min(values) if measure is Measure.INF else max(values)
    if measure in (Measure.LIMINF, Measure.LIMSUP):
        values = [pick(e) for e in lasso.cycle_edges()]
        return min(values) if measure is Measure.LIMINF else max(values)
    if measure in (Measure.MPINF, Measure.MPSUP):
        values = [pick(e) for e in lasso.cycle_edges()]
        return Fraction(sum(values), len(values))
    if measure is Measure.DISC:
        lam = game.discount
        if lam is None:
            raise InvalidGameError("discounted measure requires a discount factor")
        stem_w = [pick(e) for e in lasso.stem_edges()]
        cyc_w = [pick(e) for e in lasso.cycle_edges()]
        # exact closed form: (1-l)[sum stem l^k w_k + l^s * (sum cycle l^j w_j)/(1-l^p)]
        a, b = lam.numerator, lam.denominator
        s, p = len(stem_w), len(cyc_w)
        stem_sum = Fraction(0)
        power = Fraction(1)
        for w in stem_w:
            stem_sum += power * w
            power *= lam
        cyc_sum = Fraction(0)
        cpower = Fraction(1)
        for w in cyc_w:
            cyc_sum += cpower * w
            cpower *= lam
        lam_p = Fraction(a**p, b**p)
        total = stem_sum + power * cyc_sum / (1 - lam_p)
        return (1 - lam) * total
    raise ValueError(f"unknown measure {measure}")


def eval_lasso_payoff(game: WeightedGame, lasso: Lasso) -> PayoffPair:
    """Exact payoff pair of an ultimately periodic play."""
    check_lasso(game, lasso)
    return PayoffPair(
        _component_payoff(game, lasso, 1, game.measure1),
        _component_payoff(game, lasso, 2, game.measure2),
    )


@dataclass(frozen=True)
class NormalizationInfo:
    """Affine map turning rational weights into naturals, and its inverse.

    Every original weight w maps to w * b_star - a_star * b_star, a natural
    number.  a_star is the smallest numerator after rescaling to the common
    denominator b_star, clamped to at most 0.
    """

    a_star: int
    b_star: int

    def to_natural(self, w: Fraction) -> Fraction:
        return w * self.b_star - self.a_star * self.b_star

    def to_original(self, w: Fraction) -> Fraction:
        return Fraction(w + self.a_star * self.b_star, self.b_star)

    @property
    def is_identity(self) -> bool:
        return self.a_star == 0 and self.b_star == 1


def normalize_weights(game: WeightedGame) -> tuple[WeightedGame, NormalizationInfo]:
    """Rescale and shift all weights to natural numbers.

    Payoffs of the rescaled game are the original payoffs multiplied by
    b_star and shifted by -a_star*b_star, for every measure.
    """
    all_weights = [w for pair in game.weights.values() for w in pair]
    if not all_weights:
        raise InvalidGameError("game has no edges")
    b_star = 1
    for w in all_weights:
        b_star = b_star * w.denominator // math.gcd(b_star, w.denominator)
    smallest_num = min(int(w * b_star) for w in all_weights)
    a_star = min(0, smallest_num)
    info = NormalizationInfo(a_star, b_star)
    new_weights = {
        e: (info.to_natural(w1), info.to_natural(w2))
        for e, (w1, w2) in game.weights.items()
    }
    return game.with_weights(new_weights), info


def denormalize_value(value: PayoffPair, info: NormalizationInfo) -> PayoffPair:
    """Invert normalize_weights on a computed payoff pair.

    Valid for all seven measures: each commutes with positive affine maps of
    the weights.
    """
    return PayoffPair(info.to_original(value.p1), info.to_original(value.p2))


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


def validate_game(game: WeightedGame) -> list[Violation]:
    """Structural diagnostics; an empty list means the game is valid."""
    out: list[Violation] = []
    for v in game.vertices:
        if game.owner.get(v) not in (1, 2):
            out.append(Violation("owner", f"vertex {v} has no owner in {{1, 2}}"))
    for v, i in game.index.items():
        if not game.out_edges[i]:
            out.append(Violation("deadlock", f"vertex {v} has no outgoing edge"))
    for u, v in game.edges:
        if u not in game.index:
            out.append(Violation("dangling", f"edge source {u} is undeclared"))
        if v not in game.index:
            out.append(Violation("dangling", f"edge target {v} is undeclared"))
    needs_discount = Measure.DISC in (game.measure1, game.measure2)
    if needs_discount:
        if game.discount is None:
            out.append(Violation("discount", "discounted measure requires a discount factor"))
        elif not (0 < game.discount < 1):
            out.append(
                Violation("discount", f"discount {game.discount} out of range (0, 1)")
            )
    elif game.discount is not None:
        out.append(Violation("discount", "discount given but no discounted measure"))
    return out


def require_valid(game: WeightedGame) -> None:
    violations = validate_game(game)
    if violations:
        raise InvalidGameError("; ".join(str(v) for v in violations))
