import pytest

from secgames.fixtures import game_g1, game_g2, game_g3
from secgames.game import Measure


@pytest.fixture(scope="session")
def g1():
    return game_g1()


@pytest.fixture(scope="session")
def g2():
    return game_g2()


@pytest.fixture(scope="session")
def g3():
    return game_g3()


CORPUS_SEED = 271828
CORPUS_SIZE = 500


@pytest.fixture(scope="session")
def small_corpus():
    """A quick sample for per-module differential tests."""
    from secgames.oracle import corpus

    return corpus(CORPUS_SEED, 60)


def measures_all():
    return [
        Measure.INF,
        Measure.SUP,
        Measure.LIMINF,
        Measure.LIMSUP,
        Measure.MPINF,
        Measure.MPSUP,
        Measure.DISC,
    ]


def with_measure(game, measure, discount=None):
    from secgames.game import WeightedGame

    return WeightedGame(
        game.vertices,
        game.owner,
        game.edges,
        game.weights,
        measure,
        measure,
        discount if measure is Measure.DISC else None,
    )


@pytest.fixture
def swapped_parity_game(monkeypatch):
    """A liminf game where player 1 must take a -> b, with `lex.solve_parity`
    patched to hand player 1 the other edge at a in every threshold solve
    that still offers both.  Stitching that strategy loses value at a."""
    from fractions import Fraction

    from secgames import lex
    from secgames.game import WeightedGame

    game = WeightedGame(
        ["a", "b", "c"],
        {"a": 1, "b": 2, "c": 2},
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
        {
            ("a", "b"): (Fraction(5), Fraction(0)),
            ("a", "c"): (Fraction(1), Fraction(0)),
            ("b", "b"): (Fraction(5), Fraction(0)),
            ("c", "c"): (Fraction(1), Fraction(0)),
        },
        Measure.LIMINF,
        Measure.LIMINF,
    )
    real = lex.solve_parity
    a = game.index["a"]

    def swapped(arena, priority):
        win0, win1, s0, s1 = real(arena, priority)
        out = arena.out_edges[a]
        if a in s0 and len(out) == 2:
            s0[a] = out[1] if s0[a] == out[0] else out[0]
        return win0, win1, s0, s1

    monkeypatch.setattr(lex, "solve_parity", swapped)
    return game
