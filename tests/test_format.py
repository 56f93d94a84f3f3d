import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgames.equilibrium import outcome_of_profile, synthesize_secure_eq
from secgames.errors import GameFormatError
from secgames.fixtures import game_g1
from secgames.format import (
    game_to_dot,
    mealy_to_dot,
    parse_game,
    parse_profile,
    serialize_game,
    serialize_profile,
)
from secgames.game import Measure
from secgames.oracle import corpus

F = Fraction

G1_TEXT = """\
# five-vertex branching game
measure 1 mpinf
measure 2 mpinf
vertex v0 1
vertex v1 1
vertex v2 2
vertex v3 1
vertex v4 1
edge v0 v1 0 0
edge v0 v2 0 0
edge v1 v1 4 4
edge v2 v3 0 0
edge v2 v4 0 0
edge v3 v3 4 3
edge v4 v4 3 2
init v0
"""


class TestParseGame:
    def test_g1_fixture_file(self):
        game, init = parse_game(G1_TEXT)
        assert init == "v0"
        assert game.vertices == ["v0", "v1", "v2", "v3", "v4"]
        assert game.owner == {"v0": 1, "v1": 1, "v2": 2, "v3": 1, "v4": 1}
        assert game.weights[("v3", "v3")] == (F(4), F(3))
        ref = game_g1()
        assert game.edges == ref.edges and game.weights == ref.weights

    def test_empty_input(self):
        with pytest.raises(GameFormatError) as err:
            parse_game("")
        d = err.value.diagnostics[0]
        assert d.kind == "syntax" and d.line == 1

    def test_unknown_endpoint(self):
        text = "measure 1 mpinf\nmeasure 2 mpinf\nvertex a 1\nedge a b 0 0\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert any(
            d.kind == "semantic" and d.code == "unknown-vertex" and "b" in d.message
            for d in err.value.diagnostics
        )

    def test_deadlock_detected(self):
        text = "measure 1 inf\nmeasure 2 inf\nvertex a 1\nvertex b 2\nedge a b 1 1\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert any(d.code == "deadlock" for d in err.value.diagnostics)

    def test_rational_forms(self):
        text = (
            "measure 1 disc\nmeasure 2 disc\ndiscount 1/2\n"
            "vertex a 1\nedge a a -3/4 2\n"
        )
        game, _ = parse_game(text)
        assert game.weights[("a", "a")] == (F(-3, 4), F(2))
        assert game.discount == F(1, 2)

    def test_malformed_lines_never_raise_bare_exceptions(self):
        rng = random.Random(5)
        words = ["measure", "vertex", "edge", "init", "discount", "x", "1", "1/0", "?"]
        for _ in range(200):
            text = "\n".join(
                " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 6))
            )
            try:
                parse_game(text)
            except GameFormatError:
                pass

    def test_roundtrip_on_random_games(self):
        for g in corpus(7, 25, measure=Measure.LIMSUP):
            text = serialize_game(g, init=g.vertices[0])
            back, init = parse_game(text)
            assert init == g.vertices[0]
            assert back.vertices == g.vertices
            assert back.owner == g.owner
            assert back.edges == g.edges
            assert back.weights == g.weights
            assert back.measure1 is g.measure1 and back.measure2 is g.measure2
            assert serialize_game(back, init) == text


class TestProfiles:
    def test_roundtrip_byte_identical(self, g1):
        profile, outcome, _ = synthesize_secure_eq(g1, "v0")
        text = serialize_profile(profile, outcome)
        back, outcome2 = parse_profile(text, g1)
        assert outcome2 == outcome
        assert serialize_profile(back, outcome2) == text

    def test_single_state_machine_rows(self, g1):
        from secgames.equilibrium import MealyStrategy, StrategyProfile
        from secgames.game import Lasso

        m1 = MealyStrategy(
            1,
            ["s0"],
            0,
            {(0, v): 0 for v in g1.vertices},
            {(0, v): {"v0": "v1", "v1": "v1", "v3": "v3", "v4": "v4"}[v]
             for v in g1.vertices if g1.owner[v] == 1},
        )
        m2 = MealyStrategy(
            2, ["s0"], 0, {(0, v): 0 for v in g1.vertices}, {(0, "v2"): "v3"}
        )
        text = serialize_profile(StrategyProfile(m1, m2), Lasso(("v0",), ("v1",)))
        back, outcome = parse_profile(text, g1)
        assert back.strat1.state_count() == 1
        assert serialize_profile(back, outcome) == text

    def test_bad_move_rejected(self, g1):
        profile, outcome, _ = synthesize_secure_eq(g1, "v0")
        text = serialize_profile(profile, outcome).replace(
            "move s0 v2 v4", "move s0 v2 v1"
        )
        if "move s0 v2 v1" in text:
            with pytest.raises(GameFormatError):
                parse_profile(text, g1)

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (lambda t: t.replace("machine 1 states", "machine x states"), 3),
            (lambda t: t.replace("machine 1 states 4 init s0", "machine 1 states 3"), 3),
            (lambda t: t.replace("machine 1 next s0 v0 s1\n", ""), 3),
            (lambda t: t.replace("machine 1 next s0 v0 s1", "machine 1 next s0 v0 s4"), 4),
            (lambda t: t.replace("machine 2 move s0 v2 v4\n", ""), None),
            (lambda t: t.replace("outcome cycle v1", "outcome cycle nosuch"), 2),
            (lambda t: t.replace("outcome cycle v1", "outcome cycle v1 v3"), 2),
        ],
        ids=[
            "machine-id",
            "short-states-line",
            "missing-next",
            "state-over-count",
            "missing-move",
            "unknown-outcome-vertex",
            "outcome-step-not-an-edge",
        ],
    )
    def test_broken_profile_positioned(self, g1, mutate, line):
        profile, outcome, _ = synthesize_secure_eq(g1, "v0")
        text = serialize_profile(profile, outcome)
        broken = mutate(text)
        assert broken != text
        with pytest.raises(GameFormatError) as err:
            parse_profile(broken, g1)
        if line is not None:
            assert err.value.diagnostics[0].line == line

    def test_non_utf8_positioned(self, g1):
        with pytest.raises(GameFormatError) as err:
            parse_game(G1_TEXT.encode() + b"# caf\xe9\n")
        d = err.value.diagnostics[0]
        assert (d.line, d.column, d.code) == (G1_TEXT.count("\n") + 1, 6, "encoding")
        with pytest.raises(GameFormatError):
            parse_profile(b"outcome stem \xff\n", g1)

    def test_memory_bound_in_file(self, g1):
        profile, outcome, _ = synthesize_secure_eq(g1, "v0")
        text = serialize_profile(profile, outcome)
        back, _ = parse_profile(text, g1)
        assert back.strat1.state_count() <= g1.n + 2
        assert back.strat2.state_count() <= g1.n + 2


# parser fuzzing: derandomized and without an example database, so every run
# draws the same inputs and leaves no files behind
FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)
TOKEN = st.one_of(
    st.sampled_from(
        "measure vertex edge init discount outcome stem cycle machine states next "
        "move 0 1 2 3 -1 1/0 1/2 s0 s3 s99 s-1 v0 v1 v2 v3 v4 nosuch disc "
        "mpinf inf # \u0663 \xe9".split(" ")
    ),
    st.text(max_size=4),
)


@st.composite
def mutated_lines(draw, text):
    """`text` after one to four line-level edits: delete, duplicate or swap
    lines, replace a token, or insert a line of tokens."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "token", "insert")))
        if not lines or op == "insert":
            line = " ".join(draw(st.lists(TOKEN, max_size=6)))
            lines.insert(draw(st.integers(0, len(lines))), line)
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKEN)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


G1_PROFILE = serialize_profile(*synthesize_secure_eq(game_g1(), "v0")[:2])


class TestParserFuzz:
    """The parsers are total: a document parses or raises GameFormatError."""

    @FUZZ
    @given(st.binary(max_size=300))
    def test_game_from_bytes(self, data):
        try:
            parse_game(data)
        except GameFormatError:
            pass

    @FUZZ
    @given(mutated_lines(G1_PROFILE))
    def test_profile_from_mutated_lines(self, text):
        g1 = game_g1()
        try:
            profile, _outcome = parse_profile(text.encode(), g1)
        except GameFormatError:
            return
        # an accepted profile can be played
        outcome_of_profile(g1, "v0", profile)


class TestDot:
    def test_game_dot_shapes(self, g1):
        dot = game_to_dot(g1)
        assert '"v2" [shape=box' in dot
        assert '"v0" [shape=circle' in dot

    def test_mealy_dot(self, g1):
        profile, _, _ = synthesize_secure_eq(g1, "v0")
        dot = mealy_to_dot(profile.strat1)
        assert dot.startswith("digraph mealy1")
