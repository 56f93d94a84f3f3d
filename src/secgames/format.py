"""Text formats: game files, strategy-profile files, result documents, DOT.

Game files are line-based, one declaration per line:

    # comment
    measure 1 <inf|sup|liminf|limsup|mpinf|mpsup|disc>
    measure 2 <...>
    discount <p/q>          (only with disc)
    vertex <name> <1|2>
    edge <from> <to> <q1> <q2>
    init <name>             (optional)

Rationals are written "p", "-p" or "p/q".  Profile files serialize both
Mealy machines plus the outcome lasso and parse back losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .equilibrium import MealyStrategy, StrategyProfile
from .errors import GameFormatError
from .game import Lasso, Measure, PayoffPair, WeightedGame, validate_game
from .rational import format_rational, rational


@dataclass
class Diagnostic:
    kind: str  # "syntax" or "semantic"
    line: int
    column: int
    code: str
    message: str

    def __str__(self):
        return f"{self.kind} error at {self.line}:{self.column} [{self.code}] {self.message}"


def _decode(text: str | bytes) -> str:
    """Document text; bytes that are not UTF-8 raise a positioned
    GameFormatError."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = text.rfind(b"\n", 0, exc.start) + 1
        diag = Diagnostic(
            "syntax",
            text.count(b"\n", 0, exc.start) + 1,
            exc.start - line_start + 1,
            "encoding",
            f"invalid UTF-8 byte 0x{text[exc.start]:02x}",
        )
        raise GameFormatError([diag]) from exc


def _measure_of(token: str) -> Measure | None:
    try:
        return Measure(token)
    except ValueError:
        return None


def parse_game(text: str | bytes):
    """Parse a game document; returns (game, initial vertex or None).

    Raises GameFormatError carrying positioned diagnostics on any syntax or
    semantic problem.
    """
    text = _decode(text)
    diags: list[Diagnostic] = []
    measures: dict[int, Measure] = {}
    discount = None
    vertices: list[str] = []
    owner: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    weights = {}
    init = None

    def syntax(line_no, col, code, msg):
        diags.append(Diagnostic("syntax", line_no, col, code, msg))

    def semantic(line_no, col, code, msg):
        diags.append(Diagnostic("semantic", line_no, col, code, msg))

    lines = text.splitlines()
    if not any(line.split("#", 1)[0].strip() for line in lines):
        syntax(1, 1, "empty", "empty input")
        raise GameFormatError(diags)

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        parts = line.split()
        kind = parts[0]
        if kind == "measure":
            if len(parts) != 3 or parts[1] not in ("1", "2"):
                syntax(line_no, col, "measure", "expected: measure <1|2> <name>")
                continue
            m = _measure_of(parts[2])
            if m is None:
                syntax(line_no, col, "measure", f"unknown measure {parts[2]!r}")
                continue
            measures[int(parts[1])] = m
        elif kind == "discount":
            if len(parts) != 2:
                syntax(line_no, col, "discount", "expected: discount <p/q>")
                continue
            try:
                discount = rational(parts[1])
            except ValueError:
                syntax(line_no, col, "discount", f"bad rational {parts[1]!r}")
        elif kind == "vertex":
            if len(parts) != 3 or parts[2] not in ("1", "2"):
                syntax(line_no, col, "vertex", "expected: vertex <name> <1|2>")
                continue
            if parts[1] in owner:
                semantic(line_no, col, "duplicate", f"duplicate vertex {parts[1]}")
                continue
            vertices.append(parts[1])
            owner[parts[1]] = int(parts[2])
        elif kind == "edge":
            if len(parts) != 5:
                syntax(line_no, col, "edge", "expected: edge <from> <to> <q1> <q2>")
                continue
            try:
                w = (rational(parts[3]), rational(parts[4]))
            except ValueError:
                syntax(line_no, col, "edge", "bad rational weight")
                continue
            for name in (parts[1], parts[2]):
                if name not in owner:
                    semantic(line_no, col, "unknown-vertex", f"undeclared vertex {name}")
            if (parts[1], parts[2]) in weights:
                semantic(line_no, col, "duplicate", f"duplicate edge {parts[1]} -> {parts[2]}")
            edges.append((parts[1], parts[2]))
            weights[(parts[1], parts[2])] = w
        elif kind == "init":
            if len(parts) != 2:
                syntax(line_no, col, "init", "expected: init <name>")
                continue
            if parts[1] not in owner:
                semantic(line_no, col, "unknown-vertex", f"undeclared vertex {parts[1]}")
                continue
            init = parts[1]
        else:
            syntax(line_no, col, "keyword", f"unknown declaration {kind!r}")

    if 1 not in measures or 2 not in measures:
        semantic(len(lines), 1, "measure", "both measures must be declared")
    if diags:
        raise GameFormatError(diags)
    game = WeightedGame(
        vertices, owner, edges, weights, measures[1], measures[2], discount
    )
    violations = validate_game(game)
    if violations:
        raise GameFormatError(
            [Diagnostic("semantic", len(lines), 1, v.code, v.detail) for v in violations]
        )
    return game, init


def serialize_game(game: WeightedGame, init: str | None = None) -> str:
    out = [f"measure 1 {game.measure1}", f"measure 2 {game.measure2}"]
    if game.discount is not None:
        out.append(f"discount {format_rational(game.discount)}")
    for v in game.vertices:
        out.append(f"vertex {v} {game.owner[v]}")
    for u, v in game.edges:
        w1, w2 = game.weights[(u, v)]
        out.append(f"edge {u} {v} {format_rational(w1)} {format_rational(w2)}")
    if init is not None:
        out.append(f"init {init}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# strategy profiles


def serialize_profile(profile: StrategyProfile, outcome: Lasso) -> str:
    """Emit both machines (state list, initial, update and choice tables)
    plus the outcome lasso; `parse_profile` inverts this exactly."""
    out = []
    out.append("outcome stem " + " ".join(outcome.stem))
    out.append("outcome cycle " + " ".join(outcome.cycle))
    for mach in (profile.strat1, profile.strat2):
        i = mach.player
        out.append(f"machine {i} states {len(mach.states)} init s{mach.initial}")
        for (state, vertex), target in sorted(
            mach.delta.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            out.append(f"machine {i} next s{state} {vertex} s{target}")
        for (state, vertex), choice in sorted(
            mach.choose.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            out.append(f"machine {i} move s{state} {vertex} {choice}")
    return "\n".join(out) + "\n"


def _natural(token: str) -> int | None:
    try:
        return int(token) if token.isdecimal() else None
    except ValueError:  # longer than int() converts
        return None


def parse_profile(text: str | bytes, game: WeightedGame):
    """Parse a profile document; returns (StrategyProfile, outcome Lasso).

    A machine's `states` line comes before its other lines.  Each machine
    needs a `next` line for every (state, vertex) pair and a `move` line for
    every pair at a vertex it owns, with state ids below its state count.
    The outcome lasso must be a play of the game: declared vertices, every
    step an edge.  Anything else raises GameFormatError with positioned
    diagnostics.
    """
    text = _decode(text)
    diags: list[Diagnostic] = []
    stem: tuple[str, ...] | None = None
    cycle: tuple[str, ...] | None = None
    machines: dict[int, dict] = {}
    undeclared: set[int] = set()

    def error(kind, line_no, code, message):
        diags.append(Diagnostic(kind, line_no, 1, code, message))

    def state_id(mach, token, line_no):
        state = _natural(token[1:]) if token.startswith("s") else None
        if state is None or state >= mach["n"]:
            error("syntax", line_no, "state", f"bad state {token!r} of {mach['n']} states")
            return 0
        return state

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "outcome" and len(parts) >= 2 and parts[1] == "stem":
            stem, stem_line = tuple(parts[2:]), line_no
        elif parts[0] == "outcome" and len(parts) >= 3 and parts[1] == "cycle":
            cycle, cycle_line = tuple(parts[2:]), line_no
        elif parts[0] != "machine":
            error("syntax", line_no, "keyword", f"unknown line: {line}")
        elif len(parts) != 6 or parts[1] not in ("1", "2") or not (
            parts[2] in ("next", "move")
            or (parts[2] == "states" and _natural(parts[3]) is not None and parts[4] == "init")
        ):
            error("syntax", line_no, "machine", f"bad machine line: {line}")
        elif parts[2] == "states":
            mach = {"delta": {}, "choose": {}, "n": _natural(parts[3]), "line": line_no}
            mach["init"] = state_id(mach, parts[5], line_no)
            machines[int(parts[1])] = mach
        elif int(parts[1]) not in machines:
            if int(parts[1]) not in undeclared:
                undeclared.add(int(parts[1]))
                error("syntax", line_no, "machine", f"machine line before its states line: {line}")
        else:
            mach = machines[int(parts[1])]
            state, vertex, target = parts[3:]
            if parts[2] == "next":
                key = (state_id(mach, state, line_no), vertex)
                mach["delta"][key] = state_id(mach, target, line_no)
            else:
                if not game.has_edge(vertex, target):
                    message = f"move {vertex} -> {target} is not an edge"
                    error("semantic", line_no, "not-an-edge", message)
                mach["choose"][(state_id(mach, state, line_no), vertex)] = target
    if cycle is None or stem is None:
        error("semantic", 1, "outcome", "missing outcome lasso")
    else:
        # (vertex, line) along the lasso, back to the cycle start
        walk = [(v, stem_line) for v in stem] + [(v, cycle_line) for v in cycle]
        unknown = [(v, at) for v, at in walk if v not in game.index]
        for v, at in unknown:
            error("semantic", at, "unknown-vertex", f"outcome vertex {v!r} is not declared")
        if not unknown:
            for (u, at), (v, _at) in zip(walk, walk[1:] + walk[len(stem) :][:1]):
                if not game.has_edge(u, v):
                    error("semantic", at, "not-an-edge", f"outcome step {u} -> {v} is not an edge")
    for i in (1, 2):
        mach = machines.get(i)
        if mach is None:
            error("semantic", 1, "machines", f"missing machine {i}")
            continue
        owned = [v for v in game.vertices if game.owner[v] == i]
        for kind, table, vertices in (
            ("next", mach["delta"], game.vertices),
            ("move", mach["choose"], owned),
        ):
            pairs = ((s, v) for s in range(mach["n"]) for v in vertices)
            gap = next((pair for pair in pairs if pair not in table), None)
            if gap is not None:
                message = f"machine {i} has no {kind} line for s{gap[0]} {gap[1]}"
                error("semantic", mach["line"], f"missing-{kind}", message)
    if diags:
        raise GameFormatError(diags)
    built = {}
    for i in (1, 2):
        m = machines[i]
        built[i] = MealyStrategy(
            i,
            [f"s{j}" for j in range(m["n"])],
            m["init"],
            m["delta"],
            m["choose"],
        )
    return StrategyProfile(built[1], built[2]), Lasso(stem, cycle)


# ---------------------------------------------------------------------------
# result documents (JSON with rationals as strings)


def _pair_json(pair: PayoffPair):
    return [format_rational(pair.p1), format_rational(pair.p2)]


def values_document(game: WeightedGame, which: int, table) -> str:
    doc = {
        "kind": "lex-values",
        "player": which,
        "measures": [str(game.measure1), str(game.measure2)],
        "values": {v: _pair_json(table.values[v]) for v in game.vertices},
        "uniform": table.uniform,
    }
    if table.strat_max is not None:
        doc["strategy_max"] = table.strat_max
        doc["strategy_min"] = table.strat_min
    return json.dumps(doc, indent=2, sort_keys=True)


def synth_document(game, v0, outcome: Lasso, payoff: PayoffPair, profile: StrategyProfile) -> str:
    doc = {
        "kind": "secure-equilibrium",
        "init": v0,
        "outcome": {"stem": list(outcome.stem), "cycle": list(outcome.cycle)},
        "payoff": _pair_json(payoff),
        "memory": [profile.strat1.state_count(), profile.strat2.state_count()],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# DOT export


def _dot_escape(text: str) -> str:
    """`text` for the inside of a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def game_to_dot(game: WeightedGame, values: dict[str, PayoffPair] | None = None) -> str:
    out = ["digraph arena {"]
    for v in game.vertices:
        shape = "circle" if game.owner[v] == 1 else "box"
        label = _dot_escape(v)
        if values is not None and v in values:
            label += f"\\n{_dot_escape(str(values[v]))}"
        out.append(f'  "{_dot_escape(v)}" [shape={shape}, label="{label}"];')
    for u, v in game.edges:
        w1, w2 = game.weights[(u, v)]
        out.append(
            f'  "{_dot_escape(u)}" -> "{_dot_escape(v)}" '
            f'[label="({format_rational(w1)}, {format_rational(w2)})"];'
        )
    out.append("}")
    return "\n".join(out) + "\n"


def mealy_to_dot(mach: MealyStrategy) -> str:
    out = [f"digraph mealy{mach.player} {{"]
    for i, s in enumerate(mach.states):
        shape = "doublecircle" if i == mach.initial else "circle"
        out.append(f'  s{i} [shape={shape}, label="{_dot_escape(s)}"];')
    moves = {}
    for (state, vertex), target in sorted(mach.delta.items()):
        lbl = vertex
        if (state, vertex) in mach.choose:
            lbl += f"/{mach.choose[(state, vertex)]}"
        moves.setdefault((state, target), []).append(lbl)
    for (state, target), labels in sorted(moves.items()):
        out.append(f'  s{state} -> s{target} [label="{_dot_escape(", ".join(labels))}"];')
    out.append("}")
    return "\n".join(out) + "\n"
