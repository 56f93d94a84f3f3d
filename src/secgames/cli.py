"""Command-line interface.

Exit codes: 0 success (or decision "true"), 1 decision "false", 2 parse or
validation error, 3 unsupported problem or measure combination, 4 oracle
enumeration cap exceeded, 5 internal error (a failed solver invariant).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import format as fmt
from .constrained import ThresholdBox, decide_constrained_existence
from .equilibrium import synthesize_secure_eq, verify_profile_secure
from .errors import (
    EnumerationCapError,
    GameFormatError,
    InternalError,
    InvalidGameError,
    MeasureCombinationError,
    UnsupportedProblemError,
)
from .game import validate_game
from .lex import solve_lex
from .oracle import DEFAULT_CAP, oracle_lex_values

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def _load_game(path: str):
    try:
        with open(path, "rb") as fh:
            return fmt.parse_game(fh.read())
    except OSError as exc:
        raise GameFormatError(
            [fmt.Diagnostic("syntax", 0, 0, "io", str(exc))]
        ) from exc


def _pick_init(args, init_from_file):
    init = getattr(args, "init", None) or init_from_file
    if init is None:
        raise InvalidGameError("no initial vertex: pass --init or declare init")
    return init


def cmd_values(args) -> int:
    game, _init = _load_game(args.game)
    table = solve_lex(game, args.player)
    print(fmt.values_document(game, args.player, table))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(fmt.game_to_dot(game, table.values))
    return EXIT_TRUE


def cmd_oracle(args) -> int:
    game, _init = _load_game(args.game)
    table = oracle_lex_values(game, args.player, cap=args.cap)
    doc = {
        "kind": "oracle-lex-values",
        "player": args.player,
        "maxmin": {v: [str(p.p1), str(p.p2)] for v, p in table.maxmin.items()},
        "minmax": {v: [str(p.p1), str(p.p2)] for v, p in table.minmax.items()},
        "determined": table.determined,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_TRUE


def cmd_synth(args) -> int:
    game, init_file = _load_game(args.game)
    v0 = _pick_init(args, init_file)
    profile, outcome, payoff = synthesize_secure_eq(game, v0)
    print(fmt.synth_document(game, v0, outcome, payoff, profile))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(fmt.serialize_profile(profile, outcome))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(fmt.mealy_to_dot(profile.strat1))
            fh.write(fmt.mealy_to_dot(profile.strat2))
    return EXIT_TRUE


def cmd_verify(args) -> int:
    game, init_file = _load_game(args.game)
    v0 = _pick_init(args, init_file)
    with open(args.profile, "rb") as fh:
        profile, _outcome = fmt.parse_profile(fh.read(), game)
    ok = verify_profile_secure(game, v0, profile)
    print("true" if ok else "false")
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_constrained(args) -> int:
    game, init_file = _load_game(args.game)
    v0 = _pick_init(args, init_file)
    box = ThresholdBox.parse(args.mu, args.nu)
    ok = decide_constrained_existence(game, v0, box, jobs=args.jobs)
    print("true" if ok else "false")
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_validate(args) -> int:
    try:
        game, init = _load_game(args.game)
    except GameFormatError as exc:
        doc = {
            "kind": "validation",
            "valid": False,
            "diagnostics": [str(d) for d in exc.diagnostics],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_INVALID
    violations = validate_game(game)
    doc = {
        "kind": "validation",
        "valid": not violations,
        "diagnostics": [str(v) for v in violations],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(fmt.game_to_dot(game))
    return EXIT_TRUE if not violations else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="secgames",
        description="Lexicographic weighted games: values, secure equilibria, "
        "constrained existence",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker threads (results are independent of this)")
    sub = p.add_subparsers(dest="command", required=True)

    def game_arg(sp):
        sp.add_argument("--game", required=True, help="game file")

    sp = sub.add_parser("values", help="lexicographic game values and strategies")
    game_arg(sp)
    sp.add_argument("--player", type=int, choices=(1, 2), required=True)
    sp.add_argument("--dot", help="write a DOT arena annotated with values")
    sp.set_defaults(fn=cmd_values)

    sp = sub.add_parser("oracle", help="brute-force positional minimax values")
    game_arg(sp)
    sp.add_argument("--player", type=int, choices=(1, 2), required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.add_argument("--seed", type=int, default=0, help="reserved for corpus tooling")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("synth", help="synthesize a secure equilibrium")
    game_arg(sp)
    sp.add_argument("--init", help="initial vertex (defaults to the file's init)")
    sp.add_argument("--out", help="write the profile file here")
    sp.add_argument("--dot", help="write the Mealy machines as DOT")
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("verify", help="check a profile's outcome for security")
    game_arg(sp)
    sp.add_argument("--init")
    sp.add_argument("--profile", required=True)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("constrained", help="constrained existence in a payoff box")
    game_arg(sp)
    sp.add_argument("--init")
    sp.add_argument("--mu", required=True, help="lower thresholds a,b (rationals or -inf)")
    sp.add_argument("--nu", required=True, help="upper thresholds c,d (rationals or inf)")
    sp.set_defaults(fn=cmd_constrained)

    sp = sub.add_parser("validate", help="structural diagnostics for a game file")
    game_arg(sp)
    sp.add_argument("--dot", help="write the arena as DOT")
    sp.set_defaults(fn=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GameFormatError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (UnsupportedProblemError, MeasureCombinationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
