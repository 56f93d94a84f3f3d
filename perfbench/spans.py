"""Tracing wrappers around the package's public functions, and the per-layer
metrics computed from the spans they record.

`install()` runs inside a forked command process.  It replaces each function
in WRAPPED by a wrapper in every `secgames` namespace that holds it, because
the modules import one another's functions by name (`lex.solve_parity`,
`zerosum.attractor`, `constrained.lp_feasible`, `cli.solve_lex`, ...).  A
wrapper records one span per call: function, start, end, enclosing span and
a small note taken from the arguments or the result.  The spans stay in
memory and are written once, when the command ends, for the parent process
to aggregate.

Self time is a span's duration minus the durations of its direct child
spans.  Only these public functions are wrapped: work that a module does in
private helpers called directly from another module counts as self time of
the nearest wrapped caller.  In particular the inf/sup strategy extraction
in `equilibrium` calls private `lex` helpers, so its cost shows up in
`equilibrium.synthesize_secure_eq.self_s`.
"""

from __future__ import annotations

import importlib
import marshal
import sys
import time


def _energy_cap(args, kwargs, result):
    arena, wts = args[0], args[1]
    return (arena.n * max(0, -min(wts)) if wts else 0,)


def _solve_lex_strategies(args, kwargs, result):
    return (int(bool(kwargs.get("need_strategies", args[2] if len(args) > 2 else True))),)


def _mealy_states(args, kwargs, result):
    profile = result[0]
    return (max(profile.strat1.state_count(), profile.strat2.state_count()),)


# (module, function, note); a note maps (args, kwargs, result) to a tuple of ints
WRAPPED = (
    ("format", "parse_game", None),
    ("format", "parse_profile", lambda a, k, r: (len(a[0]),)),
    ("format", "serialize_profile", lambda a, k, r: (len(r),)),
    ("game", "normalize_weights", None),
    ("game", "eval_lasso_payoff", None),
    ("graphs", "attractor", None),
    ("graphs", "tarjan_sccs", None),
    ("zerosum", "energy_region", _energy_cap),
    ("zerosum", "solve_mean_payoff", None),
    ("zerosum", "solve_parity", lambda a, k, r: (a[0].n,)),
    ("zerosum", "solve_discounted", None),
    ("zerosum", "streett2_nonempty", None),
    ("lex", "solve_lex", _solve_lex_strategies),
    ("lex", "augment_view", lambda a, k, r: (len(r.states),)),
    ("equilibrium", "synthesize_secure_eq", _mealy_states),
    ("equilibrium", "verify_profile_secure", None),
    ("equilibrium", "check_secure_outcome", None),
    ("constrained", "decide_constrained_existence", None),
    ("constrained", "path_in_box", lambda a, k, r: (int(bool(r)),)),
    ("lp", "lp_feasible", None),
    ("lp", "simplex_max", lambda a, k, r: (len(a[0]), len(a[2]))),
)
FUNCTIONS = tuple(f"{mod}.{name}" for mod, name, _note in WRAPPED)

# (metric, unit, function, statistic).  Statistics over one traced pass:
#   calls       number of calls
#   s / self_s  inclusive / self seconds, summed
#   s_if / s_unless   inclusive seconds of calls whose note[0] is nonzero / zero
#   sum:i / max:i     sum / largest of note[i]
#   frac        share of calls whose note[0] is nonzero
LAYER_METRICS = (
    ("format.parse_game.s", "s", "format.parse_game", "s"),
    ("format.parse_profile.s", "s", "format.parse_profile", "s"),
    ("format.parse_profile.bytes", "bytes", "format.parse_profile", "sum:0"),
    ("format.serialize_profile.s", "s", "format.serialize_profile", "s"),
    ("format.serialize_profile.bytes", "bytes", "format.serialize_profile", "sum:0"),
    ("game.normalize_weights.calls", "count", "game.normalize_weights", "calls"),
    ("game.eval_lasso_payoff.calls", "count", "game.eval_lasso_payoff", "calls"),
    ("game.eval_lasso_payoff.s", "s", "game.eval_lasso_payoff", "s"),
    ("graphs.attractor.calls", "count", "graphs.attractor", "calls"),
    ("graphs.attractor.s", "s", "graphs.attractor", "s"),
    ("graphs.tarjan_sccs.calls", "count", "graphs.tarjan_sccs", "calls"),
    ("zerosum.energy_region.calls", "count", "zerosum.energy_region", "calls"),
    ("zerosum.energy_region.s", "s", "zerosum.energy_region", "s"),
    ("zerosum.energy_region.cap", "count", "zerosum.energy_region", "max:0"),
    ("zerosum.solve_mean_payoff.calls", "count", "zerosum.solve_mean_payoff", "calls"),
    ("zerosum.solve_mean_payoff.s", "s", "zerosum.solve_mean_payoff", "s"),
    ("zerosum.solve_parity.calls", "count", "zerosum.solve_parity", "calls"),
    ("zerosum.solve_parity.s", "s", "zerosum.solve_parity", "s"),
    ("zerosum.solve_parity.vertices", "count", "zerosum.solve_parity", "max:0"),
    ("zerosum.solve_discounted.calls", "count", "zerosum.solve_discounted", "calls"),
    ("zerosum.solve_discounted.s", "s", "zerosum.solve_discounted", "s"),
    ("zerosum.streett2_nonempty.calls", "count", "zerosum.streett2_nonempty", "calls"),
    ("zerosum.streett2_nonempty.s", "s", "zerosum.streett2_nonempty", "s"),
    ("lex.solve_lex.calls", "count", "lex.solve_lex", "calls"),
    ("lex.solve_lex.strat_s", "s", "lex.solve_lex", "s_if"),
    ("lex.solve_lex.values_s", "s", "lex.solve_lex", "s_unless"),
    ("lex.solve_lex.self_s", "s", "lex.solve_lex", "self_s"),
    ("lex.augment_view.states", "count", "lex.augment_view", "max:0"),
    ("equilibrium.synthesize_secure_eq.self_s", "s", "equilibrium.synthesize_secure_eq", "self_s"),
    ("equilibrium.mealy_states", "count", "equilibrium.synthesize_secure_eq", "max:0"),
    ("equilibrium.verify_profile_secure.self_s", "s", "equilibrium.verify_profile_secure", "self_s"),
    ("equilibrium.check_secure_outcome.s", "s", "equilibrium.check_secure_outcome", "s"),
    (
        "constrained.decide_constrained_existence.self_s",
        "s",
        "constrained.decide_constrained_existence",
        "self_s",
    ),
    ("constrained.path_in_box.calls", "count", "constrained.path_in_box", "calls"),
    ("constrained.path_in_box.hit_ratio", "ratio", "constrained.path_in_box", "frac"),
    ("lp.lp_feasible.calls", "count", "lp.lp_feasible", "calls"),
    ("lp.lp_feasible.s", "s", "lp.lp_feasible", "s"),
    ("lp.simplex_max.s", "s", "lp.simplex_max", "s"),
    ("lp.simplex_max.rows", "count", "lp.simplex_max", "max:0"),
    ("lp.simplex_max.cols", "count", "lp.simplex_max", "max:1"),
)
PARITY_PER_SOLVE = ("lex.parity_per_solve", "ratio")
OVERHEAD = ("trace.overhead_frac", "ratio")
# wall time of the traced commands of a pass, the base of every layer's share
COMMAND_S = ("trace.command_s", "s")

UNITS = {name: unit for name, unit, _f, _s in LAYER_METRICS}
UNITS[PARITY_PER_SOLVE[0]] = PARITY_PER_SOLVE[1]
UNITS[OVERHEAD[0]] = OVERHEAD[1]
UNITS[COMMAND_S[0]] = COMMAND_S[1]
# metrics that must repeat exactly on the same games
DETERMINISTIC = tuple(
    name for name, _u, _f, stat in LAYER_METRICS if stat not in ("s", "self_s", "s_if", "s_unless")
) + (PARITY_PER_SOLVE[0],)


class Tracer:
    """Span recorder for one command process."""

    def __init__(self):
        # (function id, start, end, enclosing span index or -1, note)
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, fid: int, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, ())
            if note is not None:
                spans[idx] = (fid, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump(self.spans, fh)


def install() -> Tracer:
    """Wrap every function in WRAPPED wherever the package binds it.

    Raises AttributeError when a wrapped function no longer exists, so a
    rename cannot silently zero a layer.
    """
    tracer = Tracer()
    namespaces = [
        m for name, m in list(sys.modules.items()) if name == "secgames" or name.startswith("secgames.")
    ]
    for fid, (mod, name, note) in enumerate(WRAPPED):
        module = importlib.import_module(f"secgames.{mod}")
        original = getattr(module, name)
        wrapper = tracer.wrap(fid, original, note)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
    return tracer


def load(path: str) -> list:
    with open(path, "rb") as fh:
        return marshal.load(fh)


class PassStats:
    """Per-function totals over the spans of one traced pass."""

    def __init__(self):
        self.calls = [0] * len(WRAPPED)
        self.incl = [0.0] * len(WRAPPED)
        self.self_s = [0.0] * len(WRAPPED)
        self.incl_if = [0.0] * len(WRAPPED)
        self.flagged = [0] * len(WRAPPED)
        self.note_sum: dict[tuple[int, int], int] = {}
        self.note_max: dict[tuple[int, int], int] = {}

    def add(self, spans: list) -> None:
        """Add the spans of one command process."""
        covered = [0.0] * len(spans)
        for fid, start, end, parent, _note in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (fid, start, end, _parent, note) in enumerate(spans):
            d = end - start
            self.calls[fid] += 1
            self.incl[fid] += d
            self.self_s[fid] += d - covered[i]
            if note and note[0]:
                self.flagged[fid] += 1
                self.incl_if[fid] += d
            for j, x in enumerate(note):
                key = (fid, j)
                self.note_sum[key] = self.note_sum.get(key, 0) + x
                self.note_max[key] = max(self.note_max.get(key, 0), x)

    def metrics(self) -> dict[str, float]:
        fids = {f: i for i, f in enumerate(FUNCTIONS)}
        out = {}
        for name, _unit, func, stat in LAYER_METRICS:
            i = fids[func]
            if stat == "calls":
                v = self.calls[i]
            elif stat == "s":
                v = self.incl[i]
            elif stat == "self_s":
                v = self.self_s[i]
            elif stat == "s_if":
                v = self.incl_if[i]
            elif stat == "s_unless":
                v = self.incl[i] - self.incl_if[i]
            elif stat == "frac":
                v = self.flagged[i] / self.calls[i] if self.calls[i] else 0.0
            else:
                kind, j = stat.split(":")
                table = self.note_sum if kind == "sum" else self.note_max
                v = table.get((i, int(j)), 0)
            out[name] = v
        solves = self.calls[fids["lex.solve_lex"]]
        parity = self.calls[fids["zerosum.solve_parity"]]
        out[PARITY_PER_SOLVE[0]] = parity / solves if solves else 0.0
        return out

    def called(self) -> set[str]:
        return {f for f, n in zip(FUNCTIONS, self.calls) if n}
