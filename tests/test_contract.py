"""Contracts the rest of the repository relies on."""

import ast
import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from secgames import zerosum
from secgames.graphs import Arena

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    # perfbench/spans.py imports only the standard library, so it loads
    # without the benchmark's own import path
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_wraps_only_existing_functions():
    spans = _load_spans()
    for mod, name, _note in spans.WRAPPED:
        module = importlib.import_module(f"secgames.{mod}")
        assert callable(getattr(module, name, None)), f"secgames.{mod}.{name}"


def test_no_assert_in_package():
    # python -O strips assert statements; invariants raise InternalError
    for path in sorted((ROOT / "src" / "secgames").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_no_float_in_package():
    # every solver path is exact: no float() call or annotation, no float literal
    for path in sorted((ROOT / "src" / "secgames").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Constant) and isinstance(node.value, float))
        ]
        assert not found, f"{path.name}: float at lines {found}"


def test_benchmark_reads_energy_region_arguments(monkeypatch):
    # the benchmark wraps zerosum.energy_region in place and its `cap` note
    # reads the arena and the weights as args[0] and args[1]
    params = list(inspect.signature(zerosum.energy_region).parameters)
    assert params[:3] == ["arena", "wts", "keeper"]
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return set(), {}

    monkeypatch.setattr(zerosum, "energy_region", record)
    arena = Arena(2, [0, 1], [(0, 1), (1, 0)])
    zerosum.mp_threshold_region(arena, [2, -3], 0, Fraction(1, 2))
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert args[0] is arena and args[1] == [3, -7]
    assert _load_spans()._energy_cap(args, kwargs, None) == (2 * 7,)
