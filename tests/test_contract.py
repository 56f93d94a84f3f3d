"""Contracts the rest of the repository relies on."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_wraps_only_existing_functions():
    # perfbench/spans.py imports only the standard library, so it loads
    # without the benchmark's own import path
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
