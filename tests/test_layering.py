"""The package's internal import graph, read from the source with ``ast``.

Modules depend only downward: ``entropy`` at the bottom, ``cli`` on top. A
new module or a new internal import must be declared here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import union_channel
from union_channel import capacity, codec, entropy

PACKAGE_DIR = Path(union_channel.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

EXPECTED_IMPORTS = {
    "entropy": set(),
    "codec": {"entropy"},
    "capacity": {"entropy"},
    "oracle": {"entropy"},
    "cli": {"entropy", "capacity", "codec", "oracle"},
}


def _internal_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package
                base = f"union_channel.{base}".rstrip(".")
            # `from . import x` names modules; `from .x import y` names x's members
            names = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "union_channel":
                found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_internal_imports_are_exactly_the_declared_layers():
    actual = {
        path.stem: _internal_imports(path)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "__init__"
    }
    assert actual == EXPECTED_IMPORTS


def _message_texts(path: Path) -> list[str]:
    """The string constants of a module, f-string parts included, without docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def _modules_writing(phrase: str) -> set[str]:
    return {
        path.stem
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if any(phrase in text for text in _message_texts(path))
    }


def test_interval_refusals_are_written_only_in_entropy():
    # every "x must lie in [lo, hi]" refusal goes through entropy.check_between,
    # so a value that is not a number meets the same one-line refusal everywhere
    assert _modules_writing("must lie in") == {"entropy"}


def test_count_refusals_are_written_only_in_entropy():
    # every int and count refusal goes through entropy.check_int or
    # entropy.check_count, so each count is refused in the one text
    assert _modules_writing("must be an int") == {"entropy"}
    assert _modules_writing("need at least") == set()


def test_caps_are_written_only_in_entropy():
    # every cap is a range through entropy.check_between or the alphabet cap of
    # entropy.check_alphabet; cli keeps its own --samples pre-check, which
    # refuses before the grid runs
    assert _modules_writing("must be at most") <= {"entropy", "cli"}
    assert _modules_writing("must be <=") == set()


def test_check_between_takes_only_a_literal_interval_text():
    # check_between prints [lo, hi] itself, and only when it refuses; a caller
    # that passes its own text passes a literal, so no passing call formats one
    calls = [
        (path.stem, node)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_between"
    ]
    assert len(calls) >= 20  # the walk found the package's range checks
    for module, call in calls:
        shown = call.args[3:4] + [kw.value for kw in call.keywords if kw.arg == "shown"]
        for text in shown:
            assert isinstance(text, ast.Constant) and isinstance(text.value, str), (
                f"{module}.py:{call.lineno} passes check_between a shown that is not a literal"
            )


def test_refusal_texts_are_pinned_only_in_the_refusal_table():
    # tests/refusals.py holds every pinned refusal text, so a cap or a wording
    # moves by editing its rows there and nowhere else
    tests_dir = Path(__file__).parent
    pinning = {
        path.name
        for path in sorted(tests_dir.glob("*.py"))
        if any("must lie in" in text or "must be an int" in text for text in _message_texts(path))
    }
    assert pinning <= {"refusals.py", "test_layering.py"}


def test_the_rate_root_and_its_solver_are_one_function_each():
    # entropy defines both; capacity reads them, and codec binds them for the tracer
    assert capacity.rate_root is codec.rate_root is entropy.rate_root
    assert capacity.bisect_root is codec.bisect_root is entropy.bisect_root


@pytest.fixture
def spans(monkeypatch):
    """perfbench/spans.py, loaded from its file without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    assert module.TARGETS  # the loader found the list
    return module


def test_every_name_the_benchmark_tracer_wraps_is_bound(spans):
    # the traced benchmark run wraps each TARGETS entry by getattr and exits 1
    # on a name the package no longer binds: a move or a rename fails here first
    for module, attr, layer, *_ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), (
            f"{module.__name__}.{attr} (traced as {layer}) is not bound"
        )


def _unread_imports(path: Path) -> set[str]:
    """Names the module binds with ``from ... import`` and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_no_module_imports_a_name_it_does_not_read(spans):
    # __init__ imports only to re-export; a name the tracer wraps by module
    # attribute is bound for it alone, and goes when the tracer does
    traced = {(module.__name__.rpartition(".")[2], attr) for module, attr, *_ in spans.TARGETS}
    unread = {
        (path.stem, name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "__init__"
        for name in _unread_imports(path)
    }
    assert unread - traced == set()
    assert unread == {("codec", "bisect_root"), ("codec", "rate_root")}
