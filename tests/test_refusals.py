"""Runs each row of ``refusals.py`` in the module its id names, which binds the rows
with ``globals().update(kept_tests(__file__))``; this module runs the ``NEW`` rows."""

import time
from collections import Counter
from pathlib import Path

import pytest

from refusals import ROWS, Row
from union_channel.cli import main


class Untouched:
    """Stands in for a name a refusing call must not use: any read or call fails."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} read before the refusal")

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} called before the refusal")


def check_row(row: Row, monkeypatch, request) -> None:
    for name in row.untouched:
        monkeypatch.setattr(name, Untouched(name))
    if callable(row.call):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            row.call()
        assert not row.fast or time.perf_counter() - start < 0.1
        assert str(info.value) == row.text
        return
    capsys = request.getfixturevalue("capsys")  # only here: it slows each test that takes it
    for key, value in (row.env or {}).items():
        monkeypatch.setenv(key, value)
    try:
        status = main(list(row.call))
    except SystemExit as exc:
        status = exc.code
    expected = 1 if row.text.startswith(("refused: ", "infeasible: ")) else 2
    assert (status, *capsys.readouterr()) == (expected, "", row.text + "\n")


def kept_tests(path: str) -> dict:
    """The tests that run the rows of the module at ``path``, by name."""
    by_test = {}
    for r in ROWS:
        test, _, param = r.id.partition("[")
        module, _, name = test.partition("::")
        if module == Path(path).stem:  # not __name__, which the import mode sets
            by_test.setdefault(name, []).append((param[:-1], r))
    tests = {}
    for name, params in by_test.items():
        ids, rows = zip(*params)
        if ids[0]:
            def test(row, monkeypatch, request):
                check_row(row, monkeypatch, request)

            test = pytest.mark.parametrize("row", rows, ids=ids)(test)
        else:  # a test that took no parameters runs its rows in turn
            def test(monkeypatch, request, rows=rows):
                for r in rows:
                    check_row(r, monkeypatch, request)
        test.__name__ = name
        tests[name] = test
    return tests


globals().update(kept_tests(__file__))


def test_every_row_is_run_by_the_module_its_id_names():
    # a row whose module does not bind the table would be collected nowhere
    for module in {r.id.split("::")[0] for r in ROWS}:
        source = (Path(__file__).parent / f"{module}.py").read_text()
        assert "\nglobals().update(kept_tests(__file__))" in source, module


def test_row_ids_are_unique():
    # pytest would rename a repeated id by a suffix of its own; the rows of a test
    # that took no parameters share its id and run in turn
    ids = Counter(r.id for r in ROWS if r.id.endswith("]"))
    assert [id for id, count in ids.items() if count > 1] == []
