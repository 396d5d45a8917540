"""Fail when tier-1 leaves a line of ``src/union_channel`` unrun.

Runs the tier-1 suite in this process under a line tracer, without
acceptance criterion 8 (about 3M pattern round trips through code the rest
of the suite runs too), and lists every line of ``src/union_channel`` that
holds code but never ran. The tracer is the standard library's
``sys.settrace``. Lines that only a subprocess or a pool worker runs count
as unrun.

    python tools/unrun_lines.py

Exits 0 when every unrun line is in ``ALLOWED``, 1 when another one is left
or an ``ALLOWED`` entry matches no line, and with pytest's status when the
suite fails.
"""

from __future__ import annotations

import os
import sys
import types
from collections.abc import Callable, Iterable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "union_channel"
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_acceptance.py::test_criterion_8_combinatorics",
]

# (module file, stripped source text) of the lines allowed to stay unrun, keyed
# by text so that an edit above them does not move them
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the body of the module's __main__ guard",
}


def code_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` hold."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(run: Callable[[], int], files: Iterable[str]) -> tuple[int, set[tuple[str, int]]]:
    """Call ``run`` and return its result with the (file, line) pairs of ``files`` it ran."""
    files = frozenset(files)
    ran: set[tuple[str, int]] = set()

    def local(frame: types.FrameType, event: str, arg: object) -> Callable:
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame: types.FrameType, event: str, arg: object) -> Callable | None:
        return local if frame.f_code.co_filename in files else None

    sys.settrace(on_call)  # this thread only: no src code runs in another one
    try:
        return run(), ran
    finally:
        sys.settrace(None)


def main() -> int:
    import pytest  # the suite's runner; the tracer itself is the standard library's

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    paths = {str(p): p for p in sorted(SRC.glob("*.py"))}
    status, ran = traced(lambda: pytest.main(PYTEST_ARGS), paths)
    if status != 0:
        print(f"the suite failed under the tracer (pytest exit {status})")
        return int(status)
    unrun, matched = [], set()
    for name, path in paths.items():
        text = path.read_text().splitlines()
        for line in sorted(code_lines(path)):
            if (name, line) in ran:
                continue
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                matched.add(key)
            else:
                unrun.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    stale = [f"{name}: {text!r}" for name, text in ALLOWED if (name, text) not in matched]
    for entry in unrun:
        print(f"UNRUN  {entry}")
    for entry in stale:
        print(f"STALE  allowed but not left unrun: {entry}")
    print(f"{len(unrun)} unrun lines outside the {len(ALLOWED)} allowed; "
          f"{len(stale)} allowed entries not found unrun")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main())
