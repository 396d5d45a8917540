"""Check the golden CLI output on this interpreter, with the standard library only.

Runs every case of ``tests/golden_cli.json`` except ``lemma`` (the one
command that needs numpy) through ``cli.main`` in process, with codec trials
on one worker, compares the sha256 of its stdout and its exit status with the
golden record, then recomputes every Cover–Leung witness of
``tests/witness_corpus.json``, and checks that neither numpy nor
multiprocessing was ever imported. It needs neither numpy nor pytest, so it
runs on a bare interpreter, before any dependency is installed:

    python tools/golden_stdlib.py

The exit status is 0 when every case matches and both modules stayed unloaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from union_channel.cli import main  # noqa: E402
from witness_corpus import CASES as WITNESS_CASES, moved  # noqa: E402


def run() -> int:
    os.environ.pop("UNION_CHANNEL_THREADS", None)  # one worker: no process pool
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    cases = [case for case in golden if not case.startswith("lemma ")]
    failures = 0
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(case.split())
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        expected = golden[case]
        if (status, digest) != (expected["status"], expected["sha256"]):
            failures += 1
            print(f"FAIL  {case}: status {status}, sha256 {digest}")
    witnesses_moved = moved()
    for label in witnesses_moved:
        print(f"FAIL  {label}: sha256 differs from tests/witness_corpus.json")
    loaded = [name for name in ("numpy", "multiprocessing") if name in sys.modules]
    for name in loaded:
        print(f"FAIL  {name} was imported")
    state = f"{' and '.join(loaded)} loaded" if loaded else "numpy and multiprocessing not loaded"
    print(f"{len(cases) - failures}/{len(cases)} golden cases and "
          f"{len(WITNESS_CASES) - len(witnesses_moved)}/{len(WITNESS_CASES)} witnesses "
          f"match on Python {platform.python_version()}; {state}")
    return 1 if failures or witnesses_moved or loaded else 0


if __name__ == "__main__":
    sys.exit(run())
