"""Check every corpus case that needs no numpy, on the standard library alone.

Compares the sha256 of each such case of ``tests/corpus.py`` (codec trials on
one worker) with ``tests/corpus.json``, and checks that neither numpy nor
multiprocessing was imported. It needs neither numpy nor pytest, so it runs
before any dependency is installed: ``python tools/golden_stdlib.py``. The
exit status is 0 when every case matches and both modules stayed unloaded.
"""

import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from corpus import CASES, CORPUS, digest  # noqa: E402


def run() -> int:
    os.environ.pop("UNION_CHANNEL_THREADS", None)  # one worker: no process pool
    expected = json.loads(CORPUS.read_text())
    labels = [label for label, case in CASES.items() if not case.numpy]
    moved = [label for label in labels if digest(CASES[label].call()) != expected.get(label)]
    loaded = [name for name in ("numpy", "multiprocessing") if name in sys.modules]
    for failure in moved + [f"{name} was imported" for name in loaded]:
        print(f"FAIL  {failure}")
    state = f"{' and '.join(loaded)} loaded" if loaded else "numpy and multiprocessing not loaded"
    print(f"{len(labels) - len(moved)}/{len(labels)} cases that need no numpy match "
          f"on Python {platform.python_version()}; {state}")
    return 1 if moved or loaded else 0


if __name__ == "__main__":
    sys.exit(run())
