"""The oracle corpus: one sha256 of ``repr(result)`` per oracle case.

``CASES`` lists the calls: the sampler, both grids (with and without the q=3
refinements, and at their default steps), the two-level family and
``interpolate_to_theta``. ``oracle_corpus.json`` next to this file holds the
digest of each call's result, and ``test_oracle_corpus.py`` recomputes them
and names every case whose result moved. A change that claims identical
results leaves the file as it is; a change that moves a result on purpose
rewrites it and lists the moved cases:

    python tests/oracle_corpus.py

A numpy build can change the last bits of an oracle result, so a failure
is read against the numpy version that ran.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from union_channel.oracle import (  # noqa: E402
    grid_max_joint_entropy,
    interpolate_to_theta,
    random_feasible_sampler,
    two_level_value,
)

CORPUS = Path(__file__).with_name("oracle_corpus.json")

# thetas across [0, 1]: below 1/3 (the q=3 grid's disjoint side), around 1/2
# (the q=2 grid's degenerate denominator) and at both ends
GRID_THETAS = (0.0, 0.001, 0.05, 0.2, 0.45, 0.5, 0.6, 0.9, 1.0)


def _label(name: str, *args, **kwargs) -> str:
    parts = [repr(a) for a in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
    return f"{name}({', '.join(parts)})"


def _cases() -> dict[str, partial]:
    calls = []
    # the sampler: one chunk a batch at 3000 samples, two at 30k
    for q in range(2, 9):
        for theta in (1.0 / q, 0.5, 0.8, 0.9999):
            for seed in (0, 1, 7):
                calls.append(partial(random_feasible_sampler, q, theta, 3000, seed=seed))
    for q in (3, 5):
        calls.append(partial(random_feasible_sampler, q, 0.7, 30_000, seed=2))
    for step in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4):
        for theta in GRID_THETAS:
            calls.append(partial(grid_max_joint_entropy, 2, theta, step))
    for step in (0.5, 0.25, 0.1, 0.05, 0.02):
        for theta in GRID_THETAS + (1.0 / 3.0,):
            for seed, refinements in ((0, 2000), (5, 0)):
                calls.append(
                    partial(grid_max_joint_entropy, 3, theta, step,
                            seed=seed, refinements=refinements)
                )
    # the default steps, with few refinements and then with the default count
    for theta in (0.0, 0.3, 0.7):
        calls.append(partial(grid_max_joint_entropy, 2, theta, None))
        calls.append(partial(grid_max_joint_entropy, 3, theta, None, refinements=3000))
    calls.append(partial(grid_max_joint_entropy, 3, 0.45))
    for q in (2, 3, 5, 8):
        for theta in (1.0 / q, 0.5, 0.75, 1.0):
            for r in range(1, q):
                calls.append(partial(two_level_value, q, theta, r))
    for a, b, targets in (
        ((0.5, 0.5), (1.0, 0.0), (0.5,)),
        ((1.0, 0.0), (0.0, 1.0), (0.0, 0.1, 0.3, 0.5)),
        ((0.7, 0.2, 0.1), (0.6, 0.3, 0.1), (0.3334, 0.4, 0.49)),
        ((1.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.05, 0.2, 1.0 / 3.0)),
    ):
        for target in targets:
            calls.append(partial(interpolate_to_theta, a, b, target))
    return {_label(c.func.__name__, *c.args, **c.keywords): c for c in calls}


CASES = _cases()


def digests() -> dict[str, str]:
    """The sha256 of ``repr`` of every case's result, by case label."""
    return {
        label: hashlib.sha256(repr(call()).encode()).hexdigest()
        for label, call in CASES.items()
    }


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}")
