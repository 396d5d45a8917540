"""Per-call times of the oracles, the witnesses and the table, and numpy's draws' share.

Times one call each of the q=2 grid at step 1e-4, the q=3 grid at step 1e-2
(with its default 100k refinements), the sampler at 100k samples for q=3
and q=5, the Cover–Leung witness at ``theta_star`` for q=5, 8 and 10, and
``union-channel table --q-max 1000 --format csv`` (in process, its output
discarded), as the best of 7 repeats of 3 calls. A second set of repeats
wraps the oracles' generator so that every ``gamma`` and ``normal`` draw is
timed, and prints the best total spent in them next to the call's time:

    python tools/oracle_timings.py

These are the figures the README quotes. The draws' bits cannot change
without moving every sampled result, so their share is the floor that any
faster evaluation of the drawn rows leaves.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
import timeit
from functools import partial
from pathlib import Path
from time import perf_counter
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from union_channel.capacity import avg_feedback_capacity, cover_leung_witness  # noqa: E402
from union_channel.cli import main as cli_main  # noqa: E402
from union_channel.oracle import (  # noqa: E402
    grid_max_joint_entropy,
    random_feasible_sampler,
)

REPEATS, NUMBER = 7, 3

CALLS = {
    "grid_max_joint_entropy(2, 0.7, 1e-4)": lambda: grid_max_joint_entropy(2, 0.7, 1e-4),
    "grid_max_joint_entropy(3, 0.7, 1e-2)": lambda: grid_max_joint_entropy(3, 0.7, 1e-2),
    "random_feasible_sampler(3, 0.7, 100_000)": lambda: random_feasible_sampler(
        3, 0.7, 100_000
    ),
    "random_feasible_sampler(5, 0.7, 100_000)": lambda: random_feasible_sampler(
        5, 0.7, 100_000
    ),
}
for _q in (5, 8, 10):
    CALLS[f"cover_leung_witness({_q}, theta_star)"] = partial(
        cover_leung_witness, _q, avg_feedback_capacity(_q).theta_star
    )


def _table() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["table", "--q-max", "1000", "--format", "csv"])


CALLS["table --q-max 1000 --format csv"] = _table


class _TimedDraws:
    """A numpy Generator whose methods add the time they take to ``spent``.

    Each one, copies included, is listed in ``generators``.
    """

    def __init__(self, rng: np.random.Generator, generators: list) -> None:
        self._rng = rng
        self._generators = generators
        self.spent = 0.0
        generators.append(self)

    def __deepcopy__(self, memo: dict) -> _TimedDraws:
        # the q=3 grid draws its refinements' first side again from a copy
        return _TimedDraws(copy.deepcopy(self._rng, memo), self._generators)

    def __getattr__(self, name: str):
        draw = getattr(self._rng, name)

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return draw(*args, **kwargs)
            finally:
                self.spent += perf_counter() - start

        return timed


def draw_time(call) -> float:
    """Best of ``REPEATS`` per-call times spent inside the generator's draws."""
    default_rng, generators = np.random.default_rng, []

    def timed_rng(seed):
        return _TimedDraws(default_rng(seed), generators)

    best = float("inf")
    with mock.patch.object(np.random, "default_rng", timed_rng):
        for _ in range(REPEATS):
            generators.clear()
            for _ in range(NUMBER):
                call()
            best = min(best, sum(g.spent for g in generators) / NUMBER)
    return best


def main() -> None:
    print(f"{'call':42} {'best of 7':>10} {'numpy draws':>20}")
    for label, call in CALLS.items():
        call()  # warm: the first call imports numpy's pieces
        per_call = min(timeit.repeat(call, number=NUMBER, repeat=REPEATS)) / NUMBER
        draws = draw_time(call)
        share = f"{draws * 1e3:.1f} ms ({draws / per_call:.0%})" if draws else "-"
        print(f"{label:42} {per_call * 1e3:7.2f} ms {share:>20}")


if __name__ == "__main__":
    main()
