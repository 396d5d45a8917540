"""The result corpus: the sha256 of every pinned result, by case label.

``CASES`` maps a label to its call and to whether the call needs numpy: the
README.md commands through ``cli.main`` (the result is the stdout), the
Cover-Leung witnesses (a string of their entropies, rate and marginals) and
the oracles. ``corpus.json`` holds the sha256 of each result's text, a ``str``
as it is and anything else by its ``repr``. An intended change of results
rewrites it (a numpy build can move an oracle's last bits): ``python
tests/corpus.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from union_channel.capacity import avg_feedback_capacity, cover_leung_witness  # noqa: E402
from union_channel.cli import main  # noqa: E402
from union_channel.oracle import (  # noqa: E402
    grid_max_joint_entropy, interpolate_to_theta, random_feasible_sampler, two_level_value)

CORPUS = Path(__file__).with_name("corpus.json")

README_COMMANDS = (
    "capacity --q 4", "table --q-max 6", "params --q 2 --n-max 17",
    "lemma --q 2 --theta 0.75 --resolution 1e-4",
    "lemma --q 5 --theta 0.5 --samples 100000 --seed 7",
    "codec --q 2 --n 17 --m 13 --B 3 --trials 1000 --seed 1",
)

# below 1/3 (the q=3 grid's disjoint side), around 1/2 (q=2's degenerate denominator), ends
GRID_THETAS = (0.0, 0.001, 0.05, 0.2, 0.45, 0.5, 0.6, 0.9, 1.0)


class Case(NamedTuple):
    call: Callable[[], object]
    numpy: bool


def digest(result: object) -> str:
    """The sha256 of a result's text: a ``str`` as it is, anything else by ``repr``."""
    text = result if isinstance(result, str) else repr(result)
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv.split())
    if status != 0:
        raise RuntimeError(f"{argv!r} exited with status {status}")
    return out.getvalue()


def _fingerprint(q: int, theta: float) -> str:
    w = cover_leung_witness(q, theta)
    return repr((w.h_x1_given_u, w.h_x2_given_u, w.h_output, w.symmetric_rate,
                 list(w.pair_marginal.items()), list(w.joint.items())))


def _cases() -> dict[str, Case]:
    argvs = [f"{command} --format {fmt}" for command in README_COMMANDS
             for fmt in ("table", "csv", "jsonl")  # no table of 1000 codec trials
             if not (fmt == "table" and command.startswith("codec"))] + [
        # many blocks, so the true index is tracked far past the README's B=3
        "codec --q 2 --n 12 --m 9 --B 200 --trials 3 --seed 1 --format jsonl",
        "codec --q 3 --n 10 --m 7 --B 20 --trials 50 --seed 1 --format csv",
        # the benchmark's table, whose sha256 perfbench/pins.json also holds
        "table --q-max 1000 --format csv",
    ]
    cases = {argv: Case(partial(_stdout, argv), argv.startswith("lemma ")) for argv in argvs}
    for q in range(2, 13):
        lo, hi = 1.0 / q, 2.0 / (q + 1)
        inside = [lo + k * (hi - lo) / 6 for k in range(1, 6)]
        for theta in [lo, avg_feedback_capacity(q).theta_star, hi, *inside]:
            cases[f"cover_leung_witness({q}, {theta!r})"] = Case(
                partial(_fingerprint, q, theta), False)
    # the sampler: one chunk a batch at 3000 samples, two at 30k
    calls = [partial(random_feasible_sampler, q, theta, 3000, seed=seed) for q in range(2, 9)
             for theta in (1.0 / q, 0.5, 0.8, 0.9999) for seed in (0, 1, 7)]
    calls += [partial(random_feasible_sampler, q, 0.7, 30_000, seed=2) for q in (3, 5)]
    calls += [partial(grid_max_joint_entropy, 2, theta, step)
              for step in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4) for theta in GRID_THETAS]
    calls += [partial(grid_max_joint_entropy, 3, theta, step, seed=seed, refinements=refinements)
              for step in (0.5, 0.25, 0.1, 0.05, 0.02) for theta in GRID_THETAS + (1.0 / 3.0,)
              for seed, refinements in ((0, 2000), (5, 0))]
    # the default steps, with few refinements and then with the default count
    for theta in (0.0, 0.3, 0.7):
        calls += [partial(grid_max_joint_entropy, 2, theta, None),
                  partial(grid_max_joint_entropy, 3, theta, None, refinements=3000)]
    calls.append(partial(grid_max_joint_entropy, 3, 0.45))
    calls += [partial(two_level_value, q, theta, r) for q in (2, 3, 5, 8)
              for theta in (1.0 / q, 0.5, 0.75, 1.0) for r in range(1, q)]
    calls += [partial(interpolate_to_theta, a, b, target) for a, b, targets in (
        ((0.5, 0.5), (1.0, 0.0), (0.5,)),
        ((1.0, 0.0), (0.0, 1.0), (0.0, 0.1, 0.3, 0.5)),
        ((0.7, 0.2, 0.1), (0.6, 0.3, 0.1), (0.3334, 0.4, 0.49)),
        ((1.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.05, 0.2, 1.0 / 3.0)),
    ) for target in targets]
    for c in calls:
        args = [repr(a) for a in c.args] + [f"{k}={v!r}" for k, v in c.keywords.items()]
        cases[f"{c.func.__name__}({', '.join(args)})"] = Case(c, c.func is not two_level_value)
    return cases


CASES = _cases()


if __name__ == "__main__":
    results = {label: digest(case.call()) for label, case in CASES.items()}
    CORPUS.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}")
