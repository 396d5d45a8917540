"""Certify exact decoding for every block count on codes too large for tier-1.

Runs the two per-block checks of ``tests/test_codec_bijection.py`` on each
code below: the decoder's walk back inverts one block step at every index
below the peak (inverse), and the steps from every set size fill exactly
the sets they can land in (onto). Together they make decoding exact for any
number of blocks, by induction over the blocks. Prints each check's case
count and time, and exits 1 if any check fails:
``PYTHONPATH=src python tools/block_certificate.py`` (it needs pytest and
Hypothesis, which the test modules import).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_codec_bijection import (  # noqa: E402
    test_block_step_fills_every_set_it_can_land_in as onto,
    test_block_step_is_inverted_by_the_walk_back as inverse,
)

from union_channel import uncertainty_peak_bound  # noqa: E402

# feasible (q, n, m) codes past tier-1's six: about 70 s in all on a 2-vCPU
# x86-64 host, 18 s of it the 1,048,576 inverse cases of (4, 5, 4)
CODES = [
    (2, 7, 4), (3, 5, 3), (4, 4, 3), (2, 7, 5), (5, 4, 2),
    (2, 8, 4), (5, 4, 3), (2, 8, 5), (3, 6, 3), (2, 8, 6),
    (4, 5, 3), (3, 6, 4), (4, 5, 4), (2, 9, 5), (2, 9, 6),
]


def run() -> int:
    failures = 0
    started = time.perf_counter()
    for q, n, m in CODES:
        peak = uncertainty_peak_bound(n, m)
        # inverse: every index below the peak and every pair of block digit
        # strings; onto: every size up to the peak and every output sequence
        for name, check, cases in (
            ("inverse", inverse, peak * q ** (2 * m)),
            ("onto", onto, peak * (q * (q + 1) // 2) ** n),
        ):
            start = time.perf_counter()
            try:
                check(q, n, m)
                verdict = "ok"
            except AssertionError as exc:
                failures += 1
                verdict = f"FAIL {exc}".splitlines()[0].rstrip()
            print(
                f"({q},{n},{m}) {name:<7} {cases:>9} cases "
                f"{time.perf_counter() - start:6.2f} s  {verdict}",
                flush=True,
            )
    print(
        f"{2 * len(CODES) - failures}/{2 * len(CODES)} block-step checks passed "
        f"in {time.perf_counter() - started:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
