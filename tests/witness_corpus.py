"""The witness corpus: one sha256 per Cover–Leung witness case.

``CASES`` lists ``cover_leung_witness(q, theta)`` for q = 2..12 at theta =
1/q, the capacity's ``theta_star``, 2/(q+1) and five points evenly inside
[1/q, 2/(q+1)] (a theta that two of these name is one case).
``witness_corpus.json`` next to this file holds the sha256 of ``repr`` of
each witness's entropies, ``symmetric_rate``, ``pair_marginal`` items and
``joint`` items, in that order. ``test_witness_corpus.py`` and
``tools/golden_stdlib.py`` (the standard library alone) recompute them and
name every case that moved. A change that claims identical witnesses leaves
the file as it is; one that moves a witness on purpose rewrites it:

    python tests/witness_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from union_channel.capacity import avg_feedback_capacity, cover_leung_witness  # noqa: E402

CORPUS = Path(__file__).with_name("witness_corpus.json")


def _cases() -> dict[str, partial]:
    cases = {}
    for q in range(2, 13):
        lo, hi = 1.0 / q, 2.0 / (q + 1)
        inside = [lo + k * (hi - lo) / 6 for k in range(1, 6)]
        for theta in [lo, avg_feedback_capacity(q).theta_star, hi, *inside]:
            cases[f"cover_leung_witness({q}, {theta!r})"] = partial(
                cover_leung_witness, q, theta
            )
    return cases


CASES = _cases()


def _fingerprint(witness) -> str:
    return repr((
        witness.h_x1_given_u,
        witness.h_x2_given_u,
        witness.h_output,
        witness.symmetric_rate,
        list(witness.pair_marginal.items()),
        list(witness.joint.items()),
    ))


def digests() -> dict[str, str]:
    """The sha256 of every case's fingerprint, by case label."""
    return {
        label: hashlib.sha256(_fingerprint(call()).encode()).hexdigest()
        for label, call in CASES.items()
    }


def moved() -> list[str]:
    """The labels whose digest differs from the committed corpus (or is missing)."""
    expected = json.loads(CORPUS.read_text())
    actual = digests()
    return [label for label in sorted(expected.keys() | actual.keys())
            if expected.get(label) != actual.get(label)]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}")
