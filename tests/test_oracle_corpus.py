"""Every oracle result in the committed corpus, recomputed and compared by sha256.

See ``oracle_corpus.py`` for the cases and for how to rewrite the corpus
after an intended change of results.
"""

import json

from oracle_corpus import CASES, CORPUS, digests


def test_oracle_corpus_is_unchanged():
    expected = json.loads(CORPUS.read_text())
    assert sorted(expected) == sorted(CASES)
    actual = digests()
    moved = [label for label in CASES if actual[label] != expected[label]]
    assert not moved, (
        f"{len(moved)} of {len(CASES)} oracle results moved:\n" + "\n".join(moved)
    )
