"""Every Cover–Leung witness in the committed corpus, recomputed and compared by sha256.

See ``witness_corpus.py`` for the cases and for how to rewrite the corpus
after an intended change of results.
"""

from witness_corpus import CASES, moved


def test_witness_corpus_is_unchanged():
    changed = moved()
    assert not changed, (
        f"{len(changed)} of {len(CASES)} witnesses moved:\n" + "\n".join(changed)
    )
