"""Every case of ``corpus.py`` recomputed, one test each, against ``corpus.json``."""

import json

import pytest

from corpus import CASES, CORPUS, digest

EXPECTED = json.loads(CORPUS.read_text())


def test_corpus_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("label", CASES)
def test_result_matches_corpus(label):
    assert digest(CASES[label].call()) == EXPECTED.get(label)
