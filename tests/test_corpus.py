"""Every case of ``corpus.py`` recomputed, one test each, against ``corpus.json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import CASES, CORPUS, digest

EXPECTED = json.loads(CORPUS.read_text())
PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
TABLE_CASE = "table --q-max 1000 --format csv"


def test_corpus_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("label", CASES)
def test_result_matches_corpus(label):
    assert digest(CASES[label].call()) == EXPECTED.get(label)


def test_table_digest_is_the_benchmark_pin():
    # the benchmark's analysis workload checks the same table bytes against this pin
    assert EXPECTED[TABLE_CASE] == json.loads(PINS.read_text())["table_csv_sha256"]


def dispatched_features() -> list[str]:
    """numpy's CPU features above its baseline that it dispatches to and this host enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


# run in the tests directory: still-enabled features, then the numpy cases' digests
_BASELINE_RUN = """
import json
from corpus import CASES, digest
from test_corpus import dispatched_features
print(json.dumps([dispatched_features(),
                  {label: digest(case.call()) for label, case in CASES.items() if case.numpy}]))
"""


def test_numpy_cases_match_the_corpus_on_numpy_baseline_kernels():
    # numpy picks its SIMD kernels at run time, and a float64 log can differ by
    # 1 ulp between them; a runner without this host's features would run the
    # baseline kernels, so the oracles' digests must hold there too
    features = dispatched_features()
    if not features:
        pytest.skip("numpy dispatches no CPU feature above its baseline on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    run = subprocess.run([sys.executable, "-c", _BASELINE_RUN], cwd=Path(__file__).parent,
                         env=env, capture_output=True, text=True, check=True)
    enabled, digests = json.loads(run.stdout)
    assert enabled == []
    assert digests == {label: EXPECTED[label] for label, case in CASES.items() if case.numpy}
