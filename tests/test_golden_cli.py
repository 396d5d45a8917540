"""Golden stdout for every CLI example in README.md, and for multi-block codec runs.

Each README command runs through ``cli.main`` in process, in the ``csv`` and
``jsonl`` formats and, except for the 1000-trial ``codec`` run, in the human
``table`` format. The multi-block codec runs (many blocks, so the true index
is tracked far past the README's B=3) run in one format each. The sha256 of
its stdout and its exit status must match ``golden_cli.json``. The file pins
output bytes so that a refactor can show it changed none; re-record it only
for an intended change of output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from union_channel.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())

README_COMMANDS = [
    "capacity --q 4",
    "table --q-max 6",
    "lemma --q 2 --theta 0.75 --resolution 1e-4",
    "lemma --q 5 --theta 0.5 --samples 100000 --seed 7",
    "codec --q 2 --n 17 --m 13 --B 3 --trials 1000 --seed 1",
    "params --q 2 --n-max 17",
]

MULTI_BLOCK_CASES = [
    "codec --q 2 --n 12 --m 9 --B 200 --trials 3 --seed 1 --format jsonl",
    "codec --q 3 --n 10 --m 7 --B 20 --trials 50 --seed 1 --format csv",
]

CASES = [
    f"{command} --format {fmt}"
    for command in README_COMMANDS
    for fmt in ("table", "csv", "jsonl")
    if not (fmt == "table" and command.startswith("codec"))
] + MULTI_BLOCK_CASES


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_stdout_matches_golden(capsys, case):
    status = main(case.split())
    out = capsys.readouterr().out
    assert status == GOLDEN[case]["status"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]["sha256"]
