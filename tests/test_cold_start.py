"""numpy loads only where an oracle runs.

Each case runs in a fresh interpreter, since this test process has numpy
loaded already. The last line of the child's stdout says whether numpy was
in ``sys.modules`` when it ended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import union_channel

SRC = Path(union_channel.__file__).resolve().parents[1]


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def _loads_numpy(code: str) -> bool:
    proc = _run(f"import sys\n{code}\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def _cli(argv: str) -> str:
    return f"from union_channel.cli import main\nmain({argv.split()!r})"


@pytest.mark.parametrize(
    "code",
    [
        "import union_channel",
        "from union_channel import capacity, cli, codec, entropy, oracle",
        _cli("capacity --q 4"),
        _cli("table --q-max 6 --format csv"),
        _cli("params --q 2 --n-max 17"),
        _cli("codec --q 2 --n 17 --m 13 --B 3 --trials 20 --seed 1"),
    ],
    ids=["package", "modules", "capacity", "table", "params", "codec"],
)
def test_numpy_stays_unloaded_without_an_oracle(code):
    assert not _loads_numpy(code)


@pytest.mark.parametrize(
    "code",
    [
        "import union_channel as uc\nuc.grid_max_joint_entropy(2, 0.75)",
        _cli("lemma --q 2 --theta 0.75 --resolution 0.01"),
    ],
    ids=["grid", "lemma"],
)
def test_an_oracle_run_loads_numpy(code):
    assert _loads_numpy(code)


def test_first_oracle_call_binds_numpy_itself():
    code = (
        "import sys\n"
        "from union_channel import oracle\n"
        "assert 'numpy' not in sys.modules\n"
        "oracle.random_feasible_sampler(3, 0.5, 60)\n"
        "print(oracle.np is sys.modules['numpy'])"
    )
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_lemma_without_numpy_is_refused_in_one_line():
    # a None entry in sys.modules makes `import numpy` fail as if it were missing
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from union_channel import oracle\n"
        "from union_channel.cli import main\n"
        "def never(*args, **kwargs):\n"
        "    raise AssertionError('an oracle ran before the refusal')\n"
        "oracle.grid_max_joint_entropy = oracle.random_feasible_sampler = never\n"
        "sys.exit(main(['lemma', '--q', '2', '--theta', '0.75']))"
    )
    proc = _run(code)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "refused: lemma runs the oracles, which need numpy, and numpy is not installed\n"
    )
