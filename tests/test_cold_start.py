"""numpy loads only where an oracle runs, multiprocessing only for parallel trials.

Each case runs in a fresh interpreter, since this test process has both
loaded already. The child prints whether the module was in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import union_channel

SRC = Path(union_channel.__file__).resolve().parents[1]


def _run(code: str, threads: str | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("UNION_CHANNEL_THREADS", None)
    if threads is not None:
        env["UNION_CHANNEL_THREADS"] = threads
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
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


# one interpreter runs the steps in turn and reports after each one
SERIAL_STEPS = {
    "package": "import union_channel",
    "capacity": _cli("capacity --q 4"),
    "table": _cli("table --q-max 6 --format csv"),
    "params": _cli("params --q 2 --n-max 17"),
    "codec": _cli("codec --q 2 --n 17 --m 13 --B 3 --trials 20 --seed 1"),
    "lemma": _cli("lemma --q 2 --theta 0.75 --resolution 0.01"),
}


def test_multiprocessing_stays_unloaded_without_parallel_trials():
    code = "import sys\n" + "".join(
        f"{step}\nprint('@{name}', 'multiprocessing' in sys.modules)\n"
        for name, step in SERIAL_STEPS.items()
    )
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
    reports = [line.split() for line in proc.stdout.splitlines() if line.startswith("@")]
    assert reports == [[f"@{name}", "False"] for name in SERIAL_STEPS]


def test_parallel_trials_load_multiprocessing():
    code = (
        "import sys\n"
        "import union_channel\n"
        "print('multiprocessing' in sys.modules)\n"
        + _cli("codec --q 2 --n 5 --m 3 --B 2 --trials 4 --seed 1 --format csv")
        + "\nprint('multiprocessing' in sys.modules)"
    )
    proc = _run(code, threads="2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "True")
