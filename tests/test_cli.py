import csv
import io
import json

import pytest

from test_refusals import kept_tests
from union_channel import avg_feedback_capacity, rate_root
from union_channel.cli import _workers_from_env, main

globals().update(kept_tests(__file__))  # this module's refusal rows, under their old test ids


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_table_output(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--q", "4")
    assert code == 0
    assert "0.81250" in out
    assert "0.83044" in out
    assert "0.82946" in out
    assert "chord_intersection" in out


def test_capacity_q2(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--q", "2")
    assert code == 0
    for value in ("0.75000", "0.79113", "0.77291"):
        assert value in out


def test_table_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "table", "--q-max", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["q"] for row in rows] == ["2", "3", "4", "5", "6"]
    for row in rows:
        report = avg_feedback_capacity(int(row["q"]))
        assert float(row["r_feedback"]) == report.r_feedback
        assert float(row["r_no_feedback"]) == report.r_no_feedback
        assert row["case"] == report.case


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--q-max", "2", "--format", "jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["q"] == 2


def test_lemma_grid_pass(capsys):
    code, out, _ = run_cli(
        capsys, "lemma", "--q", "2", "--theta", "0.75", "--resolution", "1e-3"
    )
    assert code == 0
    assert "PASS" in out


def test_lemma_accepts_zero_tolerance(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma", "--q", "2", "--theta", "0.75", "--resolution", "1e-3",
        "--tolerance", "0", "--format", "jsonl",
    )
    record = json.loads(out)
    assert record["tolerance"] == 0.0
    assert record["gap"] > 0  # the grid lies a hair below the closed form
    assert code == 1 and record["status"] == "FAIL"


def test_lemma_near_uniform_q3(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma", "--q", "3", "--theta", "0.3333333", "--resolution", "0.02",
        "--format", "jsonl",
    )
    assert code == 0
    record = json.loads(out)
    assert record["closed_form"] == pytest.approx(2.0, abs=1e-4)
    assert record["grid_value"] == pytest.approx(2.0, abs=1e-4)
    assert record["status"] == "PASS"


def test_lemma_sampler_q5(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma", "--q", "5", "--theta", "0.5", "--samples", "20000", "--seed", "7",
        "--format", "jsonl",
    )
    assert code == 0
    record = json.loads(out)
    assert record["sampler_value"] <= record["closed_form"] + 1e-9
    assert record["status"] == "PASS"


def test_lemma_below_uniform_theta_has_no_closed_form(capsys):
    code, out, err = run_cli(
        capsys, "lemma", "--q", "3", "--theta", "0.2", "--resolution", "0.02"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[-1].split() == ["status", "NO-CLOSED-FORM"]


def test_lemma_no_closed_form_row_reports_no_tolerance(capsys):
    # nothing is compared on that row, so no tolerance is reported, as no gap is
    argv = ["lemma", "--q", "3", "--theta", "0.2", "--resolution", "0.02"]
    code, out, _ = run_cli(capsys, *argv, "--format", "jsonl")
    record = json.loads(out)
    assert code == 0 and record["status"] == "NO-CLOSED-FORM"
    assert record["gap"] is None and record["tolerance"] is None
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    row = next(csv.DictReader(io.StringIO(out)))
    assert code == 0 and row["status"] == "NO-CLOSED-FORM"
    assert row["gap"] == row["tolerance"] == ""
    code, out, _ = run_cli(capsys, *argv)
    assert "tolerance     None" in out.splitlines()


def test_lemma_bare_samples_flag_defaults(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma", "--q", "4", "--theta", "0.5", "--samples", "--format", "jsonl",
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "PASS"
    assert record["grid_value"] is None  # q=4 has no grid oracle


def test_codec_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "codec", "--q", "3", "--n", "10", "--m", "7", "--B", "2",
        "--trials", "20", "--seed", "1",
    )
    assert code == 0
    assert "errors               0" in out
    assert "zero_error           yes" in out


def test_codec_jsonl_deterministic(capsys):
    argv = [
        "codec", "--q", "2", "--n", "5", "--m", "3", "--B", "2",
        "--trials", "10", "--seed", "3", "--format", "jsonl",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 11
    assert json.loads(lines[-1])["errors"] == 0


def test_codec_csv_trials(capsys):
    code, out, _ = run_cli(
        capsys,
        "codec", "--q", "2", "--n", "5", "--m", "3", "--B", "1",
        "--trials", "8", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert [row["trial"] for row in rows] == [str(i) for i in range(8)]
    assert all(row["ok"] == "True" for row in rows)


def test_codec_thread_env_override(capsys, monkeypatch):
    argv = [
        "codec", "--q", "2", "--n", "5", "--m", "3", "--B", "2",
        "--trials", "12", "--seed", "3", "--format", "jsonl",
    ]
    _, serial, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("UNION_CHANNEL_THREADS", "2")
    _, parallel, _ = run_cli(capsys, *argv)
    assert serial == parallel


def test_codec_thread_env_bounds(monkeypatch):
    monkeypatch.delenv("UNION_CHANNEL_THREADS", raising=False)
    assert _workers_from_env() == 1
    for raw in ("1", "64"):
        monkeypatch.setenv("UNION_CHANNEL_THREADS", raw)
        assert _workers_from_env() == int(raw)


def test_params_listing(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "2", "--n-max", "17", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(row["n"] == "17" and row["m"] == "13" for row in rows)
    top = rows[0]
    assert float(top["rate"]) == max(float(r["rate"]) for r in rows)
    root = rate_root(2)
    for row in rows:
        assert float(row["gap_to_root"]) == float(row["rate"]) - root
        assert float(row["gap_to_root"]) < 0


def test_params_empty(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "6", "--n-max", "1", "--format", "csv")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == []


def test_params_empty_table(capsys):
    # with no feasible pair the table is its header and the root line
    code, out, err = run_cli(capsys, "params", "--q", "6", "--n-max", "1")
    assert (code, err) == (0, "")
    assert out == "n  m  rate  gap_to_root\nrate_root(q=6) = 0.84952\n"


# one valid argv per subcommand; every option in it is numeric
_BASE_ARGV = [
    ["capacity", "--q", "3"],
    ["table", "--q-max", "3"],
    [
        "lemma", "--q", "2", "--theta", "0.75", "--resolution", "1e-3",
        "--samples", "1000", "--seed", "1", "--tolerance", "0.05",
    ],
    [
        "codec", "--q", "2", "--n", "5", "--m", "3", "--B", "2",
        "--trials", "2", "--seed", "1",
    ],
    ["params", "--q", "2", "--n-max", "8"],
]
_HOSTILE = {
    "0": "0", "-1": "-1", "nan": "nan", "inf": "inf", "1e-300": "1e-300",
    "1e300": "1e300", "400-digit": "1" * 400, "abc": "abc",
}


def _hostile_argvs():
    for base in _BASE_ARGV:
        for i in range(2, len(base), 2):
            for label, value in _HOSTILE.items():
                argv = base[:i] + [value] + base[i + 1 :]
                yield pytest.param(argv, id=f"{base[0]} {base[i - 1]}={label}")


@pytest.mark.parametrize("argv", _hostile_argvs())
def test_hostile_numeric_value_gets_a_one_line_answer(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        assert captured.err.count("\n") == 1
    elif code == 1:
        assert captured.err.count("\n") == 1 or (
            captured.err == "" and "FAIL" in captured.out
        )
    else:
        assert captured.err == ""
