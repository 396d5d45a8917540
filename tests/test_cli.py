import csv
import io
import json

import pytest

from union_channel import avg_feedback_capacity, rate_root
from union_channel.cli import main


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


def test_capacity_usage_error_q1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--q", "1"])
    assert exc.value.code == 2


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


def test_table_rejects_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--q-max", "1001"])
    assert exc.value.code == 2


def test_lemma_grid_pass(capsys):
    code, out, _ = run_cli(
        capsys, "lemma", "--q", "2", "--theta", "0.75", "--resolution", "1e-3"
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "q, theta, resolution, message",
    [
        ("2", "0.75", "0", "resolution must lie in (0, 0.5], got 0.0"),
        ("2", "0.75", "-1", "resolution must lie in (0, 0.5], got -1.0"),
        ("2", "0.75", "0.9", "resolution must lie in (0, 0.5], got 0.9"),
        ("2", "0.75", "nan", "resolution must lie in (0, 0.5], got nan"),
        ("3", "0.5", "1e-5", "simplex grid step below 1e-3"),
    ],
)
def test_lemma_refuses_bad_resolution_in_one_line(capsys, q, theta, resolution, message):
    code, out, err = run_cli(
        capsys, "lemma", "--q", q, "--theta", theta, "--resolution", resolution
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("refused: ")
    assert message in err


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


def test_lemma_infeasible_without_sampler(capsys):
    code, _, err = run_cli(capsys, "lemma", "--q", "4", "--theta", "0.5")
    assert code == 1
    assert "infeasible" in err


def test_lemma_sampler_below_uniform_theta(capsys):
    code, _, err = run_cli(
        capsys, "lemma", "--q", "5", "--theta", "0.1", "--samples", "100"
    )
    assert code == 1
    assert "theta >= 1/q" in err


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


def test_codec_refuses_infeasible(capsys):
    code, _, err = run_cli(
        capsys, "codec", "--q", "2", "--n", "17", "--m", "17", "--B", "1"
    )
    assert code == 1
    assert "lhs=131072" in err
    assert "rhs=1" in err


@pytest.mark.parametrize(
    "q, n, m, message",
    [
        ("300", "3", "2", "q must be <= 255, got 300"),
        ("2", "3", "5", "need 1 <= m <= n, got n=3, m=5"),
    ],
)
def test_codec_refuses_bad_params_in_one_line(capsys, q, n, m, message):
    code, out, err = run_cli(capsys, "codec", "--q", q, "--n", n, "--m", m, "--B", "1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert message in err


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


def test_codec_thread_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("UNION_CHANNEL_THREADS", "zero")
    with pytest.raises(SystemExit):
        main(["codec", "--q", "2", "--n", "5", "--m", "3", "--B", "1"])


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


def test_params_n_max_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--q", "2", "--n-max", "65"])
    assert exc.value.code == 2
