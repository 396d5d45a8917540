import csv
import io
import json

import pytest

from union_channel import avg_feedback_capacity, oracle, rate_root
from union_channel.cli import _workers_from_env, main
from union_channel.entropy import MAX_ALPHABET


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


@pytest.mark.parametrize("command", ["capacity", "lemma", "codec", "params"])
def test_every_q_option_stops_at_the_library_alphabet_cap(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", str(MAX_ALPHABET + 1)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"union-channel {command}: error: argument --q: must be in [2, {MAX_ALPHABET}], "
        f"got {MAX_ALPHABET + 1}\n"
    )


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
        # the step's interval is closed and starts at the per-q floor, above 0
        ("2", "0.75", "0", "resolution must lie in [1e-06, 0.5], got 0.0"),
        ("2", "0.75", "-1", "resolution must lie in [1e-06, 0.5], got -1.0"),
        ("2", "0.75", "0.9", "resolution must lie in [1e-06, 0.5], got 0.9"),
        ("2", "0.75", "nan", "resolution must lie in [1e-06, 0.5], got nan"),
        ("3", "0.5", "1e-5", "resolution must lie in [0.001, 0.5], got 1e-05"),
        ("2", "0.75", "1e-8", "resolution must lie in [1e-06, 0.5], got 1e-08"),
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


@pytest.mark.parametrize("q, resolution", [("4", "-5"), ("4", "0.01"), ("5", "nan")])
def test_lemma_refuses_resolution_without_grid(capsys, q, resolution):
    code, out, err = run_cli(
        capsys,
        "lemma", "--q", q, "--theta", "0.5", "--samples", "1000",
        "--resolution", resolution,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("refused: --resolution")
    assert f"got q={q}" in err


@pytest.mark.parametrize(
    "q, samples", [("2", "5000001"), ("5", "2000001"), ("4", "1000000000000")]
)
def test_lemma_refuses_sampler_above_cap_in_one_line(capsys, q, samples):
    code, out, err = run_cli(
        capsys, "lemma", "--q", q, "--theta", "0.5", "--samples", samples
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"refused: --samples {samples} at q={q}")
    assert "at most 10000000" in err


@pytest.mark.parametrize("q", ["2", "3", "5"])
def test_lemma_refuses_negative_seed_at_parse_time(capsys, q):
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "--q", q, "--theta", "0.5", "--samples", "10", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "argument --seed: must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf", "abc"])
def test_lemma_refuses_bad_tolerance_at_parse_time(capsys, tolerance):
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "--q", "2", "--theta", "0.75", "--tolerance", tolerance])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "argument --tolerance" in captured.err
    assert "Traceback" not in captured.err


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


def test_lemma_infeasible_without_sampler(capsys):
    code, _, err = run_cli(capsys, "lemma", "--q", "4", "--theta", "0.5")
    assert code == 1
    assert "infeasible" in err


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


@pytest.mark.parametrize(
    "argv",
    [["--q", "4", "--theta", "0.9999", "--samples", "100"]],  # sampler accepts none
    ids=["sampler"],
)
def test_lemma_without_a_feasible_pair_says_so_in_one_line(capsys, argv):
    code, out, err = run_cli(capsys, "lemma", *argv)
    assert code == 1 and out == ""
    assert err == "infeasible: no feasible pair found at this theta\n"


def test_lemma_sampler_below_uniform_theta(capsys):
    code, _, err = run_cli(
        capsys, "lemma", "--q", "5", "--theta", "0.1", "--samples", "100"
    )
    assert code == 1
    assert "theta >= 1/q" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "2", "--theta", "0.3", "--samples", "10"],  # sampler below 1/q
        ["--q", "3", "--theta", "0.2", "--samples", "10"],
        ["--q", "4", "--theta", "0.5", "--resolution", "0.01", "--samples", "10"],
        ["--q", "5", "--theta", "0.5", "--samples", "2000001"],  # over the cap
        ["--q", "4", "--theta", "0.5"],  # no grid and no sampler
        # a seed that nothing draws with, a tolerance with no closed form to compare
        ["--q", "2", "--theta", "0.75", "--resolution", "0.01", "--seed", "9"],
        ["--q", "3", "--theta", "0.2", "--resolution", "0.1", "--tolerance", "0.5"],
    ],
)
def test_lemma_refuses_across_options_before_any_oracle_runs(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("an oracle ran before the refusal")

    monkeypatch.setattr(oracle, "grid_max_joint_entropy", never)
    monkeypatch.setattr(oracle, "random_feasible_sampler", never)
    code, out, err = run_cli(capsys, "lemma", *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(("refused: ", "infeasible: "))


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
        ("300", "3", "2", "q must lie in [2, 255], got 300"),
        ("2", "3", "5", "m must lie in [1, 3], got 5"),
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


# parse level only: _workers_from_env returns the count and starts no pool
@pytest.mark.parametrize(
    "raw",
    ["0", "-1", "65", "nan", "1e300", "1" * 400, "abc"],
    ids=["0", "-1", "65", "nan", "1e300", "400-digit", "abc"],
)
def test_codec_thread_env_refused_at_parse_level(capsys, monkeypatch, raw):
    monkeypatch.setenv("UNION_CHANNEL_THREADS", raw)
    with pytest.raises(SystemExit) as exc:
        _workers_from_env()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "UNION_CHANNEL_THREADS: " in captured.err


def test_codec_thread_env_bounds(monkeypatch):
    monkeypatch.delenv("UNION_CHANNEL_THREADS", raising=False)
    assert _workers_from_env() == 1
    for raw in ("1", "64"):
        monkeypatch.setenv("UNION_CHANNEL_THREADS", raw)
        assert _workers_from_env() == int(raw)


def test_codec_refuses_negative_seed_at_parse_time(capsys):
    # random.Random hashes abs(seed), so -5 would silently rerun seed 5
    with pytest.raises(SystemExit) as exc:
        main(["codec", "--q", "2", "--n", "5", "--m", "3", "--B", "1", "--seed", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "argument --seed: must be >= 0, got -5" in captured.err


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


def test_params_n_max_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--q", "2", "--n-max", "65"])
    assert exc.value.code == 2


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
