"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench/selftest.py -q

They run every workload end to end through run.py, check that per-layer
counts repeat exactly for a fixed seed, and check the compare rule on
made-up numbers. Scratch files go under perfbench/results/selftest/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_source_tree()

import compare  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SCRATCH = run.DEFAULT_OUT / "selftest"
NAMES = list(workloads.WORKLOADS)


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _tiny_pass(workload: workloads.Workload) -> list:
    rounds = workload.rounds(7)
    ops: list = []
    while len(ops) < min(workload.trace_ops, 5):
        ops += next(rounds)
    return ops


def _traced(workload: workloads.Workload, ops: list) -> Tracer:
    tracer = Tracer(record_spans=True)
    tracer.install()
    try:
        for x in ops:
            tracer.run_op(workload.run_op, x)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_at_tiny_size(name: str, trace: str) -> None:
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace,
                "--out", str(SCRATCH))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = run.load_benchmark()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":  # scaling divides by a weighted mean of the workers' slowness
        record = json.loads((SCRATCH / f"{name}-seed3-trace0.json").read_text())
        v, slowness = record["all_values"], record["details"]["slowness_runs"]
        assert len(slowness) == run.WORKERS
        ratio = v["ops_per_s"] / v["raw_ops_per_s"]
        assert min(slowness) * (1 - 1e-9) <= ratio <= max(slowness) * (1 + 1e-9)
        assert 0 < v["peak_rss_mb"] < 1024


@pytest.mark.parametrize("name", NAMES)
def test_layer_counts_repeat_exactly(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    ops = _tiny_pass(workload)
    first, second = _traced(workload, ops), _traced(workload, ops)
    assert first.counts() == second.counts()
    assert any(first.counts().values())


def test_traced_run_reports_span_coverage_and_links() -> None:
    workload = workloads.WORKLOADS["codec-short"]
    tracer = _traced(workload, _tiny_pass(workload))
    share = layer_metrics([tracer])["trace.top_span_pct"]
    assert 50.0 < share <= 100.0
    ids = {span[0] for span in tracer.spans}
    assert all(parent is None or parent in ids for _, parent, *_ in tracer.spans)
    assert {span[2] for span in tracer.spans if span[1] is None} == {"op"}


def test_hot_layers_cover_most_op_time() -> None:
    long_ = workloads.WORKLOADS["codec-long"]
    v = layer_metrics([_traced(long_, _tiny_pass(long_)[:1])])
    covered = (v["codec.advance_uncertainty.busy_pct"] + v["codec.run_block.self_pct"]
               + v["codec.decode_transcript.self_pct"])
    assert covered > 50.0
    sweep = workloads.WORKLOADS["pattern-sweep"]
    v = layer_metrics([_traced(sweep, _tiny_pass(sweep))])
    assert v["codec.rank_pattern.busy_pct"] + v["codec.unrank_pattern.busy_pct"] > 50.0


def test_advance_counts_match_the_outputs() -> None:
    workload = workloads.WORKLOADS["codec-short"]
    v = layer_metrics([_traced(workload, [123])])
    p = workloads.CODEC_SHORT
    assert v["codec.advance_uncertainty.calls"] == 2 * p.blocks  # encoder and decoder
    assert v["codec.digest_bytes"] == v["codec.advance_uncertainty.bytes_out"] > 0


def test_failed_ops_are_counted() -> None:
    log = run.OpLog()
    log.run(workloads.WORKLOADS["codec-short"].run_op, 5)
    log.run(workloads._analysis_op, ("grid", 2, 0.75, 0.6, 0))  # resolution too coarse
    assert (log.attempted, log.failed) == (2, 1)
    with pytest.raises(workloads.CheckFailed):
        workloads._check_table("q,r_no_feedback,r_feedback,theta_star,case,r_zero_error_lower\n")


def test_warmup_pins_hold() -> None:
    for workload in workloads.WORKLOADS.values():
        workloads.warmup(workload)


def test_seed_fixes_inputs() -> None:
    for workload in workloads.WORKLOADS.values():
        a, b, c = (workload.rounds(s) for s in (4, 4, 5))
        assert next(a) == next(b) != next(c)


def test_without_source_tree_exits_nonzero_and_prints_no_result() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.BENCHMARK_FILE, bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(HERE / "pins.json", bare / "perfbench" / "pins.json")
    proc = _run("--workload", "codec-short", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)


METRIC = {"name": "ops_per_s", "better": "higher", "bound": 0.1}


def _by_seed(values: list[float]) -> dict[int, float]:
    return dict(enumerate(values))


def test_compare_verdicts() -> None:
    base = _by_seed([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    faster = _by_seed([130, 131, 129, 130, 132, 128, 130, 131, 129, 130])
    slower = _by_seed([80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
    noisy = _by_seed([60, 140, 70, 130, 100, 100, 65, 135, 100, 100])
    assert compare.verdict(METRIC, base, faster, same=False)["verdict"] == "gain"
    assert compare.verdict(METRIC, base, slower, same=False)["verdict"] == "REGRESSION"
    assert compare.verdict(METRIC, base, noisy, same=False)["verdict"] == "unresolved"
    assert compare.verdict(METRIC, base, base, same=False)["verdict"] == "within bound"
    assert compare.verdict(METRIC, base, dict(base), same=True)["verdict"] == "steady"
    assert compare.verdict(METRIC, base, slower, same=True)["verdict"] == "NOT steady"
    assert compare.verdict(METRIC, base, faster, same=True)["verdict"] == "NOT steady"
    assert compare.verdict(METRIC, base, noisy, same=True)["verdict"] == "NOT steady"
    # a host speed gap wider than the bound leaves a scaled metric unresolved
    assert compare.verdict(METRIC, base, faster, False, host_shift=0.2)["verdict"] == "unresolved"
    assert compare.verdict(METRIC, base, faster, False, host_shift=0.05)["verdict"] == "gain"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.1}
    assert compare.verdict(setup, base, noisy, same=False)["verdict"] == "unresolved"
    lower = {"name": "op_p50_ms", "better": "lower", "bound": 0.1}
    assert compare.verdict(lower, base, faster, same=False)["verdict"] == "REGRESSION"


def test_quartiles_match_statistics() -> None:
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert compare.quartiles([2.0]) == (2.0, 2.0, 2.0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
