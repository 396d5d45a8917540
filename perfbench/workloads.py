"""The benchmark's workloads: inputs made from a seed, one op each, and its checks.

Every op calls the library through module attributes (``codec.simulate``,
``cli.main``, ...), never through names bound at import time, so the traced
run can wrap those attributes in place. An op raises on any wrong output;
the harness counts that op as failed.

Inputs come as an endless stream of *rounds* (lists of op inputs). A codec
or pattern round is one op; an analysis round is one whole pass of checks,
so a time-bounded run always measures the same mix of checks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Union

from union_channel import capacity, cli, codec, oracle

DEFAULT_SEED = 0
Seed = Union[int, str]  # a run's seed, or "<seed>.<worker>" for one of its workers
PINS_FILE = Path(__file__).with_name("pins.json")
# sha256 of each workload's warm-up outputs and of the table CSV
PINS = json.loads(PINS_FILE.read_text())


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[Seed], Iterator[list]]  # seed -> endless stream of rounds
    run_op: Callable[[Any], Any]  # runs and checks one op, returns its output
    output_bytes: Callable[[Any], bytes]  # canonical bytes of an output, for pins
    warmup_rounds: int  # default-seed rounds run before timing, outputs pinned
    trace_ops: int  # ops in one traced pass (whole rounds)
    tail_pct: float | None  # fixed tail percentile, None when too few ops


def _rng(name: str, seed: Seed) -> random.Random:
    return random.Random(f"{name}:{seed}")


# ---------------------------------------------------------------------------
# codec-short and codec-long: one fully checked simulate() trial per op

CODEC_SHORT = codec.CodeParams(q=2, n=17, m=13, blocks=3)
# q=2, n=17, m=13 at B=100 costs 1.2 to 4.4 s a trial depending on the
# messages (per-trial CV ~0.4), too uneven to time steadily in one run; this
# smaller code keeps the quadratic prefix and digest cost (prefixes reach
# 3600 bytes) at ~0.3 s a trial with a per-trial CV of ~0.2.
CODEC_LONG = codec.CodeParams(q=2, n=12, m=9, blocks=200)


def _codec_rounds(name: str) -> Callable[[Seed], Iterator[list]]:
    def rounds(seed: Seed) -> Iterator[list]:
        rng = _rng(name, seed)
        while True:
            yield [rng.getrandbits(63)]

    return rounds


def _codec_op(params: codec.CodeParams) -> Callable[[int], codec.SimulationReport]:
    peak = codec.uncertainty_peak_bound(params.n, params.m)

    def run(trial_seed: int) -> codec.SimulationReport:
        report = codec.simulate(params, trials=1, seed=trial_seed)
        record = report.records[0]
        if report.errors or not record.ok:
            raise CheckFailed(f"decode mismatch for trial seed {trial_seed}")
        if record.max_uncertainty > peak:
            raise CheckFailed(f"uncertainty {record.max_uncertainty} above {peak}")
        if record.uses > report.uses_bound:
            raise CheckFailed(f"{record.uses} uses above bound {report.uses_bound}")
        return report

    return run


def _report_bytes(report: codec.SimulationReport) -> bytes:
    return "".join(line + "\n" for line in codec.report_jsonl_lines(report)).encode()


# ---------------------------------------------------------------------------
# analysis: capacity table, witnesses and oracles, as in criteria 6 and 7

TABLE_ARGV = ["table", "--q-max", "1000", "--format", "csv"]
# README.md's table: (no feedback, feedback, zero-error lower bound) at 5 decimals
README_TABLE = {
    2: ("0.75000", "0.79113", "0.77291"),
    3: ("0.78969", "0.81510", "0.81071"),
    4: ("0.81250", "0.83044", "0.82946"),
    5: ("0.82773", "0.84130", "0.84123"),
    6: ("0.83881", "0.84959", "0.84952"),
}
GRID_Q2_THETAS = tuple(i / 100 for i in range(55, 100, 5))
ORACLE_THETAS = (0.5, 0.7, 0.9)
SAMPLER_SAMPLES = 100_000


def _analysis_rounds(seed: Seed) -> Iterator[list]:
    rng = _rng("analysis", seed)
    while True:
        checks: list[tuple] = [("table",)]
        checks += [("witness", q) for q in range(2, 11)]
        checks += [("grid", 2, theta, 1e-4, 0) for theta in GRID_Q2_THETAS]
        checks += [("grid", 3, theta, 1e-2, rng.getrandbits(32)) for theta in ORACLE_THETAS]
        checks += [
            ("sampler", q, theta, SAMPLER_SAMPLES, rng.getrandbits(32))
            for q in (3, 4, 5)
            for theta in ORACLE_THETAS
        ]
        yield checks


def _check_table(text: str) -> None:
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != PINS["table_csv_sha256"]:
        raise CheckFailed(f"table CSV sha256 {digest} differs from the pin")
    rows = {int(row["q"]): row for row in csv.DictReader(io.StringIO(text))}
    for q, expected in README_TABLE.items():
        row = rows[q]
        got = tuple(
            f"{float(row[key]):.5f}"
            for key in ("r_no_feedback", "r_feedback", "r_zero_error_lower")
        )
        if got != expected:
            raise CheckFailed(f"q={q} table row {got} differs from README {expected}")


def _check_witness(q: int) -> None:
    theta = capacity.avg_feedback_capacity(q).theta_star
    witness = capacity.cover_leung_witness(q, theta)
    envelope = capacity.concave_envelope(theta, q).value
    if abs(witness.h_x1_given_u - 0.5 * envelope) > 1e-9:
        raise CheckFailed(f"q={q}: H(X1|U) off the envelope")
    if abs(witness.h_x2_given_u - 0.5 * envelope) > 1e-9:
        raise CheckFailed(f"q={q}: H(X2|U) off the envelope")
    if abs(witness.h_output - capacity.output_entropy(theta, q)) > 1e-9:
        raise CheckFailed(f"q={q}: output entropy mismatch")
    off = (1 - theta) / (q * (q - 1))
    for (v1, v2), p in witness.pair_marginal.items():
        expected = theta / q if v1 == v2 else off
        if abs(p - expected) > 1e-12:
            raise CheckFailed(f"q={q}: pair marginal ({v1}, {v2}) is {p}")


def _analysis_op(check: tuple) -> Any:
    kind = check[0]
    if kind == "table":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(TABLE_ARGV)
        if status != 0:
            raise CheckFailed(f"table exited with {status}")
        text = out.getvalue()
        _check_table(text)
        return text
    if kind == "witness":
        _check_witness(check[1])
        return None
    if kind == "grid":
        _, q, theta, resolution, seed = check
        value = oracle.grid_max_joint_entropy(q, theta, resolution, seed=seed).value
        closed = capacity.max_joint_entropy(theta, q)
        if value is None or value > closed + 1e-9 or abs(value - closed) > 1e-3:
            raise CheckFailed(f"oracle FAIL: grid q={q} theta={theta}: {value} vs {closed}")
        return value
    _, q, theta, samples, seed = check
    best = oracle.random_feasible_sampler(q, theta, samples, seed=seed)
    closed = capacity.max_joint_entropy(theta, q)
    if best > closed + 1e-9 or best < closed - 0.02:
        raise CheckFailed(f"oracle FAIL: sampler q={q} theta={theta}: {best} vs {closed}")
    return best


def _analysis_bytes(output: Any) -> bytes:
    # only the table is pinned: oracle floats may differ in the last bits
    # between numpy builds and CPUs, and are checked by tolerance instead
    return output.encode() if isinstance(output, str) else b""


# ---------------------------------------------------------------------------
# pattern-sweep: rank/unrank round trips over criterion 8's spaces

PATTERN_CHUNK = 256


def _pattern_spaces() -> list[tuple[int, int, int]]:
    spaces = [(2, 17, 13)]
    for q in range(2, 7):
        for n in range(1, 15):
            for m in range(n + 1):
                if codec.pattern_count(q, n, m) <= 100_000:
                    spaces.append((q, n, m))
    return spaces


def _pattern_rounds(seed: Seed) -> Iterator[list]:
    chunks = []
    for q, n, m in _pattern_spaces():
        total = codec.pattern_count(q, n, m)
        for start in range(0, total, PATTERN_CHUNK):
            chunks.append((q, n, m, start, min(start + PATTERN_CHUNK, total)))
    # spaces differ in cost per rank (it grows with n), so chunks of all
    # spaces are shuffled together to give every run the same mix
    _rng("pattern-sweep", seed).shuffle(chunks)
    while True:
        for chunk in chunks:
            yield [chunk]


def _pattern_op(chunk: tuple[int, int, int, int, int]) -> list[tuple[int, ...]]:
    q, n, m, start, stop = chunk
    unrank, rank = codec.unrank_pattern, codec.rank_pattern
    previous = unrank(start - 1, q, n, m) if start else None
    out = []
    for r in range(start, stop):
        pattern = unrank(r, q, n, m)
        if rank(pattern, q, m=m) != r:
            raise CheckFailed(f"round trip failed at ({q}, {n}, {m}) rank {r}")
        if previous is not None and pattern <= previous:
            raise CheckFailed(f"ordering failed at ({q}, {n}, {m}) rank {r}")
        previous = pattern
        out.append(pattern)
    return out


def _pattern_bytes(patterns: list[tuple[int, ...]]) -> bytes:
    return b"".join(bytes(p) for p in patterns)


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="codec-short",
            rounds=_codec_rounds("codec-short"),
            run_op=_codec_op(CODEC_SHORT),
            output_bytes=_report_bytes,
            warmup_rounds=50,
            trace_ops=200,
            tail_pct=99.0,
        ),
        Workload(
            name="codec-long",
            rounds=_codec_rounds("codec-long"),
            run_op=_codec_op(CODEC_LONG),
            output_bytes=_report_bytes,
            warmup_rounds=1,
            trace_ops=3,
            tail_pct=None,
        ),
        Workload(
            name="analysis",
            rounds=_analysis_rounds,
            run_op=_analysis_op,
            output_bytes=_analysis_bytes,
            warmup_rounds=1,
            trace_ops=len(next(_analysis_rounds(DEFAULT_SEED))),
            tail_pct=95.0,
        ),
        Workload(
            name="pattern-sweep",
            rounds=_pattern_rounds,
            run_op=_pattern_op,
            output_bytes=_pattern_bytes,
            warmup_rounds=1,
            trace_ops=64,
            tail_pct=99.0,
        ),
    )
}


def warmup(workload: Workload) -> None:
    """Run the default seed's first rounds, checked, and compare with the pin.

    This fills the library's lazy caches before timing, and pins the output
    bytes of those rounds on every run, whatever the run's own seed.
    """
    digest = warmup_digest(workload)
    if digest != PINS["warmup_sha256"].get(workload.name):
        raise CheckFailed(f"{workload.name} warm-up sha256 {digest} differs from the pin")


def warmup_digest(workload: Workload) -> str:
    h = hashlib.sha256()
    rounds = workload.rounds(DEFAULT_SEED)
    for _ in range(workload.warmup_rounds):
        for x in next(rounds):
            h.update(workload.output_bytes(workload.run_op(x)))
    return h.hexdigest()
