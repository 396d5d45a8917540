"""Benchmark of union-channel: four workloads, end-to-end metrics, a traced run.

A run measures one workload, one op after another (a closed loop, no
threads). Its timed phase is spread over five worker processes started one
after another, and its times are scaled to a nominal host speed measured by
reference_routine() (see README.md next to this file):

    python3 perfbench/run.py --workload codec-short --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all                   # every workload, default seed
    python3 perfbench/run.py --all --seeds 1-10 --out perfbench/results/a
    python3 perfbench/run.py --compare perfbench/results/a perfbench/results/b

The last line of a workload run's stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list. Each run also writes a full result record (host, every
metric with its sample counts) to the output directory. README.md says
what each metric means.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "perfbench" / "results"
WORKERS = 5
# reference_routine() time on a quiet host; scaled times are in these units
REFERENCE_NOMINAL_S = 0.006
REFERENCE_EVERY_S = 0.25
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 600
MAX_ERRORS_SHOWN = 5


def use_source_tree() -> None:
    """Import the package from this checkout's src/, never from site-packages."""
    if not (SRC / "union_channel" / "__init__.py").is_file():
        sys.exit(f"error: no union_channel package under {SRC}")
    # numpy's BLAS pool would add threads; the library needs none
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


# ---------------------------------------------------------------------------
# host metadata


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# measuring


def _peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    getrusage's ru_maxrss would not do: exec folds the parent's peak into it,
    so a worker could never read lower than the run.py that started it.
    VmHWM belongs to the address space made at exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tail(latencies: list[float], pct: float | None) -> dict | None:
    """Latency at ``pct`` when at least ten samples lie beyond it."""
    if pct is None:
        return None
    n = len(latencies)
    beyond = int(n * (100.0 - pct) / 100.0)
    if beyond < 10:
        return None
    ordered = sorted(latencies)
    return {"value_ms": 1e3 * ordered[n - beyond - 1], "pct": pct,
            "samples": n, "beyond": beyond}


class OpLog:
    """Latencies and failures of the ops of one run."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.failed = 0
        self.errors: list[str] = []

    def run(self, call, x) -> None:
        start = time.perf_counter()
        try:
            call(x)
        except Exception as exc:  # an op that fails counts against the run
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


def reference_routine() -> int:
    """Fixed pure-Python work (dicts, tuples, sorting) that gauges host speed.

    The host's speed drifts by up to 2x over minutes, for interpreter-bound
    code most. Timing this routine between rounds tracks that drift, and the
    time metrics are scaled by it. It is part of the benchmark's definition:
    changing it changes every scaled figure.
    """
    rng = random.Random(5)
    groups: dict[tuple, list] = {}
    for _ in range(1500):
        t = tuple(rng.randrange(4) for _ in range(8))
        groups.setdefault(t[:3], []).append(t)
    out = 0
    for _, items in sorted(groups.items()):
        items.sort()
        for t in items:
            if t[0] > t[1]:
                out += t[2]
            elif t[3] == 2:
                out -= 1
            else:
                out ^= len(t)
    return out


def worker(workload_name: str, stream: str, seconds: float) -> None:
    """One worker process: set up, warm up, then time ops for ``seconds``.

    Every REFERENCE_EVERY_S it times reference_routine() between two rounds;
    that time is left out of the workload's elapsed time.
    """
    from workloads import WORKLOADS, warmup

    workload = WORKLOADS[workload_name]
    rounds = workload.rounds(stream)
    batch = next(rounds)
    warmup(workload)
    log = OpLog()
    reference: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    last_reference = -math.inf
    while True:
        now = time.perf_counter()
        if now - last_reference >= REFERENCE_EVERY_S:
            reference_routine()
            last_reference = time.perf_counter()
            reference.append(last_reference - now)
        for x in batch:
            log.run(workload.run_op, x)
        if time.perf_counter() >= deadline:
            break
        batch = next(rounds)
    elapsed = time.perf_counter() - start - sum(reference)
    print(json.dumps({"ready": start, "elapsed": elapsed, "latencies": list(log.latencies),
                      "failed": log.failed, "errors": log.errors,
                      "reference_s": statistics.mean(reference),
                      "peak_rss_mb": _peak_rss_mb()}))


def _run_worker(workload: str, stream: str, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", stream,
           "--workload", workload, "--seconds", repr(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: worker {stream} of {workload} failed:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by all processes of the host
    result["setup_s"] = result["ready"] - start
    # >1 when the host runs slower than the nominal reference speed
    result["slowness"] = result["reference_s"] / REFERENCE_NOMINAL_S
    return result


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics with tracing off, over fresh worker processes.

    The timed phase is split evenly over WORKERS processes run one after
    another, never two at once: a process's memory layout alone moved the
    pure-Python workloads by up to 50%. Times are scaled to the nominal
    reference speed with each worker's own reference timing (the raw figures
    are recorded too), so that drift of the host between runs cancels.
    """
    runs = [_run_worker(workload.name, f"{seed}.{k}", seconds / WORKERS)
            for k in range(WORKERS)]
    log = OpLog()
    scaled: list[float] = []
    for r in runs:
        log.latencies.extend(r["latencies"])
        scaled += [x / r["slowness"] for x in r["latencies"]]
        log.failed += r["failed"]
        log.errors += r["errors"][: MAX_ERRORS_SHOWN - len(log.errors)]
    raw = list(log.latencies)
    elapsed = sum(r["elapsed"] for r in runs)
    values = {
        "setup_s": statistics.median(r["setup_s"] / r["slowness"] for r in runs),
        "ops_per_s": len(raw) / sum(r["elapsed"] / r["slowness"] for r in runs),
        "op_p50_ms": 1e3 * statistics.median(scaled) if scaled else None,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "raw_setup_s": statistics.median(r["setup_s"] for r in runs),
        "raw_ops_per_s": len(raw) / elapsed,
        "raw_op_p50_ms": 1e3 * statistics.median(raw) if raw else None,
        "host_speed": 1.0 / statistics.mean(r["slowness"] for r in runs),
    }
    details = {
        "workers": WORKERS,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "slowness_runs": [r["slowness"] for r in runs],
        "setup_runs_s": [r["setup_s"] for r in runs],
        "peak_rss_runs_mb": [r["peak_rss_mb"] for r in runs],
        "elapsed_s": elapsed,
        "op_samples": len(raw),
        "op_tail_ms": _tail(scaled, workload.tail_pct),
        "wait": None,
    }
    return {"values": values, "details": details, "log": log}


def measure_traced(workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Per-layer metrics: alternate untraced and traced passes over fixed ops."""
    from spans import Tracer, layer_metrics
    from workloads import warmup

    warmup(workload)
    rounds = workload.rounds(seed)
    pass_inputs: list = []
    while len(pass_inputs) < workload.trace_ops:
        pass_inputs += next(rounds)

    log = OpLog()
    passes: list[Tracer] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for x in pass_inputs:
            log.run(workload.run_op, x)
        untraced_s.append(time.perf_counter() - start)

        tracer = Tracer(record_spans=not passes)
        tracer.install()
        try:
            start = time.perf_counter()
            traced_op = functools.partial(tracer.run_op, workload.run_op)
            for x in pass_inputs:
                log.run(traced_op, x)
            traced_s.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        passes.append(tracer)
        if time.perf_counter() >= deadline:
            break

    values = layer_metrics(passes)
    ops = len(pass_inputs)
    traced = statistics.median(traced_s)
    untraced = statistics.median(untraced_s)
    values["trace.ops_per_s"] = ops / traced
    values["trace.untraced_ops_per_s"] = ops / untraced
    values["trace.slowdown"] = traced / untraced
    counts_exact = all(t.counts() == passes[0].counts() for t in passes)
    spans_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    passes[0].write_spans(spans_file)
    details = {
        "passes": len(passes),
        "ops_per_pass": ops,
        "counts_exact": counts_exact,
        "spans_file": str(spans_file),
        "spans_kept": len(passes[0].spans),
        "spans_dropped": passes[0].dropped_spans,
        "wait": "none: one thread in a closed loop, no layer waits on a queue or lock",
    }
    return {"values": values, "details": details, "log": log}


# ---------------------------------------------------------------------------
# reporting


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def _print_end_to_end(result: dict, units: dict) -> None:
    v, d = result["values"], result["details"]
    log = result["log"]
    print(f"  host speed {v['host_speed']:.3f} of nominal (reference routine "
          f"{1e3 * REFERENCE_NOMINAL_S:g} ms); times below are scaled to nominal, raw in brackets")
    print(f"  {'setup_s':<14}{v['setup_s']:>12.4f} {units['setup_s']:<6}"
          f"[{v['raw_setup_s']:.4f}] median of {d['workers']} worker processes")
    print(f"  {'ops_per_s':<14}{v['ops_per_s']:>12.3f} {units['ops_per_s']:<6}"
          f"[{v['raw_ops_per_s']:.3f}] {d['op_samples']} ops in {d['elapsed_s']:.2f} s")
    print(f"  {'op_p50_ms':<14}{_ms(v['op_p50_ms']):>12} {units['op_p50_ms']:<6}"
          f"[{_ms(v['raw_op_p50_ms'])}] {d['op_samples']} samples")
    tail = d["op_tail_ms"]
    if tail is None:
        print(f"  {'op_tail_ms':<14}{'-':>12} {'ms':<6}omitted: fewer than ten samples beyond the tail")
    else:
        print(f"  {'op_tail_ms':<14}{tail['value_ms']:>12.4f} {'ms':<6}"
              f"p{tail['pct']:g} of {tail['samples']} samples, {tail['beyond']} beyond")
    print(f"  {'peak_rss_mb':<14}{v['peak_rss_mb']:>12.1f} {units['peak_rss_mb']:<6}"
          "median of the workers' peak resident sets")
    print(f"  {'failed_frac':<14}{log.failed / max(log.attempted, 1):>12.4f} {'1':<6}"
          f"{log.failed} of {log.attempted} ops failed")


def _print_layers(result: dict) -> None:
    v, d = result["values"], result["details"]
    print(f"  passes: {d['passes']} traced + {d['passes']} untraced, "
          f"{d['ops_per_pass']} ops each; counts exact: {d['counts_exact']}")
    print(f"  ops_per_s traced {v['trace.ops_per_s']:.3f}, untraced "
          f"{v['trace.untraced_ops_per_s']:.3f} 1/s (slowdown x{v['trace.slowdown']:.3f})")
    print(f"  top-level spans cover {v['trace.top_span_pct']:.1f}% of op time")
    print(f"  wait: {d['wait']}")
    print(f"  spans: {d['spans_kept']} of the first traced pass in {d['spans_file']}")
    layers = sorted({k.rsplit('.', 1)[0] for k in v if k.endswith(".busy_s")})
    print(f"  {'layer (per pass)':<34}{'calls':>9}{'busy_s':>11}{'self_s':>11}"
          f"{'busy%':>7}{'self%':>7}{'ns/call':>11}  counts")
    for name in layers:
        extra = " ".join(
            f"{k[len(name) + 1:]}={v[k]:g}" for k in v
            if k.startswith(name + ".") and k.rsplit(".", 1)[1]
            not in ("calls", "busy_s", "self_s", "busy_pct", "self_pct", "ns_per_call")
        )
        print(f"  {name:<34}{v[name + '.calls']:>9}{v[name + '.busy_s']:>11.5f}"
              f"{v[name + '.self_s']:>11.5f}{v[name + '.busy_pct']:>7.1f}"
              f"{v[name + '.self_pct']:>7.1f}{v[name + '.ns_per_call']:>11.0f}  {extra}")
    print(f"  codec.digest_bytes = {v['codec.digest_bytes']:g} B (computed as bytes_out)")


def run_workload(args) -> int:
    from workloads import WORKLOADS

    bench = load_benchmark()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    host = host_info()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (python {host['python']}, numpy {host['numpy']}, "
          f"{host['cpus_usable']} cpus, load {' '.join(f'{x:.2f}' for x in host['loadavg_start'])})")

    if args.trace:
        result = measure_traced(workload, args.seed, args.seconds, out_dir)
        wanted = bench["per_layer"]
        _print_layers(result)
    else:
        result = measure(workload, args.seed, args.seconds)
        wanted = bench["end_to_end"]
        _print_end_to_end(result, {m["name"]: m["unit"] for m in wanted})

    log = result["log"]
    for error in log.errors:
        print(f"  failed op: {error}", file=sys.stderr)
    correct = log.failed == 0
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "correct": correct,
        "attempted": log.attempted, "failed": log.failed,
        "failed_frac": log.failed / max(log.attempted, 1),
        "metrics": metrics, "all_values": result["values"], "details": result["details"],
        "errors": log.errors,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0 if correct else 1


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if hi else [int(lo)]
    return seeds


def run_all(args) -> int:
    """Every workload (and seed) in its own fresh process, one after another."""
    from compare import summarize
    from workloads import WORKLOADS

    status = 0
    for seed in _parse_seeds(args.seeds):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"FAILED: {name} seed {seed} exited with {proc.returncode}")
                status = 1
    if not args.trace:
        print(f"{'workload':<14}{'metric':<13}{'median':>12} {'unit':<6}{'q1':>12}{'q3':>12}{'runs':>6}")
        bench = load_benchmark()
        for workload, metrics in summarize(bench, Path(args.out)).items():
            for m in bench["end_to_end"]:
                s = metrics[m["name"]]
                print(f"{workload:<14}{m['name']:<13}{s['median']:>12.4f} {s['unit']:<6}"
                      f"{s['q1']:>12.4f}{s['q3']:>12.4f}{s['runs']:>6}")
            print(f"{workload:<14}{'failed_frac':<13}{metrics['failed_frac']:>12.4f} {'1':<6}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for result records and spans")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seeds", default="0", help="with --all: e.g. 1-10 or 1,4,7")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    parser.add_argument("--same", action="store_true",
                        help="with --compare: both dirs are runs of one commit; check steadiness")
    parser.add_argument("--print-pins", action="store_true")
    parser.add_argument("--worker", metavar="STREAM", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(load_benchmark(), Path(args.compare[0]), Path(args.compare[1]), args.same)

    use_source_tree()
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.worker:
        worker(args.workload, args.worker, args.seconds)
        return 0
    if args.print_pins:
        from workloads import WORKLOADS, warmup_digest

        print(json.dumps({name: warmup_digest(w) for name, w in WORKLOADS.items()}, indent=1))
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload, --all or --compare")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
