"""Compare two sets of result records metric by metric, workload by workload.

A result set is a directory of ``<workload>-seed<n>-trace0.json`` records
written by run.py. For every end-to-end metric of BENCHMARK.json and every
workload present in both sets it reports each side's median and quartiles
and a verdict:

- ``unresolved``: either side's spread (quartile distance over median) is
  wider than the metric's bound, and not every new run beats every base run;
  or the metric is scaled to nominal host speed and the two sides' median
  host speeds differ by more than the bound, since the scaling cannot be
  trusted across host periods that far apart;
- ``REGRESSION``: the new median is worse than the base median by more than
  the bound;
- ``gain``: the new side wins at least nine tenths of the runs paired by
  seed (ties count for neither) and the medians differ by more than the
  base side's quartile distance;
- ``within bound``: anything else.

Any failed op on the new side is reported as ``FAILED OPS``. With ``same``
the two sets are runs of one commit, and the verdict is whether they agree
the way the benchmark must: every spread within its bound and the medians
apart by no more than the bound, in either direction.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: Path, trace: int = 0) -> dict[str, dict[int, dict]]:
    """Records of untraced (or traced) runs by workload, then by seed."""
    records: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], {})[record["seed"]] = record
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _stats(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def summarize(bench: dict, directory: Path) -> dict:
    """Median, quartiles and spread of every end-to-end metric, plus hosts.

    Traced runs in the same directory add the median of each per-layer
    figure (every figure the traced run records, not only BENCHMARK.json's).
    """
    out: dict = {}
    for workload, by_seed in load(directory).items():
        records = list(by_seed.values())
        out[workload] = {
            m["name"]: dict(_stats([r["metrics"][m["name"]]["value"] for r in records]),
                            unit=m["unit"], better=m["better"])
            for m in bench["end_to_end"]
        }
        out[workload]["failed_frac"] = (
            sum(r["failed"] for r in records) / max(sum(r["attempted"] for r in records), 1)
        )
        hosts: list[dict] = []
        for r in records:
            host = {k: v for k, v in r["host"].items() if k != "loadavg_start"}
            if host not in hosts:
                hosts.append(host)
        out[workload]["hosts"] = hosts
    for workload, by_seed in load(directory, trace=1).items():
        records = list(by_seed.values())
        out.setdefault(workload, {})["per_layer"] = {
            name: statistics.median(r["all_values"][name] for r in records)
            for name in records[0]["all_values"]
        }
    return out


def _worse_by(base: float, new: float, better: str) -> float:
    """Share of the base by which ``new`` is worse (negative when better)."""
    return (new - base) / base if better == "lower" else (base - new) / base


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(metric: dict, base: dict[int, float], new: dict[int, float], same: bool,
            host_shift: float = 0.0) -> dict:
    """Verdict of one metric; ``host_shift`` is the share by which the two
    sides' host speeds differ, given for metrics scaled by host speed."""
    better, bound = metric["better"], metric["bound"]
    a, b = _stats(list(base.values())), _stats(list(new.values()))
    worse = _worse_by(a["median"], b["median"], better)
    seeds = sorted(base.keys() & new.keys())
    wins = sum(_beats(new[s], base[s], better) for s in seeds)
    all_better = all(_beats(x, y, better) for x in new.values() for y in base.values())
    spread_ok = max(a["spread"], b["spread"]) <= bound
    if same:
        text = "steady" if spread_ok and abs(worse) <= bound else "NOT steady"
    elif (not spread_ok and not all_better) or host_shift > bound:
        text = "unresolved"
    elif worse > bound:
        text = "REGRESSION"
    elif (seeds and wins >= 0.9 * len(seeds) and _beats(b["median"], a["median"], better)
          and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]):
        text = "gain"
    else:
        text = "within bound"
    return {"base": a, "new": b, "worse_by": worse, "pairs": len(seeds), "wins": wins,
            "verdict": text}


def _host_speed(records: dict[int, dict]) -> float:
    return statistics.median(r["all_values"]["host_speed"] for r in records.values())


def _fmt(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {100 * s['spread']:.1f}%"


def compare(bench: dict, base_dir: Path, new_dir: Path, same: bool = False) -> int:
    """Print one row per workload and metric; return 1 on a failed check."""
    base, new = load(base_dir), load(new_dir)
    ok = True
    print(f"{'workload':<14}{'metric':<13}{'base: median [q1, q3] spread':>34}"
          f"{'new: median [q1, q3] spread':>34}{'worse by':>10}{'bound':>7}{'wins':>7}  verdict")
    for workload in sorted(base.keys() & new.keys()):
        speeds = [_host_speed(base[workload]), _host_speed(new[workload])]
        shift = abs(speeds[1] - speeds[0]) / speeds[0]
        print(f"{workload:<14}{'host speed':<13}{speeds[0]:>34.4g}{speeds[1]:>34.4g}"
              f"{100 * shift:>9.1f}%  median share of nominal")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            scaled = any(f"raw_{name}" in r["all_values"] for r in base[workload].values())
            row = verdict(
                metric,
                {s: r["metrics"][name]["value"] for s, r in base[workload].items()},
                {s: r["metrics"][name]["value"] for s, r in new[workload].items()},
                same,
                0.0 if same or not scaled else shift,
            )
            ok &= row["verdict"] not in ("REGRESSION", "NOT steady")
            print(f"{workload:<14}{name:<13}{_fmt(row['base']):>34}{_fmt(row['new']):>34}"
                  f"{100 * row['worse_by']:>+9.1f}%{100 * metric['bound']:>6.0f}%"
                  f"{row['wins']:>4}/{row['pairs']:<2}  {row['verdict']}")
        failed = sum(r["failed"] for r in new[workload].values())
        attempted = sum(r["attempted"] for r in new[workload].values())
        ok &= failed == 0
        print(f"{workload:<14}{'failed_frac':<13}{failed / max(attempted, 1):>34.4g}"
              f"  ({failed} of {attempted} ops){'  FAILED OPS' if failed else ''}")
    missing = sorted(base.keys() ^ new.keys())
    if missing:
        print(f"workloads in only one set: {', '.join(missing)}")
    print("result:", "ok" if ok else ("NOT steady" if same else "regression or failed ops"))
    return 0 if ok else 1
