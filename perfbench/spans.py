"""Spans around the library's public functions, installed from outside.

The tracer replaces module attributes (``codec.advance_uncertainty``,
``capacity.entropy_q``, ...) with timing wrappers, so every call the program
makes through that name is recorded; nothing in the program is edited. A
function imported into several modules is wrapped at each import site under
one layer name (``entropy.entropy_q`` is wrapped in ``capacity`` and
``oracle``).

Per layer it keeps calls, busy time (span durations) and self time (busy
time minus the time covered by its child spans), plus counts computed from
arguments and results. Spans of the first traced pass are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from union_channel import capacity, cli, codec, oracle

MAX_SPANS = 200_000

Counter = Callable[[dict, inspect.BoundArguments, Any], None]


def _count_advance(counts: dict, bound: inspect.BoundArguments, result: list) -> None:
    counts["cand_in"] += len(bound.arguments["uncertainty"])
    counts["cand_out"] += len(result)
    # every element of one result has the same length
    counts["bytes_out"] += len(result) * len(result[0]) if result else 0


def _count_grid(counts: dict, bound: inspect.BoundArguments, result: Any) -> None:
    a = bound.arguments
    k = round(1.0 / a["resolution"])
    if a["q"] == 2:
        counts["pairs"] += k + 1
    else:  # simplex grid against itself and two random sides, then refinements
        counts["pairs"] += 3 * ((k + 1) * (k + 2) // 2) + a["refinements"]


def _count_sampler(counts: dict, bound: inspect.BoundArguments, result: Any) -> None:
    counts["samples"] += bound.arguments["samples"]


# (module, attribute, layer, counter, counter keys)
TARGETS: list[tuple[Any, str, str, Counter | None, tuple[str, ...]]] = [
    (codec, "simulate", "codec.simulate", None, ()),
    (codec, "run_block", "codec.run_block", None, ()),
    (codec, "advance_uncertainty", "codec.advance_uncertainty", _count_advance,
     ("cand_in", "cand_out", "bytes_out")),
    (codec, "decode_transcript", "codec.decode_transcript", None, ()),
    (codec, "unrank_pattern", "codec.unrank_pattern", None, ()),
    (codec, "rank_pattern", "codec.rank_pattern", None, ()),
    (codec, "rate_root", "codec.rate_root", None, ()),
    (capacity, "rate_root", "codec.rate_root", None, ()),
    (capacity, "avg_feedback_capacity", "capacity.avg_feedback_capacity", None, ()),
    (capacity, "cover_leung_witness", "capacity.cover_leung_witness", None, ()),
    (oracle, "grid_max_joint_entropy", "oracle.grid_max_joint_entropy", _count_grid, ("pairs",)),
    (oracle, "random_feasible_sampler", "oracle.random_feasible_sampler", _count_sampler,
     ("samples",)),
    (capacity, "entropy_q", "entropy.entropy_q", None, ()),
    (oracle, "entropy_q", "entropy.entropy_q", None, ()),
    (capacity, "grouped_entropy", "entropy.grouped_entropy", None, ()),
    (capacity, "bisect_root", "solvers.bisect_root", None, ()),
    (codec, "bisect_root", "solvers.bisect_root", None, ()),
    (cli, "main", "cli.main", None, ()),
]


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Wraps the targets while installed; one instance per traced pass."""

    def __init__(self, record_spans: bool) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.ops = 0
        self.op_s = 0.0  # wall time of all ops
        self.top_s = 0.0  # part of op time covered by top-level spans
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op)
        self.dropped_spans = 0
        self._record = record_spans
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._next_id = 0
        self._op_id = -1
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module, attr, layer, counter, keys in TARGETS:
            stats = self.layers.setdefault(layer, LayerStats())
            for key in keys:
                stats.counts.setdefault(key, 0)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, stats, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> float:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        if self._record:
            if len(self.spans) < MAX_SPANS:
                parent = self._stack[-1][1] if self._stack else None
                self.spans.append((frame[1], parent, name, start, end, self._op_id))
            else:
                self.dropped_spans += 1
        return duration

    def _wrap(self, fn: Callable, layer: str, stats: LayerStats, counter: Counter | None):
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(frame, layer, start, clock())
                stats.calls += 1
                stats.busy_s += duration
                stats.self_s += duration - frame[0]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(stats.counts, bound, result)
            return result

        return wrapper

    def run_op(self, fn: Callable, x: Any) -> Any:
        """Run one op as a root span; its children are the top-level spans."""
        self._op_id += 1
        frame = self._open()
        start = time.perf_counter()
        try:
            return fn(x)
        finally:
            duration = self._close(frame, "op", start, time.perf_counter())
            self.ops += 1
            self.op_s += duration
            self.top_s += frame[0]

    def counts(self) -> dict[str, int]:
        """Every count of the pass, flat: these repeat exactly for fixed inputs."""
        out = {}
        for name, stats in self.layers.items():
            out[f"{name}.calls"] = stats.calls
            for key, value in stats.counts.items():
                out[f"{name}.{key}"] = value
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as f:
            for span_id, parent, name, start, end, op in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": start, "end": end, "op": op}) + "\n")


def layer_metrics(passes: list[Tracer]) -> dict[str, float]:
    """Per-pass figures over several traced passes of identical inputs.

    Counts are taken from the first pass (the caller checks that all passes
    agree); times are means over the passes.
    """
    k = len(passes)
    op_s = sum(t.op_s for t in passes)
    out: dict[str, float] = dict(passes[0].counts())
    for name in passes[0].layers:
        busy = sum(t.layers[name].busy_s for t in passes)
        self_s = sum(t.layers[name].self_s for t in passes)
        calls = passes[0].layers[name].calls
        out[f"{name}.busy_s"] = busy / k
        out[f"{name}.self_s"] = self_s / k
        out[f"{name}.busy_pct"] = 100.0 * busy / op_s
        out[f"{name}.self_pct"] = 100.0 * self_s / op_s
        out[f"{name}.ns_per_call"] = 1e9 * busy / (k * calls) if calls else 0.0
    advance = passes[0].layers["codec.advance_uncertainty"].counts
    out["codec.advance_uncertainty.out_per_in"] = (
        advance["cand_out"] / advance["cand_in"] if advance["cand_in"] else 0.0
    )
    # _set_digest hashes every advance_uncertainty result exactly once
    out["codec.digest_bytes"] = advance["bytes_out"]
    out["trace.top_span_pct"] = 100.0 * sum(t.top_s for t in passes) / op_s
    return out
