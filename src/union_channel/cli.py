"""Command-line front end: capacity tables, oracle runs, codec simulations.

Output formats: ``table`` (human, 5 decimal places), ``csv`` and ``jsonl``
(full double precision; exact integers as decimal strings). Every command
is deterministic given its flags, including the seed; the machine formats
are byte-identical across runs. The environment variable
``UNION_CHANNEL_THREADS`` (1 to 64) sets the most worker processes that codec
trials may use.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import re
import sys
from typing import NoReturn, Sequence

from . import capacity, codec, oracle
from .entropy import DEFAULT_SEED, MAX_ALPHABET, rate_root

THREADS_ENV = "UNION_CHANNEL_THREADS"

FORMATS = ("table", "csv", "jsonl")


def _fmt5(value) -> str:
    return f"{value:.5f}" if isinstance(value, float) else str(value)


def _emit_rows(headers: list[str], rows: list[dict], fmt: str) -> None:
    out = sys.stdout
    if fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(row) + "\n")
        return
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return
    display = [{k: _fmt5(v) for k, v in row.items()} for row in rows]
    widths = {h: max([len(h), *(len(r[h]) for r in display)]) for h in headers}
    out.write("  ".join(h.ljust(widths[h]) for h in headers).rstrip() + "\n")
    for row in display:
        out.write("  ".join(row[h].ljust(widths[h]) for h in headers).rstrip() + "\n")


def _emit_record(row: dict, fmt: str, width: int, labels: dict) -> None:
    # one record: "label value" lines for humans, a one-row csv or jsonl otherwise
    if fmt != "table":
        _emit_rows(list(row), [row], fmt)
        return
    for key, value in row.items():
        sys.stdout.write(f"{labels.get(key, key):<{width}}{_fmt5(value)}\n")


_CAPACITY_LABELS = {
    "r_no_feedback": "R(E)",
    "r_feedback": "R(E_f)",
    "theta_star": "theta*",
    "r_zero_error_lower": "R(O_f) lower bound",
}


def _cmd_capacity(args) -> int:
    report = capacity.avg_feedback_capacity(args.q)
    _emit_record(vars(report), args.format, 20, _CAPACITY_LABELS)
    return 0


def _cmd_table(args) -> int:
    rows = [vars(capacity.avg_feedback_capacity(q)) for q in range(2, args.q_max + 1)]
    _emit_rows(list(rows[0]), rows, args.format)
    return 0


def _refuse(kind: str, reason) -> int:
    """Write one ``kind: reason`` line to stderr and return exit status 1."""
    sys.stderr.write(f"{kind}: {reason}\n")
    return 1


def _cmd_lemma(args) -> int:
    q, theta, samples = args.q, args.theta, args.samples
    grid_qs = set(oracle.GRID_QS)  # a set, so the texts print {2, 3}
    has_grid = q in grid_qs
    # user-typed decimals like 0.3333333 for 1/3 land a hair below 1/q;
    # snap those onto the closed form's left boundary
    theta_closed = max(theta, 1.0 / q) if theta >= 1.0 / q - 1e-7 else None

    # every refusal across options, in this order, before any oracle runs
    for refused, kind, reason in (
        (not has_grid and args.resolution is not None, "refused",
         f"--resolution sets the grid oracle's step; the grid covers q in {grid_qs} "
         f"only, got q={q}"),
        # options the chosen path would ignore: nothing draws at q=2 without
        # the sampler, and a NO-CLOSED-FORM row has no gap to compare
        (args.seed is not None and q == 2 and not samples, "refused",
         "--seed seeds the sampler and the q=3 grid; the q=2 grid is deterministic, "
         "so --seed at q=2 needs --samples"),
        (args.tolerance is not None and theta_closed is None, "refused",
         f"--tolerance bounds the gap to the closed form, which exists only for "
         f"theta >= 1/q; got theta={theta} at q={q}"),
        (samples * q > oracle.MAX_SAMPLER_ENTRIES, "refused",
         f"--samples {samples} at q={q} draws {samples * q} values; samples * q "
         f"must be at most {oracle.MAX_SAMPLER_ENTRIES}"),
        (not has_grid and not samples, "infeasible",
         f"the grid oracle covers q in {grid_qs} only; use --samples for q={q}"),
        (samples and theta_closed is None, "infeasible",
         f"the sampler needs theta >= 1/q, got {theta}"),
        # the one command that needs numpy; find_spec looks for it without loading it
        (importlib.util.find_spec("numpy") is None, "refused",
         "lemma runs the oracles, which need numpy, and numpy is not installed"),
    ):
        if refused:
            return _refuse(kind, reason)

    seed = DEFAULT_SEED if args.seed is None else args.seed
    grid_value = sampler_value = None
    if has_grid:
        try:  # the grid refuses a step out of its own range before it runs
            grid = oracle.grid_max_joint_entropy(q, theta, args.resolution, seed=seed)
        except ValueError as exc:
            return _refuse("refused", exc)
        grid_value = grid.value
    if samples:
        sampler_value = oracle.random_feasible_sampler(
            q, theta_closed, samples, seed=seed
        )
        if sampler_value == -math.inf:  # nothing accepted
            sampler_value = None
    observed = [v for v in (grid_value, sampler_value) if v is not None]
    if not observed:
        return _refuse("infeasible", "no feasible pair found at this theta")

    # below 1/q there is nothing to compare with, so no gap and no tolerance
    closed_form = gap = tolerance = None
    status, ok = "NO-CLOSED-FORM", True
    if theta_closed is not None:
        closed_form = capacity.max_joint_entropy(theta_closed, q)
        best = max(observed)
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = 1e-3 if grid_value is not None else 0.02
        gap = closed_form - best
        ok = best <= closed_form + 1e-9 and gap <= tolerance
        status = "PASS" if ok else "FAIL"

    row = {
        "q": q,
        "theta": theta,
        "closed_form": closed_form,
        "grid_value": grid_value,
        "sampler_value": sampler_value,
        "gap": gap,
        "tolerance": tolerance,
        "status": status,
    }
    _emit_record(row, args.format, 14, {})
    return 0 if ok else 1


def _workers_from_env() -> int:
    try:
        return _number(int, 1, codec.MAX_WORKERS)(os.environ.get(THREADS_ENV, "1"))
    except argparse.ArgumentTypeError as exc:
        sys.stderr.write(f"union-channel codec: error: {THREADS_ENV}: {exc}\n")
        raise SystemExit(2) from None


def _cmd_codec(args) -> int:
    try:
        params = codec.CodeParams(q=args.q, n=args.n, m=args.m, blocks=args.B)
    except ValueError as exc:
        return _refuse("refused", exc)
    report = codec.simulate(
        params, args.trials, seed=args.seed, workers=_workers_from_env()
    )
    if args.format == "jsonl":
        for line in codec.report_jsonl_lines(report):
            sys.stdout.write(line + "\n")
    elif args.format == "csv":
        rows = [vars(r) for r in report.records]
        _emit_rows(list(rows[0]), rows, "csv")
    else:
        check = codec.validate_params(params.q, params.n, params.m)
        sys.stdout.write(
            f"q={params.q} n={params.n} m={params.m} blocks={params.blocks} "
            f"trials={report.trials} seed={report.seed}\n"
        )
        row = {
            "feasibility": f"lhs={check.lhs} rhs={check.rhs}",
            "errors": report.errors,
            "max_uncertainty": report.max_uncertainty,
            "uses": f"min={report.min_uses} max={report.max_uses} "
            f"bound={report.uses_bound}",
            "achieved_rate": report.achieved_rate,
            "zero_error": "yes" if report.errors == 0 else "VIOLATED",
        }
        _emit_record(row, "table", 21, {})
    return 0 if report.errors == 0 else 1


def _cmd_params(args) -> int:
    root = rate_root(args.q)
    rows = [{"n": c.n, "m": c.m, "rate": c.rate, "gap_to_root": c.rate - root}
            for c in codec.best_params(args.q, args.n_max)]
    _emit_rows(["n", "m", "rate", "gap_to_root"], rows, args.format)
    if args.format == "jsonl":
        sys.stdout.write(
            json.dumps({"summary": True, "q": args.q, "rate_root": root}) + "\n"
        )
    elif args.format == "table":
        sys.stdout.write(f"rate_root(q={args.q}) = {_fmt5(root)}\n")
    return 0


def _number(kind: type, lo, hi=math.inf):
    """An argparse ``type=`` that parses ``kind`` and keeps it in ``[lo, hi]``.

    NaN and infinities are refused too, so every accepted value is finite.
    """
    if hi < math.inf:
        span = f"in [{lo}, {hi}]"
    else:
        span = f"finite and >= {lo}" if kind is float else f">= {lo}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not lo <= value <= hi or value == math.inf:  # nan fails lo <= value
            raise argparse.ArgumentTypeError(f"must be {span}, got {text}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage text.

    A word that begins like a negative number (``-1e-3``, ``-inf``, ``-nan``) is
    read as a value, as argparse already reads ``-1`` and ``-.5``, so
    ``--tolerance -inf`` gets the option's range text, as ``--tolerance=-inf``
    does; no option name begins that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="union-channel",
        description="Capacities and zero-error coding for the two-user union channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="table")

    # each numeric option's range is checked once, by its type=
    block_length = _number(int, 1, codec.MAX_BLOCK_LENGTH)

    p = sub.add_parser("capacity", help="symmetric rates for one alphabet size")
    p.add_argument("--q", type=_number(int, 2, MAX_ALPHABET), required=True)
    add_common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("table", help="capacity table for q = 2..q-max")
    p.add_argument("--q-max", type=_number(int, 2, 1000), required=True)
    add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("lemma", help="oracle vs closed-form joint-entropy maximum")
    p.add_argument("--q", type=_number(int, 2, MAX_ALPHABET), required=True)
    p.add_argument("--theta", type=_number(float, 0, 1), required=True)
    # the grid oracle owns the range and default of its step; see grid_max_joint_entropy
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--samples", type=_number(int, 1), default=0, nargs="?", const=100_000)
    p.add_argument("--seed", type=_number(int, 0), default=None)
    p.add_argument("--tolerance", type=_number(float, 0), default=None)
    add_common(p)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("codec", help="run the zero-error protocol simulation")
    p.add_argument("--q", type=_number(int, 2, MAX_ALPHABET), required=True)
    p.add_argument("--n", type=block_length, required=True)
    p.add_argument("--m", type=block_length, required=True)
    p.add_argument("--B", type=_number(int, 1, codec.MAX_BLOCKS), required=True)
    p.add_argument("--trials", type=_number(int, 1, codec.MAX_TRIALS), default=100)
    p.add_argument("--seed", type=_number(int, 0), default=DEFAULT_SEED)
    add_common(p)
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("params", help="feasible (n, m) pairs and their rates")
    p.add_argument("--q", type=_number(int, 2, MAX_ALPHABET), required=True)
    p.add_argument("--n-max", type=block_length, default=codec.MAX_BLOCK_LENGTH)
    add_common(p)
    p.set_defaults(func=_cmd_params)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
