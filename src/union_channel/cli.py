"""Command-line front end: capacity tables, oracle runs, codec simulations.

Output formats: ``table`` (human, 5 decimal places), ``csv`` and ``jsonl``
(full double precision; exact integers as decimal strings). Every command
is deterministic given its flags, including the seed; the machine formats
are byte-identical across runs. The environment variable
``UNION_CHANNEL_THREADS`` overrides the worker count for codec trials.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Sequence

from . import capacity, codec, oracle

THREADS_ENV = "UNION_CHANNEL_THREADS"

FORMATS = ("table", "csv", "jsonl")


def _fmt5(value) -> str:
    return f"{value:.5f}" if isinstance(value, float) else str(value)


def _emit_rows(headers: list[str], rows: list[dict], fmt: str, out) -> None:
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
    widths = {h: max(len(h), *(len(r[h]) for r in display)) for h in headers}
    out.write("  ".join(h.ljust(widths[h]) for h in headers).rstrip() + "\n")
    for row in display:
        out.write("  ".join(row[h].ljust(widths[h]) for h in headers).rstrip() + "\n")


def _emit_fields(row: dict, labels: dict, width: int) -> None:
    # human layout for a single record: one "label value" line per field
    for key, value in row.items():
        sys.stdout.write(f"{labels.get(key, key):<{width}}{_fmt5(value)}\n")


def _capacity_row(report: capacity.CapacityReport) -> dict:
    return {
        "q": report.q,
        "r_no_feedback": report.r_no_feedback,
        "r_feedback": report.r_feedback,
        "theta_star": report.theta_star,
        "case": report.case,
        "r_zero_error_lower": report.r_zero_error_lower,
    }


_CAPACITY_HEADERS = [
    "q",
    "r_no_feedback",
    "r_feedback",
    "theta_star",
    "case",
    "r_zero_error_lower",
]

_CAPACITY_LABELS = {
    "r_no_feedback": "R(E)",
    "r_feedback": "R(E_f)",
    "theta_star": "theta*",
    "r_zero_error_lower": "R(O_f) lower bound",
}


def _cmd_capacity(args) -> int:
    report = capacity.avg_feedback_capacity(args.q)
    row = _capacity_row(report)
    if args.format == "table":
        _emit_fields(row, _CAPACITY_LABELS, 20)
    else:
        _emit_rows(_CAPACITY_HEADERS, [row], args.format, sys.stdout)
    return 0


def _cmd_table(args) -> int:
    rows = [
        _capacity_row(capacity.avg_feedback_capacity(q))
        for q in range(2, args.q_max + 1)
    ]
    _emit_rows(_CAPACITY_HEADERS, rows, args.format, sys.stdout)
    return 0


def _cmd_lemma(args) -> int:
    if args.resolution is None:
        # the q=3 search grids a 2-simplex, quadratic in 1/resolution
        args.resolution = 1e-4 if args.q == 2 else 1e-2
    # user-typed decimals like 0.3333333 for 1/3 land a hair below 1/q;
    # snap those onto the closed form's left boundary
    theta_closed = args.theta if args.theta >= 1.0 / args.q else None
    if theta_closed is None and args.theta >= 1.0 / args.q - 1e-7:
        theta_closed = 1.0 / args.q
    closed_form = None
    if theta_closed is not None:
        closed_form = capacity.max_joint_entropy(theta_closed, args.q)

    grid_value = None
    if args.q in (2, 3):
        try:
            result = oracle.grid_max_joint_entropy(
                args.q, args.theta, args.resolution, seed=args.seed
            )
        except ValueError as exc:
            sys.stderr.write(f"refused: {exc}\n")
            return 1
        grid_value = result.value
    elif args.samples == 0:
        sys.stderr.write(
            f"infeasible: the grid oracle covers q in {{2, 3}} only; "
            f"use --samples for q={args.q}\n"
        )
        return 1

    sampler_value = None
    if args.samples > 0:
        if theta_closed is None:
            sys.stderr.write(
                f"infeasible: the sampler needs theta >= 1/q, got {args.theta}\n"
            )
            return 1
        sampler_value = oracle.random_feasible_sampler(
            args.q, theta_closed, args.samples, seed=args.seed
        )
        if sampler_value == float("-inf"):  # nothing accepted
            sampler_value = None

    observed = [v for v in (grid_value, sampler_value) if v is not None]
    if not observed:
        sys.stderr.write("infeasible: no feasible pair found at this theta\n")
        return 1
    best = max(observed)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = 1e-3 if grid_value is not None else 0.02

    if closed_form is None:
        status = "NO-CLOSED-FORM"
        gap = None
        ok = True
    else:
        gap = closed_form - best
        ok = best <= closed_form + 1e-9 and gap <= tolerance
        status = "PASS" if ok else "FAIL"

    row = {
        "q": args.q,
        "theta": args.theta,
        "closed_form": closed_form,
        "grid_value": grid_value,
        "sampler_value": sampler_value,
        "gap": gap,
        "tolerance": tolerance,
        "status": status,
    }
    if args.format == "table":
        _emit_fields(row, {}, 14)
    else:
        _emit_rows(list(row), [row], args.format, sys.stdout)
    return 0 if ok else 1


def _workers_from_env() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise SystemExit(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return workers


def _cmd_codec(args) -> int:
    try:
        check = codec.validate_params(args.q, args.n, args.m)
        if not check.feasible:
            sys.stderr.write(
                f"infeasible (q={args.q}, n={args.n}, m={args.m}): "
                f"lhs={check.lhs} rhs={check.rhs} (need n/2 <= m <= n and lhs <= rhs)\n"
            )
            return 1
        params = codec.CodeParams(q=args.q, n=args.n, m=args.m, blocks=args.B)
    except ValueError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 1
    report = codec.simulate(
        params, args.trials, seed=args.seed, workers=_workers_from_env()
    )
    if args.format == "jsonl":
        for line in codec.report_jsonl_lines(report):
            sys.stdout.write(line + "\n")
    elif args.format == "csv":
        rows = [dataclasses.asdict(r) for r in report.records]
        _emit_rows(["trial", "uses", "max_uncertainty", "ok"], rows, "csv", sys.stdout)
    else:
        sys.stdout.write(
            f"q={params.q} n={params.n} m={params.m} blocks={params.blocks} "
            f"trials={report.trials} seed={report.seed}\n"
            f"feasibility          lhs={check.lhs} rhs={check.rhs}\n"
            f"errors               {report.errors}\n"
            f"max_uncertainty      {report.max_uncertainty}\n"
            f"uses                 min={report.min_uses} max={report.max_uses} "
            f"bound={report.uses_bound}\n"
            f"achieved_rate        {_fmt5(report.achieved_rate)}\n"
            f"zero_error           {'yes' if report.errors == 0 else 'VIOLATED'}\n"
        )
    return 0 if report.errors == 0 else 1


def _cmd_params(args) -> int:
    root = codec.rate_root(args.q)
    choices = codec.best_params(args.q, args.n_max)
    rows = [
        {"n": c.n, "m": c.m, "rate": c.rate, "gap_to_root": c.rate - root}
        for c in choices
    ]
    _emit_rows(["n", "m", "rate", "gap_to_root"], rows, args.format, sys.stdout)
    if args.format == "jsonl":
        sys.stdout.write(
            json.dumps({"summary": True, "q": args.q, "rate_root": root}) + "\n"
        )
    elif args.format == "table":
        sys.stdout.write(f"rate_root(q={args.q}) = {_fmt5(root)}\n")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="union-channel",
        description="Capacities and zero-error coding for the two-user union channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="table")

    p = sub.add_parser("capacity", help="symmetric rates for one alphabet size")
    p.add_argument("--q", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("table", help="capacity table for q = 2..q-max")
    p.add_argument("--q-max", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("lemma", help="oracle vs closed-form joint-entropy maximum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--samples", type=_positive_int, default=0, nargs="?", const=100_000)
    p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    p.add_argument("--tolerance", type=float, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("codec", help="run the zero-error protocol simulation")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--B", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=codec.DEFAULT_SEED)
    add_common(p)
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("params", help="feasible (n, m) pairs and their rates")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=_positive_int, default=64)
    add_common(p)
    p.set_defaults(func=_cmd_params)

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    q = getattr(args, "q", None)
    if q is not None and q < 2:
        parser.error(f"--q must be at least 2, got {q}")
    q_max = getattr(args, "q_max", None)
    if q_max is not None and not 2 <= q_max <= 1000:
        parser.error(f"--q-max must lie in [2, 1000], got {q_max}")
    n_max = getattr(args, "n_max", None)
    if n_max is not None and n_max > 64:
        parser.error(f"--n-max must be at most 64, got {n_max}")
    theta = getattr(args, "theta", None)
    if theta is not None and not 0.0 <= theta <= 1.0:
        parser.error(f"--theta must lie in [0, 1], got {theta}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
