"""Brute-force verification of the constrained joint-entropy maximum.

Everything here is deliberately independent of the closed forms in
``union_channel.capacity``: feasible pairs are built straight from the
defining constraints (two unit-sum vectors with a prescribed inner
product), and objectives are raw entropy evaluations. The searches
therefore produce true lower bounds on the maximum, good for falsifying
the closed forms without sharing a code path with them.

Every search is a list of labelled sources of candidate rows, walked by one
loop, :func:`_search`, which keeps the first greatest value and its source's
label: the q=2 grid's one source (``grid``); the q=3 grid's ``symmetric``,
``random`` and ``disjoint`` sides, then its ``refinement`` around their best
pair; the sampler's six batches, ``symmetric`` and then ``independent`` at each
Dirichlet concentration (``symmetric 0.15`` ... ``independent 1.0``).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from operator import add, mul

from .entropy import (
    DEFAULT_SEED, check_alphabet, check_between, check_count, entropy_q, validate_pmf,
)


class _Numpy:
    """Stands in for numpy until an oracle first reads an attribute of it.

    Only the oracles need numpy, which costs about 11 MB of resident memory
    and 80-140 ms to import, so importing this module leaves it unloaded. The
    first attribute read imports it and rebinds the module global ``np`` to
    numpy itself; every later lookup of ``np`` finds the real module.
    """

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()

_IP_TOL = 1e-10


@dataclass(frozen=True)
class FeasiblePair:
    """Two distributions whose inner product equals ``theta``."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    theta: float

    def __post_init__(self) -> None:
        validate_pmf(self.a)
        validate_pmf(self.b)
        actual = reduce(add, map(mul, self.a, self.b), 0.0)  # sum() compensates from 3.12
        if not abs(actual - self.theta) <= _IP_TOL:  # a NaN theta fails too
            raise ValueError(
                f"inner product {actual!r} differs from theta {self.theta!r}"
            )


def _interpolate(
    theta0: np.ndarray, theta: float, q: int, *sides: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Slide each row pair (a, b) toward uniform until its inner product is theta.

    Mixing both with the uniform vector j at weight t gives inner product
    (1-t)^2 * theta0 + (2-t) * t / q, which runs from theta0 = a.b at t = 0
    to 1/q at t = 1; the quadratic is solved for the root in [0, 1]. Rows
    already at theta0 = 1/q stay put. Each side is moved by the same t.
    """
    denom = theta0 - 1.0 / q
    c = np.divide(theta - theta0, denom, out=np.zeros_like(denom), where=np.abs(denom) > 1e-15)
    t = 1.0 - np.sqrt(np.maximum(1.0 + c, 0.0))
    keep, shift = (1.0 - t)[:, None], (t / q)[:, None]
    return tuple(keep * x + shift for x in sides)


def interpolate_to_theta(
    a: tuple[float, ...] | list[float],
    b: tuple[float, ...] | list[float],
    theta_target: float,
) -> FeasiblePair:
    """Slide (a, b) toward the uniform vector until the inner product hits target.

    The target must lie between a.b and 1/q; see :func:`_interpolate`.
    """
    validate_pmf(a)
    validate_pmf(b)
    if len(a) != len(b):
        raise ValueError("a and b must have equal lengths")
    q = len(a)
    theta0 = reduce(add, map(mul, a, b), 0.0)
    lo, hi = min(theta0, 1.0 / q), max(theta0, 1.0 / q)
    check_between(theta_target, lo - _IP_TOL, hi + _IP_TOL)
    ap, bp = _interpolate(
        np.array([theta0]), theta_target, q,
        np.array([a], dtype=float), np.array([b], dtype=float),
    )
    return FeasiblePair(tuple(ap[0].tolist()), tuple(bp[0].tolist()), theta_target)


# ---------------------------------------------------------------------------
# Two-level reduction


@dataclass(frozen=True)
class TwoLevelPoint:
    """Distribution with r cells at ``a_hi`` and q - r cells at ``b_lo``."""

    r: int
    a_hi: float
    b_lo: float


def two_level_point(q: int, theta: float, r: int) -> TwoLevelPoint | None:
    """Solve r*a + s*b = 1, r*a^2 + s*b^2 = theta with a >= b; None if b < 0."""
    check_alphabet(q)
    check_between(r, 1, q - 1, name="r")
    check_between(theta, 1.0 / q, 1.0, "[1/q, 1]")
    p = theta * q - 1.0
    s = q - r
    root = math.sqrt(max(r * s * p, 0.0))
    a_hi = 1.0 / q + root / (q * r)
    b_lo = 1.0 / q - root / (q * s)
    if b_lo < 0.0:
        return None
    return TwoLevelPoint(r=r, a_hi=a_hi, b_lo=b_lo)


def two_level_value(q: int, theta: float, r: int) -> float | None:
    """Doubled base-q entropy of the two-level point, or None if infeasible.

    At r = 1 this reproduces the closed-form maximum; for r >= 2 it is
    strictly smaller, which the monotonicity check below confirms.
    """
    point = two_level_point(q, theta, r)
    if point is None:
        return None
    probs = (point.a_hi,) * point.r + (point.b_lo,) * (q - point.r)
    return 2.0 * entropy_q(probs, q)


@dataclass(frozen=True)
class MonotonicityReport:
    """Objective of the two-level family along t = r/q, with sign diagnostics."""

    ts: tuple[float, ...]
    values: tuple[float, ...]  # v(t) = -r a ln a - s b ln b, in nats
    ratios: tuple[float, ...]  # a / b at each feasible t (inf at b = 0)
    decreasing: bool
    derivative_sign_ok: bool


def derivative_sign_expression(ratio: float) -> float:
    """-(1/2)(r+1) ln r - 1 + r for the level ratio r = a/b; negative for r > 1."""
    return -0.5 * (ratio + 1.0) * math.log(ratio) - 1.0 + ratio


def two_level_monotonicity(q: int, theta: float, grid_points: int) -> MonotonicityReport:
    """Evaluate the two-level objective on a t-grid and check it decreases.

    The grid spans [1/q, 1 - 1/q] (continuous t, not only integer r) and is
    restricted to feasible points (low mass nonnegative). Also verifies the
    closed-form derivative sign expression at every encountered ratio > 1.
    """
    check_alphabet(q)
    check_between(grid_points, 1, MAX_GRID_POINTS, name="grid_points")
    check_between(theta, 1.0 / q, 1.0, "[1/q, 1]")
    p = max(theta * q - 1.0, 0.0)  # (1/49) * 49 is 1 - 1.1e-16
    step = (1.0 - 2.0 / q) / max(grid_points - 1, 1)
    ts, values, ratios = [], [], []
    for t in (1.0 / q + i * step for i in range(grid_points)):
        a = (1.0 + math.sqrt(p * (1.0 - t) / t)) / q
        b = (1.0 - math.sqrt(p * t / (1.0 - t))) / q
        if b < 0.0:
            continue
        v = 0.0
        for mass, weight in ((a, q * t), (b, q * (1.0 - t))):
            if mass > 0.0:
                v -= weight * mass * math.log(mass)
        ts.append(t)
        values.append(v)
        ratios.append(a / b if b > 0.0 else math.inf)
    decreasing = all(
        values[i + 1] - values[i] < 1e-12 for i in range(len(values) - 1)
    )
    return MonotonicityReport(
        ts=tuple(ts),
        values=tuple(values),
        ratios=tuple(ratios),
        decreasing=decreasing,
        derivative_sign_ok=all(
            derivative_sign_expression(r) < 0.0 for r in ratios if 1.0 < r < math.inf
        ),
    )


# ---------------------------------------------------------------------------
# Exhaustive and randomized searches

# rows per numpy pass: the searches draw and evaluate their candidate rows
# this many at a time. Only the sampler's independent batches hold a side
# whole (a list of its drawn chunks), so its memory grows with the sample
# count; the grids hold none of their draws (the q=3 grid still holds its
# simplex grid)
_CHUNK_ROWS = 4096

# the most values one sampler call may draw, samples * q; its side a holds a
# sixth of them. The q=3 grid may draw a sixth of this as refinements * 3
# normals a side, but it holds none of them whole, so that cap bounds its
# time only. On a 2-vCPU x86-64 host with numpy 2.4 one process peaks at
# 49 MB of RSS for the q=5 sampler at the cap and at 36.5 MB for the q=3
# grid at step 0.01 at its cap (0.15 s a call), against 16.5 MB for
# `union-channel capacity --q 4`, which loads no numpy
MAX_SAMPLER_ENTRIES = 10**7
# the most t-grid points one two_level_monotonicity call may evaluate; its
# report holds three tuples of up to that length. On the same host a call at
# the cap takes 0.8-1.1 s and grows RSS by up to 138 MB (q=4 at theta 1/4,
# where every point is feasible), against 0.07-0.18 s at 10**5
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class GridSearchResult:
    """Best feasible pair found by the grid; both grids find one at every theta."""

    value: float
    a: tuple[float, ...]
    b: tuple[float, ...]
    resolution: float


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)``, bit for bit, without numpy's per-row reduction cost.

    Below 8 columns numpy adds a row left to right onto +0.0, so adding
    whole columns in that order gives the same bits (a row of -0.0 sums to
    +0.0 too) far faster on narrow rows; from 8 columns on numpy sums
    pairwise, so there its own sum is kept.
    """
    width = x.shape[1]
    if width >= 8:
        return x.sum(axis=1)
    sums = x[:, 0] + 0.0
    for c in range(1, width):
        sums += x[:, c]
    return sums


def _xlogx(x: np.ndarray) -> np.ndarray:
    terms = np.zeros_like(x)
    np.log(x, out=terms, where=x > 0.0)  # 0 log 0 = 0: the zeros stay
    terms *= x
    return terms


def _row_entropies(x: np.ndarray, q: int) -> np.ndarray:
    """Base-q entropy of each row of x: the one entropy kernel of all three oracles."""
    return _row_sums(_xlogx(x)) / -math.log(q)  # the bits of -s / ln q, one pass fewer


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of x scaled to unit sum; all-zero rows are dropped.

    When no row is all zero, x itself is scaled in place and returned, so
    pass only an array that nothing else reads, such as a fresh draw.
    """
    sums = _row_sums(x)
    keep = sums > 0.0
    if keep.all():  # nearly always: no copy of the kept rows
        x /= sums[:, None]
        return x
    return x[keep] / sums[keep][:, None]


def _row_chunks(x: np.ndarray) -> Iterator[np.ndarray]:
    return (x[start : start + _CHUNK_ROWS] for start in range(0, len(x), _CHUNK_ROWS))


def _drawn_unit_rows(
    draw: Callable[..., np.ndarray], rows: int, width: int
) -> Iterator[np.ndarray]:
    """The unit rows of ``draw(size=(rows, width))``, drawn a chunk at a time.

    numpy continues one stream across draws of consecutive sizes, so the
    chunks hold the rows of the whole draw and leave the generator where the
    whole draw would. Nothing is drawn until the chunks are asked for.
    """
    for start in range(0, rows, _CHUNK_ROWS):
        yield _unit_rows(draw(size=(min(_CHUNK_ROWS, rows - start), width)))


def _zipped_rows(
    a_chunks: Iterable[np.ndarray], b_chunks: Iterable[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pair two streams of row chunks row by row, up to the shorter stream.

    Each chunk of b, cut to the a rows left, meets a's next rows: a view of
    one a chunk where the chunks align, else one array joined from several.
    b is drawn to its end even after a runs out, so a generator behind it is
    left where a whole draw of b would leave it. No pair is empty.
    """
    a_chunks = iter(a_chunks)
    rest = ()  # a's rows not yet paired
    for b in b_chunks:
        while len(rest) < len(b) and (a := next(a_chunks, None)) is not None:
            rest = np.concatenate((rest, a)) if len(rest) else a
        if len(rest) and len(b):
            yield rest[: len(b)], b[: len(rest)]
        rest = rest[len(b) :]


def _feasible_rows(theta0: np.ndarray, theta: float, q: int) -> np.ndarray:
    """Indices of the rows whose interpolation can reach theta.

    A row reaches theta when theta lies between min(theta0, 1/q) - 1e-15 and
    max(theta0, 1/q) + 1e-15. Rounding is monotone, so
    fl(max(x, u) + d) == max(fl(x + d), fl(u + d)): on theta's side of 1/q
    only one bound can fail, and within 1e-15 of 1/q neither can.
    """
    u = 1.0 / q
    above, below = theta >= u - 1e-15, theta <= u + 1e-15
    if above and below:
        return np.arange(len(theta0))
    return np.flatnonzero(theta <= theta0 + 1e-15 if above else theta >= theta0 - 1e-15)


def _interpolated_rows(
    a: np.ndarray, b: np.ndarray, theta: float, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """H(a') + H(b'), a' and b' of the rows that interpolate onto theta; None if none do.

    a and b hold the same number of rows, paired by position; any pairing of
    two pmfs is a candidate. When b is a, each row is interpolated and its
    entropy taken once, and doubled (x + x == 2 * x exactly).
    """
    symmetric = b is a
    theta0 = _row_sums(a * b)
    rows = _feasible_rows(theta0, theta, q)
    if not len(rows):
        return None
    a, theta0 = a.take(rows, axis=0), theta0.take(rows)
    b = a if symmetric else b.take(rows, axis=0)
    if symmetric:
        (ap,) = _interpolate(theta0, theta, q, a)
        return 2.0 * _row_entropies(ap, q), ap, ap
    ap, bp = _interpolate(theta0, theta, q, a, b)
    return _row_entropies(ap, q) + _row_entropies(bp, q), ap, bp


def _search(
    sources: Iterable[tuple[str, Iterable[tuple]]],
    score: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray] | None],
    best: tuple | None = None,
) -> tuple[str, float, np.ndarray, np.ndarray] | None:
    """The best row of ``score(*chunk)`` over the chunks of labelled sources, with its label.

    Each source is a ``(label, chunks)`` pair, walked in order; ``score`` gives a
    chunk's row values and its two arrays of rows, or None when no row is feasible.
    A chunk's first greatest value displaces the incumbent (label, value, a, b),
    ``best`` at the start, only when strictly greater, so the first maximum of the
    whole search is kept. Only the winner's rows are copied, and each scored chunk
    is let go before the next is drawn, so the result holds no chunk alive.
    """
    for label, chunks in sources:
        for chunk in chunks:
            if (scored := score(*chunk)) is None:
                continue
            values, a, b = scored
            i = int(np.argmax(values))
            if best is None or values[i] > best[1]:
                best = label, float(values[i]), a[i].copy(), b[i].copy()
            del scored, values, a, b
    return best


def _grid_q2_chunk(
    a1: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    # the partner b1 solves a1*b1 + (1-a1)(1-b1) = theta exactly, so every evaluated
    # pair is feasible; rows at a1 = 0.5 (no partner) or whose b1 falls outside
    # [0, 1] are dropped, None if all are
    denom = 2.0 * a1 - 1.0
    ok = np.abs(denom) > 1e-12
    b1 = (theta - 1.0 + a1) / np.where(ok, denom, 1.0)
    keep = ok & (b1 >= -1e-12) & (b1 <= 1.0 + 1e-12)
    count = np.count_nonzero(keep)
    if not count:
        return None
    # masses[0] holds the kept rows' a1 and b1, masses[1] their complements,
    # so each pmf is one row of masses.reshape(2, -1).T: the a side, then b
    masses = np.empty((2, 2, count))
    masses[0, 0] = a1[keep]
    np.clip(b1[keep], 0.0, 1.0, out=masses[0, 1])
    np.subtract(1.0, masses[0], out=masses[1])
    pmfs = masses.reshape(2, -1).T
    entropies = _row_entropies(pmfs, 2)
    return entropies[:count] + entropies[count:], pmfs[:count], pmfs[count:]


def _grid_q2(theta: float, resolution: float) -> tuple[str, float, np.ndarray, np.ndarray]:
    # one free coordinate per side; at a1 = 0 the partner is b1 = 1 - theta,
    # so for theta in [0, 1] one pair is always feasible
    a1 = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    chunks = ((chunk,) for chunk in _row_chunks(a1))
    return _search([("grid", chunks)], partial(_grid_q2_chunk, theta=theta))


def _simplex_grid(step: float) -> np.ndarray:
    """The points (i, j, k - i - j) / k with k = 1 / step, i major and j minor."""
    k = round(1.0 / step)
    lengths = np.arange(k + 1, 0, -1)  # k + 1 - i values of j for each i
    i = np.repeat(np.arange(k + 1), lengths)
    j = np.arange(len(i)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    points = np.stack([i, j, k - i - j], axis=1, dtype=float)
    points /= k  # in place: float64 i / k is correctly rounded, as Python's is
    return points


def _disjoint_pairs(grid: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # each point with a zero coordinate against the vertex at that coordinate:
    # inner product 0, so interpolation reaches every theta in [0, 1/3]
    for c in range(3):
        points = grid[grid[:, c] == 0.0]
        vertex = np.zeros_like(points)
        vertex[:, c] = 1.0
        yield points, vertex


def _jittered(
    rng: np.random.Generator, centre: np.ndarray, scale: float, size: tuple[int, int]
) -> np.ndarray:
    """Rows ``max(centre + rng.normal(0.0, scale, size), 0)``: a jitter about centre."""
    x = rng.normal(0.0, scale, size)
    x += centre  # the bits of centre + x
    return np.maximum(x, 0.0, out=x)


def _grid_q3(
    theta: float, resolution: float, seed: int, refinements: int
) -> tuple[str, float, np.ndarray, np.ndarray]:
    # scan the 2-simplex for one side; the other side runs over the same
    # point (the symmetric family, whose vertices reach every theta in
    # [1/3, 1]), then two sides of seeded random directions, then the
    # disjoint vertices (every theta in [0, 1/3]); every pair is pulled onto
    # the theta constraint by interpolation toward uniform
    rng = np.random.default_rng(seed)
    grid = _simplex_grid(resolution)
    directions = _drawn_unit_rows(partial(rng.gamma, 0.5), 2 * len(grid), 3)
    score = partial(_interpolated_rows, theta=theta, q=3)
    best = _search([
        ("symmetric", ((rows, rows) for rows in _row_chunks(grid))),
        ("random", _zipped_rows(chain(_row_chunks(grid), _row_chunks(grid)), directions)),
        ("disjoint", _disjoint_pairs(grid)),
    ], score)
    # local refinements: jitter both incumbent rows. Side a's draws come
    # before side b's; rather than hold side a, skip its draws on rng and
    # draw them again from a copy taken before them, beside side b
    _, _, a_best, b_best = best
    scale = 2.0 * resolution
    replay = copy.deepcopy(rng)
    skipped = np.empty((min(_CHUNK_ROWS, refinements), 3))
    for start in range(0, refinements, _CHUNK_ROWS):
        # the same stream as normal(0.0, scale, ...) draws, without its result
        rng.standard_normal(out=skipped[: refinements - start])
    refined = _zipped_rows(
        _drawn_unit_rows(partial(_jittered, replay, a_best, scale), refinements, 3),
        _drawn_unit_rows(partial(_jittered, rng, b_best, scale), refinements, 3),
    )
    return _search([("refinement", refined)], score, best)


# per q: the default grid step and the floor; a finer q=2 grid has over 1M points a
# side, a finer q=3 grid over 500k points on its 2-simplex (quadratic in 1/step)
_GRID_STEPS = {2: (1e-4, 1e-6), 3: (1e-2, 1e-3)}
GRID_QS = frozenset(_GRID_STEPS)  # the alphabet sizes grid_max_joint_entropy covers


def grid_max_joint_entropy(
    q: int,
    theta: float,
    resolution: float | None = None,
    seed: int = DEFAULT_SEED,
    refinements: int = 100_000,
) -> GridSearchResult:
    """Exhaustive-style lower bound on the joint-entropy maximum (q = 2 or 3).

    Every evaluated pair satisfies the constraints exactly (up to float
    rounding), so the result never exceeds the true maximum. The q = 2
    search is deterministic; q = 3 uses a seeded generator for the sampled
    directions and the local refinements around the incumbent. Without a
    ``resolution`` the grid takes its per-q default step.
    """
    check_alphabet(q)
    if q not in GRID_QS:
        raise ValueError(f"grid search supports q in {set(GRID_QS)}, got {q}")
    check_between(theta, 0.0, 1.0)
    default, floor = _GRID_STEPS[q]
    resolution = default if resolution is None else resolution
    check_between(resolution, floor, 0.5, name="resolution")
    # refinements * 3 <= a sixth of the sampler's cap
    check_between(refinements, 0, MAX_SAMPLER_ENTRIES // 18, name="refinements")
    check_count(seed, "seed", 0)
    if q == 2:
        _, value, a, b = _grid_q2(theta, resolution)
    else:
        _, value, a, b = _grid_q3(theta, resolution, seed, refinements)
    return GridSearchResult(value, tuple(a.tolist()), tuple(b.tolist()), resolution)


def random_feasible_sampler(
    q: int, theta: float, samples: int, seed: int = DEFAULT_SEED
) -> float:
    """Max H(a) + H(b) over seeded random pairs pulled onto the constraint.

    Pairs are drawn from a mix of Dirichlet concentrations (half symmetric,
    half independent) and interpolated toward uniform when ``theta`` lies
    between their inner product and 1/q; pairs on the wrong side are
    discarded rather than re-solved. Returns -inf if nothing was feasible.
    """
    check_alphabet(q)
    check_between(samples, 1, MAX_SAMPLER_ENTRIES // q, name="samples")  # samples * q drawn
    check_between(theta, 1.0 / q, 1.0, "[1/q, 1]")
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    per = max(1, samples // 6)  # per batch: each concentration symmetric, then not

    def sources() -> Iterator[tuple[str, Iterator[tuple[np.ndarray, np.ndarray]]]]:
        for conc in (0.15, 0.5, 1.0):
            draw = partial(rng.gamma, conc)
            yield f"symmetric {conc}", ((a, a) for a in _drawn_unit_rows(draw, per, q))
            # side a is held whole, a sixth of the draws: drawing its gamma
            # values twice, as the q=3 refinements draw their normals, would
            # add a third to the draws, which are most of a sampler call
            yield f"independent {conc}", _zipped_rows(
                list(_drawn_unit_rows(draw, per, q)), _drawn_unit_rows(draw, per, q)
            )

    best = _search(sources(), partial(_interpolated_rows, theta=theta, q=q))
    return -math.inf if best is None else best[1]
