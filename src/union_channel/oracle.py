"""Brute-force verification of the constrained joint-entropy maximum.

Everything here is deliberately independent of the closed forms in
``union_channel.capacity``: feasible pairs are built straight from the
defining constraints (two unit-sum vectors with a prescribed inner
product), and objectives are raw entropy evaluations. The searches
therefore produce true lower bounds on the maximum, good for falsifying
the closed forms without sharing a code path with them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain

from .entropy import DEFAULT_SEED, check_alphabet, check_int, entropy_q, validate_pmf


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
        actual = sum(x * y for x, y in zip(self.a, self.b))
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
    safe = np.abs(denom) > 1e-15
    if safe.all():
        c = (theta - theta0) / denom
    else:
        c = np.where(safe, (theta - theta0) / np.where(safe, denom, 1.0), 0.0)
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
    if len(a) != len(b):
        raise ValueError("a and b must have equal lengths")
    q = len(a)
    validate_pmf(a)
    validate_pmf(b)
    theta0 = sum(x * y for x, y in zip(a, b))
    lo, hi = min(theta0, 1.0 / q), max(theta0, 1.0 / q)
    if not lo - _IP_TOL <= theta_target <= hi + _IP_TOL:
        raise ValueError(
            f"theta {theta_target!r} not between inner product {theta0!r} and 1/q"
        )
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
    check_int(r, "r")
    if not 1 <= r <= q - 1:
        raise ValueError(f"r must lie in [1, {q - 1}], got {r}")
    if not 1.0 / q <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/{q}, 1], got {theta!r}")
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
    check_int(grid_points, "grid_points")
    if grid_points < 1:
        raise ValueError(f"need at least one grid point, got {grid_points}")
    if not 1.0 / q < theta <= 1.0:
        raise ValueError(f"theta must lie in (1/{q}, 1], got {theta!r}")
    p = theta * q - 1.0
    step = (1.0 - 2.0 / q) / max(grid_points - 1, 1)
    ts, values, ratios = [], [], []
    sign_ok = True
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
        if b > 0.0:
            ratio = a / b
            ratios.append(ratio)
            if ratio > 1.0 and derivative_sign_expression(ratio) >= 0.0:
                sign_ok = False
        else:
            ratios.append(math.inf)
    decreasing = all(
        values[i + 1] - values[i] < 1e-12 for i in range(len(values) - 1)
    )
    return MonotonicityReport(
        ts=tuple(ts),
        values=tuple(values),
        ratios=tuple(ratios),
        decreasing=decreasing,
        derivative_sign_ok=sign_ok,
    )


# ---------------------------------------------------------------------------
# Exhaustive and randomized searches

# rows per numpy pass: the searches evaluate their candidate rows this many
# at a time, but a pair of independent draws holds its side a whole
# (_drawn_pairs), so memory still grows with the sample or refinement count
_CHUNK_ROWS = 4096

# the most values one sampler call may draw, samples * q; its side a holds a
# sixth of them. The q=3 grid's side a holds all of its refinements * 3, so
# the grid may draw a sixth of this. On a 2-vCPU x86-64 host with numpy 2.4
# one process peaks at 49 MB of RSS for the q=5 sampler at the cap and for
# the q=3 grid at step 0.01 at its cap, against 16.5 MB for
# `union-channel capacity --q 4`, which loads no numpy
MAX_SAMPLER_ENTRIES = 10**7


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
    return -_row_sums(_xlogx(x)) / math.log(q)


def _binary_entropies(masses: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each pmf (masses[0], masses[1]), as ``_row_entropies`` gives it.

    ``masses[1]`` must be ``1 - masses[0]``, with masses[0] at most 1. The
    two terms are added as ``_row_sums`` adds them but without its +0.0
    start, which changes a sum only when both terms are -0.0, and the
    second term never is; and -s / ln 2 == s / -ln 2 bit for bit, since
    rounding is symmetric in sign.
    """
    terms = _xlogx(masses)
    terms[0] += terms[1]
    return terms[0] / -math.log(2)


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


def _paired(
    a: np.ndarray, rows: int, b_chunks: Iterable[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pair b's chunks by position with the first ``rows`` rows of a, repeated end to end.

    This is the pairing of the whole of b with those rows up to the shorter
    side. b is drawn to its end even after the rows run out, so the
    generator is left where a whole draw of b would leave it.
    """
    start = 0
    for b in b_chunks:
        stop = min(start + len(b), rows)
        if start < stop:
            first = start % len(a)
            if first + stop - start <= len(a):  # no wrap: a view, not a copy
                yield a[first : first + stop - start], b
            else:
                yield a.take(np.arange(start, stop), axis=0, mode="wrap"), b
        start += len(b)


def _drawn_pairs(
    draw_a: Callable[..., np.ndarray],
    draw_b: Callable[..., np.ndarray],
    rows: int,
    width: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The unit rows of two draws, paired by position up to the shorter side.

    Side a is drawn whole into one array before side b, as one draw of each
    would be; b is then drawn a chunk at a time after it.
    """
    a = np.empty((rows, width))
    end = 0
    for chunk in _drawn_unit_rows(draw_a, rows, width):
        a[end : end + len(chunk)] = chunk
        end += len(chunk)
    yield from _paired(a, end, _drawn_unit_rows(draw_b, rows, width))


def _first_max(found: Iterable[tuple | None]) -> tuple | None:
    """The first of the results with the greatest value (index 0), as argmax picks."""
    best = None
    for item in found:
        if item is not None and (best is None or item[0] > best[0]):
            best = item
    return best


def _feasible_rows(theta0: np.ndarray, theta: float, q: int) -> np.ndarray | None:
    """Indices of the rows whose interpolation can reach theta; None for all rows.

    A row reaches theta when theta lies between min(theta0, 1/q) - 1e-15 and
    max(theta0, 1/q) + 1e-15. Rounding is monotone, so
    fl(max(x, u) + d) == max(fl(x + d), fl(u + d)): on theta's side of 1/q
    only one bound can fail, and within 1e-15 of 1/q neither can.
    """
    u = 1.0 / q
    above, below = theta >= u - 1e-15, theta <= u + 1e-15
    if above and below:
        return None
    return np.flatnonzero(theta <= theta0 + 1e-15 if above else theta >= theta0 - 1e-15)


def _interpolated_max(
    a: np.ndarray, b: np.ndarray, theta: float, q: int
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Max H(a') + H(b') over rows interpolated onto the theta constraint.

    Rows are paired by position up to the shorter side; any pairing of two
    pmfs is a candidate. When b is a, each row is interpolated and its
    entropy taken once, and doubled (x + x == 2 * x exactly).
    """
    symmetric = b is a
    count = min(len(a), len(b))
    a, b = a[:count], b[:count]
    theta0 = _row_sums(a * b)
    rows = _feasible_rows(theta0, theta, q)
    if rows is not None:
        if not len(rows):
            return None
        a, theta0 = a.take(rows, axis=0), theta0.take(rows)
        b = a if symmetric else b.take(rows, axis=0)
    if symmetric:
        (ap,) = _interpolate(theta0, theta, q, a)
        bp, values = ap, 2.0 * _row_entropies(ap, q)
    else:
        ap, bp = _interpolate(theta0, theta, q, a, b)
        values = _row_entropies(ap, q) + _row_entropies(bp, q)
    i = int(np.argmax(values))
    # copies, so a kept result does not hold its whole chunk alive
    return float(values[i]), ap[i].copy(), bp[i].copy()


def _best_pair(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]], theta: float, q: int
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """:func:`_interpolated_max` over chunks of row pairs, the first maximum kept."""
    return _first_max(_interpolated_max(a, b, theta, q) for a, b in pairs)


def _grid_q2_chunk(
    a1: np.ndarray, theta: float
) -> tuple[float, np.ndarray, np.ndarray] | None:
    # the partner mass is solved exactly from a1*b1 + (1-a1)(1-b1) = theta,
    # so every evaluated pair is feasible; rows whose partner falls outside
    # [0, 1] are dropped, and a chunk with none left gives None
    denom = 2.0 * a1 - 1.0
    ok = np.abs(denom) > 1e-12
    b1 = np.where(ok, (theta - 1.0 + a1) / np.where(ok, denom, 1.0), -1.0)
    rows = np.flatnonzero((b1 >= -1e-12) & (b1 <= 1.0 + 1e-12))
    if not len(rows):
        return None
    # masses[0] holds the kept rows' a1 and b1, masses[1] their complements
    masses = np.empty((2, 2, len(rows)))
    a1.take(rows, out=masses[0, 0])
    np.clip(b1.take(rows), 0.0, 1.0, out=masses[0, 1])
    np.subtract(1.0, masses[0], out=masses[1])
    entropies = _binary_entropies(masses)
    values = entropies[0] + entropies[1]
    i = int(np.argmax(values))
    return float(values[i]), masses[:, 0, i].copy(), masses[:, 1, i].copy()


def _grid_q2(theta: float, resolution: float) -> tuple[float, np.ndarray, np.ndarray]:
    # one free coordinate per side; at a1 = 0 the partner is b1 = 1 - theta,
    # so for theta in [0, 1] one pair is always feasible
    a1 = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    return _first_max(_grid_q2_chunk(chunk, theta) for chunk in _row_chunks(a1))


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


def _grid_q3(
    theta: float, resolution: float, seed: int, refinements: int
) -> tuple[float, np.ndarray, np.ndarray]:
    # scan the 2-simplex for one side; the other side runs over the same
    # point (the symmetric family, whose vertices reach every theta in
    # [1/3, 1]), then two sides of seeded random directions, then the
    # disjoint vertices (every theta in [0, 1/3]); every pair is pulled onto
    # the theta constraint by interpolation toward uniform
    rng = np.random.default_rng(seed)
    grid = _simplex_grid(resolution)
    directions = _drawn_unit_rows(partial(rng.gamma, 0.5), 2 * len(grid), 3)
    best = _best_pair(
        chain(
            ((rows, rows) for rows in _row_chunks(grid)),
            _paired(grid, 2 * len(grid), directions),
            _disjoint_pairs(grid),
        ),
        theta, 3,
    )
    if refinements <= 0:
        return best
    # local refinements: jitter both incumbent rows
    value, a_best, b_best = best
    scale = 2.0 * resolution

    def jitter(centre: np.ndarray) -> Callable[..., np.ndarray]:
        return lambda size: np.maximum(centre + rng.normal(0.0, scale, size), 0.0)

    refined = _best_pair(
        _drawn_pairs(jitter(a_best), jitter(b_best), refinements, 3), theta, 3
    )
    return _first_max((best, refined))


# per q: the default grid step, and the smallest step with the refusal below it;
# the q=3 search grids a 2-simplex, quadratic in 1/resolution
_GRID_STEPS = {
    2: (1e-4, 1e-6, "grid step below 1e-6 means >1M points per side"),
    3: (1e-2, 1e-3, "simplex grid step below 1e-3 means >500k points"),
}
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
    if q not in GRID_QS:
        raise ValueError(f"grid search supports q in {set(GRID_QS)}, got {q}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    default, floor, refusal = _GRID_STEPS[q]
    if resolution is None:
        resolution = default
    if not 0.0 < resolution <= 0.5:
        raise ValueError(f"resolution must lie in (0, 0.5], got {resolution!r}")
    if resolution < floor:
        raise ValueError(f"{refusal}; got {resolution!r}")
    check_int(refinements, "refinements")
    if refinements * 3 > MAX_SAMPLER_ENTRIES // 6:
        raise ValueError(
            f"refinements * 3 must be at most {MAX_SAMPLER_ENTRIES // 6}, "
            f"got {refinements * 3}"
        )
    if q == 2:
        value, a, b = _grid_q2(theta, resolution)
    else:
        value, a, b = _grid_q3(theta, resolution, seed, refinements)
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
    check_int(samples, "samples")
    if not 1.0 / q <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/{q}, 1], got {theta!r}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if samples * q > MAX_SAMPLER_ENTRIES:
        raise ValueError(
            f"samples * q must be at most {MAX_SAMPLER_ENTRIES}, got {samples * q}"
        )
    rng = np.random.default_rng(seed)
    per = max(1, samples // 6)  # per batch: each concentration symmetric, then not

    def batches() -> Iterator[Iterator[tuple[np.ndarray, np.ndarray]]]:
        for conc in (0.15, 0.5, 1.0):
            draw = partial(rng.gamma, conc)
            yield ((a, a) for a in _drawn_unit_rows(draw, per, q))
            yield _drawn_pairs(draw, draw, per, q)

    best = _best_pair(chain.from_iterable(batches()), theta, q)
    return -math.inf if best is None else best[0]
