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
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_q, validate_pmf

DEFAULT_SEED = 0x5EED

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
        if abs(actual - self.theta) > _IP_TOL:
            raise ValueError(
                f"inner product {actual!r} differs from theta {self.theta!r}"
            )


def _interpolate(
    a: np.ndarray, b: np.ndarray, theta0: np.ndarray, theta: float, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slide each row pair (a, b) toward uniform until its inner product is theta.

    Mixing both with the uniform vector j at weight t gives inner product
    (1-t)^2 * theta0 + (2-t) * t / q, which runs from theta0 = a.b at t = 0
    to 1/q at t = 1; the quadratic is solved for the root in [0, 1]. Rows
    already at theta0 = 1/q stay put.
    """
    denom = theta0 - 1.0 / q
    safe = np.abs(denom) > 1e-15
    c = np.where(safe, (theta - theta0) / np.where(safe, denom, 1.0), 0.0)
    t = 1.0 - np.sqrt(np.maximum(1.0 + c, 0.0))
    keep, shift = (1.0 - t)[:, None], (t / q)[:, None]
    return keep * a + shift, keep * b + shift


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
        np.array([a], dtype=float), np.array([b], dtype=float),
        np.array([theta0]), theta_target, q,
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
    if grid_points < 1:
        raise ValueError(f"need at least one grid point, got {grid_points}")
    if not 1.0 / q < theta <= 1.0:
        raise ValueError(f"theta must lie in (1/{q}, 1], got {theta!r}")
    p = theta * q - 1.0
    if grid_points == 1:
        ts_all = [1.0 / q]
    else:
        step = (1.0 - 2.0 / q) / (grid_points - 1)
        ts_all = [1.0 / q + i * step for i in range(grid_points)]
    ts, values, ratios = [], [], []
    sign_ok = True
    for t in ts_all:
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


@dataclass(frozen=True)
class GridSearchResult:
    """Best feasible pair found by the grid; ``value`` is None if none exist."""

    value: float | None
    a: tuple[float, ...] | None
    b: tuple[float, ...] | None
    resolution: float


def _row_entropies(x: np.ndarray, q: int) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(x > 0.0, x * np.log(x), 0.0)
    return -terms.sum(axis=-1) / math.log(q)


def _interpolated_max(
    a: np.ndarray, b: np.ndarray, theta: float, q: int
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Max H(a') + H(b') over rows interpolated onto the theta constraint."""
    theta0 = (a * b).sum(axis=1)
    lo = np.minimum(theta0, 1.0 / q)
    hi = np.maximum(theta0, 1.0 / q)
    mask = (theta >= lo - 1e-15) & (theta <= hi + 1e-15)
    if not mask.any():
        return None
    # rebind so the unmasked rows can be freed before the interpolated copies exist
    a, b, theta0 = a[mask], b[mask], theta0[mask]
    ap, bp = _interpolate(a, b, theta0, theta, q)
    values = _row_entropies(ap, q) + _row_entropies(bp, q)
    i = int(np.argmax(values))
    return float(values[i]), ap[i], bp[i]


def _grid_q2(theta: float, resolution: float) -> GridSearchResult:
    # one free coordinate per side; the partner mass is solved exactly from
    # a1*b1 + (1-a1)(1-b1) = theta, so every evaluated pair is feasible
    steps = round(1.0 / resolution)
    a1 = np.linspace(0.0, 1.0, steps + 1)
    denom = 2.0 * a1 - 1.0
    ok = np.abs(denom) > 1e-12
    b1 = np.where(ok, (theta - 1.0 + a1) / np.where(ok, denom, 1.0), -1.0)
    ok &= (b1 >= -1e-12) & (b1 <= 1.0 + 1e-12)
    if not ok.any():
        return GridSearchResult(None, None, None, resolution)
    b1 = np.clip(b1, 0.0, 1.0)
    pairs_a = np.stack([a1, 1.0 - a1], axis=1)
    pairs_b = np.stack([b1, 1.0 - b1], axis=1)
    values = np.where(
        ok, _row_entropies(pairs_a, 2) + _row_entropies(pairs_b, 2), -np.inf
    )
    i = int(np.argmax(values))
    return GridSearchResult(
        value=float(values[i]),
        a=tuple(float(x) for x in pairs_a[i]),
        b=tuple(float(x) for x in pairs_b[i]),
        resolution=resolution,
    )


def _simplex_grid(step: float) -> np.ndarray:
    k = round(1.0 / step)
    pts = [
        (i / k, j / k, (k - i - j) / k)
        for i in range(k + 1)
        for j in range(k + 1 - i)
    ]
    return np.array(pts)


def _grid_q3(
    theta: float, resolution: float, seed: int, refinements: int
) -> GridSearchResult:
    # scan the 2-simplex for one side; the other side runs over the same
    # point (the symmetric family) plus seeded random directions, every pair
    # pulled onto the theta constraint by interpolation toward uniform
    if resolution < 1e-3:
        raise ValueError(
            f"simplex grid step below 1e-3 means >500k points; got {resolution!r}"
        )
    rng = np.random.default_rng(seed)
    grid = _simplex_grid(resolution)
    sides_a = [grid]
    sides_b = [grid]
    for _ in range(2):
        g = rng.gamma(0.5, size=grid.shape)
        s = g.sum(axis=1, keepdims=True)
        s[s == 0.0] = 1.0
        sides_a.append(grid)
        sides_b.append(g / s)
    best = _interpolated_max(np.vstack(sides_a), np.vstack(sides_b), theta, 3)
    if best is None:
        return GridSearchResult(None, None, None, resolution)
    value, a_best, b_best = best
    if refinements > 0:
        scale = 2.0 * resolution
        pa = np.maximum(a_best[None, :] + rng.normal(0.0, scale, (refinements, 3)), 0.0)
        pb = np.maximum(b_best[None, :] + rng.normal(0.0, scale, (refinements, 3)), 0.0)
        sa = pa.sum(axis=1)
        sb = pb.sum(axis=1)
        keep = (sa > 0.0) & (sb > 0.0)
        refined = _interpolated_max(
            pa[keep] / sa[keep][:, None], pb[keep] / sb[keep][:, None], theta, 3
        )
        if refined is not None and refined[0] > value:
            value, a_best, b_best = refined
    return GridSearchResult(
        value=value,
        a=tuple(float(x) for x in a_best),
        b=tuple(float(x) for x in b_best),
        resolution=resolution,
    )


def grid_max_joint_entropy(
    q: int,
    theta: float,
    resolution: float,
    seed: int = DEFAULT_SEED,
    refinements: int = 100_000,
) -> GridSearchResult:
    """Exhaustive-style lower bound on the joint-entropy maximum (q = 2 or 3).

    Every evaluated pair satisfies the constraints exactly (up to float
    rounding), so the result never exceeds the true maximum. The q = 2
    search is deterministic; q = 3 uses a seeded generator for the sampled
    directions and the local refinements around the incumbent.
    """
    if q not in (2, 3):
        raise ValueError(f"grid search supports q in {{2, 3}}, got {q}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    if not 0.0 < resolution <= 0.5:
        raise ValueError(f"resolution must lie in (0, 0.5], got {resolution!r}")
    if q == 2:
        return _grid_q2(theta, resolution)
    return _grid_q3(theta, resolution, seed, refinements)


def random_feasible_sampler(
    q: int, theta: float, samples: int, seed: int = DEFAULT_SEED
) -> float:
    """Max H(a) + H(b) over seeded random pairs pulled onto the constraint.

    Pairs are drawn from a mix of Dirichlet concentrations (half symmetric,
    half independent) and interpolated toward uniform when ``theta`` lies
    between their inner product and 1/q; pairs on the wrong side are
    discarded rather than re-solved. Returns -inf if nothing was feasible.
    """
    if not 1.0 / q <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/{q}, 1], got {theta!r}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    batches = [(conc, sym) for conc in (0.15, 0.5, 1.0) for sym in (True, False)]
    per = max(1, samples // len(batches))
    best = -math.inf
    for conc, symmetric in batches:
        draw = rng.gamma(conc, size=(per, q))
        sums = draw.sum(axis=1)
        keep = sums > 0.0
        a = draw[keep] / sums[keep][:, None]
        if symmetric:
            b = a
        else:
            draw_b = rng.gamma(conc, size=(per, q))
            sums_b = draw_b.sum(axis=1)
            keep_b = sums_b > 0.0
            b = draw_b[keep_b] / sums_b[keep_b][:, None]
            count = min(len(a), len(b))
            a, b = a[:count], b[:count]
        result = _interpolated_max(a, b, theta, q)
        if result is not None and result[0] > best:
            best = result[0]
    return best
