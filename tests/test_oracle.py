import math
import tracemalloc

import numpy as np
import pytest

from union_channel import (
    concave_envelope,
    entropy_q,
    grid_max_joint_entropy,
    interpolate_to_theta,
    max_joint_entropy,
    output_entropy,
    random_feasible_sampler,
    two_level_monotonicity,
    two_level_point,
    two_level_value,
)
from union_channel import oracle
from union_channel.oracle import (
    FeasiblePair,
    _feasible_rows,
    _paired,
    _row_sums,
    _simplex_grid,
    _unit_rows,
    derivative_sign_expression,
)


# ---------------------------------------------------------------------------
# interpolation onto the constraint


def test_interpolate_identity_at_own_inner_product():
    a = (0.7, 0.2, 0.1)
    b = (0.1, 0.3, 0.6)
    theta0 = sum(x * y for x, y in zip(a, b))
    pair = interpolate_to_theta(a, b, theta0)
    assert pair.a == pytest.approx(a, abs=1e-12)
    assert pair.b == pytest.approx(b, abs=1e-12)


def test_interpolate_to_uniform():
    a = b = (0.9, 0.1)
    pair = interpolate_to_theta(a, b, 0.5)
    assert pair.a == pytest.approx((0.5, 0.5), abs=1e-12)
    assert pair.b == pytest.approx((0.5, 0.5), abs=1e-12)


def test_interpolate_binary_example():
    # theta0 = 0.82; solve (1-t)^2 * 0.82 + (2-t) t / 2 = 0.7
    pair = interpolate_to_theta((0.9, 0.1), (0.9, 0.1), 0.7)
    inner = sum(x * y for x, y in zip(pair.a, pair.b))
    assert inner == pytest.approx(0.7, abs=1e-10)
    t = 1.0 - math.sqrt(1.0 + (0.7 - 0.82) / (0.82 - 0.5))
    assert pair.a[0] == pytest.approx((1 - t) * 0.9 + t / 2, abs=1e-12)


def test_interpolate_rejects_unreachable_target():
    with pytest.raises(ValueError):
        interpolate_to_theta((0.9, 0.1), (0.9, 0.1), 0.95)  # above theta0
    with pytest.raises(ValueError):
        interpolate_to_theta((0.9, 0.1), (0.9, 0.1), 0.3)  # below 1/q


def test_feasible_pair_validates_inner_product():
    with pytest.raises(ValueError):
        FeasiblePair(a=(0.5, 0.5), b=(0.5, 0.5), theta=0.9)


@pytest.mark.parametrize(
    "a, theta, message",
    [
        ((math.nan, 1.0), math.nan, r"^probabilities sum to nan, expected 1"),
        ((0.5, 0.5), math.nan, r"^inner product 0.5 differs from theta nan$"),
    ],
)
def test_feasible_pair_refuses_nan(a, theta, message):
    with pytest.raises(ValueError, match=message) as info:
        FeasiblePair(a, (0.5, 0.5), theta)
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# two-level reduction


def test_two_level_r1_matches_closed_form():
    for q, theta in [(3, 0.6), (2, 0.8), (5, 0.45), (7, 0.99)]:
        assert two_level_value(q, theta, 1) == pytest.approx(
            max_joint_entropy(theta, q), abs=1e-12
        )


def test_two_level_at_uniform_theta():
    for q in (3, 4, 6):
        for r in range(1, q):
            assert two_level_value(q, 1.0 / q, r) == pytest.approx(2.0, abs=1e-12)


def test_two_level_r1_dominates():
    assert two_level_value(4, 0.5, 1) > two_level_value(4, 0.5, 2)
    for q in range(3, 11):
        for i in range(1, 100):
            theta = 1.0 / q + i * (1.0 - 1.0 / q) / 100
            best = two_level_value(q, theta, 1)
            for r in range(2, q):
                other = two_level_value(q, theta, r)
                if other is not None:
                    assert best >= other - 1e-12


def test_two_level_infeasible_returns_none():
    assert two_level_value(3, 0.6, 2) is None  # low mass would be negative
    assert two_level_point(4, 0.5, 3) is None
    point = two_level_point(3, 0.6, 1)
    assert point.b_lo >= 0.0 and point.a_hi >= point.b_lo
    assert point.r * point.a_hi + (3 - point.r) * point.b_lo == pytest.approx(
        1.0, abs=1e-10
    )
    assert point.r * point.a_hi**2 + (3 - point.r) * point.b_lo**2 == pytest.approx(
        0.6, abs=1e-10
    )


# ---------------------------------------------------------------------------
# grid search (q = 2, 3)


def test_grid_q2_uniform_theta():
    result = grid_max_joint_entropy(2, 0.5, 1e-4)
    assert result.value == pytest.approx(2.0, abs=1e-6)


def test_grid_q2_matches_closed_form():
    result = grid_max_joint_entropy(2, 0.75, 1e-4)
    f = max_joint_entropy(0.75, 2)
    assert result.value <= f + 1e-9
    assert result.value == pytest.approx(f, abs=1e-3)


def test_grid_q2_below_one_half():
    # no closed form below 1/q; the oracle still reports a bounded value
    result = grid_max_joint_entropy(2, 0.25, 1e-3)
    assert result.value is not None
    assert result.value <= 2.0


def test_grid_q2_point_mass_at_one():
    result = grid_max_joint_entropy(2, 1.0, 1e-3)
    assert result.value == 0.0


@pytest.mark.parametrize("resolution", [0.5, 0.25, 0.01])
@pytest.mark.parametrize("theta", [0.0, 0.001, 0.5, 0.999, 1.0])
def test_grid_q2_always_finds_a_feasible_pair(theta, resolution):
    # a1 = 0 pairs with b1 = 1 - theta, which lies in [0, 1]
    result = grid_max_joint_entropy(2, theta, resolution)
    assert result.value is not None
    assert result.a is not None and result.b is not None


def test_grid_q2_unimodal_over_theta():
    values = [
        grid_max_joint_entropy(2, i / 20, 1e-3).value for i in range(21)
    ]
    argmax = max(range(len(values)), key=values.__getitem__)
    assert abs(argmax / 20 - 0.5) <= 0.05 + 1e-12
    rising = values[: argmax + 1]
    falling = values[argmax:]
    assert all(b >= a - 1e-9 for a, b in zip(rising, rising[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(falling, falling[1:]))


def test_grid_q2_argmax_is_symmetric():
    for theta in (0.6, 0.75, 0.9):
        result = grid_max_joint_entropy(2, theta, 1e-3)
        assert max(abs(x - y) for x, y in zip(result.a, result.b)) <= 2e-3


def test_grid_q3():
    near_uniform = grid_max_joint_entropy(3, 1 / 3, 0.01)
    assert near_uniform.value == pytest.approx(2.0, abs=1e-6)
    f = max_joint_entropy(0.6, 3)
    result = grid_max_joint_entropy(3, 0.6, 0.01)
    assert result.value <= f + 1e-9
    assert result.value == pytest.approx(f, abs=0.01)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grid_max_joint_entropy(4, 0.5, 1e-3)
    with pytest.raises(ValueError):
        grid_max_joint_entropy(2, 0.5, 0.0)
    with pytest.raises(ValueError, match=r"resolution must lie in \(0, 0.5\], got nan"):
        grid_max_joint_entropy(2, 0.5, float("nan"))
    with pytest.raises(ValueError):
        grid_max_joint_entropy(3, 0.5, 1e-4)  # simplex grid would explode
    with pytest.raises(ValueError, match="grid step below 1e-6"):
        grid_max_joint_entropy(2, 0.75, 1e-8)  # 1e8-point arrays


def test_grid_step_caps_follow_the_general_checks():
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\], got 2.0"):
        grid_max_joint_entropy(3, 2.0, 1e-4)
    with pytest.raises(ValueError, match=r"resolution must lie in \(0, 0.5\], got -1.0"):
        grid_max_joint_entropy(3, 0.5, -1.0)
    with pytest.raises(ValueError, match="simplex grid step below 1e-3 means >500k points"):
        grid_max_joint_entropy(3, 0.5, 1e-4)


@pytest.mark.parametrize("q, step", [(2, 1e-4), (3, 1e-2)])
def test_grid_takes_its_per_q_default_step(q, step):
    # the step lemma uses without --resolution; the result records it
    result = grid_max_joint_entropy(q, 0.6)
    assert result == grid_max_joint_entropy(q, 0.6, step)
    assert result.resolution == step


@pytest.mark.parametrize("q, resolution", [(2, 0.5), (2, 0.01), (3, 0.5), (3, 0.1), (3, 0.02)])
def test_grids_return_a_feasible_pair_at_every_theta(q, resolution):
    # the q=3 grid's disjoint side (a point with a zero coordinate against the
    # vertex there) reaches theta below every sampled inner product
    for theta in sorted({i / 40 for i in range(41)} | {0.001, 0.005, 1 / 3}):
        result = grid_max_joint_entropy(q, theta, resolution, refinements=2_000)
        pair = FeasiblePair(result.a, result.b, theta)
        assert result.value == pytest.approx(
            entropy_q(pair.a, q) + entropy_q(pair.b, q), abs=1e-12
        )
    # at theta 0 the supports are disjoint: sizes 1 and q - 1 at best
    assert grid_max_joint_entropy(q, 0.0, resolution).value == pytest.approx(
        math.log(q - 1, q), abs=1e-12
    )


def _simplex_grid_reference(step):
    k = round(1.0 / step)
    pts = [(i / k, j / k, (k - i - j) / k) for i in range(k + 1) for j in range(k + 1 - i)]
    return np.array(pts)


@pytest.mark.parametrize("step", [0.5, 0.3, 0.02, 0.01, 0.001])
def test_simplex_grid_matches_the_point_list(step):
    grid, expected = _simplex_grid(step), _simplex_grid_reference(step)
    assert grid.shape == expected.shape and grid.dtype == expected.dtype
    assert grid.tobytes() == expected.tobytes()


def _oracle_outputs():
    samples = [
        random_feasible_sampler(q, theta, 600, seed=seed)
        for q in (3, 4, 5)
        for theta, seed in ((1.0 / q, 1), (0.5, 2), (0.8, 3))
    ]
    grids = [
        grid_max_joint_entropy(q, theta, resolution, seed=seed, refinements=refinements)
        for q, theta, resolution, seed, refinements in (
            (2, 0.75, 0.01, 0, 0),
            (2, 0.1, 0.01, 0, 0),
            (3, 0.5, 0.5, 4, 400),
            (3, 0.9, 0.5, 5, 400),
            (3, 0.02, 0.5, 6, 400),
            (3, 0.7, 0.1, 7, 400),
        )
    ]
    return repr(samples), repr(grids)


def test_chunk_size_leaves_every_result_bit_identical(monkeypatch):
    dropped = []

    def unit_rows(x):
        rows = _unit_rows(x)
        dropped.append(len(x) - len(rows))
        return rows

    monkeypatch.setattr(oracle, "_unit_rows", unit_rows)
    expected = _oracle_outputs()
    # the q=3 refinements at resolution 0.5 do drop all-zero rows, so the
    # positional pairing of the two sides shifts
    assert sum(dropped) > 0
    for rows in (1, 7, 10**9):
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", rows)
        assert _oracle_outputs() == expected, rows


@pytest.mark.parametrize(
    "search",
    [
        # 100k refinement rows a side: about 15 MiB while both sides were held whole
        lambda: grid_max_joint_entropy(3, 0.5, 0.01),
        # 50k rows a batch side: 13.1 MiB while every batch was held whole
        lambda: random_feasible_sampler(5, 0.5, 300_000),
    ],
    ids=["grid-q3", "sampler-q5"],
)
def test_oracles_run_in_bounded_memory(search):
    # tracemalloc sees numpy's buffers, so the peak is a count of bytes, not a clock
    tracemalloc.start()
    try:
        search()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak={peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("width", range(1, 13))
def test_row_sums_match_numpy_bit_for_bit(width):
    rng = np.random.default_rng(width)
    rows = rng.gamma(0.3, size=(3000, width)) * rng.choice([-1.0, 1.0], (3000, width))
    zeros = rows.copy()
    zeros[rng.random(zeros.shape) < 0.5] = 0.0
    zeros[rng.random(zeros.shape) < 0.3] = -0.0
    zeros[:10] = -0.0  # numpy sums a row of -0.0 to +0.0
    for x in (rows, zeros, rows * 1e-310, zeros * 1e-310, rows[:, ::-1]):
        assert _row_sums(x).tobytes() == x.sum(axis=1).tobytes()


def test_numpy_row_reductions_give_identical_results(monkeypatch):
    def run():
        samples = [
            random_feasible_sampler(q, theta, 20_000, seed=seed)
            for q in (2, 3, 5, 8, 9)
            for theta in (1.0 / q, 0.5, 0.9)
            for seed in (0, 7)
        ]
        grids = [
            grid_max_joint_entropy(q, theta, step, seed=seed, refinements=400)
            for q, steps in ((2, (0.1, 1e-3)), (3, (0.5, 0.05)))
            for step in steps
            for theta in (0.0, 0.4, 0.6, 1.0)
            for seed in (1, 2)
        ]
        return repr(samples), repr(grids)

    def unit_rows(x):
        sums = x.sum(axis=1)
        keep = sums > 0.0
        return x[keep] / sums[keep][:, None]

    expected = run()
    monkeypatch.setattr(oracle, "_row_sums", lambda x: x.sum(axis=1))
    monkeypatch.setattr(oracle, "_unit_rows", unit_rows)
    assert run() == expected


def test_unit_rows_scales_rows_and_drops_all_zero_ones():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0], [2.0, 2.0, 4.0]])
    rows = _unit_rows(x)
    assert rows.tolist() == [[0.25, 0.75, 0.0], [0.25, 0.25, 0.5]]


def test_unit_rows_scales_its_argument_in_place_when_no_row_is_zero():
    x = np.random.default_rng(3).gamma(0.5, size=(500, 3))
    expected = x / x.sum(axis=1)[:, None]
    rows = _unit_rows(x)
    assert rows is x
    assert rows.tobytes() == expected.tobytes()


def _ulps_around(x, count):
    below, above, points = x, x, [x]
    for _ in range(count):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        points += [below, above]
    return points


@pytest.mark.parametrize("q", range(2, 12))
def test_feasible_rows_match_the_min_max_formula(q):
    u = 1.0 / q
    near = [
        x for centre in (u, u - 1e-15, u + 1e-15) for x in _ulps_around(centre, 6)
    ]
    # the q=3 grid reaches thetas below 1/q from the disjoint side's theta0 = 0
    far = [0.0, 1e-300, 0.001, 0.05, 0.2, 0.45, 0.6, 0.9, 1.0]
    theta0 = np.array(near + far + list(np.random.default_rng(q).random(200)))
    for theta in near + far:
        lo, hi = np.minimum(theta0, u), np.maximum(theta0, u)
        mask = (theta >= lo - 1e-15) & (theta <= hi + 1e-15)
        rows = _feasible_rows(theta0, theta, q)
        kept = np.arange(len(theta0)) if rows is None else rows
        assert kept.tolist() == np.flatnonzero(mask).tolist(), theta


def test_paired_wraps_the_random_directions_onto_the_grid():
    # the q=3 grid pairs its 2N random rows with its N grid rows end to end;
    # 7-row chunks of 2 * 15 rows wrap inside a chunk and at a chunk's edge
    grid = _simplex_grid(0.25)
    rows = 2 * len(grid)
    directions = np.arange(rows * 3, dtype=float).reshape(rows, 3)
    for chunk in (7, 15, 4096):
        chunks = [directions[i : i + chunk] for i in range(0, rows, chunk)]
        pairs = list(_paired(grid, rows, chunks))
        assert [id(b) for _, b in pairs] == [id(b) for b in chunks]
        a = np.concatenate([a for a, _ in pairs])
        assert a.tobytes() == grid[np.arange(rows) % len(grid)].tobytes()
    # a chunk inside one pass over the grid is a view of it, not a copy
    first, _ = next(_paired(grid, rows, [directions[:7]]))
    assert np.shares_memory(first, grid)


# ---------------------------------------------------------------------------
# randomized sampler


def test_sampler_never_exceeds_closed_form():
    for q, theta in [(3, 0.5), (4, 0.7), (5, 0.5)]:
        best = random_feasible_sampler(q, theta, 20_000, seed=7)
        assert best <= max_joint_entropy(theta, q) + 1e-9


def test_sampler_is_tight_from_below():
    best = random_feasible_sampler(3, 0.9, 100_000)
    f = max_joint_entropy(0.9, 3)
    assert f - 0.02 <= best <= f + 1e-9


def test_sampler_at_uniform_theta():
    for q in (3, 5):
        best = random_feasible_sampler(q, 1.0 / q, 5_000, seed=3)
        assert best == pytest.approx(2.0, abs=1e-9)


def test_sampler_with_nothing_feasible_returns_minus_infinity():
    # no drawn pair's inner product reaches theta this close to 1
    assert random_feasible_sampler(4, 0.9999, 100) == -math.inf


def test_sampler_deterministic_given_seed():
    a = random_feasible_sampler(4, 0.6, 10_000, seed=11)
    b = random_feasible_sampler(4, 0.6, 10_000, seed=11)
    assert a == b


def test_sampler_domain():
    with pytest.raises(ValueError):
        random_feasible_sampler(3, 0.2, 100)


# ---------------------------------------------------------------------------
# two-level monotonicity


def test_monotonicity_coarse_q3():
    report = two_level_monotonicity(3, 0.6, 2)
    # t = 2/3 is infeasible at theta = 0.6, leaving the single point t = 1/3
    assert report.ts == (1 / 3,)
    assert report.decreasing
    assert report.derivative_sign_ok


def test_monotonicity_single_point_is_the_left_end():
    report = two_level_monotonicity(4, 0.5, 1)
    assert report.ts == (0.25,)
    assert report.decreasing
    with pytest.raises(ValueError, match="need at least one grid point, got 0"):
        two_level_monotonicity(4, 0.5, 0)


def test_monotonicity_ratio_is_infinite_where_the_low_mass_vanishes():
    # q=4, theta=1 at t=1/4: the low mass b is exactly 0 (at q=3 rounding
    # leaves it positive and the ratio near 2.7e16)
    report = two_level_monotonicity(4, 1.0, 5)
    assert report.ts == (0.25,)
    assert report.ratios == (math.inf,)


def test_monotonicity_fine_q6():
    report = two_level_monotonicity(6, 0.4, 64)
    assert len(report.ts) > 10
    assert report.decreasing
    assert report.derivative_sign_ok
    assert all(b < a for a, b in zip(report.values, report.values[1:]))


def test_monotonicity_various():
    for q, theta in [(3, 0.5), (4, 0.3), (8, 0.7), (10, 0.15)]:
        report = two_level_monotonicity(q, theta, 33)
        assert report.decreasing
        assert report.derivative_sign_ok


def test_derivative_sign_limit_at_unit_ratio():
    # -(1/2)(r+1) ln r - 1 + r -> 0 from below as r -> 1+
    assert derivative_sign_expression(1.0) == 0.0
    value = derivative_sign_expression(1.0 + 1e-3)
    assert -1e-9 < value < 0.0
    for ratio in (1.5, 2.0, 10.0, 1e6):
        assert derivative_sign_expression(ratio) < 0.0


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} read before the refusal")


@pytest.mark.parametrize(
    "call, message",
    [
        # the grid holds all of its refinements * 3 floats at once, the
        # sampler a sixth of its samples * q: the grid's cap is a sixth
        (lambda: grid_max_joint_entropy(3, 0.5, 0.01, refinements=10**8),
         "refinements * 3 must be at most 1666666, got 300000000"),
        (lambda: grid_max_joint_entropy(3, 0.5, 0.01, refinements=555_556),
         "refinements * 3 must be at most 1666666, got 1666668"),
        (lambda: random_feasible_sampler(5, 0.7, 6 * 10**8),
         "samples * q must be at most 10000000, got 3000000000"),
        (lambda: random_feasible_sampler(5, 0.7, 2_000_001),
         "samples * q must be at most 10000000, got 10000005"),
    ],
    ids=["grid-1e8", "grid-just-over", "sampler-6e8", "sampler-just-over"],
)
def test_oracles_refuse_draws_over_the_cap_before_numpy(monkeypatch, call, message):
    monkeypatch.setattr(oracle, "np", _NoNumpy())
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: two_level_monotonicity(3, 0.7, 2.5), "grid_points must be an int, got 2.5"),
        (lambda: random_feasible_sampler(3, 0.7, 10.5), "samples must be an int, got 10.5"),
        (lambda: grid_max_joint_entropy(3, 0.7, 0.1, refinements=math.nan),
         "refinements must be an int, got nan"),
        (lambda: interpolate_to_theta((-0.5, 1.5), (0.5, 0.5), 0.5),
         "negative probability entry -0.5"),
        (lambda: interpolate_to_theta((0.5, 0.5), (1.0, 0.0, 0.0), 0.5),
         "a and b must have equal lengths"),
        (lambda: two_level_point(3, 0.5, 0), "r must lie in [1, 2], got 0"),
        (lambda: two_level_point(3, 0.2, 1), "theta must lie in [1/3, 1], got 0.2"),
        (lambda: two_level_monotonicity(3, 0.3, 5), "theta must lie in (1/3, 1], got 0.3"),
        (lambda: random_feasible_sampler(3, 0.5, 0), "need at least one sample, got 0"),
        (lambda: concave_envelope(0.2, 3), "theta must lie in [1/3, 1], got 0.2"),
        (lambda: output_entropy(1.5, 3), "theta must lie in [0, 1], got 1.5"),
        (lambda: two_level_point(3.0, 0.5, 1), "alphabet size must be an int, got 3.0"),
        (lambda: two_level_value(3, 0.5, 1.5), "r must be an int, got 1.5"),
    ],
    ids=["monotonicity-grid_points", "sampler-samples", "grid-refinements",
         "interpolate-negative-entry", "interpolate-unequal-lengths", "two_level-r",
         "two_level-theta", "monotonicity-theta", "sampler-samples-0", "envelope-theta",
         "output_entropy-theta", "two_level-q", "two_level_value-r"],
)
def test_oracle_counts_that_are_not_ints_are_refused_before_numpy(
    monkeypatch, call, message
):
    monkeypatch.setattr(oracle, "np", _NoNumpy())
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_grid_refinements_cap_allows_its_last_value(monkeypatch):
    # 555_555 * 3 is the cap itself, so the call gets past every refusal
    monkeypatch.setattr(oracle, "np", _NoNumpy())
    with pytest.raises(AssertionError, match="read before the refusal"):
        grid_max_joint_entropy(3, 0.5, 0.01, refinements=555_555)
