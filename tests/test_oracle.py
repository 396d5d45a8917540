import math

import pytest

from union_channel import (
    grid_max_joint_entropy,
    interpolate_to_theta,
    max_joint_entropy,
    random_feasible_sampler,
    two_level_monotonicity,
    two_level_point,
    two_level_value,
)
from union_channel.oracle import FeasiblePair, derivative_sign_expression


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
