"""Symmetric-rate capacities of the two-user union channel.

All rates are in base-q information units. The feedback capacity is the
maximum over theta in [1/q, 2/(q+1)] of half the minimum of two curves:

* the concave envelope of ``max_joint_entropy`` (largest H(X1) + H(X2) over
  independent [q]-valued pairs with agreement probability theta), and
* ``output_entropy`` (entropy of the unordered channel output {X1, X2} when
  the q singletons share mass theta and the C(q, 2) pairs share the rest).

Which curve binds at the optimum depends on q, decided at runtime by the
sign of :func:`case_discriminant`: the two curves cross for q = 2, the
envelope's chord crosses the output curve for q = 3 and 4, and from q = 5
on the output curve's own peak at 2/(q+1) is the bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .codec import rate_root
from .entropy import bisect_root, check_alphabet, entropy_q, grouped_entropy

CASE_CURVE_INTERSECTION = "curve_intersection"
CASE_CHORD_INTERSECTION = "chord_intersection"
CASE_OUTPUT_PEAK = "output_peak"


def top_symbol_mass(theta: float, q: int) -> float:
    """Larger root a of q*a^2 - 2*a + 1 = (q-1)*theta, for theta in [1/q, 1].

    A two-level distribution with mass a on one symbol and (1-a)/(q-1) on
    each other symbol has self-agreement probability theta; this root is the
    shape that maximizes the joint entropy at that agreement level.
    """
    check_alphabet(q)
    if not 1.0 / q <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/{q}, 1], got {theta!r}")
    return 1.0 / q + math.sqrt((1.0 - 1.0 / q) * (theta - 1.0 / q))


def max_joint_entropy(theta: float, q: int) -> float:
    """Max of H(X1) + H(X2) over independent pairs with P(X1 = X2) = theta.

    Closed form on [1/q, 1] only; below 1/q no closed form is available and
    the brute-force searches in ``union_channel.oracle`` are the only route.
    """
    a = top_symbol_mass(theta, q)
    return 2.0 * grouped_entropy([(a, 1), (1.0 - a, q - 1)], q)


def tangent_point(q: int) -> float:
    """Abscissa 1/q + (q-2)^2 / (q(q-1)) where the envelope chord leaves the curve.

    Defined for q >= 3; the q = 2 curve is concave and needs no chord.
    """
    check_alphabet(q, minimum=3)
    return 1.0 / q + (q - 2) ** 2 / (q * (q - 1))


def envelope_line(theta: float, q: int) -> float:
    """Chord of the concave envelope on [1/q, tangent_point(q)] for q >= 3.

    The line through (1/q, 2) with the curve's slope at the tangent point:
    2 - (2(q-1) log_q(q-1) / (q-2)) * (theta - 1/q).
    """
    tp = tangent_point(q)
    if not 1.0 / q <= theta <= tp:
        raise ValueError(f"theta must lie in [1/{q}, {tp}], got {theta!r}")
    slope = 2.0 * (q - 1) * math.log(q - 1, q) / (q - 2)
    return 2.0 - slope * (theta - 1.0 / q)


class EnvelopeValue(NamedTuple):
    value: float
    support: tuple[tuple[float, float], ...]  # (weight, abscissa) pairs


def concave_envelope(theta: float, q: int) -> EnvelopeValue:
    """Smallest concave majorant of :func:`max_joint_entropy` at ``theta``.

    For q = 2 the curve is already concave, so the envelope is the curve and
    the support is the point itself. For q >= 3 the envelope follows the
    chord between 1/q and the tangent point (support = both endpoints,
    linear-interpolation weights), then the curve.
    """
    check_alphabet(q)
    if not 1.0 / q <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/{q}, 1], got {theta!r}")
    if q > 2 and theta < (tp := tangent_point(q)):
        p2 = (theta - 1.0 / q) / (tp - 1.0 / q)
        return EnvelopeValue(envelope_line(theta, q), ((1.0 - p2, 1.0 / q), (p2, tp)))
    return EnvelopeValue(max_joint_entropy(theta, q), ((1.0, theta),))


def output_entropy(theta: float, q: int) -> float:
    """Entropy of the unordered output {X1, X2}: H(theta, 1-theta; q, C(q,2)).

    Concave in theta with its maximum log_q C(q+1, 2) at theta = 2/(q+1).
    """
    check_alphabet(q)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    return grouped_entropy([(theta, q), (1.0 - theta, math.comb(q, 2))], q)


def case_discriminant(q: int) -> float:
    """ln(2q/(q+1)) - 2(q-1)^2 ln(q-1) / ((q-2) q (q+1)), for q >= 3.

    This is ln(q) times (envelope - output entropy) at theta = 2/(q+1);
    negative means the chord still dominates there (q = 3, 4), positive
    means the output peak is the binding constraint (q >= 5).
    """
    check_alphabet(q, minimum=3)
    return math.log(2 * q / (q + 1)) - 2 * (q - 1) ** 2 * math.log(q - 1) / (
        (q - 2) * q * (q + 1)
    )


@dataclass(frozen=True)
class CapacityReport:
    """Computed symmetric rates for one alphabet size.

    The field order is the column order of the CLI's capacity and table CSV.
    """

    q: int
    r_no_feedback: float  # 1 - (q-1)/(2q log2 q)
    r_feedback: float  # symmetric capacity with feedback, base q
    theta_star: float  # maximizing agreement probability in [1/q, 2/(q+1)]
    case: str
    r_zero_error_lower: float  # zero-error feedback lower bound (rate_root)


def avg_capacity_no_feedback(q: int) -> float:
    """Symmetric capacity without feedback: 1 - (q-1) / (2q log2 q)."""
    check_alphabet(q)
    return 1.0 - (q - 1) / (2 * q * math.log2(q))


def avg_feedback_capacity(q: int) -> CapacityReport:
    """Symmetric capacity with feedback, with the maximizer and case taken.

    The case split is decided by the computed sign of the discriminant, not
    by a table of alphabet sizes; roots are found by bisection on the
    interval [1/q, 2/(q+1)] whose endpoints have opposite signs by the
    monotonicity of the two curves.
    """
    check_alphabet(q)
    hi = 2.0 / (q + 1)
    if q == 2:
        theta_star = bisect_root(
            lambda t: max_joint_entropy(t, 2) - output_entropy(t, 2), 0.5, hi
        )
        r = 0.5 * max_joint_entropy(theta_star, 2)
        case = CASE_CURVE_INTERSECTION
    elif case_discriminant(q) < 0:
        theta_star = bisect_root(
            lambda t: envelope_line(t, q) - output_entropy(t, q), 1.0 / q, hi
        )
        r = 0.5 * envelope_line(theta_star, q)
        case = CASE_CHORD_INTERSECTION
    else:
        theta_star = hi
        r = 0.5 * math.log(math.comb(q + 1, 2)) / math.log(q)
        case = CASE_OUTPUT_PEAK
    report = CapacityReport(
        q=q,
        r_no_feedback=avg_capacity_no_feedback(q),
        r_feedback=r,
        theta_star=theta_star,
        case=case,
        r_zero_error_lower=rate_root(q),
    )
    if report.r_zero_error_lower > r + 1e-9 or report.r_no_feedback > r + 1e-9:
        raise RuntimeError(f"rate ordering violated for q={q}: {report}")
    return report


@dataclass(frozen=True)
class CoverLeungWitness:
    """Explicit (U, X1, X2) triple achieving the feedback rate at ``theta``.

    U ranges over 2q atoms (branch, center); given U = (u, v) the senders'
    symbols are conditionally independent, equal to v with the branch's top
    mass and uniform over the rest otherwise. ``joint`` maps
    (branch, center, x1, x2) to its probability.
    """

    q: int
    theta: float
    joint: dict[tuple[int, int, int, int], float]
    h_x1_given_u: float
    h_x2_given_u: float
    h_output: float
    pair_marginal: dict[tuple[int, int], float]
    symmetric_rate: float


def cover_leung_witness(q: int, theta: float) -> CoverLeungWitness:
    """Build the achievability witness for ``theta`` in [1/q, 2/(q+1)].

    The envelope support supplies the branch weights and abscissas; all
    entropies and marginals are computed directly from the constructed
    joint distribution, not from the closed forms they should match.
    """
    check_alphabet(q)
    if not 1.0 / q <= theta <= 2.0 / (q + 1):
        raise ValueError(f"theta must lie in [1/{q}, 2/{q + 1}], got {theta!r}")
    points = list(concave_envelope(theta, q).support)
    if len(points) == 1:
        points.append((0.0, points[0][1]))  # keep 2q atoms for U

    # one pass over the joint: each entry also feeds its (u, v) block's two
    # conditional rows and the pair marginal, summed in the joint's order
    joint: dict[tuple[int, int, int, int], float] = {}
    pair_marginal: dict[tuple[int, int], float] = {}
    h1 = h2 = 0.0
    for u, (weight, theta_u) in enumerate(points):
        top = top_symbol_mass(theta_u, q)
        p_uv = weight / q
        for v in range(1, q + 1):
            cond = [top if x == v else (1.0 - top) / (q - 1) for x in range(1, q + 1)]
            row1 = [0.0] * q
            row2 = [0.0] * q
            for x1 in range(1, q + 1):
                for x2 in range(1, q + 1):
                    p = p_uv * cond[x1 - 1] * cond[x2 - 1]
                    joint[(u, v, x1, x2)] = p
                    row1[x1 - 1] += p
                    row2[x2 - 1] += p
                    pair_marginal[(x1, x2)] = pair_marginal.get((x1, x2), 0.0) + p
            if weight != 0.0:
                h1 += p_uv * entropy_q([mass / p_uv for mass in row1], q)
                h2 += p_uv * entropy_q([mass / p_uv for mass in row2], q)

    output_dist: dict[frozenset, float] = {}
    for (x1, x2), p in pair_marginal.items():
        key = frozenset((x1, x2))
        output_dist[key] = output_dist.get(key, 0.0) + p
    h_output = entropy_q(list(output_dist.values()), q)

    return CoverLeungWitness(
        q=q,
        theta=theta,
        joint=joint,
        h_x1_given_u=h1,
        h_x2_given_u=h2,
        h_output=h_output,
        pair_marginal=pair_marginal,
        symmetric_rate=min(h1, h2, 0.5 * h_output),
    )
