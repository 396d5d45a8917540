"""Symmetric-rate capacities of the two-user union channel.

All rates are in base-q information units. The feedback capacity is the
maximum over theta in [1/q, 2/(q+1)] of half the minimum of two curves:

* the concave envelope of ``max_joint_entropy`` (largest H(X1) + H(X2) over
  independent [q]-valued pairs with agreement probability theta), and
* ``output_entropy`` (entropy of the unordered channel output {X1, X2} when
  the q singletons share mass theta and the C(q, 2) pairs share the rest).

Which curve binds at the optimum depends on q, decided at runtime by the
sign of :func:`case_discriminant`: for q = 2, 3, 4 one bisection meets the
output curve with :func:`concave_envelope` (the curve at q = 2, its chord at
q = 3, 4), and from q = 5 on the output curve's own peak at 2/(q+1) binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, product
from operator import add
from typing import Iterator, NamedTuple

from .codec import rate_root
from .entropy import bisect_root, check_alphabet, check_between, entropy_q, grouped_entropy

CASE_CURVE_INTERSECTION = "curve_intersection"
CASE_CHORD_INTERSECTION = "chord_intersection"
CASE_OUTPUT_PEAK = "output_peak"
# the largest witness alphabet: O(q^3) work, q^2 floats held, 2q^3 in its joint. On a
# 2-vCPU x86-64 host the witness takes 0.02 s at q = 64, its joint 0.16 s, and RSS peaks
# at 77 MB; at q = 100, 0.08 s, 0.6 s and 251 MB; at 10**6 the marginal alone is 8 TB
MAX_WITNESS_ALPHABET = 64


def top_symbol_mass(theta: float, q: int) -> float:
    """Larger root a of q*a^2 - 2*a + 1 = (q-1)*theta, for theta in [1/q, 1].

    A two-level distribution with mass a on one symbol and (1-a)/(q-1) on
    each other symbol has self-agreement probability theta; this root is the
    shape that maximizes the joint entropy at that agreement level.
    """
    check_alphabet(q)
    check_between(theta, 1.0 / q, 1.0, "[1/q, 1]")
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
    check_between(theta, 1.0 / q, tp, "[1/q, tangent_point(q)]")
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
    check_between(theta, 1.0 / q, 1.0, "[1/q, 1]")
    if q > 2 and theta < (tp := tangent_point(q)):
        p2 = (theta - 1.0 / q) / (tp - 1.0 / q)
        return EnvelopeValue(envelope_line(theta, q), ((1.0 - p2, 1.0 / q), (p2, tp)))
    return EnvelopeValue(max_joint_entropy(theta, q), ((1.0, theta),))


def output_entropy(theta: float, q: int) -> float:
    """Entropy of the unordered output {X1, X2}: H(theta, 1-theta; q, C(q,2)).

    Concave in theta with its maximum log_q C(q+1, 2) at theta = 2/(q+1).
    """
    check_alphabet(q)
    check_between(theta, 0.0, 1.0)
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
    by a table of alphabet sizes; the envelope's crossing is found by bisection
    on [1/q, 2/(q+1)], whose endpoints have opposite signs by the monotonicity
    of the two curves.
    """
    check_alphabet(q)
    hi = 2.0 / (q + 1)
    if q == 2 or case_discriminant(q) < 0:
        theta_star = bisect_root(
            lambda t: concave_envelope(t, q).value - output_entropy(t, q), 1.0 / q, hi
        )
        r = 0.5 * concave_envelope(theta_star, q).value
        case = CASE_CURVE_INTERSECTION if q == 2 else CASE_CHORD_INTERSECTION
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
    # strict, as in the paper: r_no_feedback and r lie within 1 and 2 ulps of their
    # true values up to the cap (50-digit cross-checks), so a true gain above 3 ulps
    # orders them; the smallest, (1 - ln 2) / (2 q ln q) at q = MAX_ALPHABET, is
    # 5.6e-15, about 50 ulps of r. r_zero_error_lower (within 1e-12) lies 0.06 or more below
    if not (report.r_zero_error_lower < r and report.r_no_feedback < r):
        raise RuntimeError(f"rate ordering violated for q={q}: {report}")
    return report


def _blocks(q: int, theta: float) -> Iterator[tuple[float, int, list[float]]]:
    """``(p_uv, v, block)`` for each atom U = (u, v) at ``theta`` in order, v from 0.

    The envelope support supplies the branch weights and abscissas. Given U = (u, v)
    a sender's symbol is v with mass ``top`` and any other with mass ``rest``. The
    block is x1 major, p_uv * P(x1 | u, v) * P(x2 | u, v) multiplied in that order.
    """
    points = list(concave_envelope(theta, q).support)
    if len(points) == 1:
        points.append((0.0, points[0][1]))  # keep 2q atoms for U
    for weight, theta_u in points:
        top = top_symbol_mass(theta_u, q)
        rest = (1.0 - top) / (q - 1)
        p_uv = weight / q
        at_v, off_v = p_uv * top, p_uv * rest
        for v in range(q):
            block = [off_v * rest] * (q * q)
            block[v::q] = [off_v * top] * q
            block[v * q:(v + 1) * q] = [at_v * rest] * q
            block[v * q + v] = at_v * top
            yield p_uv, v, block


def _spike(q: int, v: int, at_v: float, elsewhere: float) -> list[float]:
    """q entries: ``at_v`` at index v, ``elsewhere`` at the rest."""
    entries = [elsewhere] * q
    entries[v] = at_v
    return entries


@dataclass(frozen=True)
class CoverLeungWitness:
    """Explicit (U, X1, X2) triple achieving the feedback rate at ``theta``.

    U ranges over 2q atoms (branch, center); given U = (u, v) the senders'
    symbols are conditionally independent, equal to v with the branch's top
    mass and uniform over the rest otherwise. ``joint`` maps
    (branch, center, x1, x2) to its probability; it holds 2q^3 entries, so
    it is built on its first read, from ``q`` and ``theta`` alone.
    """

    q: int
    theta: float
    h_x1_given_u: float
    h_x2_given_u: float
    h_output: float
    pair_marginal: dict[tuple[int, int], float]
    symmetric_rate: float

    @cached_property
    def joint(self) -> dict[tuple[int, int, int, int], float]:
        symbols = range(1, self.q + 1)
        keys = product(range(2), symbols, symbols, symbols)
        blocks = (block for _, _, block in _blocks(self.q, self.theta))
        return dict(zip(keys, chain.from_iterable(blocks)))


def cover_leung_witness(q: int, theta: float) -> CoverLeungWitness:
    """Build the achievability witness for ``theta`` in [1/q, 2/(q+1)].

    All entropies and marginals are computed directly from the joint
    distribution's blocks, not from the closed forms they should match.
    Each block adds onto the pair marginal in (u, v) order, and each
    conditional row sums its block's entries in order, so every value has
    the bits of a pass over the joint entry by entry.
    """
    check_alphabet(q)
    check_between(q, 2, MAX_WITNESS_ALPHABET, name="alphabet size")
    check_between(theta, 1.0 / q, 2.0 / (q + 1), "[1/q, 2/(q+1)]")
    marginal = [0.0] * (q * q)
    h1 = h2 = 0.0
    for p_uv, v, block in _blocks(q, theta):
        if p_uv == 0.0:  # a zero-weight branch adds +0.0 everywhere: no change
            continue
        marginal = list(map(add, marginal, block))
        # X1's conditional sums rows, X2's columns; each but v's is the same list as w's
        w = v - 1 if v else 1
        cond1 = _spike(q, v, reduce(add, block[v * q:(v + 1) * q], 0.0) / p_uv,
                       reduce(add, block[w * q:(w + 1) * q], 0.0) / p_uv)
        cond2 = _spike(q, v, reduce(add, block[v::q], 0.0) / p_uv,
                       reduce(add, block[w::q], 0.0) / p_uv)
        h1 += p_uv * entropy_q(cond1, q)
        h2 += p_uv * entropy_q(cond2, q)

    symbols = range(1, q + 1)
    pair_marginal = dict(zip(product(symbols, symbols), marginal))
    # each unordered output {x1, x2} once, in order of first appearance
    output = [
        marginal[i * q + i] if i == j else marginal[i * q + j] + marginal[j * q + i]
        for i in range(q)
        for j in range(i, q)
    ]
    h_output = entropy_q(output, q)

    return CoverLeungWitness(
        q=q,
        theta=theta,
        h_x1_given_u=h1,
        h_x2_given_u=h2,
        h_output=h_output,
        pair_marginal=pair_marginal,
        symmetric_rate=min(h1, h2, 0.5 * h_output),
    )
