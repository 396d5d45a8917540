"""Interval certificates of the capacity layer's case split and rate order.

``mpmath.iv`` rounds outward, so a sign shown on an interval holds at every
real point in it. q is taken as a real interval and split until the sign
shows, so these claims hold at every q in their range, not only at samples:

- the case discriminant, ln(q) * (chord - output entropy) at the output peak
  theta = 2/(q+1), is below 0 at q = 3 and 4 (the chord binds) and above 0
  at every real q in [5, 10**12] (the output peak binds; 10**12 is
  MAX_ALPHABET);
- in the output-peak case r_feedback - r_no_feedback is
  (ln(1 + 1/q) - ln 2 / q) / (2 ln q), and it is above 24.5 * 2**-53 on that
  same range. Both rates lie in [1/2, 1), where an ulp is 2**-53, and
  test_mpmath_crosscheck holds their float errors within 1 and 2 ulps at its
  sampled q, so the margin is about eight times what the floats lose there;
- at q = 2, 3 and 4 the crossing of the concave envelope with the output
  entropy on [1/q, 2/(q+1)] is enclosed to 1e-30 by bisection on interval
  signs, and with it theta_star and r_feedback; ``avg_feedback_capacity``
  lies within ``bisect_root``'s 1e-11 of both enclosures;
- the zero-error rate lies below r_feedback at every q in [2, 10**12]. The
  rate root, where H_b(a) + (1 - a) log2 q - 1 falls through 0 on [1/2, 1],
  is enclosed by bisection on interval signs at q = 2, 3, 4 and 5, below the
  enclosures of r_feedback. On every real q in [6, 10**12] the rate function
  is negative at r_feedback's lower bound, so the root lies below it. Between
  5 and 6 the real margin falls to about 5e-11 (near q = 5.47), so q = 5 is
  taken alone; at integer q it is smallest there, 7.07e-5.

All are written here from their definitions, not from ``capacity``, and are
checked against the 50-digit definitions of the envelope and the output
entropy in test_mpmath_crosscheck.
"""

import math

import pytest

from union_channel import avg_feedback_capacity, case_discriminant, rate_root
from union_channel.entropy import MAX_ALPHABET

mpmath = pytest.importorskip("mpmath")
iv = type(mpmath.iv)()  # a context of our own: its precision is not mpmath.iv's
iv.prec = 113

from test_mpmath_crosscheck import (  # noqa: E402
    _chord, _envelope, _output_entropy, _rate_root, _root, mp,
)

GAIN_MARGIN = 24.5 * 2**-53
# case_discriminant's float rounding: a few ops on terms below 10 (1.34 units seen)
DISCRIMINANT_FLOAT_ERROR = 4 * 2**-53
# bisect_root stops once its bracket is 1e-12 wide (871-3539 ulps seen at q = 2..4)
ROOT_FLOAT_ERROR = 1e-11
ROOT_WIDTH = 1e-30
RATE_WIDTH = 1e-15  # below rate_root's float error: its bisection stops at 1e-12


def _discriminant(ctx, q):
    # in nats, at theta = 2/(q+1): the output is uniform over its q(q+1)/2 values;
    # the chord runs from (1/q, 2 ln q) to the two-level curve's tangent point
    # t = 1/q + (q-2)^2/(q(q-1)), where the top mass is (q-1)/q and the curve is
    # 2 ln q - 2(q-2) ln(q-1)/q, so its slope is -2(q-1) ln(q-1)/(q-2); the peak
    # lies (q-1)/(q(q+1)) right of 1/q
    ln = ctx.log
    chord = 2 * ln(q) - 2 * (q - 1) * ln(q - 1) / (q - 2) * (q - 1) / (q * (q + 1))
    return chord - ln(q * (q + 1) / 2)


def _gain(ctx, q):
    # (ln(q(q+1)/2) - ln(q^2) + (q-1) ln 2 / q) / (2 ln q): the output entropy at
    # the peak less the one at theta = 1/q (independent uniform inputs), halved
    return (ctx.log1p(1 / q) - ctx.log(2) / q) / (2 * ctx.log(q))


def _curve(ctx, theta, q):
    # max H(X1) + H(X2) in nats: the two-level pair whose top mass
    # a = 1/q + sqrt((1 - 1/q)(theta - 1/q)) gives self-agreement theta
    a = 1 / q + ctx.sqrt((1 - 1 / q) * (theta - 1 / q))
    return -2 * (a * ctx.log(a) + (1 - a) * ctx.log((1 - a) / (q - 1)))


def _envelope_nats(ctx, theta, q):
    # on [1/q, 2/(q+1)] the concave envelope is the curve at q = 2, and at q = 3, 4
    # the chord from (1/q, 2 ln q) to the curve at the tangent point t, which lies
    # at or right of 2/(q+1)
    if q == 2:
        return _curve(ctx, theta, q)
    t = 1 / q + (q - 2) ** 2 / (q * (q - 1))
    return 2 * ctx.log(q) + (_curve(ctx, t, q) - 2 * ctx.log(q)) * (theta - 1 / q) / (t - 1 / q)


def _output_nats(ctx, theta, q):
    # the q singletons share theta, the q(q-1)/2 pairs the rest
    return -(theta * ctx.log(theta / q) + (1 - theta) * ctx.log((1 - theta) / (q * (q - 1) / 2)))


def _root_enclosures(q):
    """Intervals holding theta_star and r_feedback (base q) at q = 2, 3 or 4.

    Bisects envelope - output entropy on [1/q, 2/(q+1)], whose ends have opposite
    signs, keeping the half whose sign the interval shows, until the bracket is
    ROOT_WIDTH wide; a midpoint whose sign does not show fails.
    """
    n = iv.mpf(q)

    def gap(theta):
        return _envelope_nats(iv, theta, n) - _output_nats(iv, theta, n)

    lo, hi = (1 / n).b, (2 / (n + 1)).a
    assert gap(lo).a > 0 and gap(hi).b < 0
    while hi - lo > ROOT_WIDTH:
        mid = ((lo + hi) / 2).mid
        sign = gap(mid)
        assert sign.a > 0 or sign.b < 0, f"no sign at theta {mid} for q={q}"
        lo, hi = (mid, hi) if sign.a > 0 else (lo, mid)
    theta = iv.mpf([lo.a, hi.b])
    return theta, _envelope_nats(iv, theta, n) / (2 * iv.log(n))


def _rate_gap(ctx, a, q):
    # ln 2 * (H_b(a) + (1 - a) log2 q - 1): it falls in a on [1/2, 1) and rises in q
    return -(a * ctx.log(a) + (1 - a) * ctx.log(1 - a)) + (1 - a) * ctx.log(q) - ctx.log(2)


def _peak_rate(ctx, q):
    # r_feedback from q = 5 on: ln(q(q+1)/2) / (2 ln q), the output uniform at
    # theta = 2/(q+1), written with q once in each log so a box's bounds stay tight
    return 1 - ctx.log(2 - 2 / (q + 1)) / (2 * ctx.log(q))


def _rate_root_enclosure(q, width):
    """An interval holding the rate root at every real q in the interval ``q``.

    Each end is bisected on [1/2, 0.999] to ``width``: the lower one below the
    last point where the rate function's sign shows positive on all of ``q``,
    the upper one above the last point where it does not show negative.
    """

    def bisect(sure):
        # a bracket of ``width`` around where ``sure`` stops holding
        lo, hi = iv.mpf(0.5), iv.mpf(0.999)
        assert sure(lo) and not sure(hi)
        while hi - lo > width:
            mid = ((lo + hi) / 2).mid
            lo, hi = (mid, hi) if sure(mid) else (lo, mid)
        return lo, hi

    lower, _ = bisect(lambda a: _rate_gap(iv, a, q).a > 0)
    _, upper = bisect(lambda a: not _rate_gap(iv, a, q).b < 0)
    return iv.mpf([lower.a, upper.b])


def _certify(lo, hi, holds):
    """Split [lo, hi] until ``holds`` is true on each box.

    A box whose ends differ by more than 2x is split at their geometric mean,
    others in halves.
    """
    boxes = [(lo, hi)]
    while boxes:
        a, b = boxes.pop()
        if holds(iv.mpf([a, b])):
            continue
        assert b - a > 1e-9 * a, f"no certificate on q in [{a}, {b}]"
        mid = math.sqrt(a * b) if b > 2 * a else (a + b) / 2
        boxes += [(a, mid), (mid, b)]


@pytest.mark.parametrize("q", [3, 4])
def test_chord_binds_at_q_3_and_4(q):
    assert _discriminant(iv, iv.mpf(q)).b < 0


def test_output_peak_binds_on_every_real_q_from_5_to_the_cap():
    _certify(5.0, float(MAX_ALPHABET), lambda q: _discriminant(iv, q).a > 0)


def test_feedback_gain_exceeds_the_float_errors_on_every_real_q_from_5_to_the_cap():
    _certify(5.0, float(MAX_ALPHABET), lambda q: _gain(iv, q).a > GAIN_MARGIN)


@pytest.mark.parametrize("q", range(3, 51))
def test_certified_forms_match_the_definitions_at_50_digits(q):
    theta = mp.mpf(2) / (q + 1)
    reference = mp.log(q) * (_chord(theta, q) - _output_entropy(theta, q))
    assert abs(_discriminant(mp, mp.mpf(q)) - reference) < mp.mpf(10) ** -45
    if q >= 5:
        gain = (_output_entropy(theta, q) - _output_entropy(1 / mp.mpf(q), q)) / 2
        assert abs(_gain(mp, mp.mpf(q)) - gain) < mp.mpf(10) ** -45
        assert abs(_peak_rate(mp, mp.mpf(q)) - _output_entropy(theta, q) / 2) < mp.mpf(10) ** -45


@pytest.mark.parametrize("q", range(3, 101))
def test_case_discriminant_lies_in_its_enclosure(q):
    enclosure = _discriminant(iv, iv.mpf(q))
    value = case_discriminant(q)
    assert enclosure.a - DISCRIMINANT_FLOAT_ERROR <= value <= enclosure.b + DISCRIMINANT_FLOAT_ERROR


@pytest.mark.parametrize("q", [2, 3, 4])
def test_feedback_rate_and_its_maximizer_lie_near_their_enclosures(q):
    theta, rate = _root_enclosures(q)
    assert theta.delta <= ROOT_WIDTH  # the rate's is a few times wider: the envelope's slope
    report = avg_feedback_capacity(q)
    assert theta.a - ROOT_FLOAT_ERROR <= report.theta_star <= theta.b + ROOT_FLOAT_ERROR
    assert rate.a - ROOT_FLOAT_ERROR <= report.r_feedback <= rate.b + ROOT_FLOAT_ERROR
    # the 50-digit findroot reference agrees with the enclosure
    hi = mp.mpf(2) / (q + 1)
    reference = _root(lambda t: _envelope(t, q) - _output_entropy(t, q), mp.mpf(1) / q, hi)
    assert theta.a - mp.mpf(10) ** -40 <= reference <= theta.b + mp.mpf(10) ** -40


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rate_root_lies_below_the_feedback_rate_at_q_2_to_5(q):
    rate = _root_enclosures(q)[1] if q < 5 else _peak_rate(iv, iv.mpf(q))
    assert _rate_root_enclosure(iv.mpf(q), RATE_WIDTH).b < rate.a


def test_rate_root_lies_below_the_feedback_rate_on_every_real_q_from_6_to_the_cap():
    # the rate function falls in a, so a negative sign at r_feedback's lower
    # bound puts the root below r_feedback at every q of the box
    _certify(6.0, float(MAX_ALPHABET), lambda q: _rate_gap(iv, _peak_rate(iv, q).a, q).b < 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16, 255, 10**6, MAX_ALPHABET])
def test_rate_root_lies_near_its_enclosure(q):
    root = _rate_root_enclosure(iv.mpf(q), RATE_WIDTH)
    assert root.delta <= 2 * RATE_WIDTH
    assert root.a - ROOT_FLOAT_ERROR <= rate_root(q) <= root.b + ROOT_FLOAT_ERROR
    # the 50-digit findroot reference agrees with the enclosure
    assert root.a - mp.mpf(10) ** -40 <= _rate_root(q) <= root.b + mp.mpf(10) ** -40
