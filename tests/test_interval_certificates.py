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
  sampled q, so the margin is about eight times what the floats lose there.

Both are written here from their definitions, not from ``capacity``, and are
checked against the 50-digit definitions of the envelope chord and the output
entropy in test_mpmath_crosscheck.
"""

import math

import pytest

from union_channel import case_discriminant
from union_channel.entropy import MAX_ALPHABET

mpmath = pytest.importorskip("mpmath")
iv = type(mpmath.iv)()  # a context of our own: its precision is not mpmath.iv's
iv.prec = 113

from test_mpmath_crosscheck import _chord, _output_entropy, mp  # noqa: E402

GAIN_MARGIN = 24.5 * 2**-53
# case_discriminant's float rounding: a few ops on terms below 10 (1.34 units seen)
DISCRIMINANT_FLOAT_ERROR = 4 * 2**-53


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


@pytest.mark.parametrize("q", range(3, 101))
def test_case_discriminant_lies_in_its_enclosure(q):
    enclosure = _discriminant(iv, iv.mpf(q))
    value = case_discriminant(q)
    assert enclosure.a - DISCRIMINANT_FLOAT_ERROR <= value <= enclosure.b + DISCRIMINANT_FLOAT_ERROR
