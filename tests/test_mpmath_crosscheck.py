"""50-digit cross-checks of the rate closed forms and roots: every q up to 50, and
log-spaced q from 51 up to the alphabet cap.

Every reference is derived here in mpmath from the defining equations, not
from the package's formulas: the rate root from H_b(a) + (1 - a) log2 q = 1,
the discriminant from the envelope chord and the output entropy at
theta = 2/(q+1), the feedback capacity from the crossing of the concave
envelope with the output entropy on [1/q, 2/(q+1)], and the capacity without
feedback from the output entropy of independent uniform inputs (theta = 1/q).
The five-decimal rate roots of acceptance criterion 2 are checked against the
same references.
The entropy core, ``grouped_entropy``, is checked as a property on drawn
groups whose masses reach down to the subnormals.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from union_channel import avg_feedback_capacity, case_discriminant, grouped_entropy, rate_root
from union_channel.entropy import MAX_ALPHABET, PROB_TOL

from test_acceptance import RATE_ROOT_TABLE

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 50

QS = range(2, 51)
# 40 log-spaced q from 51 up to the cap, where the rates' gap is smallest
LOG_QS = sorted({round(51 * (MAX_ALPHABET / 51) ** (i / 39)) for i in range(39)} | {MAX_ALPHABET})


def _root(f, lo, hi):
    return mp.findroot(f, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")


def _entropy(masses, q):
    # (mass, multiplicity) groups, each mass spread evenly over its cells
    return -sum(w * mp.log(w / r) for w, r in masses if w > 0) / mp.log(q)


def _output_entropy(theta, q):
    return _entropy([(theta, q), (1 - theta, mp.binomial(q, 2))], q)


def _curve(theta, q):
    # top mass a of the two-level pair with self-agreement theta
    a = 1 / mp.mpf(q) + mp.sqrt((1 - 1 / mp.mpf(q)) * (theta - 1 / mp.mpf(q)))
    return 2 * _entropy([(a, 1), (1 - a, q - 1)], q)


def _tangent(q):
    return 1 / mp.mpf(q) + mp.mpf(q - 2) ** 2 / (q * (q - 1))


def _chord(theta, q):
    # line from (1/q, 2) to the curve, tangent where it touches
    t = _tangent(q)
    return 2 + (_curve(t, q) - 2) * (theta - 1 / mp.mpf(q)) / (t - 1 / mp.mpf(q))


def _envelope(theta, q):
    return _curve(theta, q) if q == 2 or theta >= _tangent(q) else _chord(theta, q)


def _rate_root(q):
    def f(a):
        h = -(a * mp.log(a, 2) + (1 - a) * mp.log(1 - a, 2))
        return h + (1 - a) * mp.log(q, 2) - 1

    reference = _root(f, mp.mpf(1) / 2 + mp.mpf(10) ** -30, 1 - mp.mpf(10) ** -30)
    assert abs(f(reference)) < mp.mpf(10) ** -45
    return reference


@pytest.mark.parametrize("q", QS)
def test_rate_root_at_50_digits(q):
    reference = _rate_root(q)
    assert abs(rate_root(q) - reference) < 1e-12
    if q in RATE_ROOT_TABLE:
        # rounded half-up to five decimals, compared in units of 1e-5
        rounded = int(mp.floor(reference * 10**5 + mp.mpf(1) / 2))
        assert round(RATE_ROOT_TABLE[q] * 10**5) == rounded


@pytest.mark.parametrize("q", range(3, 51))
def test_case_discriminant_sign_at_50_digits(q):
    theta = mp.mpf(2) / (q + 1)
    reference = mp.log(q) * (_chord(theta, q) - _output_entropy(theta, q))
    assert abs(reference) > mp.mpf(10) ** -6  # the sign is well separated
    assert (case_discriminant(q) > 0) == (reference > 0)
    assert abs(case_discriminant(q) - reference) < 1e-12


@pytest.mark.parametrize("q", QS)
def test_feedback_capacity_at_50_digits(q):
    hi = mp.mpf(2) / (q + 1)
    if _envelope(hi, q) >= _output_entropy(hi, q):
        reference = _output_entropy(hi, q) / 2
    else:
        theta = _root(
            lambda t: _envelope(t, q) - _output_entropy(t, q), mp.mpf(1) / q, hi
        )
        reference = _envelope(theta, q) / 2
    assert abs(avg_feedback_capacity(q).r_feedback - reference) < 1e-11


def test_rates_from_51_up_to_the_cap_at_50_digits():
    # bounds: 1 ulp for r_no_feedback, 2 ulps for r_feedback (the output peak binds
    # from q = 5 on) and bisect_root's 1e-12 for the rate root
    assert len(LOG_QS) == 40
    for q in LOG_QS:
        report = avg_feedback_capacity(q)
        hi = mp.mpf(2) / (q + 1)
        assert report.case == "output_peak" and _envelope(hi, q) > _output_entropy(hi, q)
        no_feedback = _output_entropy(1 / mp.mpf(q), q) / 2
        assert abs(report.r_no_feedback - no_feedback) <= math.ulp(report.r_no_feedback), q
        assert abs(report.r_feedback - _output_entropy(hi, q) / 2) <= 2 * math.ulp(
            report.r_feedback), q
        assert abs(report.r_zero_error_lower - _rate_root(q)) < 1e-12, q


# masses far below any regular one: the smallest subnormal, deeper subnormals,
# the smallest normal and 1e-300; spread over up to 10**6 cells each
_TINY = (5e-324, 1e-320, 1e-310, 2.0**-1022, 1e-300)
_multiplicity = st.integers(1, 10**6)


@st.composite
def _groups(draw):
    """(mass, multiplicity) groups: regular masses scaled to sum 1, plus tiny ones.

    Some draws are pushed off the unit sum, or make a tiny mass negative, so
    that the refusals are drawn too.
    """
    regular = draw(st.lists(st.tuples(st.floats(0.0, 1.0), _multiplicity), min_size=1,
                            max_size=5))
    total = math.fsum(m for m, _ in regular)
    regular = [(m / total, r) for m, r in regular] if total > 0.0 else [(1.0, regular[0][1])]
    tiny = draw(st.lists(st.tuples(st.sampled_from(_TINY), _multiplicity), max_size=3))
    groups = draw(st.permutations(regular + tiny))
    i = draw(st.integers(0, len(groups) - 1))
    m, r = groups[i]
    change = draw(st.sampled_from(["none"] * 6 + ["negate", "+1e-12", "-1e-11", "+1e-6"]))
    if change == "negate":
        m = -m
    elif change != "none":
        m += float(change)
    return groups[:i] + [(m, r)] + groups[i + 1 :]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_groups(), st.integers(2, 255))
@example([(5e-324, 2), (1.0, 1)], 2)  # its cell share m / r underflows to 0.0
@example([(5e-324, 3), (1.0, 3)], 3)  # output_entropy(5e-324, 3)
def test_grouped_entropy_against_50_digits(groups, q):
    """The result lies within REL * scale + ABS of the 50-digit entropy, or the
    call gives its documented refusal.

    With s_i = m_i ln(m_i / r_i) taken exactly from the float inputs, the
    reference is -sum(s_i) / ln q and scale = sum(|s_i|) / ln q. REL = 64 ulps
    of 1 covers the rounding of at most 8 cell shares, logs, products and sums
    and of the final division. A cell share at or below the smallest normal
    float carries an absolute error of up to 2**-1075, and one that underflows
    to 0.0 drops its term: ABS = 2**-1074 * sum(r_i (2 + |ln(m_i / r_i)|)) / ln q
    bounds both (about 1e-315 per group at r = 10**6).
    """
    negative = next((m for m, _ in groups if m < 0.0), None)
    off = abs(sum(Fraction(m) for m, _ in groups) - 1)  # exact
    try:
        value = grouped_entropy(groups, q)
    except ValueError as refusal:
        if negative is not None:
            assert str(refusal) == f"negative probability entry {negative!r}"
        else:
            assert str(refusal).startswith("probabilities sum to ")
            assert off > Fraction(PROB_TOL) - Fraction(1, 10**14)  # the float sum's slack
        return
    assert negative is None and off < Fraction(PROB_TOL) + Fraction(1, 10**14)
    terms = [mp.mpf(m) * mp.log(mp.mpf(m) / r) for m, r in groups if m > 0.0]
    ln_q = mp.log(q)
    reference = -mp.fsum(terms) / ln_q
    bound = 64 * mp.mpf(2) ** -53 * mp.fsum(map(abs, terms)) / ln_q + mp.mpf(2) ** -1074 * sum(
        r * (2 + abs(mp.log(mp.mpf(m) / r))) for m, r in groups if m > 0.0
    ) / ln_q
    assert abs(mp.mpf(value) - reference) <= bound
