"""50-digit cross-checks of the rate closed forms and roots, q up to 50.

Every reference is derived here in mpmath from the defining equations, not
from the package's formulas: the rate root from H_b(a) + (1 - a) log2 q = 1,
the discriminant from the envelope chord and the output entropy at
theta = 2/(q+1), and the feedback capacity from the crossing of the concave
envelope with the output entropy on [1/q, 2/(q+1)].
"""

import pytest

from union_channel import avg_feedback_capacity, case_discriminant, rate_root

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 50

QS = range(2, 51)


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


@pytest.mark.parametrize("q", QS)
def test_rate_root_at_50_digits(q):
    def f(a):
        h = -(a * mp.log(a, 2) + (1 - a) * mp.log(1 - a, 2))
        return h + (1 - a) * mp.log(q, 2) - 1

    reference = _root(f, mp.mpf(1) / 2 + mp.mpf(10) ** -30, 1 - mp.mpf(10) ** -30)
    assert abs(f(reference)) < mp.mpf(10) ** -45
    assert abs(rate_root(q) - reference) < 1e-12


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
