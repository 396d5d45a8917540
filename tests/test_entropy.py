import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import union_channel as uc
from refusals import HUGE, NAN
from test_refusals import kept_tests
from union_channel import binary_entropy, entropy_q, grouped_entropy
from union_channel.entropy import bisect_root, check_between, check_int

globals().update(kept_tests(__file__))  # this module's refusal rows, under their old test ids


def test_uniform_has_unit_entropy():
    assert entropy_q([0.25] * 4, 4) == pytest.approx(1.0, abs=1e-12)
    assert entropy_q([0.5, 0.5], 2) == pytest.approx(1.0, abs=1e-12)


def test_point_mass_has_zero_entropy():
    assert entropy_q([1.0, 0.0, 0.0], 3) == 0.0


def test_grouped_uniform():
    assert grouped_entropy([(1.0, 5)], 5) == pytest.approx(1.0, abs=1e-12)


def test_grouped_at_output_peak_q6():
    # H(2/7, 5/7; 6, 15) = log_6 21, twice the q=6 feedback rate
    value = grouped_entropy([(2 / 7, 6), (5 / 7, 15)], 6)
    assert value == pytest.approx(math.log(21) / math.log(6), abs=1e-12)
    assert round(value / 2, 5) == 0.84959


def test_grouped_point_mass():
    for q in (2, 3, 7):
        assert grouped_entropy([(1.0, 1), (0.0, q - 1)], q) == 0.0


def test_a_cell_share_that_underflows_adds_nothing():
    # 5e-324 / 2 underflows to 0.0; its log once raised "math domain error"
    assert grouped_entropy([(5e-324, 2), (1.0, 1)], 2) == 0.0
    assert grouped_entropy([(5e-324, 2), (0.5, 1), (0.5, 1)], 2) == 1.0
    assert grouped_entropy([(0.0, 10**400), (1.0, 1)], 2) == 0.0  # a zero mass divides nothing
    # output_entropy spreads theta over q cells: 5e-324 / 3 underflows too
    assert uc.output_entropy(5e-324, 3) == uc.output_entropy(1e-320, 3) == 1.0


def test_a_multiplicity_past_float_range_keeps_its_share():
    # m / r once raised OverflowError for r above 2**1024; log_10(10**400) = 400
    assert grouped_entropy([(1.0, 10**400)], 10) == pytest.approx(400.0, rel=1e-15)
    expected = 0.5 * 400 + math.log10(2)  # half the mass on 10**400 cells
    assert grouped_entropy([(0.5, 1), (0.5, 10**400)], 10) == pytest.approx(expected, rel=1e-15)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_fixed_point():
    # independent bisection oracle for H_b(a) = a on (1/2, 1]
    root = bisect_root(lambda a: binary_entropy(a) - a, 0.5 + 1e-9, 1.0, tol=1e-14)
    assert root == pytest.approx(0.7729078047806515, abs=1e-9)
    assert round(root, 5) == 0.77291
    assert binary_entropy(root) == pytest.approx(root, abs=1e-12)
    assert binary_entropy(0.77291) == pytest.approx(0.77291, abs=1e-5)


@pytest.mark.parametrize(
    "f, root",
    [(lambda x: x, 0.0), (lambda x: x - 1.0, 1.0), (lambda x: x - 0.5, 0.5)],
    ids=["lo", "hi", "mid"],
)
def test_bisect_root_returns_an_exact_zero(f, root):
    assert bisect_root(f, 0.0, 1.0) == root


def test_bisect_root_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(RuntimeError, match=r"^no sign change on \[0.0, 1.0\]"):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)


def test_bisect_root_refuses_to_return_an_unconverged_root():
    # the bracket is still 1.2e240 wide after 200 halvings; its midpoint,
    # 6.2e239, was once returned as the root of x - 1
    with pytest.raises(RuntimeError) as info:
        bisect_root(lambda x: x - 1.0, -1e300, 1e300)
    assert str(info.value) == (
        "bracket [0.0, 1.2446030555722284e+240] still wider than 1e-12 after 200 halvings"
    )


def test_binary_entropy_symmetric_on_grid():
    for i in range(1001):
        a = i / 1000
        assert binary_entropy(a) == pytest.approx(binary_entropy(1 - a), abs=1e-12)


def _normalized(values):
    total = sum(values)
    return [v / total for v in values]


pmf_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8
).map(_normalized)


@given(pmf_strategy, st.randoms(use_true_random=False))
def test_entropy_permutation_invariant(probs, rnd):
    shuffled = list(probs)
    rnd.shuffle(shuffled)
    q = len(probs)
    assert entropy_q(shuffled, q) == pytest.approx(entropy_q(probs, q), abs=1e-12)


@given(pmf_strategy)
def test_grouped_with_unit_multiplicities_matches_plain(probs):
    q = len(probs)
    assert grouped_entropy([(p, 1) for p in probs], q) == pytest.approx(
        entropy_q(probs, q), abs=1e-15
    )


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4),
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_entropy_concavity(raw1, raw2, t):
    p1 = _normalized(raw1)
    p2 = _normalized(raw2)
    mix = [t * a + (1 - t) * b for a, b in zip(p1, p2)]
    q = 4
    assert entropy_q(mix, q) >= t * entropy_q(p1, q) + (1 - t) * entropy_q(p2, q) - 1e-12




def _refusal(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "value",
    [5, True, 2.0, 2.5, NAN, math.inf, "5", None, -1, 10**30, HUGE],
    ids=["5", "True", "2.0", "2.5", "nan", "inf", "str", "None", "-1", "10**30", "10**5000"],
)
def test_an_int_range_refuses_as_check_int_then_check_between_did(value):
    def two_calls():  # what each int range wrote before check_between took ints
        check_int(value, "n")
        check_between(value, 0, 10, "[0, 10]", "n")

    assert _refusal(lambda: check_between(value, 0, 10, "[0, 10]", "n")) == _refusal(two_calls)


def test_a_float_range_still_takes_an_int():
    check_between(0, 0.0, 1.0, "[0, 1]")
    check_between(1, 0.0, 1.0, "[0, 1]")


@pytest.mark.parametrize(
    "value", [0.5, np.float64(0.5), np.int64(1), Fraction(1, 2)],
    ids=["float", "np-float64", "np-int64", "Fraction"],
)
def test_a_float_range_takes_any_real_number(value):
    # past the float and int fast path, numbers.Real decides; a bool, a numpy
    # bool and a Decimal are refused (rows in the refusal table)
    check_between(value, 0.0, 1.0, "[0, 1]")


class _Unprintable(float):
    def __repr__(self):
        raise AssertionError("a passing check formatted its bounds")


def test_a_passing_check_formats_no_text():
    check_between(0.5, _Unprintable(0.25), _Unprintable(0.75))
