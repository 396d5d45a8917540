import math

import pytest
from hypothesis import given, strategies as st

import union_channel as uc
from union_channel import binary_entropy, entropy_q, grouped_entropy
from union_channel.entropy import (
    MAX_ALPHABET, bisect_root, check_alphabet, check_between, check_count, check_int, validate_pmf,
)


def test_uniform_has_unit_entropy():
    assert entropy_q([0.25] * 4, 4) == pytest.approx(1.0, abs=1e-12)
    assert entropy_q([0.5, 0.5], 2) == pytest.approx(1.0, abs=1e-12)


def test_point_mass_has_zero_entropy():
    assert entropy_q([1.0, 0.0, 0.0], 3) == 0.0


def test_entropy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        entropy_q([0.5, -0.1, 0.6], 3)
    with pytest.raises(ValueError):
        entropy_q([0.5, 0.4], 2)  # sums to 0.9
    with pytest.raises(ValueError):
        entropy_q([0.5, 0.5], 1)


def test_nan_masses_are_refused_by_their_sum():
    nan = float("nan")
    for call in (
        lambda: entropy_q([0.5, nan], 2),
        lambda: grouped_entropy([(nan, 1), (1.0, 1)], 2),
    ):
        with pytest.raises(ValueError, match=r"^probabilities sum to nan, expected") as info:
            call()
        assert "\n" not in str(info.value)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: grouped_entropy([(10**400, 1)], 2),
        lambda: entropy_q([10**400], 2),
        lambda: grouped_entropy([(0.5, 1), (-(10**400), 3)], 2),
    ],
    ids=["grouped", "entropy_q", "negative"],
)
def test_an_int_mass_past_float_range_is_refused_in_one_line(call):
    # mass += m raised OverflowError, and so did the branch kept for a
    # multiplicity past float range, on m * (...)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "probability entry is an int of 1329 bits, past float range"


def test_grouped_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        grouped_entropy([(1.0, 0)], 3)
    with pytest.raises(ValueError):
        grouped_entropy([(0.5, 2), (0.5, 1.5)], 3)


@pytest.mark.parametrize(
    "call, message",
    [
        # inf once raised an OverflowError from int(), NaN int()'s own ValueError,
        # None a TypeError; 2.0 and True were taken as the ints they equal
        (lambda: grouped_entropy([(1.0, math.inf)], 2),
         "multiplicity must be a positive integer, got inf"),
        (lambda: grouped_entropy([(1.0, math.nan)], 2),
         "multiplicity must be a positive integer, got nan"),
        (lambda: grouped_entropy([(1.0, None)], 2),
         "multiplicity must be a positive integer, got None"),
        (lambda: grouped_entropy([(0.5, 2.0), (0.5, 1)], 2),
         "multiplicity must be a positive integer, got 2.0"),
        (lambda: grouped_entropy([(0.5, True), (0.5, 1)], 2),
         "multiplicity must be a positive integer, got True"),
        (lambda: entropy_q([None, 1.0], 2), "probability entry None is not a number"),
        (lambda: entropy_q([0.5, "0.5"], 2), "probability entry '0.5' is not a number"),
        (lambda: binary_entropy(None), "binary entropy argument must lie in [0, 1], got None"),
        (lambda: binary_entropy("x"), "binary entropy argument must lie in [0, 1], got 'x'"),
        # each once raised Python's own TypeError or ValueError
        (lambda: entropy_q(None, 2), "probabilities must be an iterable, got None"),
        (lambda: validate_pmf(3), "probabilities must be an iterable, got 3"),
        (lambda: grouped_entropy(None, 2), "probabilities must be an iterable, got None"),
        (lambda: grouped_entropy([0.5, 0.5], 2),
         "probability group must be a (mass, multiplicity) pair, got 0.5"),
        (lambda: grouped_entropy([(0.5, 1, 7)], 2),
         "probability group must be a (mass, multiplicity) pair, got (0.5, 1, 7)"),
    ],
    ids=["multiplicity-inf", "multiplicity-nan", "multiplicity-None", "multiplicity-float",
         "multiplicity-bool", "entry-None", "entry-str", "binary-None", "binary-str",
         "entropy_q-None", "validate_pmf-int", "grouped-None", "grouped-float-entries",
         "grouped-triple"],
)
def test_inputs_that_are_not_numbers_are_refused_in_one_line(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_grouped_refuses_in_a_fixed_order():
    # the alphabet, then a bad multiplicity anywhere, then a negative mass, then the sum
    with pytest.raises(ValueError, match="alphabet size"):
        grouped_entropy([(-0.5, 0), (2.0, 1)], 1)
    with pytest.raises(ValueError, match="multiplicity must be a positive integer, got 0"):
        grouped_entropy([(-0.5, 1), (2.0, 1), (0.5, 0)], 3)
    with pytest.raises(ValueError, match="negative probability entry -0.5"):
        grouped_entropy([(0.1, 1), (-0.5, 1), (-0.25, 1), (2.0, 2)], 3)
    with pytest.raises(ValueError, match="probabilities sum to 0.9"):
        grouped_entropy([(0.5, 1), (0.4, 2)], 3)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


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


NAN = float("nan")


@pytest.mark.parametrize(
    "call, q",
    [
        (lambda: entropy_q([0.5, 0.5], NAN), NAN),
        (lambda: uc.case_discriminant(NAN), NAN),
        (lambda: entropy_q([1.0], 2.5), 2.5),
        (lambda: entropy_q([0.5, 0.5], 2.0), 2.0),
        (lambda: entropy_q([0.5, 0.5], True), True),
        (lambda: uc.avg_feedback_capacity(2.0), 2.0),
        (lambda: uc.rate_root(2.5), 2.5),
        (lambda: uc.tangent_point(3.5), 3.5),
        (lambda: uc.resolution_digits(10, 2.5), 2.5),
    ],
    ids=[
        "entropy_q-nan", "case_discriminant-nan", "entropy_q-2.5", "entropy_q-2.0",
        "entropy_q-True", "avg_feedback_capacity-2.0", "rate_root-2.5",
        "tangent_point-3.5", "resolution_digits-2.5",
    ],
)
def test_an_alphabet_that_is_not_an_int_is_refused(call, q):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"alphabet size must be an int, got {q!r}"


HUGE = 10**5000  # past the interpreter's 4300-digit limit on int-to-str conversion


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
    "value, lo, hi, shown, message",
    [
        (11, 0, 10, None, "n must lie in [0, 10], got 11"),
        (-1, 1, 2**14, None, "n must lie in [1, 16384], got -1"),
        (1.5, 0.0, 1.0, None, "n must lie in [0, 1], got 1.5"),
        (NAN, -3.0, math.inf, None, "n must lie in [-3, inf], got nan"),
        (0.9, 1e-06, 0.5, None, "n must lie in [1e-06, 0.5], got 0.9"),
        (0.0, 1 / 3, 1.0, None, "n must lie in [0.3333333333333333, 1], got 0.0"),
        (HUGE, 0, 10, None, "n must lie in [0, 10], got an int of 16610 bits"),
        (0.2, 1 / 3, 1.0, "[1/q, 1]", "n must lie in [1/q, 1], got 0.2"),
    ],
    ids=["int", "int-large", "whole-float", "whole-float-inf", "float", "float-third",
         "value-too-long-to-print", "literal"],
)
def test_a_refused_interval_is_printed_from_its_bounds(value, lo, hi, shown, message):
    # ints and whole floats print as ints, other floats by repr, a literal as given
    assert _refusal(lambda: check_between(value, lo, hi, shown, "n")) == message


class _Unprintable(float):
    def __repr__(self):
        raise AssertionError("a passing check formatted its bounds")


def test_a_passing_check_formats_no_text():
    check_between(0.5, _Unprintable(0.25), _Unprintable(0.75))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: uc.validate_params(2, HUGE, 1),
         "n must lie in [0, 64], got an int of 16610 bits"),
        (lambda: check_count(-HUGE, "seed", 0),
         "seed must be an int >= 0, got an int of 16610 bits"),
        (lambda: check_alphabet(-HUGE),
         "alphabet size must be at least 2, got an int of 16610 bits"),
        (lambda: check_alphabet(HUGE),
         f"alphabet size must be at most {MAX_ALPHABET}, got an int of 16610 bits"),
        (lambda: uc.unrank_pattern(HUGE, 2, 3, 1),
         "rank an int of 16610 bits out of range [0, 12)"),
        (lambda: uc.rank_pattern([HUGE], 2, 0),
         "pattern symbol an int of 16610 bits outside alphabet [1, 2]"),
        (lambda: uc.new_session(uc.CodeParams(2, 3, 2, 1), [HUGE, 1], [1, 1]),
         "w1 digit an int of 16610 bits outside alphabet [1, 2]"),
        (lambda: uc.decode_transcript(uc.CodeParams(2, 3, 2, 1), [HUGE] * 4),
         "output an int of 16610 bits at position 0 is not a 1- or 2-element subset of [1, 2]"),
        (lambda: uc.decode_transcript(uc.CodeParams(2, 3, 2, 1), [frozenset({HUGE})] * 4),
         "output a list holding an int too long to print at position 0 is not a 1- or "
         "2-element subset of [1, 2]"),
        (lambda: grouped_entropy(HUGE, 2),
         "probabilities must be an iterable, got an int of 16610 bits"),
        (lambda: grouped_entropy([HUGE], 2),
         "probability group must be a (mass, multiplicity) pair, got an int of 16610 bits"),
        (lambda: grouped_entropy([(1.0, -HUGE)], 2),
         "multiplicity must be a positive integer, got an int of 16610 bits"),
        (lambda: uc.two_level_point(3, [HUGE], 1),
         "theta must lie in [1/q, 1], got a list holding an int too long to print"),
    ],
    ids=[
        "validate_params-n", "check_count", "check_alphabet-below", "check_alphabet-above",
        "unrank_pattern-rank", "rank_pattern-symbol", "new_session-digit",
        "decode_transcript-int", "decode_transcript-frozenset",
        "grouped_entropy-masses", "grouped_entropy-group", "grouped_entropy-multiplicity",
        "two_level_point-theta-list",
    ],
)
def test_a_refusal_names_an_int_too_long_to_print_by_its_size(call, message):
    # repr of such an int raises Python's own ValueError, which once replaced the refusal
    assert _refusal(call) == message


@pytest.mark.parametrize(
    "call, q",
    [
        (lambda: check_alphabet(MAX_ALPHABET + 1), MAX_ALPHABET + 1),
        (lambda: uc.pattern_count(10**100, 2**14, 0), 10**100),  # took 0.4 s to return
        (lambda: uc.avg_feedback_capacity(10**400), 10**400),  # OverflowError
        (lambda: uc.tangent_point(10**400), 10**400),
        (lambda: uc.concave_envelope(0.5, 10**400), 10**400),
        (lambda: uc.cover_leung_witness(10**400, 0.5), 10**400),
        (lambda: uc.two_level_value(10**400, 0.5, 1), 10**400),
        (lambda: uc.two_level_monotonicity(2**64, 0.5, 5), 2**64),  # ZeroDivisionError
    ],
    ids=[
        "check_alphabet", "pattern_count", "avg_feedback_capacity", "tangent_point",
        "concave_envelope", "cover_leung_witness", "two_level_value", "two_level_monotonicity",
    ],
)
def test_an_alphabet_past_the_cap_is_refused_in_one_line(call, q):
    assert _refusal(call) == f"alphabet size must be at most {MAX_ALPHABET}, got {q}"
