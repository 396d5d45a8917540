import dataclasses
import math
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from test_refusals import kept_tests
from union_channel import (
    avg_capacity_no_feedback,
    avg_feedback_capacity,
    case_discriminant,
    concave_envelope,
    cover_leung_witness,
    entropy_q,
    envelope_line,
    grid_max_joint_entropy,
    max_joint_entropy,
    output_entropy,
    tangent_point,
    top_symbol_mass,
)
from union_channel import capacity
from union_channel.cli import main
from union_channel.entropy import MAX_ALPHABET
from union_channel.capacity import (
    CASE_CHORD_INTERSECTION,
    CASE_CURVE_INTERSECTION,
    CASE_OUTPUT_PEAK,
)

globals().update(kept_tests(__file__))  # this module's refusal rows, under their old test ids

TABLE_R_FEEDBACK = {2: 0.79113, 3: 0.81510, 4: 0.83044, 5: 0.84130, 6: 0.84959}
TABLE_R_NO_FEEDBACK = {2: 0.75, 3: 0.78969, 4: 0.8125, 5: 0.82773, 6: 0.83881}


# ---------------------------------------------------------------------------
# top_symbol_mass


def test_top_mass_endpoints():
    for q in (2, 3, 7):
        assert top_symbol_mass(1.0 / q, q) == pytest.approx(1.0 / q, abs=1e-15)
        assert top_symbol_mass(1.0, q) == pytest.approx(1.0, abs=1e-12)


def test_top_mass_solves_quadratic():
    a = top_symbol_mass(0.75, 2)
    assert a == pytest.approx(0.5 + math.sqrt(0.5 * 0.25), abs=1e-15)
    assert a == pytest.approx(0.8535533905932737, abs=1e-12)
    for q, theta in [(2, 0.75), (3, 0.5), (5, 0.9), (11, 0.2)]:
        a = top_symbol_mass(theta, q)
        assert q * a * a - 2 * a + 1 == pytest.approx((q - 1) * theta, abs=1e-12)


# ---------------------------------------------------------------------------
# max_joint_entropy


def test_joint_entropy_boundaries():
    for q in (2, 3, 4, 9):
        assert max_joint_entropy(1.0 / q, q) == pytest.approx(2.0, abs=1e-12)
        assert max_joint_entropy(1.0, q) == pytest.approx(0.0, abs=1e-12)


def test_joint_entropy_matches_grid_oracle_q2():
    oracle = grid_max_joint_entropy(2, 0.6, 1e-4)
    assert oracle.value == pytest.approx(max_joint_entropy(0.6, 2), abs=1e-4)


def test_joint_entropy_decreasing_above_1_over_q():
    for q in (2, 3, 6):
        lo = 1.0 / q
        thetas = [lo + i * (1.0 - lo) / 400 for i in range(400)] + [1.0]
        values = [max_joint_entropy(t, q) for t in thetas]
        assert all(b < a + 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# tangent point and envelope chord


def test_tangent_point_values():
    assert tangent_point(3) == pytest.approx(0.5, abs=1e-15)
    assert tangent_point(4) == pytest.approx(1 / 4 + 4 / 12, abs=1e-15)
    assert tangent_point(10) == pytest.approx(0.1 + 64 / 90, abs=1e-15)


@pytest.mark.parametrize("q", [3, 4, 10])
def test_tangency_condition(q):
    tp = tangent_point(q)
    assert 1.0 / q < tp < 1.0
    h = 1e-6
    derivative = (max_joint_entropy(tp + h, q) - max_joint_entropy(tp - h, q)) / (2 * h)
    chord = (max_joint_entropy(tp, q) - max_joint_entropy(1.0 / q, q)) / (tp - 1.0 / q)
    assert derivative == pytest.approx(chord, abs=1e-8)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 10])
def test_envelope_line_meets_curve_at_endpoints(q):
    assert envelope_line(1.0 / q, q) == pytest.approx(2.0, abs=1e-12)
    tp = tangent_point(q)
    assert envelope_line(tp, q) == pytest.approx(max_joint_entropy(tp, q), abs=1e-9)


def test_envelope_line_closed_form_q4():
    # at theta = 2/(q+1) the chord value is 2 - 2(q-1)^2 log_q(q-1) / ((q-2) q (q+1))
    q = 4
    expected = 2 - 2 * 9 * (math.log(3) / math.log(4)) / (2 * 4 * 5)
    assert envelope_line(2 / 5, q) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# concave envelope


def test_envelope_q2_is_the_curve():
    value, support = concave_envelope(0.6, 2)
    assert value == pytest.approx(max_joint_entropy(0.6, 2), abs=1e-15)
    assert support == ((1.0, 0.6),)


def test_envelope_q3_chord_region():
    value, support = concave_envelope(0.4, 3)
    assert value == pytest.approx(envelope_line(0.4, 3), abs=1e-15)
    (p1, t1), (p2, t2) = support
    assert (t1, t2) == (1 / 3, 0.5)
    assert p2 == pytest.approx(0.4, abs=1e-12)
    assert p1 == pytest.approx(0.6, abs=1e-12)
    mixture = p1 * max_joint_entropy(t1, 3) + p2 * max_joint_entropy(t2, 3)
    assert mixture == pytest.approx(value, abs=1e-9)


def test_envelope_q3_tangent_boundary():
    value, support = concave_envelope(0.5, 3)
    assert support == ((1.0, 0.5),)
    assert value == pytest.approx(max_joint_entropy(0.5, 3), abs=1e-15)


@pytest.mark.parametrize("q", range(2, 51))
def test_envelope_majorizes_and_is_concave(q):
    lo = 1.0 / q
    steps = max(2, round((1.0 - lo) / 1e-3))  # uniform grid, step ~1e-3
    thetas = [lo + (1.0 - lo) * i / steps for i in range(steps)] + [1.0]
    values = []
    for theta in thetas:
        value, support = concave_envelope(theta, q)
        assert value >= max_joint_entropy(theta, q) - 1e-12
        assert sum(w * t for w, t in support) == pytest.approx(theta, abs=1e-10)
        assert all(w >= 0 and lo <= t <= 1.0 for w, t in support)
        assert sum(w for w, _ in support) == pytest.approx(1.0, abs=1e-12)
        values.append(value)
    for i in range(1, len(values) - 1):
        second = values[i + 1] - 2 * values[i] + values[i - 1]
        assert second <= 1e-9


# ---------------------------------------------------------------------------
# output entropy


def test_output_entropy_peak_value_q5():
    assert output_entropy(1 / 3, 5) == pytest.approx(
        math.log(15) / math.log(5), abs=1e-12
    )
    assert round(output_entropy(1 / 3, 5) / 2, 5) == 0.84130


def test_output_entropy_boundaries():
    for q in (2, 3, 6):
        assert output_entropy(1.0, q) == pytest.approx(1.0, abs=1e-12)
    assert output_entropy(0.0, 3) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5, 10, 25])
def test_output_entropy_concave_with_interior_peak(q):
    thetas = [i / 1000 for i in range(1001)]
    values = [output_entropy(t, q) for t in thetas]
    for i in range(1, len(values) - 1):
        assert values[i + 1] - 2 * values[i] + values[i - 1] <= 1e-9
    peak = 2.0 / (q + 1)
    argmax = max(range(len(values)), key=values.__getitem__)
    assert abs(thetas[argmax] - peak) <= 1e-3 + 1e-12
    h = 1e-6
    central = (output_entropy(peak + h, q) - output_entropy(peak - h, q)) / (2 * h)
    assert central == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# case discriminant


def test_discriminant_closed_forms():
    assert case_discriminant(3) == pytest.approx(
        math.log(1.5) - (2 / 3) * math.log(2), abs=1e-15
    )
    assert case_discriminant(4) == pytest.approx(
        math.log(1.6) - 0.45 * math.log(3), abs=1e-12
    )


def test_discriminant_signs():
    assert case_discriminant(3) < 0
    assert case_discriminant(4) < 0
    for q in range(5, 101):
        assert case_discriminant(q) > 0


# ---------------------------------------------------------------------------
# the capacity itself


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_feedback_capacity_table(q):
    report = avg_feedback_capacity(q)
    assert report.r_feedback == pytest.approx(TABLE_R_FEEDBACK[q], abs=5e-6)
    assert report.r_no_feedback == pytest.approx(TABLE_R_NO_FEEDBACK[q], abs=5e-6)


def test_feedback_capacity_cases_and_maximizers():
    r2 = avg_feedback_capacity(2)
    assert r2.case == CASE_CURVE_INTERSECTION
    assert r2.theta_star == pytest.approx(0.6376412736502968, abs=1e-9)
    r3 = avg_feedback_capacity(3)
    assert r3.case == CASE_CHORD_INTERSECTION
    assert r3.theta_star == pytest.approx(0.4798664430974018, abs=1e-9)
    r4 = avg_feedback_capacity(4)
    assert r4.case == CASE_CHORD_INTERSECTION
    assert r4.theta_star == pytest.approx(0.39263956343485534, abs=1e-9)
    for q in (5, 6, 9):
        r = avg_feedback_capacity(q)
        assert r.case == CASE_OUTPUT_PEAK
        assert r.theta_star == 2.0 / (q + 1)


def test_feedback_capacity_refuses_a_rate_ordering_violation(monkeypatch):
    # a zero-error lower bound above the feedback capacity names the whole report
    report = dataclasses.replace(avg_feedback_capacity(2), r_zero_error_lower=2.0)
    monkeypatch.setattr(capacity, "rate_root", lambda q: 2.0)
    with pytest.raises(RuntimeError) as info:
        avg_feedback_capacity(2)
    assert str(info.value) == f"rate ordering violated for q=2: {report}"


def test_rates_are_strictly_ordered_at_the_largest_alphabet():
    # the true gain r_feedback - r_no_feedback, about (1 - ln 2) / (2 q ln q), is
    # smallest at the cap: 5.6e-15, which reads as 50 ulps of r_feedback
    report = avg_feedback_capacity(MAX_ALPHABET)
    assert report.r_no_feedback < report.r_feedback
    assert report.r_zero_error_lower < report.r_feedback
    gain = (report.r_feedback - report.r_no_feedback) / math.ulp(report.r_feedback)
    assert gain > 40


def test_rate_ordering_check_refuses_equal_rates(monkeypatch):
    # the paper's ordering is strict: equal floats once passed a 4-ulp slack
    r = avg_feedback_capacity(MAX_ALPHABET).r_feedback
    monkeypatch.setattr(capacity, "avg_capacity_no_feedback", lambda q: r)
    with pytest.raises(RuntimeError, match=r"^rate ordering violated for q=1000000000000: "):
        avg_feedback_capacity(MAX_ALPHABET)


def test_capacity_cli_runs_at_the_largest_alphabet(capsys):
    assert main(["capacity", "--q", str(MAX_ALPHABET)]) == 0
    assert "output_peak" in capsys.readouterr().out


def test_rate_ordering_check_sees_an_error_below_the_old_absolute_slack(monkeypatch):
    # at q = 10**8 the true margin is 8.3e-11: an r_no_feedback raised by 1e-10
    # passes r_feedback, which an absolute slack of 1e-9 would let through
    q = 10**8
    assert avg_capacity_no_feedback(q) < avg_feedback_capacity(q).r_feedback
    true_value = capacity.avg_capacity_no_feedback
    monkeypatch.setattr(capacity, "avg_capacity_no_feedback", lambda q: true_value(q) + 1e-10)
    with pytest.raises(RuntimeError, match=r"^rate ordering violated for q=100000000: "):
        avg_feedback_capacity(q)


@pytest.mark.parametrize("q", range(5, 51))
def test_peak_case_closed_form_and_binding_curve(q):
    report = avg_feedback_capacity(q)
    # bitwise-identical expression, not just approximately equal
    assert report.r_feedback == 0.5 * math.log(math.comb(q + 1, 2)) / math.log(q)
    peak = 2.0 / (q + 1)
    envelope_value = concave_envelope(peak, q).value
    g = output_entropy(peak, q)
    assert min(envelope_value, g) == g
    assert envelope_value > g


@pytest.mark.parametrize("q", range(2, 51))
def test_naive_output_alphabet_bound(q):
    report = avg_feedback_capacity(q)
    naive = 0.5 * math.log(math.comb(q + 1, 2)) / math.log(q)
    assert report.r_feedback <= naive + 1e-12
    assert 1.0 / q <= report.theta_star <= 2.0 / (q + 1)
    assert report.r_zero_error_lower <= report.r_feedback + 1e-9
    assert report.r_no_feedback <= report.r_feedback + 1e-9


def test_feedback_capacity_at_crossing_equates_curves():
    r2 = avg_feedback_capacity(2)
    assert max_joint_entropy(r2.theta_star, 2) == pytest.approx(
        output_entropy(r2.theta_star, 2), abs=1e-9
    )
    r3 = avg_feedback_capacity(3)
    assert envelope_line(r3.theta_star, 3) == pytest.approx(
        output_entropy(r3.theta_star, 3), abs=1e-9
    )


def test_no_feedback_closed_form():
    assert avg_capacity_no_feedback(2) == 0.75
    assert avg_capacity_no_feedback(3) == pytest.approx(0.78969, abs=5e-6)
    assert avg_capacity_no_feedback(6) == pytest.approx(0.83881, abs=5e-6)
    for q in (2, 5, 17):
        expected = 1 - (q - 1) / (2 * q * math.log2(q))
        assert avg_capacity_no_feedback(q) == expected


# ---------------------------------------------------------------------------
# achievability witness


@pytest.mark.parametrize("q", range(2, 11))
def test_witness_identities_at_maximizer(q):
    report = avg_feedback_capacity(q)
    witness = cover_leung_witness(q, report.theta_star)
    envelope_value = concave_envelope(report.theta_star, q).value
    assert witness.h_x1_given_u == pytest.approx(0.5 * envelope_value, abs=1e-9)
    assert witness.h_x2_given_u == pytest.approx(0.5 * envelope_value, abs=1e-9)
    assert witness.h_output == pytest.approx(
        output_entropy(report.theta_star, q), abs=1e-9
    )
    assert witness.symmetric_rate == pytest.approx(report.r_feedback, abs=1e-9)

    theta = report.theta_star
    for v in range(1, q + 1):
        assert witness.pair_marginal[(v, v)] == pytest.approx(theta / q, abs=1e-12)
    for v1 in range(1, q + 1):
        for v2 in range(1, q + 1):
            if v1 != v2:
                assert witness.pair_marginal[(v1, v2)] == pytest.approx(
                    (1 - theta) / (q * (q - 1)), abs=1e-12
                )


def test_witness_total_mass_and_conditional_independence():
    q = 4
    witness = cover_leung_witness(q, avg_feedback_capacity(q).theta_star)
    assert sum(witness.joint.values()) == pytest.approx(1.0, abs=1e-12)
    for u in (0, 1):
        for v in range(1, q + 1):
            p_uv = sum(
                witness.joint[(u, v, x1, x2)]
                for x1 in range(1, q + 1)
                for x2 in range(1, q + 1)
            )
            if p_uv == 0.0:
                continue
            for x1 in range(1, q + 1):
                m1 = sum(witness.joint[(u, v, x1, x2)] for x2 in range(1, q + 1))
                for x2 in range(1, q + 1):
                    m2 = sum(witness.joint[(u, v, y, x2)] for y in range(1, q + 1))
                    assert witness.joint[(u, v, x1, x2)] == pytest.approx(
                        m1 * m2 / p_uv, abs=1e-12
                    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 12).flatmap(
    lambda q: st.tuples(st.just(q), st.floats(1.0 / q, 2.0 / (q + 1)))))
def test_witness_is_a_pass_over_its_own_joint(case):
    # every value summed from the joint's entries one by one, in (u, v) order and
    # from 0.0, as the witness promises; only p_uv is read off the envelope
    q, theta = case
    witness = cover_leung_witness(q, theta)
    joint = witness.joint
    symbols = range(1, q + 1)
    atoms = [(u, v, weight / q)
             for u, (weight, _) in enumerate(concave_envelope(theta, q).support)
             if weight > 0.0
             for v in symbols]

    marginal = {pair: reduce(add, (joint[(u, v, *pair)] for u, v, _ in atoms), 0.0)
                for pair in product(symbols, symbols)}
    assert marginal == witness.pair_marginal

    def conditional_entropy(cell):  # cell(x, y) is the (x1, x2) pair summed over y
        return reduce(add, (
            p_uv * entropy_q([reduce(add, (joint[(u, v, *cell(x, y))] for y in symbols), 0.0)
                              / p_uv for x in symbols], q)
            for u, v, p_uv in atoms), 0.0)

    assert conditional_entropy(lambda x, y: (x, y)) == witness.h_x1_given_u
    assert conditional_entropy(lambda x, y: (y, x)) == witness.h_x2_given_u
    output = [marginal[(i, j)] if i == j else marginal[(i, j)] + marginal[(j, i)]
              for i in symbols for j in symbols if j >= i]
    assert entropy_q(output, q) == witness.h_output


def test_witness_independent_uniform_at_left_endpoint():
    for q in (2, 3, 5):
        witness = cover_leung_witness(q, 1.0 / q)
        assert witness.h_x1_given_u == pytest.approx(1.0, abs=1e-12)
        assert witness.h_x2_given_u == pytest.approx(1.0, abs=1e-12)


def test_witness_output_entropy_by_enumeration_q5():
    q = 5
    witness = cover_leung_witness(q, 1 / 3)
    outputs = {}
    for (_, _, x1, x2), p in witness.joint.items():
        key = frozenset((x1, x2))
        outputs[key] = outputs.get(key, 0.0) + p
    assert len(outputs) == 15  # 5 singletons + C(5,2) pairs
    enumerated = -sum(p * math.log(p) for p in outputs.values() if p > 0) / math.log(q)
    assert enumerated == pytest.approx(output_entropy(1 / 3, q), abs=1e-12)
    assert witness.h_output == pytest.approx(enumerated, abs=1e-12)
