import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from union_channel import (
    STAR,
    CodeParams,
    advance_uncertainty,
    asymptotic_rate_lower_bound,
    best_params,
    channel,
    decode_transcript,
    new_session,
    pattern_count,
    rank_pattern,
    rate_root,
    report_jsonl_lines,
    resolution_digits,
    run_block,
    run_final_block,
    simulate,
    uncertainty_peak_bound,
    unrank_pattern,
    validate_params,
)
from union_channel.codec import _consistent_pattern, _consistent_rank


# ---------------------------------------------------------------------------
# feasibility arithmetic


def test_validate_params_n17_m13():
    check = validate_params(2, 17, 13)
    assert check.feasible
    assert check.lhs == math.comb(8, 4) * 2**9 == 35840
    assert check.rhs == math.comb(17, 13) * 2**4 == 38080


def test_validate_params_m_equals_n():
    check = validate_params(2, 17, 17)
    assert not check.feasible
    assert check.lhs == 2**17
    assert check.rhs == 1


def test_validate_params_q3():
    check = validate_params(3, 10, 7)
    assert check.feasible
    assert check.lhs == math.comb(6, 3) * 2**4 == 320
    assert check.rhs == math.comb(10, 7) * 3**3 == 3240


def test_validate_params_small_m():
    assert not validate_params(2, 10, 3).feasible  # m < n/2
    with pytest.raises(ValueError):
        validate_params(2, 5, 0)
    with pytest.raises(ValueError):
        validate_params(1, 5, 3)


def test_code_params_rejects_infeasible():
    with pytest.raises(ValueError):
        CodeParams(q=2, n=17, m=17, blocks=1)
    with pytest.raises(ValueError):
        CodeParams(q=2, n=17, m=13, blocks=0)
    with pytest.raises(ValueError):
        CodeParams(q=300, n=4, m=3, blocks=1)


# ---------------------------------------------------------------------------
# star patterns


def test_pattern_count_values():
    assert pattern_count(2, 17, 13) == 38080
    assert pattern_count(5, 9, 9) == 1
    assert pattern_count(2, 2, 1) == 4


def test_unrank_full_enumeration_tiny():
    patterns = [unrank_pattern(r, 2, 2, 1) for r in range(4)]
    assert patterns == [(STAR, 1), (STAR, 2), (1, STAR), (2, STAR)]


def test_rank_zero_is_stars_then_ones():
    for q, n, m in [(2, 5, 2), (3, 6, 3), (4, 4, 1)]:
        assert unrank_pattern(0, q, n, m) == (STAR,) * m + (1,) * (n - m)


def test_round_trip_exhaustive_q2_n6_m3():
    total = pattern_count(2, 6, 3)
    assert total == 160
    previous = None
    for r in range(total):
        pattern = unrank_pattern(r, 2, 6, 3)
        assert rank_pattern(pattern, 2, m=3) == r
        if previous is not None:
            assert pattern > previous  # STAR=0 makes tuple order the declared order
        previous = pattern


def test_pattern_errors():
    with pytest.raises(ValueError):
        unrank_pattern(4, 2, 2, 1)
    with pytest.raises(ValueError):
        unrank_pattern(-1, 2, 2, 1)
    with pytest.raises(ValueError, match=r"pattern has 1 stars, expected 2"):
        rank_pattern((STAR, 1), 2, m=2)
    with pytest.raises(ValueError, match=r"pattern symbol 3 outside alphabet \[1, 2\]"):
        rank_pattern((STAR, 3), 2)


def test_round_trip_exhaustive_q1():
    # q=1 is the space of star placements the codec ranks a block's
    # consistent patterns in
    for n in range(13):
        for m in range(n + 1):
            total = pattern_count(1, n, m)
            assert total == math.comb(n, m)
            previous = None
            for r in range(total):
                pattern = unrank_pattern(r, 1, n, m)
                assert set(pattern) <= {STAR, 1}
                assert rank_pattern(pattern, 1, m=m) == r
                if previous is not None:
                    assert pattern > previous
                previous = pattern


def test_consistent_rank_inverts_consistent_pattern():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.randint(2, 4)
        n = rng.randint(1, 8)
        m = rng.randint(0, n)
        outputs = [
            frozenset(rng.sample(range(1, q + 1), rng.choice((1, 1, 2))))
            for _ in range(n)
        ]
        p = sum(1 for y in outputs if len(y) == 2)
        if p > m:
            continue
        for h in range(math.comb(n - p, m - p)):
            pattern = _consistent_pattern(h, outputs, n, m)
            assert _consistent_rank(pattern, outputs) == h


# ---------------------------------------------------------------------------
# uncertainty evolution: DFS vs a literal per-candidate reference


def _advance_reference(uncertainty, outputs, q, n, m):
    """Filter candidates one by one, the way the update is defined."""
    out = []
    for idx, cand in enumerate(uncertainty):
        pattern = unrank_pattern(idx, q, n, m)
        if any(
            s != STAR and outputs[k] != frozenset((s,))
            for k, s in enumerate(pattern)
        ):
            continue
        options = []
        for k, s in enumerate(pattern):
            if s != STAR:
                continue
            y = outputs[k]
            if len(y) == 1:
                (a,) = y
                options.append((bytes((a, a)),))
            else:
                a, b = sorted(y)
                options.append((bytes((a, b)), bytes((b, a))))
        for combo in product(*options):
            out.append(cand + b"".join(combo))
    out.sort()
    return out


def test_advance_hand_example():
    # single empty candidate, pattern (*, 1); outputs {1,2} then {1}
    outputs = [frozenset((1, 2)), frozenset((1,))]
    new = advance_uncertainty([b""], outputs, 2, 2, 1)
    assert new == [bytes((1, 2)), bytes((2, 1))]


def test_advance_matches_reference_randomized():
    rng = random.Random(7)
    for _ in range(400):
        q = rng.randint(2, 3)
        n = rng.randint(2, 6)
        m = rng.randint(max(1, (n + 1) // 2), n)
        prefix_pairs = rng.randint(0, 2)
        pool_limit = (q * q) ** prefix_pairs
        size = rng.randint(1, min(pattern_count(q, n, m), 12, pool_limit))
        pool = set()
        while len(pool) < size:
            pool.add(bytes(rng.randint(1, q) for _ in range(2 * prefix_pairs)))
        uncertainty = sorted(pool)
        outputs = []
        for _ in range(n):
            if rng.random() < 0.4:
                outputs.append(frozenset(rng.sample(range(1, q + 1), 2)))
            else:
                outputs.append(frozenset((rng.randint(1, q),)))
        assert advance_uncertainty(uncertainty, outputs, q, n, m) == _advance_reference(
            uncertainty, outputs, q, n, m
        )


def test_advance_result_sorted_and_unique():
    rng = random.Random(3)
    q, n, m = 2, 6, 4
    for _ in range(50):
        size = rng.randint(1, min(16, pattern_count(q, n, m)))
        pool = set()
        while len(pool) < size:
            pool.add(bytes(rng.randint(1, q) for _ in range(2 * m)))
        uncertainty = sorted(pool)
        outputs = [
            frozenset((1, 2)) if rng.random() < 0.5 else frozenset((rng.randint(1, 2),))
            for _ in range(n)
        ]
        new = advance_uncertainty(uncertainty, outputs, q, n, m)
        assert new == sorted(set(new))


# ---------------------------------------------------------------------------
# protocol sessions


def _materialised(params, transcript):
    """The explicit uncertainty set after the transcript's message blocks."""
    q, n, m = params.q, params.n, params.m
    uncertainty = [b""]
    for start in range(0, len(transcript), n):
        uncertainty = advance_uncertainty(uncertainty, transcript[start : start + n], q, n, m)
    return uncertainty


def _interleaved(w1, w2, digits):
    return bytes(d for pair in zip(w1[:digits], w2[:digits]) for d in pair)


def test_run_block_hand_example():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(1,), w2=(2,))
    run_block(state)
    assert state.transcript == [frozenset((1, 2)), frozenset((1,))]
    assert (state.size, state.index) == (2, 0)
    assert _materialised(params, state.transcript) == [bytes((1, 2)), bytes((2, 1))]
    assert state.uses == 2
    # senders deduced each other's digit from the pair output
    assert bytes(state.known_other_1) == bytes((2,))
    assert bytes(state.known_other_2) == bytes((1,))


def test_run_block_equal_digits_all_singletons():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(2,), w2=(2,))
    run_block(state)
    assert all(len(y) == 1 for y in state.transcript)
    assert (state.size, state.index) == (1, 0)
    assert _materialised(params, state.transcript) == [bytes((2, 2))]


def test_final_block_resolves_rank():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(2,), w2=(1,))
    run_block(state)
    assert (state.size, state.index) == (2, 1)
    assert _materialised(params, state.transcript)[state.index] == bytes((2, 1))
    run_final_block(state)
    assert state.uses == 3  # 2 block uses + ceil(log2 2) = 1
    decoded = decode_transcript(params, state.transcript)
    assert decoded.w1 == (2,)
    assert decoded.w2 == (1,)


def test_final_block_zero_uses_when_unique():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(1,), w2=(1,))
    run_block(state)
    assert (state.size, state.index) == (1, 0)
    assert _materialised(params, state.transcript) == [bytes((1, 1))]
    before = state.uses
    run_final_block(state)
    assert state.uses == before


@pytest.mark.parametrize(
    "params",
    [
        CodeParams(q=2, n=5, m=3, blocks=2),
        CodeParams(q=3, n=4, m=3, blocks=1),
        CodeParams(q=2, n=2, m=1, blocks=3),
    ],
)
def test_session_state_matches_materialised_set(params):
    # every message pair: after each block, size/index locate the true prefix
    space = list(product(range(1, params.q + 1), repeat=params.message_digits))
    for w1 in space:
        for w2 in space:
            state = new_session(params, w1, w2)
            for b in range(params.blocks):
                run_block(state)
                uncertainty = _materialised(params, state.transcript)
                assert len(uncertainty) == state.size
                assert uncertainty[state.index] == _interleaved(w1, w2, (b + 1) * params.m)


def test_resolution_digits():
    assert resolution_digits(1, 2) == 0
    assert resolution_digits(35840, 2) == 16
    assert resolution_digits(7, 3) == 2
    assert resolution_digits(9, 3) == 2
    assert resolution_digits(10, 3) == 3
    for q in (1, 0):
        with pytest.raises(ValueError, match="alphabet size must be at least 2"):
            resolution_digits(5, q)


def test_run_block_order_errors():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(1,), w2=(1,))
    with pytest.raises(ValueError):
        run_final_block(state)  # message block not sent yet
    run_block(state)
    with pytest.raises(ValueError):
        run_block(state)  # no message blocks left


def test_new_session_validates_messages():
    params = CodeParams(q=2, n=2, m=1, blocks=2)
    with pytest.raises(ValueError):
        new_session(params, w1=(1,), w2=(1, 2))
    with pytest.raises(ValueError):
        new_session(params, w1=(1, 3), w2=(1, 2))


def test_decode_rejects_malformed_transcript():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(2,), w2=(1,))
    run_block(state)
    run_final_block(state)
    with pytest.raises(ValueError):
        decode_transcript(params, state.transcript[:-1])
    with pytest.raises(ValueError):
        decode_transcript(params, state.transcript + [frozenset((1,))])


@pytest.mark.parametrize(
    "outputs, message",
    [
        ([{0}, {0}], "output [0] at position 0 is not a 1- or 2-element subset"),
        ([{3}, {1, 2}, {1}], "output [3] at position 0 is not a 1- or 2-element"),
        ([{1, 2}, {1, 2}, {1}, {1}], "transcript inconsistent at block 0"),
    ],
)
def test_decode_rejects_impossible_outputs(outputs, message):
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    with pytest.raises(ValueError, match=re.escape(message)):
        decode_transcript(params, [frozenset(y) for y in outputs])


def test_channel_is_the_unordered_union():
    assert channel(1, 2) == frozenset((1, 2)) == channel(2, 1)
    assert channel(3, 3) == frozenset((3,))


def _encode(params, w1, w2):
    state = new_session(params, w1, w2)
    for _ in range(params.blocks):
        run_block(state)
    run_final_block(state)
    return state


def _round_trip(params, w1, w2):
    state = _encode(params, w1, w2)
    decoded = decode_transcript(params, state.transcript)
    assert decoded.w1 == tuple(w1)
    assert decoded.w2 == tuple(w2)
    assert decoded.block_digests == tuple(state.block_digests)


@pytest.mark.parametrize(
    "params",
    [CodeParams(q=2, n=2, m=1, blocks=2), CodeParams(q=2, n=5, m=3, blocks=1)],
)
def test_round_trip_exhaustive_over_all_messages(params):
    digits = params.message_digits
    space = list(product(range(1, params.q + 1), repeat=digits))
    for w1 in space:
        for w2 in space:
            _round_trip(params, w1, w2)


@given(
    st.lists(st.integers(1, 3), min_size=6, max_size=6),
    st.lists(st.integers(1, 3), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property_q3(w1, w2):
    _round_trip(CodeParams(q=3, n=4, m=3, blocks=2), w1, w2)


SMALL_FEASIBLE = [
    (q, n, m)
    for q in range(2, 5)
    for n in range(1, 9)
    for m in range((n + 1) // 2, n + 1)
    if validate_params(q, n, m).feasible
]


def _messages(params):
    digits = params.message_digits
    return st.lists(st.integers(1, params.q), min_size=digits, max_size=digits)


@given(st.sampled_from(SMALL_FEASIBLE), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_round_trip_property_feasible_params(qnm, blocks, data):
    params = CodeParams(*qnm, blocks=blocks)
    _round_trip(params, data.draw(_messages(params)), data.draw(_messages(params)))


@st.composite
def _transcripts(draw, params):
    """Any outputs at all, or a valid transcript with a few outputs replaced."""
    output = st.sets(st.integers(1, params.q), min_size=1, max_size=2).map(frozenset)
    length = params.blocks * params.n
    if draw(st.booleans()):
        return draw(st.lists(output, min_size=length, max_size=length + 4))
    w1, w2 = draw(_messages(params)), draw(_messages(params))
    transcript = _encode(params, w1, w2).transcript
    for _ in range(draw(st.integers(0, 2))):
        transcript[draw(st.integers(0, len(transcript) - 1))] = draw(output)
    return transcript


@given(
    st.sampled_from([(q, n, m) for q, n, m in SMALL_FEASIBLE if n <= 6]),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_decode_rejects_or_reproduces_any_transcript(qnm, blocks, data):
    params = CodeParams(*qnm, blocks=blocks)
    transcript = data.draw(_transcripts(params))
    try:
        decoded = decode_transcript(params, transcript)
    except ValueError:
        return
    assert all(1 <= d <= params.q for d in decoded.w1 + decoded.w2)
    assert _encode(params, decoded.w1, decoded.w2).transcript == transcript


# ---------------------------------------------------------------------------
# simulation


def test_simulate_n17_m13_short():
    params = CodeParams(q=2, n=17, m=13, blocks=3)
    report = simulate(params, trials=50, seed=1)
    assert report.errors == 0
    assert report.max_uncertainty <= 35840
    assert report.max_uses <= 67
    assert report.uses_bound == 67
    assert report.achieved_rate == params.message_digits / report.max_uses


def test_simulate_q3():
    params = CodeParams(q=3, n=10, m=7, blocks=2)
    report = simulate(params, trials=100, seed=5)
    assert report.errors == 0
    assert report.max_uncertainty <= uncertainty_peak_bound(10, 7)


@pytest.mark.parametrize("blocks", [1, 2])
def test_simulate_small_block_counts(blocks):
    params = CodeParams(q=2, n=5, m=3, blocks=blocks)
    report = simulate(params, trials=50, seed=2)
    assert report.errors == 0
    assert report.max_uses <= report.uses_bound


def test_simulate_deterministic_and_order_independent():
    params = CodeParams(q=2, n=5, m=3, blocks=2)
    first = simulate(params, trials=30, seed=9)
    second = simulate(params, trials=30, seed=9)
    assert first == second
    parallel = simulate(params, trials=30, seed=9, workers=2)
    assert parallel == first


def test_jsonl_report_lines():
    params = CodeParams(q=2, n=5, m=3, blocks=2)
    report = simulate(params, trials=5, seed=4)
    lines = list(report_jsonl_lines(report))
    assert len(lines) == 6
    trial0 = json.loads(lines[0])
    assert trial0["trial"] == 0
    assert isinstance(trial0["max_uncertainty"], str)
    assert trial0["ok"] is True
    summary = json.loads(lines[-1])
    assert summary["summary"] is True
    assert summary["errors"] == 0
    assert summary["max_uncertainty"] == str(report.max_uncertainty)


def test_simulate_full_length_run():
    # code length 17339, rate >= 0.764, one trial
    params = CodeParams(q=2, n=17, m=13, blocks=1019)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = simulate(params, trials=1, seed=0)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 10.0, f"elapsed={elapsed:.2f}s"
    assert peak < 100 * 2**20, f"peak={peak / 2**20:.1f} MB"
    assert report.errors == 0
    assert report.max_uncertainty <= 35840
    assert report.max_uses <= 17339
    assert params.message_digits / report.max_uses >= 0.764


# ---------------------------------------------------------------------------
# size-estimate arithmetic


def test_survivor_estimate_ratio_and_peak():
    for n in range(1, 41):
        for m in range((n + 1) // 2, n + 1):
            u = [math.comb(n - l, m - l) * 2**l for l in range(m + 1)]
            for l in range(m):
                assert Fraction(u[l], u[l + 1]) == Fraction(n - l, 2 * (m - l))
            peak = max(u)
            assert peak == uncertainty_peak_bound(n, m)
            argmax = {l for l, v in enumerate(u) if v == peak}
            expected = {l for l in (2 * m - n, 2 * m - n + 1) if l <= m}
            assert argmax == expected


# ---------------------------------------------------------------------------
# rates and parameter search


def test_rate_root_values():
    assert rate_root(2) == pytest.approx(0.7729078047806515, abs=1e-9)
    assert rate_root(3) == pytest.approx(0.8107103750847684, abs=1e-9)
    assert rate_root(4) == pytest.approx(0.8294643391496987, abs=1e-9)
    assert rate_root(5) == pytest.approx(0.8412324095031738, abs=1e-9)
    assert rate_root(6) == pytest.approx(0.8495249900198161, abs=1e-9)


def test_rate_root_is_a_root_and_dominates_asymptotic_bound():
    from union_channel import binary_entropy

    for q in (2, 3, 4, 5, 6, 10, 16, 64):
        r = rate_root(q)
        assert 0.5 < r <= 1.0
        assert binary_entropy(r) + (1 - r) * math.log2(q) == pytest.approx(
            1.0, abs=1e-9
        )
        assert r >= asymptotic_rate_lower_bound(q)


def test_best_params_includes_n17_m13():
    choices = best_params(2, 17)
    assert any(c.n == 17 and c.m == 13 for c in choices)
    best = choices[0]
    assert best.rate == max(c.rate for c in choices)
    top = [(c.n, c.m) for c in choices if c.rate == best.rate]
    assert top == sorted(top)  # ties broken by smaller n


def test_best_params_small_n():
    choices = best_params(2, 3)
    assert any(c.n == 2 and c.m == 1 for c in choices)
    assert best_params(2, 1) == []
    assert best_params(6, 1) == []


def test_best_params_all_below_rate_root():
    root = rate_root(2)
    choices = best_params(2, 64)
    assert choices
    for c in choices:
        assert c.rate < root
