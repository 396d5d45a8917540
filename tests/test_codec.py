import array
import dataclasses
import json
import math
import multiprocessing
import random
import re
import time
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

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
from union_channel import codec
from union_channel.codec import (
    ProtocolViolation,
    SessionState,
    _check_feedback,
    _consistent_below,
    _encode,
    _walk_back,
)


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


@pytest.mark.parametrize(
    "name, value",
    [("blocks", 1.5), ("blocks", 2.0), ("blocks", True), ("q", 2.5), ("n", 4.0), ("m", "3")],
)
def test_code_params_refuses_a_field_that_is_not_an_int(name, value):
    fields = {"q": 2, "n": 4, "m": 3, "blocks": 1, name: value}
    message = f"{name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CodeParams(**fields)


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
    for q, n, m in [(2, 5, 2), (3, 6, 3), (4, 4, 1), (3, 0, 0)]:
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
        rank_pattern((STAR, 3), 2, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pattern_count(2.5, 3, 1), "alphabet size must be an int, got 2.5"),
        (lambda: unrank_pattern(0, 2, 3, 1.5), "m must be an int, got 1.5"),
        (lambda: unrank_pattern(0.0, 2, 3, 1), "rank must be an int, got 0.0"),
        (lambda: unrank_pattern(0, 2.0, 3, 1), "alphabet size must be an int, got 2.0"),
        (lambda: validate_params(2, 17.5, 13), "n must be an int, got 17.5"),
        (lambda: best_params(2, 2.5), "n_max must be an int, got 2.5"),
        (lambda: resolution_digits(0, 2), "size must be positive, got 0"),
        (lambda: pattern_count(2, 3, 4), "need 0 <= m <= n, got n=3, m=4"),
        (lambda: unrank_pattern(0, 2, 3, 4), "need 0 <= m <= n, got n=3, m=4"),
        (lambda: advance_uncertainty([b""], [channel(1, 2)] * 2, 2, 3, 1),
         "expected 3 outputs, got 2"),
        (lambda: best_params(2, 0), "n_max must be positive, got 0"),
        (lambda: rank_pattern((STAR, 1), 2, True), "m must be an int, got True"),
        (lambda: rank_pattern((STAR, 1.0), 2, 1), "pattern symbol 1.0 outside alphabet [1, 2]"),
        (lambda: rank_pattern((0.0, 1), 2, 1), "pattern symbol 0.0 outside alphabet [1, 2]"),
        (lambda: uncertainty_peak_bound(17.0, 13), "n must be an int, got 17.0"),
        (lambda: uncertainty_peak_bound(10, 3), "need n/2 <= m <= n, got n=10, m=3"),
        (lambda: uncertainty_peak_bound(3, 5), "need n/2 <= m <= n, got n=3, m=5"),
    ],
    ids=["pattern_count-q", "unrank-m", "unrank-rank", "unrank-q", "validate_params-n",
         "best_params-n_max", "resolution_digits-size-0", "pattern_count-m-above-n",
         "unrank-m-above-n", "advance-output-count", "best_params-n_max-0", "rank-m",
         "rank-float-symbol", "rank-float-star", "peak-n",
         "peak-m-below-half-n", "peak-m-above-n"],
)
def test_counts_that_are_not_ints_are_refused_in_one_line(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_rank_pattern_refuses_a_float_alphabet_before_the_shared_memo():
    # lru_cache keys 2.0 and 2 alike, so a float q once filled _completions
    # with float tables that later int calls read: unrank_pattern returned
    # (0, 0, 1.0, 0, 2.0) and simulate raised a TypeError
    codec._completions.cache_clear()
    codec._pattern_at.cache_clear()
    with pytest.raises(ValueError, match=r"^alphabet size must be an int, got 2\.0$"):
        rank_pattern((STAR, 1, 2, 1, 1), 2.0, 1)
    pattern = unrank_pattern(5, 2, 5, 3)
    assert pattern == (0, 0, 1, 0, 2) and {*map(type, pattern)} == {int}
    assert simulate(CodeParams(2, 5, 3, 2), 3, seed=1).errors == 0


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


def _codes(outputs):
    # reference symbol codes: the symbol of a singleton, STAR for a pair
    return bytes(min(y) if len(y) == 1 else STAR for y in outputs)


def _consistent_pattern(h, outputs, p, n, m):
    """The h-th pattern, in rank order, that the block's ``p`` pair outputs allow.

    It stars every pair output and shows the received symbol wherever else
    it has no star; a star sorts before a symbol, so rank order is the order
    of the star placements among the singletons: the q=1 pattern space.
    """
    placement = iter(unrank_pattern(h, 1, n - p, m - p))
    return tuple(
        min(y) if len(y) == 1 and next(placement) != STAR else STAR for y in outputs
    )


def test_consistent_below_ranks_each_allowed_pattern():
    # the walk to an allowed pattern's rank r counts the allowed patterns
    # below it, so it inverts _consistent_pattern; one rank on, it counts it too
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
            r = rank_pattern(_consistent_pattern(h, outputs, p, n, m), q, m)
            assert _consistent_below(r, _codes(outputs), p, q, n, m) == h
            assert _consistent_below(r + 1, _codes(outputs), p, q, n, m) == h + 1


def _consistent_below_bisect(limit, outputs, q, n, m):
    # reference count: bisect over the consistent patterns in rank order
    p = sum(1 for y in outputs if len(y) == 2)
    if p > m:
        return 0
    return bisect_left(
        range(math.comb(n - p, m - p)),
        limit,
        key=lambda h: rank_pattern(_consistent_pattern(h, outputs, p, n, m), q, m),
    )


@st.composite
def _count_cases(draw):
    q = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9))
    m = draw(st.integers(0, n))
    singleton = st.integers(1, q).map(lambda a: frozenset((a,)))
    pair = st.lists(st.integers(1, q), min_size=2, max_size=2, unique=True).map(frozenset)
    output = st.one_of(singleton, pair) if q > 1 else singleton
    if q > 1 and draw(st.booleans()):
        output = pair  # an all-pair block
    outputs = draw(st.lists(output, min_size=n, max_size=n))
    total = pattern_count(q, n, m)
    limit = draw(st.one_of(st.integers(0, total - 1), st.integers(total, 2 * total + 3)))
    return q, n, m, outputs, limit


@given(_count_cases())
@example((2, 4, 3, [frozenset((1,)), frozenset((1, 2))] * 2, 7))  # p <= m
@example((2, 3, 2, [frozenset((1, 2))] * 3, 5))  # all pairs, p > m
@example((3, 3, 3, [frozenset((2, 3))] * 3, 1))  # all pairs, p == m
@example((2, 5, 3, [frozenset((2,))] * 5, 40))  # limit == |S|
@example((2, 5, 3, [frozenset((1,)), frozenset((1, 2))] * 2 + [frozenset((2,))], 10**6))  # > |S|
@settings(max_examples=400, deadline=None)
def test_consistent_below_matches_bisect(case):
    q, n, m, outputs, limit = case
    p = sum(1 for y in outputs if len(y) == 2)
    assert _consistent_below(limit, _codes(outputs), p, q, n, m) == _consistent_below_bisect(
        limit, outputs, q, n, m
    )


@pytest.mark.parametrize("q, n, m", [(2, 5, 3), (3, 4, 3), (2, 6, 4), (3, 5, 3)])
def test_walk_back_matches_the_reference_pattern(q, n, m):
    # every output block and every rank it allows: the fused pass unranks h
    # to the reference pattern (its digits sit at that pattern's stars), ranks
    # that pattern in the full space, and reads the pair bits first pair highest
    valid = [frozenset((a, b)) for a in range(1, q + 1) for b in range(a, q + 1)]
    for outputs in product(valid, repeat=n):
        p = sum(len(y) == 2 for y in outputs)
        if p > m:
            continue
        for h in range(math.comb(n - p, m - p)):
            pattern = _consistent_pattern(h, outputs, p, n, m)
            previous = rank_pattern(pattern, q, m)
            starred = [sorted(y) for s, y in zip(pattern, outputs) if s == STAR]
            for child in range(1 << p):
                bits = iter(f"{child:0{p}b}" if p else "")
                w1, w2 = [], []
                for y in starred:
                    lo, hi = y[0], y[-1]
                    if len(y) == 2 and next(bits) == "1":
                        lo, hi = hi, lo
                    w1.append(lo)
                    w2.append(hi)
                rank = (h << p) + child
                assert _walk_back(rank, _codes(outputs), outputs, p, q, n, m) == (
                    previous, w1, w2
                ), (outputs, h, child)


# ---------------------------------------------------------------------------
# uncertainty evolution: the implicit walk vs the literal advance_uncertainty


def _advance_implicit(uncertainty, outputs, q, n, m):
    """The set the protocol's bookkeeping implies, in its own index order.

    The walk counts the K allowed patterns below the set's size; the h-th
    of them, ranked in the full space, picks its candidate; its 2^p children
    follow the pair orders, last pair lowest, smaller digit first.
    """
    p = sum(1 for y in outputs if len(y) == 2)
    new = []
    for h in range(_consistent_below(len(uncertainty), _codes(outputs), p, q, n, m)):
        pattern = _consistent_pattern(h, outputs, p, n, m)
        prefix = uncertainty[rank_pattern(pattern, q, m)]
        options = [
            (bytes((min(y), max(y))), bytes((max(y), min(y))))[: len(y)]
            for s, y in zip(pattern, outputs) if s == STAR
        ]
        new.extend(prefix + b"".join(combo) for combo in product(*options))
    return new


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
        assert advance_uncertainty(uncertainty, outputs, q, n, m) == _advance_implicit(
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
        # q > 2 over more than one block: the candidate filter rejects here
        CodeParams(q=3, n=3, m=2, blocks=2),
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
                assert state.sizes[b + 1] == len(uncertainty)
                assert uncertainty[state.index] == _interleaved(w1, w2, (b + 1) * params.m)


def test_session_state_derives_size_block_and_peak_from_sizes():
    fields = [f.name for f in dataclasses.fields(SessionState)]
    assert fields == [
        "params", "w1", "w2", "known_other_1", "known_other_2", "sizes", "index", "transcript"
    ]
    params = CodeParams(q=2, n=5, m=3, blocks=2)
    state = new_session(params, (1, 2, 1, 2, 2, 1), (2, 1, 1, 1, 2, 2))
    assert (state.sizes, state.size, state.block, state.max_uncertainty) == ([1], 1, 0, 1)
    for b in range(params.blocks):
        run_block(state)
        assert len(state.sizes) == b + 2
        assert (state.size, state.block) == (state.sizes[-1], b + 1)
        assert state.max_uncertainty == max(state.sizes)
    for name in ("size", "block", "max_uncertainty", "uses"):
        with pytest.raises(AttributeError):
            setattr(state, name, 0)


def test_resolution_digits():
    assert resolution_digits(1, 2) == 0
    assert resolution_digits(35840, 2) == 16
    assert resolution_digits(7, 3) == 2
    assert resolution_digits(9, 3) == 2
    assert resolution_digits(10, 3) == 3
    for q in (1, 0):
        with pytest.raises(ValueError, match="alphabet size must be at least 2"):
            resolution_digits(5, q)


@pytest.mark.parametrize("size", [float("inf"), float("nan"), 2.5])
def test_resolution_digits_refuses_a_size_that_is_not_an_int(size):
    # inf used to loop forever, and NaN returned 0
    with pytest.raises(ValueError, match=r"^size must be an int, got (inf|nan|2\.5)$"):
        resolution_digits(size, 2)


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


@pytest.mark.parametrize(
    "w1, w2, bad",
    [
        ([1.0, 2], [1, 1], "w1 digit 1.0"),
        (["a", 1], [1, 1], "w1 digit 'a'"),
        ([None, 1], [1, 1], "w1 digit None"),
        ([1, 2], [2, 1.5], "w2 digit 1.5"),
        ([1, 256], [1, 1], "w1 digit 256"),
        ([1, 2], [-1, 1], "w2 digit -1"),
        ([1, 2], [1, 3], "w2 digit 3"),
    ],
)
def test_new_session_refuses_a_digit_it_cannot_store(w1, w2, bad):
    params = CodeParams(2, 3, 2, 1)
    with pytest.raises(ValueError, match=rf"^{re.escape(bad)} outside alphabet \[1, 2\]$"):
        new_session(params, w1, w2)


def _numpy_array(digits, dtype=None):
    return pytest.importorskip("numpy").array(digits, dtype=dtype)


@pytest.mark.parametrize(
    "make",
    [
        lambda: array.array("i", [1, 2]),
        lambda: array.array("B", [1, 2]),
        lambda: bytearray([1, 2]),
        lambda: memoryview(array.array("i", [1, 2])),
        lambda: _numpy_array([1, 2], "int64"),
    ],
    ids=["array-i", "array-B", "bytearray", "memoryview", "numpy-int64"],
)
def test_new_session_stores_a_buffer_digit_by_digit(make):
    # bytes(w) copied a buffer's raw bytes: a numpy int64 array [1, 2] gave
    # 16 bytes, and the encoder sent frozenset({0, 2}) without refusing it
    params = CodeParams(2, 3, 2, 1)
    state = _encode(params, make(), [2, 2])
    assert state.w1 == b"\x01\x02"
    assert decode_transcript(params, state.transcript).w1 == (1, 2)


@pytest.mark.parametrize(
    "digits, dtype, pos",
    [([1, 3], "int64", 1), ([True, True], bool, 0)],
    ids=["int64", "bool"],
)
def test_new_session_names_a_bad_digit_of_a_numpy_array(digits, dtype, pos):
    # a numpy bool has no __index__; a bool array's raw bytes were stored once
    w1 = _numpy_array(digits, dtype)
    with pytest.raises(ValueError, match=rf"^w1 digit {re.escape(repr(w1[pos]))} outside"):
        new_session(CodeParams(2, 3, 2, 1), w1, [2, 2])


@given(
    st.lists(
        st.one_of(
            st.integers(-1, 257), st.booleans(), st.floats(), st.none(), st.text(max_size=1)
        ),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_new_session_names_a_digit_whenever_it_refuses(w1):
    # the fast path and the naming loop must agree on a valid digit, or the
    # loop would find nothing to name and raise StopIteration
    valid = all(hasattr(d, "__index__") and d in range(1, 4) for d in w1)
    try:
        state = new_session(CodeParams(3, 3, 2, 2), w1, [1, 2, 3, 1])
    except ValueError as exc:
        assert not valid
        assert re.fullmatch(r"w1 digit .+ outside alphabet \[1, 3\]", str(exc))
    else:
        assert valid and state.w1 == bytes(w1)


def test_decode_rejects_malformed_transcript():
    params = CodeParams(q=2, n=2, m=1, blocks=1)
    state = new_session(params, w1=(2,), w2=(1,))
    run_block(state)
    run_final_block(state)
    with pytest.raises(ValueError):
        decode_transcript(params, state.transcript[:-1])
    with pytest.raises(ValueError):
        decode_transcript(params, state.transcript + [frozenset((1,))])


def test_decode_refuses_a_transcript_shorter_than_its_blocks():
    # two valid outputs where blocks * n = 6 are needed
    with pytest.raises(
        ValueError, match="^transcript too short for the declared block count$"
    ):
        decode_transcript(CodeParams(2, 3, 2, 2), [frozenset({1})] * 2)


def test_decode_refuses_a_resolution_rank_outside_the_set():
    # the block leaves 2 candidates, and the one resolution digit names rank 2;
    # the walk back does not check its range, so without this refusal the
    # transcript would decode to w1=(1,), w2=(2,), which encode to other outputs
    transcript = [frozenset({1, 2}), frozenset({1}), frozenset({3})]
    with pytest.raises(ValueError, match="^decoded rank 2 outside uncertainty set$"):
        decode_transcript(CodeParams(3, 2, 1, 1), transcript)


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


@pytest.mark.parametrize("output", [[1, 1], {1, 2}], ids=["list", "set"])
def test_decode_rejects_outputs_that_are_not_frozensets(output):
    # the list once decoded to w2=(1, 2), whose re-encoding differs, and the
    # set, equal to the true output {1, 2}, was accepted; both are refused
    params = CodeParams(q=2, n=3, m=2, blocks=1)
    transcript = _encode(params, w1=(1, 2), w2=(2, 2)).transcript
    assert transcript[0] == frozenset((1, 2))
    transcript[0] = output
    message = f"output {sorted(output)} at position 0 is not a 1- or 2-element"
    with pytest.raises(ValueError, match=re.escape(message)):
        decode_transcript(params, transcript)


@pytest.mark.parametrize(
    "output", [5, None, frozenset({1, "a"})], ids=["int", "None", "unorderable"]
)
def test_decode_refuses_outputs_that_cannot_be_sorted(output):
    # sorted(output) once raised a TypeError from inside the refusal's message
    params = CodeParams(q=2, n=3, m=2, blocks=1)
    message = f"output {output!r} at position 0 is not a 1- or 2-element subset"
    with pytest.raises(ValueError, match=re.escape(message)):
        decode_transcript(params, [output, frozenset({1}), frozenset({1})])


@pytest.mark.parametrize(
    "pos, output",
    [
        (0, frozenset({True, 2})),
        (0, frozenset({1.0, 2.0})),
        (1, frozenset({2.0})),
        (3, frozenset({True})),  # a resolution use
    ],
    ids=["bool-pair", "float-pair", "float-singleton", "bool-resolution"],
)
def test_decode_refuses_elements_that_are_not_ints(pos, output):
    # each equals the valid output it replaces, so it was once accepted and
    # decoded to bool or float digits, e.g. w1=(1.0, 2)
    params = CodeParams(q=2, n=3, m=2, blocks=1)
    transcript = _encode(params, w1=(1, 2), w2=(2, 2)).transcript
    assert transcript == [frozenset({1, 2}), frozenset({2}), frozenset({1}), frozenset({1})]
    assert transcript[pos] == output
    transcript[pos] = output
    message = f"output {sorted(output)} at position {pos} is not a 1- or 2-element"
    with pytest.raises(ValueError, match=re.escape(message)):
        decode_transcript(params, transcript)


def test_channel_is_the_unordered_union():
    assert channel(1, 2) == frozenset((1, 2)) == channel(2, 1)
    assert channel(3, 3) == frozenset((3,))


def _round_trip(params, w1, w2):
    state = _encode(params, w1, w2)
    decoded = decode_transcript(params, state.transcript)
    assert decoded.w1 == tuple(w1)
    assert decoded.w2 == tuple(w2)
    assert {type(d) for d in decoded.w1 + decoded.w2} == {int}
    assert decoded.sizes == tuple(state.sizes)


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


def test_simulate_raises_when_decoder_replay_disagrees(monkeypatch):
    decode = codec.decode_transcript

    def altered(params, transcript):
        decoded = decode(params, transcript)
        sizes = decoded.sizes[:-1] + (decoded.sizes[-1] + 1,)
        return dataclasses.replace(decoded, sizes=sizes)

    monkeypatch.setattr(codec, "decode_transcript", altered)
    with pytest.raises(ProtocolViolation, match="decoder replay disagrees"):
        simulate(CodeParams(q=2, n=5, m=3, blocks=2), trials=1, seed=0)


@pytest.fixture
def trial_work(monkeypatch):
    # run(params, trials) runs simulate(params, trials, seed=1) and gives each
    # trial's uses and work: calls, digits compared, and _pattern_at lookups
    # (memo hits plus misses)
    work, per_trial = Counter(), []

    def count(name, weight=lambda *args: 1):
        helper = getattr(codec, name)

        def counted(*args):
            work[name] += weight(*args)
            return helper(*args)

        monkeypatch.setattr(codec, name, counted)

    for name in ("_consistent_below", "_walk_back", "channel"):
        count(name)
    count("_check_feedback", lambda state, start, stop: stop - start)
    run_trial = codec._run_trial

    def lookups():
        info = codec._pattern_at.cache_info()
        return info.hits + info.misses

    def trial(job):
        work.clear()
        before = lookups()
        record = run_trial(job)
        per_trial.append((record.uses, {**work, "_pattern_at": lookups() - before}))
        return record

    monkeypatch.setattr(codec, "_run_trial", trial)

    def run(params, trials):
        per_trial.clear()
        simulate(params, trials=trials, seed=1)
        return list(per_trial)

    return run


@pytest.mark.parametrize(
    "params, trials, totals",
    [
        (CodeParams(q=2, n=17, m=13, blocks=3), 10, (60, 30, 602, 390)),
        (CodeParams(q=2, n=12, m=9, blocks=200), 1, (400, 200, 2409, 1800)),
    ],
)
def test_trial_work_is_pinned_by_counts(trial_work, params, trials, totals):
    # each party walks the survivors once per block, the decoder walks back once
    # per block, and each sender's feedback check compares every message digit
    # once, in its block: only run_block appends to known_other_*. A block
    # looks up three patterns: the encoder's index and each party's walk limit
    per_trial = trial_work(params, trials)
    blocks = params.blocks
    assert [counts for _, counts in per_trial] == [
        {
            "_consistent_below": 2 * blocks,
            "_walk_back": blocks,
            "channel": uses,
            "_check_feedback": params.message_digits,
            "_pattern_at": 3 * blocks,
        }
        for uses, _ in per_trial
    ]
    assert tuple(
        sum(counts[name] for _, counts in per_trial)
        for name in ("_consistent_below", "_walk_back", "channel", "_check_feedback")
    ) == totals


def test_trial_work_is_linear_in_the_block_count(trial_work):
    # one code at B=50 and B=200, seed 1, trial 0: the per-block work grows
    # 1:4 exactly; the resolution uses (10 and 9) do not
    ((uses_50, at_50),) = trial_work(CodeParams(q=2, n=12, m=9, blocks=50), 1)
    ((uses_200, at_200),) = trial_work(CodeParams(q=2, n=12, m=9, blocks=200), 1)
    names = ("_consistent_below", "_walk_back", "_pattern_at")
    assert [at_50[name] for name in names] == [100, 50, 150]
    assert [at_200[name] for name in names] == [400, 200, 600]
    assert (at_50["channel"], at_200["channel"]) == (uses_50, uses_200) == (610, 2409)
    assert 4 * (uses_50 - 10) == uses_200 - 9 == 2400


# ---------------------------------------------------------------------------
# the pattern memo of the block step

MEMOS = (codec._pattern_at,)
MEMO_CODES = [
    CodeParams(q=2, n=12, m=9, blocks=20),
    CodeParams(q=2, n=17, m=13, blocks=3),
    CodeParams(q=3, n=10, m=7, blocks=6),
    CodeParams(q=3, n=4, m=3, blocks=10),
]


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_public_pattern_functions_stay_uncached():
    for fn in (codec.unrank_pattern, codec.rank_pattern):
        assert not hasattr(fn, "cache_info")
    assert codec._pattern_at.__wrapped__ is codec.unrank_pattern


def test_pattern_memos_are_bounded():
    for memo in MEMOS:
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize > 0  # None means unbounded


@pytest.mark.parametrize("params", MEMO_CODES, ids=str)
def test_cold_and_warm_memos_decode_alike(params):
    rng = random.Random(f"memo:{params}")
    for _ in range(3):
        w1, w2 = (
            [rng.randint(1, params.q) for _ in range(params.message_digits)]
            for _ in range(2)
        )
        _clear_memos()
        cold_state = _encode(params, w1, w2)
        _clear_memos()
        cold = decode_transcript(params, cold_state.transcript)
        warm_state = _encode(params, w1, w2)
        warm = decode_transcript(params, warm_state.transcript)
        assert warm_state.transcript == cold_state.transcript
        assert warm_state.sizes == cold_state.sizes
        assert warm == cold
        assert (cold.w1, cold.w2) == (tuple(w1), tuple(w2))
        assert cold.sizes == tuple(cold_state.sizes)


def test_simulate_with_memos_is_worker_independent():
    params = MEMO_CODES[0]
    _clear_memos()
    parallel = simulate(params, trials=8, seed=3, workers=2)
    assert parallel == simulate(params, trials=8, seed=3, workers=1)


def test_full_pattern_memos_stay_within_4_mb():
    # worst case for the codec's alphabet and block length: n = 64, q = 255,
    # one star (the largest ranks)
    q, n, m = 255, 64, 1
    total = pattern_count(q, n, m)
    sizes = [memo.cache_info().maxsize for memo in MEMOS]
    unrank_pattern(0, q, n, m)  # the shared completion table is not a memo's
    _clear_memos()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(sizes[0]):
            codec._pattern_at(total - 1 - i, q, n, m)
        held = tracemalloc.get_traced_memory()[0] - before
        assert [memo.cache_info().currsize for memo in MEMOS] == sizes
    finally:
        tracemalloc.stop()
        _clear_memos()
    assert held <= 4 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**40 + 3])
def test_draw_digits_matches_randint(seed):
    for q in range(2, 256):
        r = random.Random(seed)
        expected = tuple(r.randint(1, q) for _ in range(500))
        assert codec._draw_digits(random.Random(seed), q, 500) == expected, q


@pytest.mark.parametrize("count", [1, 7, 500])
def test_draw_digits_leaves_the_randint_state(count):
    # an over-draw would shift the stream the second message is drawn from
    for q in range(2, 256):
        r = random.Random(q)
        for _ in range(count):
            r.randint(1, q)
        drawn = random.Random(q)
        codec._draw_digits(drawn, q, count)
        assert drawn.getstate() == r.getstate(), q


@pytest.mark.parametrize(
    "faulty_channel, message",
    [
        # each sender must deduce the other's digit from the output; a
        # channel that shows one input only leaves at least one sender wrong
        (lambda x1, x2: frozenset((x1,)), "mis-deduced"),
        (lambda x1, x2: frozenset((x2,)), "mis-deduced"),
        (lambda x1, x2: frozenset((x1, 3 - x2)), "pair output at a symbol position"),
        # a singleton that is not the sent symbol rules the true pattern out
        (
            lambda x1, x2: frozenset((3 - x1,)) if x1 == x2 else frozenset((x1, x2)),
            "true message prefix missing",
        ),
    ],
    ids=["shows-x1", "shows-x2", "flips-x2", "flips-singletons"],
)
def test_protocol_checks_catch_a_faulty_channel(monkeypatch, faulty_channel, message):
    monkeypatch.setattr(codec, "channel", faulty_channel)
    with pytest.raises(ProtocolViolation, match=message):
        simulate(CodeParams(q=2, n=17, m=13, blocks=3), trials=1)


def test_session_steps_check_feedback_and_the_use_bound_without_simulate(monkeypatch):
    # each step checks its own invariants, so a session driven step by step,
    # as the tests and the zero-error certificate do, is checked as a trial is
    params = CodeParams(q=2, n=3, m=2, blocks=1)
    with monkeypatch.context() as patch:
        patch.setattr(codec, "channel", lambda x1, x2: frozenset((x1,)))  # shows-x1
        state = new_session(params, w1=(1, 2), w2=(2, 2))
        with pytest.raises(ProtocolViolation, match="^sender 1 mis-deduced the other message$"):
            run_block(state)
    uses = _encode(params, w1=(1, 2), w2=(2, 2)).uses
    for bound in (0, uses - 1):  # one use over the bound is refused too
        monkeypatch.setattr(codec, "uses_bound", lambda params, bound=bound: bound)
        state = run_block(new_session(params, w1=(1, 2), w2=(2, 2)))
        with pytest.raises(ProtocolViolation, match="^channel-use bound exceeded$"):
            run_final_block(state)


@pytest.mark.parametrize(
    "below, message",
    [
        (0, "true message prefix missing from uncertainty set"),
        (10**9, "uncertainty set overflow: 2000000000 candidates after a block with 1 pair outputs"),
    ],
    ids=["missing", "overflow"],
)
def test_run_block_refuses_a_survivor_count_off_the_true_prefix(monkeypatch, below, message):
    # a correct channel whose survivor walk is wrong: the block (*, *, 1)
    # sends one pair output and one singleton
    monkeypatch.setattr(codec, "_consistent_below", lambda *args: below)
    state = new_session(CodeParams(q=2, n=3, m=2, blocks=1), w1=(1, 2), w2=(2, 2))
    with pytest.raises(ProtocolViolation, match=f"^{re.escape(message)}$"):
        run_block(state)


def test_feedback_check_names_the_sender_that_mis_deduced():
    params = CodeParams(q=2, n=3, m=2, blocks=1)
    state = run_block(new_session(params, w1=(1, 2), w2=(2, 2)))
    _check_feedback(state, 0, params.m)
    state.known_other_2[-1] ^= 3  # 1 <-> 2
    with pytest.raises(ProtocolViolation, match="^sender 2 mis-deduced the other message$"):
        _check_feedback(state, 0, params.m)


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
    # every n the CLI accepts: codec._encode relies on the peak being the max
    for n in range(1, 65):
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


# ---------------------------------------------------------------------------
# process counts: a fake pool records its size and runs the trials here


@pytest.fixture
def pool_sizes(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, func, jobs, chunksize=1):
            return [func(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return sizes


def test_simulate_runs_one_trial_without_a_pool(pool_sizes):
    params = CodeParams(q=2, n=5, m=3, blocks=2)
    assert simulate(params, trials=1, seed=4, workers=8) == simulate(params, 1, seed=4)
    assert pool_sizes == []


def test_simulate_starts_no_more_processes_than_trials(pool_sizes):
    params = CodeParams(q=2, n=5, m=3, blocks=2)
    assert simulate(params, trials=3, seed=4, workers=8) == simulate(params, 3, seed=4)
    assert pool_sizes == [3]


@pytest.mark.parametrize(
    "trials, workers, seed, message",
    [
        (3, 65, 0, "workers must be an int in [1, 64], got 65"),
        (3, 10**6, 0, "workers must be an int in [1, 64], got 1000000"),
        (3, 0, 0, "workers must be an int in [1, 64], got 0"),
        (3, 2.0, 0, "workers must be an int in [1, 64], got 2.0"),
        (3, True, 0, "workers must be an int in [1, 64], got True"),
        (2.5, 1, 0, "need at least one trial, got 2.5"),
        (3, 2, 1.5, "seed must be an int >= 0, got 1.5"),
        (3, 2, -3, "seed must be an int >= 0, got -3"),
    ],
    ids=["65", "1e6", "0", "2.0", "True", "trials-2.5", "seed-1.5", "seed-negative"],
)
def test_simulate_refuses_a_count_before_anything_starts(
    pool_sizes, monkeypatch, trials, workers, seed, message
):
    def never(job):
        raise AssertionError("a trial ran before the refusal")

    monkeypatch.setattr(codec, "_run_trial", never)
    with pytest.raises(ValueError) as info:
        simulate(CodeParams(q=2, n=5, m=3, blocks=2), trials, seed=seed, workers=workers)
    assert str(info.value) == message
    assert pool_sizes == []
