"""Zero-error certificate: the decoder accepts exactly the encoder's image.

For small feasible codes every transcript up to a few uses past the longest
resolution is covered: every block-output sequence over the q(q+1)/2 channel
outputs, followed by every tail of up to
``resolution_digits(uncertainty_peak_bound(n, m), q) + 2`` outputs. Exactly
one transcript per message pair, q^(2mB) in all, may decode, and each one
that decodes must be what the encoder sends for the messages it names.
Block outputs that leave no candidate are refused before the tail is read,
so each such head is decoded bare and with the longest tail only.

A per-block certificate covers every block count B: one block step reads
the set size only through ``_consistent_below``, so a step that is
invertible at every index below the peak and fills exactly the sets it
can land in makes decoding exact by induction over the blocks (the
resolution tail is a bijection onto the last set by the decoder's
``rank >= size`` refusal).
"""

import re
from collections import Counter
from itertools import product

import pytest

from test_codec import _block_walked_back
from union_channel import (
    STAR,
    CodeParams,
    channel,
    decode_transcript,
    pattern_count,
    resolution_digits,
    uncertainty_peak_bound,
)
from union_channel.codec import _consistent_below, _encode, _symbol_codes, uses_bound

# the decoder's refusals of a transcript of valid outputs, by message prefix
REFUSALS = (
    "transcript inconsistent at block",
    "transcript length",
    "resolution uses must be singleton outputs",
    "decoded rank",
)


def _refusal(exc):
    """The entry of REFUSALS that starts the message of ``exc``."""
    (kind,) = [kind for kind in REFUSALS if str(exc).startswith(kind)]
    return kind


@pytest.mark.parametrize(
    "q, n, m, blocks",
    [
        (2, 2, 1, 1),
        (2, 3, 2, 1),
        (2, 3, 2, 2),
        (3, 2, 1, 1),
        (3, 2, 1, 2),
        (2, 4, 3, 1),
        (3, 3, 2, 1),
        (4, 2, 1, 1),
    ],
)
def test_decoder_accepts_exactly_the_encoders_transcripts(q, n, m, blocks):
    params = CodeParams(q, n, m, blocks)
    outputs = [channel(a, b) for a in range(1, q + 1) for b in range(a, q + 1)]
    longest = resolution_digits(uncertainty_peak_bound(n, m), q) + 2
    tails = [list(t) for k in range(longest + 1) for t in product(outputs, repeat=k)]

    accepted = []
    refusals = Counter()
    for head in map(list, product(outputs, repeat=blocks * n)):
        try:
            decode_transcript(params, head)
        except ValueError as exc:
            if _refusal(exc) == REFUSALS[0]:
                # the block stage reads the first blocks * n outputs only, so
                # this refusal holds for every tail; the longest one shows it
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    decode_transcript(params, head + tails[-1])
                refusals[REFUSALS[0]] += len(tails)
                continue
        for tail in tails:
            transcript = head + tail
            try:
                decoded = decode_transcript(params, transcript)
            except ValueError as exc:
                refusals[_refusal(exc)] += 1
                continue
            assert _encode(params, decoded.w1, decoded.w2).transcript == transcript
            accepted.append((decoded.w1, decoded.w2))

    assert len(set(accepted)) == len(accepted) == q ** (2 * m * blocks)
    assert sum(refusals.values()) + len(accepted) == len(outputs) ** (blocks * n) * len(tails)


@pytest.mark.parametrize(
    "q, n, m, blocks, peak, peak_bound, most_uses, bound",
    [
        (2, 3, 2, 2, 4, 4, 8, 9),
        (2, 4, 3, 2, 8, 8, 11, 11),
        (3, 3, 2, 1, 4, 4, 5, 5),
        (2, 5, 3, 1, 8, 12, 8, 11),
    ],
)
def test_worst_case_over_every_message_pair(
    q, n, m, blocks, peak, peak_bound, most_uses, bound
):
    # the largest set size and the most uses any message pair reaches, each
    # next to the bound it must stay under: some are met exactly, some not
    params = CodeParams(q, n, m, blocks)
    space = list(product(range(1, q + 1), repeat=params.message_digits))
    states = [_encode(params, w1, w2) for w1 in space for w2 in space]
    assert max(state.max_uncertainty for state in states) == peak
    assert uncertainty_peak_bound(n, m) == peak_bound
    assert max(state.uses for state in states) == most_uses
    assert uses_bound(params) == bound


BLOCK_CODES = [(2, 2, 1), (2, 4, 3), (3, 3, 2), (2, 6, 4), (3, 4, 3), (4, 3, 2)]


@pytest.mark.parametrize("q, n, m", BLOCK_CODES)
def test_block_step_is_inverted_by_the_walk_back(q, n, m):
    # from a set as large as the pattern space, every index a set can reach
    # and every pair of block digit strings: _walk_back returns all three
    # (test_codec samples the same over every feasible code)
    params = CodeParams(q, n, m, 1)
    size = pattern_count(q, n, m)
    blocks = list(product(range(1, q + 1), repeat=m))
    for index in range(uncertainty_peak_bound(n, m)):
        for w1 in blocks:
            for w2 in blocks:
                back = _block_walked_back(params, size, index, w1, w2)
                assert back == (index, list(w1), list(w2))


@pytest.mark.parametrize("q, n, m", BLOCK_CODES)
def test_block_step_fills_every_set_it_can_land_in(q, n, m):
    # the step is injective (above), so new sizes summing to s * q^(2m) over
    # all block outputs mean it reaches every index of every set: the decoder
    # accepts no block the encoder cannot send. The channel's outputs are read
    # through the table, which holds only those met so far
    outputs = [channel(a, b) for a in range(1, q + 1) for b in range(a, q + 1)]
    codes = [bytes(c) for c in product(map(_symbol_codes(q).__getitem__, outputs), repeat=n)]
    assert len(codes) == (q * (q + 1) // 2) ** n
    for s in range(1, uncertainty_peak_bound(n, m) + 1):
        total = 0
        for c in codes:
            p = c.count(STAR)
            total += _consistent_below(s, c, p, q, n, m) << p
        assert total == s * q ** (2 * m), s
