"""Zero-error block coding over the two-user union channel with feedback.

The channel takes one symbol from each sender and delivers the unordered
set of the two, so a pair output leaves the receiver unsure who sent what.
Feedback fixes this: both senders see every output, and all three parties
can therefore maintain the same sorted *uncertainty set* of message-pair
prefixes still consistent with the transcript.

Each of the ``blocks`` message rounds works on a length-``n`` star pattern
(a string over {STAR} u [q] with exactly ``m`` stars) that encodes the index
of the true prefix inside the current uncertainty set. At pattern positions
holding a symbol both senders transmit that symbol (the output is then a
singleton the receiver can check); at the i-th star each sender transmits
its own next message digit. A short final round transmits the rank of the
true pair inside the last uncertainty set, resolving it completely. With a
feasible (q, n, m) the decoder's set never outgrows the pattern space and
decoding is exact, never merely probable.

Digits are 1..q and are stored in ``bytes`` (one digit per byte), so the
alphabet is capped at 255 here. The uncertainty set is never stored: each
party tracks only its size and the true prefix's index in it.

Each party reads a block's outputs as *symbol codes*, one byte per output:
the symbol of a singleton, STAR (0) for a pair. A star pattern is allowed
by a block iff it stars every pair and shows the code wherever else it has
no star, so the survivor walk and the decoder's walk back run over bytes.
The decoder looks a whole transcript up in a cached per-q code table.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from itertools import chain, product
from typing import Iterator, Sequence

from .entropy import DEFAULT_SEED, binary_entropy, bisect_root, check_alphabet, check_int

STAR = 0
MAX_CODEC_ALPHABET = 255
MAX_WORKERS = 64  # processes one simulate() may start

Output = frozenset  # channel output: set of one or two symbols


class ProtocolViolation(RuntimeError):
    """An internal invariant of the block protocol failed."""


# ---------------------------------------------------------------------------
# Parameter feasibility


@dataclass(frozen=True)
class FeasibilityCheck:
    """Exact-integer evaluation of the block-length inequality."""

    feasible: bool
    lhs: int
    rhs: int


def validate_params(q: int, n: int, m: int) -> FeasibilityCheck:
    """Check n/2 <= m <= n and C(2n-2m, n-m) * 2^(2m-n) <= C(n, m) * q^(n-m).

    Both sides are reported as exact integers. When 2m < n (already
    infeasible) both sides are scaled by 2^(n-2m) so they stay integral;
    the comparison is unaffected.
    """
    check_alphabet(q)
    check_int(n, "n")
    check_int(m, "m")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    lhs = math.comb(2 * (n - m), n - m) << max(2 * m - n, 0)
    rhs = pattern_count(q, n, m) << max(n - 2 * m, 0)
    return FeasibilityCheck(feasible=2 * m >= n and lhs <= rhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class CodeParams:
    """A feasible (q, n, m) plus the number of message blocks."""

    q: int
    n: int
    m: int
    blocks: int

    def __post_init__(self) -> None:
        for f in fields(self):
            check_int(getattr(self, f.name), f.name)
        if self.q > MAX_CODEC_ALPHABET:
            raise ValueError(
                f"codec digits are stored one per byte; q must be <= "
                f"{MAX_CODEC_ALPHABET}, got {self.q}"
            )
        if self.blocks < 1:
            raise ValueError(f"need at least one message block, got {self.blocks}")
        check = validate_params(self.q, self.n, self.m)
        if not check.feasible:
            raise ValueError(
                f"infeasible (q={self.q}, n={self.n}, m={self.m}): "
                f"lhs={check.lhs} rhs={check.rhs}"
            )

    @property
    def message_digits(self) -> int:
        return self.blocks * self.m


def uncertainty_peak_bound(n: int, m: int) -> int:
    """Largest possible uncertainty-set size after any block: C(2n-2m, n-m) * 2^(2m-n).

    That is :func:`survivor_bound` at its peak, a block with 2m - n pair outputs.
    """
    check_int(n, "n")
    check_int(m, "m")
    if not n <= 2 * m <= 2 * n:
        raise ValueError(f"need n/2 <= m <= n, got n={n}, m={m}")
    return survivor_bound(n, m, 2 * m - n)


def survivor_bound(n: int, m: int, pair_count: int) -> int:
    """Uncertainty-set size bound when a block produced ``pair_count`` pair outputs."""
    return math.comb(n - pair_count, m - pair_count) << pair_count


def uses_bound(params: CodeParams) -> int:
    """Worst-case total channel uses: blocks*n + n - m + ceil(log_q C(n, m))."""
    return (
        params.blocks * params.n
        + params.n
        - params.m
        + resolution_digits(math.comb(params.n, params.m), params.q)
    )


def resolution_digits(size: int, q: int) -> int:
    """Smallest d with q^d >= size (base-q digits needed to index ``size`` items)."""
    check_alphabet(q)
    check_int(size, "size")  # the loop below never ends at inf and returns 0 at NaN
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    d = 0
    value = 1
    while value < size:
        value *= q
        d += 1
    return d


# ---------------------------------------------------------------------------
# Star patterns and their lexicographic ranking (STAR < 1 < ... < q)


def pattern_count(q: int, n: int, m: int) -> int:
    """|S| = C(n, m) * q^(n-m), exact."""
    check_int(q, "alphabet size")
    check_int(n, "n")
    check_int(m, "m")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    return math.comb(n, m) * q ** (n - m)


@lru_cache(maxsize=None)
def _completions(q: int, n: int) -> tuple[tuple[int, ...], ...]:
    # table[n_rem][m_rem] = number of patterns over n_rem positions with m_rem
    # stars; table[k][-1] (column n) is 0 for every k < n
    return tuple(
        tuple(
            math.comb(n_rem, m_rem) * q ** (n_rem - m_rem) if m_rem <= n_rem else 0
            for m_rem in range(n + 1)
        )
        for n_rem in range(n + 1)
    )


def unrank_pattern(rank: int, q: int, n: int, m: int) -> tuple[int, ...]:
    """Pattern at position ``rank`` in the sorted pattern space.

    Positional counting: at each position the STAR option (when stars
    remain) precedes symbols 1..q, and skipping an option advances the rank
    by the number of its completions. Uncached on purpose: sweeps over a
    pattern space rarely repeat a rank; the codec goes through ``_pattern_at``.
    """
    # one test on the hot path; the named refusal only once it fails
    if not type(rank) is type(q) is type(n) is type(m) is int:
        for value, name in ((rank, "rank"), (q, "alphabet size"), (n, "n"), (m, "m")):
            check_int(value, name)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    cnt = _completions(q, n)
    total = cnt[n][m]
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    out = []
    m_rem = m
    for row in cnt[-2::-1]:  # rows n-1..0 (none if n=0): completions after this position
        c = row[m_rem - 1]  # with a star here; 0 once the stars are placed
        if rank < c:
            out.append(STAR)
            m_rem -= 1
            continue
        digit, rank = divmod(rank - c, row[m_rem])
        out.append(digit + 1)
    return tuple(out)


def rank_pattern(pattern: Sequence[int], q: int, m: int) -> int:
    """Inverse of :func:`unrank_pattern` for a pattern over {STAR} u [q] with ``m`` stars.

    One right-to-left pass; ``k`` positions and ``stars`` stars lie to the right.
    """
    # one test on the hot path, as in unrank_pattern: q and m before the
    # shared memo reads q (2.0 and 2 are one key), and the symbols' sum, an
    # int only if no symbol is a float or another non-int number
    if not type(q) is type(m) is type(sum(pattern)) is int:
        check_int(q, "alphabet size")
        check_int(m, "m")
        bad = next(s for s in reversed(pattern) if not isinstance(s, int))
        raise ValueError(f"pattern symbol {bad!r} outside alphabet [1, {q}]")
    cnt = _completions(q, len(pattern))
    rank = 0
    stars = 0
    for k, s in enumerate(reversed(pattern)):
        if s == STAR:
            stars += 1
        elif 1 <= s <= q:
            rank += cnt[k][stars - 1] + (s - 1) * cnt[k][stars]
        else:
            raise ValueError(f"pattern symbol {s!r} outside alphabet [1, {q}]")
    if stars != m:
        raise ValueError(f"pattern has {stars} stars, expected {m}")
    return rank


# Memo for the block step, shared by the encoder and the decoder. It wraps a
# pure function of ints, so a hit returns the tuple a fresh call would, and
# lru_cache never stores a raised ValueError: the decoder's replay still
# computes its sizes from the transcript alone. It wraps the function object,
# so the public name stays uncached. Twenty trials of q=2, n=12, m=9, B=200
# leave about 730 patterns in it.
_pattern_at = lru_cache(maxsize=1024)(unrank_pattern)  # full at n=64, q=255: 0.83 MB


# ---------------------------------------------------------------------------
# Channel and uncertainty evolution


def channel(x1: int, x2: int) -> Output:
    """The union channel: both inputs go in, the unordered set comes out."""
    return frozenset((x1, x2))


@lru_cache(maxsize=None)
def _symbol_codes(q: int) -> dict[Output, int]:
    # the q(q+1)/2 outputs of the channel over [1, q], built without calling
    # it, each with its code: the symbol of a singleton, STAR for a pair
    return {
        frozenset((a, b)): STAR if a != b else a
        for a in range(1, q + 1)
        for b in range(a, q + 1)
    }


def _consistent_below(
    limit: int, codes: bytes, p: int, q: int, n: int, m: int
) -> int:
    """How many patterns a block's output ``codes`` (``p`` pairs) allow rank below ``limit``.

    A pattern is allowed iff it stars every pair output (code STAR) and
    shows the received symbol wherever else it has no star. One walk along
    the pattern at rank ``limit``: each allowed option (a star; at a
    singleton also its symbol) below its entry adds C(free, stars), the ways
    to place the stars still due on the singletons after it; the walk ends
    where the entry itself is not allowed.
    """
    free, stars = n - p, m - p
    if stars < 0:
        return 0
    comb = _completions(1, free)  # comb[k][j] = C(k, j); comb[k][-1] = 0 for k < free
    if limit >= _completions(q, n)[n][m]:
        return comb[free][stars]
    below = 0
    for s, c in zip(_pattern_at(limit, q, n, m), codes):
        if c == STAR:
            if s != STAR:
                return below + comb[free][stars]
            continue
        free -= 1
        if s == STAR:
            if not stars:
                return below
            stars -= 1
            continue
        below += comb[free][stars - 1]  # a star here
        if c != s:
            return below + (comb[free][stars] if c < s else 0)
    return below


def advance_uncertainty(
    uncertainty: Sequence[bytes],
    outputs: Sequence[Output],
    q: int,
    n: int,
    m: int,
) -> list[bytes]:
    """One block of bookkeeping on an explicit set, literally as defined.

    A candidate survives iff its pattern (the one at the candidate's list
    position) shows exactly the received singleton at every symbol position;
    each survivor is extended by every digit pair whose union is the output
    at each of its star positions (one pair for a singleton, both orders
    for a pair). Sorted equal-length prefixes give a sorted result. The
    protocol keeps only the set's size and the true index; this list is the
    tests' literal reference for that implicit bookkeeping.
    """
    if len(outputs) != n:
        raise ValueError(f"expected {n} outputs, got {len(outputs)}")
    new: list[bytes] = []
    for idx, prefix in enumerate(uncertainty):
        pattern = unrank_pattern(idx, q, n, m)
        if any(s != STAR and y != {s} for s, y in zip(pattern, outputs)):
            continue
        options = [
            sorted(bytes(xs) for xs in product(y, repeat=2) if set(xs) == y)
            for s, y in zip(pattern, outputs) if s == STAR
        ]
        new.extend(prefix + b"".join(combo) for combo in product(*options))
    return new


# ---------------------------------------------------------------------------
# Protocol sessions


@dataclass
class SessionState:
    """One run of the block protocol, seen from all three parties at once.

    ``known_other_*`` hold the digits each sender has deduced about the
    other's message purely from feedback. ``sizes`` holds the length of the
    shared sorted set of interleaved pair prefixes: 1 before the first
    block, then its length after each block, so a transcript-only decoder
    replay can be checked against it. ``index`` is the position of the true
    prefix in the current set.
    """

    params: CodeParams
    w1: bytes
    w2: bytes
    known_other_1: bytearray = field(default_factory=bytearray)
    known_other_2: bytearray = field(default_factory=bytearray)
    sizes: list[int] = field(default_factory=lambda: [1])
    index: int = 0
    transcript: list[Output] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.sizes[-1]

    @property
    def max_uncertainty(self) -> int:
        return max(self.sizes)

    @property
    def block(self) -> int:
        return len(self.sizes) - 1

    @property
    def uses(self) -> int:
        return len(self.transcript)


def new_session(
    params: CodeParams, w1: Sequence[int], w2: Sequence[int]
) -> SessionState:
    """Start a protocol session for two messages of ``blocks * m`` digits."""
    digits = range(1, params.q + 1)
    stored = []
    for name, w in (("w1", w1), ("w2", w2)):
        if len(w) != params.message_digits:
            raise ValueError(
                f"{name} must have {params.message_digits} digits, got {len(w)}"
            )
        try:  # a digit is valid iff it has __index__ and lies in [1, q]
            stored.append(bytes(iter(w)))
            valid = set(stored[-1]).issubset(digits)
        except (TypeError, ValueError):
            valid = False
        if not valid:  # the same test, digit by digit, names the first bad one
            bad = next(d for d in w if not hasattr(d, "__index__") or d not in digits)
            raise ValueError(f"{name} digit {bad!r} outside alphabet [1, {params.q}]")
    w1, w2 = stored
    return SessionState(params, w1, w2)


def _check_feedback(state: SessionState, start: int, stop: int) -> None:
    # sender symmetry: the digits each sender deduced from feedback since
    # ``start`` must be the other's message digits up to ``stop``
    if state.known_other_1[start:] != state.w2[start:stop]:
        raise ProtocolViolation("sender 1 mis-deduced the other message")
    if state.known_other_2[start:] != state.w1[start:stop]:
        raise ProtocolViolation("sender 2 mis-deduced the other message")


def run_block(state: SessionState) -> SessionState:
    """Run one message block of ``n`` channel uses, update all parties and check them."""
    params = state.params
    q, n, m = params.q, params.n, params.m
    if state.block >= params.blocks:
        raise ValueError("all message blocks already sent")
    start = state.block * m
    digits = zip(state.w1[start : start + m], state.w2[start : start + m])

    outputs: list[Output] = []
    codes = bytearray()
    known_1, known_2 = state.known_other_1, state.known_other_2
    child = 0  # one bit per pair output: which order of the pair is true
    p = 0  # pair outputs
    shown = []  # at each symbol position: the singletons before it
    for s in _pattern_at(state.index, q, n, m):
        if s != STAR:
            outputs.append(y := channel(s, s))
            if len(y) != 1 or s not in y:
                raise ProtocolViolation(
                    "pair output at a symbol position" if len(y) == 2
                    else "true message prefix missing from uncertainty set"
                )
            shown.append(len(codes) - p)
            codes.append(s)
            continue
        x1, x2 = next(digits)
        outputs.append(y := channel(x1, x2))
        # feedback: each sender deduces the other's digit from the output
        if len(y) == 1:
            known_1.append(x1)
            known_2.append(x2)
            codes.extend(y)
            continue
        a, b = y
        known_1.append(b if a == x1 else a)
        known_2.append(b if a == x2 else a)
        child = (child << 1) | (x1 > x2)
        codes.append(STAR)
        p += 1
    state.transcript.extend(outputs)

    size = _consistent_below(state.size, codes, p, q, n, m) << p
    # h, the true pattern's rank among the allowed ones, counts the allowed
    # patterns that agree with it up to one of its symbol positions and star
    # that one: at the j-th, with i singletons before it, free - 1 - i
    # singletons and stars - (i - j) of their stars follow, and C(singletons
    # after, singleton stars after - 1) of the placements there do that
    free, stars = n - p, m - p
    comb = _completions(1, free)
    h = sum(comb[free - 1 - i][stars - 1 - i + j] for j, i in enumerate(shown))
    if h << p >= size:
        raise ProtocolViolation("true message prefix missing from uncertainty set")
    if size > survivor_bound(n, m, p):
        raise ProtocolViolation(
            f"uncertainty set overflow: {size} candidates after a block "
            f"with {p} pair outputs"
        )
    state.sizes.append(size)
    state.index = (h << p) + child
    _check_feedback(state, start, start + m)  # the block's new digits
    return state


def run_final_block(state: SessionState) -> SessionState:
    """Send the true pair's rank to resolve the residual uncertainty; check uses_bound."""
    params = state.params
    if state.block != params.blocks:
        raise ValueError(f"final block requires all {params.blocks} message blocks first")
    digits = resolution_digits(state.size, params.q)
    remaining = state.index
    for j in range(digits - 1, -1, -1):
        digit, remaining = divmod(remaining, params.q**j)
        # both senders transmit the same symbol, so the output is a singleton
        state.transcript.append(channel(digit + 1, digit + 1))
    if state.uses > uses_bound(params):
        raise ProtocolViolation("channel-use bound exceeded")
    return state


def _encode(params: CodeParams, w1: Sequence[int], w2: Sequence[int]) -> SessionState:
    # the one encode loop; run_block refuses a size above survivor_bound(n, m, p),
    # whose maximum over p is uncertainty_peak_bound(n, m): no peak check is needed
    state = new_session(params, w1, w2)
    for _ in range(params.blocks):
        run_block(state)
    return run_final_block(state)


@dataclass(frozen=True)
class DecodeResult:
    w1: tuple[int, ...]
    w2: tuple[int, ...]
    sizes: tuple[int, ...]


def _walk_back(
    rank: int, codes: bytes, outputs: Sequence[Output], p: int, q: int, n: int, m: int
) -> tuple[int, list[int], list[int]]:
    """One block of the decoder's walk back: the rank before the block, and its digits.

    ``rank`` splits into ``h``, the surviving pattern's position among the
    star placements on the block's singletons (the q=1 pattern space), and
    one bit per pair output, first pair highest, set when sender 1 sent the
    larger digit. One left-to-right pass unranks ``h``, ranks the pattern it
    gives in the full space, and reads both senders' digits at its stars.
    """
    h, child = divmod(rank, 1 << p)
    free, stars = n - p, m - p  # singletons, and their stars, from here on
    comb = _completions(1, free)
    m_rem, rank, bit = m, 0, 1 << p
    w1: list[int] = []
    w2: list[int] = []
    for row, c, y in zip(_completions(q, n)[-2::-1], codes, outputs):
        if c == STAR:  # a pair output: a star in every allowed pattern
            m_rem -= 1
            bit >>= 1
            a, b = y
            if (a < b) == (child & bit > 0):  # now sender 1 sent a
                a, b = b, a
            w1.append(a)
            w2.append(b)
            continue
        free -= 1
        skip = comb[free][stars - 1]  # the placements with a star here
        if h < skip:
            stars -= 1
            m_rem -= 1
            w1.append(c)
            w2.append(c)
        else:
            h -= skip
            rank += row[m_rem - 1] + (c - 1) * row[m_rem]
    return rank, w1, w2


def decode_transcript(params: CodeParams, transcript: Sequence[Output]) -> DecodeResult:
    """Recover both messages from channel outputs alone (no message access).

    Raises ValueError for an output that is not a frozenset of one or two
    ints in [1, q], and for a transcript that no message pair can produce.
    """
    q, n, m = params.q, params.n, params.m
    table = _symbol_codes(q)
    try:  # the accepting path: C-level passes over the outputs and their elements
        codes = bytes(map(table.__getitem__, transcript))
        frozensets = {*map(type, transcript)} <= {frozenset}
        valid = frozensets and {*map(type, chain.from_iterable(transcript))} <= {int}
    except (KeyError, TypeError):  # not a valid output, or not even hashable
        valid = False
    if not valid:  # find the first bad output to name it
        for pos, y in enumerate(transcript):
            # a set or list equal to a valid output is refused too, not hashed,
            # and so is a frozenset holding a bool or a float equal to a digit
            if type(y) is frozenset and y in table and {*map(type, y)} == {int}:
                continue
            try:
                shown = sorted(y)
            except TypeError:  # not iterable, or elements without an order
                shown = repr(y)
            raise ValueError(
                f"output {shown} at position {pos} is not a 1- or 2-element "
                f"subset of [1, {q}]"
            )
    pos = params.blocks * n
    if len(codes) < pos:
        raise ValueError("transcript too short for the declared block count")
    starts = range(0, pos, n)
    pair_counts = [codes.count(STAR, start, start + n) for start in starts]
    sizes = [1]
    for b, (start, p) in enumerate(zip(starts, pair_counts)):
        size = _consistent_below(sizes[-1], codes[start : start + n], p, q, n, m) << p
        if not size:
            raise ValueError(f"transcript inconsistent at block {b}: no candidate left")
        sizes.append(size)
    digits = resolution_digits(size, q)
    if pos + digits != len(codes):
        raise ValueError(
            f"transcript length {len(codes)} does not match "
            f"{pos} block uses plus {digits} resolution uses"
        )
    if STAR in codes[pos:]:
        raise ValueError("resolution uses must be singleton outputs")
    rank = 0
    for c in codes[pos:]:
        rank = rank * q + (c - 1)
    if rank >= size:
        raise ValueError(f"decoded rank {rank} outside uncertainty set")
    w1, w2 = [], []  # per block, last block first
    for start, p in zip(reversed(starts), reversed(pair_counts)):
        rank, d1, d2 = _walk_back(
            rank, codes[start : start + n], transcript[start : start + n], p, q, n, m
        )
        w1.append(d1)
        w2.append(d2)
    return DecodeResult(
        w1=tuple(chain.from_iterable(reversed(w1))),
        w2=tuple(chain.from_iterable(reversed(w2))),
        sizes=tuple(sizes),
    )


# ---------------------------------------------------------------------------
# Simulation harness


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    uses: int
    max_uncertainty: int
    ok: bool


@dataclass(frozen=True)
class SimulationReport:
    params: CodeParams
    trials: int
    seed: int
    errors: int
    max_uncertainty: int
    min_uses: int
    max_uses: int
    mean_uses: float
    uses_bound: int
    achieved_rate: float
    records: tuple[TrialRecord, ...]


@lru_cache(maxsize=None)
def _digit_bytes(q: int) -> tuple[bytes, bytes]:
    # per top byte of a 32-bit word: the digit its top q.bit_length() bits give,
    # and the top bytes whose draw randint rejects
    top = [b >> (8 - q.bit_length()) for b in range(256)]
    return bytes(min(r + 1, q) for r in top), bytes(b for b, r in enumerate(top) if r >= q)


def _draw_digits(rng: random.Random, q: int, count: int) -> tuple[int, ...]:
    # the next count values of rng.randint(1, q), from whole 32-bit words:
    # CPython's randint is 1 + getrandbits(k), k = q.bit_length() <= 8,
    # redrawn while >= q, and getrandbits(k) is the top k bits of the next
    # word; getrandbits(32 * w) is the next w words, lowest first, so its
    # little-endian bytes [3::4] are their top bytes. One word per digit
    # still due never takes a word past the last digit (a test pins the
    # stream and the generator's state)
    table, rejects = _digit_bytes(q)
    digits = b""
    while len(digits) < count:
        words = count - len(digits)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        digits += top.translate(table, rejects)
    return tuple(digits)


def _run_trial(args: tuple[CodeParams, int, int]) -> TrialRecord:
    params, seed, trial = args
    rng = random.Random(seed ^ trial)
    w1 = _draw_digits(rng, params.q, params.message_digits)
    w2 = _draw_digits(rng, params.q, params.message_digits)
    state = _encode(params, w1, w2)
    decoded = decode_transcript(params, state.transcript)
    if decoded.sizes != tuple(state.sizes):
        raise ProtocolViolation("decoder replay disagrees with encoder bookkeeping")
    ok = decoded.w1 == w1 and decoded.w2 == w2
    return TrialRecord(trial, state.uses, state.max_uncertainty, ok)


def simulate(
    params: CodeParams,
    trials: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> SimulationReport:
    """Run seeded protocol trials with uniform messages and full checking.

    Trial t draws its messages from ``random.Random(seed ^ t)``, so results
    are independent of execution order and of ``workers``. ``workers`` is an
    upper bound: at most ``trials`` processes start, and none when that
    count is 1. Any protocol invariant failure raises; a decode mismatch
    (which the construction rules out) would be counted in ``errors``.
    """
    if type(trials) is not int or trials < 1:
        raise ValueError(f"need at least one trial, got {trials!r}")
    if type(workers) is not int or not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be an int in [1, {MAX_WORKERS}], got {workers!r}")
    # random.Random seeds with abs(x), so seed -3 would draw trial 0 of seed 3
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    jobs = [(params, seed, t) for t in range(trials)]
    processes = min(workers, trials)
    if processes == 1:
        records = [_run_trial(job) for job in jobs]
    else:
        # imported here so that a serial run never loads it (nor socket, pickle)
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            records = pool.map(
                _run_trial, jobs, chunksize=max(1, trials // (4 * processes))
            )
    uses = [r.uses for r in records]
    max_uses = max(uses)
    return SimulationReport(
        params=params,
        trials=trials,
        seed=seed,
        errors=sum(1 for r in records if not r.ok),
        max_uncertainty=max(r.max_uncertainty for r in records),
        min_uses=min(uses),
        max_uses=max_uses,
        mean_uses=sum(uses) / trials,
        uses_bound=uses_bound(params),
        achieved_rate=params.message_digits / max_uses,
        records=tuple(records),
    )


def report_jsonl_lines(report: SimulationReport) -> Iterator[str]:
    """Line-delimited records: one per trial, then a summary.

    Exact integers that may exceed double precision (uncertainty sizes) are
    serialized as decimal strings.
    """
    for r in report.records:
        yield json.dumps({**asdict(r), "max_uncertainty": str(r.max_uncertainty)})
    summary = {"summary": True, **asdict(report.params)}
    for f in fields(report):
        if f.name not in ("params", "records"):
            summary[f.name] = getattr(report, f.name)
    summary["max_uncertainty"] = str(report.max_uncertainty)
    yield json.dumps(summary)


# ---------------------------------------------------------------------------
# Rates and parameter search


def rate_root(q: int) -> float:
    """Root of H_b(a) + (1 - a) * log2(q) = 1 on (1/2, 1].

    The left side is strictly decreasing there, so the root is unique; it is
    the asymptotic rate of the scheme and a lower bound on the zero-error
    feedback rate.
    """
    check_alphabet(q)
    lg = math.log2(q)
    return bisect_root(lambda a: binary_entropy(a) + (1.0 - a) * lg - 1.0, 0.5, 1.0)


def asymptotic_rate_lower_bound(q: int) -> float:
    """1 - 1/log2(q); a closed-form floor under :func:`rate_root` for large q."""
    check_alphabet(q)
    return 1.0 - 1.0 / math.log2(q)


@dataclass(frozen=True)
class ParamChoice:
    n: int
    m: int
    rate: float  # asymptotic rate m/n


def best_params(q: int, n_max: int = 64) -> list[ParamChoice]:
    """All feasible (n, m) with n <= n_max, best asymptotic rate first."""
    check_int(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    found = []
    for n in range(1, n_max + 1):
        for m in range((n + 1) // 2, n + 1):
            if validate_params(q, n, m).feasible:
                found.append(ParamChoice(n=n, m=m, rate=m / n))
    found.sort(key=lambda c: (-c.rate, c.n, c.m))
    return found
