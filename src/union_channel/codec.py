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
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from functools import lru_cache
from typing import Iterator, Sequence

from .entropy import binary_entropy, check_alphabet
from .solvers import bisect_root

STAR = 0
MAX_CODEC_ALPHABET = 255
DEFAULT_SEED = 0x5EED

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
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    lhs = math.comb(2 * (n - m), n - m) << max(2 * m - n, 0)
    rhs = (math.comb(n, m) * q ** (n - m)) << max(n - 2 * m, 0)
    return FeasibilityCheck(feasible=2 * m >= n and lhs <= rhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class CodeParams:
    """A feasible (q, n, m) plus the number of message blocks."""

    q: int
    n: int
    m: int
    blocks: int

    def __post_init__(self) -> None:
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
    """Largest possible uncertainty-set size after any block: C(2n-2m, n-m) * 2^(2m-n)."""
    return math.comb(2 * (n - m), n - m) << (2 * m - n)


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
    by the number of its completions.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    cnt = _completions(q, n)
    total = cnt[n][m]
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    out = []
    m_rem = m
    for row in reversed(cnt[:n]):  # completions over the positions after this one
        c = row[m_rem - 1]  # with a star here; 0 once the stars are placed
        if rank < c:
            out.append(STAR)
            m_rem -= 1
            continue
        digit, rank = divmod(rank - c, row[m_rem])
        out.append(int(digit) + 1)
    return tuple(out)


def rank_pattern(pattern: Sequence[int], q: int, m: int | None = None) -> int:
    """Inverse of :func:`unrank_pattern` for a pattern over {STAR} u [q].

    One right-to-left pass; ``k`` positions and ``stars`` stars lie to the right.
    """
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
    if m is not None and stars != m:
        raise ValueError(f"pattern has {stars} stars, expected {m}")
    return rank


# ---------------------------------------------------------------------------
# Channel and uncertainty evolution


def channel(x1: int, x2: int) -> Output:
    """The union channel: both inputs go in, the unordered set comes out."""
    return frozenset((x1, x2))


def _star_options(y: Output) -> tuple[bytes, ...]:
    # digit pairs consistent with the output at a star position, in sorted order
    if len(y) == 1:
        (a,) = y
        return (bytes((a, a)),)
    a, b = sorted(y)
    return (bytes((a, b)), bytes((b, a)))


def _consistent_pattern(h: int, outputs: Sequence[Output], n: int, m: int) -> tuple[int, ...]:
    """The h-th pattern, in rank order, that the block's outputs allow.

    It stars every pair output and shows the received symbol wherever else
    it has no star; a star sorts before a symbol, so rank order is the order
    of the star placements among the singletons: the q=1 pattern space.
    """
    free = sum(1 for y in outputs if len(y) == 1)
    placement = iter(unrank_pattern(h, 1, free, m - (n - free)))
    return tuple(
        min(y) if len(y) == 1 and next(placement) != STAR else STAR for y in outputs
    )


def _consistent_rank(pattern: Sequence[int], outputs: Sequence[Output]) -> int:
    """Inverse of :func:`_consistent_pattern` for a pattern the outputs allow."""
    return rank_pattern(
        [STAR if s == STAR else 1 for s, y in zip(pattern, outputs) if len(y) == 1], 1
    )


def _consistent_below(limit: int, outputs: Sequence[Output], q: int, n: int, m: int) -> int:
    """How many patterns the block's outputs allow rank below ``limit``."""
    p = sum(1 for y in outputs if len(y) == 2)
    if p > m:
        return 0
    return bisect_left(
        range(math.comb(n - p, m - p)),
        limit,
        key=lambda h: rank_pattern(_consistent_pattern(h, outputs, n, m), q, m),
    )


def advance_uncertainty(
    uncertainty: Sequence[bytes],
    outputs: Sequence[Output],
    q: int,
    n: int,
    m: int,
) -> list[bytes]:
    """One block of bookkeeping on an explicit set: filter and extend it.

    A candidate survives iff its pattern (the one at the candidate's list
    position) shows exactly the received singleton at every symbol position;
    each survivor is extended by every digit-pair assignment consistent with
    the outputs at its star positions (singleton -> one pair, two-element
    output -> both orders). The result is sorted. The protocol keeps only
    the set's size and the true index; this list serves tests.
    """
    if len(outputs) != n:
        raise ValueError(f"expected {n} outputs, got {len(outputs)}")
    new: list[bytes] = []
    for h in range(_consistent_below(len(uncertainty), outputs, q, n, m)):
        pattern = _consistent_pattern(h, outputs, n, m)
        prefix = uncertainty[rank_pattern(pattern, q, m)]
        options = [_star_options(y) for s, y in zip(pattern, outputs) if s == STAR]
        for combo in product(*options):
            new.append(prefix + b"".join(combo))
    return new


def _append_digest(digests: list[bytes], size: int, outputs: Sequence[Output]) -> None:
    # the set after a block is fixed by the set before it and the outputs,
    # so chaining the new size and the outputs fingerprints the whole set
    h = hashlib.sha256(digests[-1] if digests else b"")
    h.update(f"{size};".encode())
    for y in outputs:
        h.update(bytes((min(y), max(y))))
    digests.append(h.digest())


# ---------------------------------------------------------------------------
# Protocol sessions


@dataclass
class SessionState:
    """One run of the block protocol, seen from all three parties at once.

    ``known_other_*`` hold the digits each sender has deduced about the
    other's message purely from feedback; ``size`` and ``index`` are the
    length of the shared sorted set of interleaved pair prefixes and the
    position of the true prefix in it; ``block_digests`` fingerprint the set
    after every block so a transcript-only decoder replay can be checked
    against the encoders' bookkeeping.
    """

    params: CodeParams
    w1: bytes
    w2: bytes
    known_other_1: bytearray
    known_other_2: bytearray
    size: int
    index: int
    block_digests: list[bytes]
    transcript: list[Output]
    block: int
    max_uncertainty: int

    @property
    def uses(self) -> int:
        return len(self.transcript)


def new_session(
    params: CodeParams, w1: Sequence[int], w2: Sequence[int]
) -> SessionState:
    """Start a protocol session for two messages of ``blocks * m`` digits."""
    for name, w in (("w1", w1), ("w2", w2)):
        if len(w) != params.message_digits:
            raise ValueError(
                f"{name} must have {params.message_digits} digits, got {len(w)}"
            )
        for d in w:
            if not 1 <= d <= params.q:
                raise ValueError(f"{name} digit {d!r} outside alphabet [1, {params.q}]")
    return SessionState(
        params=params,
        w1=bytes(w1),
        w2=bytes(w2),
        known_other_1=bytearray(),
        known_other_2=bytearray(),
        size=1,
        index=0,
        block_digests=[],
        transcript=[],
        block=0,
        max_uncertainty=1,
    )


def run_block(state: SessionState) -> SessionState:
    """Run one message block of ``n`` channel uses and update all parties."""
    params = state.params
    q, n, m = params.q, params.n, params.m
    if state.block >= params.blocks:
        raise ValueError("all message blocks already sent")
    start = state.block * m
    digits = zip(state.w1[start : start + m], state.w2[start : start + m])

    pattern = unrank_pattern(state.index, q, n, m)
    outputs: list[Output] = []
    child = 0  # one bit per pair output: which order of the pair is true
    for s in pattern:
        x1, x2 = next(digits) if s == STAR else (s, s)
        y = channel(x1, x2)
        if len(y) == 2:
            if s != STAR:
                raise ProtocolViolation("pair output at a symbol position")
            child = (child << 1) | (x1 > x2)
        outputs.append(y)
        if s == STAR:
            # feedback: each sender deduces the other's digit from the output
            state.known_other_1.append(x1 if len(y) == 1 else (set(y) - {x1}).pop())
            state.known_other_2.append(x2 if len(y) == 1 else (set(y) - {x2}).pop())
    state.transcript.extend(outputs)

    pair_count = sum(1 for y in outputs if len(y) == 2)
    size = _consistent_below(state.size, outputs, q, n, m) << pair_count
    h = _consistent_rank(pattern, outputs)
    if h << pair_count >= size:
        raise ProtocolViolation("true message prefix missing from uncertainty set")
    if size > survivor_bound(n, m, pair_count):
        raise ProtocolViolation(
            f"uncertainty set overflow: {size} candidates after a block "
            f"with {pair_count} pair outputs"
        )
    _append_digest(state.block_digests, size, outputs)
    state.size = size
    state.index = (h << pair_count) + child
    state.max_uncertainty = max(state.max_uncertainty, size)
    state.block += 1
    return state


def run_final_block(state: SessionState) -> SessionState:
    """Resolve the residual uncertainty by transmitting the true pair's rank."""
    params = state.params
    if state.block != params.blocks:
        raise ValueError(
            f"final block requires all {params.blocks} message blocks first"
        )
    digits = resolution_digits(state.size, params.q)
    remaining = state.index
    for j in range(digits - 1, -1, -1):
        digit, remaining = divmod(remaining, params.q**j)
        # both senders transmit the same symbol, so the output is a singleton
        state.transcript.append(channel(digit + 1, digit + 1))
    return state


@dataclass(frozen=True)
class DecodeResult:
    w1: tuple[int, ...]
    w2: tuple[int, ...]
    block_digests: tuple[bytes, ...]


def decode_transcript(params: CodeParams, transcript: Sequence[Output]) -> DecodeResult:
    """Recover both messages from channel outputs alone (no message access).

    Raises ValueError for an output that is not a 1- or 2-element subset of
    [q], and for a transcript that no message pair can produce.
    """
    q, n, m = params.q, params.n, params.m
    for pos, y in enumerate(transcript):
        if not (1 <= len(y) <= 2 and min(y) >= 1 and max(y) <= q):
            raise ValueError(
                f"output {sorted(y)} at position {pos} is not a 1- or 2-element "
                f"subset of [1, {q}]"
            )
    pos = params.blocks * n
    if len(transcript) < pos:
        raise ValueError("transcript too short for the declared block count")
    blocks = [transcript[start : start + n] for start in range(0, pos, n)]
    digests: list[bytes] = []
    size = 1
    for b, outputs in enumerate(blocks):
        pair_count = sum(1 for y in outputs if len(y) == 2)
        size = _consistent_below(size, outputs, q, n, m) << pair_count
        if not size:
            raise ValueError(f"transcript inconsistent at block {b}: no candidate left")
        _append_digest(digests, size, outputs)
    digits = resolution_digits(size, q)
    if pos + digits != len(transcript):
        raise ValueError(
            f"transcript length {len(transcript)} does not match "
            f"{pos} block uses plus {digits} resolution uses"
        )
    rank = 0
    for y in transcript[pos : pos + digits]:
        if len(y) != 1:
            raise ValueError("resolution uses must be singleton outputs")
        (sym,) = y
        rank = rank * q + (sym - 1)
    if rank >= size:
        raise ValueError(f"decoded rank {rank} outside uncertainty set")
    # walk back: each rank splits into a surviving pattern and, one digit per
    # star (base 2 at a pair output, base 1 at a singleton), the pair orders
    pairs = []  # digit pairs, last first
    for outputs in reversed(blocks):
        h, child = divmod(rank, 1 << sum(1 for y in outputs if len(y) == 2))
        pattern = _consistent_pattern(h, outputs, n, m)
        for s, y in zip(reversed(pattern), reversed(outputs)):
            if s == STAR:
                child, order = divmod(child, len(y))
                pairs.append(_star_options(y)[order])
        rank = rank_pattern(pattern, q, m)
    element = b"".join(reversed(pairs))
    return DecodeResult(
        w1=tuple(element[0::2]),
        w2=tuple(element[1::2]),
        block_digests=tuple(digests),
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


def _run_trial(args: tuple[CodeParams, int, int]) -> TrialRecord:
    params, seed, trial = args
    rng = random.Random(seed ^ trial)
    w1 = tuple(rng.randint(1, params.q) for _ in range(params.message_digits))
    w2 = tuple(rng.randint(1, params.q) for _ in range(params.message_digits))

    state = new_session(params, w1, w2)
    for b in range(params.blocks):
        run_block(state)
        if state.size > uncertainty_peak_bound(params.n, params.m):
            raise ProtocolViolation("uncertainty peak bound exceeded")
        # sender symmetry: feedback-deduced digits must match the real messages
        learned = (b + 1) * params.m
        if bytes(state.known_other_1) != state.w2[:learned]:
            raise ProtocolViolation("sender 1 mis-deduced the other message")
        if bytes(state.known_other_2) != state.w1[:learned]:
            raise ProtocolViolation("sender 2 mis-deduced the other message")
    run_final_block(state)

    decoded = decode_transcript(params, state.transcript)
    if decoded.block_digests != tuple(state.block_digests):
        raise ProtocolViolation("decoder replay disagrees with encoder bookkeeping")
    if state.uses > uses_bound(params):
        raise ProtocolViolation("channel-use bound exceeded")
    ok = decoded.w1 == w1 and decoded.w2 == w2
    return TrialRecord(
        trial=trial,
        uses=state.uses,
        max_uncertainty=state.max_uncertainty,
        ok=ok,
    )


def simulate(
    params: CodeParams,
    trials: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> SimulationReport:
    """Run seeded protocol trials with uniform messages and full checking.

    Trial t draws its messages from ``random.Random(seed ^ t)``, so results
    are independent of execution order and of ``workers``. Any protocol
    invariant failure raises; a decode mismatch (which the construction
    rules out) would be counted in ``errors``.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    jobs = [(params, seed, t) for t in range(trials)]
    if workers == 1:
        records = [_run_trial(job) for job in jobs]
    else:
        with multiprocessing.Pool(workers) as pool:
            records = pool.map(_run_trial, jobs, chunksize=max(1, trials // (4 * workers)))
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
        yield json.dumps(
            {
                "trial": r.trial,
                "uses": r.uses,
                "max_uncertainty": str(r.max_uncertainty),
                "ok": r.ok,
            }
        )
    yield json.dumps(
        {
            "summary": True,
            "q": report.params.q,
            "n": report.params.n,
            "m": report.params.m,
            "blocks": report.params.blocks,
            "trials": report.trials,
            "seed": report.seed,
            "errors": report.errors,
            "max_uncertainty": str(report.max_uncertainty),
            "min_uses": report.min_uses,
            "max_uses": report.max_uses,
            "mean_uses": report.mean_uses,
            "uses_bound": report.uses_bound,
            "achieved_rate": report.achieved_rate,
        }
    )


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
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    found = []
    for n in range(1, n_max + 1):
        for m in range((n + 1) // 2, n + 1):
            if validate_params(q, n, m).feasible:
                found.append(ParamChoice(n=n, m=m, rate=m / n))
    found.sort(key=lambda c: (-c.rate, c.n, c.m))
    return found
