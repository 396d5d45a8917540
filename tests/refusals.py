"""Every pinned refusal: a call outside the library's domains and its one-line text.

``test_refusals.py`` runs each ``Row``. A library call must raise a ``ValueError``
whose text is ``text``. A CLI argv, run with ``env`` set, must print no stdout and
``text`` as its one stderr line, and exit 1 after ``refused:`` or ``infeasible:``,
2 after an argparse error. The call must not use a name in ``untouched``
(``module.attribute``) before it refuses, and a ``fast`` row refuses within 0.1 s.
A text that prints a cap is built from the cap's constant. A row with the id
``module::test[param]`` runs as ``test`` in ``module``, so the rows of a test that once
pinned its texts itself keep its ids. Add a new pin to its module's list, under ``NEW``.
"""

import math
from collections import deque
from decimal import Decimal
from typing import Callable, NamedTuple

import numpy as np

from union_channel import (
    STAR, CodeParams, avg_capacity_no_feedback, avg_feedback_capacity,
    best_params, binary_entropy, case_discriminant, channel, concave_envelope,
    cover_leung_witness, decode_transcript, entropy_q, envelope_line, grid_max_joint_entropy,
    grouped_entropy, interpolate_to_theta, max_joint_entropy, new_session, output_entropy,
    pattern_count, random_feasible_sampler, rank_pattern, rate_root, report_jsonl_lines,
    resolution_digits, run_block, run_final_block, simulate, tangent_point, top_symbol_mass,
    two_level_monotonicity, two_level_point, two_level_value, uncertainty_peak_bound,
    unrank_pattern, validate_params,
)
from union_channel.capacity import MAX_WITNESS_ALPHABET, CoverLeungWitness
from union_channel.codec import (MAX_BLOCK_LENGTH, MAX_BLOCKS, MAX_CODEC_ALPHABET, MAX_TRIALS,
                                 MAX_WORKERS, _encode, advance_uncertainty)
from union_channel.entropy import (MAX_ALPHABET, check_alphabet, check_between, check_count,
                                   validate_pmf)
from union_channel.oracle import MAX_GRID_POINTS, MAX_SAMPLER_ENTRIES, FeasiblePair


class Row(NamedTuple):
    id: str
    call: Callable[[], object] | tuple[str, ...]  # a library call, or the CLI's argv
    text: str
    env: dict[str, str] | None = None
    untouched: tuple[str, ...] = ()
    fast: bool = False


def _rows(test: str, rows: list[tuple], **flags) -> list[Row]:
    """Rows from ``(id, call or argv, text[, env])``, run as ``test`` (``module::name``)."""
    return [Row(f"{test}[{id}]" if id else test,
                tuple(call.split()) if isinstance(call, str) else call, *rest, **flags)
            for id, call, *rest in rows]


NEW = "test_refusals::test_refusal"  # rows that no earlier test ran
NUMPY = ("union_channel.oracle.np",)  # bound on an oracle's first use
TRIALS = ("union_channel.codec._run_trial", "multiprocessing.Pool")
ORACLES = ("union_channel.oracle.grid_max_joint_entropy",
           "union_channel.oracle.random_feasible_sampler")
NAN = float("nan")
HUGE = 10**5000  # past the interpreter's 4300-digit limit on int-to-str conversion
BITS = "an int of 16610 bits"  # how a refusal names HUGE
CAP, SAMPLES = MAX_BLOCK_LENGTH, MAX_SAMPLER_ENTRIES
P, P_N2 = CodeParams(2, 3, 2, 1), CodeParams(2, 2, 1, 1)
UNORDERABLE = frozenset({1, "a"})  # its repr's order varies with the str hash seed
# a . b added left to right; from Python 3.12 on, sum() is compensated and gives
# 0.36496814496527114, so the refusals would depend on the Python version
INNER_A = (0.396775054713128, 0.559235060792343, 0.043989884494529057)
INNER_B = (0.08727436926353717, 0.5632059660208322, 0.3495196647156306)
INNER = 0.3649681449652712


def _outputs(params=P, w1=(1, 2), w2=(2, 2), **replaced) -> list:
    """The outputs that encode ``w1`` and ``w2``, some replaced by position (``at1=...``)."""
    transcript = _encode(params, w1, w2).transcript
    for at, output in replaced.items():
        transcript[int(at[2:])] = output
    return transcript


def _unchecked_params(*fields):  # a CodeParams that skipped its own checks
    params = object.__new__(CodeParams)
    params.__dict__.update(zip(("q", "n", "m", "blocks"), fields))
    return params


# outputs that equal (==) the output of _outputs() they replace, by position (3 is a
# resolution use), so each was once accepted; test_codec checks that they still do
LOOKALIKES = {"set": (0, {1, 2}), "bool-pair": (0, frozenset({True, 2})),
              "float-pair": (0, frozenset({1.0, 2.0})), "float-singleton": (1, frozenset({2.0})),
              "bool-resolution": (3, frozenset({True}))}


def _subset(output, at=0):
    return f"output {output} at position {at} is not a 1- or 2-element subset of [1, 2]"


ENTROPY = _rows(NEW, [
    ("binary_entropy-1.5", lambda: binary_entropy(1.5),
     "binary entropy argument must lie in [0, 1], got 1.5"),
    # a bool once passed every float interval as the 0 or 1 it equals
    ("binary_entropy-False", lambda: binary_entropy(False),
     "binary entropy argument must lie in [0, 1], got False"),
    # and so did a numpy bool: this one returned 0.0
    ("binary_entropy-np-False", lambda: binary_entropy(np.False_),
     f"binary entropy argument must lie in [0, 1], got {np.False_!r}"),
]) + _rows("test_entropy::test_entropy_rejects_bad_inputs", [
    ("", lambda: entropy_q([0.5, -0.1, 0.6], 3), "negative probability entry -0.1"),
    ("", lambda: entropy_q([0.5, 0.4], 2), "probabilities sum to 0.9, expected 1 within 1e-12"),
    ("", lambda: entropy_q([0.5, 0.5], 1), "alphabet size must be at least 2, got 1"),
]) + _rows("test_entropy::test_nan_masses_are_refused_by_their_sum", [
    ("", lambda: entropy_q([0.5, NAN], 2), "probabilities sum to nan, expected 1 within 1e-12"),
    ("", lambda: grouped_entropy([(NAN, 1), (1.0, 1)], 2),
     "probabilities sum to nan, expected 1 within 1e-12"),
]) + _rows("test_entropy::test_an_int_mass_past_float_range_is_refused_in_one_line", [
    # mass += m raised OverflowError, and so did the branch kept for a
    # multiplicity past float range, on m * (...)
    *((id, call, "probability entry is an int of 1329 bits, past float range")
      for id, call in [("grouped", lambda: grouped_entropy([(10**400, 1)], 2)),
                       ("entropy_q", lambda: entropy_q([10**400], 2)),
                       ("negative", lambda: grouped_entropy([(0.5, 1), (-(10**400), 3)], 2))]),
]) + _rows("test_entropy::test_grouped_rejects_bad_multiplicity", [
    ("", lambda: grouped_entropy([(1.0, 0)], 3), "multiplicity must be a positive integer, got 0"),
    ("", lambda: grouped_entropy([(0.5, 2), (0.5, 1.5)], 3),
     "multiplicity must be a positive integer, got 1.5"),
]) + _rows("test_entropy::test_inputs_that_are_not_numbers_are_refused_in_one_line", [
    # inf once raised an OverflowError from int(), NaN int()'s own ValueError,
    # None a TypeError; 2.0 and True were taken as the ints they equal
    *((f"multiplicity-{id}", lambda g=groups: grouped_entropy(g, 2),
       f"multiplicity must be a positive integer, got {groups[0][1]!r}")
      for id, groups in [("inf", [(1.0, math.inf)]), ("nan", [(1.0, NAN)]),
                         ("None", [(1.0, None)]), ("float", [(0.5, 2.0), (0.5, 1)]),
                         ("bool", [(0.5, True), (0.5, 1)])]),
    ("entry-None", lambda: entropy_q([None, 1.0], 2), "probability entry None is not a number"),
    ("entry-str", lambda: entropy_q([0.5, "0.5"], 2), "probability entry '0.5' is not a number"),
    ("binary-None", lambda: binary_entropy(None),
     "binary entropy argument must lie in [0, 1], got None"),
    ("binary-str", lambda: binary_entropy("x"),
     "binary entropy argument must lie in [0, 1], got 'x'"),
    # each once raised Python's own TypeError or ValueError
    ("entropy_q-None", lambda: entropy_q(None, 2), "probabilities must be an iterable, got None"),
    ("validate_pmf-int", lambda: validate_pmf(3), "probabilities must be an iterable, got 3"),
    ("grouped-None", lambda: grouped_entropy(None, 2),
     "probabilities must be an iterable, got None"),
    ("grouped-float-entries", lambda: grouped_entropy([0.5, 0.5], 2),
     "probability group must be a (mass, multiplicity) pair, got 0.5"),
    ("grouped-triple", lambda: grouped_entropy([(0.5, 1, 7)], 2),
     "probability group must be a (mass, multiplicity) pair, got (0.5, 1, 7)"),
]) + _rows("test_entropy::test_grouped_refuses_in_a_fixed_order", [
    # the alphabet, then a bad multiplicity anywhere, then a negative mass, then the sum
    ("", lambda: grouped_entropy([(-0.5, 0), (2.0, 1)], 1),
     "alphabet size must be at least 2, got 1"),
    ("", lambda: grouped_entropy([(-0.5, 1), (2.0, 1), (0.5, 0)], 3),
     "multiplicity must be a positive integer, got 0"),
    ("", lambda: grouped_entropy([(0.1, 1), (-0.5, 1), (-0.25, 1), (2.0, 2)], 3),
     "negative probability entry -0.5"),
    ("", lambda: grouped_entropy([(0.5, 1), (0.4, 2)], 3),
     "probabilities sum to 0.9, expected 1 within 1e-12"),
]) + _rows("test_entropy::test_an_alphabet_that_is_not_an_int_is_refused", [
    *((id, call, f"alphabet size must be an int, got {q!r}") for id, call, q in [
        ("entropy_q-nan", lambda: entropy_q([0.5, 0.5], NAN), NAN),
        ("case_discriminant-nan", lambda: case_discriminant(NAN), NAN),
        ("entropy_q-2.5", lambda: entropy_q([1.0], 2.5), 2.5),
        ("entropy_q-2.0", lambda: entropy_q([0.5, 0.5], 2.0), 2.0),
        ("entropy_q-True", lambda: entropy_q([0.5, 0.5], True), True),
        ("avg_feedback_capacity-2.0", lambda: avg_feedback_capacity(2.0), 2.0),
        ("rate_root-2.5", lambda: rate_root(2.5), 2.5),
        ("tangent_point-3.5", lambda: tangent_point(3.5), 3.5),
        ("resolution_digits-2.5", lambda: resolution_digits(10, 2.5), 2.5)]),
]) + _rows("test_entropy::test_a_refused_interval_is_printed_from_its_bounds", [
    # ints and whole floats print as ints, other floats by repr, a literal as given
    *((id, lambda a=args: check_between(*a, name="n"), f"n must lie in {text}")
      for id, args, text in [
        ("int", (11, 0, 10), "[0, 10], got 11"),
        ("int-large", (-1, 1, 2**14), "[1, 16384], got -1"),
        ("whole-float", (1.5, 0.0, 1.0), "[0, 1], got 1.5"),
        ("whole-float-inf", (NAN, -3.0, math.inf), "[-3, inf], got nan"),
        ("float", (0.9, 1e-06, 0.5), "[1e-06, 0.5], got 0.9"),
        ("float-third", (0.0, 1 / 3, 1.0), "[0.3333333333333333, 1], got 0.0"),
        ("value-too-long-to-print", (HUGE, 0, 10), f"[0, 10], got {BITS}"),
        ("literal", (0.2, 1 / 3, 1.0, "[1/q, 1]"), "[1/q, 1], got 0.2")]),
]) + _rows("test_entropy::test_a_refusal_names_an_int_too_long_to_print_by_its_size", [
    # repr of such an int raises Python's own ValueError, which once replaced the refusal
    ("validate_params-n", lambda: validate_params(2, HUGE, 1),
     f"n must lie in [0, {CAP}], got {BITS}"),
    ("check_count", lambda: check_count(-HUGE, "seed", 0), f"seed must be an int >= 0, got {BITS}"),
    ("check_alphabet-below", lambda: check_alphabet(-HUGE),
     f"alphabet size must be at least 2, got {BITS}"),
    ("check_alphabet-above", lambda: check_alphabet(HUGE),
     f"alphabet size must be at most {MAX_ALPHABET}, got {BITS}"),
    ("unrank_pattern-rank", lambda: unrank_pattern(HUGE, 2, 3, 1),
     f"rank {BITS} out of range [0, 12)"),
    ("rank_pattern-symbol", lambda: rank_pattern([HUGE], 2, 0),
     f"pattern symbol {BITS} outside alphabet [1, 2]"),
    ("new_session-digit", lambda: new_session(P, [HUGE, 1], [1, 1]),
     f"w1 digit {BITS} outside alphabet [1, 2]"),
    ("decode_transcript-int", lambda: decode_transcript(P, [HUGE] * 4), _subset(BITS)),
    ("decode_transcript-frozenset", lambda: decode_transcript(P, [frozenset({HUGE})] * 4),
     _subset("a list holding an int too long to print")),
    ("grouped_entropy-masses", lambda: grouped_entropy(HUGE, 2),
     f"probabilities must be an iterable, got {BITS}"),
    ("grouped_entropy-group", lambda: grouped_entropy([HUGE], 2),
     f"probability group must be a (mass, multiplicity) pair, got {BITS}"),
    ("grouped_entropy-multiplicity", lambda: grouped_entropy([(1.0, -HUGE)], 2),
     f"multiplicity must be a positive integer, got {BITS}"),
    ("two_level_point-theta-list", lambda: two_level_point(3, [HUGE], 1),
     "theta must lie in [1/q, 1], got a list holding an int too long to print"),
]) + _rows("test_entropy::test_an_alphabet_past_the_cap_is_refused_in_one_line", [
    # pattern_count took 0.4 s to return; avg_feedback_capacity, tangent_point,
    # concave_envelope, cover_leung_witness and two_level_value raised
    # OverflowError, two_level_monotonicity ZeroDivisionError
    *((id, call, f"alphabet size must be at most {MAX_ALPHABET}, got {q}") for id, call, q in [
        ("check_alphabet", lambda: check_alphabet(MAX_ALPHABET + 1), MAX_ALPHABET + 1),
        ("rank_pattern-long", lambda: rank_pattern((0,) * 100, MAX_ALPHABET + 1, 100),
         MAX_ALPHABET + 1),
        ("pattern_count", lambda: pattern_count(10**100, 2**14, 0), 10**100),
        ("avg_feedback_capacity", lambda: avg_feedback_capacity(10**400), 10**400),
        ("tangent_point", lambda: tangent_point(10**400), 10**400),
        ("concave_envelope", lambda: concave_envelope(0.5, 10**400), 10**400),
        ("cover_leung_witness", lambda: cover_leung_witness(10**400, 0.5), 10**400),
        ("two_level_value", lambda: two_level_value(10**400, 0.5, 1), 10**400),
        ("two_level_monotonicity", lambda: two_level_monotonicity(2**64, 0.5, 5), 2**64)]),
])

CAPACITY = _rows(NEW, [
    ("tangent_point-2", lambda: tangent_point(2), "alphabet size must be at least 3, got 2"),
    ("case_discriminant-2", lambda: case_discriminant(2),
     "alphabet size must be at least 3, got 2"),
    # it returned -0.0, the maximum at theta 1
    ("max_joint_entropy-True", lambda: max_joint_entropy(True, 3),
     "theta must lie in [1/q, 1], got True"),
    ("max_joint_entropy-np-True", lambda: max_joint_entropy(np.True_, 3),
     f"theta must lie in [1/q, 1], got {np.True_!r}"),
    # a Decimal compares with the float bounds but cannot be added to a float:
    # top_symbol_mass raised TypeError
    ("max_joint_entropy-Decimal", lambda: max_joint_entropy(Decimal("0.5"), 3),
     "theta must lie in [1/q, 1], got Decimal('0.5')"),
]) + _rows(NEW, [  # fast: the witness would first build a q * q pair marginal
    # q = 10**6 raised MemoryError
    *((id, lambda q=q: cover_leung_witness(q, 1 / q),
       f"alphabet size must lie in [2, {MAX_WITNESS_ALPHABET}], got {q}") for id, q in [
        ("witness-past-cap", MAX_WITNESS_ALPHABET + 1), ("witness-q-1e6", 10**6)]),
    # built directly it skipped the cap: its first joint read would fill 2 * q**3 entries
    ("witness-built-directly", lambda: CoverLeungWitness(1000, 0.001, 0.0, 0.0, 0.0, {}, 0.0),
     f"alphabet size must lie in [2, {MAX_WITNESS_ALPHABET}], got 1000"),
], fast=True) + _rows("test_capacity::test_top_mass_domain", [
    ("", lambda: top_symbol_mass(0.1, 3), "theta must lie in [1/q, 1], got 0.1"),
    ("", lambda: top_symbol_mass(1.1, 3), "theta must lie in [1/q, 1], got 1.1"),
]) + _rows("test_capacity::test_envelope_line_domain", [  # the first beyond the tangent point
    ("", lambda: envelope_line(0.9, 3), "theta must lie in [1/q, tangent_point(q)], got 0.9"),
    ("", lambda: envelope_line(0.2, 3), "theta must lie in [1/q, tangent_point(q)], got 0.2"),
]) + _rows("test_capacity::test_capacity_rejects_tiny_alphabet", [
    ("", lambda: avg_feedback_capacity(1), "alphabet size must be at least 2, got 1"),
    ("", lambda: avg_capacity_no_feedback(0), "alphabet size must be at least 2, got 0"),
]) + _rows("test_capacity::test_witness_domain", [  # the first beyond 2/(q+1)
    ("", lambda: cover_leung_witness(3, 0.9), "theta must lie in [1/q, 2/(q+1)], got 0.9"),
    ("", lambda: cover_leung_witness(3, 0.1), "theta must lie in [1/q, 2/(q+1)], got 0.1"),
]) + _rows("test_capacity::test_an_alphabet_whose_rates_round_together_is_refused", [
    # r_feedback read 1 ulp below r_no_feedback at the first two and equal at 2**53,
    # which a 4-ulp slack in the ordering check once let through
    (str(q), lambda q=q: avg_feedback_capacity(q),
     f"alphabet size must be at most {MAX_ALPHABET}, got {q}")
    for q in (79850951894099, 2**47, 2**53)
])

CODEC = _rows(NEW, [
    ("validate_params-m-0", lambda: validate_params(2, 5, 0), "m must lie in [1, 5], got 0"),
    ("validate_params-q-1", lambda: validate_params(1, 5, 3),
     "alphabet size must be at least 2, got 1"),
    *((f"resolution_digits-q-{q}", lambda q=q: resolution_digits(5, q),
       f"alphabet size must be at least 2, got {q}") for q in (1, 0)),
    # lru_cache keys 2.0 and 2 alike: test_codec runs this row on a cold memo
    ("rank-q-float", lambda: rank_pattern((STAR, 1, 2, 1, 1), 2.0, 1),
     "alphabet size must be an int, got 2.0"),
    # each raised AttributeError on its argument's fields
    ("run_block-state-none", lambda: run_block(None), "state must be a SessionState, got NoneType"),
    ("run_final_block-state-none", lambda: run_final_block(None),
     "state must be a SessionState, got NoneType"),
    ("report_jsonl_lines-none", lambda: report_jsonl_lines(None),
     "report must be a SimulationReport, got NoneType"),
    # each raised TypeError: unhashable type
    ("channel-x1-list", lambda: channel([1], 2), "x1 must be a hashable symbol, got list"),
    ("channel-x2-dict", lambda: channel(1, {}), "x2 must be a hashable symbol, got dict"),
]) + _rows("test_codec::test_code_params_rejects_infeasible", [
    ("", lambda: CodeParams(q=2, n=17, m=17, blocks=1),
     "infeasible (q=2, n=17, m=17): lhs=131072 rhs=1"),
    ("", lambda: CodeParams(q=2, n=17, m=13, blocks=0),
     f"blocks must lie in [1, {MAX_BLOCKS}], got 0"),
    ("", lambda: CodeParams(q=300, n=4, m=3, blocks=1),
     f"q must lie in [2, {MAX_CODEC_ALPHABET}], got 300"),
]) + _rows("test_codec::test_code_params_refuses_a_field_that_is_not_an_int", [
    *((f"blocks-{b!r}", lambda b=b: CodeParams(2, 4, 3, b),
       f"blocks must be an int, got {b!r}") for b in (1.5, 2.0, True)),
    ("q-2.5", lambda: CodeParams(2.5, 4, 3, 1), "q must be an int, got 2.5"),
    ("n-4.0", lambda: CodeParams(2, 4.0, 3, 1), "n must be an int, got 4.0"),
    ("m-3", lambda: CodeParams(2, 4, "3", 1), "m must be an int, got '3'"),
]) + _rows("test_codec::test_exact_bounds_refuse_a_block_length_past_the_cap", [
    # each raised OverflowError from math.comb, which takes no k past 2**63
    ("peak", lambda: uncertainty_peak_bound(2**1100 + 1, 2**1099 + 1),
     f"n must lie in [0, {CAP}], got {2**1100 + 1}"),
    *((id, call, f"n must lie in [0, {CAP}], got {2**64}") for id, call in [
        ("validate_params", lambda: validate_params(2, 2**64, 2**63)),
        ("pattern_count", lambda: pattern_count(2, 2**64, 2**63)),
        ("CodeParams", lambda: CodeParams(2, 2**64, 2**63, 1))]),
]) + _rows("test_codec::test_a_block_past_the_cap_is_refused_before_its_pattern_table", [
    # with the cap at 2**14 each was accepted, or built the (n+1)^2 table of
    # exact counts before refusing: 0.5-0.7 s at n = 512, never done at 2**14
    *((id, call, f"n must lie in [0, {CAP}], got 16384") for id, call in [
        ("CodeParams", lambda: CodeParams(2, 2**14, 12000, 1)),
        ("simulate", lambda: simulate(_unchecked_params(2, 2**14, 12000, 1), 1)),
        ("unrank-rank-negative", lambda: unrank_pattern(-1, 2, 2**14, 1))]),
    ("unrank", lambda: unrank_pattern(0, 255, CAP + 1, 1),
     f"n must lie in [0, {CAP}], got {CAP + 1}"),
    ("rank", lambda: rank_pattern((0,) * 100, 2, 100),
     f"pattern length must lie in [0, {CAP}], got 100"),
    ("rank-q255", lambda: rank_pattern((1,) * (CAP + 1), 255, 0),
     f"pattern length must lie in [0, {CAP}], got {CAP + 1}"),
    *((id, lambda n=n: best_params(2, n), f"n_max must lie in [1, {CAP}], got {n}")
      for id, n in [("best_params", CAP + 1), ("best_params-10**30", 10**30)]),
], fast=True) + _rows("test_codec::test_pattern_errors", [
    ("", lambda: unrank_pattern(4, 2, 2, 1), "rank 4 out of range [0, 4)"),
    ("", lambda: unrank_pattern(-1, 2, 2, 1), "rank -1 out of range [0, 4)"),
    ("", lambda: rank_pattern((STAR, 1), 2, m=2), "pattern has 1 stars, expected 2"),
    ("", lambda: rank_pattern((STAR, 3), 2, 1), "pattern symbol 3 outside alphabet [1, 2]"),
]) + _rows("test_codec::test_counts_that_are_not_ints_are_refused_in_one_line", [
    ("pattern_count-q", lambda: pattern_count(2.5, 3, 1), "alphabet size must be an int, got 2.5"),
    ("unrank-m", lambda: unrank_pattern(0, 2, 3, 1.5), "m must be an int, got 1.5"),
    ("unrank-rank", lambda: unrank_pattern(0.0, 2, 3, 1), "rank must be an int, got 0.0"),
    ("unrank-q", lambda: unrank_pattern(0, 2.0, 3, 1), "alphabet size must be an int, got 2.0"),
    ("validate_params-n", lambda: validate_params(2, 17.5, 13), "n must be an int, got 17.5"),
    ("best_params-n_max", lambda: best_params(2, 2.5), "n_max must be an int, got 2.5"),
    ("resolution_digits-size-0", lambda: resolution_digits(0, 2),
     "size must be an int >= 1, got 0"),
    ("pattern_count-m-above-n", lambda: pattern_count(2, 3, 4), "m must lie in [0, 3], got 4"),
    ("unrank-m-above-n", lambda: unrank_pattern(0, 2, 3, 4), "m must lie in [0, 3], got 4"),
    ("advance-output-count", lambda: advance_uncertainty([b""], [channel(1, 2)] * 2, 2, 3, 1),
     "expected 3 outputs, got 2"),
    ("best_params-n_max-0", lambda: best_params(2, 0), f"n_max must lie in [1, {CAP}], got 0"),
    ("rank-m", lambda: rank_pattern((STAR, 1), 2, True), "m must be an int, got True"),
    *((id, lambda s=s: rank_pattern(s, 2, 1), f"pattern symbol {shown} outside alphabet [1, 2]")
      for id, s, shown in [("rank-float-symbol", (STAR, 1.0), "1.0"),
                           ("rank-float-star", (0.0, 1), "0.0"),
                           ("rank-str-symbol", (0, "a", 1), "'a'"),
                           ("rank-None-symbol", (0, None, 1), "None")]),
    ("peak-n", lambda: uncertainty_peak_bound(17.0, 13), "n must be an int, got 17.0"),
    ("peak-m-below-half-n", lambda: uncertainty_peak_bound(10, 3), "m must lie in [5, 10], got 3"),
    ("peak-m-above-n", lambda: uncertainty_peak_bound(3, 5), "m must lie in [2, 3], got 5"),
    # the walk back slices the transcript: deque and the iterator raised a
    # TypeError there, the iterator after the accepting path had read it whole
    *((f"decode-{id}", lambda t=t: decode_transcript(P, t()),
       f"transcript must be a sequence of outputs, got {name}")
      for id, t, name in [("None", lambda: None, "NoneType"), ("int", lambda: 5, "int"),
                          ("deque", lambda: deque(_outputs()), "deque"),
                          ("iterator", lambda: iter(_outputs()), "list_iterator")]),
    ("session-None", lambda: new_session(P, None, [1, 2]),
     "w1 must be a sequence of digits, got NoneType"),
    ("session-generator", lambda: new_session(P, [1, 2], (d for d in [1, 2])),
     "w2 must be a sequence of digits, got generator"),
    *((f"rank-{name}", lambda p=p: rank_pattern(p(), 2, 1),
       f"pattern must be a sequence of symbols, got {type_name}")
      for name, p, type_name in [("None", lambda: None, "NoneType"),
                                 ("set", lambda: {0, 1}, "set"),
                                 ("generator", lambda: (s for s in (0, 1)), "generator")]),
    ("rank-numpy-symbol", lambda: rank_pattern((0, np.int64(1)), 2, 1),
     "pattern symbol np.int64(1) is not an int"),
    # q=1 is the codec's binomial table; below it pattern_count returned 12
    *((id, call, f"alphabet size must be at least 1, got {q}") for id, call, q in [
        ("pattern_count-q-negative", lambda: pattern_count(-2, 3, 1), -2),
        ("unrank-q-negative", lambda: unrank_pattern(0, -1, 2, 0), -1),
        ("rank-q-0", lambda: rank_pattern((0, 1), 0, 1), 0),
        ("rank-q-0-long-pattern", lambda: rank_pattern((0,) * 100, 0, 100), 0)]),
    # a tuple of the four fields raised AttributeError: no attribute 'q'
    *((f"{id}-params-tuple", call, "params must be a CodeParams, got tuple") for id, call in [
        ("decode", lambda: decode_transcript((2, 3, 2, 1), [])),
        ("simulate", lambda: simulate((2, 3, 2, 1), 1)),
        ("session", lambda: new_session((2, 3, 2, 1), [1, 1], [1, 1]))]),
]) + _rows("test_codec::test_resolution_digits_refuses_a_size_that_is_not_an_int", [
    # inf used to loop forever, and NaN returned 0
    *((repr(size), lambda size=size: resolution_digits(size, 2),
       f"size must be an int >= 1, got {size!r}") for size in (math.inf, NAN, 2.5)),
]) + _rows("test_codec::test_run_block_order_errors", [
    ("", lambda: run_final_block(new_session(P_N2, (1,), (1,))),
     "final block requires all 1 message blocks first"),
    ("", lambda: run_block(run_block(new_session(P_N2, (1,), (1,)))),
     "all message blocks already sent"),
]) + _rows("test_codec::test_new_session_validates_messages", [
    ("", lambda: new_session(CodeParams(2, 2, 1, 2), (1,), (1, 2)), "w1 must have 2 digits, got 1"),
    ("", lambda: new_session(CodeParams(2, 2, 1, 2), (1, 3), (1, 2)),
     "w1 digit 3 outside alphabet [1, 2]"),
]) + _rows("test_codec::test_new_session_refuses_a_digit_it_cannot_store", [
    *((f"w1{i}-w2{i}-{bad}", lambda w1=w1, w2=w2: new_session(P, w1, w2),
       f"{bad} outside alphabet [1, 2]") for i, (w1, w2, bad) in enumerate([
        ([1.0, 2], [1, 1], "w1 digit 1.0"), (["a", 1], [1, 1], "w1 digit 'a'"),
        ([None, 1], [1, 1], "w1 digit None"), ([1, 2], [2, 1.5], "w2 digit 1.5"),
        ([1, 256], [1, 1], "w1 digit 256"), ([1, 2], [-1, 1], "w2 digit -1"),
        ([1, 2], [1, 3], "w2 digit 3")])),
]) + _rows("test_codec::test_new_session_names_a_bad_digit_of_a_numpy_array", [
    # a numpy bool has no __index__; a bool array's raw bytes were stored once
    ("int64", lambda: new_session(P, np.array([1, 3], "int64"), [2, 2]),
     f"w1 digit {np.int64(3)!r} outside alphabet [1, 2]"),
    ("bool", lambda: new_session(P, np.array([True, True], bool), [2, 2]),
     f"w1 digit {np.True_!r} outside alphabet [1, 2]"),
]) + _rows("test_codec::test_decode_rejects_malformed_transcript", [
    ("", lambda: decode_transcript(P_N2, _outputs(P_N2, (2,), (1,))[:-1]),
     "transcript length 2 does not match 2 block uses plus 1 resolution uses"),
    ("", lambda: decode_transcript(P_N2, _outputs(P_N2, (2,), (1,)) + [frozenset({1})]),
     "transcript length 4 does not match 2 block uses plus 1 resolution uses"),
]) + _rows("test_codec::test_decode_refuses_a_transcript_shorter_than_its_blocks", [
    # two valid outputs where blocks * n = 6 are needed
    ("", lambda: decode_transcript(CodeParams(2, 3, 2, 2), [frozenset({1})] * 2),
     "transcript too short for the declared block count"),
]) + _rows("test_codec::test_decode_refuses_a_resolution_rank_outside_the_set", [
    # the block leaves 2 candidates, and the one resolution digit names rank 2;
    # the walk back does not check its range, so without this refusal the
    # transcript would decode to w1=(1,), w2=(2,), which encode to other outputs
    ("", lambda: decode_transcript(
        CodeParams(3, 2, 1, 1), [frozenset({1, 2}), frozenset({1}), frozenset({3})]),
     "decoded rank 2 outside uncertainty set"),
]) + _rows("test_codec::test_decode_rejects_impossible_outputs", [
    ("outputs0-output [0] at position 0 is not a 1- or 2-element subset",
     lambda: decode_transcript(P_N2, [frozenset({0})] * 2), _subset([0])),
    ("outputs1-output [3] at position 0 is not a 1- or 2-element",
     lambda: decode_transcript(P_N2, [frozenset({3}), frozenset({1, 2}), frozenset({1})]),
     _subset([3])),
    ("outputs2-transcript inconsistent at block 0",
     lambda: decode_transcript(P_N2, [frozenset(y) for y in ({1, 2}, {1, 2}, {1}, {1})]),
     "transcript inconsistent at block 0: no candidate left"),
]) + _rows("test_codec::test_decode_rejects_outputs_that_are_not_frozensets", [
    # the list once decoded to w2=(1, 2), whose re-encoding differs; the set is a lookalike
    ("list", lambda: decode_transcript(P, _outputs(at0=[1, 1])), _subset([1, 1])),
    ("set", lambda: decode_transcript(P, _outputs(at0=LOOKALIKES["set"][1])), _subset([1, 2])),
]) + _rows("test_codec::test_decode_refuses_outputs_that_cannot_be_sorted", [
    # sorted(output) once raised a TypeError from inside the refusal's message
    *((id, lambda y=y: decode_transcript(P, [y, frozenset({1}), frozenset({1})]),
       _subset(repr(y))) for id, y in [("int", 5), ("None", None),
                                       ("unorderable", UNORDERABLE)]),
]) + _rows("test_codec::test_decode_refuses_elements_that_are_not_ints", [
    # each once decoded to bool or float digits, e.g. w1=(1.0, 2)
    *((id, lambda at=at, y=y: decode_transcript(P, _outputs(**{f"at{at}": y})),
       _subset(sorted(y), at)) for id, (at, y) in LOOKALIKES.items() if id != "set"),
]) + _rows("test_codec::test_simulate_refuses_a_count_before_anything_starts", [
    *((id, lambda t=t, w=w, s=s: simulate(CodeParams(2, 5, 3, 2), t, seed=s, workers=w),
       text) for id, t, w, s, text in [
        (str(MAX_WORKERS + 1), 3, MAX_WORKERS + 1, 0,
         f"workers must lie in [1, {MAX_WORKERS}], got {MAX_WORKERS + 1}"),
        ("1e6", 3, 10**6, 0, f"workers must lie in [1, {MAX_WORKERS}], got 1000000"),
        ("0", 3, 0, 0, f"workers must lie in [1, {MAX_WORKERS}], got 0"),
        ("2.0", 3, 2.0, 0, "workers must be an int, got 2.0"),
        ("True", 3, True, 0, "workers must be an int, got True"),
        ("trials-2.5", 2.5, 1, 0, "trials must be an int, got 2.5"),
        ("seed-1.5", 3, 2, 1.5, "seed must be an int >= 0, got 1.5"),
        ("seed-negative", 3, 2, -3, "seed must be an int >= 0, got -3")]),
], untouched=TRIALS) + _rows(NEW, [  # fast: the job list would be built before any trial
    ("trials-past-cap", lambda: simulate(CodeParams(2, 5, 3, 2), MAX_TRIALS + 1),
     f"trials must lie in [1, {MAX_TRIALS}], got {MAX_TRIALS + 1}"),
], untouched=TRIALS, fast=True) + _rows(NEW, [  # fast: a trial would draw blocks * m digits first
    ("blocks-past-cap", lambda: CodeParams(2, 5, 3, MAX_BLOCKS + 1),
     f"blocks must lie in [1, {MAX_BLOCKS}], got {MAX_BLOCKS + 1}"),
], fast=True)

ORACLE = _rows(NEW, [  # fast: the whole t-grid would be walked
    ("monotonicity-grid_points-past-cap",
     lambda: two_level_monotonicity(4, 0.5, MAX_GRID_POINTS + 1),
     f"grid_points must lie in [1, {MAX_GRID_POINTS}], got {MAX_GRID_POINTS + 1}"),
], fast=True) + _rows(NEW, [
    ("monotonicity-grid_points-0", lambda: two_level_monotonicity(4, 0.5, 0),
     f"grid_points must lie in [1, {MAX_GRID_POINTS}], got 0"),
    ("interpolate-theta-added-left-to-right", lambda: interpolate_to_theta(INNER_A, INNER_B, 0.9),
     f"theta must lie in [{1 / 3 - 1e-10!r}, {INNER + 1e-10!r}], got 0.9"),
    ("feasible_pair-added-left-to-right", lambda: FeasiblePair(INNER_A, INNER_B, 0.9),
     f"inner product {INNER!r} differs from theta 0.9"),
]) + _rows(NEW, [  # it searched at theta 1
    ("grid-theta-True", lambda: grid_max_joint_entropy(2, True),
     "theta must lie in [0, 1], got True"),
], untouched=NUMPY) + _rows("test_oracle::test_interpolate_rejects_unreachable_target", [  # above theta0, below 1/q
    *(("", lambda t=t: interpolate_to_theta((0.9, 0.1), (0.9, 0.1), t),
       f"theta must lie in [0.4999999999, 0.8200000001000001], got {t}") for t in (0.95, 0.3)),
]) + _rows("test_oracle::test_feasible_pair_validates_inner_product", [
    ("", lambda: FeasiblePair(a=(0.5, 0.5), b=(0.5, 0.5), theta=0.9),
     "inner product 0.5 differs from theta 0.9"),
]) + _rows("test_oracle::test_feasible_pair_refuses_nan", [
    ("a0-nan-^probabilities sum to nan, expected 1",
     lambda: FeasiblePair((NAN, 1.0), (0.5, 0.5), NAN),
     "probabilities sum to nan, expected 1 within 1e-12"),
    ("a1-nan-^inner product 0.5 differs from theta nan$",
     lambda: FeasiblePair((0.5, 0.5), (0.5, 0.5), NAN), "inner product 0.5 differs from theta nan"),
]) + _rows("test_oracle::test_grid_rejects_bad_arguments", [
    # the q=3 simplex grid would explode at 1e-4, the q=2 grid build 1e8-point arrays at 1e-8
    ("", lambda: grid_max_joint_entropy(4, 0.5, 1e-3), "grid search supports q in {2, 3}, got 4"),
    *(("", lambda a=args: grid_max_joint_entropy(*a), f"resolution must lie in {text}")
      for args, text in [((2, 0.5, 0.0), "[1e-06, 0.5], got 0.0"),
                         ((2, 0.5, NAN), "[1e-06, 0.5], got nan"),
                         ((3, 0.5, 1e-4), "[0.001, 0.5], got 0.0001"),
                         ((2, 0.75, 1e-8), "[1e-06, 0.5], got 1e-08")]),
]) + _rows("test_oracle::test_grid_step_caps_follow_the_general_checks", [
    ("", lambda: grid_max_joint_entropy(3, 2.0, 1e-4), "theta must lie in [0, 1], got 2.0"),
    ("", lambda: grid_max_joint_entropy(3, 0.5, -1.0),
     "resolution must lie in [0.001, 0.5], got -1.0"),
    ("", lambda: grid_max_joint_entropy(3, 0.5, 1e-4),
     "resolution must lie in [0.001, 0.5], got 0.0001"),
]) + _rows("test_oracle::test_sampler_domain", [
    ("", lambda: random_feasible_sampler(3, 0.2, 100), "theta must lie in [1/q, 1], got 0.2"),
]) + _rows("test_oracle::test_oracles_refuse_draws_over_the_cap_before_numpy", [
    # the grid's cap is a sixth of the sampler's; it bounds time only,
    # since the refinements are streamed a chunk at a time
    *((id, lambda r=r: grid_max_joint_entropy(3, 0.5, 0.01, refinements=r),
       f"refinements must lie in [0, {SAMPLES // 18}], got {r}")
      for id, r in [("grid-1e8", 10**8), ("grid-just-over", SAMPLES // 18 + 1)]),
    *((id, lambda s=s: random_feasible_sampler(5, 0.7, s),
       f"samples must lie in [1, {SAMPLES // 5}], got {s}")
      for id, s in [("sampler-6e8", 6 * 10**8), ("sampler-just-over", SAMPLES // 5 + 1)]),
], untouched=NUMPY) + _rows(
        "test_oracle::test_oracle_counts_that_are_not_ints_are_refused_before_numpy", [
    ("monotonicity-grid_points", lambda: two_level_monotonicity(3, 0.7, 2.5),
     "grid_points must be an int, got 2.5"),
    ("sampler-samples", lambda: random_feasible_sampler(3, 0.7, 10.5),
     "samples must be an int, got 10.5"),
    ("grid-refinements", lambda: grid_max_joint_entropy(3, 0.7, 0.1, refinements=NAN),
     "refinements must be an int, got nan"),
    ("interpolate-negative-entry", lambda: interpolate_to_theta((-0.5, 1.5), (0.5, 0.5), 0.5),
     "negative probability entry -0.5"),
    ("interpolate-unequal-lengths", lambda: interpolate_to_theta((0.5, 0.5), (1.0, 0.0, 0.0), 0.5),
     "a and b must have equal lengths"),
    # len() of a float once raised Python's own TypeError
    ("interpolate-float-a", lambda: interpolate_to_theta(0.5, (0.5, 0.5), 0.5),
     "probabilities must be an iterable, got 0.5"),
    ("two_level-r", lambda: two_level_point(3, 0.5, 0), "r must lie in [1, 2], got 0"),
    # the count is checked before theta
    *((id, lambda t=t: random_feasible_sampler(3, t, 0),
       f"samples must lie in [1, {SAMPLES // 3}], got 0")
      for id, t in [("sampler-samples-0", 0.5), ("sampler-samples-0-bad-theta", 0.2)]),
    ("output_entropy-theta", lambda: output_entropy(1.5, 3), "theta must lie in [0, 1], got 1.5"),
    ("two_level-q", lambda: two_level_point(3.0, 0.5, 1), "alphabet size must be an int, got 3.0"),
    ("two_level_value-r", lambda: two_level_value(3, 0.5, 1.5), "r must be an int, got 1.5"),
    # numpy would draw from the OS's entropy for None and take True as 1
    *((f"sampler-seed-{id}", lambda s=s: random_feasible_sampler(3, 0.5, 10, seed=s),
       f"seed must be an int >= 0, got {s!r}")
      for id, s in [("None", None), ("True", True), ("float", 1.5), ("str", "x"),
                    ("negative", -1)]),
    # the q=2 grid draws nothing, but takes the seed rule of every other draw
    ("grid-q2-seed-None", lambda: grid_max_joint_entropy(2, 0.5, seed=None),
     "seed must be an int >= 0, got None"),
    ("grid-q3-seed-negative", lambda: grid_max_joint_entropy(3, 0.5, seed=-1),
     "seed must be an int >= 0, got -1"),
    # 2.0 == 2 is in GRID_QS, so the alphabet rule must come first
    ("grid-q-float", lambda: grid_max_joint_entropy(2.0, 0.5),
     "alphabet size must be an int, got 2.0"),
    ("grid-refinements-negative", lambda: grid_max_joint_entropy(3, 0.5, refinements=-5),
     f"refinements must lie in [0, {SAMPLES // 18}], got -5"),
    # the step's interval is closed and starts at the per-q floor, above 0
    ("grid-resolution-0", lambda: grid_max_joint_entropy(2, 0.5, 0.0),
     "resolution must lie in [1e-06, 0.5], got 0.0"),
    # a value that is not a number fails the interval rule, not a comparison
    *((id, call, f"theta must lie in [1/q, 1], got {theta!r}") for id, call, theta in [
        ("two_level-theta", lambda: two_level_point(3, 0.2, 1), 0.2),
        ("monotonicity-theta", lambda: two_level_monotonicity(3, 0.3, 5), 0.3),
        ("envelope-theta", lambda: concave_envelope(0.2, 3), 0.2),
        ("max_joint_entropy-theta-str", lambda: max_joint_entropy("0.5", 3), "0.5"),
        ("envelope-theta-str", lambda: concave_envelope("x", 3), "x"),
        ("two_level-theta-None", lambda: two_level_point(3, None, 1), None),
        ("monotonicity-theta-str", lambda: two_level_monotonicity(3, "x", 5), "x"),
        ("sampler-theta-str", lambda: random_feasible_sampler(3, "x", 10), "x")]),
    ("output_entropy-theta-None", lambda: output_entropy(None, 3),
     "theta must lie in [0, 1], got None"),
    ("envelope_line-theta-None", lambda: envelope_line(None, 3),
     "theta must lie in [1/q, tangent_point(q)], got None"),
    ("witness-theta-str", lambda: cover_leung_witness(3, "0.4"),
     "theta must lie in [1/q, 2/(q+1)], got '0.4'"),
    ("grid-theta-None", lambda: grid_max_joint_entropy(3, None),
     "theta must lie in [0, 1], got None"),
    ("grid-resolution-str", lambda: grid_max_joint_entropy(3, 0.5, "0.1"),
     "resolution must lie in [0.001, 0.5], got '0.1'"),
    ("interpolate-theta-str", lambda: interpolate_to_theta((0.5, 0.5), (1.0, 0.0), "x"),
     "theta must lie in [0.4999999999, 0.5000000001], got 'x'"),
    ("interpolate-theta-above", lambda: interpolate_to_theta((0.9, 0.1), (0.9, 0.1), 0.95),
     "theta must lie in [0.4999999999, 0.8200000001000001], got 0.95"),
    ("interpolate-entry-str", lambda: interpolate_to_theta((0.5, "x"), (0.5, 0.5), 0.5),
     "probability entry 'x' is not a number"),
], untouched=NUMPY)

_GRID = "refused: --resolution sets the grid oracle's step; the grid covers q in {2, 3} only, got"
_THREADS = "union-channel codec: error: UNION_CHANNEL_THREADS:"


def _q_range(command, q):
    return f"union-channel {command}: error: argument --q: must be in [2, {MAX_ALPHABET}], got {q}"


def _sampler_cap(q, samples):
    return (f"refused: --samples {samples} at q={q} draws {samples * q} values; "
            f"samples * q must be at most {SAMPLES}")


CLI = _rows("test_cli::test_capacity_usage_error_q1", [
    ("", "capacity --q 1", _q_range("capacity", 1)),
]) + _rows("test_cli::test_every_q_option_stops_at_the_library_alphabet_cap", [
    *((command, f"{command} --q {MAX_ALPHABET + 1}", _q_range(command, MAX_ALPHABET + 1))
      for command in ("capacity", "lemma", "codec", "params")),
]) + _rows("test_cli::test_table_rejects_out_of_range", [
    ("", "table --q-max 1001",
     "union-channel table: error: argument --q-max: must be in [2, 1000], got 1001"),
]) + _rows("test_cli::test_lemma_refuses_bad_resolution_in_one_line", [
    *((f"{q}-{theta}-{step}-{text}", f"lemma --q {q} --theta {theta} --resolution {step}",
       f"refused: {text}") for q, theta, step, text in [
        ("2", "0.75", "0", "resolution must lie in [1e-06, 0.5], got 0.0"),
        ("2", "0.75", "-1", "resolution must lie in [1e-06, 0.5], got -1.0"),
        ("2", "0.75", "0.9", "resolution must lie in [1e-06, 0.5], got 0.9"),
        ("2", "0.75", "nan", "resolution must lie in [1e-06, 0.5], got nan"),
        ("3", "0.5", "1e-5", "resolution must lie in [0.001, 0.5], got 1e-05"),
        ("2", "0.75", "1e-8", "resolution must lie in [1e-06, 0.5], got 1e-08")]),
]) + _rows("test_cli::test_lemma_refuses_resolution_without_grid", [
    *((f"{q}-{step}", f"lemma --q {q} --theta 0.5 --samples 1000 --resolution {step}",
       f"{_GRID} q={q}") for q, step in [("4", "-5"), ("4", "0.01"), ("5", "nan")]),
]) + _rows("test_cli::test_lemma_refuses_sampler_above_cap_in_one_line", [
    *((f"{q}-{n}", f"lemma --q {q} --theta 0.5 --samples {n}", _sampler_cap(q, n))
      for q, n in [(2, SAMPLES // 2 + 1), (5, SAMPLES // 5 + 1), (4, 10**12)]),
]) + _rows("test_cli::test_lemma_refuses_negative_seed_at_parse_time", [
    *((q, f"lemma --q {q} --theta 0.5 --samples 10 --seed -1",
       "union-channel lemma: error: argument --seed: must be >= 0, got -1") for q in "235"),
]) + _rows("test_cli::test_lemma_refuses_bad_tolerance_at_parse_time", [
    *((tolerance, f"lemma --q 2 --theta 0.75 --tolerance {tolerance}",
       f"union-channel lemma: error: argument --tolerance: {text}") for tolerance, text in [
        ("nan", "must be finite and >= 0, got nan"), ("-1", "must be finite and >= 0, got -1"),
        ("inf", "must be finite and >= 0, got inf"),
        ("-inf", "must be finite and >= 0, got -inf"),  # once read as an option
        ("abc", "invalid float value: 'abc'")]),
]) + _rows("test_cli::test_lemma_infeasible_without_sampler", [
    ("", "lemma --q 4 --theta 0.5",
     "infeasible: the grid oracle covers q in {2, 3} only; use --samples for q=4"),
]) + _rows("test_cli::test_lemma_without_a_feasible_pair_says_so_in_one_line", [  # none accepted
    ("sampler", "lemma --q 4 --theta 0.9999 --samples 100",
     "infeasible: no feasible pair found at this theta"),
]) + _rows("test_cli::test_lemma_sampler_below_uniform_theta", [
    ("", "lemma --q 5 --theta 0.1 --samples 100",
     "infeasible: the sampler needs theta >= 1/q, got 0.1"),
]) + _rows("test_cli::test_lemma_refuses_across_options_before_any_oracle_runs", [
    # sampler below 1/q, a grid step at q=4, over the cap, no grid and no sampler, a
    # seed that nothing draws with, a tolerance with no closed form to compare
    ("argv0", "lemma --q 2 --theta 0.3 --samples 10",
     "infeasible: the sampler needs theta >= 1/q, got 0.3"),
    ("argv1", "lemma --q 3 --theta 0.2 --samples 10",
     "infeasible: the sampler needs theta >= 1/q, got 0.2"),
    ("argv2", "lemma --q 4 --theta 0.5 --resolution 0.01 --samples 10", f"{_GRID} q=4"),
    ("argv3", f"lemma --q 5 --theta 0.5 --samples {SAMPLES // 5 + 1}",
     _sampler_cap(5, SAMPLES // 5 + 1)),
    ("argv4", "lemma --q 4 --theta 0.5",
     "infeasible: the grid oracle covers q in {2, 3} only; use --samples for q=4"),
    ("argv5", "lemma --q 2 --theta 0.75 --resolution 0.01 --seed 9",
     "refused: --seed seeds the sampler and the q=3 grid; the q=2 grid is deterministic, "
     "so --seed at q=2 needs --samples"),
    ("argv6", "lemma --q 3 --theta 0.2 --resolution 0.1 --tolerance 0.5",
     "refused: --tolerance bounds the gap to the closed form, which exists only for "
     "theta >= 1/q; got theta=0.2 at q=3"),
], untouched=ORACLES) + _rows("test_cli::test_codec_refuses_infeasible", [
    ("", "codec --q 2 --n 17 --m 17 --B 1",
     "refused: infeasible (q=2, n=17, m=17): lhs=131072 rhs=1"),
]) + _rows("test_cli::test_codec_refuses_bad_params_in_one_line", [
    *((f"{q}-{n}-{m}-{text}", f"codec --q {q} --n {n} --m {m} --B 1", f"refused: {text}")
      for q, n, m, text in [("300", 3, 2, f"q must lie in [2, {MAX_CODEC_ALPHABET}], got 300"),
                            ("2", 3, 5, "m must lie in [1, 3], got 5")]),
]) + _rows("test_cli::test_codec_thread_env_invalid", [
    # the variable is read before the first trial, so no pool starts
    ("", "codec --q 2 --n 5 --m 3 --B 1",
     f"{_THREADS} invalid int value: 'zero'", {"UNION_CHANNEL_THREADS": "zero"}),
], untouched=TRIALS) + _rows("test_cli::test_codec_thread_env_refused_at_parse_level", [
    *((id, "codec --q 2 --n 5 --m 3 --B 1", f"{_THREADS} {text}", {"UNION_CHANNEL_THREADS": raw})
      for id, raw, text in [
        ("0", "0", f"must be in [1, {MAX_WORKERS}], got 0"),
        ("-1", "-1", f"must be in [1, {MAX_WORKERS}], got -1"),
        (str(MAX_WORKERS + 1), str(MAX_WORKERS + 1),
         f"must be in [1, {MAX_WORKERS}], got {MAX_WORKERS + 1}"),
        ("nan", "nan", "invalid int value: 'nan'"),
        ("1e300", "1e300", "invalid int value: '1e300'"),
        ("400-digit", "1" * 400, f"must be in [1, {MAX_WORKERS}], got {'1' * 400}"),
        ("abc", "abc", "invalid int value: 'abc'")]),
], untouched=TRIALS) + _rows("test_cli::test_codec_refuses_negative_seed_at_parse_time", [
    # random.Random hashes abs(seed), so -5 would silently rerun seed 5
    ("", "codec --q 2 --n 5 --m 3 --B 1 --seed -5",
     "union-channel codec: error: argument --seed: must be >= 0, got -5"),
]) + _rows("test_cli::test_params_n_max_cap", [
    ("", f"params --q 2 --n-max {CAP + 1}",
     f"union-channel params: error: argument --n-max: must be in [1, {CAP}], got {CAP + 1}"),
]) + _rows(NEW, [
    ("codec-trials-past-cap", f"codec --q 2 --n 5 --m 3 --B 1 --trials {MAX_TRIALS + 1}",
     "union-channel codec: error: argument --trials: "
     f"must be in [1, {MAX_TRIALS}], got {MAX_TRIALS + 1}"),
], untouched=TRIALS) + _rows(NEW, [
    # a negative float as its own word once got argparse's "expected one argument"
    *((f"lemma-{option}{value}-{id}", f"lemma --q 3 {theta}--{option}{sep}{value}",
       f"union-channel lemma: error: argument --{option}: {text}, got {value}")
      for theta, option, value, text in [
          ("--theta 0.5 ", "tolerance", "-inf", "must be finite and >= 0"),
          ("--theta 0.5 ", "tolerance", "-1e-3", "must be finite and >= 0"),
          ("", "theta", "-inf", "must be in [0, 1]")]
      for id, sep in [("word", " "), ("equals", "=")]),
], untouched=ORACLES)

ROWS = ENTROPY + CAPACITY + CODEC + ORACLE + CLI
