"""Capacities and zero-error coding for the two-user union channel.

The channel takes a symbol from each of two senders over the alphabet
[q] = {1, ..., q} and outputs their unordered union {x1, x2}. This package
computes the exact symmetric capacity with complete feedback for every q,
cross-checks the entropy-maximization machinery behind it with independent
brute-force oracles, and runs an executable zero-error feedback coding
scheme with full decoding and rate accounting.

This namespace re-exports the public functions, ``CodeParams`` and ``STAR``; result
and error types such as ``CapacityReport`` are imported from their modules.
"""

from .capacity import (
    avg_capacity_no_feedback,
    avg_feedback_capacity,
    case_discriminant,
    concave_envelope,
    cover_leung_witness,
    envelope_line,
    max_joint_entropy,
    output_entropy,
    tangent_point,
    top_symbol_mass,
)
from .codec import (
    STAR,
    CodeParams,
    best_params,
    channel,
    decode_transcript,
    new_session,
    pattern_count,
    rank_pattern,
    report_jsonl_lines,
    resolution_digits,
    run_block,
    run_final_block,
    simulate,
    uncertainty_peak_bound,
    unrank_pattern,
    validate_params,
)
from .entropy import binary_entropy, entropy_q, grouped_entropy, rate_root
from .oracle import (
    grid_max_joint_entropy,
    interpolate_to_theta,
    random_feasible_sampler,
    two_level_monotonicity,
    two_level_point,
    two_level_value,
)

__version__ = "0.1.0"
