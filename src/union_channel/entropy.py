"""Shannon entropy primitives in base q and base 2, and a bisection root finder.

Every probability input is validated (entries nonnegative, unit sum within
``PROB_TOL``); inputs in this package come from closed forms, so a larger
drift signals a bug upstream. The ``0 * log 0 = 0`` convention is applied
by an explicit branch so degenerate distributions never produce a NaN.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

PROB_TOL = 1e-12
# the seed of every seeded draw in the package (codec trials, oracle searches)
# when the caller gives none
DEFAULT_SEED = 0x5EED


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an int >= 0.

    ``random.Random`` seeds with abs(x), so seed -3 would draw trial 0 of
    seed 3; numpy would draw from the OS's entropy for None, and refuse a
    float or a negative seed with its own errors.
    """
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")


ProbVector = Sequence[float]


def _check_masses(negative: float | None, total: float) -> None:
    """Refuse a vector by its first negative entry, else by its sum ``total``.

    A NaN entry makes the sum NaN, which fails the sum test as written.
    """
    if negative is not None:
        raise ValueError(f"negative probability entry {negative!r}")
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_TOL}")


def validate_pmf(probs: ProbVector) -> None:
    """Raise ValueError unless ``probs`` is a probability vector."""
    negative, total = None, 0.0
    for p in probs:
        if p < 0.0:
            negative = p
            break
        total += p
    _check_masses(negative, total)


def check_int(value: int, name: str) -> None:
    """Raise ValueError unless ``value`` is an int.

    A ``bool`` or a float of integral value is refused too, as NaN and 2.5 are.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_alphabet(q: int, minimum: int = 2) -> None:
    """Raise ValueError unless the alphabet size ``q`` is an int >= ``minimum``."""
    check_int(q, "alphabet size")
    if q < minimum:
        raise ValueError(f"alphabet size must be at least {minimum}, got {q}")


def entropy_q(probs: ProbVector, q: int) -> float:
    """Base-q Shannon entropy -sum(p * log_q p) of a probability vector."""
    return grouped_entropy(((p, 1) for p in probs), q)


def grouped_entropy(masses: Iterable[tuple[float, int]], q: int) -> float:
    """Base-q entropy of a vector built from ``(mass, multiplicity)`` groups.

    Each mass is split uniformly over ``multiplicity`` equal cells, so the
    result equals ``-sum(m_i * log_q(m_i / r_i))`` without expanding the
    vector. One pass checks and sums; a bad multiplicity anywhere is
    refused before a negative mass, and a negative mass before the sum.
    """
    check_alphabet(q)
    negative, mass, total = None, 0.0, 0.0
    for m, r in masses:
        if r != int(r) or r < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {r!r}")
        if m > 0.0:
            total += m * math.log(m / r)
        elif m < 0.0 and negative is None:
            negative = m
        mass += m
    _check_masses(negative, mass)
    return -total / math.log(q)


def binary_entropy(p: float) -> float:
    """Binary entropy H_b(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {p!r}")
    total = 0.0
    if p > 0.0:
        total += p * math.log2(p)
    if p < 1.0:
        total += (1.0 - p) * math.log2(1.0 - p)
    return -total


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection root of ``f`` on ``[lo, hi]``, within 200 halvings.

    The bracket must straddle a sign change; a same-sign bracket raises
    RuntimeError because every caller here constructs brackets that are
    guaranteed by a monotonicity argument. So does a bracket still wider
    than ``tol`` after 200 halvings, rather than return an unconverged root.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise RuntimeError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise RuntimeError(f"bracket [{lo}, {hi}] still wider than {tol} after 200 halvings")
