"""Shannon entropy primitives in base q and base 2, a bisection root finder, the
zero-error rate root built from both, and the package's numeric input rules, each
written once: an int, an alphabet size, a count, an interval (``check_between``) and a
probability vector (the one pass of :func:`grouped_entropy`, which ``validate_pmf``
runs). Entries must be nonnegative numbers summing to 1 within ``PROB_TOL``: inputs
here come from closed forms, so a larger drift signals a bug upstream. An explicit
branch applies ``0 * log 0 = 0``, so degenerate distributions never produce a NaN.
"""

from __future__ import annotations

import math
from itertools import repeat
from numbers import Real
from typing import Callable, Iterable, Sequence

PROB_TOL = 1e-12
# the seed of every seeded draw in the package (codec trials, oracle searches)
# when the caller gives none
DEFAULT_SEED = 0x5EED
# the largest alphabet size: up to it the true gain r_feedback - r_no_feedback,
# about (1 - ln 2) / (2 q ln q), is at least 5.6e-15, 50 ulps of r, so the float
# rates keep their order; at 2**53 the gain is 0.004 ulp and they read equal
MAX_ALPHABET = 10**12


ProbVector = Sequence[float]


def validate_pmf(probs: ProbVector) -> None:
    """Raise ValueError unless ``probs`` is a probability vector."""
    entropy_q(probs, 2)


def _shown(value: object) -> str:  # repr, or a stand-in for an int too long for it
    try:
        return repr(value)
    except ValueError:  # past the interpreter's limit on int-to-str digits
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


def check_int(value: int, name: str) -> None:
    """Raise ValueError unless ``value`` is an int.

    A ``bool`` or a float of integral value is refused too, as NaN and 2.5 are.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {_shown(value)}")


def check_count(value: int, name: str, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an int >= ``minimum`` (not a bool).

    A seed is a count from 0: ``random.Random`` seeds with abs(x), so seed -3
    would draw trial 0 of seed 3; numpy would draw from the OS's entropy for
    None, and refuse a float or a negative seed with its own errors.
    """
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {_shown(value)}")


def check_alphabet(q: int, minimum: int = 2) -> None:
    """Raise ValueError unless the alphabet size ``q`` is an int in [minimum, MAX_ALPHABET]."""
    if type(q) is not int or not minimum <= q <= MAX_ALPHABET:  # one test on every call
        check_int(q, "alphabet size")
        bound = f"at least {minimum}" if q < minimum else f"at most {MAX_ALPHABET}"
        raise ValueError(f"alphabet size must be {bound}, got {_shown(q)}")


def check_between(
    value: float, lo: float, hi: float, shown: str | None = None, name: str = "theta"
) -> None:
    """Raise ValueError unless lo <= value <= hi (an int, if both bounds are ints).

    The value must be a real number: a str, None, NaN or ``Decimal`` is refused too,
    and so is a bool or a numpy bool, as ``check_int`` refuses a bool. Only a
    refusal prints the interval: as ``shown``, a literal for a symbolic bound, or as
    ``[lo, hi]``, whole floats as ints.
    """
    if type(lo) is type(hi) is int:
        check_int(value, name)
    kind = type(value)
    try:  # float and int first: an isinstance test against Real costs several whole calls
        inside = lo <= value <= hi and (
            kind is float or kind is int or kind is not bool and isinstance(value, Real)
        )
    except TypeError:
        inside = False
    if not inside:
        lo, hi = (int(b) if type(b) is float and b.is_integer() else b for b in (lo, hi))
        shown = shown or f"[{_shown(lo)}, {_shown(hi)}]"
        raise ValueError(f"{name} must lie in {shown}, got {_shown(value)}")


def entropy_q(probs: ProbVector, q: int) -> float:
    """Base-q Shannon entropy -sum(p * log_q p) of a probability vector."""
    try:
        units = zip(probs, repeat(1))
    except TypeError:  # not an iterable: grouped_entropy refuses it
        units = probs
    return grouped_entropy(units, q)


def grouped_entropy(masses: Iterable[tuple[float, int]], q: int) -> float:
    """Base-q entropy of a vector built from ``(mass, multiplicity)`` groups.

    Each mass is split uniformly over ``multiplicity`` equal cells, so the
    result equals ``-sum(m_i * log_q(m_i / r_i))`` without expanding the
    vector. This one pass is the package's mass check: an input that is not
    an iterable, a group that is not a pair, a multiplicity that is not an
    int >= 1, or a mass that is not a number, is refused where the pass meets
    it; then the first negative mass, then the sum.
    """
    check_alphabet(q)
    negative, mass, total = None, 0.0, 0.0
    try:
        groups = iter(masses)
    except TypeError:
        raise ValueError(f"probabilities must be an iterable, got {_shown(masses)}") from None
    for group in groups:
        try:
            m, r = group
        except (TypeError, ValueError):
            raise ValueError(f"probability group must be a (mass, multiplicity) pair, "
                             f"got {_shown(group)}") from None
        del group  # so entropy_q's zip can reuse its pair tuple
        if type(r) is not int or r < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {_shown(r)}")
        try:
            mass += m
            if m > 0.0 and (cell := m / r) > 0.0:  # a share that underflows adds 0 log 0
                total += m * math.log(cell)
            elif m < 0.0 and negative is None:
                negative = m
        except TypeError:
            raise ValueError(f"probability entry {m!r} is not a number") from None
        except OverflowError:  # an int past float range: m, or r, which m / r needs
            if isinstance(m, int):  # m / r overflows only for a float m, so mass += m did
                raise ValueError(f"probability entry is an int of {m.bit_length()} bits, "
                                 f"past float range") from None
            total += m * (math.log(m) - math.log(r))  # math.log takes ints
    if negative is not None:
        raise ValueError(f"negative probability entry {negative!r}")
    if not abs(mass - 1.0) <= PROB_TOL:  # so is a NaN entry, which makes the sum NaN
        raise ValueError(f"probabilities sum to {mass!r}, expected 1 within {PROB_TOL}")
    return -total / math.log(q)


def binary_entropy(p: float) -> float:
    """Binary entropy H_b(p) in bits."""
    check_between(p, 0.0, 1.0, name="binary entropy argument")
    return unchecked_binary_entropy(p)


def unchecked_binary_entropy(p: float) -> float:
    """:func:`binary_entropy` without its input check, for p known to lie in [0, 1]."""
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


def rate_root(q: int) -> float:
    """Root of H_b(a) + (1 - a) * log2(q) = 1 on (1/2, 1].

    The left side is strictly decreasing there, so the root is unique; it is
    the asymptotic rate of the scheme and a lower bound on the zero-error
    feedback rate. Its steps lie in [1/2, 1] and skip ``binary_entropy``'s check.
    """
    check_alphabet(q)
    lg = math.log2(q)
    return bisect_root(lambda a: unchecked_binary_entropy(a) + (1.0 - a) * lg - 1.0, 0.5, 1.0)
