"""Exhaustive ground truth over all 2^t proposals.

Enumerates proposals as bitmasks 0..2^t-1 and evaluates agreements with
bitwise XOR + popcount against the (weighted) voter rows in one vectorized
numpy scan. Rational weights are scaled to integers by their common
denominator and results are mapped back to the matrix's units; sums are int64
while the scaled n*t < 2^62 and Python ints (``dtype=object``) beyond, on the
same code.
No scan runs when the answer is known from an O(rows*t) check: ``md_of`` is t
when all-Y has majority support, and ``best_representation`` returns the
column-majority proposal when it has majority support.

At least one of any proposal/opposite pair always has majority support (their
supporter weights sum to at least n), so the maxima computed here are taken
over a nonempty set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    ParameterError,
    Proposal,
    ResourceLimitError,
    VoterMatrix,
    absolute_representativeness,
    column_tally,
    has_majority_support,
    matches,
    support_threshold,
    supporter_weight,
)
from .matrixio import scale_to_integer_weights

DEFAULT_TOPIC_CAP = 24
HARD_TOPIC_CAP = 30
_CHUNK = 1 << 20


class Metric(Enum):
    MAX_MAJORITY_DECISIONS = "md"
    MAX_MATCHES = "matches"


@dataclass(frozen=True)
class OracleResult:
    best_proposal: Proposal
    value: object
    supporter_weight: object
    metric: Metric


def _check_cap(matrix: VoterMatrix, max_topics: int | None) -> None:
    cap = DEFAULT_TOPIC_CAP if max_topics is None else max_topics
    if cap > HARD_TOPIC_CAP:
        raise ParameterError(f"topic cap cannot exceed {HARD_TOPIC_CAP}")
    if matrix.t > cap:
        raise ResourceLimitError(
            f"enumeration over 2^{matrix.t} proposals exceeds the cap of {cap} topics"
        )
    if max_topics is not None and max_topics > DEFAULT_TOPIC_CAP:
        warnings.warn(
            f"enumerating 2^{matrix.t} proposals; this may take a while",
            stacklevel=3,
        )


def proposal_stats(matrix: VoterMatrix) -> tuple[list, list]:
    """Supporter weight and match count for every proposal mask 0..2^t-1.

    Intended for small t (hard limit 20); the scanning reductions below should
    be used for anything larger. Values are in the matrix's own weight units.
    """
    if matrix.t > 20:
        raise ResourceLimitError("proposal_stats materializes 2^t values; t > 20")
    scaled, unit, dtype = _integer(matrix)
    supp, match = [], []
    for _, s, m in _scan(scaled, dtype):
        supp.extend(x * unit for x in s.tolist())
        match.extend(x * unit for x in m.tolist())
    return supp, match


def _integer(matrix: VoterMatrix):
    """(integer-weight copy, unit, dtype): one integer weight is worth ``unit``.

    ``unit`` is 1 for integer matrices and Fraction(1, scale) otherwise, so
    results come back in the matrix's own number type; sums are held in dtype.
    """
    scaled, scale = scale_to_integer_weights(matrix)
    unit = 1 if matrix.has_integer_weights() else Fraction(1, scale)
    # n * t bounds every accumulated value
    dtype = np.int64 if scaled.n * scaled.t < 2**62 else object
    return scaled, unit, dtype


def _scan(matrix: VoterMatrix, dtype):
    """Yield (lo, supporter_weights, matches) per chunk of masks lo, lo+1, ...

    ``matrix`` has integer weights; both sums are accumulated in ``dtype``.
    """
    t = matrix.t
    threshold = support_threshold(t)
    rows = [(np.int64(r.mask), r.weight) for r in matrix.rows]
    for lo in range(0, 1 << t, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, 1 << t), dtype=np.int64)
        supp = np.zeros(masks.size, dtype=dtype)
        match = np.zeros(masks.size, dtype=dtype)
        for rmask, w in rows:
            agree = (t - np.bitwise_count(masks ^ rmask)).astype(dtype)
            supp += w * (agree >= threshold).astype(dtype)
            match += w * agree
        yield lo, supp, match


def md_of(matrix: VoterMatrix, max_topics: int | None = None) -> int:
    """Maximum Y-count over all majority-supported proposals.

    Returns t without scanning when the all-Y proposal has majority support.
    """
    _check_cap(matrix, max_topics)
    t = matrix.t
    if has_majority_support(matrix, Proposal((1 << t) - 1, t)):
        return t
    scaled, _, dtype = _integer(matrix)
    best = -1
    for lo, supp, _ in _scan(scaled, dtype):
        ok = np.flatnonzero(2 * supp >= scaled.n)
        if ok.size:
            best = max(best, int(np.bitwise_count(ok + lo).max()))
    if best < 0:
        raise AssertionError("no majority-supported proposal; pair-support violated")
    return best


def best_representation(
    matrix: VoterMatrix, max_topics: int | None = None
) -> OracleResult:
    """Majority-supported proposal maximizing the match count.

    Ties are broken toward the larger Y-count, then the lexicographically
    smallest bitmask, so identical inputs always yield identical witnesses.

    The column-majority proposal (Y exactly where 2*y_i >= n) maximizes the
    match count and, among the proposals tied with it, has the most Ys; when
    it has majority support it is the answer and no scan runs.
    """
    _check_cap(matrix, max_topics)
    scaled, unit, dtype = _integer(matrix)
    t, n = scaled.t, scaled.n
    ys = column_tally(scaled).y_weights
    majority = Proposal(sum(1 << i for i, y in enumerate(ys) if 2 * y >= n), t)
    supp = supporter_weight(scaled, majority)
    if 2 * supp >= n:
        value, mask = matches(scaled, majority), majority.mask
    else:
        value, mask, supp = _best_by_scan(scaled, dtype)
    return OracleResult(
        best_proposal=Proposal(mask, t),
        value=value * unit,
        supporter_weight=supp * unit,
        metric=Metric.MAX_MATCHES,
    )


def _best_by_scan(matrix: VoterMatrix, dtype) -> tuple[int, int, int]:
    """(matches, mask, supporter weight) of the best_representation winner."""
    best = None  # (matches, ones, -mask, supporter weight) maximized; masks are distinct
    for lo, supp, match in _scan(matrix, dtype):
        ok = np.flatnonzero(2 * supp >= matrix.n)
        if ok.size:
            top = ok[match[ok] == match[ok].max()]
            # argmax picks the first index with the most Ys: the smallest such mask
            i = int(top[np.argmax(np.bitwise_count(top + lo))])
            mask = lo + i
            cand = (int(match[i]), mask.bit_count(), -mask, int(supp[i]))
            if best is None or cand > best:
                best = cand
    if best is None:
        raise AssertionError("no majority-supported proposal; pair-support violated")
    return best[0], -best[2], best[3]


def r_V(matrix: VoterMatrix, max_topics: int | None = None) -> Fraction:
    """Best relative representativeness of a majority-supported proposal."""
    result = best_representation(matrix, max_topics)
    tally = column_tally(matrix)
    return Fraction(result.value) / (Fraction(matrix.n) * matrix.t * tally.m_V)


def half_proposal(matrix: VoterMatrix) -> Proposal:
    """A majority-supported proposal with representativeness >= 1/2 - 1/t.

    Takes the maximal k (in the given topic order) such that agreeing with
    the majority on the first k topics and the minority on the rest stays at
    representativeness <= 1/2; that proposal and its opposite then straddle
    1/2, and whichever has majority support is returned (preferring the
    larger representativeness when both qualify). Linear time, no
    enumeration; requires canonical input.
    """
    tally = column_tally(matrix)
    t = matrix.t
    total = sum(Fraction(1) - tally.m(i) for i in range(t))
    k = 0
    while k < t:
        candidate = total + 2 * tally.m(k) - 1  # swap topic k from minority to majority
        if candidate > Fraction(t, 2):
            break
        total = candidate
        k += 1
    p = Proposal((1 << k) - 1, t)
    q = p.opposite()
    p_ok = has_majority_support(matrix, p)
    q_ok = has_majority_support(matrix, q)
    if p_ok and q_ok:
        return (
            p
            if absolute_representativeness(matrix, p)
            > absolute_representativeness(matrix, q)
            else q
        )
    return p if p_ok else q


def rule_of_three_fourths_check(matrix: VoterMatrix) -> bool:
    """Whether an average majority of >= 3/4 implies the all-Y proposal is supported.

    Vacuously true when the average majority is below 3/4; expected to hold
    for every canonical matrix.
    """
    tally = column_tally(matrix)
    if tally.m_V < Fraction(3, 4):
        return True
    all_y = Proposal((1 << matrix.t) - 1, matrix.t)
    return has_majority_support(matrix, all_y)
