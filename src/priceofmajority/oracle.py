"""Exhaustive ground truth over all 2^t proposals.

Proposals are bitmasks, visited one Y-count level k at a time from k = t
down; a level is skipped when the voters that can reach it weigh less than
n/2 (one with l Ys agrees with a k-Y proposal on at most t - |k - l| topics).
A level's masks are joined from popcount-grouped tables of the low and high
halves of the bits, in blocks of at most ``_CHUNK`` (never 2^t at once), and
their supporter weights come from a vectorized XOR + popcount scan. Match
counts add up over the topics and are read from two half tables of the
column tally. ``md_of`` stops at the first level with a supported proposal,
``best_representation`` once no lower level can beat the best found. No scan
runs when an O(rows*t) check gives the answer: ``md_of`` is t when all-Y has
majority support, and ``best_representation`` returns the column-majority
proposal when it has majority support.

Rational weights are scaled to integers by their common denominator and
results are mapped back to the matrix's units, once per distinct value; sums
are int64 while the scaled n*t < 2^62 and Python ints (``dtype=object``)
beyond, on the same code.
Of any proposal and its opposite at least one has majority support (their
supporter weights sum to at least n), so every maximum here is over a nonempty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .core import (
    ParameterError,
    Proposal,
    ResourceLimitError,
    VoterMatrix,
    column_tally,
    has_majority_support,
    matches,
    relative_representativeness,
    support_threshold,
    supporter_weight,
)
from .matrixio import scale_to_integer_weights

DEFAULT_TOPIC_CAP = 24
HARD_TOPIC_CAP = 30
_CHUNK = 1 << 20


@dataclass(frozen=True)
class OracleResult:
    best_proposal: Proposal
    value: object
    supporter_weight: object


def _check_cap(matrix: VoterMatrix, max_topics: int | None) -> None:
    cap = DEFAULT_TOPIC_CAP if max_topics is None else max_topics
    if cap > HARD_TOPIC_CAP:
        raise ParameterError(f"topic cap cannot exceed {HARD_TOPIC_CAP}")
    if matrix.t > cap:
        raise ResourceLimitError(
            f"enumeration over 2^{matrix.t} proposals exceeds the cap of {cap} topics"
        )


def proposal_stats(matrix: VoterMatrix) -> tuple[list, list]:
    """Supporter weight and match count for every proposal mask 0..2^t-1.

    Intended for small t (hard limit 20); the level search below should be
    used for anything larger. Values are in the matrix's own weight units:
    ints for an integer matrix as they are, otherwise each distinct integer
    sum is converted to a Fraction once and shared by its masks.
    """
    if matrix.t > 20:
        raise ResourceLimitError("proposal_stats materializes 2^t values; t > 20")
    scaled, unit, dtype = _integer(matrix)
    masks = np.arange(1 << matrix.t, dtype=np.int64)
    supp = _scan(scaled.rows, matrix.t, masks, dtype).tolist()
    match = _matcher(column_tally(scaled).y_weights, scaled.n, dtype)(masks).tolist()
    if scaled is matrix:  # integer weights: the sums are in the matrix's units already
        return supp, match
    return _in_units(supp, unit), _in_units(match, unit)


def _in_units(values: list, unit: Fraction) -> list:
    """``values`` times ``unit``, one multiplication per distinct value."""
    converted = {x: x * unit for x in set(values)}
    return [converted[x] for x in values]


def _integer(matrix: VoterMatrix):
    """(integer-weight copy, unit, dtype): one integer weight is worth ``unit``.

    ``unit`` is 1 for integer matrices and Fraction(1, scale) otherwise, so
    results come back in the matrix's own number type; sums are held in dtype.
    """
    scaled, scale = scale_to_integer_weights(matrix)
    unit = 1 if scaled is matrix else Fraction(1, scale)  # an integer matrix comes back as is
    dtype = np.int64 if scaled.n * scaled.t < 2**62 else object  # n*t bounds every sum
    return scaled, unit, dtype


def _scan(rows, t: int, masks, dtype):
    """Supporter weights, summed in ``dtype``, of ``masks`` from integer-weight ``rows``."""
    reach = t - support_threshold(t)
    supp = np.zeros(masks.size, dtype=dtype)
    for row in rows:
        supp += row.weight * (np.bitwise_count(masks ^ row.mask) <= reach).astype(dtype)
    return supp


def _matcher(ys, n: int, dtype):
    """Match counts of an array of masks: with h = t // 2, those of the low h
    topics plus those of the rest, each read from a table of 2^(t/2) sums."""
    h, tables = len(ys) // 2, []
    for half in (ys[:h], ys[h:]):
        table = np.array([sum(n - y for y in half)], dtype=dtype)
        for y in half:  # the masks with this topic's bit set gain 2*y - n
            table = np.concatenate([table, table + (2 * y - n)])
        tables.append(table)
    return lambda masks: tables[0][masks & ((1 << h) - 1)] + tables[1][masks >> h]


def _level(k: int, low, high):
    """Yield the masks with k ones in blocks of at most _CHUNK, joining each
    high half with k - j ones (``high[k - j]``) to each low half with j."""
    parts = []
    for j in range(max(0, k - len(high) + 1), min(len(low), k + 1)):
        los, his = low[j], high[k - j][:, None]
        step = max(1, _CHUNK // los.size)
        for b in range(0, his.size, step):
            for a in range(0, los.size, _CHUNK):
                part = (his[b : b + step] | los[a : a + _CHUNK]).ravel()
                if sum(x.size for x in parts) + part.size > _CHUNK:
                    yield np.concatenate(parts)
                    parts = []
                parts.append(part)
    yield np.concatenate(parts)


def _levels(matrix: VoterMatrix, dtype, top: int):
    """Yield (k, blocks) for each level k = top..0 whose possible supporters
    weigh at least n/2; ``blocks`` lazily yields (masks, supporter weights)."""
    t, h = matrix.t, matrix.t // 2
    reach = t - support_threshold(t)
    masks = np.arange(1 << (t - h), dtype=np.int64)  # t - h >= h bits
    counts = np.bitwise_count(masks)
    low = [masks[: 1 << h][counts[: 1 << h] == j] for j in range(h + 1)]
    high = [masks[counts == j] << h for j in range(t - h + 1)]
    for k in range(top, -1, -1):
        near = [r for r in matrix.rows if abs(k - r.mask.bit_count()) <= reach]
        if 2 * sum(r.weight for r in near) >= matrix.n:
            yield k, ((m, _scan(near, t, m, dtype)) for m in _level(k, low, high))


def md_of(matrix: VoterMatrix, max_topics: int | None = None) -> int:
    """Maximum Y-count over all majority-supported proposals.

    Returns t without scanning when the all-Y proposal has majority support;
    otherwise the first level, from t - 1 down, with a supported proposal.
    """
    _check_cap(matrix, max_topics)
    t = matrix.t
    if has_majority_support(matrix, Proposal((1 << t) - 1, t)):
        return t
    scaled, _, dtype = _integer(matrix)
    for k, blocks in _levels(scaled, dtype, t - 1):
        if any(2 * supp.max() >= scaled.n for _, supp in blocks):
            return k
    raise AssertionError("no majority-supported proposal; pair-support violated")


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
        value, mask, supp = _best_by_scan(scaled, dtype, ys)
    return OracleResult(
        best_proposal=Proposal(mask, t),
        value=value * unit,
        supporter_weight=supp * unit,
    )


def _best_by_scan(matrix: VoterMatrix, dtype, ys) -> tuple[int, int, int]:
    """(matches, mask, supporter weight) of the best_representation winner."""
    n = matrix.n
    # cap[k]: the most matches with at most k Ys, sum(n - y_i) plus the k largest
    # gains max(2*y_i - n, 0); the search stops there, as a lower level loses ties
    gains = sorted((max(2 * y - n, 0) for y in ys), reverse=True)
    cap = list(accumulate(gains, initial=sum(n - y for y in ys)))
    match_of = _matcher(ys, n, dtype)
    best = (-1,)  # (matches, ones, -mask, supporter weight), maximized; masks are distinct
    for k, blocks in _levels(matrix, dtype, matrix.t):
        if cap[k] <= best[0]:
            break
        for masks, supp in blocks:
            match = np.where(2 * supp >= n, match_of(masks), -1)  # -1: unsupported
            top = np.flatnonzero(match == match.max())
            i = top[np.argmin(masks[top])]
            best = max(best, (int(match[i]), k, -int(masks[i]), int(supp[i])))
    if best[0] < 0:
        raise AssertionError("no majority-supported proposal; pair-support violated")
    return best[0], -best[2], best[3]


def r_V(matrix: VoterMatrix) -> Fraction:
    """Best relative representativeness of a majority-supported proposal.

    Requires canonical input (see ``core.canonicalize``), as r divides by the
    Y-weights; raises ParameterError when no column holds a Y.
    """
    best = best_representation(matrix).best_proposal
    return relative_representativeness(matrix, best)


def half_proposal(matrix: VoterMatrix) -> Proposal:
    """A majority-supported proposal with representativeness >= 1/2 - 1/t.

    Takes the maximal k (in the given topic order) such that agreeing with
    the majority on the first k topics and the minority on the rest stays at
    representativeness <= 1/2; that proposal and its opposite split the n*t
    opinions, so they straddle 1/2, and whichever has majority support is
    returned (preferring the larger representativeness when both qualify).
    Linear time on running match counts, no enumeration; requires canonical
    input.
    """
    ys = column_tally(matrix).y_weights
    t, n = matrix.t, matrix.n
    matched = sum(n - y for y in ys)
    k = 0
    while k < t and 2 * (matched + 2 * ys[k] - n) <= t * n:
        matched += 2 * ys[k] - n  # topic k moves from the minority to the majority
        k += 1
    p = Proposal((1 << k) - 1, t)
    if has_majority_support(matrix, p) and (
        2 * matched > t * n or not has_majority_support(matrix, p.opposite())
    ):
        return p
    return p.opposite()


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
