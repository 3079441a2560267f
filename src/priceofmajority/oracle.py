"""Exhaustive ground truth over all 2^t proposals.

Proposals are bitmasks, grouped by their Y-count k. Level k's ceiling holds
the k topics with the largest gains 2*y_i - n, ties to the lower index: it
has the level's most matches and the smallest mask among the masks tied with
it, so a ceiling with majority support decides its level. A level that its
ceiling leaves open is scanned (``_level``) unless the voters that can reach
it weigh less than n/2 (one with l Ys agrees with a k-Y proposal on at most
t - |k - l| topics): its masks are joined from popcount groups of the low and
high halves of the bits, in blocks of at most ``_CHUNK`` (never 2^t at once),
and their supporter weights come from a vectorized XOR + popcount scan. Match
counts add up over the topics and are read from two half tables of the column
tally. ``md_of`` returns the first level, from t - 1 down, whose ceiling or
scan shows a supported proposal. ``best_representation`` visits the levels
best first, by (ceiling matches, Y-count), and stops at the first level that
cannot beat the best found, as a tie goes to the higher level. Before any of
this, an O(rows*t) check may give the answer: ``md_of`` is t when all-Y has
majority support, and ``best_representation`` returns the column-majority
proposal when it has majority support.

No t is refused: a level that must be scanned and holds more than
``_SCAN_BUDGET`` = C(24, 12) masks or high halves raises ResourceLimitError
before it allocates, so any level can be scanned at t <= 24 and none at t > 42.

Weights are ints, so every sum is an int: the sums are int64 while
n*t < 2^62 and Python ints (``dtype=object``) beyond, on the same code.
Of any proposal and its opposite at least one has majority support (their
supporter weights sum to at least n), so every maximum here is over a nonempty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

import numpy as np

from .core import (
    Proposal,
    ResourceLimitError,
    VoterMatrix,
    check_enumeration,
    column_tally,
    has_majority_support,
    matches,
    relative_representativeness,
    support_threshold,
    supporter_weight,
)

_CHUNK = 1 << 20
_SCAN_BUDGET = comb(24, 12)  # most masks of a scanned level, and most high halves


@dataclass(frozen=True)
class OracleResult:
    best_proposal: Proposal
    value: int
    supporter_weight: int


def proposal_stats(matrix: VoterMatrix) -> tuple[list[int], list[int]]:
    """Supporter weight and match count for every proposal mask 0..2^t-1.

    Intended for small t (hard limit ENUMERATION_TOPIC_CAP); the level search below should be
    used for anything larger.
    """
    check_enumeration(matrix.t, "proposal_stats")
    dtype = _dtype(matrix)
    masks = np.arange(1 << matrix.t, dtype=np.int64)
    supp = _scan(matrix.rows, matrix.t, masks, dtype).tolist()
    match = _matcher(matrix.y_weights, matrix.n, dtype)(masks).tolist()
    return supp, match


def _dtype(matrix: VoterMatrix):
    """The dtype that holds every sum of the matrix: n*t bounds each one."""
    return np.int64 if matrix.n * matrix.t < 2**62 else object


def _scan(rows, t: int, masks, dtype):
    """Supporter weights, summed in ``dtype``, of ``masks`` from ``rows``."""
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


def _level(matrix: VoterMatrix, k: int):
    """Yield (masks, supporter weights) of level k in blocks, each a run of high
    halves with k - j ones joined to every low half (the low h = t // 2 bits)
    with j ones: at most ``_CHUNK`` masks while ``_CHUNK`` >= C(h, h // 2).
    Nothing is yielded when the voters that can reach level k weigh under n/2;
    a level with more than ``_SCAN_BUDGET`` masks or high halves raises
    ResourceLimitError instead."""
    t, h = matrix.t, matrix.t // 2
    reach = t - support_threshold(t)
    near = [r for r in matrix.rows if abs(k - r.mask.bit_count()) <= reach]
    if 2 * sum(r.weight for r in near) < matrix.n:
        return
    size = max(comb(t, k), 1 << (t - h))
    if size > _SCAN_BUDGET:
        raise ResourceLimitError(
            f"scanning level {k} of {t} topics needs {size} masks; the budget is {_SCAN_BUDGET}"
        )
    masks = np.arange(1 << (t - h), dtype=np.int64)  # t - h >= h bits
    counts = np.bitwise_count(masks)
    for j in range(max(0, k - t + h), min(h, k) + 1):
        los = masks[: 1 << h][counts[: 1 << h] == j]
        his = (masks[counts == k - j] << h)[:, None]
        step = max(1, _CHUNK // los.size)
        for b in range(0, his.size, step):
            block = (his[b : b + step] | los).ravel()
            yield block, _scan(near, t, block, _dtype(matrix))


def _ceilings(ys, n) -> tuple[list[int], list]:
    """(ceiling masks, most matches) of each level k = 0..t.

    The ceiling of level k holds the k topics with the largest gains 2*y_i - n,
    ties to the lower topic index: of the k-Y proposals it has the most
    matches, sum(n - y_i) plus those k gains, and the smallest mask among them.
    """
    order = sorted(range(len(ys)), key=lambda i: -ys[i])  # stable: ties keep index order
    ceiling = list(accumulate((1 << i for i in order), initial=0))  # distinct bits add
    most = list(accumulate((2 * ys[i] - n for i in order), initial=sum(n - y for y in ys)))
    return ceiling, most


def md_of(matrix: VoterMatrix) -> int:
    """Maximum Y-count over all majority-supported proposals.

    Returns t without scanning when the all-Y proposal has majority support.
    Otherwise it walks the levels from t - 1 down and returns the first whose
    ceiling (see ``_ceilings``) has majority support or whose scan finds a
    supported mask; a scan stops at its first block that holds one, and a
    scan over the budget (see ``_level``) raises ResourceLimitError.
    """
    t = matrix.t
    if has_majority_support(matrix, Proposal((1 << t) - 1, t)):
        return t
    ceiling, _ = _ceilings(matrix.y_weights, matrix.n)
    for k in range(t - 1, -1, -1):
        if has_majority_support(matrix, Proposal(ceiling[k], t)) or any(
            2 * supp.max() >= matrix.n for _, supp in _level(matrix, k)
        ):
            return k
    raise AssertionError("no majority-supported proposal; pair-support violated")


def best_representation(matrix: VoterMatrix) -> OracleResult:
    """Majority-supported proposal maximizing the match count.

    Ties are broken toward the larger Y-count, then the lexicographically
    smallest bitmask, so identical inputs always yield identical witnesses.

    The column-majority proposal (Y exactly where 2*y_i >= n) maximizes the
    match count and, among the proposals tied with it, has the most Ys; when
    it has majority support it is the answer and no scan runs. Otherwise the
    levels are visited best first, by the matches of their ceilings (see
    ``_ceilings``) and then their Y-counts, and the walk stops at the first
    level that cannot beat the best found; a level whose ceiling has majority
    support is won by it, which ends the walk, and any other is scanned (or,
    over the budget of ``_level``, raises ResourceLimitError).
    """
    t, n = matrix.t, matrix.n
    majority = Proposal(sum(1 << i for i, y in enumerate(matrix.y_weights) if 2 * y >= n), t)
    supp = supporter_weight(matrix, majority)
    if 2 * supp >= n:
        value, mask = matches(matrix, majority), majority.mask
    else:
        value, mask, supp = _best_by_scan(matrix)
    return OracleResult(best_proposal=Proposal(mask, t), value=value, supporter_weight=supp)


def _best_by_scan(matrix: VoterMatrix) -> tuple[int, int, int]:
    """(matches, mask, supporter weight) of the best_representation winner."""
    t, n = matrix.t, matrix.n
    ceiling, most = _ceilings(matrix.y_weights, n)
    best, match_of = (-1,), None  # (matches, ones, -mask, supporter weight), maximized
    for m, k in sorted(zip(most, range(t + 1)), reverse=True):
        if (m, k) < best[:2]:  # neither this level nor any after it can beat the best
            break
        supp = supporter_weight(matrix, Proposal(ceiling[k], t))
        if 2 * supp >= n:  # the ceiling wins its level, and so beats every level after it
            best = (m, k, -ceiling[k], supp)
            break
        for masks, supp in _level(matrix, k):
            match_of = match_of or _matcher(matrix.y_weights, n, _dtype(matrix))
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
    ys = matrix.y_weights
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
    if column_tally(matrix).m_V < Fraction(3, 4):
        return True
    all_y = Proposal((1 << matrix.t) - 1, matrix.t)
    return has_majority_support(matrix, all_y)
