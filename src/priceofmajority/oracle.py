"""Exact optima over all 2^t proposals.

Proposals are bitmasks, grouped by their Y-count k. Level k's ceiling holds
the k topics with the largest gains 2*y_i - n, ties to the lower index: it
has the level's most matches and the smallest mask among the masks tied with
it, so a ceiling with majority support decides its level, and ``_search``
checks it before it searches the level, yielding each better supported mask.
``md_of`` stops at a level's first yield, ``best_representation`` takes its
last, and each first tries an O(rows*t) short-cut that needs no level at all.

No t is refused, but a search past ``_NODE_BUDGET`` nodes raises
ResourceLimitError. Weights are ints, so every sum is an int: int64 while
n*t < 2^62 and Python ints (``dtype=object``) beyond, on the same code. Of
any proposal and its opposite at least one has majority support (their
supporter weights sum to at least n), so every maximum here is over a
nonempty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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

# a node takes about 5 us at 160 voters (2-core x86 VM), so a refusal comes after about a second
_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class OracleResult:
    best_proposal: Proposal
    value: int
    supporter_weight: int


def proposal_stats(matrix: VoterMatrix) -> tuple[list[int], list[int]]:
    """Supporter weight and match count for every proposal mask 0..2^t-1.

    Intended for small t (hard limit ENUMERATION_TOPIC_CAP); ``md_of`` and
    ``best_representation`` search only the levels they need.
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


def _search(matrix: VoterMatrix, k: int, ceiling: int, most: int):
    """Yield (matches, -mask, supporter weight) of each better supported mask of
    level k (more matches, then a smaller mask), so the last is the level's best:
    the ``ceiling`` (``most`` matches) alone when it has majority support. Else
    nothing is built when the voters that can reach level k weigh under n/2 (an
    l-voter agrees with a k-Y mask on at most t - |k - l| topics).

    Depth first over the topics by gain, highest first and ties from the highest
    index, with N first where it keeps the match bound (the decided part plus the
    kl largest gains left), so the first leaf is the ceiling. A voter with a
    agreements on the decided topics and Y_v Ys left can reach a + left -
    |Y_v - kl|; a node is cut when the voters that reach the threshold weigh
    under n/2, or when its (match bound, -smallest mask) does not beat the best.
    """
    t, n = matrix.t, matrix.n
    supp = supporter_weight(matrix, Proposal(ceiling, t))
    if 2 * supp >= n:
        yield most, -ceiling, supp
        return
    s = support_threshold(t)
    near = [r for r in matrix.rows if abs(k - r.mask.bit_count()) <= t - s]
    if 2 * sum(r.weight for r in near) < n:
        return
    ys = matrix.y_weights
    order = sorted(range(t), key=lambda i: (2 * ys[i] - n, i), reverse=True)
    gains = [2 * ys[i] - n for i in order]
    top = list(accumulate(gains, initial=0))
    rest = list(accumulate((1 << i for i in reversed(order)), initial=0))[::-1]
    ones = np.array([[r.mask >> i & 1 for r in near] for i in order], dtype=np.int64)
    left_ys = np.concatenate([ones[::-1].cumsum(axis=0)[::-1], ones[:1] * 0])
    weights = np.array([r.weight for r in near], dtype=_dtype(matrix))
    best, nodes = None, 0
    stack = [(0, k, 0, sum(n - y for y in ys), np.zeros(len(near), dtype=np.int64))]
    while stack:
        d, kl, mask, fixed, agree = stack.pop()
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise ResourceLimitError(
                f"searching level {k} of {t} topics passed {_NODE_BUDGET} nodes"
            )
        bound, left = fixed + top[d + kl] - top[d], t - d
        if best and bound <= best[0]:
            low = rest[d]
            for _ in range(kl):  # clear the kl lowest topics left: low ^ rest[d] holds them
                low &= low - 1
            if bound < best[0] or mask | (low ^ rest[d]) >= -best[1]:
                continue
        supp = weights[np.abs(left_ys[d] - kl) <= agree + (left - s)].sum()
        if 2 * supp < n:
            continue
        if kl in (0, left):  # a leaf: the rest is decided, and reach is support
            best = (bound, -(mask | (rest[d] if kl else 0)), int(supp))
            yield best
            continue
        y_child = (d + 1, kl - 1, mask | 1 << order[d], fixed + gains[d], agree + ones[d])
        n_child = (d + 1, kl, mask, fixed, agree + 1 - ones[d])
        stack += (y_child, n_child) if gains[d] == gains[d + kl] else (n_child, y_child)


def _ceilings(ys, n) -> tuple[list[int], list]:
    """(ceiling masks, most matches) of each level k = 0..t: the most are
    sum(n - y_i) plus the gains of the ceiling's k topics."""
    order = sorted(range(len(ys)), key=lambda i: -ys[i])  # stable: ties keep index order
    ceiling = list(accumulate((1 << i for i in order), initial=0))  # distinct bits add
    most = list(accumulate((2 * ys[i] - n for i in order), initial=sum(n - y for y in ys)))
    return ceiling, most


def md_of(matrix: VoterMatrix) -> int:
    """Maximum Y-count over all majority-supported proposals: t when all-Y has
    majority support, else the first level from t - 1 down where a search
    yields a supported mask; each search stops at its first."""
    t = matrix.t
    if has_majority_support(matrix, Proposal((1 << t) - 1, t)):
        return t
    ceiling, most = _ceilings(matrix.y_weights, matrix.n)
    for k in range(t - 1, -1, -1):
        if next(_search(matrix, k, ceiling[k], most[k]), None):
            return k
    raise AssertionError("no majority-supported proposal; pair-support violated")


def best_representation(matrix: VoterMatrix) -> OracleResult:
    """Majority-supported proposal maximizing the match count.

    Ties are broken toward the larger Y-count, then the lexicographically
    smallest bitmask, so identical inputs always yield identical witnesses.

    The column-majority proposal (Y exactly where 2*y_i >= n) maximizes the
    match count and, among the proposals tied with it, has the most Ys; when
    it has majority support it is the answer and no search runs. Otherwise the
    levels are searched best first, by the matches of their ceilings and then
    their Y-counts, until a level cannot beat the best found (a tie goes to the
    higher level): after a ceiling with majority support, the next level cannot.
    """
    t, n = matrix.t, matrix.n
    majority = Proposal(sum(1 << i for i, y in enumerate(matrix.y_weights) if 2 * y >= n), t)
    supp = supporter_weight(matrix, majority)
    if 2 * supp >= n:
        return OracleResult(majority, matches(matrix, majority), supp)
    ceiling, most = _ceilings(matrix.y_weights, n)
    best = (-1,)  # (matches, ones, -mask, supporter weight), maximized
    for m, k in sorted(zip(most, range(t + 1)), reverse=True):
        if (m, k) < best[:2]:  # neither this level nor any after it can beat the best
            break
        for found in _search(matrix, k, ceiling[k], m):
            best = max(best, (found[0], k, *found[1:]))
    if best[0] < 0:
        raise AssertionError("no majority-supported proposal; pair-support violated")
    return OracleResult(Proposal(-best[2], t), best[0], best[3])


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
