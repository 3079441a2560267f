"""Generators for the worst-case voter matrices behind each bound.

Every generator returns a weighted :class:`VoterMatrix`; brute-force checks
on them are therefore independent of the (often huge) nominal voter count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import lcm, sqrt

from .bounds import rt_analytic_upper
from .combinatorics import binomial, check_range, min_k
from .core import (
    ParameterError,
    TypeProfile,
    VoterMatrix,
    VoterRow,
    check_enumeration,
)
from .lpsolve import SupportRows


def lemma1_matrix(t: int) -> VoterMatrix:
    """t singleton-Y voters plus an all-Y block of weight t-1.

    Every column tallies t of n = 2t - 1 Ys, yet no majority-supported
    proposal can side with more than ceil((t+1)/2) majorities: the tight
    worst case for counting majority decisions.
    """
    rows = [VoterRow(1 << i, t) for i in range(t)]
    if t > 1:
        rows.append(VoterRow((1 << t) - 1, t, t - 1))
    return VoterMatrix(t, tuple(rows))


def theorem2_matrix(l: int) -> VoterMatrix:
    """The 3-topic family showing the relative-representativeness floor of 5/6.

    Three singleton voters with weight l each plus an all-Y block of weight
    3l - 1; the all-Y proposal narrowly misses majority support, and the best
    supported proposal achieves exactly (10l - 2)/(12l - 3) -> 5/6.
    """
    if l < 1:
        raise ParameterError("theorem2_matrix requires l >= 1")
    rows = (
        VoterRow(0b001, 3, l),
        VoterRow(0b010, 3, l),
        VoterRow(0b100, 3, l),
        VoterRow(0b111, 3, 3 * l - 1),
    )
    return VoterMatrix(3, rows)


def theorem3_matrix(t: int, k: int, M: int) -> VoterMatrix:
    """Equal-majority matrix: n = 2k+1 voters, every column with exactly M Ys.

    The bottom k voters are all-Y; the remaining (M - k) * t Ys are dealt to
    the top k+1 voters round-robin over the columns, so every column gets
    exactly M - k of them and row counts differ by at most one.
    """
    n = 2 * k + 1
    if not k + 1 <= M <= n:
        raise ParameterError(f"theorem3_matrix requires k+1 <= M <= 2k+1, got M={M}")
    total = (M - k) * t
    base, extra = divmod(total, k + 1)
    col = 0
    rows = []
    for i in range(k + 1):
        quota = base + (1 if i < extra else 0)
        mask = 0
        for _ in range(quota):
            mask |= 1 << col
            col = (col + 1) % t
        rows.append(VoterRow(mask, t))
    if k >= 1:
        rows.append(VoterRow((1 << t) - 1, t, k))
    matrix = VoterMatrix(t, tuple(rows))
    # cyclic dealing guarantees per-column balance; cheap to double-check
    if any(y != M for y in matrix.y_weights):
        raise AssertionError("column balance violated in theorem3_matrix")
    return matrix


def theorem3_rv_bound(t: int, k: int, M: int) -> Fraction:
    """Provable bound on r_V of theorem3_matrix(t, k, M).

    No proposal with x + ceil((t+1)/2) or more Ys (x the largest top-voter
    Y-count) gets any top-voter support, hence no majority; the best
    remaining proposal is bounded by this expression.
    """
    n = 2 * k + 1
    x = -(-((M - k) * t) // (k + 1))
    return 1 - Fraction(((t + 1) // 2 - x) * (2 * M - n), t * M)


def theorem3_proof_parameters(t: int) -> tuple[int, int]:
    """Smallest k, and then M, whose provable r_V bound undercuts the analytic limit.

    Follows the proof's "k and M sufficiently large with M/k near sqrt(3/2)":
    k runs upward, with M within 3 of round(sqrt(3/2) * k), so each k costs
    O(1) and the parameters stay usable at brute-force scale. For every
    t <= 466 this is also the smallest (k, M) over every M in (k, 2k + 1];
    parameters were found for every t from 3 to 3000 and at 5001 and 10001.
    """
    target = rt_analytic_upper(t)
    for k in count(2):
        centre = round(sqrt(1.5) * k)
        for M in range(max(k + 1, centre - 3), min(2 * k + 1, centre + 3) + 1):
            if theorem3_rv_bound(t, k, M) <= target:
                return k, M


def lemma7_matrix(t: int, w: int, n: int) -> VoterMatrix:
    """High-average-majority matrix with no majority-supported w-Y proposal.

    Top ceil(n/2) voters say Y exactly on the first w - ceil((t+1)/2) topics;
    the bottom floor(n/2) are all-Y. For odd n no proposal with w or more Ys
    has majority support (counted in this construction's Y-frame; columns
    outside the top block have an N-majority for odd n, so the matrix is not
    canonical there).
    """
    check_range(t, "w", w)
    if n < 1:
        raise ParameterError("lemma7_matrix requires n >= 1")
    a = w - min_k(t)
    rows = [VoterRow((1 << a) - 1, t, -(-n // 2))]
    if n // 2 >= 1:
        rows.append(VoterRow((1 << t) - 1, t, n // 2))
    return VoterMatrix(t, tuple(rows))


def vlp_matrix(t: int, w: int, profile: TypeProfile) -> VoterMatrix:
    """Topic-symmetric matrix realizing a feasible l-voter type profile.

    For each l with positive mass, all C(t, l) distinct l-voters appear with
    equal weight L * v_l / C(t, l), L the lcm of the denominators of these
    shares, so permuting topics maps the row multiset onto itself; the
    weights are ints with gcd 1, the total weight is L and the average
    majority equals the profile's objective value sum(l * v_l) / t.
    Feasibility (every k-proposal with k >= w supported by at most half the
    weight) is the LP solver's own primal check on its rows
    2 sum_l s_kl v_l <= C(t, k), so a boundary profile is accepted with
    supporter weight exactly L/2.
    """
    check_enumeration(t, "vlp_matrix")
    if profile.t != t:
        raise ParameterError(f"profile covers {profile.t} topics, expected {t}")
    check_range(t, "w", w)
    cut, _ = SupportRows.build(t, w).primal_check(dict(enumerate(profile.fractions)))
    if cut is not None:
        raise ParameterError(f"profile infeasible: k-proposal support exceeds half at k={cut}")
    shares = {l: v / binomial(t, l) for l, v in enumerate(profile.fractions) if v}
    scale = lcm(*(share.denominator for share in shares.values()))
    rows = []
    for l, share in shares.items():
        weight = int(share * scale)
        for positions in combinations(range(t), l):
            mask = 0
            for pos in positions:
                mask |= 1 << pos
            rows.append(VoterRow(mask, t, weight))
    return VoterMatrix(t, tuple(rows))
