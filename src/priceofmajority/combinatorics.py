"""Exact big-integer combinatorics for support counting.

``s_kl(t, k, l)`` counts the k-proposals supported by any fixed l-voter; the
count is well-defined because permuting topics maps l-voters onto each other
while leaving the set of k-proposals invariant. The closed formula is only
valid for k >= ceil((t+1)/2); :func:`s_kl_oracle` enumerates directly and
works for every k (at exponential cost). :func:`check_range` owns the range
ceil((t+1)/2) <= k <= t, shared by the ma LP's w; t >= 1 is
:func:`.core.check_topics`'s, and the 2^t cap :func:`.core.check_enumeration`'s.
"""

from __future__ import annotations

import math
from itertools import combinations

from .core import ParameterError, check_enumeration, check_topics, support_threshold


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ParameterError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def min_k(t: int) -> int:
    """Smallest k for which the s_kl formula (and the ma LP) is defined."""
    return _ceil_div(t + 1, 2)


def check_range(t: int, name: str, value: int) -> None:
    """Raise ParameterError unless t >= 1 and min_k(t) <= value <= t; ``name`` names the value."""
    check_topics(t)
    if not min_k(t) <= value <= t:
        raise ParameterError(f"{name} must lie in [{min_k(t)}, {t}], got {value}")


def s_kl(t: int, k: int, l: int) -> int:
    """Number of k-proposals supported by an l-voter, for k in [ceil((t+1)/2), t].

    A k-proposal sharing x Ys with the l-voter agrees with it on
    x + (t - l) - (k - x) topics, so it is supported iff
    x >= ceil((k + l - floor(t/2)) / 2). :func:`s_kl_oracle` counts them for
    general k.
    """
    check_range(t, "k", k)
    if not 0 <= l <= t:
        raise ParameterError(f"s_kl requires 0 <= l <= t, got l={l}")
    lo = max(0, _ceil_div(k + l - t // 2, 2))
    return sum(binomial(l, x) * binomial(t - l, k - x) for x in range(lo, k + 1))


def s_kl_row(t: int, k: int) -> list[int]:
    """The row [s_kl(t, k, l) for l = 0..t] by a recurrence in l.

    F(l, m), the number of k-proposals sharing at least m Ys with the voter's
    first l topics, obeys

        F(l+1, m) = F(l, m) + C(l, m-1) * C(t-l-1, k-m)
        F(l, m+1) = F(l, m) - C(l, m) * C(t-l, k-m)

    from F(0, 0) = C(t, k), and s_kl = F(l, lo(l)) with the threshold lo(l)
    of :func:`s_kl`, which rises by at most one per step in l. The binomials
    p = C(l, m) and q = C(t-l, k-m) move with (l, m) by one multiplication
    and one exact division each; a zero one is recomputed.
    """
    check_range(t, "k", k)
    comb = math.comb
    row = []
    m, f = 0, comb(t, k)
    p, q = 1, f  # C(l, m), C(t - l, k - m)
    for l in range(t + 1):
        if l:  # from l - 1 to l at this m
            n = t - l + 1
            q = q * (n - k + m) // n if q else comb(t - l, k - m)
            if m:
                f += (p * m // (l - m) if p else comb(l - 1, m - 1)) * q
            p = p * l // (l - m) if p else comb(l, m)
        lo = _ceil_div(k + l - t // 2, 2)
        while m < lo:
            f -= p * q
            p = p * (l - m) // (m + 1) if p else comb(l, m + 1)
            q = q * (k - m) // (t - l - k + m + 1) if q else comb(t - l, k - m - 1)
            m += 1
        row.append(f)
    return row


def s_kl_oracle(t: int, k: int, l: int, voter_mask: int | None = None) -> int:
    """Count supported k-proposals by direct enumeration over all C(t, k) of them.

    Defaults to the l-voter Y^l N^(t-l); any other l-voter mask can be passed
    to exercise the permutation invariance.
    """
    check_topics(t)
    check_enumeration(t, "s_kl_oracle")
    if not 0 <= k <= t or not 0 <= l <= t:
        raise ParameterError("s_kl_oracle requires 0 <= k, l <= t")
    if voter_mask is None:
        voter_mask = (1 << l) - 1
    elif not 0 <= voter_mask < 1 << t:
        raise ParameterError(f"voter_mask must lie in [0, 2^{t}), got {voter_mask}")
    elif voter_mask.bit_count() != l:
        raise ParameterError("voter_mask is not an l-voter")
    threshold = support_threshold(t)
    count = 0
    for positions in combinations(range(t), k):
        p = 0
        for pos in positions:
            p |= 1 << pos
        if t - (p ^ voter_mask).bit_count() >= threshold:
            count += 1
    return count


def c_l(t: int, l: int) -> int:
    """Weighted support sum c_l = sum_{k=ceil(t/2)}^{t} (2k - t) * s_kl(t, k, l).

    Defined here for odd t (where ceil(t/2) = ceil((t+1)/2), keeping every
    term inside the formula's validity range). Equals l * C(t-1, floor(t/2));
    the test suite checks that identity against this summation form.
    """
    if t < 1 or t % 2 == 0:
        raise ParameterError("c_l is defined for odd t >= 1")
    if not 0 <= l <= t:
        raise ParameterError("c_l requires 0 <= l <= t")
    return sum((2 * k - t) * s_kl(t, k, l) for k in range(_ceil_div(t, 2), t + 1))
