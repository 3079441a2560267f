"""Closed-form bounds and the numeric pipeline for the worst-case ratio r_t.

r_t is the smallest, over all voter matrices with t topics, best relative
representativeness achievable by a majority-supported proposal ("price of
majority support"). The numeric bounds are driven by the ma_t(w) values from
:mod:`.lpsolve` and take their number type: exact values give Fractions,
float values give floats. The closed forms of ma_t live here: the linear
lower bound on ma_t(w) and its tight end, ma_t(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import check_range, min_k
from .core import ParameterError
from .lpsolve import ma_table


@dataclass(frozen=True)
class BoundDetail:
    w: int
    ma: Fraction | float
    lower_candidate: Fraction | float
    upper_candidate: Fraction | float


@dataclass(frozen=True)
class RtBounds:
    t: int
    lower: Fraction | float
    upper: Fraction | float
    analytic_upper: float
    details: tuple[BoundDetail, ...]


def ma_linear_lower(t: int, w: int) -> Fraction:
    """Linear lower bound ma_t(w) >= w/(2t) + floor((t-1)/2)/(2t); tight at w = t."""
    check_range(t, "w", w)
    return Fraction(w, 2 * t) + Fraction((t - 1) // 2, 2 * t)


def ma_closed_form_full(t: int) -> Fraction:
    """ma_t(t) = 1/2 + floor((t-1)/2)/(2t); below 3/4 for every t.

    An average majority above this forces majority support for the all-Y
    proposal, which is the Rule of Three-Fourths in sharpened form.
    """
    return ma_linear_lower(t, t)


def rt_analytic_upper(t: int) -> float:
    """Equal-majority family bound: 2*sqrt(6) - 4 plus a parity-dependent 1/t term."""
    if t < 3:
        raise ParameterError("requires t >= 3")
    correction = (1 if t % 2 else 2) / t * (1 - math.sqrt(2 / 3))
    return 2 * math.sqrt(6) - 4 + correction


def _upper_candidate(t, w, ma):
    num = (w - 1) * ma + (t - w + 1) * (1 - ma)
    return num / (t * ma)


def _lower_candidates(t, ma_values) -> list:
    """max(w/(2t-w), (t-2)/(2t ma_t(w+1))) of each w, with ma_t(t+1) = 1: Fractions
    when the values are exact (Fraction or int), floats otherwise."""
    one = Fraction(1) if isinstance(ma_values[-1][1], (Fraction, int)) else 1.0
    by_w = dict(ma_values)
    return [
        max(one * w / (2 * t - w), one * (t - 2) / (2 * t * by_w.get(w + 1, one)))
        for w, _ in ma_values
    ]


def rt_upper_numeric(t: int, ma_values) -> Fraction | float:
    """Strongest upper bound from the equal-support witness family.

    Each w yields a matrix with average majority ma_t(w) and no
    majority-supported proposal with w or more Ys, bounding r_t by
    ((w-1) ma + (t-w+1)(1-ma)) / (t ma); the minimum over w is returned.
    """
    return min(_upper_candidate(t, w, ma) for w, ma in ma_values)


def rt_lower_numeric(t: int, ma_values) -> Fraction | float:
    """Lower bound min over w of max(w/(2t-w), (t-2)/(2t ma_t(w+1))).

    Uses the convention ma_t(t+1) = 1. The first term covers matrices whose
    average majority admits a w-proposal with majority support; the second
    comes from the guaranteed near-half-representativeness proposal.
    """
    return min(_lower_candidates(t, ma_values))


def figure2_points(t: int, ma_values) -> list[tuple[Fraction | float, Fraction | float]]:
    """Normalized ma_t(w) curve: x in [0, 1] over w, y scaled so y(1) = 1.

    x = (w - ceil((t+1)/2)) / floor((t-1)/2) and
    y = (ma_t(w) - 1/2) / (floor((t-1)/2) / (2t)). For small t the curve is
    the line y = x; for larger t it bows above it. x is a Fraction and y has
    the number type of ma.
    """
    if t < 3:
        raise ParameterError("requires t >= 3")
    w0 = min_k(t)
    span = (t - 1) // 2
    return [
        (Fraction(w - w0, span), (ma - Fraction(1, 2)) / Fraction(span, 2 * t))
        for w, ma in ma_values
    ]


def rt_bounds(t: int, exact: bool = True) -> RtBounds:
    """Lower/upper bounds on r_t from a full ma_t(w) sweep.

    ``exact=False`` derives them from the float values of the same certified
    sweep. Each bound is the minimum of its candidates in ``details``. For
    t = 1 and t = 2 the topic-wise majority always has majority support: the
    sweep's one row w = t gives both bounds as exactly 1.
    """
    values = ma_table(t, exact=exact)
    details = tuple(
        BoundDetail(w=w, ma=ma, lower_candidate=lower, upper_candidate=_upper_candidate(t, w, ma))
        for (w, ma), lower in zip(values, _lower_candidates(t, values))
    )
    return RtBounds(
        t=t,
        lower=min(d.lower_candidate for d in details),
        upper=min(d.upper_candidate for d in details),
        analytic_upper=rt_analytic_upper(t) if t >= 3 else 1.0,
        details=details,
    )
