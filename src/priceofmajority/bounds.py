"""Closed-form bounds and the numeric pipeline for the worst-case ratio r_t.

r_t is the smallest, over all voter matrices with t topics, best relative
representativeness achievable by a majority-supported proposal ("price of
majority support"). The numeric bounds are driven by the ma_t(w) values from
:mod:`.lpsolve` and take their number type: exact values give Fractions,
float values give floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import min_k
from .core import ParameterError
# ma_closed_form_full and ma_linear_lower stay importable from here
from .lpsolve import ma_closed_form_full, ma_linear_lower, ma_table

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


def analytic_floor() -> Fraction:
    """Universal floor: r_V >= 1/3 for every voter matrix, hence r_t >= 1/3."""
    return Fraction(1, 3)


def rt_analytic_upper(t: int) -> float:
    """Equal-majority family bound: 2*sqrt(6) - 4 plus a parity-dependent 1/t term."""
    if t < 3:
        raise ParameterError("requires t >= 3")
    correction = (1 if t % 2 else 2) / t * (1 - math.sqrt(2 / 3))
    return 2 * math.sqrt(6) - 4 + correction


def _lower_candidate(t, w, ma_next):
    """max(w/(2t-w), (t-2)/(2t ma_next)); a Fraction when ma_next is exact."""
    one = Fraction(1) if isinstance(ma_next, (Fraction, int)) else 1.0
    return max(one * w / (2 * t - w), one * (t - 2) / (2 * t * ma_next))


def _upper_candidate(t, w, ma):
    num = (w - 1) * ma + (t - w + 1) * (1 - ma)
    return num / (t * ma)


def _lower_candidates(t, ma_values) -> list:
    """The lower candidate of each w, with ma_t(t+1) = 1 in the values' number type."""
    by_w = dict(ma_values)
    one = type(ma_values[-1][1])(1)
    return [_lower_candidate(t, w, by_w.get(w + 1, one)) for w, _ in ma_values]


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
    sweep. For t = 1 and t = 2 the topic-wise majority always has majority
    support, so both bounds are exactly 1 and no LP is solved.
    """
    if t < 1:
        raise ParameterError("requires t >= 1")
    if t <= 2:
        return RtBounds(t=t, lower=Fraction(1), upper=Fraction(1), analytic_upper=1.0, details=())
    values = ma_table(t, exact=exact)
    details = tuple(
        BoundDetail(w=w, ma=ma, lower_candidate=lower, upper_candidate=_upper_candidate(t, w, ma))
        for (w, ma), lower in zip(values, _lower_candidates(t, values))
    )
    return RtBounds(
        t=t,
        lower=rt_lower_numeric(t, values),
        upper=rt_upper_numeric(t, values),
        analytic_upper=rt_analytic_upper(t),
        details=details,
    )
