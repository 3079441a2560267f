"""Exact rational linear programming for the maximum average majority ma_t(w).

ma_t(w) is the supremum of average majorities over voter matrices in which no
proposal with w or more majority decisions has majority support. It is the
optimum of an LP over the l-voter type fractions v'_0..v'_t:

    maximize (1/t) * sum_l l * v'_l
    subject to sum_l s_kl(t, k, l) * v'_l <= s_kl(t, k, t) / 2   for k = w..t
               sum_l v'_l = 1,  v'_l >= 0

The strict "<" of the underlying feasibility condition is relaxed to "<=":
the closed optimum equals the supremum of the open region, and matrices
arbitrarily close to it exist (supremum semantics). Constraint rows are
normalized by s_kl(t, k, t) so every coefficient is a rational in [0, 1].

The constraint data of every w is a suffix of one integer table per t, the
rows (s_kl(t, k, l))_l over C(t, k) = s_kl(t, k, t) for k = ceil((t+1)/2)..t.
The exact solver is a dense tableau simplex on integers: each tableau row is
an integer vector over one positive integer denominator, divided by its gcd
after every pivot (fraction-free pivoting in the manner of Edmonds and
Bareiss, with per-row reduction as in Avis's lrs). It holds the same
rationals as a Fraction tableau and makes the same choices: Dantzig pricing,
a switch to Bland's anti-cycling rule after a run of degenerate pivots, and
ratio-test ties to the smaller basis index, so termination is guaranteed and
results are deterministic. Values become Fractions only in the returned
:class:`LpSolution`. A float fallback based on scipy's HiGHS backend extends
sweeps to t around 1000.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .combinatorics import binomial, min_k, s_kl
from .core import ParameterError, ResourceLimitError, TypeProfile

_rational = Fraction  # number type of exact results, recorded by environment reports

EXACT_T_CAP = 200
FLOAT_T_CAP = 1000
_DEGENERATE_PIVOT_LIMIT = 30


@dataclass(frozen=True)
class LinearProgram:
    """Normalized LP for ma_t(w): rows k = w..t, variables v'_0..v'_t."""

    t: int
    w: int
    objective: tuple[Fraction, ...]  # l/t for l = 0..t
    ks: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]  # s_kl / s_kt, in [0, 1]
    rhs: tuple[Fraction, ...]  # 1/2 per row


@dataclass(frozen=True)
class LpSolution:
    t: int
    w: int
    profile: TypeProfile | tuple
    ma: Fraction | float
    active: tuple[int, ...]  # k values of tight inequality rows
    pivots: int
    exact: bool = True
    residual: float = 0.0  # max constraint violation (float mode only)


def _check_w(t: int, w: int) -> None:
    if not min_k(t) <= w <= t:
        raise ParameterError(f"w must lie in [{min_k(t)}, {t}], got {w}")


def _check_exact_t(t: int) -> None:
    if t > EXACT_T_CAP:
        raise ResourceLimitError(
            f"exact mode is capped at t={EXACT_T_CAP}; use float fallback"
        )


def _integer_rows(t: int, w: int) -> list[tuple[int, list[int]]]:
    """(C(t, k), [s_kl(t, k, l) for l = 0..t]) for k = w..t."""
    return [
        (binomial(t, k), [s_kl(t, k, l) for l in range(t + 1)])
        for k in range(w, t + 1)
    ]


def build_ma_lp(t: int, w: int) -> LinearProgram:
    _check_w(t, w)
    rows = _integer_rows(t, w)
    return LinearProgram(
        t=t,
        w=w,
        objective=tuple(Fraction(l, t) for l in range(t + 1)),
        ks=tuple(range(w, t + 1)),
        rows=tuple(tuple(Fraction(s, c) for s in row) for c, row in rows),
        rhs=tuple(Fraction(1, 2) for _ in rows),
    )


def _simplex(c, rows):
    """Maximize c.x subject to (a_i / d_i).x <= b_i / d_i, x >= 0, on integers.

    ``c`` is a list of integers and ``rows`` a list of (a_i, b_i, d_i) with
    integer a_i, integers b_i >= 0 and d_i > 0, so the slack basis is
    feasible. Tableau row i is an integer vector over a positive denominator
    that is its own entry in its basic column; the objective row keeps its
    denominator apart. Returns (x, value, pivots) with x over the n
    variables followed by the m slacks, as Fractions.
    """
    m, n = len(rows), len(c)
    T = []
    for i, (a, b, d) in enumerate(rows):
        row = list(a) + [0] * m + [b]
        row[n + i] = d
        T.append(_reduced(row))
    obj = [-v for v in c] + [0] * (m + 1)
    obj_den = 1
    basis = list(range(n, n + m))
    pivots = 0
    degenerate_run = 0
    while True:
        # the objective row has one positive denominator: compare numerators
        if degenerate_run < _DEGENERATE_PIVOT_LIMIT:
            enter, best = None, 0
            for j in range(n + m):
                if obj[j] < best:
                    best, enter = obj[j], j
        else:  # Bland: smallest index with negative reduced cost
            enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        # ratio of row i is row[-1] / row[enter]: its denominator cancels
        leave = None
        for i in range(m):
            coef = T[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                here = T[i][-1] * T[leave][enter]
                there = T[leave][-1] * coef
                if here < there or (here == there and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("LP unbounded; the mass constraint is missing")
        pivot_row = T[leave]
        degenerate_run = degenerate_run + 1 if pivot_row[-1] == 0 else 0
        # the pivot row keeps its integers; its denominator becomes p
        p = pivot_row[enter]
        for i in range(m):
            f = T[i][enter]
            if i != leave and f:
                T[i] = _eliminate(T[i], pivot_row, p, f)
        f = obj[enter]
        if f:  # the objective row carries its denominator as a last entry
            obj = _eliminate(obj + [obj_den], pivot_row + [0], p, f)
            obj_den = obj.pop()
        basis[leave] = enter
        pivots += 1
    x = [Fraction(0)] * (n + m)
    for row, var in zip(T, basis):
        x[var] = Fraction(row[-1], row[var])
    return x, Fraction(obj[-1], obj_den), pivots


def _eliminate(row, pivot_row, p, f):
    """(p * row - f * pivot_row) reduced by its gcd: row minus f/p pivot rows."""
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    return _reduced([p * a - f * b for a, b in zip(row, pivot_row)])


def _reduced(row):
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _solve(t: int, w: int, rows) -> LpSolution:
    """Exact optimum from the integer rows k = w..t of :func:`_integer_rows`.

    The mass equality is solved as sum v'_l <= 1; any slack is absorbed into
    v'_0, which has zero objective weight and appears in no inequality row
    (a 0-voter never supports a proposal with more than half Ys). Row k
    (s_kl / C(t, k)) v' <= 1/2 enters the simplex scaled by 2 C(t, k).
    """
    constraints = [([2 * s for s in row], c, 2 * c) for c, row in rows]
    constraints.append(([1] * (t + 1), 1, 1))
    objective = list(range(t + 1))
    x, value, pivots = _simplex(objective, constraints)
    fractions = x[: t + 1]
    fractions[0] += 1 - sum(fractions)
    active = tuple(
        k for k, slack in zip(range(w, t + 1), x[t + 1 :]) if slack == 0
    )
    return LpSolution(
        t=t,
        w=w,
        profile=TypeProfile(tuple(fractions)),
        ma=value / t,
        active=active,
        pivots=pivots,
    )


def solve_ma(t: int, w: int) -> LpSolution:
    """Exact optimum of the ma_t(w) LP."""
    _check_exact_t(t)
    _check_w(t, w)
    return _solve(t, w, _integer_rows(t, w))


def _normalized_coefficients_float(t: int):
    """s_kl / s_kt for all k >= ceil((t+1)/2) as a float matrix.

    The normalized coefficient is the hypergeometric tail probability
    P[X >= ceil((k + l - floor(t/2)) / 2)] for X ~ Hypergeom(t, l, k).
    """
    import numpy as np
    from scipy.stats import hypergeom

    w0 = min_k(t)
    ks = np.arange(w0, t + 1)
    ls = np.arange(0, t + 1)
    K, L = np.meshgrid(ks, ls, indexing="ij")
    lo = -((-(K + L - t // 2)) // 2)
    return hypergeom.sf(lo - 1, t, L, K)


def solve_ma_float(t: int, w: int, _coeffs=None) -> LpSolution:
    """Double-precision fallback for large t; results labeled approximate."""
    import numpy as np
    from scipy.optimize import linprog

    if t > FLOAT_T_CAP:
        raise ResourceLimitError(f"float mode is capped at t={FLOAT_T_CAP}")
    _check_w(t, w)
    S = _normalized_coefficients_float(t) if _coeffs is None else _coeffs
    A = S[w - min_k(t) :, :]
    b = np.full(A.shape[0], 0.5)
    c = -np.arange(t + 1) / t
    res = linprog(
        c,
        A_ub=A,
        b_ub=b,
        A_eq=[np.ones(t + 1)],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"float LP failed at t={t}, w={w}: {res.message}")
    x = res.x
    lhs = A @ x
    residual = float(max(np.max(lhs - b, initial=0.0), abs(x.sum() - 1.0)))
    active = tuple(
        int(k) for k, v in zip(range(w, t + 1), lhs) if v >= 0.5 - 1e-9
    )
    return LpSolution(
        t=t,
        w=w,
        profile=tuple(x),
        ma=float(-res.fun),
        active=active,
        pivots=0,
        exact=False,
        residual=residual,
    )


def ma_table(t: int, exact: bool | None = None) -> list[tuple[int, Fraction | float]]:
    """(w, ma_t(w)) for every w in [ceil((t+1)/2), t].

    ``exact=None`` picks exact mode up to the exact cap and the float
    fallback beyond it. Exact mode builds the integer rows once and solves
    each w on the suffix k = w..t.
    """
    if t < 1:
        raise ParameterError(f"ma_table requires t >= 1, got {t}")
    if exact is None:
        exact = t <= EXACT_T_CAP
    w0 = min_k(t)
    if exact:
        _check_exact_t(t)
        rows = _integer_rows(t, w0)
        return [(w, _solve(t, w, rows[w - w0 :]).ma) for w in range(w0, t + 1)]
    coeffs = _normalized_coefficients_float(t)
    return [
        (w, solve_ma_float(t, w, _coeffs=coeffs).ma) for w in range(w0, t + 1)
    ]
