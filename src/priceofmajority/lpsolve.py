"""Exact rational linear programming for the maximum average majority ma_t(w).

ma_t(w) is the supremum of average majorities over voter matrices in which no
proposal with w or more majority decisions has majority support. It is the
optimum of an LP over the l-voter type fractions v'_0..v'_t:

    maximize (1/t) * sum_l l * v'_l
    subject to sum_l s_kl(t, k, l) * v'_l <= s_kl(t, k, t) / 2   for k = w..t
               sum_l v'_l = 1,  v'_l >= 0

The strict "<" of the underlying feasibility condition is relaxed to "<=":
the closed optimum equals the supremum of the open region, and matrices
arbitrarily close to it exist (supremum semantics).

The constraint data of every w is a suffix of one table per t,
:class:`SupportRows`: the integer rows (s_kl(t, k, l))_l for
k = ceil((t+1)/2)..t, whose last entry s_kl(t, k, t) = C(t, k) is the
right-hand side, and a float64 copy of each row over its C(t, k). Each row
comes from the recurrence of :func:`.combinatorics.s_kl_row` in O(t)
big-integer steps, and a call builds the table once.

Working set. The optimal bases are tiny (for most w the support is
{a, a+1, t} with two tight rows), so each w is solved on a restricted LP:
the rows k in a working set R, the columns l in a working set L and the mass
row, solved exactly by the integer simplex below. Each round then checks the
restricted optimum x and its duals y against the full LP:

- separation adds the row k >= w outside R that x violates most;
- pricing adds the column l outside L with the largest positive reduced
  cost under y.

Both checks are float filters checked exactly, in the manner of Fortune and
Van Wyk (1996) and Shewchuk (1997): one numpy product on the float rows
scores every row or column, and only the entries that a proven absolute
error bound leaves undecided, those near zero and those near the maximum,
are recomputed in integers over one common denominator, so the row that
enters, the column that enters and the tight rows are exactly those of an
all-integer pass (:class:`SupportRows` states the bound).

When neither adds anything, x (zero outside L) satisfies every row and y
(zero outside R) prices every column out, with equal objectives: a primal
and dual certificate of optimality for the full LP, in the manner of
Applegate, Cook, Dash and Espinoza (Oper. Res. Lett. 35, 2007); adding rows
and columns on demand is the row and column generation of Dantzig and Wolfe
(1960) and Gilmore and Gomory (1961). Every round adds a row or a column and
nothing is dropped within a solve, so the loop ends. A round does not start
the simplex again: a new row is brought in by the dual simplex and a new
column by the primal simplex, from the basis of the round before.
:func:`ma_table` sweeps w from t down and seeds each w from the optimum of
w + 1. Its rows are the positive-dual rows of w + 1 and row w itself: x(w + 1)
is certified on rows w + 1..t, so row w is the only one it can violate. Its
columns are the support of w + 1 and each support point's neighbours l - 1
and l + 1 in 1..t. With these seeds most w take one simplex run and one
certifying round.

The degenerate rows. For odd t and w = ceil((t+1)/2) + a with a = 0 or 1,
the optimum is the paper's lemma-7 profile x_a = x_t = 1/2 with every row
tight, and simplex pivots through all of them. That profile and the duals
y_k proportional to 2k - t, plus a on the mass row, are a candidate that the
working set's own primal and dual checks certify, with no pivots. At a = 0
every reduced cost is 0, which is the paper's support-sum identity, and a
failure raises. At a = 1 the pricing is an observation (it holds for every
odd t in 5..401 and at t = 499, 601, 701, 799, 901 and 999), and a failed
check sends the row to the working set.

The integer simplex is a dense tableau on integers: each tableau row is an
integer vector over one positive integer denominator, divided by its gcd
after every pivot (fraction-free pivoting in the manner of Edmonds and
Bareiss, with per-row reduction as in Avis's lrs). It holds the same
rationals as a Fraction tableau. The primal simplex prices by Dantzig's rule
and breaks ratio-test ties lexicographically, which keeps it from stalling
on the highly degenerate rows next to w = ceil((t+1)/2), where every row is
tight; after a run of degenerate pivots it switches to Bland's anti-cycling
rule, and the dual simplex uses Bland's rule throughout, so termination is
guaranteed and results are deterministic. The tableau, its duals and the
exact reduced costs are integers; each round reads the basic values as
Fractions for the primal check, which clears them to integers over one
denominator, and the returned :class:`LpSolution` holds Fractions. The
float results (:func:`solve_ma_float`, ``ma_table(t, exact=False)``) are
these certified optima cast to float; there is no second solver. The closed
forms of ma_t live in :mod:`.bounds`, and the range of w is
:func:`.combinatorics.check_range`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, inf, lcm

import numpy as np

from .combinatorics import binomial, check_range, min_k, s_kl_row
from .core import ResourceLimitError, TypeProfile, check_topics

_rational = Fraction  # number type of exact results, recorded by environment reports

EXACT_T_CAP = 1000
_DEGENERATE_PIVOT_LIMIT = 30
_ERROR_PER_TERM = 2.0**-48  # 16 * 2^-52 per term of a float product (SupportRows)


@dataclass(frozen=True)
class LpSolution:
    t: int
    w: int
    profile: TypeProfile
    ma: Fraction | float
    active: tuple[int, ...]  # k values of tight inequality rows
    pivots: int
    residual: float = 0.0  # max constraint violation; 0.0, as every optimum is certified


def check_t(t: int) -> None:
    """Raise unless 1 <= t <= EXACT_T_CAP: the one owner of the largest t solved."""
    check_topics(t)
    if t > EXACT_T_CAP:
        raise ResourceLimitError(f"ma_t(w) is solved up to t={EXACT_T_CAP}, got t={t}")


def _float_rows(ints) -> np.ndarray:
    """The rows s_kl(t, k, l) / C(t, k) in float64.

    A row whose C(t, k) has more than 1020 bits is shifted right first, so
    that no entry overflows: C(t, t // 2) exceeds the float64 maximum from
    t = 1030 on. Each entry is within 2^-51 of its ratio relative, from the
    two casts and the division, plus 2^-1018 absolute, from the shift and
    from underflow.
    """
    table = np.empty((len(ints), len(ints[0])))
    for i, row in enumerate(ints):
        shift = max(0, row[-1].bit_length() - 1020)
        table[i] = [s >> shift for s in row] if shift else row
    table /= table[:, -1:]
    return table


@dataclass(eq=False)
class SupportRows:
    """The LP rows 2 s_k.v' <= C(t, k) for k = w..t, in integers and in float64.

    ``ints`` holds [s_kl(t, k, l) for l = 0..t] per row k, whose last entry
    s_kl(t, k, t) = C(t, k) is its right-hand side; ``floats`` holds the
    same rows over C(t, k) (:func:`_float_rows`). :meth:`primal_check` and
    :meth:`price` are the two checks of a working-set round. Each scores
    every row or column with one float product, bounds that product's error
    by an absolute epsilon, and recomputes in integers only the entries the
    bound leaves undecided: those within epsilon of the threshold and those
    within 2 epsilon of the float maximum. Every exact result, tie order
    included, is the one an all-integer pass gives.

    The error bound. Every input of a product is within 4 u of its value
    relative, u = 2^-53, plus 2^-1018 absolute: the float rows as
    :func:`_float_rows` states, and x_l, g_k = 2 y_k C(t, k)/den and
    y_mass/den, which are correctly rounded. A float dot product of n
    nonnegative terms, in any summation order, is within n u / (1 - n u)
    of its sum relative. Since s_kl <= C(t, k), a reduced cost is bounded
    in magnitude by M = t + y_mass/den + sum_k g_k and a row's load
    sum_l x_l s_kl / C(t, k) by M = sum_l x_l, so a computed value lies
    within about (n + 11) u M of the exact one, n the dual rows or the
    support, and a threshold computed from it within u more. The absolute
    epsilon is 16 (n + 4) 2^-52 (M + 1), at least 8 times that, and the
    + 1 covers the absolute errors of the entries. (No entry underflows for
    t <= 1100; the smallest ratio at t = 999 is about 1e-37.)
    """

    t: int
    w: int
    ints: list[list[int]]
    floats: np.ndarray

    @classmethod
    def build(cls, t: int, w: int) -> SupportRows:
        """The rows k = w..t, each from :func:`.combinatorics.s_kl_row`."""
        ints = [s_kl_row(t, k) for k in range(w, t + 1)]
        return cls(t, w, ints, _float_rows(ints))

    def suffix(self, w: int) -> SupportRows:
        """The rows k = w..t of this table, sharing its integers and floats."""
        return SupportRows(self.t, w, self.ints[w - self.w :], self.floats[w - self.w :])

    def primal_check(self, x) -> tuple[int | None, tuple[int, ...]]:
        """(cut, active) of the profile x = {l: v'_l}.

        ``cut`` is the row x violates most per C(t, k), the first on a tie, or
        None; ``active`` are the tight rows. Row k is tight when its load
        sum_l x_l s_kl / C(t, k) is 1/2 and violated when it exceeds 1/2.
        """
        support = [l for l, v in x.items() if v]
        xs = [float(x[l]) for l in support]
        loads = (self.floats[:, support] @ xs).tolist()
        eps = (len(support) + 4) * _ERROR_PER_TERM * (sum(xs) + 1)
        # undecided: within eps of 1/2, or within 2 eps of the largest load
        low, high, top = 0.5 - eps, 0.5 + eps, max(loads) - 2 * eps
        near = [i for i, load in enumerate(loads) if low <= load and (load <= high or top <= load)]
        # the excesses 2 s_k.x - C(t, k) of the near rows, over the lcm of x's denominators
        den = lcm(*(v.denominator for v in x.values()))
        excess = [-self.ints[i][-1] * den for i in near]
        for l in support:
            n = 2 * x[l].numerator * (den // x[l].denominator)
            excess = [e + self.ints[i][l] * n for e, i in zip(excess, near)]
        cut, cut_excess, cut_c = None, 0, 1
        active = []
        for i, e in zip(near, excess):
            c = self.ints[i][-1]  # C(t, k) = s_kl(t, k, t)
            if e == 0:
                active.append(self.w + i)
            elif e > 0 and e * cut_c > cut_excess * c:
                cut, cut_excess, cut_c = self.w + i, e, c
        return cut, tuple(active)

    def price(self, duals, den: int, skip) -> int | None:
        """The column l = 1..t outside ``skip`` with the largest positive reduced cost.

        ``duals`` = [(k, y_k)] are numerators over ``den`` > 0, k = None on the
        mass row. The first column on a tie enters; None means that y prices
        every column out. The float reduced cost of column l is
        l - y_mass/den - sum_k g_k s_kl / C(t, k), g_k = 2 y_k C(t, k)/den.
        """
        dual_rows = [(k - self.w, y) for k, y in duals if k is not None]
        g = [2 * y * self.ints[i][-1] / den for i, y in dual_rows]
        mass = sum(y for k, y in duals if k is None) / den
        product = g @ self.floats[[i for i, _ in dual_rows]]
        reduced = (np.arange(self.t + 1) - mass - product).tolist()
        for l in (0, *skip):  # column 0 never prices in
            reduced[l] = -inf
        eps = (len(g) + 4) * _ERROR_PER_TERM * (self.t + mass + sum(g) + 1)
        top = max(reduced)
        if top < -eps:
            return None
        floor = max(-eps, top - 2 * eps)
        near = [l for l, r in enumerate(reduced) if r >= floor]
        exact = self.reduced_costs(duals, den, near)
        best = max(exact, default=0)
        return near[exact.index(best)] if best > 0 else None

    def reduced_costs(self, duals, den: int, columns) -> list[int]:
        """Reduced costs l - sum_k 2 y_k s_kl - y_mass of ``columns``, in integers over ``den``."""
        reduced = [l * den for l in columns]
        for k, y in duals:
            if k is None:
                reduced = [r - y for r in reduced]
            else:
                u, row = 2 * y, self.ints[k - self.w]
                reduced = [r - u * row[l] for r, l in zip(reduced, columns)]
        return reduced


class _Tableau:
    """Dense simplex tableau for max c.x subject to a_i.x <= b_i, x >= 0, on integers.

    Every row i has a slack with coefficient 1 in its own column, so the
    slack entries of tableau row r are the multipliers of the original rows
    that make up row r; :meth:`add_column` reads B^-1 a from them. Row i
    also carries a scale d_i > 0: pricing weighs its slack's reduced cost by
    d_i, as if the row were (a_i / d_i).x <= b_i / d_i. Tableau row r is an
    integer vector over a positive denominator that is its own entry in its
    basic column; the objective row keeps its denominator apart. Columns and
    rows can be added to an optimal tableau, which is then re-optimized from
    its basis: a new row by the dual simplex, a new column by the primal
    simplex.
    """

    def __init__(self, c, rows):
        """The slack basis of ``rows`` = [(a_i, b_i, d_i)] with integers b_i >= 0."""
        m, n = len(rows), len(c)
        self.T = []
        for i, (a, b, _) in enumerate(rows):
            row = list(a) + [0] * m + [b]
            row[n + i] = 1
            self.T.append(row)
        self.scale = [1] * n + [d for _, _, d in rows]  # pricing weight per column
        self.obj = [-v for v in c] + [0] * (m + 1)
        self.obj_den = 1
        self.basis = list(range(n, n + m))
        self.slacks = list(self.basis)  # slack column of each row
        self.pivots = 0

    def add_column(self, c, a):
        """A new variable with objective c and entries a (one per row, in row order)."""
        terms = [(s, v) for s, v in zip(self.slacks, a) if v]
        for row in self.T:
            row.insert(-1, sum(row[s] * v for s, v in terms))
        self.scale.append(1)
        obj = self.obj
        obj.insert(-1, sum(obj[s] * v for s, v in terms) - c * self.obj_den)

    def add_row(self, a, b, d):
        """A new row a.x <= b of scale d, ``a`` over the current columns; its slack is basic."""
        for row in self.T:
            row.insert(-1, 0)
        self.obj.insert(-1, 0)
        self.scale.append(d)
        new = list(a) + [1, b]
        for pivot_row, j in zip(self.T, self.basis):
            if new[j]:
                new = _eliminate(new, pivot_row, pivot_row[j], new[j])
        self.T.append(new)
        self.slacks.append(len(new) - 2)
        self.basis.append(len(new) - 2)

    def primal(self):
        """Primal simplex from a primal feasible basis to an optimum.

        Dantzig pricing with the lexicographic ratio test: a tie between rows
        goes to the lexicographically smaller row of B^-1 over the pivot
        entry. After a run of degenerate pivots it switches to Bland's rule
        (smallest entering index, ties to the smaller basis index), which
        rules out cycling.
        """
        T, basis = self.T, self.basis
        degenerate_run = 0
        while True:
            obj = self.obj
            bland = degenerate_run >= _DEGENERATE_PIVOT_LIMIT
            # the objective row has one positive denominator: compare numerators
            if not bland:
                enter, best = None, 0
                for j, d in enumerate(self.scale):
                    if obj[j] * d < best:
                        best, enter = obj[j] * d, j
            else:
                enter = next((j for j in range(len(obj) - 1) if obj[j] < 0), None)
            if enter is None:
                return
            # ratio of row i is row[-1] / row[enter]: its denominator cancels
            leave = None
            for i, row in enumerate(T):
                coef = row[enter]
                if coef <= 0:
                    continue
                if leave is not None:
                    here = row[-1] * T[leave][enter]
                    there = T[leave][-1] * coef
                    if here > there:
                        continue
                    if here == there:
                        if bland:
                            smaller = basis[i] < basis[leave]
                        else:
                            smaller = self._lex_smaller(row, T[leave], enter)
                        if not smaller:
                            continue
                leave = i
            if leave is None:
                raise AssertionError("LP unbounded; the mass constraint is missing")
            degenerate_run = degenerate_run + 1 if T[leave][-1] == 0 else 0
            self._pivot(leave, enter)

    def _lex_smaller(self, row, other, enter):
        """Whether row[B^-1] / row[enter] is lexicographically below other's."""
        a, b = row[enter], other[enter]
        for s in self.slacks:
            lhs, rhs = row[s] * b, other[s] * a
            if lhs != rhs:
                return lhs < rhs
        return False

    def dual(self):
        """Dual simplex from a dual feasible basis to an optimum, by Bland's rule.

        The row leaving is the infeasible one whose basic column has the
        smallest index; the column entering has the smallest ratio
        obj_j / -row_j over the row's negative entries, ties to the smaller
        index, which rules out cycling.
        """
        T, basis = self.T, self.basis
        while True:
            infeasible = [i for i, row in enumerate(T) if row[-1] < 0]
            if not infeasible:
                return
            leave = min(infeasible, key=basis.__getitem__)
            row, obj = T[leave], self.obj
            enter = None
            for j in range(len(row) - 1):
                coef = row[j]
                if coef < 0 and (enter is None or obj[j] * row[enter] > obj[enter] * coef):
                    enter = j
            if enter is None:
                raise AssertionError("restricted LP infeasible; x = 0 is always feasible")
            T[leave] = [-v for v in row]
            self._pivot(leave, enter)

    def _pivot(self, leave, enter):
        # the pivot row keeps its integers; its denominator becomes p > 0
        T = self.T
        pivot_row = T[leave]
        p = pivot_row[enter]
        for i, row in enumerate(T):
            f = row[enter]
            if i != leave and f:
                T[i] = _eliminate(row, pivot_row, p, f)
        f = self.obj[enter]
        if f:  # the objective row carries its denominator as a last entry
            obj = _eliminate(self.obj + [self.obj_den], pivot_row + [0], p, f)
            self.obj_den = obj.pop()
            self.obj = obj
        self.basis[leave] = enter
        self.pivots += 1

    def primal_values(self):
        """{column: value} of the basic columns, as Fractions."""
        return {j: Fraction(row[-1], row[j]) for row, j in zip(self.T, self.basis)}

    def value(self):
        return Fraction(self.obj[-1], self.obj_den)


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


def _working_set_solve(rows: SupportRows, ks, ls):
    """Certified optimum of ma_t(w) from the rows k = w..t.

    ``rows`` is :class:`SupportRows` (t, w); the working set starts from the
    rows ``ks`` and the columns ``ls``. Row k enters the tableau as
    2 s_k.v' <= C(t, k), and the mass equality as sum v'_l <= 1: any slack is
    absorbed into v'_0, which has zero objective weight and appears in no
    inequality row (a 0-voter never supports a proposal with more than half
    Ys), so column 0 never prices in. Each round re-optimizes the tableau of
    the last round: the dual simplex after a new row, the primal simplex
    after a new column. Returns (x, value, active, pivots, dual_ks): x maps
    the support to v'_l (v'_0 takes the rest of the mass), value is
    sum_l l v'_l = t ma_t(w), and dual_ks are the rows with positive duals.
    """
    t, w, ints = rows.t, rows.w, rows.ints
    if t % 2 and w - min_k(t) in (0, 1):
        certified = _lemma7_certificate(rows)
        if certified is not None:
            return certified
    row_ks = sorted({k for k in ks if w <= k <= t})
    col_ls = sorted({l for l in ls if 0 <= l <= t})
    seed_rows = [
        ([2 * ints[k - w][l] for l in col_ls], ints[k - w][t], 2 * ints[k - w][t])
        for k in row_ks
    ]
    tableau = _Tableau(col_ls, seed_rows + [([1] * len(col_ls), 1, 1)])
    row_ks.append(None)  # the mass row
    column = {l: j for j, l in enumerate(col_ls)}  # tableau column of each l
    tableau.primal()
    while True:
        values = tableau.primal_values()
        x = {l: values[j] for l, j in column.items() if values.get(j)}
        cut, active = rows.primal_check(x)
        duals = [(k, tableau.obj[s]) for k, s in zip(row_ks, tableau.slacks) if tableau.obj[s]]
        price = rows.price(duals, tableau.obj_den, column)
        if cut is None and price is None:
            break
        if cut is not None:
            a = [0] * (len(tableau.obj) - 1)
            for l, j in column.items():
                a[j] = 2 * ints[cut - w][l]
            tableau.add_row(a, ints[cut - w][t], 2 * ints[cut - w][t])
            row_ks.append(cut)
            tableau.dual()
        if price is not None:
            entries = [1 if k is None else 2 * ints[k - w][price] for k in row_ks]
            tableau.add_column(price, entries)
            column[price] = len(tableau.obj) - 2
            tableau.primal()
    dual_ks = tuple(k for k, _ in duals if k is not None)
    return x, tableau.value(), active, tableau.pivots, dual_ks


def _lemma7_certificate(rows: SupportRows):
    """ma_t(w) = (a + t)/(2t) at odd t and w = ceil((t+1)/2) + a for a = 0, 1.

    A candidate certified by :meth:`SupportRows.primal_check` and the
    reduced costs: the lemma-7 profile x_a = x_t = 1/2 with every row tight,
    and the duals y_k = (t - a)(2k - t) / (2 f_t) on the rows
    2 s_k.v' <= C(t, k) and a on the mass row,
    f_t = sum_{k >= w} (2k - t) C(t, k) = t C(t-1, w-1) (it telescopes). Both
    objectives are (a + t)/2. At a = 0 every reduced cost is 0, the paper's
    support-sum identity sum_k (2k - t) s_kl = l C(t-1, t // 2), checked in
    integers on every column, and a failure raises, since it is a theorem.
    At a = 1 a column that prices in (:meth:`SupportRows.price`) returns
    None, and the row goes to the working set.
    """
    t, w = rows.t, rows.w
    a = w - min_k(t)
    every_row = tuple(range(w, t + 1))
    x = {l: Fraction(1, 2) for l in (a, t) if l}  # v'_0 takes the rest of the mass
    tight = rows.primal_check(x)[1] == every_row
    den = 2 * t * binomial(t - 1, w - 1)
    duals = [(k, (t - a) * (2 * k - t)) for k in every_row] + [(None, a * den)]
    if a == 0:
        if not tight or any(rows.reduced_costs(duals, den, range(t + 1))):
            raise AssertionError(f"support-sum identity fails at t={t}")
    elif not tight or rows.price(duals, den, ()) is not None:
        return None
    return x, Fraction(a + t, 2), every_row, 0, every_row


def solve_ma(t: int, w: int) -> LpSolution:
    """Exact optimum of the ma_t(w) LP."""
    check_t(t)
    check_range(t, "w", w)
    x, value, active, pivots, _ = _working_set_solve(SupportRows.build(t, w), (w,), (t,))
    fractions = [Fraction(0)] * (t + 1)
    for l, v in x.items():
        fractions[l] = v
    fractions[0] += 1 - sum(x.values())
    return LpSolution(
        t=t,
        w=w,
        profile=TypeProfile(tuple(fractions)),
        ma=value / t,
        active=active,
        pivots=pivots,
    )


def solve_ma_float(t: int, w: int) -> LpSolution:
    """The certified optimum of :func:`solve_ma` with ``ma`` cast to float."""
    solution = solve_ma(t, w)
    return replace(solution, ma=float(solution.ma))


def ma_table(t: int, exact: bool = True) -> list[tuple[int, Fraction | float]]:
    """(w, ma_t(w)) for every w in [ceil((t+1)/2), t].

    Builds the integer rows once and sweeps w from t down. Each w starts
    from the positive-dual rows of w + 1 and row w, the one row x(w + 1) can
    violate, and from the support of w + 1 and its neighbours l - 1 and
    l + 1. ``exact=False`` returns the same certified values as floats.
    """
    if not exact:
        return [(w, float(ma)) for w, ma in ma_table(t)]
    check_t(t)
    w0 = min_k(t)
    rows = SupportRows.build(t, w0)
    table = []
    ks, ls = (), (t,)
    for w in range(t, w0 - 1, -1):
        x, value, _, _, ks = _working_set_solve(rows.suffix(w), (*ks, w), ls)
        ls = {m for l in x for m in (l - 1, l, l + 1) if 1 <= m <= t}
        table.append((w, value / t))
    return table[::-1]
