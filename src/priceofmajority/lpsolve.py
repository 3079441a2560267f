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

The constraint data of every w is a suffix of one integer table per t, the
rows (s_kl(t, k, l))_l for k = ceil((t+1)/2)..t; a row's last entry
s_kl(t, k, t) = C(t, k) is its right-hand side. Each row comes from the
recurrence of :func:`.combinatorics.s_kl_row` in O(t) big-integer steps, and
a call builds the table once.

Working set. The optimal bases are tiny (for most w the support is
{a, a+1, t} with two tight rows), so each w is solved on a restricted LP:
the rows k in a working set R, the columns l in a working set L and the mass
row, solved exactly by the integer simplex below. Each round then checks the
restricted optimum x and its duals y against the full LP, in integers over
one common denominator:

- separation adds the row k >= w outside R that x violates most;
- pricing adds the column l outside L with the largest positive reduced
  cost under y.

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
reduced costs are integers; each round reads the basic values as Fractions
for the primal check, which clears them to integers over one denominator,
and the returned :class:`LpSolution` holds Fractions. The float results
(:func:`solve_ma_float`, ``ma_table(t, exact=False)``) are these certified
optima cast to float; there is no second solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .combinatorics import binomial, min_k, s_kl_row
from .core import ParameterError, ResourceLimitError, TypeProfile

_rational = Fraction  # number type of exact results, recorded by environment reports

EXACT_T_CAP = 1000
_DEGENERATE_PIVOT_LIMIT = 30


@dataclass(frozen=True)
class LpSolution:
    t: int
    w: int
    profile: TypeProfile
    ma: Fraction | float
    active: tuple[int, ...]  # k values of tight inequality rows
    pivots: int
    residual: float = 0.0  # max constraint violation; 0.0, as every optimum is certified


def _check_w(t: int, w: int) -> None:
    if not min_k(t) <= w <= t:
        raise ParameterError(f"w must lie in [{min_k(t)}, {t}], got {w}")


def _check_t(t: int, caller: str) -> None:
    if t < 1:
        raise ParameterError(f"{caller} requires t >= 1, got {t}")
    if t > EXACT_T_CAP:
        raise ResourceLimitError(f"ma_t(w) is solved up to t={EXACT_T_CAP}, got t={t}")


def ma_closed_form_full(t: int) -> Fraction:
    """ma_t(t) = 1/2 + floor((t-1)/2)/(2t); below 3/4 for every t.

    An average majority above this forces majority support for the all-Y
    proposal, which is the Rule of Three-Fourths in sharpened form.
    """
    if t < 1:
        raise ParameterError(f"ma_closed_form_full requires t >= 1, got {t}")
    return Fraction(1, 2) + Fraction((t - 1) // 2, 2 * t)


def ma_linear_lower(t: int, w: int) -> Fraction:
    """Linear lower bound ma_t(w) >= w/(2t) + floor((t-1)/2)/(2t); tight at w = t."""
    _check_w(t, w)
    return Fraction(w, 2 * t) + Fraction((t - 1) // 2, 2 * t)


def _integer_rows(t: int, w: int) -> list[list[int]]:
    """[s_kl(t, k, l) for l = 0..t] for k = w..t; entry t of row k is C(t, k)."""
    return [s_kl_row(t, k) for k in range(w, t + 1)]


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


def _simplex(c, rows):
    """Maximize c.x subject to (a_i / d_i).x <= b_i / d_i, x >= 0 from the slack basis.

    ``c`` is a list of integers and ``rows`` a list of (a_i, b_i, d_i) with
    integer a_i, integers b_i >= 0 and d_i > 0. Returns (x, value, pivots)
    with x over the n variables followed by the m slacks of a_i.x <= b_i, as
    Fractions. The full-LP reference for the working-set solver.
    """
    tableau = _Tableau(c, rows)
    tableau.primal()
    x = [Fraction(0)] * (len(c) + len(rows))
    for j, v in tableau.primal_values().items():
        x[j] = v
    return x, tableau.value(), tableau.pivots


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


def _working_set_solve(t: int, w: int, rows, ks, ls):
    """Certified optimum of ma_t(w) from the integer rows k = w..t.

    ``rows`` is :func:`_integer_rows` (t, w); the working set starts from the
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
    if t % 2 and w - min_k(t) in (0, 1):
        certified = _lemma7_certificate(t, w, rows)
        if certified is not None:
            return certified
    row_ks = sorted({k for k in ks if w <= k <= t})
    col_ls = sorted({l for l in ls if 0 <= l <= t})
    seed_rows = [
        ([2 * rows[k - w][l] for l in col_ls], rows[k - w][t], 2 * rows[k - w][t])
        for k in row_ks
    ]
    tableau = _Tableau(col_ls, seed_rows + [([1] * len(col_ls), 1, 1)])
    row_ks.append(None)  # the mass row
    column = {l: j for j, l in enumerate(col_ls)}  # tableau column of each l
    tableau.primal()
    while True:
        values = tableau.primal_values()
        x = {l: values[j] for l, j in column.items() if values.get(j)}
        cut, active = _primal_check(w, rows, x)
        duals = [(k, tableau.obj[s]) for k, s in zip(row_ks, tableau.slacks) if tableau.obj[s]]
        reduced = _reduced_costs(t, w, rows, duals, tableau.obj_den)
        priced_in = [l for l in range(1, t + 1) if l not in column and reduced[l] > 0]
        price = max(priced_in, key=reduced.__getitem__, default=None)  # the first on a tie
        if cut is None and price is None:
            break
        if cut is not None:
            a = [0] * (len(tableau.obj) - 1)
            for l, j in column.items():
                a[j] = 2 * rows[cut - w][l]
            tableau.add_row(a, rows[cut - w][t], 2 * rows[cut - w][t])
            row_ks.append(cut)
            tableau.dual()
        if price is not None:
            entries = [1 if k is None else 2 * rows[k - w][price] for k in row_ks]
            tableau.add_column(price, entries)
            column[price] = len(tableau.obj) - 2
            tableau.primal()
    dual_ks = tuple(k for k, _ in duals if k is not None)
    return x, tableau.value(), active, tableau.pivots, dual_ks


def _primal_check(w: int, rows, x):
    """(cut, active) of the profile x = {l: v'_l} on the rows 2 s_k.v' <= C(t, k), k = w..t.

    ``rows`` is :func:`_integer_rows` (t, w). ``cut`` is the row x violates
    most per C(t, k), the first on a tie, or None; ``active`` are the tight rows.
    """
    den = lcm(*(v.denominator for v in x.values()))
    p = [(l, v.numerator * (den // v.denominator)) for l, v in x.items() if v]
    cut, cut_excess, cut_c = None, 0, 1
    active = []
    for k, row in enumerate(rows, w):
        c = row[-1]  # C(t, k) = s_kl(t, k, t)
        excess = 2 * sum(row[l] * n for l, n in p) - c * den
        if excess == 0:
            active.append(k)
        elif excess > 0 and excess * cut_c > cut_excess * c:
            cut, cut_excess, cut_c = k, excess, c
    return cut, tuple(active)


def _reduced_costs(t: int, w: int, rows, duals, den: int) -> list[int]:
    """Reduced costs l - sum_k 2 y_k s_kl - y_mass of the columns l = 0..t, over ``den``.

    ``duals`` = [(k, y_k)] are numerators over ``den`` on the rows of
    ``rows`` = :func:`_integer_rows` (t, w), k = None on the mass row, summed
    row by row. y prices column l out when its reduced cost is <= 0.
    """
    reduced = [l * den for l in range(t + 1)]
    for k, y in duals:
        if k is None:
            reduced = [r - y for r in reduced]
        else:
            u = 2 * y
            reduced = [r - u * s for r, s in zip(reduced, rows[k - w])]
    return reduced


def _lemma7_certificate(t: int, w: int, rows):
    """ma_t(w) = (a + t)/(2t) at odd t and w = ceil((t+1)/2) + a for a = 0, 1.

    A candidate certified by :func:`_primal_check` and :func:`_reduced_costs`:
    the lemma-7 profile x_a = x_t = 1/2 with every row tight, and the duals
    y_k = (t - a)(2k - t) / (2 f_t) on the rows 2 s_k.v' <= C(t, k) and a on
    the mass row, f_t = sum_{k >= w} (2k - t) C(t, k) = t C(t-1, w-1) (it
    telescopes). Both objectives are (a + t)/2. At a = 0 every reduced cost is
    0, the paper's support-sum identity sum_k (2k - t) s_kl = l C(t-1, t // 2),
    and a failure raises, since it is a theorem. At a = 1 a column that prices
    in returns None, and the row goes to the working set.
    """
    a = w - min_k(t)
    every_row = tuple(range(w, t + 1))
    x = {l: Fraction(1, 2) for l in (a, t) if l}  # v'_0 takes the rest of the mass
    tight = _primal_check(w, rows, x)[1] == every_row
    den = 2 * t * binomial(t - 1, w - 1)
    duals = [(k, (t - a) * (2 * k - t)) for k in every_row] + [(None, a * den)]
    reduced = _reduced_costs(t, w, rows, duals, den)
    if a == 0 and (not tight or any(reduced)):
        raise AssertionError(f"support-sum identity fails at t={t}")
    if not tight or max(reduced) > 0:
        return None
    return x, Fraction(a + t, 2), every_row, 0, every_row


def solve_ma(t: int, w: int) -> LpSolution:
    """Exact optimum of the ma_t(w) LP."""
    _check_t(t, "solve_ma")
    _check_w(t, w)
    x, value, active, pivots, _ = _working_set_solve(t, w, _integer_rows(t, w), (w,), (t,))
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
    _check_t(t, "ma_table")
    w0 = min_k(t)
    rows = _integer_rows(t, w0)
    table = []
    ks, ls = (), (t,)
    for w in range(t, w0 - 1, -1):
        x, value, _, _, ks = _working_set_solve(t, w, rows[w - w0 :], (*ks, w), ls)
        ls = {m for l in x for m in (l - 1, l, l + 1) if 1 <= m <= t}
        table.append((w, value / t))
    return table[::-1]
