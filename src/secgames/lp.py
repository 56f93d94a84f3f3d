"""Exact linear feasibility with strict inequalities, in standard form.

Variables are nonnegative.  A system's rows are a.x > b (strict),
a.x >= b (nonstrict) and a.x = b (equal).  `lp_feasible` brings the system
into standard form: every inequality row gets its own slack, a.x - s = b,
and the strict rows also share one variable t, a.x - s - t = b.  With the
cap t <= 1 the maximum of t is finite, and the system is feasible iff that
maximum is strictly positive.

`simplex_max` maximizes c.z subject to A z = b, z >= 0 by a two-phase
simplex with Bland's rule (lowest index enters, lowest basic index leaves
among tied ratios), so it terminates and is deterministic.  Phase 1 starts
from one artificial variable per row; a row whose artificial stays basic at
zero with no other nonzero entry is implied by the other rows and dropped.
The arithmetic is fraction-free: every row is scaled to integers once, and
one integer tableau, the objective rows included, is pivoted with the exact
update (p*x - f*y) // d, where p is the pivot and d the previous one.  The
true tableau is the integer one divided by d, which is kept positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalError

F = Fraction


@dataclass
class LinearSystem:
    """Rows mean a.x > b (strict), a.x >= b (nonstrict) and a.x = b (equal);
    every variable is nonnegative."""

    variables: list[str]
    strict_rows: list[tuple[list[Fraction], Fraction]] = field(default_factory=list)
    nonstrict_rows: list[tuple[list[Fraction], Fraction]] = field(default_factory=list)
    equal_rows: list[tuple[list[Fraction], Fraction]] = field(default_factory=list)

    def add_strict(self, coeffs, bound):
        self.strict_rows.append(([F(c) for c in coeffs], F(bound)))

    def add_nonstrict(self, coeffs, bound):
        self.nonstrict_rows.append(([F(c) for c in coeffs], F(bound)))

    def add_equal(self, coeffs, bound):
        self.equal_rows.append(([F(c) for c in coeffs], F(bound)))


def _integral(values):
    """(ints, scale) with ints[j] == values[j] * scale, the ints coprime;
    values are ints or Fractions."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        return [v // g for v in ints], F(den, g)
    return ints, F(den)


def simplex_max(A, b, c):
    """max c.z subject to A z = b, z >= 0, exact rationals.

    Returns (status, value, point) with status in {"optimal", "unbounded",
    "infeasible"}; value and point are Fractions, None unless optimal.
    """
    n = len(c)
    # tableau rows: the constraint rows, then the phase 2 and the phase 1
    # objective rows.  Columns are z_0..z_{n-1} and the right-hand side; the
    # artificial columns are not stored, since an artificial never re-enters.
    # An objective row reads value + sum(row[j] z_j) = row[n].
    tab = []
    for coeffs, rhs in zip(A, b):
        row, _ = _integral([*coeffs, rhs])
        tab.append([-v for v in row] if row[n] < 0 else row)
    cost, cost_scale = _integral(c)
    tab.append([-v for v in cost] + [0])
    tab.append([-sum(row[j] for row in tab[:-1]) for j in range(n + 1)])
    # basic[i] is the variable of row i; n + i is row i's artificial
    basic = list(range(n, n + len(tab) - 2))
    d = 1

    def pivot(r, s):
        nonlocal d
        prow = tab[r]
        p = prow[s]
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[s]
            if f:
                tab[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                tab[i] = [p * x // d for x in row]
        d = p
        if d < 0:
            for i, row in enumerate(tab):
                tab[i] = [-x for x in row]
            d = -d
        basic[r] = s

    def optimize():
        # Bland's rule on the last tableau row; False when unbounded
        while True:
            s = next((j for j in range(n) if tab[-1][j] < 0), None)
            if s is None:
                return True
            best = None
            for i in range(len(basic)):
                a = tab[i][s]
                if a > 0:
                    if best is None:
                        best = i
                        continue
                    lhs, rhs = tab[i][n] * tab[best][s], tab[best][n] * a
                    if lhs < rhs or (lhs == rhs and basic[i] < basic[best]):
                        best = i
            if best is None:
                return False
            pivot(best, s)

    if not optimize():
        raise InternalError("the phase 1 objective is bounded above by 0")
    if tab[-1][n] < 0:
        return "infeasible", None, None
    tab.pop()
    redundant = []
    for i in range(len(basic)):
        if basic[i] >= n:
            # the artificial sits at zero: swap in any structural column
            s = next((j for j in range(n) if tab[i][j]), None)
            if s is None:
                redundant.append(i)
            else:
                pivot(i, s)
    for i in reversed(redundant):
        del tab[i], basic[i]
    if not optimize():
        return "unbounded", None, None
    point = [F(0)] * n
    for i, j in enumerate(basic):
        point[j] = F(tab[i][n], d)
    return "optimal", F(tab[-1][n], d) / cost_scale, point


def lp_feasible(system: LinearSystem):
    """Decide a system exactly.

    Returns (feasible, witness) with the witness a list of Fractions for the
    declared variables, or (False, None).
    """
    k = len(system.variables)
    ineq = [(coeffs, bound, True) for coeffs, bound in system.strict_rows]
    ineq += [(coeffs, bound, False) for coeffs, bound in system.nonstrict_rows]
    # z layout: x (k), one slack per inequality row, t, the cap's slack
    t = k + len(ineq)
    n = t + 2
    A = []
    b = []
    for i, (coeffs, bound, strict) in enumerate(ineq):
        row = coeffs + [0] * (n - k)
        row[k + i] = -1
        if strict:
            row[t] = -1
        A.append(row)
        b.append(bound)
    for coeffs, bound in system.equal_rows:
        A.append(coeffs + [0] * (n - k))
        b.append(bound)
    cap = [0] * n
    cap[t] = cap[t + 1] = 1
    A.append(cap)
    b.append(1)
    c = [0] * n
    c[t] = 1
    status, val, point = simplex_max(A, b, c)
    if status == "infeasible":
        return False, None
    if status != "optimal":
        raise InternalError("the t <= 1 cap precludes unboundedness")
    if val <= 0:
        return False, None
    return True, point[:k]
