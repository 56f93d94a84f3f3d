"""Exact linear feasibility with strict inequalities.

Strict rows a.x > b are relaxed to a.x - y >= b for a fresh variable y; the
system is feasible iff the maximum of y (capped at 1) is strictly positive.
The maximization runs on a dense two-phase simplex over Fractions with
Bland's rule, so it terminates and is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalError

F = Fraction


@dataclass
class LinearSystem:
    """Rows mean a.x > b (strict) and a.x >= b (nonstrict); x is free."""

    variables: list[str]
    strict_rows: list[tuple[list[Fraction], Fraction]] = field(default_factory=list)
    nonstrict_rows: list[tuple[list[Fraction], Fraction]] = field(default_factory=list)

    def add_strict(self, coeffs, bound):
        self.strict_rows.append(([F(c) for c in coeffs], F(bound)))

    def add_nonstrict(self, coeffs, bound):
        self.nonstrict_rows.append(([F(c) for c in coeffs], F(bound)))


def simplex_max(A, b, c):
    """max c.z subject to A z <= b, z >= 0, exact rationals.

    Returns (status, value, point) with status in {"optimal", "unbounded",
    "infeasible"}.  Dictionary form with Bland's rule (lowest index enters
    and leaves), classic auxiliary-variable phase 1.
    """
    m = len(A)
    n = len(c)
    # dictionary: basic[i] gives the variable of row i; columns are
    # [nonbasic coeffs | rhs] with x_B = rhs - sum(coef * nonbasic)
    # variable ids: 0..n-1 structural, n..n+m-1 slack, n+m auxiliary
    aux = n + m
    nonbasic = list(range(n)) + [aux]
    basic = list(range(n, n + m))
    rows = []
    for i in range(m):
        coef = [F(A[i][j]) for j in range(n)] + [F(-1)]
        rows.append((coef, F(b[i])))

    def pivot(r, col):
        # row r:  x_leave = rhs - sum coef[j] * x_nonbasic[j]; solve for the
        # entering variable sitting at `col` and substitute everywhere
        coef, rhs = rows[r]
        p = coef[col]
        new_coef = [cj / p for cj in coef]
        new_coef[col] = F(1) / p
        new_rhs = rhs / p
        enter, leave = nonbasic[col], basic[r]
        nonbasic[col] = leave
        basic[r] = enter
        rows[r] = (new_coef, new_rhs)
        for i in range(m):
            if i == r:
                continue
            ci, ri = rows[i]
            f = ci[col]
            if f == 0:
                continue
            upd = [ci[j] - f * new_coef[j] for j in range(len(ci))]
            upd[col] = -f * new_coef[col]
            rows[i] = (upd, ri - f * new_rhs)

    def objective_row(cvec):
        # express objective over nonbasic variables given current dictionary
        obj = [F(0)] * len(nonbasic)
        const = F(0)
        for j, var in enumerate(nonbasic):
            if var < len(cvec):
                obj[j] += cvec[var]
        for i in range(m):
            var = basic[i]
            if var < len(cvec) and cvec[var] != 0:
                coef, rhs = rows[i]
                const += cvec[var] * rhs
                for j in range(len(obj)):
                    obj[j] -= cvec[var] * coef[j]
        return obj, const

    def bland_optimize(cvec):
        while True:
            obj, const = objective_row(cvec)
            enter_j = None
            for j in sorted(range(len(nonbasic)), key=lambda j: nonbasic[j]):
                if nonbasic[j] == aux:
                    continue  # the auxiliary variable must stay at zero
                if obj[j] > 0:
                    enter_j = j
                    break
            if enter_j is None:
                return "optimal", const
            ratio = None
            leave_r = None
            for i in range(m):
                coef, rhs = rows[i]
                if coef[enter_j] > 0:
                    r = rhs / coef[enter_j]
                    if ratio is None or r < ratio or (
                        r == ratio and basic[i] < basic[leave_r]
                    ):
                        ratio = r
                        leave_r = i
            if leave_r is None:
                return "unbounded", None
            pivot(leave_r, enter_j)

    # phase 1 if any rhs negative: bring in the auxiliary variable
    if any(rows[i][1] < 0 for i in range(m)):
        worst = min(range(m), key=lambda i: rows[i][1])
        aux_col = nonbasic.index(aux)
        pivot(worst, aux_col)
        caux = [F(0)] * (n + m + 1)
        caux[aux] = F(-1)
        status, val = bland_optimize(caux)
        if status != "optimal":
            raise InternalError("phase 1 objective is bounded above by 0 yet not optimal")
        if val < 0:
            return "infeasible", None, None
        if aux in basic:
            # degenerate optimum: pivot the auxiliary variable out if its
            # row allows it (otherwise it sits harmlessly at zero)
            r = basic.index(aux)
            coef, _rhs = rows[r]
            for j in range(len(nonbasic)):
                if coef[j] != 0 and nonbasic[j] != aux:
                    pivot(r, j)
                    break
        if aux in nonbasic:
            # drop the auxiliary column entirely
            j = nonbasic.index(aux)
            nonbasic.pop(j)
            for i in range(m):
                coef, rhs = rows[i]
                coef.pop(j)
                rows[i] = (coef, rhs)
    cfull = [F(c[j]) for j in range(n)] + [F(0)] * (m + 1)
    status, val = bland_optimize(cfull)
    if status == "unbounded":
        return "unbounded", None, None
    point = [F(0)] * n
    for i in range(m):
        if basic[i] < n:
            point[basic[i]] = rows[i][1]
    return "optimal", val, point


def lp_feasible(system: LinearSystem):
    """Decide a.x > b / a.x >= b systems exactly.

    Returns (feasible, witness) with the witness a list of Fractions for the
    declared variables.
    """
    k = len(system.variables)
    # z layout: x+ (k), x- (k), y+ , y-
    n = 2 * k + 2
    A = []
    b = []

    def le_row(coeffs, bound, with_y):
        # sum coeffs.x (+ y) <= bound
        row = [F(0)] * n
        for j, c in enumerate(coeffs):
            row[j] = F(c)
            row[k + j] = -F(c)
        if with_y:
            row[2 * k] = F(1)
            row[2 * k + 1] = F(-1)
        A.append(row)
        b.append(F(bound))

    for coeffs, bound in system.strict_rows:
        # a.x - y >= b  ->  -a.x + y <= -b
        le_row([-c for c in coeffs], -bound, with_y=True)
    for coeffs, bound in system.nonstrict_rows:
        le_row([-c for c in coeffs], -bound, with_y=False)
    # cap y <= 1
    row = [F(0)] * n
    row[2 * k] = F(1)
    row[2 * k + 1] = F(-1)
    A.append(row)
    b.append(F(1))

    c = [F(0)] * n
    c[2 * k] = F(1)
    c[2 * k + 1] = F(-1)
    status, val, point = simplex_max(A, b, c)
    if status == "infeasible":
        return False, None
    if status != "optimal":
        raise InternalError("the y <= 1 cap precludes unboundedness")
    if val <= 0:
        return False, None
    witness = [point[j] - point[k + j] for j in range(k)]
    return True, witness
