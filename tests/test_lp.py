import random
from fractions import Fraction

from secgames.lp import LinearSystem, lp_feasible, simplex_max

F = Fraction


def feasible(strict, nonstrict, nvars):
    """Decide a system over free variables: each x_i is split into
    x_i+ - x_i- with both parts nonnegative, and the witness mapped back."""
    sys = LinearSystem([f"x{i}{sign}" for sign in "+-" for i in range(nvars)])
    for coeffs, bound in strict:
        sys.add_strict(split_free(coeffs), bound)
    for coeffs, bound in nonstrict:
        sys.add_nonstrict(split_free(coeffs), bound)
    ok, wit = lp_feasible(sys)
    if not ok:
        return ok, wit
    return ok, [wit[i] - wit[nvars + i] for i in range(nvars)]


def split_free(coeffs):
    return list(coeffs) + [-c for c in coeffs]


class TestKnownSystems:
    def test_x_positive_and_at_least_one(self):
        ok, wit = feasible([([1], 0)], [([1], 1)], 1)
        assert ok
        assert wit[0] >= 1 and wit[0] > 0

    def test_x_positive_and_nonpositive(self):
        ok, wit = feasible([([1], 0)], [([-1], 0)], 1)
        assert not ok and wit is None

    def test_sum_above_one_with_small_halves(self):
        ok, wit = feasible(
            [([1, 1], 1)], [([-1, 0], F(-1, 2)), ([0, -1], F(-1, 2))], 2
        )
        assert not ok


class TestSimplex:
    def test_simple_max(self):
        # max x + y s.t. x + s1 = 2, y + s2 = 3
        status, val, point = simplex_max([[1, 0, 1, 0], [0, 1, 0, 1]], [2, 3], [1, 1, 0, 0])
        assert status == "optimal" and val == 5

    def test_unbounded(self):
        # -x + s = 0
        status, val, point = simplex_max([[-1, 1]], [0], [1, 0])
        assert status == "unbounded"

    def test_infeasible(self):
        # x + s = -1
        status, val, point = simplex_max([[1, 1]], [-1], [0, 0])
        assert status == "infeasible"

    def test_negative_rhs_feasible(self):
        # -x + s = -2, max -x  ->  optimum -2
        status, val, point = simplex_max([[-1, 1]], [-2], [-1, 0])
        assert status == "optimal" and val == -2 and point[0] == 2

    def test_beale_cycling_example(self):
        # Beale (1955): the largest-coefficient rule cycles on it from the
        # slack basis; Bland's rule must stop at the optimum 5/4
        h, q = F(1, 2), F(1, 4)
        A = [
            [q, -8, -1, 9, 1, 0, 0],
            [h, -12, -h, 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
        c = [F(3, 4), -20, h, -6, 0, 0, 0]
        status, val, point = simplex_max(A, [0, 0, 1], c)
        assert status == "optimal" and val == F(5, 4)
        assert point == [1, 0, 1, 0, F(3, 4), 0, 0]

    def test_duplicated_equality_row(self):
        # rank-deficient A: x + y = 2 twice, x - y + s = 1; max x at (3/2, 1/2)
        A = [[1, 1, 0], [1, 1, 0], [1, -1, 1]]
        status, val, point = simplex_max(A, [2, 2, 1], [1, 0, 0])
        assert status == "optimal" and val == F(3, 2)
        assert point == [F(3, 2), F(1, 2), 0]

    def test_duplicated_row_inconsistent(self):
        status, _, _ = simplex_max([[1, 1], [1, 1]], [2, 3], [1, 0])
        assert status == "infeasible"


def fourier_motzkin(strict, nonstrict, nvars):
    """Exact feasibility oracle: eliminate variables one at a time.

    Rows are (coeffs, bound, is_strict) meaning coeffs.x >(=) bound.
    """
    rows = [(list(map(F, c)), F(b), True) for c, b in strict]
    rows += [(list(map(F, c)), F(b), False) for c, b in nonstrict]
    for var in range(nvars):
        lower, upper, rest = [], [], []
        for coeffs, bound, is_strict in rows:
            a = coeffs[var]
            if a > 0:
                lower.append((coeffs, bound, is_strict))
            elif a < 0:
                upper.append((coeffs, bound, is_strict))
            else:
                rest.append((coeffs, bound, is_strict))
        new_rows = rest
        for lc, lb, ls in lower:
            for uc, ub, us in upper:
                la, ua = lc[var], uc[var]
                # (lb - lrest)/la <= (ub - urest)/ua with la > 0 > ua gives
                # sum (la*uc_j - ua*lc_j) x_j >= la*ub - ua*lb
                coeffs = [
                    la * uc[j] - ua * lc[j] if j != var else F(0)
                    for j in range(nvars)
                ]
                bound = la * ub - ua * lb
                new_rows.append((coeffs, bound, ls or us))
        rows = new_rows
    for coeffs, bound, is_strict in rows:
        assert all(c == 0 for c in coeffs)
        if is_strict:
            if not (0 > bound):
                return False
        else:
            if not (0 >= bound):
                return False
    return True


class TestAgainstFourierMotzkin:
    def test_random_nonstrict_systems(self):
        rng = random.Random(41)
        for _ in range(120):
            nvars = rng.randint(1, 3)
            rows = [
                ([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-4, 4))
                for _ in range(rng.randint(1, 5))
            ]
            ok, wit = feasible([], rows, nvars)
            assert ok == fourier_motzkin([], rows, nvars), rows
            if ok:
                for coeffs, bound in rows:
                    assert sum(F(c) * w for c, w in zip(coeffs, wit)) >= bound

    def test_random_mixed_systems(self):
        rng = random.Random(42)
        for _ in range(120):
            nvars = rng.randint(1, 3)
            strict = [
                ([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-4, 4))
                for _ in range(rng.randint(0, 3))
            ]
            nonstrict = [
                ([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-4, 4))
                for _ in range(rng.randint(0, 3))
            ]
            ok, wit = feasible(strict, nonstrict, nvars)
            assert ok == fourier_motzkin(strict, nonstrict, nvars), (strict, nonstrict)
            if ok:
                for coeffs, bound in strict:
                    assert sum(F(c) * w for c, w in zip(coeffs, wit)) > bound
                for coeffs, bound in nonstrict:
                    assert sum(F(c) * w for c, w in zip(coeffs, wit)) >= bound


def nonnegative_oracle(strict, nonstrict, equal, nvars):
    """Fourier-Motzkin on a nonnegative system: x >= 0 and each equality as
    two opposite nonstrict rows."""
    rows = list(nonstrict)
    for i in range(nvars):
        rows.append(([int(i == j) for j in range(nvars)], 0))
    for coeffs, bound in equal:
        rows.append((coeffs, bound))
        rows.append(([-c for c in coeffs], -bound))
    return fourier_motzkin(strict, rows, nvars)


class TestNonnegativeAgainstFourierMotzkin:
    def test_random_systems_with_equalities(self):
        rng = random.Random(43)

        def rows(count, nvars):
            return [
                ([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-4, 4))
                for _ in range(count)
            ]

        feasible_count = 0
        for _ in range(300):
            nvars = rng.randint(1, 3)
            strict = rows(rng.randint(0, 2), nvars)
            nonstrict = rows(rng.randint(0, 2), nvars)
            equal = rows(rng.randint(0, 2), nvars)
            sys = LinearSystem([f"x{i}" for i in range(nvars)])
            for coeffs, bound in strict:
                sys.add_strict(coeffs, bound)
            for coeffs, bound in nonstrict:
                sys.add_nonstrict(coeffs, bound)
            for coeffs, bound in equal:
                sys.add_equal(coeffs, bound)
            ok, wit = lp_feasible(sys)
            assert ok == nonnegative_oracle(strict, nonstrict, equal, nvars), (
                strict,
                nonstrict,
                equal,
            )
            if not ok:
                assert wit is None
                continue
            feasible_count += 1

            def dot(coeffs):
                return sum(F(c) * w for c, w in zip(coeffs, wit))

            assert len(wit) == nvars and all(w >= 0 for w in wit)
            assert all(dot(c) > b for c, b in strict)
            assert all(dot(c) >= b for c, b in nonstrict)
            assert all(dot(c) == b for c, b in equal)
        # both answers occur often enough to mean something
        assert 50 < feasible_count < 250
