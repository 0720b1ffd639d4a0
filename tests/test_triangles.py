"""Triangle and polynomial-family generators."""

from fractions import Fraction
from math import factorial
from typing import Callable

import pytest

from runlab import grammar
from runlab import triangles as tr
from runlab.exactnum import RatPoly
from runlab.triangles import ConsistencyError, Family

F = Fraction


class TestRunTriangle:
    def test_printed_rows(self):
        t = tr.triangle_R(5)
        assert t.row(1) == [1]
        assert t.row(2) == [0, 2]
        assert t.row(3) == [0, 2, 4]
        assert t.row(4) == [0, 2, 12, 10]
        assert t.row(5) == [0, 2, 28, 58, 32]

    def test_entry_is_zero_outside_row(self):
        t = tr.triangle_R(4)
        assert t.entry(3, 0) == 0
        assert t.entry(3, 7) == 0

    def test_row_range_errors(self):
        t = tr.triangle_R(4)
        with pytest.raises(ValueError):
            t.row(5)
        with pytest.raises(ValueError):
            t.row(0)
        with pytest.raises(ValueError):
            tr.triangle_R(0)

    def test_row_sums_are_factorials(self):
        t = tr.triangle_R(9)
        for n in t.indices():
            assert sum(t.row(n)) == factorial(n)


class TestAltsubseqTriangle:
    def test_seeds_and_small_rows(self):
        t = tr.triangle_A(3)
        assert t.row(0) == [1]
        assert t.row(1) == [0, 1]
        assert t.row(2) == [0, 1, 1]
        assert t.row(3) == [0, 1, 3, 2]

    def test_row_sums_are_factorials(self):
        t = tr.triangle_A(8)
        for n in t.indices():
            assert sum(t.row(n)) == factorial(n)


class TestEulerTriangle:
    def test_small_rows(self):
        t = tr.triangle_euler(4)
        assert t.row(1) == [1]
        assert t.row(2) == [1, 1]
        assert t.row(3) == [1, 4, 1]
        assert t.row(4) == [1, 11, 11, 1]

    def test_row_sums_are_factorials(self):
        t = tr.triangle_euler(8)
        for n in t.indices():
            assert sum(t.row(n)) == factorial(n)


class TestPolyFamilies:
    def test_run_polys(self):
        R = tr.poly_R(5)
        assert R[1] == 1
        assert R[4] == RatPoly((0, 2, 12, 10))
        for n in range(2, 11):
            assert tr.poly_R(n)[n](F(1)) == factorial(n)

    def test_alt_polys(self):
        T = tr.poly_T(8)
        assert T[0] == 1
        assert T[1] == RatPoly((0, 1))
        assert T[2] == RatPoly((0, 1, 1))
        for n in T.indices():
            assert T[n](F(1)) == factorial(n)

    def test_peak_polys(self):
        W = tr.poly_W(4)
        assert W[1] == 1
        assert W[2] == 2
        assert W[3] == RatPoly((4, 2))
        assert W[4](F(1)) == 24

    def test_left_peak_polys(self):
        Wt = tr.poly_Wtilde(3)
        assert Wt[0] == 1
        assert Wt[1] == 1
        assert Wt[2] == RatPoly((1, 1))
        assert Wt[3] == RatPoly((1, 5))

    def test_tangent_polys(self):
        P = tr.poly_P(2)
        assert P[0] == RatPoly((0, 1))
        assert P[1] == RatPoly((1, 0, 1))
        assert P[2] == RatPoly((0, 2, 0, 2))

    def test_descent_polys(self):
        A = tr.poly_A(8)
        assert A[1] == RatPoly((0, 1))
        assert A[2] == RatPoly((0, 1, 1))
        for n in A.indices():
            assert A[n](F(1)) == factorial(n)

    def test_rows_are_fresh_per_call(self):
        # callers may edit the rows they get, as the fault tests do; the
        # next build must not see the edit
        for build in (tr.poly_P, tr.triangle_euler, tr.triangle_A):
            family = build(3)
            family.rows[0][-1] += 7
            assert build(3).rows[0] != family.rows[0]

    def test_getitem_is_the_row_as_a_value(self):
        # F[n] equals the checked constructor's polynomial, and neither
        # trims nor shares the stored row
        for family in (tr.poly_R(6), tr.poly_T(6), tr.poly_W(6), tr.poly_Wtilde(6),
                       tr.poly_A(6), tr.poly_P(6), Family("padded", 0, [[1, 2, 0, 0]])):
            for n in family.indices():
                row = family.row(n)
                before = list(row)
                p = family[n]
                assert p == RatPoly(row)
                assert family.row(n) == before
                row.append(5)
                row[0] -= 3
                assert p == RatPoly(before)
                assert family[n] == RatPoly(row) != p

    def test_index_errors(self):
        with pytest.raises(ValueError):
            tr.poly_T(5)[6]
        with pytest.raises(ValueError):
            tr.poly_W(0)
        with pytest.raises(ValueError):
            tr.poly_Wtilde(-1)

    def test_degrees(self):
        # rows are trimmed of trailing zeros, so a row's length is one
        # more than its polynomial's degree
        n_max = 20
        R, T = tr.poly_R(n_max), tr.poly_T(n_max)
        W, Wt = tr.poly_W(n_max), tr.poly_Wtilde(n_max)
        A, P = tr.poly_A(n_max), tr.poly_P(n_max)
        for n in range(2, n_max + 1):
            assert len(R.row(n)) == n
        for n in range(0, n_max + 1):
            assert len(T.row(n)) == n + 1
            assert len(P.row(n)) == n + 2
            assert len(Wt.row(n)) == n // 2 + 1
        for n in range(1, n_max + 1):
            assert len(W.row(n)) == (n - 1) // 2 + 1
            assert len(A.row(n)) == n + 1

    def test_all_coefficients_are_nonnegative_integers(self):
        for family in (
            tr.poly_R(15), tr.poly_T(15), tr.poly_W(15),
            tr.poly_Wtilde(15), tr.poly_A(10), tr.poly_P(12),
        ):
            for n in family.indices():
                for c in family[n].coeffs:
                    assert type(c) is int and c >= 0


# Independent references for the rows of the table runner: the
# differential recurrences of R_n, T_n, W_n, Wt_n and P_n stepped on
# ``RatPoly``, and the euler rows expanded from the dumont grammar.


def _recurrence_family(
    name: str,
    start: int,
    first: RatPoly,
    step: "Callable[[int, RatPoly], RatPoly]",
    seeds: "dict[int, RatPoly]",
    n_max: int,
) -> Family:
    """Run ``step`` from the smallest seed, asserting later seeds on the way."""
    if n_max < start:
        raise ValueError(f"n_max must be >= {start} for family {name!r}")
    top = max(n_max, max(seeds) if seeds else start)
    polys = [first]
    for n in range(start, top):
        nxt = step(n, polys[-1])
        expected = seeds.get(n + 1)
        if expected is not None and nxt != expected:
            raise ConsistencyError(
                f"family {name!r}: recurrence gives {nxt} at index {n + 1}, "
                f"seed says {expected}"
            )
        polys.append(nxt)
    return Family(name, start, [list(p.coeffs) for p in polys[: n_max - start + 1]])


R_STEP = lambda n, p: RatPoly((0, 2, n - 1)) * p + RatPoly((0, 1, 0, -1)) * p.derivative()
T_STEP = lambda n, p: RatPoly((0, 1, n)) * p + RatPoly((0, 1, 0, -1)) * p.derivative()
W_STEP = lambda n, p: RatPoly((2, n - 1)) * p + RatPoly((0, 2, -2)) * p.derivative()
WT_STEP = lambda n, p: RatPoly((1, n)) * p + RatPoly((0, 2, -2)) * p.derivative()
P_STEP = lambda n, p: RatPoly((1, 0, 1)) * p.derivative()


def triangle_euler(n_max: int) -> Family:
    """Descent counts, expanded from the two-letter substitution grammar
    {x -> xy, y -> xy}: the n-th derivative of x is
    sum_k E(n,k) x^(k+1) y^(n-k), and E(n,k) is the euler row."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    g = grammar.builtin("dumont")
    rows = []
    p = grammar.MPoly.letter("x")
    for n in range(1, n_max + 1):
        p = grammar.d_apply(g, p)
        row = [0] * n
        for mono, c in p.sorted_terms():
            k = mono.degree_of("x") - 1
            if not (0 <= k < n and mono.degree_of("y") == n - k
                    and sum(e for _, e in mono.items()) == n + 1):
                raise ConsistencyError(
                    f"unexpected monomial {mono} in derivative {n} of x"
                )
            row[k] = c
        rows.append(row)
    return Family("euler", 1, rows)


class TestCrossGeneration:
    def test_triangle_rows_equal_recurrence_polys(self):
        ref = _recurrence_family("R", 1, RatPoly((1,)), R_STEP, {}, 102)
        assert tr.triangle_R(102).rows == ref.rows

    def test_alt_triangle_rows_equal_recurrence_polys(self):
        ref = _recurrence_family("T", 0, RatPoly((1,)), T_STEP, {}, 101)
        assert tr.triangle_A(101).rows == ref.rows

    def test_peak_rows_equal_recurrence_polys(self):
        ref = _recurrence_family("W", 1, RatPoly((1,)), W_STEP,
                                 {2: RatPoly((2,)), 3: RatPoly((4, 2))}, 60)
        assert tr.poly_W(60).rows == ref.rows

    def test_left_peak_rows_equal_recurrence_polys(self):
        ref = _recurrence_family("Wt", 0, RatPoly((1,)), WT_STEP,
                                 {1: RatPoly((1,)), 2: RatPoly((1, 1)), 3: RatPoly((1, 5))},
                                 60)
        assert tr.poly_Wtilde(60).rows == ref.rows

    def test_tangent_rows_equal_recurrence_polys(self):
        ref = _recurrence_family("P", 0, RatPoly((0, 1)), P_STEP, {}, 60)
        assert tr.poly_P(60).rows == ref.rows

    def test_euler_rows_equal_dumont_expansion(self):
        ref = triangle_euler(60)
        assert tr.triangle_euler(60).rows == ref.rows
        assert tr.poly_A(60).rows == [[0] + row for row in ref.rows]

    def test_alt_polys_are_half_shifted_run_polys(self):
        R = tr.poly_R(25)
        T = tr.poly_T(25)
        for n in range(2, 26):
            assert 2 * T[n] == RatPoly((1, 1)) * R[n]


class TestConsistencyGuards:
    def test_table_seed_row_is_asserted(self, monkeypatch):
        # a_1(1) = 1 is printed; a shift-1 coefficient of 2 gives [0, 2],
        # and the printed row is asserted even when n_max stops short of it
        monkeypatch.setattr(tr, "_A_STEPS", ((0, 1, 0, 0), (1, 0, 0, 2), (2, -1, 1, 1)))
        for n_max in (3, 0):
            with pytest.raises(tr.ConsistencyError,
                               match=r"^row 1 of the altsubseq triangle is \[0, 2\], "
                                     r"expected \[0, 1\]$"):
                tr.triangle_A(n_max)

    def test_seed_mismatch_fails_loudly(self, monkeypatch):
        # a shift-1 coefficient 2n-2k-2 in place of n-2k keeps W_2 = 2 but
        # gives W_3 = 4+4x against the printed 4+2x, caught from poly_W(1) on
        monkeypatch.setattr(tr, "_W_STEPS", ((0, 2, 0, 2), (1, -2, 2, -2)))
        for n_max in (5, 1):
            with pytest.raises(tr.ConsistencyError,
                               match=r"^row 3 of the W triangle is \[4, 4\], "
                                     r"expected \[4, 2\]$"):
                tr.poly_W(n_max)
