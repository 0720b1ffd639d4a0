"""Triangle and polynomial-family generators."""

from fractions import Fraction
from math import factorial

import pytest

from runlab import triangles as tr
from runlab.exactnum import RatPoly

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

    def test_index_errors(self):
        with pytest.raises(ValueError):
            tr.poly_T(5)[6]
        with pytest.raises(ValueError):
            tr.poly_W(0)
        with pytest.raises(ValueError):
            tr.poly_Wtilde(-1)

    def test_degrees(self):
        n_max = 20
        R, T = tr.poly_R(n_max), tr.poly_T(n_max)
        W, Wt = tr.poly_W(n_max), tr.poly_Wtilde(n_max)
        A, P = tr.poly_A(n_max), tr.poly_P(n_max)
        for n in range(2, n_max + 1):
            assert R[n].degree == n - 1
        for n in range(0, n_max + 1):
            assert T[n].degree == n
            assert P[n].degree == n + 1
            assert Wt[n].degree == n // 2
        for n in range(1, n_max + 1):
            assert W[n].degree == (n - 1) // 2
            assert A[n].degree == n

    def test_all_coefficients_are_nonnegative_integers(self):
        for family in (
            tr.poly_R(15), tr.poly_T(15), tr.poly_W(15),
            tr.poly_Wtilde(15), tr.poly_A(10), tr.poly_P(12),
        ):
            for n in family.indices():
                for c in family[n].coeffs:
                    assert type(c) is int and c >= 0


# The differential recurrences of R_n and T_n, stepped on polynomials: an
# independent reference for the rows of the table runner.
R_STEP = lambda n, p: RatPoly((0, 2, n - 1)) * p + RatPoly((0, 1, 0, -1)) * p.derivative()
T_STEP = lambda n, p: RatPoly((0, 1, n)) * p + RatPoly((0, 1, 0, -1)) * p.derivative()


class TestCrossGeneration:
    def test_triangle_rows_equal_recurrence_polys(self):
        ref = tr._recurrence_family("R", 1, RatPoly((1,)), R_STEP, {}, 102)
        assert tr.triangle_R(102).rows == ref.rows
        assert tr.poly_R(102).rows == ref.rows

    def test_alt_triangle_rows_equal_recurrence_polys(self):
        ref = tr._recurrence_family("T", 0, RatPoly((1,)), T_STEP, {}, 101)
        assert tr.triangle_A(101).rows == ref.rows
        assert tr.poly_T(101).rows == ref.rows

    def test_alt_polys_are_half_shifted_run_polys(self):
        R = tr.poly_R(25)
        T = tr.poly_T(25)
        for n in range(2, 26):
            assert 2 * T[n] == RatPoly((1, 1)) * R[n]

    def test_peak_triangles_match_polys(self):
        W = tr.poly_W(10)
        t = tr.triangle_W(10)
        for n in t.indices():
            assert RatPoly(t.row(n)) == W[n]
        Wt = tr.poly_Wtilde(10)
        t = tr.triangle_Wtilde(10)
        for n in t.indices():
            assert RatPoly(t.row(n)) == Wt[n]


class TestConsistencyGuards:
    def test_table_seed_row_is_asserted(self, monkeypatch):
        # a_1(1) = 1 is printed; a shift-1 coefficient of 2 gives [0, 2]
        monkeypatch.setattr(tr, "_A_STEPS", ((0, 1, 0, 0), (1, 0, 0, 2), (2, -1, 1, 1)))
        with pytest.raises(tr.ConsistencyError, match=r"row 1 of the altsubseq"):
            tr.triangle_A(3)
        assert tr.triangle_A(0).rows == [[1]]

    def test_seed_mismatch_fails_loudly(self):
        step = lambda n, p: RatPoly((2, n - 1)) * p + RatPoly((0, 2, -2)) * p.derivative()
        with pytest.raises(tr.ConsistencyError):
            tr._recurrence_family(
                "bad", 1, RatPoly((1,)), step, {3: RatPoly((4, 3))}, 5
            )

    def test_non_integral_step_fails_loudly(self):
        halver = lambda n, p: p * F(1, 2)
        with pytest.raises(TypeError):
            tr._recurrence_family("halves", 0, RatPoly((1,)), halver, {}, 3)
