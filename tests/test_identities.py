"""Identity harness: reports, plans, failure paths, determinism."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from runlab import identities as idn
from runlab import grammar, permcore as pc, triangles
from runlab.exactnum import QuadExt

F = Fraction

REPORT_SCHEMA_KEYS = {"identity", "params", "passed", "first_failure"}
FAILURE_SCHEMA_KEYS = {"n", "point", "lhs", "rhs"}


def corrupt_triangle(builder, n, k, delta=1):
    """Wrap a triangle builder so one entry comes out wrong."""

    def wrapped(n_max):
        tri = builder(n_max)
        if tri.start <= n <= tri.max_n and k < len(tri.row(n)):
            tri.row(n)[k] += delta
        return tri

    return wrapped


class TestGrammarChecks:
    def test_runs_expansion(self):
        assert idn.check_grammar_runs(8).passed

    def test_alt_expansion(self):
        assert idn.check_grammar_alt(8).passed

    def test_eulerian(self):
        assert idn.check_dumont(8, oracle_n_max=6).passed

    def test_peaks(self):
        assert idn.check_peaks_grammar(8, oracle_n_max=6).passed

    def test_leibniz(self):
        report = idn.check_leibniz(n_max=6, cases=40)
        assert report.passed
        assert report.params["cases"] == 40


class TestPolynomialChecks:
    def test_convolutions(self):
        assert idn.check_convolutions(10).passed

    def test_recurrences(self):
        assert idn.check_recurrence_consistency(10).passed

    def test_alt_from_runs(self):
        assert idn.check_alt_from_runs(12).passed

    def test_runs_from_peaks(self):
        report = idn.check_runs_from_peaks(10)
        assert report.passed
        assert report.params["points"] >= 12


class TestPointwiseChecks:
    def test_tangent_closed_forms(self):
        report = idn.check_tangent_forms(8)
        assert report.passed
        assert report.params["points"] >= 2 * 8 + 3

    def test_tangent_w_form_by_hand(self):
        # n=2, x=3: (1/3) sigma^3 P_2(1/sigma) with sigma^2 = 2 equals W_2(3) = 2
        P2 = triangles.poly_P(2)[2]
        sigma = QuadExt.root(2)
        val = sigma**3 * P2(sigma.inverse()) / F(3)
        assert val == 2

    def test_david_barton(self):
        assert idn.check_david_barton(8).passed

    def test_david_barton_value_by_hand(self):
        # n=2, x=1/2: both sides equal 1
        x = F(1, 2)
        w = QuadExt.root(1 - x * x) / (1 + x)
        u = (1 - w) / (1 + w)
        A2 = triangles.poly_A(2)[2]
        val = ((1 + x) / 2) ** 1 * (1 + w) ** 3 * A2(u)
        assert val == 1 == triangles.poly_R(2)[2](x)

    def test_singular_points_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            idn.check_tangent_forms(4, idn.SamplePlan((F(1),)))
        with pytest.raises(ValueError, match="singular"):
            idn.check_tangent_forms(4, idn.SamplePlan((F(0),)))
        with pytest.raises(ValueError, match="singular"):
            idn.check_david_barton(4, idn.SamplePlan((F(0),)))
        with pytest.raises(ValueError, match="singular"):
            idn.check_david_barton(4, idn.SamplePlan((F(3, 2),)))
        with pytest.raises(ValueError, match="singular"):
            idn.check_runs_from_peaks(4, idn.SamplePlan((F(-1),)))

    def test_default_plans_avoid_squares(self):
        plan = idn.default_plan("tangent", 30)
        assert len(plan.points) == len(set(plan.points)) == 30
        for x in plan.points:
            assert x > 1
            assert not idn._is_square(x - 1)
            assert not idn._is_square((x + 1) / (x - 1))

    def test_under_certified_plans_rejected(self):
        # the degree bound needs n_max + 2 points for runs-from-peaks and
        # 2 n_max + 3 for the two radical forms; one fewer is refused
        with pytest.raises(ValueError, match="certify"):
            idn.check_runs_from_peaks(6, idn.default_plan("runs-from-peaks", 7))
        with pytest.raises(ValueError, match="certify"):
            idn.check_tangent_forms(6, idn.default_plan("tangent", 14))
        with pytest.raises(ValueError, match="certify"):
            idn.check_david_barton(6, idn.default_plan("david-barton", 14))
        assert idn.check_david_barton(6, idn.default_plan("david-barton", 15)).passed

    @pytest.mark.parametrize("count", [0, -1])
    def test_nonpositive_plan_sizes_rejected(self, monkeypatch, count):
        # refused before the infinite rational pool is read at all
        def no_pool():
            pytest.fail("the sample pool was read")

        monkeypatch.setattr(idn, "_pool", no_pool)
        for kind in ("runs-from-peaks", "tangent", "david-barton"):
            with pytest.raises(ValueError, match=f"points must be >= 1, got {count}$"):
                idn.default_plan(kind, count)
        for suite in ("all", "grammar"):
            with pytest.raises(ValueError, match=f"points must be >= 1, got {count}$"):
                idn.run_suite(suite, points=count)

    def test_square_discriminants_still_work(self):
        # non-square d is a preference, not a requirement: x - 1 = 9/4 is square
        report = idn.check_tangent_forms(3, idn.SamplePlan((F(13, 4), F(7, 3), F(9, 5), F(12, 5), F(3), F(5, 2), F(4), F(5), F(6), F(7))))
        assert report.passed


class TestSeriesChecks:
    def test_carlitz_all_default_points(self):
        for x0 in idn.DEFAULT_CARLITZ_X0S:
            assert idn.check_carlitz(x0, order=8).passed

    def test_carlitz_leading_constant(self):
        # z^0 coefficient of the closed form is 1 = R(1,0) at any base point
        tri = triangles.triangle_R(1)
        assert idn._egf_coeffs(lambda n: tri.row(n + 1), F(1, 3), 0) == [F(1)]

    def test_carlitz_at_zero_reads_top_coefficients(self):
        # x0 = 0 keeps only k = n: coefficients n! * [z^n] are R(n+1, n)
        tri = triangles.triangle_R(6)
        coeffs = idn._egf_coeffs(lambda n: tri.row(n + 1), F(0), 4)
        fact = [1, 1, 2, 6, 24]
        assert [c * f for c, f in zip(coeffs, fact)] == [1, 2, 4, 10, 32]

    def test_stanley(self):
        for t0 in idn.DEFAULT_STANLEY_T0S:
            assert idn.check_stanley_gf(t0, order=8).passed

    def test_final_gf(self):
        for x0 in idn.DEFAULT_FINAL_X0S:
            assert idn.check_altsubseq_gf(x0, order=8).passed

    def test_bad_base_points_rejected(self):
        for fn in (idn.check_carlitz, idn.check_stanley_gf, idn.check_altsubseq_gf):
            with pytest.raises(ValueError):
                fn(F(1), order=4)
            with pytest.raises(ValueError):
                fn(F(-1), order=4)
            with pytest.raises(ValueError):
                fn(F(5, 3), order=4)
            with pytest.raises(ValueError, match="order must be >= 1"):
                fn(F(1, 2), order=0)


class TestOracleCheck:
    def test_passes(self):
        assert idn.check_oracle(6).passed


class TestFaultInjection:
    def test_corrupt_run_entry_breaks_grammar_check(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_R", corrupt_triangle(triangles.triangle_R, 5, 2)
        )
        assert self._failure(idn.check_grammar_runs(6)) == (
            4, "derivative of x^2",
            "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
            "2*x^2*y*z^3 + 29*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
        )

    def test_corrupt_run_column_zero_breaks_grammar_check(self, monkeypatch):
        # R(5,0) is 0; a nonzero k = 0 entry must reach the expected poly
        monkeypatch.setattr(
            triangles, "triangle_R", corrupt_triangle(triangles.triangle_R, 5, 0)
        )
        assert self._failure(idn.check_grammar_runs(6)) == (
            4, "derivative of x^2",
            "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
            "x^2*z^4 + 2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
        )

    def test_corrupt_alt_column_zero_breaks_grammar_alt(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_A", corrupt_triangle(triangles.triangle_A, 4, 0)
        )
        assert self._failure(idn.check_grammar_alt(6)) == (
            4, "derivative of x",
            "x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
            "x*z^4 + x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
        )

    def test_corrupt_alt_entry_breaks_gf_check(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_A", corrupt_triangle(triangles.triangle_A, 4, 2)
        )
        assert self._failure(idn.check_altsubseq_gf(F(1, 3), order=6)) == (
            4, "z^4", "259/648", "32/81"
        )

    def test_corrupt_euler_entry_breaks_oracle_check(self, monkeypatch):
        monkeypatch.setattr(
            triangles,
            "triangle_euler",
            corrupt_triangle(triangles.triangle_euler, 3, 1),
        )
        assert self._failure(idn.check_oracle(4)) == (
            3, "descents over S_3", "{0:1, 1:4, 2:1}", "{0:1, 1:5, 2:1}",
        )

    def test_runs_off_by_one_breaks_oracle_check(self, monkeypatch):
        monkeypatch.setitem(
            pc._STAT_FUNCS, pc.Stat.RUNS, lambda w: pc.alternating_runs(w) + 1
        )
        assert self._failure(idn.check_oracle(6)) == (
            1, "runs over S_1", "{1:1}", "{0:1}",
        )

    def test_left_peak_sentinel_flip_breaks_oracle_check(self, monkeypatch):
        def flipped(w):
            # position 1 counts on an ascent instead of a descent
            n = len(w)
            if n < 2:
                return 0
            return (w[0] < w[1]) + pc.interior_peaks(w)

        monkeypatch.setitem(pc._STAT_FUNCS, pc.Stat.LEFT_PEAKS, flipped)
        assert self._failure(idn.check_oracle(6)) == (
            3, "leftpeaks over S_3", "{0:3, 1:1, 2:2}", "{0:1, 1:5}",
        )

    def test_altsubseq_opening_ascent_breaks_oracle_check(self, monkeypatch):
        # the DP with need_asc reachable from the start, so a subsequence may
        # open with an ascent.  Dropping only its `need_asc[i] and` guard is
        # an equivalent mutant: an unreachable need_asc[i] = 0 offers length
        # 1, which never beats need_desc[j] >= 1.
        def open_ascent(w):
            n = len(w)
            need_desc = [1] * n
            need_asc = [1] * n
            for j in range(n):
                for i in range(j):
                    if w[i] > w[j]:
                        need_asc[j] = max(need_asc[j], need_desc[i] + 1)
                    else:
                        need_desc[j] = max(need_desc[j], need_asc[i] + 1)
            return max(need_desc + need_asc)

        monkeypatch.setitem(pc._STAT_FUNCS, pc.Stat.LONGEST_ALT_SUBSEQ, open_ascent)
        assert self._failure(idn.check_oracle(6)) == (
            2, "altsubseq over S_2", "{2:2}", "{1:1, 2:1}",
        )

    def test_corrupt_run_entry_breaks_recurrences(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_R", corrupt_triangle(triangles.triangle_R, 6, 3)
        )
        assert self._failure(idn.check_recurrence_consistency(6)) == (
            4, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'",
            "2*x + 60*x^2 + 237*x^3 + 300*x^4 + 122*x^5",
            "2*x + 60*x^2 + 236*x^3 + 300*x^4 + 122*x^5",
        )

    def test_corrupt_left_peak_row_breaks_convolutions(self, monkeypatch):
        # the first two formulas read only R and T, so the third fails first
        monkeypatch.setattr(
            triangles, "poly_Wtilde", corrupt_triangle(triangles.poly_Wtilde, 2, 1)
        )
        assert self._failure(idn.check_convolutions(6)) == (
            2, "R_(n+2) = 2x Wt_n(x^2) + 2x sum C(n,k) R_(k+1) Wt_(n-k)(x^2)",
            "2*x + 12*x^2 + 10*x^3", "2*x + 12*x^2 + 12*x^3",
        )

    def test_corrupt_alt_polynomial_breaks_alt_from_runs(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "poly_T", corrupt_triangle(triangles.poly_T, 4, 2)
        )
        assert self._failure(idn.check_alt_from_runs(6)) == (
            4, "2 T_n = (1+x) R_n",
            "2*x + 16*x^2 + 22*x^3 + 10*x^4", "2*x + 14*x^2 + 22*x^3 + 10*x^4",
        )

    def test_perturbed_run_table_reaches_every_reader(self, monkeypatch):
        # the shift-2 coefficient n-k+1 of the A table in place of R's n-k:
        # rows 1..3 survive, R(4,3) reads 12 instead of 10
        monkeypatch.setattr(triangles, "_R_STEPS",
                            ((0, 1, 0, 0), (1, 0, 0, 2), (2, -1, 1, 1)))
        assert self._failure(idn.check_oracle(6)) == (
            4, "runs over S_4", "{1:2, 2:12, 3:10}", "{1:2, 2:12, 3:12}",
        )
        assert self._failure(idn.check_grammar_runs(6)) == (
            3, "derivative of x^2",
            "2*x^2*y*z^2 + 12*x^2*y^2*z + 10*x^2*y^3",
            "2*x^2*y*z^2 + 12*x^2*y^2*z + 12*x^2*y^3",
        )
        assert self._failure(idn.check_alt_from_runs(6)) == (
            4, "2 T_n = (1+x) R_n",
            "2*x + 14*x^2 + 22*x^3 + 10*x^4", "2*x + 14*x^2 + 24*x^3 + 12*x^4",
        )
        assert self._failure(idn.check_tangent_forms(4)) == (
            4, "R-form x=3/2", "141/2", "255/4",
        )

    def test_moved_descent_class_reaches_every_oracle_reader(self, monkeypatch):
        # 1234's class counted under 1324's: the sizes still sum to 4!, but
        # the one shared walk of S_4 is wrong for all three of its readers
        real = pc.descent_classes

        def moved(n):
            sizes = dict(real(n))
            if n == 4:
                sizes[(1, 3, 2, 4)] += sizes.pop((1, 2, 3, 4))
            return list(sizes.items())

        monkeypatch.setattr(pc, "descent_classes", moved)
        failures = {r.identity: self._failure(r)
                    for r in idn.run_suite("all") if not r.passed}
        assert failures == {
            "grammar/eulerian": (4, "descent histogram over S_4",
                                 "{0:1, 1:11, 2:11, 3:1}", "{1:12, 2:11, 3:1}"),
            "grammar/peaks": (4, "interior-peak histogram over S_4",
                              "{0:8, 1:16}", "{0:7, 1:17}"),
            "oracle/triangles": (4, "runs over S_4",
                                 "{1:1, 2:12, 3:11}", "{1:2, 2:12, 3:10}"),
        }

    @staticmethod
    def _failure(report):
        assert not report.passed
        f = report.first_failure
        return f.n, f.point, f.lhs, f.rhs

    def test_corrupt_peak_entry_breaks_runs_from_peaks(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "poly_W", corrupt_triangle(triangles.poly_W, 3, 1)
        )
        assert self._failure(idn.check_runs_from_peaks(4)) == (
            3, "T-form x=1/2", "3/2", "27/16"
        )

    def test_corrupt_descent_entry_breaks_david_barton(self, monkeypatch):
        # the middle entry of the palindromic A_3 keeps the sqrt component
        # zero, so the rational parts are what disagree
        monkeypatch.setattr(
            triangles, "poly_A", corrupt_triangle(triangles.poly_A, 3, 2)
        )
        assert self._failure(idn.check_david_barton(4)) == (3, "x=1/2", "2", "9/4")

    def test_corrupt_peak_entry_breaks_tangent_rational_part(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "poly_W", corrupt_triangle(triangles.poly_W, 3, 1)
        )
        assert self._failure(idn.check_tangent_forms(4)) == (
            3, "W-form x=3/2", "17/2", "7"
        )

    def test_corrupt_run_entry_breaks_carlitz(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_R", corrupt_triangle(triangles.triangle_R, 4, 2)
        )
        assert self._failure(idn.check_carlitz(F(1, 3), order=6)) == (
            3, "z^3", "131/54", "64/27"
        )

    def test_corrupt_alt_polynomial_breaks_stanley(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "poly_T", corrupt_triangle(triangles.poly_T, 4, 2)
        )
        assert self._failure(idn.check_stanley_gf(F(1, 3), order=6)) == (
            4, "z^4", "137/1944", "16/243"
        )

    def test_corrupt_alt_entry_breaks_grammar_alt(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_A", corrupt_triangle(triangles.triangle_A, 4, 2)
        )
        assert self._failure(idn.check_grammar_alt(6)) == (
            4, "derivative of x",
            "x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
            "x*y*z^3 + 8*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
        )

    def test_corrupt_euler_entry_breaks_dumont(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_euler",
            corrupt_triangle(triangles.triangle_euler, 4, 1),
        )
        assert self._failure(idn.check_dumont(6, 4)) == (
            4, "derivative of x",
            "x*y^4 + 11*x^2*y^3 + 11*x^3*y^2 + x^4*y",
            "x*y^4 + 12*x^2*y^3 + 11*x^3*y^2 + x^4*y",
        )

    def test_corrupt_peak_row_breaks_peaks_grammar(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "poly_W", corrupt_triangle(triangles.poly_W, 4, 1)
        )
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            4, "derivative of z", "8*y^2*z^3 + 16*y^4*z", "8*y^2*z^3 + 17*y^4*z"
        )

    def test_corrupt_left_peak_row_breaks_peaks_grammar(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "poly_Wtilde", corrupt_triangle(triangles.poly_Wtilde, 3, 1)
        )
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            3, "derivative of y", "y*z^3 + 5*y^3*z", "y*z^3 + 6*y^3*z"
        )

    def test_left_peak_sentinel_flip_breaks_peaks_grammar(self, monkeypatch):
        # the oracle half of the check: the row comes first, the histogram second
        def flipped(w):
            n = len(w)
            if n < 2:
                return 0
            return (w[0] < w[1]) + pc.interior_peaks(w)

        monkeypatch.setitem(pc._STAT_FUNCS, pc.Stat.LEFT_PEAKS, flipped)
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            3, "left-peak histogram over S_3", "{0:1, 1:5}", "{0:3, 1:1, 2:2}",
        )

    def test_corrupt_left_peak_seed_breaks_peaks_grammar(self, monkeypatch):
        # Wt_0 = 2 against the seed y, before any derivative is taken
        monkeypatch.setattr(
            triangles, "poly_Wtilde", corrupt_triangle(triangles.poly_Wtilde, 0, 0)
        )
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            0, "derivative 0 of y", "y", "2"
        )

    def test_non_derivation_breaks_leibniz(self, monkeypatch):
        # a linear map that replaces each letter occurrence by its rule
        # but drops the exponent factor e: not a derivation
        def linear_step(g, p):
            acc = {}
            for mono, c in p.terms():
                for letter, e in mono.items():
                    rest = dict(mono.items())
                    rest[letter] = e - 1
                    base = grammar.Monomial(rest)
                    for rmono, rc in g.rules[letter].terms():
                        m = base * rmono
                        acc[m] = acc.get(m, 0) + c * rc
            return grammar.MPoly(acc)

        monkeypatch.setattr(grammar, "d_apply", linear_step)
        n, point, lhs, rhs = self._failure(idn.check_leibniz(4, 10))
        assert (n, point) == (3, "case 0: grammar=schett, u=y^2, v=3 + 2*x^2*z^2")
        assert lhs == (
            "6*x*y*z^3 + 6*x*y^3*z + 6*x*y^3*z^5 + 6*x*y^5*z^3 + 6*x^3*y*z"
            " + 6*x^3*y*z^5 + 12*x^3*y^3*z^3 + 6*x^3*y^5*z + 6*x^5*y*z^3"
            " + 6*x^5*y^3*z"
        )
        assert rhs == (
            "6*x*y*z^3 + 6*x*y^3*z + 16*x*y^3*z^5 + 6*x*y^5*z^3 + 6*x^3*y*z"
            " + 16*x^3*y*z^5 + 36*x^3*y^3*z^3 + 6*x^3*y^5*z + 16*x^5*y*z^3"
            " + 16*x^5*y^3*z"
        )

    def test_sqrt_component_failure_is_named(self, monkeypatch):
        # breaking the parity of a tangent polynomial leaves a nonzero
        # sqrt component, which must be reported as its own condition
        original = triangles.poly_P

        def skewed(n_max):
            fam = original(n_max)
            fam.row(2)[2] += 1  # P_2 + x^2
            return fam

        monkeypatch.setattr(triangles, "poly_P", skewed)
        report = idn.check_tangent_forms(3)
        assert not report.passed
        assert "sqrt component" in report.first_failure.point
        assert report.first_failure.rhs == "0"


class TestDescentWalks:
    """Each S_n is walked at most once per run, and never across runs."""

    @pytest.fixture
    def walks(self, monkeypatch):
        counts = Counter()
        real = pc.descent_classes

        def counted(n):
            counts[n] += 1
            return real(n)

        monkeypatch.setattr(pc, "descent_classes", counted)
        return counts

    def test_one_walk_per_n_in_a_run(self, walks):
        assert all(r.passed for r in idn.run_suite("all"))
        assert walks == {n: 1 for n in range(1, 9)}

    def test_no_walk_is_shared_across_runs(self, walks):
        idn.run_suite("all")
        idn.run_suite("all")
        assert walks == {n: 2 for n in range(1, 9)}
        assert sum(walks.values()) == 16

    def test_a_check_on_its_own_walks_its_range(self, walks):
        assert idn.check_oracle(6).passed
        assert walks == {n: 1 for n in range(1, 7)}

    def test_no_walk_beyond_the_oracle_bound(self, walks):
        assert all(r.passed for r in idn.run_suite("grammar", n_max=5))
        assert walks == {n: 1 for n in range(1, 6)}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            idn.run_suite("everything")

    def test_reports_sorted_and_complete(self):
        reports = idn.run_suite("gf", order=5)
        ids = [r.identity for r in reports]
        assert ids == sorted(ids)
        assert len(reports) == 7  # 3 carlitz + 2 stanley + 2 final points

    def test_reports_serialize_deterministically(self):
        def dump(reports):
            return "\n".join(
                json.dumps(r.to_json_obj(), separators=(",", ":")) for r in reports
            )

        a = dump(idn.run_suite("gf", order=6))
        b = dump(idn.run_suite("gf", order=6))
        assert a == b

    def test_report_json_schema(self):
        reports = idn.run_suite("oracle", oracle_n_max=4)
        for r in reports:
            obj = r.to_json_obj()
            assert set(obj) == REPORT_SCHEMA_KEYS
            assert isinstance(obj["identity"], str)
            assert isinstance(obj["params"], dict)
            assert isinstance(obj["passed"], bool)
            assert obj["first_failure"] is None

    def test_failure_json_schema(self, monkeypatch):
        monkeypatch.setattr(
            triangles, "triangle_R", corrupt_triangle(triangles.triangle_R, 4, 2)
        )
        report = idn.check_grammar_runs(4)
        obj = report.to_json_obj()
        assert obj["passed"] is False
        assert set(obj["first_failure"]) == FAILURE_SCHEMA_KEYS

    def test_x0_override_narrows_gf_suite(self):
        reports = idn.run_suite(
            "gf", order=4,
            carlitz_x0s=(F(1, 5),), stanley_t0s=(F(1, 5),), final_x0s=(F(1, 5),),
        )
        assert [r.identity for r in reports] == [
            "gf/altsubseq[x0=1/5]", "gf/carlitz[x0=1/5]", "gf/stanley[t0=1/5]",
        ]
