"""Identity harness: reports, plans, failure paths, determinism."""

import inspect
import json
import os
import random
import re
import threading
import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from runlab import identities as idn
from runlab import grammar, permcore as pc, triangles
from runlab.exactnum import PowerSeries, QuadExt, RatPoly
from tests import faults

F = Fraction

REPORT_SCHEMA_KEYS = {"identity", "params", "passed", "first_failure"}
FAILURE_SCHEMA_KEYS = {"n", "point", "lhs", "rhs"}


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
        report = idn.check_leibniz(n_max=6)
        assert report.passed
        assert report.params == {"n_max": 6, "cases": 100, "seed": 20240801}


    def test_random_operands_keep_their_draws(self):
        # the Leibniz operands, packed from exponent vectors, are the
        # polynomials the same draws give through Monomial and MPoly
        mine, ref = random.Random(7), random.Random(7)
        for letters in [("x", "y", "z"), ("x", "y"), ("y", "z")] * 20:
            got = idn._random_mpoly(mine, letters)
            terms = []
            for _ in range(ref.randint(1, 3)):
                mono = {l: ref.randint(0, 2) for l in letters}
                terms.append((grammar.Monomial(mono), ref.randint(1, 3)))
            want = grammar.MPoly(terms)
            assert got == want
            assert str(got) == str(want)
        assert mine.random() == ref.random()


class TestPolynomialChecks:
    def test_convolutions(self):
        assert idn.check_convolutions(10).passed

    def test_convolution_sides_of_a_half_are_those_of_the_whole(self):
        # either half of a split range yields each of its n at the width,
        # and with the values, of the whole range
        families = (triangles.poly_T(31), triangles.poly_R(32), triangles.poly_W(30),
                    triangles.poly_Wtilde(30))
        ns = range(1, 31)
        whole = {n: (n, b, sides) for n, b, sides in idn._convolution_sides(ns, *families)}
        assert len({b for _, b, _ in whole.values()}) > 2
        for half in (ns[0::2], ns[1::2]):
            assert list(idn._convolution_sides(half, *families)) == [whole[n] for n in half]

    @pytest.mark.parametrize("perturb", [0, 2 ** 64, -3 ** 80])
    def test_convolution_sides_decode_to_the_term_by_term_sums(self, perturb):
        # at X = 2^b each right-hand side must decode to the RatPoly sum
        # written out term by term, also when a T row carries a huge or
        # negative entry; every coefficient stays below X/4
        T = triangles.poly_T(13)
        T.row(5)[2] += perturb
        R = triangles.poly_R(14)
        W = triangles.poly_W(12)
        Wt = triangles.poly_Wtilde(12)
        x, x2 = RatPoly((0, 1)), RatPoly((0, 0, 1))

        def at_x2(p):  # p(x^2)
            out = [0] * (2 * len(p.coeffs))
            out[::2] = p.coeffs
            return RatPoly(out)

        for n, b, sides in idn._convolution_sides(range(1, 13), T, R, W, Wt):
            c = [comb(n, k) for k in range(n + 1)]
            expected = [
                (R[n + 1], sum((c[k] * (T[k] * T[n - k]) for k in range(n + 1)), RatPoly())),
                (R[n + 2], 2 * sum((c[k] * (T[k] * T[n - k + 1]) for k in range(n + 1)),
                                   RatPoly())),
                (R[n + 2], 2 * x * at_x2(Wt[n]) + 2 * x * sum(
                    (c[k] * (R[k + 1] * at_x2(Wt[n - k])) for k in range(1, n + 1)),
                    RatPoly())),
                (T[n + 1], x * sum((c[k] * (T[k] * at_x2(Wt[n - k]))
                                    for k in range(n + 1)), RatPoly())),
                (T[n + 1], T[n] + x2 * sum((c[k] * (T[k] * at_x2(W[n - k]))
                                            for k in range(n)), RatPoly())),
            ]
            assert len(sides) == len(expected)
            for (_, lhs_value, rhs_value), (lhs_poly, rhs_poly) in zip(sides, expected):
                assert idn._unkron(lhs_value, b) == lhs_poly
                assert idn._unkron(rhs_value, b) == rhs_poly
                for coeff in lhs_poly.coeffs + rhs_poly.coeffs:
                    assert abs(coeff) < 2 ** (b - 2)

    @pytest.mark.parametrize("bits", [1, 7, 8, 12, 32, 64, 96, 200])
    @pytest.mark.parametrize("row", [
        [], [0], [1], [3, 0, 1], [0, 0, 5], [255, 1, 0, 7],
        [-1], [4, -3, 2], [2, 0, -3 ** 80], [2 ** 64, 1], [3 ** 200, 0, 2], [1, -(2 ** 64), 0],
    ])
    def test_kron_equals_horner(self, row, bits):
        # the byte packing and its Horner fallback give the same value,
        # also for negative entries and entries wider than a field
        horner = 0
        for c in reversed(row):
            horner = horner * 2 ** bits + c
        assert idn._kron(row, bits) == horner

    @given(st.integers(min_value=2, max_value=160).flatmap(lambda bits: st.tuples(
        st.just(bits),
        st.lists(st.integers(min_value=-(2 ** (bits - 1)), max_value=2 ** (bits - 1) - 1),
                 max_size=12))))
    def test_unkron_inverts_kron(self, case):
        bits, row = case
        assert idn._unkron(idn._kron(row, bits), bits) == RatPoly(row)

    def test_convolutions_pack_each_row_once_per_width(self, monkeypatch):
        # one check packs no (family, row, width) twice; the rows are
        # distinct list objects held by the families for the whole call
        real, packed = idn._kron, Counter()

        def counting(row, bits):
            packed[id(row), bits] += 1
            return real(row, bits)

        monkeypatch.setattr(idn, "_kron", counting)
        assert idn.check_convolutions(40).passed
        assert packed and max(packed.values()) == 1
        assert all(bits % idn._WIDTH_STEP == 0 for _, bits in packed)
        # consecutive n share widths: far fewer widths than n
        assert len({bits for _, bits in packed}) < 20

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

    @pytest.mark.parametrize("check, kind, needed", [
        (idn.check_runs_from_peaks, "runs-from-peaks", 7),
        (idn.check_tangent_forms, "tangent", 6),
        (idn.check_david_barton, "david-barton", 6),
    ], ids=["runs-from-peaks", "tangent", "david-barton"])
    def test_under_certified_plans_rejected(self, check, kind, needed):
        # the rows of n = 6 need n + 1 points for runs-from-peaks and n for
        # the two radical forms; one fewer is refused at n = 6, once the
        # cases of every lower n have passed
        message = (f"{needed - 1} distinct sample points cannot certify closed/{kind} "
                   f"at n=6: its rows' degree bound needs {needed}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(6, idn.default_plan(kind, needed - 1))
        assert check(6, idn.default_plan(kind, needed)).passed

    @pytest.mark.parametrize("count", [0, -1])
    def test_nonpositive_plan_sizes_rejected(self, monkeypatch, count):
        # refused before the infinite rational pool is read at all
        def no_pool():
            pytest.fail("the sample pool was read")

        monkeypatch.setattr(idn, "_pool", no_pool)
        for kind in ("runs-from-peaks", "tangent", "david-barton"):
            with pytest.raises(ValueError, match=f"points must be >= 1, got {count}$"):
                idn.default_plan(kind, count)

    @pytest.mark.parametrize("count", [True, 2.0, "3"], ids=["bool", "float", "str"])
    def test_non_int_plan_sizes_rejected(self, monkeypatch, count):
        # a bool is not a one-point count; refused before the pool is read
        monkeypatch.setattr(idn, "_pool", lambda: pytest.fail("the sample pool was read"))
        message = f"count must be an int, got {count!r}"
        for kind in ("runs-from-peaks", "tangent", "david-barton"):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                idn.default_plan(kind, count)

    def test_square_discriminants_still_work(self):
        # non-square d is a preference, not a requirement: x - 1 = 9/4 is square
        report = idn.check_tangent_forms(3, idn.SamplePlan((F(13, 4), F(7, 3), F(9, 5), F(12, 5), F(3), F(5, 2), F(4), F(5), F(6), F(7))))
        assert report.passed

    @pytest.mark.parametrize("check, kind, x, first", [
        (idn.check_tangent_forms, "tangent", F(3, 2), 2),
        (idn.check_david_barton, "david-barton", F(1, 2), 2),
        (idn.check_runs_from_peaks, "runs-from-peaks", F(1, 2), 1),
    ], ids=["tangent", "david-barton", "runs-from-peaks"])
    def test_repeated_points_count_once(self, check, kind, x, first):
        # one point given as many times as the stock plan holds is refused
        # at the first n, whose rows need two
        message = (f"1 distinct sample points cannot certify closed/{kind} "
                   f"at n={first}: its rows' degree bound needs 2")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(12, idn.SamplePlan((x,) * 27))
        # equal values count once whatever their type: 15 distinct points,
        # one short at n = 15
        plan = idn.default_plan("runs-from-peaks", 13).points + (F(6, 4), 3, F(3))
        with pytest.raises(ValueError, match="^15 distinct sample points .* at n=15: .* needs 16$"):
            idn.check_runs_from_peaks(15, idn.SamplePlan(plan))

    def test_closed_forms_evaluate_no_radical(self, monkeypatch):
        # the odd-part conditions clear every radical, so a passing
        # closed-forms suite builds no QuadExt
        class Refused(QuadExt):
            def __new__(cls, *args, **kwargs):
                pytest.fail("a QuadExt was built")

        monkeypatch.setattr(idn, "QuadExt", Refused)
        reports = idn.run_suite("closed-forms", n_max=12)
        assert len(reports) == 4 and all(r.passed for r in reports)

    @pytest.mark.parametrize("bad", [1.5, True, "3/2", None])
    def test_sample_points_must_be_int_or_fraction(self, bad):
        for check in (idn.check_tangent_forms, idn.check_david_barton,
                      idn.check_runs_from_peaks):
            plan = idn.SamplePlan((bad,) + idn.default_plan("tangent", 27).points)
            with pytest.raises(TypeError, match=f"^sample point {bad!r} is a "
                                                f"{type(bad).__name__}, not an int or Fraction$"):
                check(12, plan)

    def test_int_points_compare_as_their_fractions(self):
        # an int point is p/1: the same report as the Fraction plan
        for check, points in ((idn.check_runs_from_peaks, (1, 2, 3, 4, 5, 6)),
                              (idn.check_tangent_forms, tuple(range(2, 13)))):
            report = check(4, idn.SamplePlan(points))
            assert report.passed
            assert report == check(4, idn.SamplePlan(tuple(map(F, points))))


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

    @pytest.mark.parametrize("x0", [F(0), F(1, 3), F(1, 2), F(-3, 7)])
    def test_egf_coeffs_match_the_defining_sum(self, x0):
        # Horner on the reversed row against (1/n!) sum_k row[k] x0^(n-k)
        R, A = triangles.triangle_R(13), triangles.triangle_A(12)
        for rows in (lambda n: R.row(n + 1), A.row):
            want = [
                F(sum(c * x0 ** (n - k) for k, c in enumerate(rows(n))), factorial(n))
                for n in range(13)
            ]
            got = idn._egf_coeffs(rows, x0, 12)
            assert got == want and all(type(c) is F for c in got)

    def test_stanley(self):
        for t0 in idn.DEFAULT_STANLEY_T0S:
            assert idn.check_stanley_gf(t0, order=8).passed

    def test_final_gf(self):
        for x0 in idn.DEFAULT_FINAL_X0S:
            assert idn.check_altsubseq_gf(x0, order=8).passed

    @pytest.mark.parametrize("check, point", [
        (idn.check_carlitz, F(3, 5)), (idn.check_carlitz, F(-4, 5)),
        (idn.check_altsubseq_gf, F(3, 5)), (idn.check_altsubseq_gf, F(-4, 5)),
        (idn.check_stanley_gf, F(12, 13)),
    ], ids=["carlitz-3/5", "carlitz--4/5", "altsubseq-3/5", "altsubseq--4/5", "stanley-12/13"])
    def test_square_discriminant_points(self, check, point):
        # 1 - point^2 is 16/25, 9/25 or 25/169: sqrt(1 - point^2) is
        # rational, and the series still compute with it as a formal root
        assert check(point, 12).passed

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

    @pytest.mark.parametrize("bad", [0.1, False, "1/2"])
    def test_base_points_must_be_int_or_fraction(self, bad):
        # a float was read as its binary expansion, a string parsed
        message = f"^base point {bad!r} is a {type(bad).__name__}, not an int or Fraction$"
        for fn in (idn.check_carlitz, idn.check_stanley_gf, idn.check_altsubseq_gf):
            with pytest.raises(TypeError, match=message):
                fn(bad, 2)
        with pytest.raises(TypeError, match=message):
            idn.run_suite("gf", stanley_t0s=[bad])
        assert idn.check_carlitz(0, 2).passed


class TestOracleCheck:
    def test_passes(self):
        assert idn.check_oracle(6).passed


class TestOracleBounds:
    """An oracle bound out of range is refused by name before any family
    is built or any S_n is walked, never clamped or failed late."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        for name in ("triangle_R", "triangle_A", "triangle_W", "triangle_Wtilde",
                     "triangle_euler", "poly_W", "poly_Wtilde"):
            monkeypatch.setattr(triangles, name, lambda *a, _name=name: pytest.fail(_name))
        monkeypatch.setattr(pc, "descent_classes", lambda n: pytest.fail(f"S_{n} walked"))

    @pytest.mark.parametrize("check", [idn.check_dumont, idn.check_peaks_grammar],
                             ids=["dumont", "peaks"])
    @pytest.mark.parametrize("n_max, oracle_n_max, top", [
        (3, 5, 3), (3, -4, 3), (20, 15, 14),
    ])
    def test_grammar_oracle_bound_outside_its_range(self, check, n_max, oracle_n_max, top):
        with pytest.raises(ValueError, match=f"^oracle_n_max must be between 0 and {top}, "
                                             f"got {oracle_n_max}$"):
            check(n_max, oracle_n_max)

    def test_oracle_past_the_brute_force_limit(self):
        with pytest.raises(ValueError, match=f"^n_max must be between 1 and {pc.MAX_ENUM_N}, "
                                             f"got {pc.MAX_ENUM_N + 1}$"):
            idn.check_oracle(pc.MAX_ENUM_N + 1)


class TestVerdict:
    """The one path from compared sides to a report."""

    @staticmethod
    def _cases(log, items):
        for case in items:
            log.append(case[:2])
            yield case

    def test_passes_when_every_side_agrees(self):
        report = idn._verdict("t/id", {"n_max": 2}, [(1, "a", 1, 1), (2, "b", F(1, 2), F(1, 2))])
        assert report == idn.CheckReport("t/id", {"n_max": 2}, True, None)

    def test_first_mismatch_fails_and_stops_drawing(self):
        log = []
        report = idn._verdict("t/id", {}, self._cases(
            log, [(1, "a", 1, 1), (2, "b", 3, 4), (3, "c", 5, 6)]))
        assert report.first_failure == idn.CheckFailure(2, "b", "3", "4")
        assert log == [(1, "a"), (2, "b")]

    def test_sqrt_component_fails_as_its_own_condition(self):
        # the GF checks state the rule as a case of their own: a series
        # coefficient with a nonzero sqrt component fails there
        value = QuadExt(F(1, 2), F(1, 3), F(2))
        rhs = PowerSeries([F(1), F(1, 2), F(1, 3), F(1, 4), value])
        report = idn._check_series("t/id", {}, rhs, [F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 2)])
        assert report.first_failure == idn.CheckFailure(
            4, "z^4: sqrt component", str(value), "0")

    def test_rational_quadext_is_compared_by_value(self):
        assert idn._verdict("t/id", {}, [(1, "p", F(3), QuadExt(F(3), 0, F(2)))]).passed
        report = idn._verdict("t/id", {}, [(1, "p", F(3), QuadExt(F(5, 2), 0, F(2)))])
        assert report.first_failure == idn.CheckFailure(1, "p", "3", "5/2")

    def test_no_case_drawn_raises_with_identity_and_params(self):
        with pytest.raises(ValueError, match=r"^t/id \(n_max=1, points=5\) has no case"):
            idn._verdict("t/id", {"n_max": 1, "points": 5}, iter(()))


#: A failing report and its exact serialized form: field order, types, values.
FAILING = idn._verdict("t/id", {"n_max": 2}, [(1, "a", 1, 1), (2, "b", 3, 4)])
FAILING_JSON = {"identity": "t/id", "params": {"n_max": 2}, "passed": False,
                "first_failure": {"n": 2, "point": "b", "lhs": "3", "rhs": "4"}}


@pytest.mark.parametrize("build, fields", [
    (lambda: FAILING.first_failure, ("n", "point", "lhs", "rhs")),
    (lambda: FAILING, ("identity", "params", "passed", "first_failure")),
    (lambda: idn.SamplePlan((F(1, 2), F(1, 3))), ("points",)),
    (lambda: pc.distribution(pc.Stat.RUNS, 3), ("stat", "n", "counts")),
    (lambda: triangles.triangle_R(3), ("name", "start", "rows")),
    (lambda: grammar.parse_grammar("x -> x*y; y -> x*y"), ("rules",)),
    (lambda: QuadExt.root(2), ("_s",)),
    (lambda: RatPoly((1, 2)), ("_coeffs",)),
    (lambda: PowerSeries([1, QuadExt.root(2)]), ("_coeffs",)),
    (lambda: grammar.Monomial({"x": 2}), ("_exps",)),
    (lambda: grammar.MPoly.monomial({"x": 1}, 3), ("_letters", "_top", "_terms")),
], ids=["CheckFailure", "CheckReport", "SamplePlan", "StatDistribution", "Family", "Grammar",
        "QuadExt", "RatPoly", "PowerSeries", "Monomial", "MPoly"])
def test_record_contract(build, fields):
    record = build()
    # the named tuples word their refusal themselves; every other value type
    # refuses through one base, in one text
    text = None if isinstance(record, tuple) else f"^{type(record).__name__} is immutable$"
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=text):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=text):
            delattr(record, name)
        assert getattr(record, name) is value
    if isinstance(record, idn.CheckReport):
        obj = record.to_json_obj()
        assert repr(obj) == repr(FAILING_JSON)
        obj["params"]["n_max"] = 0
        obj["first_failure"]["n"] = 0
        assert repr(record.to_json_obj()) == repr(FAILING_JSON)
        assert record.params == {"n_max": 2}


class TestVacuousRanges:
    """A check whose range holds no case refuses instead of passing."""

    @pytest.mark.parametrize("check, message", [
        (lambda: idn.check_alt_from_runs(1), "closed/alt-from-runs (n_max=1)"),
        (lambda: idn.check_tangent_forms(1), "closed/tangent (n_max=1, points=5)"),
        (lambda: idn.check_david_barton(1), "closed/david-barton (n_max=1, points=5)"),
        (lambda: idn.check_grammar_runs(0), "grammar/runs (n_max=0)"),
        (lambda: idn.check_grammar_alt(0), "grammar/altsubseq (n_max=0)"),
        # ranges too short for the families a check reads: refused by the
        # check, in its own terms, before a family builder refuses them
        (lambda: idn.check_convolutions(0), "poly/convolutions (n_max=0)"),
        (lambda: idn.check_runs_from_peaks(0), "closed/runs-from-peaks (n_max=0, points=2)"),
        (lambda: idn.check_tangent_forms(0), "closed/tangent (n_max=0, points=3)"),
        (lambda: idn.check_david_barton(0), "closed/david-barton (n_max=0, points=3)"),
        (lambda: idn.check_alt_from_runs(0), "closed/alt-from-runs (n_max=0)"),
        (lambda: idn.check_oracle(0), "oracle/triangles (n_max=0)"),
        (lambda: idn.check_grammar_runs(-1), "grammar/runs (n_max=-1)"),
        (lambda: idn.check_grammar_alt(-1), "grammar/altsubseq (n_max=-1)"),
        (lambda: idn.check_dumont(0, 0), "grammar/eulerian (n_max=0, oracle_n_max=0)"),
        (lambda: idn.check_peaks_grammar(0, 0), "grammar/peaks (n_max=0, oracle_n_max=0)"),
        (lambda: idn.check_recurrence_consistency(-1), "poly/recurrences (n_max=-1)"),
        (lambda: idn.check_recurrence_consistency(-2), "poly/recurrences (n_max=-2)"),
        # below n_max = -1 the degree bound asks for no point at all; the
        # stock plan still takes one, so the range is what is refused
        (lambda: idn.check_runs_from_peaks(-2), "closed/runs-from-peaks (n_max=-2, points=1)"),
        (lambda: idn.check_tangent_forms(-2), "closed/tangent (n_max=-2, points=1)"),
        (lambda: idn.check_david_barton(-2), "closed/david-barton (n_max=-2, points=1)"),
        (lambda: idn.check_runs_from_peaks(-3), "closed/runs-from-peaks (n_max=-3, points=1)"),
        (lambda: idn.check_tangent_forms(-3), "closed/tangent (n_max=-3, points=1)"),
        (lambda: idn.check_david_barton(-3), "closed/david-barton (n_max=-3, points=1)"),
        # an empty range is refused before its oracle bound is read, so
        # the bound is never checked against an empty interval
        (lambda: idn.check_dumont(-1, 0), "grammar/eulerian (n_max=-1, oracle_n_max=0)"),
        (lambda: idn.check_dumont(0, 5), "grammar/eulerian (n_max=0, oracle_n_max=5)"),
        (lambda: idn.check_peaks_grammar(-2, 0), "grammar/peaks (n_max=-2, oracle_n_max=0)"),
        (lambda: idn.check_oracle(-1), "oracle/triangles (n_max=-1)"),
        (lambda: idn.check_leibniz(-1), "grammar/leibniz (n_max=-1, cases=100, seed=20240801)"),
        (lambda: idn.check_leibniz(-5), "grammar/leibniz (n_max=-5, cases=100, seed=20240801)"),
    ], ids=["alt-from-runs", "tangent", "david-barton", "grammar-runs", "grammar-alt",
            "convolutions-0", "runs-from-peaks-0", "tangent-0", "david-barton-0",
            "alt-from-runs-0", "oracle-0", "grammar-runs-neg", "grammar-alt-neg",
            "eulerian-0", "peaks-0", "recurrences-neg", "recurrences-neg2",
            "runs-from-peaks-neg2", "tangent-neg2", "david-barton-neg2",
            "runs-from-peaks-neg3", "tangent-neg3", "david-barton-neg3",
            "eulerian-neg", "eulerian-0-oracle-5", "peaks-neg2", "oracle-neg",
            "leibniz-neg", "leibniz-neg5"])
    def test_empty_range_raises(self, check, message):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == f"{message} has no case to compare"

    def test_smallest_ranges_that_compare_something_pass(self):
        assert idn.check_alt_from_runs(2).passed
        assert idn.check_tangent_forms(2).passed
        assert idn.check_david_barton(2).passed
        assert idn.check_runs_from_peaks(1).passed
        assert idn.check_leibniz(0).passed
        assert all(r.passed for r in idn.run_suite("grammar", n_max=1))

    def test_suite_over_an_empty_range_raises(self):
        with pytest.raises(ValueError, match=r"^closed/alt-from-runs \(n_max=1\)"):
            idn.run_suite("all", n_max=1)

    def test_suite_over_an_empty_range_runs_no_other_check_first(self, monkeypatch):
        for name in ("check_grammar_runs", "check_grammar_alt", "check_dumont",
                     "check_peaks_grammar", "check_leibniz", "check_convolutions",
                     "check_recurrence_consistency"):
            monkeypatch.setattr(idn, name, lambda *a, _name=name, **k: pytest.fail(_name))
        with pytest.raises(ValueError, match=r"^closed/alt-from-runs \(n_max=1\) has no case"):
            idn.run_suite("all", n_max=1)


class TestFaultInjection:
    @staticmethod
    def _failure(report):
        assert not report.passed
        f = report.first_failure
        return f.n, f.point, f.lhs, f.rhs

    # Each test below injects a catalogue fault and pins the first failure
    # of one check at its own parameters, which may differ from the ones
    # the catalogue's suite runs it at.

    def test_corrupt_run_entry_breaks_grammar_check(self, monkeypatch):
        faults.install("runs-R52", monkeypatch.setattr)
        assert self._failure(idn.check_grammar_runs(6)) == (
            4, "derivative of x^2",
            "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
            "2*x^2*y*z^3 + 29*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
        )

    def test_corrupt_run_column_zero_breaks_grammar_check(self, monkeypatch):
        # R(5,0) is 0; a nonzero k = 0 entry must reach the expected poly
        faults.install("runs-R50", monkeypatch.setattr)
        assert self._failure(idn.check_grammar_runs(6)) == (
            4, "derivative of x^2",
            "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
            "x^2*z^4 + 2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
        )

    def test_corrupt_alt_column_zero_breaks_grammar_alt(self, monkeypatch):
        faults.install("alt-A40", monkeypatch.setattr)
        assert self._failure(idn.check_grammar_alt(6)) == (
            4, "derivative of x",
            "x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
            "x*z^4 + x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
        )

    def test_corrupt_alt_entry_breaks_gf_check(self, monkeypatch):
        faults.install("alt-A42", monkeypatch.setattr)
        assert self._failure(idn.check_altsubseq_gf(F(1, 3), order=6)) == (
            4, "z^4", "259/648", "32/81"
        )

    def test_corrupt_alt_entry_breaks_grammar_alt(self, monkeypatch):
        faults.install("alt-A42", monkeypatch.setattr)
        assert self._failure(idn.check_grammar_alt(6)) == (
            4, "derivative of x",
            "x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
            "x*y*z^3 + 8*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
        )

    def test_corrupt_alt_polynomial_breaks_alt_from_runs(self, monkeypatch):
        # T_4's x^2 coefficient is a(4,2)
        faults.install("alt-A42", monkeypatch.setattr)
        assert self._failure(idn.check_alt_from_runs(6)) == (
            4, "2 T_n = (1+x) R_n",
            "2*x + 16*x^2 + 22*x^3 + 10*x^4", "2*x + 14*x^2 + 22*x^3 + 10*x^4",
        )

    def test_corrupt_alt_polynomial_breaks_stanley(self, monkeypatch):
        faults.install("alt-A42", monkeypatch.setattr)
        assert self._failure(idn.check_stanley_gf(F(1, 3), order=6)) == (
            4, "z^4", "137/1944", "16/243"
        )

    def test_corrupt_euler_entry_breaks_oracle_check(self, monkeypatch):
        faults.install("euler-E31", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(4)) == (
            3, "descents over S_3", "{0:1, 1:4, 2:1}", "{0:1, 1:5, 2:1}",
        )

    def test_corrupt_descent_entry_breaks_david_barton(self, monkeypatch):
        # A_3's x^2 coefficient is E(3,1): the middle entry of the
        # palindromic A_3 keeps the sqrt component zero, so the rational
        # parts are what disagree
        faults.install("euler-E31", monkeypatch.setattr)
        assert self._failure(idn.check_david_barton(4)) == (3, "x=1/2", "2", "9/4")

    def test_corrupt_euler_entry_breaks_dumont(self, monkeypatch):
        faults.install("euler-E41", monkeypatch.setattr)
        assert self._failure(idn.check_dumont(6, 4)) == (
            4, "derivative of x",
            "x*y^4 + 11*x^2*y^3 + 11*x^3*y^2 + x^4*y",
            "x*y^4 + 12*x^2*y^3 + 11*x^3*y^2 + x^4*y",
        )

    def test_runs_off_by_one_breaks_oracle_check(self, monkeypatch):
        faults.install("stat-runs", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(6)) == (
            1, "runs over S_1", "{1:1}", "{0:1}",
        )

    def test_left_peak_sentinel_flip_breaks_oracle_check(self, monkeypatch):
        # position 1 counts on an ascent instead of a descent
        faults.install("stat-leftpeaks", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(6)) == (
            3, "leftpeaks over S_3", "{0:3, 1:1, 2:2}", "{0:1, 1:5}",
        )

    def test_left_peak_sentinel_flip_breaks_peaks_grammar(self, monkeypatch):
        # the oracle half of the check: the histogram comes first, the row
        # second, as in the oracle check
        faults.install("stat-leftpeaks", monkeypatch.setattr)
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            3, "left-peak histogram over S_3", "{0:3, 1:1, 2:2}", "{0:1, 1:5}",
        )

    def test_altsubseq_opening_ascent_breaks_oracle_check(self, monkeypatch):
        faults.install("stat-altsubseq", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(6)) == (
            2, "altsubseq over S_2", "{2:2}", "{1:1, 2:1}",
        )

    def test_corrupt_run_entry_breaks_recurrences(self, monkeypatch):
        faults.install("runs-R63", monkeypatch.setattr)
        assert self._failure(idn.check_recurrence_consistency(6)) == (
            4, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'",
            "2*x + 60*x^2 + 237*x^3 + 300*x^4 + 122*x^5",
            "2*x + 60*x^2 + 236*x^3 + 300*x^4 + 122*x^5",
        )

    def test_corrupt_left_peak_row_breaks_convolutions(self, monkeypatch):
        # the first two formulas read only R and T, so the third fails first
        faults.install("leftpeaks-Wt21", monkeypatch.setattr)
        assert self._failure(idn.check_convolutions(6)) == (
            2, "R_(n+2) = 2x Wt_n(x^2) + 2x sum C(n,k) R_(k+1) Wt_(n-k)(x^2)",
            "2*x + 12*x^2 + 10*x^3", "2*x + 12*x^2 + 12*x^3",
        )

    #: Where a perturbed T_4 makes the convolutions fail, and R_5 there.
    T4_FAILURE = (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                  "2*x + 28*x^2 + 58*x^3 + 32*x^4")

    def test_aliasing_pair_in_alt_row_breaks_convolutions(self, monkeypatch):
        # +2^64 at x^2 and -1 at x^3 of T_4 cancel at X = 2^64, so a width
        # sized without the perturbed row would let this pass
        faults.install("alias-T4", monkeypatch.setattr)
        assert self._failure(idn.check_convolutions(8)) == (
            *self.T4_FAILURE, "2*x + 36893488147419103260*x^2 + 56*x^3 + 32*x^4",
        )

    def test_aliasing_pair_in_a_left_side_row_breaks_convolutions(self, monkeypatch):
        # R_5 is only ever a left side at n = 3, where the right sides alone
        # would give X = 2^9: +2^9 at x^2 and -1 at x^3 cancel there
        faults.install("alias-R5", monkeypatch.setattr)
        assert self._failure(idn.check_convolutions(8)) == (
            3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
            "2*x + 540*x^2 + 57*x^3 + 32*x^4", "2*x + 28*x^2 + 58*x^3 + 32*x^4",
        )

    def test_huge_entry_in_alt_row_breaks_convolutions(self, monkeypatch):
        faults.install("huge-T4", monkeypatch.setattr)
        assert self._failure(idn.check_convolutions(8)) == (
            *self.T4_FAILURE,
            "2*x + 53122797775174953867756264407155925365846690530678899194914992347"
            "8184981802604365988769398088030*x^2 + 58*x^3 + 32*x^4",
        )

    def test_negated_entry_in_alt_row_breaks_convolutions(self, monkeypatch):
        # T_4 = x + 7x^2 + ... with -7x^2 cancels R_5's x^2 term on the right
        faults.install("negated-T4", monkeypatch.setattr)
        assert self._failure(idn.check_convolutions(8)) == (
            *self.T4_FAILURE, "2*x + 58*x^3 + 32*x^4",
        )

    def test_perturbed_run_table_reaches_every_reader(self, monkeypatch):
        # the shift-2 coefficient n-k+1 of the A table in place of R's n-k:
        # row 2 grows a third entry, R(2,2) = 1, that no permutation has
        faults.install("steps-R", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(6)) == (
            2, "runs over S_2", "{1:2}", "{1:2, 2:1}",
        )
        # derivative 1 of x^2 reads row 2, whose extra entry needs z^-1
        assert self._failure(idn.check_grammar_runs(6)) == (
            1, "derivative of x^2", "2*x^2*y", "2*x^2*y + x^2*y^2*z^-1",
        )
        assert self._failure(idn.check_alt_from_runs(6)) == (
            2, "2 T_n = (1+x) R_n", "2*x + 2*x^2", "2*x + 3*x^2 + x^3",
        )
        assert self._failure(idn.check_tangent_forms(4)) == (
            2, "R-form x=3/2", "21/4", "3",
        )

    def test_perturbed_peak_table_reaches_oracle_and_grammar(self, monkeypatch):
        # the shift-0 coefficient 3k+2 in place of 2k+2: the asserted rows
        # W_2 and W_3 survive, W(4,1) reads 18 instead of 16
        faults.install("steps-W", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(6)) == (
            4, "peaks over S_4", "{0:8, 1:16}", "{0:8, 1:18}",
        )
        assert self._failure(idn.check_peaks_grammar(6, 0)) == (
            4, "derivative of z", "8*y^2*z^3 + 16*y^4*z", "8*y^2*z^3 + 18*y^4*z",
        )

    def test_perturbed_euler_table_reaches_oracle_and_grammar(self, monkeypatch):
        # the shift-0 coefficient 2k+1 in place of k+1: E(3,1) reads 5
        faults.install("steps-euler", monkeypatch.setattr)
        assert self._failure(idn.check_oracle(6)) == (
            3, "descents over S_3", "{0:1, 1:4, 2:1}", "{0:1, 1:5, 2:1}",
        )
        assert self._failure(idn.check_dumont(6, 0)) == (
            3, "derivative of x",
            "x*y^3 + 4*x^2*y^2 + x^3*y", "x*y^3 + 5*x^2*y^2 + x^3*y",
        )

    def test_swapped_dumont_rule_fails_without_the_oracle(self, monkeypatch):
        # the euler rows come from their recurrence, not from this grammar,
        # so y -> 2*x*y fails the triangle half on its own
        faults.install("dumont-swap", monkeypatch.setattr)
        assert self._failure(idn.check_dumont(12, oracle_n_max=0)) == (
            2, "derivative of x", "x*y^2 + 2*x^2*y", "x*y^2 + x^2*y",
        )

    def test_moved_descent_class_reaches_every_oracle_reader(self, monkeypatch):
        # 1234's class counted under 1324's: the sizes still sum to 4!, but
        # S_4's class table is wrong for all three of its readers
        faults.install("class-moved", monkeypatch.setattr)
        failures = {r.identity: self._failure(r)
                    for r in idn.run_suite("all") if not r.passed}
        assert failures == {
            "grammar/eulerian": (4, "descent histogram over S_4",
                                 "{1:12, 2:11, 3:1}", "{0:1, 1:11, 2:11, 3:1}"),
            "grammar/peaks": (4, "interior-peak histogram over S_4",
                              "{0:7, 1:17}", "{0:8, 1:16}"),
            "oracle/triangles": (4, "runs over S_4",
                                 "{1:1, 2:12, 3:11}", "{1:2, 2:12, 3:10}"),
        }

    def test_corrupt_peak_entry_breaks_runs_from_peaks(self, monkeypatch):
        faults.install("peaks-W31", monkeypatch.setattr)
        assert self._failure(idn.check_runs_from_peaks(4)) == (
            3, "T-form x=1/2", "3/2", "27/16"
        )

    def test_corrupt_peak_entry_breaks_tangent_rational_part(self, monkeypatch):
        faults.install("peaks-W31", monkeypatch.setattr)
        assert self._failure(idn.check_tangent_forms(4)) == (
            3, "W-form x=3/2", "17/2", "7"
        )

    def test_corrupt_run_entry_breaks_carlitz(self, monkeypatch):
        faults.install("runs-R42", monkeypatch.setattr)
        assert self._failure(idn.check_carlitz(F(1, 3), order=6)) == (
            3, "z^3", "131/54", "64/27"
        )

    def test_corrupt_peak_row_breaks_peaks_grammar(self, monkeypatch):
        faults.install("peaks-W41", monkeypatch.setattr)
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            4, "derivative of z", "8*y^2*z^3 + 16*y^4*z", "8*y^2*z^3 + 17*y^4*z"
        )

    def test_corrupt_left_peak_row_breaks_peaks_grammar(self, monkeypatch):
        faults.install("leftpeaks-Wt31", monkeypatch.setattr)
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            3, "derivative of y", "y*z^3 + 5*y^3*z", "y*z^3 + 6*y^3*z"
        )

    def test_corrupt_left_peak_seed_breaks_peaks_grammar(self, monkeypatch):
        # Wt_0 = 2 against the seed y, before any derivative is taken
        faults.install("leftpeaks-Wt0", monkeypatch.setattr)
        assert self._failure(idn.check_peaks_grammar(6, 4)) == (
            0, "derivative 0 of y", "y", "2"
        )

    def test_odd_descent_entry_breaks_david_barton_sqrt_component(self, monkeypatch):
        # A_3's x coefficient off by one breaks its palindrome, so the
        # right-hand side leaves Q: the extra (1-w)(1+w)^3 has odd part
        # 2w - 2w^3, reported before any point is compared
        faults.install("descents-A31", monkeypatch.setattr)
        assert self._failure(idn.check_david_barton(4)) == (
            3, "odd part of (1+w)^(n+1) A_n((1-w)/(1+w))", "[2, -2]", "[0, 0]"
        )

    @pytest.mark.parametrize("check, lhs", [
        (idn.check_altsubseq_gf, "1 + 4/3*sqrt(3/4)"),
        (idn.check_carlitz, "2 + 8/3*sqrt(3/4)"),
    ], ids=["altsubseq", "carlitz"])
    def test_shifted_sine_breaks_series_sqrt_component(self, monkeypatch, check, lhs):
        # sin(z rho) + z inside the shared q series: z^1 picks up a
        # rational term against rho, so its coefficient leaves Q
        faults.install("sine-z1", monkeypatch.setattr)
        assert self._failure(check(F(1, 2), 6)) == (1, "z^1: sqrt component", lhs, "0")

    def test_sqrt_component_failure_is_named(self, monkeypatch):
        # breaking the parity of a tangent polynomial leaves a nonzero odd
        # part, the sqrt component of every point, which must be reported
        # as its own condition
        faults.install("tangent-P2", monkeypatch.setattr)  # P_2 + x^2
        report = idn.check_tangent_forms(3)
        assert not report.passed
        assert report.first_failure.point == "odd part of P_n"
        assert report.first_failure.rhs == "[0, 0]"

    def test_non_derivation_breaks_leibniz(self, monkeypatch):
        # a linear map that replaces each letter occurrence by its rule
        # but drops the exponent factor e: not a derivation
        faults.install("linear-tower", monkeypatch.setattr)
        n, point, lhs, rhs = self._failure(idn.check_leibniz(4))
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

    @staticmethod
    def _guard_tangent_rows(monkeypatch):
        """Install tangent-P2 (P_2 + x^2) with every row of P past 2 guarded."""
        faults.install("tangent-P2", monkeypatch.setattr)
        skewed = triangles.poly_P

        class Guarded(triangles.Family):
            def row(self, n):
                if n >= 3:
                    pytest.fail(f"row {n} of P was read")
                return super().row(n)

        def guarded(n_max):
            fam = skewed(n_max)
            return Guarded(fam.name, fam.start, fam.rows)

        monkeypatch.setattr(triangles, "poly_P", guarded)

    def test_tangent_fault_fails_before_later_rows_are_read(self, monkeypatch):
        # the cases are drawn lazily: a fault at n = 2 ends the check
        # before P_3 is ever read; in one process, since a guarded read in
        # a forked child would fail only the child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self._guard_tangent_rows(monkeypatch)
        assert self._failure(idn.check_tangent_forms(4)) == (
            2, "odd part of P_n", "[1, 0]", "[0, 0]"
        )

    def test_tangent_fault_below_the_childs_first_n_ends_the_split(self, monkeypatch):
        # the same report with n split between two processes: n = 2 fails
        # here, below the child's first n, 3, so the child is stopped
        # whatever it read
        self._guard_tangent_rows(monkeypatch)
        assert self._failure(idn.check_tangent_forms(4)) == (
            2, "odd part of P_n", "[1, 0]", "[0, 0]"
        )
        assert _no_child_left()


class TestFaultCatalogue:
    """Every fault of tests/faults.py fails exactly the reports its entry
    pins, and all of them together fail every report of `all`."""

    @pytest.mark.parametrize("name", list(faults.FAULTS))
    def test_fault_fails_its_suite(self, monkeypatch, name):
        suite = faults.install(name, monkeypatch.setattr)
        failed = {r.identity: (r.first_failure.n, r.first_failure.point,
                               r.first_failure.lhs, r.first_failure.rhs)
                  for r in idn.run_suite(suite) if not r.passed}
        assert failed == faults.FAULTS[name][4]

    def test_diagonal_fault_fails_exactly_the_carlitz_checks(self, monkeypatch):
        # R(4,3) + 1 sits on the diagonal R(n+1, n), which gf/carlitz[x0=0]
        # reads at z^3; no other GF check reads R
        suite = faults.install("diagonal-R43", monkeypatch.setattr)
        failed = {r.identity: (r.first_failure.n, r.first_failure.point)
                  for r in idn.run_suite(suite) if not r.passed}
        assert failed == {f"gf/carlitz[x0={x0}]": (3, "z^3") for x0 in ("0", "1/2", "1/3")}

    def test_faults_reach_every_check(self):
        reached = {ident for *_, failing in faults.FAULTS.values() for ident in failing}
        assert reached == {r.identity for r in idn.run_suite("all")}

    @pytest.mark.parametrize("argv, message", [
        (["NOSUCH", "json"], "unknown fault 'NOSUCH'"),
        (["runs-R53"], "usage: faults.py [NAME FORMAT], got 1 arguments"),
        (["tangent-P2", "json"], "cannot install fault 'tangent-P2': AttributeError: "
                                 "module 'runlab.triangles' has no attribute 'poly_P'"),
    ], ids=["unknown", "one-argument", "install-fails"])
    def test_script_errors_exit_2(self, capsys, monkeypatch, argv, message):
        # a harness that cannot run its fault exits 2, not the 1 of a failed
        # suite; without poly_P, tangent-P2 cannot be installed
        monkeypatch.delattr(triangles, "poly_P")
        assert faults.main(argv) == 2
        assert capsys.readouterr() == ("", f"faults.py: {message}\n")


class TestDescentWalks:
    """Each oracle reader builds the class table of each S_n it reads once,
    and shares it among all of its histograms of that n."""

    @pytest.fixture
    def walks(self, monkeypatch):
        counts = Counter()
        real = pc.descent_classes

        def counted(n):
            counts[n] += 1
            return real(n)

        monkeypatch.setattr(pc, "descent_classes", counted)
        return counts

    def test_one_table_per_reader_and_n_in_a_run(self, walks):
        # grammar/eulerian, grammar/peaks and oracle/triangles read S_1..S_8
        assert all(r.passed for r in idn.run_suite("all"))
        assert walks == {n: 3 for n in range(1, 9)}

    def test_a_check_on_its_own_walks_its_range(self, walks):
        assert idn.check_oracle(6).passed
        assert walks == {n: 1 for n in range(1, 7)}

    def test_no_walk_beyond_the_oracle_bound(self, walks):
        assert all(r.passed for r in idn.run_suite("grammar", n_max=5))
        assert walks == {n: 2 for n in range(1, 6)}


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
        reports = idn.run_suite("oracle", n_max=4)
        for r in reports:
            obj = r.to_json_obj()
            assert set(obj) == REPORT_SCHEMA_KEYS
            assert isinstance(obj["identity"], str)
            assert isinstance(obj["params"], dict)
            assert isinstance(obj["passed"], bool)
            assert obj["first_failure"] is None

    def test_failure_json_schema(self, monkeypatch):
        faults.install("runs-R42", monkeypatch.setattr)
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

    @pytest.mark.parametrize("points, message", [
        ({"carlitz_x0s": [], "stanley_t0s": (), "final_x0s": []},
         "carlitz_x0s must hold at least one point"),
        ({"carlitz_x0s": []}, "carlitz_x0s must hold at least one point"),
        ({"carlitz_x0s": [F(1, 3), F(1, 3)]}, "carlitz_x0s repeats the point 1/3"),
    ], ids=["all-empty", "one-empty", "repeated"])
    def test_empty_or_repeated_base_points_rejected(self, points, message):
        # no 0/0 suite, no silently dropped check, no report twice
        with pytest.raises(ValueError, match=f"^{message}$"):
            idn.run_suite("gf", **points)

    def test_each_suite_runs_its_checks(self):
        # a check table row dropped, repeated or given the wrong suite shows here
        closed = ["closed/alt-from-runs", "closed/david-barton", "closed/runs-from-peaks",
                  "closed/tangent"]
        gf = ["gf/altsubseq[x0=1/2]", "gf/altsubseq[x0=1/3]", "gf/carlitz[x0=0]",
              "gf/carlitz[x0=1/2]", "gf/carlitz[x0=1/3]", "gf/stanley[t0=1/2]",
              "gf/stanley[t0=1/3]"]
        grammar = ["grammar/altsubseq", "grammar/eulerian", "grammar/leibniz", "grammar/peaks",
                   "grammar/runs"]
        expected = {"closed-forms": closed, "gf": gf, "grammar": grammar,
                    "convolutions": ["poly/convolutions", "poly/recurrences"],
                    "oracle": ["oracle/triangles"]}
        expected["all"] = closed + gf + grammar + ["oracle/triangles", "poly/convolutions",
                                                   "poly/recurrences"]
        assert set(expected) == set(idn.SUITES)
        for suite in idn.SUITES:
            reports = idn.run_suite(suite, n_max=4, order=4)
            assert [r.identity for r in reports] == expected[suite], suite
            assert all(r.passed for r in reports), suite


def _no_child_left():
    """Whether this process has no child left, reaped or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _pid_report(**kwargs):
    """A passing grammar/leibniz report that names the process it ran in."""
    return idn.CheckReport("grammar/leibniz", {"pid": os.getpid()}, True)


def _leibniz_pid(suite_reports):
    """The process that ran grammar/leibniz, as :func:`_pid_report` names it."""
    (params,) = [r.params for r in suite_reports if r.identity == "grammar/leibniz"]
    return params["pid"]


can_fork = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class TestLeibnizChild:
    """run_suite may run grammar/leibniz in a forked child while it runs
    the other checks; reports, exceptions and exit codes are those of the
    serial run, and no child outlives the call."""

    @staticmethod
    def serial(monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @pytest.mark.parametrize("suite", ["all", "grammar"])
    @pytest.mark.parametrize("span, fault", [({}, None), ({"n_max": 3}, None),
                                             ({}, "linear-tower")],
                             ids=["defaults", "n_max-3", "linear-tower"])
    def test_serial_and_child_reports_are_equal(self, monkeypatch, suite, span, fault):
        if fault is not None:
            faults.install(fault, monkeypatch.setattr)
        forked = idn.run_suite(suite, **span)
        self.serial(monkeypatch)
        assert forked == idn.run_suite(suite, **span)
        assert _no_child_left()

    @pytest.mark.skipif(not can_fork, reason="needs os.fork and at least two CPUs")
    def test_child_path_is_taken_on_two_cpus(self, monkeypatch):
        monkeypatch.setattr(idn, "check_leibniz", _pid_report)
        assert _leibniz_pid(idn.run_suite("grammar", n_max=2)) != os.getpid()
        assert _no_child_left()

    def test_serial_path_on_one_cpu_or_beside_a_thread(self, monkeypatch):
        monkeypatch.setattr(idn, "check_leibniz", _pid_report)
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            reports = idn.run_suite("grammar", n_max=2)
        finally:
            release.set()
            worker.join()
        assert _leibniz_pid(reports) == os.getpid()
        self.serial(monkeypatch)
        assert _leibniz_pid(idn.run_suite("grammar", n_max=2)) == os.getpid()

    def test_a_raising_parent_side_check_stops_the_child(self, monkeypatch):
        # the child would run for a minute unless it is killed
        monkeypatch.setattr(idn, "check_leibniz", lambda **k: time.sleep(60))

        def boom(*args, **kwargs):
            raise RuntimeError("parent side")

        monkeypatch.setattr(idn, "check_oracle", boom)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^parent side$"):
            idn.run_suite("all")
        assert time.monotonic() - start < 30
        assert _no_child_left()

    def test_a_raising_leibniz_check_raises_its_own_exception(self, monkeypatch):
        def boom(**kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(idn, "check_leibniz", boom)
        with pytest.raises(ValueError) as info:
            idn.run_suite("grammar")
        assert type(info.value) is ValueError and str(info.value) == "boom"
        assert _no_child_left()

    def test_a_refused_range_starts_no_child(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with pytest.raises(ValueError,
                           match=r"^closed/alt-from-runs \(n_max=1\) has no case to compare$"):
            idn.run_suite("all", n_max=1)

    @pytest.mark.parametrize("one_cpu", [False, True], ids=["forked", "serial"])
    def test_the_first_raising_check_in_serial_order_wins(self, monkeypatch, one_cpu):
        # grammar/eulerian runs before gf/carlitz in both paths, and
        # grammar/leibniz, wherever it runs, after both
        def raises(message):
            def check(*args, **kwargs):
                raise RuntimeError(message)
            return check

        monkeypatch.setattr(idn, "check_leibniz", raises("leibniz"))
        monkeypatch.setattr(idn, "check_carlitz", raises("carlitz"))
        monkeypatch.setattr(idn, "check_dumont", raises("dumont"))
        if one_cpu:
            self.serial(monkeypatch)
        with pytest.raises(RuntimeError, match="^dumont$"):
            idn.run_suite("all", n_max=3)
        assert _no_child_left()

    def test_a_child_that_dies_is_rerun_here(self, monkeypatch):
        parent = os.getpid()

        def dies_in_a_child(**kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return _pid_report()

        monkeypatch.setattr(idn, "check_leibniz", dies_in_a_child)
        assert _leibniz_pid(idn.run_suite("grammar", n_max=2)) == parent
        assert _no_child_left()


def _serial_outcome(call):
    """``call()``'s report, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _steps(plan):
    """Cases for :func:`identities._split`: one case per n, which passes
    unless ``plan[n]`` is "fail", "raise" (a ValueError naming n), or,
    only in a forked child, "die" (exit status 3) or "sleep" (a minute)."""
    parent = os.getpid()

    def cases(ns):
        for n in ns:
            what = plan.get(n)
            if what == "raise":
                raise ValueError(f"raised at n={n}")
            if os.getpid() != parent:
                if what == "die":
                    os._exit(3)
                if what == "sleep":
                    time.sleep(60)
            yield n, f"step {n}", "wrong" if what == "fail" else "right", "right"

    return cases


def _split_outcome(plan, ns=range(1, 9)):
    return _serial_outcome(lambda: idn._split("test/split", {"n_max": ns[-1]}, _steps(plan), ns))


#: The check of each report that splits its n between two processes.
SPLIT_CHECKS = {
    "closed/runs-from-peaks": "check_runs_from_peaks",
    "closed/tangent": "check_tangent_forms",
    "closed/david-barton": "check_david_barton",
    "poly/convolutions": "check_convolutions",
    "poly/recurrences": "check_recurrence_consistency",
}
#: Each catalogue fault that fails one of them, as ``(fault, report)``.
SPLIT_FAULTS = [(name, ident) for name, (*_, failing) in faults.FAULTS.items()
                for ident in failing if ident in SPLIT_CHECKS]


class TestSplit:
    """A check that splits its n between this process and a forked child
    returns the serial run's report or exception, and leaves no child."""

    @staticmethod
    def count_forks(monkeypatch):
        """The pids os.fork returns here from now on, in a list."""
        forked, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forked

    def test_every_split_check_is_reached_by_a_fault(self):
        assert {ident for _, ident in SPLIT_FAULTS} == set(SPLIT_CHECKS)

    @pytest.mark.parametrize("name, ident", SPLIT_FAULTS,
                             ids=[f"{name}-{ident}" for name, ident in SPLIT_FAULTS])
    def test_split_and_serial_reports_are_equal(self, monkeypatch, name, ident):
        faults.install(name, monkeypatch.setattr)
        forked = self.count_forks(monkeypatch)
        split = getattr(idn, SPLIT_CHECKS[ident])()
        assert len(forked) == can_fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = getattr(idn, SPLIT_CHECKS[ident])()
        assert split == serial
        f = split.first_failure
        assert (f.n, f.point, f.lhs, f.rhs) == faults.FAULTS[name][4][ident]
        assert _no_child_left()

    @pytest.mark.skipif(not can_fork, reason="needs os.fork and at least two CPUs")
    @pytest.mark.parametrize("name, ident, half", [
        ("runs-R53", "closed/tangent", "child"),
        ("runs-R53", "closed/david-barton", "child"),
        ("runs-R53", "closed/runs-from-peaks", "parent"),
        ("runs-R63", "poly/convolutions", "child"),
        ("runs-R63", "poly/recurrences", "parent"),
    ])
    def test_a_fault_is_found_in_either_half(self, monkeypatch, name, ident, half):
        # the report is the child's exactly when its half holds the first
        # failing n; the fault may fail a later n of the other half too
        faults.install(name, monkeypatch.setattr)
        joined, join = [], idn._join
        monkeypatch.setattr(idn, "_join", lambda child: joined.append(join(child)) or joined[-1])
        report = getattr(idn, SPLIT_CHECKS[ident])()
        (theirs,) = joined
        assert not report.passed
        assert (theirs == report) == (half == "child")

    @pytest.mark.parametrize("plan", [
        {3: "raise", 4: "raise"}, {2: "raise", 3: "raise"},
        {2: "fail", 3: "raise"}, {3: "fail", 2: "raise"},
        {1: "fail", 2: "raise"}, {4: "fail", 3: "raise"},
        {5: "fail", 4: "fail"}, {6: "fail", 7: "fail"}, {}, {8: "raise"},
    ], ids=["raise-both", "raise-both-child-first", "child-fails-parent-raises",
            "parent-fails-child-raises", "parent-fails-first", "child-raises-first",
            "child-fails-first", "parent-fails-first-late", "pass", "raise-last"])
    def test_the_serial_outcome_wins(self, monkeypatch, plan):
        split = _split_outcome(plan)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert split == _split_outcome(plan)
        assert _no_child_left()

    @pytest.mark.parametrize("plan", [{}, {5: "fail"}, {3: "raise"}, {4: "raise"}, {4: "die"}],
                             ids=["pass", "fail", "parent-raises", "child-raises", "child-dies"])
    def test_no_child_is_left(self, monkeypatch, plan):
        forked = self.count_forks(monkeypatch)
        _split_outcome(plan)
        assert len(forked) == can_fork
        assert _no_child_left()
        assert not idn._busy

    def test_a_child_that_dies_is_rerun_here(self):
        assert _split_outcome({4: "die"}) == idn._passed("test/split", {"n_max": 8})

    def test_a_failure_below_the_childs_first_n_stops_it_at_once(self):
        # the child would sleep for a minute at n = 2
        start = time.monotonic()
        report = _split_outcome({1: "fail", 2: "sleep"})
        assert time.monotonic() - start < 30
        assert report.first_failure == idn.CheckFailure(1, "step 1", "wrong", "right")
        assert _no_child_left()

    def test_one_n_starts_no_child(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert _split_outcome({}, range(3, 4)).passed

    @pytest.mark.skipif(not can_fork, reason="needs os.fork and at least two CPUs")
    def test_no_fork_beside_a_live_child_or_in_one(self):
        child = idn._fork(lambda: idn.CheckReport(
            "test/fork", {"refused": idn._fork(_pid_report, {}) is None}, True), {})
        assert child is not None
        assert idn._fork(_pid_report, {}) is None
        assert idn._join(child).params == {"refused": True}
        assert not idn._busy
        assert _no_child_left()

    @pytest.mark.skipif(not can_fork, reason="needs os.fork and at least two CPUs")
    def test_all_forks_once(self, monkeypatch):
        # grammar/leibniz's child lives while every split check runs, so
        # they run in this process
        forked = self.count_forks(monkeypatch)
        assert all(r.passed for r in idn.run_suite("all"))
        assert len(forked) == 1
        assert _no_child_left()

    @pytest.mark.skipif(not can_fork, reason="needs os.fork and at least two CPUs")
    def test_closed_forms_never_has_two_children(self, monkeypatch):
        live, fork, waitpid = set(), os.fork, os.waitpid

        def fork_alone():
            assert not live
            pid = fork()
            if pid:
                live.add(pid)
            return pid

        def reaped(pid, options):
            result = waitpid(pid, options)
            live.discard(result[0])
            return result

        monkeypatch.setattr(os, "fork", fork_alone)
        monkeypatch.setattr(os, "waitpid", reaped)
        assert all(r.passed for r in idn.run_suite("closed-forms", n_max=6))
        assert not live
        assert _no_child_left()


#: Each public check's int params, as ``(check, param)``, read from their
#: annotations.
INT_PARAMS = [(name, param) for name in idn.__all__ if name.startswith("check_")
              for param, p in inspect.signature(getattr(idn, name)).parameters.items()
              if p.annotation == "int"]


class TestIntOptions:
    """Ranges and orders are ints, never bools, floats or strs, refused
    before any check runs or family is built."""

    @pytest.mark.parametrize("suite, options, message", [
        ("oracle", {"n_max": True}, "n_max must be an int, got True"),
        ("gf", {"order": True}, "order must be an int, got True"),
        ("gf", {"n_max": 2.5}, "n_max must be an int, got 2.5"),
        ("grammar", {"n_max": True}, "n_max must be an int, got True"),
        ("all", {"order": 12.0}, "order must be an int, got 12.0"),
    ], ids=["oracle-bool", "gf-order-bool", "gf-float", "grammar-bool", "all-order-float"])
    def test_run_suite_refuses(self, monkeypatch, suite, options, message):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        for name in idn.__all__:
            if name.startswith("check_"):
                monkeypatch.setattr(idn, name, lambda *a, _name=name, **k: pytest.fail(_name))
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            idn.run_suite(suite, **options)

    @pytest.mark.parametrize("value", [True, 2.0, "3"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("check, param", INT_PARAMS,
                             ids=[f"{check}-{param}" for check, param in INT_PARAMS])
    def test_every_check_refuses(self, monkeypatch, check, param, value):
        # no family is built before the refusal
        for name in triangles.__all__:
            if name.startswith(("triangle_", "poly_")):
                monkeypatch.setattr(triangles, name, lambda *a, _name=name, **k: pytest.fail(_name))
        message = f"{param} must be an int, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            getattr(idn, check)(**{param: value})

    def test_every_int_param_is_listed(self):
        assert len(INT_PARAMS) == 17
        assert ("check_leibniz", "seed") not in INT_PARAMS
