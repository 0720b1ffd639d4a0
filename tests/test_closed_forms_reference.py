"""The three pointwise closed forms against a literal reference.

The reference is the ``QuadExt``/``Fraction`` implementation that the
integer comparisons replaced, kept verbatim: one ``cases`` generator per
check, each evaluating both sides as exact values at every (n, point),
and the ``_verdict`` that turned their first mismatch into a report.
``closed/runs-from-peaks``, ``closed/tangent`` and
``closed/david-barton`` must return the same ``CheckReport`` as the
reference, ``first_failure`` text included, on stock and seeded plans
and under single-entry faults in every family they read.  The one
deliberate difference: where the reference fails a sqrt component, the
two radical forms fail their odd-part condition at the same n, since
they check once per n the symmetry that clears the radical.

The reference compares every n at every point of the plan; the checks
draw each n's points only from the first D_n+1 distinct plan points, D_n
their degree bound at n, and refuse a plan of fewer.  Faults that vanish
on a prefix of the plan show that this prefix still holds the
reference's first failure, and faults that vanish on the whole plan that
a row too long for it is refused.

David-Barton's (1-w, 1+w) expansion, one ``horner`` call since the
integer rows moved into ``exactnum``, is checked against the
coefficient-list loop it replaced, also kept verbatim.
"""

from __future__ import annotations

import os
import random
import re
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from runlab import identities as idn
from runlab import triangles
from runlab.exactnum import QuadExt
from runlab.identities import _failed, _params_text, _passed


# -- reference -----------------------------------------------------------


def _verdict(identity, params, cases):
    """The report on ``cases``, each ``(n, point, lhs, rhs)``, drawn lazily
    up to the first whose sides differ, which fails the check.

    A ``QuadExt`` right side must first have a zero sqrt component, or
    it fails at ``"{point}: sqrt component"`` as ``(rhs, 0)``; its
    rational part is then compared.  A check that draws no case has
    compared nothing, so it raises ``ValueError`` instead of passing.
    """
    drawn = 0
    for drawn, (n, point, lhs, rhs) in enumerate(cases, 1):
        if isinstance(rhs, QuadExt):
            if rhs.b != 0:
                return _failed(identity, params, n, f"{point}: sqrt component", rhs, 0)
            rhs = rhs.a
        if lhs != rhs:
            return _failed(identity, params, n, point, lhs, rhs)
    if not drawn:
        raise ValueError(f"{identity} ({_params_text(params)}) has no case to compare")
    return _passed(identity, params)


def runs_from_peaks_cases(n_max):
    def cases(xs):
        W = triangles.poly_W(n_max)
        R = triangles.triangle_R(n_max)
        T = triangles.triangle_A(n_max)
        # what does not depend on n, once per point: the two labels,
        # 2x/(1+x) and (1+x)/2
        points = [(f"T-form x={x}", f"R-form x={x}", x, 2 * x / (1 + x), (1 + x) / 2)
                  for x in xs]
        for n in range(1, n_max + 1):
            Wn, Rn, Tn = W[n], R[n], T[n]
            for t_form, r_form, x, t, h in points:
                wn = Wn(t)
                yield n, t_form, Tn(x), x * h ** (n - 1) * wn
                if n >= 2:
                    yield n, r_form, Rn(x), x * h ** (n - 2) * wn

    return cases


def tangent_cases(n_max):
    def cases(xs):
        W = triangles.poly_W(n_max)
        R = triangles.triangle_R(n_max)
        P = triangles.poly_P(n_max)
        # what does not depend on n, once per point: the two labels, sigma,
        # 1/sigma, 1/tau, tau and (x+1)/2
        points = []
        for x in xs:
            sigma = QuadExt.root(x - 1)
            tau = QuadExt.root((x + 1) / (x - 1))
            points.append((f"W-form x={x}", f"R-form x={x}", x, sigma, sigma.inverse(),
                           tau.inverse(), tau, (x + 1) / 2))
        for n in range(2, n_max + 1):
            Wn, Rn, Pn = W[n], R[n], P[n]
            for w_form, r_form, x, sigma, sigma_inv, tau_inv, tau, h in points:
                yield n, w_form, Wn(x), sigma ** (n + 1) * Pn(sigma_inv) / x
                yield n, r_form, Rn(x), h ** (n - 1) * tau_inv ** (n + 1) * Pn(tau)

    return cases


def david_barton_cases(n_max):
    def cases(xs):
        A = triangles.poly_A(n_max)
        R = triangles.triangle_R(n_max)
        # what does not depend on n, once per point: the label, (1-w)/(1+w),
        # (1+x)/2 and 1+w
        points = []
        for x in xs:
            w = QuadExt.root(1 - x * x) / (1 + x)
            points.append((f"x={x}", x, (1 - w) / (1 + w), (1 + x) / 2, 1 + w))
        for n in range(2, n_max + 1):
            An, Rn = A[n], R[n]
            for label, x, u, h, one_plus_w in points:
                yield n, label, Rn(x), h ** (n - 1) * one_plus_w ** (n + 1) * An(u)

    return cases


#: kind -> (check under test, reference cases, families the check reads)
FORMS = {
    "runs-from-peaks": (idn.check_runs_from_peaks, runs_from_peaks_cases, "WRT"),
    "tangent": (idn.check_tangent_forms, tangent_cases, "WRP"),
    "david-barton": (idn.check_david_barton, david_barton_cases, "AR"),
}

#: family letter -> the builder name in ``triangles``
BUILDERS = {"W": "poly_W", "R": "triangle_R", "T": "triangle_A", "P": "poly_P", "A": "poly_A"}


def needed(kind, n_max):
    return n_max + 2 if kind == "runs-from-peaks" else 2 * n_max + 3


def both_reports(kind, n_max, plan):
    """``(check report, reference report)`` for ``closed/<kind>`` on ``plan``."""
    check, ref_cases, _ = FORMS[kind]
    want = _verdict(f"closed/{kind}", {"n_max": n_max, "points": len(plan)},
                    ref_cases(n_max)(plan.points))
    return check(n_max, plan), want


def seeded_plan(kind, n_max, seed):
    """A certified plan drawn from the first 3/2 of the stock pool, kept in
    pool order, as seeded benchmark runs draw them."""
    k = needed(kind, n_max)
    pool = list(idn.default_plan(kind, k + k // 2).points)
    rng = random.Random(seed)
    return idn.SamplePlan(tuple(pool[i] for i in sorted(rng.sample(range(len(pool)), k))))


def wide_plan(kind, n_max, seed):
    """A certified plan of any nonsingular small rationals, in random order:
    negative points, x < -1 and square discriminants included."""
    singular = idn._POINTWISE[kind][1]
    pool = {y for x in islice(idn._pool(), 400) for y in (x, x + 1, x - 2, 3 * x)
            if not singular(y)}
    rng = random.Random(seed)
    return idn.SamplePlan(tuple(rng.sample(sorted(pool), needed(kind, n_max))))


# -- differential tests --------------------------------------------------


class TestPassingPlans:
    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("n_max", [2, 3, 6, 12])
    def test_stock_plans(self, kind, n_max):
        got, want = both_reports(kind, n_max, idn.default_plan(kind, needed(kind, n_max)))
        assert got == want and got.passed

    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("seed", [1, 7, 13, 61])
    def test_seeded_plans(self, kind, seed):
        got, want = both_reports(kind, 10, seeded_plan(kind, 10, seed))
        assert got == want and got.passed

    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_wide_plans(self, kind, seed):
        got, want = both_reports(kind, 6, wide_plan(kind, 6, seed))
        assert got == want and got.passed


def perturbations(letter, n_max):
    """Every single-entry fault of family ``letter`` in rows n <= n_max:
    each entry off by +1 or -1, and the row lengthened by one or two
    entries (past the degree bound a row must still compare)."""
    rows = getattr(triangles, BUILDERS[letter])(n_max)
    for n in rows.indices():
        for k in range(len(rows.row(n))):
            for delta in (1, -1):
                yield n, (lambda row, k=k, delta=delta: row.__setitem__(k, row[k] + delta))
        for tail in ([1], [0, 1]):
            yield n, (lambda row, tail=tail: row.extend(tail))


def faulted(monkeypatch, letter, n, change):
    """Patch family ``letter`` so row ``n`` of each fresh build is ``change``d."""
    name = BUILDERS[letter]
    real = getattr(triangles, name)

    def build(n_max):
        fam = real(n_max)
        if fam.start <= n <= fam.max_n:
            change(fam.row(n))
        return fam

    monkeypatch.setattr(triangles, name, build)


#: kind -> the point text of the condition that replaced the reference's
#: sqrt component: the odd part that must vanish for the form to be rational
ODD_PART = {
    "tangent": "odd part of P_n",
    "david-barton": "odd part of (1+w)^(n+1) A_n((1-w)/(1+w))",
}


def assert_reports_as_the_reference(got, want, kind, where=None):
    """``got`` has ``want``'s verdict and failing n; it is ``want`` byte
    for byte unless ``want`` names a sqrt component, which ``got`` reports
    as the odd-part condition of ``kind`` at the same n: a nonzero
    coefficient list against as many zeros."""
    assert (got.identity, got.params, got.passed) == (
        want.identity, want.params, want.passed), where
    if want.passed or "sqrt component" not in want.first_failure.point:
        assert got == want, where
        return
    f = got.first_failure
    assert (f.n, f.point) == (want.first_failure.n, ODD_PART[kind]), where
    coeffs = [int(c) for c in f.lhs.strip("[]").split(", ")]
    assert any(coeffs) and f.rhs == str([0] * len(coeffs)), where


class TestFaultSweep:
    N_MAX = 6

    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("plan_of", [
        lambda kind, n_max: idn.default_plan(kind, needed(kind, n_max)),
        lambda kind, n_max: wide_plan(kind, n_max, 2),
    ], ids=["stock", "wide"])
    def test_every_single_entry_fault_reports_as_the_reference(self, monkeypatch, kind,
                                                               plan_of):
        letters = FORMS[kind][2]
        plan = plan_of(kind, self.N_MAX)
        seen = set()
        for letter in letters:
            for n, change in perturbations(letter, self.N_MAX):
                with monkeypatch.context() as m:
                    faulted(m, letter, n, change)
                    got, want = both_reports(kind, self.N_MAX, plan)
                assert_reports_as_the_reference(got, want, kind, (letter, n))
                if not got.passed:
                    seen.add(got.first_failure.point == ODD_PART.get(kind))
        # the sweep reaches a rational-part failure, and for the two radical
        # forms an odd-part failure too
        assert seen == ({False} if kind == "runs-from-peaks" else {False, True})

    def test_a_lengthened_row_fails_past_the_degree_bound(self, monkeypatch):
        # P_2 + x^4: the top term has exponent n+1-4 = -1, a negative power
        # of sigma, and both sides still compare; the reference names the
        # W-form's sqrt component at its first point
        faulted(monkeypatch, "P", 2, lambda row: row.append(1))
        got, want = both_reports("tangent", 3, idn.default_plan("tangent", 9))
        assert want.first_failure.point == "W-form x=3/2: sqrt component"
        assert_reports_as_the_reference(got, want, "tangent")
        assert got.first_failure == idn.CheckFailure(2, "odd part of P_n", "[1, 0, 0]", "[0, 0, 0]")


# -- the prefix of the plan each n draws -----------------------------------


#: kind -> the distinct plan points each n draws on stock rows: D_n + 1
POINTS_PER_N = {
    "runs-from-peaks": lambda n: n + 1,
    "tangent": lambda n: n,
    "david-barton": lambda n: n,
}


def repeated_plan(kind, n_max):
    """The stock plan after a front of its first three points repeated in
    another order, so a count of plan entries is no count of points."""
    pts = idn.default_plan(kind, needed(kind, n_max)).points
    return idn.SamplePlan((pts[0], pts[0], pts[1], pts[0], pts[2], pts[1]) + pts)


#: plan name -> plan of (kind, n_max)
PLANS = {
    "stock": lambda kind, n_max: idn.default_plan(kind, needed(kind, n_max)),
    "seeded": lambda kind, n_max: seeded_plan(kind, n_max, 7),
    "wide": lambda kind, n_max: wide_plan(kind, n_max, 3),
    "repeated": repeated_plan,
}


def vanishing(roots, c, s):
    """The coefficients of c x^s prod_(p/q in roots) (q x - p), low first."""
    poly = [0] * s + [c]
    for r in roots:
        p, q = Fraction(r).numerator, Fraction(r).denominator
        poly = [q * a - p * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def read_at(kind, letter):
    """The point at which ``closed/<kind>`` reads family ``letter``, as a
    function of the plan point x: 2x/(1+x) for W in runs-from-peaks, x
    itself for the others (P and A, read at radicals, take x too)."""
    if (kind, letter) == ("runs-from-peaks", "W"):
        return lambda x: 2 * x / (1 + x)
    return lambda x: x


def add_to(poly):
    """A row change adding ``poly``, lengthening the row where it must."""
    def change(row):
        row.extend([0] * (len(poly) - len(row)))
        for k, c in enumerate(poly):
            row[k] += c
    return change


class TestPrefixVanishingFaults:
    """Adding c x^s prod_(i<m) (q_i x - p_i) to one row, for the first m
    distinct points p_i/q_i of the plan, leaves the form's difference
    zero at those m points only.  Where the family is read at 2x/(1+x)
    (W in runs-from-peaks) the roots are the images of those points, so
    the difference still vanishes there; P and A, read at radicals, take
    the plan points themselves.  With m up to D_n + 1 and s up to 3 the
    row may grow past the stock bound, which must then grow with it; a
    check drawing one point fewer than D_n + 1, or counting a repeated
    point as a new one, reports a later failure or a pass where the
    reference fails."""

    N_MAX = 5

    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("plan_name", PLANS)
    def test_every_prefix_fault_reports_as_the_reference(self, monkeypatch, kind, plan_name):
        plan = PLANS[plan_name](kind, self.N_MAX)
        distinct = list(dict.fromkeys(plan.points))
        rng = random.Random(f"{kind}/{plan_name}")
        failing_at = set()
        for letter in FORMS[kind][2]:
            at = read_at(kind, letter)
            for n in range(1 if kind == "runs-from-peaks" else 2, self.N_MAX + 1):
                for m in range(POINTS_PER_N[kind](n) + 1):
                    for s in range(4):
                        c = rng.choice((-3, -2, -1, 1, 2, 3))
                        poly = vanishing([at(x) for x in distinct[:m]], c, s)
                        with monkeypatch.context() as mp:
                            faulted(mp, letter, n, add_to(poly))
                            got, want = both_reports(kind, self.N_MAX, plan)
                        assert_reports_as_the_reference(got, want, kind, (letter, n, m, s, c))
                        if not got.passed and got.first_failure.n == n:
                            failing_at.add(got.first_failure.point.partition("x=")[2])
        # the faults fail at each point a stock n draws, and at the next,
        # which only the bound of a lengthened row reaches
        top = POINTS_PER_N[kind](self.N_MAX)
        assert {str(x) for x in distinct[:top + 1]} <= failing_at


def drawn(monkeypatch, check, n_max, plan):
    """``(report, {n: [point text, ...]})`` of ``check(n_max, plan)`` run
    in one process, with the point cases each n drew, in order; the
    odd-part conditions are not point cases."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    points, verdict = {}, idn._verdict

    def tapped(identity, params, cases):
        def tap():
            for case in cases:
                if "x=" in case[1]:
                    points.setdefault(case[0], []).append(case[1])
                yield case
        return verdict(identity, params, tap())

    monkeypatch.setattr(idn, "_verdict", tapped)
    return check(n_max, plan), points


class TestWorkCut:
    """A passing check draws each n's cases at the first D_n + 1 distinct
    plan points only, each point once."""

    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("plan_name", ["stock", "repeated"])
    @pytest.mark.parametrize("n_max", [3, 12])
    def test_each_n_draws_its_degree_bound_of_points(self, monkeypatch, kind, plan_name, n_max):
        plan = PLANS[plan_name](kind, n_max)
        report, points = drawn(monkeypatch, FORMS[kind][0], n_max, plan)
        assert report.passed
        distinct = [str(x) for x in dict.fromkeys(plan.points)]
        forms = {"runs-from-peaks": ("T-form", "R-form"), "tangent": ("W-form", "R-form"),
                 "david-barton": ("",)}[kind]
        lo = 1 if kind == "runs-from-peaks" else 2
        assert sorted(points) == list(range(lo, n_max + 1))
        for n, labels in points.items():
            want = distinct[:POINTS_PER_N[kind](n)]
            for form in forms:
                if (kind, form, n) == ("runs-from-peaks", "R-form", 1):
                    continue  # the R-form starts at n = 2
                xs = [t.partition("x=")[2] for t in labels if t.startswith(form)]
                assert xs == want, (n, form)
            assert len(labels) == len(set(labels))


# -- rows whose degree needs more points than the plan holds ---------------


#: kind -> (family lengthened at n = 3, the points its rows then need,
#: the reference's first failure on a plan of one point more)
PAST_THE_PLAN = {
    "runs-from-peaks": ("W", 7, "T-form x=-2/3"),
    "tangent": ("W", 11, "W-form x=8/7"),
    "david-barton": ("R", 10, "x=-3/4"),
}


class TestRowsPastThePlan:
    """Adding prod_(i) (q_i y - p_i) to one row at n = 3, over the images
    y_i of every point of the stock plan at n_max = 3, leaves every case of
    that plan passing, while the row's degree needs more points than the
    plan holds: for runs-from-peaks, W_3 becomes [-12, 54, -12, -79, 31, 30]
    and needs 7 points of the 5.  The check refuses the plan at n = 3 with
    the same text in one process and split between two, and a plan of one
    point more than the rows need gives the reference's failure."""

    def fault(self, monkeypatch, kind):
        letter, _, _ = PAST_THE_PLAN[kind]
        at = read_at(kind, letter)
        points = idn.default_plan(kind, needed(kind, 3)).points
        faulted(monkeypatch, letter, 3, add_to(vanishing([at(x) for x in points], 1, 0)))

    def test_the_runs_from_peaks_row(self, monkeypatch):
        self.fault(monkeypatch, "runs-from-peaks")
        assert triangles.poly_W(3).row(3) == [-12, 54, -12, -79, 31, 30]

    @pytest.mark.parametrize("kind", FORMS)
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "split"])
    def test_the_stock_plan_is_refused_at_n(self, monkeypatch, kind, cpus):
        self.fault(monkeypatch, kind)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        forks, fork = [], idn._fork
        monkeypatch.setattr(idn, "_fork", lambda *args: forks.append(fork(*args)) or forks[-1])
        message = (f"{needed(kind, 3)} distinct sample points cannot certify closed/{kind} "
                   f"at n=3: its rows' degree bound needs {PAST_THE_PLAN[kind][1]}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FORMS[kind][0](3)
        # split, the refusal raised in one process is the serial run's
        assert [child is not None for child in forks] == [len(cpus) > 1]

    @pytest.mark.parametrize("kind", FORMS)
    def test_a_long_enough_plan_fails_as_the_reference(self, monkeypatch, kind):
        self.fault(monkeypatch, kind)
        _, needs, fails_at = PAST_THE_PLAN[kind]
        got, want = both_reports(kind, 3, idn.default_plan(kind, needs + 1))
        assert got == want
        assert (want.first_failure.n, want.first_failure.point) == (3, fails_at)


def solve(equations):
    """The one solution over Q of a square linear system, each equation a
    list of coefficients followed by its right side, by Gauss-Jordan."""
    m = [[Fraction(c) for c in eq] for eq in equations]
    for col in range(len(m)):
        pivot = next(r for r in range(col, len(m)) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [c / m[col][col] for c in m[col]]
        for r in range(len(m)):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [row[-1] for row in m]


def integral(*rows):
    """``rows`` of Fractions, all scaled by one factor to integers."""
    scale = lcm(*(Fraction(c).denominator for row in rows for c in row))
    return [[int(c * scale) for c in row] for row in rows]


class TestLengthenedRadicalRows:
    """The terms of the radical forms' bounds that only a lengthened P_n or
    A_n reaches.  Each fault is solved for over Q, then scaled to integers,
    so that every point case of n vanishes at the first K plan points but
    not at point K+1, where K + 1 is what the bound draws: a bound one
    point short passes such a fault."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_tangent_rows_of_p_past_n_plus_one(self, monkeypatch, n):
        # P_n gains 1 at x^(n+3) and a at x^(n+1), its parity kept, so
        # low = -1 and L = 1; W_n gets degree n-2 and R_n keeps n-1, so
        # the bound is L + n - 1: the cases vanish at the first n points
        # and fail at point n+1.  With sigma^2 = x-1 and w = (x-1)/(x+1),
        # P_j contributes sigma^(n+1-j)/x to the W-form and
        # ((x+1)/2)^(n-1) w^((n+1-j)/2) to the R-form
        plan = idn.default_plan("tangent", needed("tangent", 5))
        xs = plan.points
        # unknowns: a, then the n-1 entries of W's change, then R's n
        equations = []
        for x in xs[:n]:
            h, w = (x + 1) / 2, (x - 1) / (x + 1)
            equations.append([1 / x, *(-x ** k for k in range(n - 1)), *[0] * n,
                              -(x - 1) ** -1 / x])
            equations.append([h ** (n - 1), *[0] * (n - 1), *(-x ** k for k in range(n)),
                              -h ** (n - 1) * w ** -1])
        a, *rest = solve(equations)
        dP, dW, dR = integral([0] * (n + 1) + [a, 0, 1], rest[:n - 1], rest[n - 1:])
        for letter, change in zip("PWR", (dP, dW, dR)):
            faulted(monkeypatch, letter, n, add_to(change))
        assert len(triangles.poly_P(n).row(n)) == n + 4
        got, want = both_reports("tangent", 5, plan)
        assert got == want
        assert (want.first_failure.n, want.first_failure.point) == (n, f"W-form x={xs[n]}")

    def test_tangent_even_part_stays_within_the_r_form_term(self):
        # why the tangent bound has no d_E term: d_E = (n+1)//2 + L, at
        # most n - 1 + L for n >= 2, however many entries P_n gains
        P = triangles.poly_P(79)
        for n in range(2, 80):
            for extra in range(30):
                E, _, low = idn._parity_split(P.row(n) + [1] * extra, n + 1)
                assert len(E) - 1 == (n + 1) // 2 - low <= n - 1 - low, (n, extra)

    @pytest.mark.parametrize("e", [1, 2])
    def test_david_barton_rows_of_a_past_n_plus_two(self, monkeypatch, e):
        # A_4 gains 1 at x^1 and x^4, its palindrome in six entries kept,
        # and e zeros at its end; R_4 gets degree 5, solved so that the
        # case vanishes at the first 5 points and fails at the sixth
        n, d = 4, 5
        plan = idn.default_plan("david-barton", needed("david-barton", n))
        xs = plan.points
        dA = [0, 1, 0, 0, 1, 0] + [0] * e
        equations = [[0] * d + [1, 1]]  # R's top entry is 1
        for x in xs[:d]:
            w = QuadExt.root(1 - x * x) / (1 + x)
            side = ((1 + x) / 2) ** (n - 1) * sum(
                c * (1 - w) ** k * (1 + w) ** (n + 1 - k) for k, c in enumerate(dA[:n + 2]))
            assert side.b == 0
            equations.append([x ** k for k in range(d + 1)] + [side.a])
        dR, dA = integral(solve(equations), dA)
        faulted(monkeypatch, "A", n, add_to(dA))
        faulted(monkeypatch, "R", n, add_to(dR))
        assert len(triangles.poly_A(n).row(n)) == n + 2 + e
        got, want = both_reports("david-barton", n, plan)
        assert got == want
        assert (want.first_failure.n, want.first_failure.point) == (n, f"x={xs[d]}")


# -- David-Barton's w-expansion --------------------------------------------


def w_expansion(row, top):
    """The coefficients c_0..c_top of sum_k row[k] (1-w)^k (1+w)^(top-k)
    = sum_m c_m w^m, for ``top`` >= len(row) - 1, by homogeneous Horner
    over coefficient lists."""
    def times(poly, sign):  # poly * (1 + sign*w)
        return [a + sign * b for a, b in zip(poly + [0], [0] + poly)]

    acc, power = [], [1]  # at step k, power = (1+w)^(top-k), as long as acc * (1-w)
    for k in range(top, -1, -1):
        a = row[k] if k < len(row) else 0
        acc = [s + a * t for s, t in zip(times(acc, -1), power)]
        power = times(power, 1)
    return acc


def tops(row):
    return range(len(row) - 1, len(row) + 4)


class TestWExpansion:
    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_descent_rows_as_david_barton_expands_them(self, e):
        # A_n after e zeros at top n+1+2e, and at every top from
        # len(row)-1 to len(row)+3
        A = triangles.poly_A(40)
        for n in range(1, 41):
            row = [0] * e + A.row(n)
            for top in {n + 1 + 2 * e, *tops(row)}:
                assert idn._w_expansion(row, top) == w_expansion(row, top), (n, top)

    def test_seeded_rows_with_negative_entries(self):
        rng = random.Random(20241020)
        for _ in range(300):
            size = rng.randint(1, 30)
            row = [rng.randint(-10 ** size, 10 ** size) for _ in range(rng.randint(1, 14))]
            for top in tops(row):
                assert idn._w_expansion(row, top) == w_expansion(row, top), (row, top)

    @pytest.mark.parametrize("row", [[], [0], [0, 0, 0]])
    def test_zero_and_empty_rows(self, row):
        for top in tops(row):
            got = idn._w_expansion(row, top)
            assert got == w_expansion(row, top) == [0] * (top + 1)
