"""The three pointwise closed forms against a literal reference.

The reference is the ``QuadExt``/``Fraction`` implementation that the
integer comparisons replaced, kept verbatim: one ``cases`` generator per
check, each evaluating both sides as exact values at every (n, point),
and the ``_verdict`` that turned their first mismatch into a report.
``closed/runs-from-peaks``, ``closed/tangent`` and
``closed/david-barton`` must return the same ``CheckReport`` as the
reference, ``first_failure`` text included, on stock and seeded plans
and under single-entry faults in every family they read.
"""

from __future__ import annotations

import random
from itertools import islice

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
        R = triangles.poly_R(n_max)
        T = triangles.poly_T(n_max)
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
        R = triangles.poly_R(n_max)
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
        R = triangles.poly_R(n_max)
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
BUILDERS = {"W": "poly_W", "R": "poly_R", "T": "poly_T", "P": "poly_P", "A": "poly_A"}


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
                assert got == want, (letter, n)
                if not got.passed:
                    seen.add("sqrt component" in got.first_failure.point)
        # the sweep reaches a rational-part failure, and for the two radical
        # forms a sqrt-component failure too
        assert seen == ({False} if kind == "runs-from-peaks" else {False, True})

    def test_a_lengthened_row_fails_past_the_degree_bound(self, monkeypatch):
        # P_2 + x^4: the top term has exponent n+1-4 = -1, a negative power
        # of sigma, and both sides still compare
        faulted(monkeypatch, "P", 2, lambda row: row.append(1))
        got, want = both_reports("tangent", 3, idn.default_plan("tangent", 9))
        assert got == want
        assert got.first_failure.point == "W-form x=3/2: sqrt component"
