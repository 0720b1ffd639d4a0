"""Executable identity checks with structured pass/fail reports.

Each ``check_*`` function verifies one exact relation between the
grammar expansions, the recurrence-generated triangles/polynomials, the
brute-force oracle, and the closed forms/generating functions -- all in
exact arithmetic, so a check either passes identically or returns the
first counterexample rendered exactly.

Three kinds of verification appear:

* structural equality of polynomials / multivariate expansions,
* pointwise evaluation of radical identities in Q(sqrt(d)) at enough
  rational points to certify the underlying polynomial identity (the
  degree bound, <= 2n+2 after clearing denominators, is noted per
  check), with the sqrt-component of every evaluation required to vanish
  exactly as its own named condition,
* coefficient-by-coefficient comparison of truncated series against
  triangle-derived exponential generating function coefficients.

Reports are deterministic: the same inputs produce byte-identical
serialized output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, isqrt
from typing import Callable, Iterator, Mapping, Sequence

from . import grammar, permcore, triangles
from .exactnum import (
    Fraction,
    PowerSeries,
    QuadExt,
    RatPoly,
    Rational,
    cos_series,
    exp_series,
    sin_series,
)

__all__ = [
    "CheckFailure",
    "CheckReport",
    "SamplePlan",
    "SUITES",
    "check_alt_from_runs",
    "check_altsubseq_gf",
    "check_carlitz",
    "check_convolutions",
    "check_david_barton",
    "check_dumont",
    "check_grammar_alt",
    "check_grammar_runs",
    "check_leibniz",
    "check_oracle",
    "check_peaks_grammar",
    "check_recurrence_consistency",
    "check_runs_from_peaks",
    "check_stanley_gf",
    "check_tangent_forms",
    "default_plan",
    "run_suite",
]

DEFAULT_ORDER = 12
DEFAULT_CARLITZ_X0S = (Fraction(0), Fraction(1, 3), Fraction(1, 2))
DEFAULT_STANLEY_T0S = (Fraction(1, 3), Fraction(1, 2))
DEFAULT_FINAL_X0S = (Fraction(1, 3), Fraction(1, 2))


@dataclass(frozen=True)
class CheckFailure:
    """First counterexample of a failed check, rendered exactly."""

    n: int
    point: str
    lhs: str
    rhs: str

    def to_json_obj(self) -> dict:
        return {"n": self.n, "point": self.point, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class CheckReport:
    identity: str
    params: "dict[str, object]"
    passed: bool
    first_failure: "CheckFailure | None" = None

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "passed": self.passed,
            "first_failure": None
            if self.first_failure is None
            else self.first_failure.to_json_obj(),
        }


def _passed(identity: str, params: dict) -> CheckReport:
    return CheckReport(identity, params, True, None)


def _failed(identity: str, params: dict, n: int, point: str, lhs, rhs) -> CheckReport:
    return CheckReport(identity, params, False, CheckFailure(n, point, str(lhs), str(rhs)))


# ----------------------------------------------------------------------
# Sample plans for the pointwise radical checks.


@dataclass(frozen=True)
class SamplePlan:
    """Rational sample points, already filtered for the target identity."""

    points: "tuple[Fraction, ...]"

    def __len__(self):
        return len(self.points)


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return (
        isqrt(q.numerator) ** 2 == q.numerator
        and isqrt(q.denominator) ** 2 == q.denominator
    )


def _pool() -> Iterator[Fraction]:
    """Deterministic stream of small rationals: 1/2, -1/2, 1/3, -1/3, 2/3, ..."""
    q = 2
    while True:
        for p in range(1, q):
            if Fraction(p, q).denominator == q:  # gcd(p, q) == 1
                yield Fraction(p, q)
                yield Fraction(-p, q)
        q += 1


def _take(count: int, keep: "Callable[[Fraction], bool]",
          transform: "Callable[[Fraction], Fraction] | None" = None) -> SamplePlan:
    out = []
    for x in _pool():
        if transform is not None:
            x = transform(x)
        if keep(x):
            out.append(x)
            if len(out) == count:
                return SamplePlan(tuple(out))
    raise AssertionError("unreachable: the rational pool is infinite")


def default_plan(identity: str, count: int) -> SamplePlan:
    """The stock sample plan of ``count`` >= 1 points for one of the
    pointwise checks.

    ``identity`` is one of ``runs-from-peaks``, ``tangent``,
    ``david-barton``.  Points avoid each identity's singular values and
    prefer non-square discriminants so the quadratic extension is a
    genuine field.
    """
    if count < 1:
        raise ValueError(f"points must be >= 1, got {count}")
    if identity == "runs-from-peaks":
        return _take(count, lambda x: x != -1)
    if identity == "tangent":
        # x in (1, 2): x-1 positive; skip squares of both discriminants
        return _take(
            count,
            lambda x: x > 1
            and not _is_square(x - 1)
            and not _is_square((x + 1) / (x - 1)),
            transform=lambda r: 1 + r,
        )
    if identity == "david-barton":
        return _take(count, lambda x: not _is_square(1 - x * x))
    raise ValueError(f"no default plan for identity {identity!r}")


def _require(plan: SamplePlan, singular: "Callable[[Fraction], bool]", what: str,
             ident: str, needed: int) -> None:
    """Refuse a plan with a point singular for ``what``, or with fewer
    points than the degree bound needs to certify ``ident``."""
    for x in plan.points:
        if singular(x):
            raise ValueError(f"sample point {x} is singular for {what}")
    if len(plan) < needed:
        raise ValueError(f"{len(plan)} sample points cannot certify {ident}: "
                         f"the degree bound needs at least {needed}")


# ----------------------------------------------------------------------
# Grammar expansions vs. triangles and oracle.


class _DescentTables(dict):
    """``permcore.descent_classes(n)`` by n, each S_n walked on first read.

    One instance serves every check of one ``run_suite`` call, so a run
    walks each S_n at most once; a check called on its own makes its own.
    """

    def __missing__(self, n: int):
        table = self[n] = permcore.descent_classes(n)
        return table


def _hist_str(counts: "Mapping[int, int]") -> str:
    return "{" + ", ".join(f"{k}:{v}" for k, v in sorted(counts.items())) + "}"


def _row_counts(row: "list[int]") -> "dict[int, int]":
    return {k: v for k, v in enumerate(row) if v}


def _expand(ident: str, params: dict, g: grammar.Grammar, n_max: int,
            streams: "Sequence[tuple]", oracle: "Sequence[tuple]" = (),
            oracle_n_max: int = 0,
            descent_tables: "_DescentTables | None" = None) -> CheckReport:
    """The loop behind the four grammar checks.

    Each stream ``(seed, point, row, exponents)`` is derived under ``g``
    once per n = 1..n_max, in the order given, and derivative n must
    equal sum_k row(n)[k] * Monomial(exponents(n, k)) over the nonzero
    entries of the row (k = 0 included); a mismatch fails at ``point``.
    For n <= oracle_n_max each oracle row ``(stat, row, name)`` must then
    match the brute-force histogram of ``stat`` over S_n, read from
    ``descent_tables`` (a fresh one by default); a mismatch puts the row
    first and the histogram second.
    """
    tables = _DescentTables() if descent_tables is None else descent_tables
    polys = [seed for seed, _, _, _ in streams]
    for n in range(1, n_max + 1):
        for i, (_, point, row, exponents) in enumerate(streams):
            p = polys[i] = grammar.d_apply(g, polys[i])
            expected = grammar.MPoly(
                (grammar.Monomial(exponents(n, k)), c)
                for k, c in enumerate(row(n))
                if c
            )
            if p != expected:
                return _failed(ident, params, n, point, p, expected)
        if n <= oracle_n_max:
            for stat, row, name in oracle:
                counts = _row_counts(row(n))
                dist = permcore.distribution(stat, n, tables[n])
                if counts != dist.counts:
                    return _failed(ident, params, n, f"{name} over S_{n}",
                                   _hist_str(counts), _hist_str(dist.counts))
    return _passed(ident, params)


def check_grammar_runs(n_max: int = 12) -> CheckReport:
    """Iterated derivatives of x^2 under the main grammar carry the run
    triangle: the n-th derivative equals x^2 sum_k R(n+1,k) y^k z^(n-k)."""
    tri = triangles.triangle_R(n_max + 1)
    return _expand(
        "grammar/runs", {"n_max": n_max}, grammar.builtin("main"), n_max,
        [(grammar.MPoly.monomial({"x": 2}), "derivative of x^2",
          lambda n: tri.row(n + 1), lambda n, k: {"x": 2, "y": k, "z": n - k})],
    )


def check_grammar_alt(n_max: int = 12) -> CheckReport:
    """Iterated derivatives of x under the main grammar carry the
    altsubseq triangle: the n-th derivative is x sum_k a_k(n) y^k z^(n-k)."""
    tri = triangles.triangle_A(n_max)
    return _expand(
        "grammar/altsubseq", {"n_max": n_max}, grammar.builtin("main"), n_max,
        [(grammar.MPoly.letter("x"), "derivative of x",
          tri.row, lambda n, k: {"x": 1, "y": k, "z": n - k})],
    )


def check_dumont(n_max: int = 12, oracle_n_max: int = 8, *,
                 descent_tables: "_DescentTables | None" = None) -> CheckReport:
    """The two-letter grammar {x -> xy, y -> xy} expands descent counts:
    the n-th derivative of x is sum_k E(n,k) x^(k+1) y^(n-k).

    Coefficients are compared against the euler triangle for n <= n_max
    and against the brute-force descent histogram for n <= oracle_n_max,
    read from ``descent_tables`` (a fresh one by default).

    ``triangles.triangle_euler`` builds its rows from this same dumont
    expansion, so the triangle half compares the grammar with itself:
    with the rule ``y -> 2*x*y`` in both, ``check_dumont(12,
    oracle_n_max=0)`` still passes, and only the oracle half catches the
    swap (at n = 2).  For oracle_n_max < n <= n_max the check proves
    nothing independent.
    """
    params = {"n_max": n_max, "oracle_n_max": oracle_n_max}
    tri = triangles.triangle_euler(n_max)
    return _expand(
        "grammar/eulerian", params, grammar.builtin("dumont"), n_max,
        [(grammar.MPoly.letter("x"), "derivative of x",
          tri.row, lambda n, k: {"x": k + 1, "y": n - k})],
        oracle=[(permcore.Stat.DESCENTS, tri.row, "descent histogram")],
        oracle_n_max=oracle_n_max, descent_tables=descent_tables,
    )


def check_peaks_grammar(n_max: int = 12, oracle_n_max: int = 8, *,
                        descent_tables: "_DescentTables | None" = None) -> CheckReport:
    """The grammar {y -> yz, z -> y^2} expands both peak triangles:
    derivatives of y carry left-peak counts on monomials y^(2k+1) z^(n-2k),
    derivatives of z carry interior-peak counts on y^(2k+2) z^(n-2k-1).
    Both are also compared against the brute-force histograms for
    n <= oracle_n_max, read from ``descent_tables`` (a fresh one by default)."""
    params = {"n_max": n_max, "oracle_n_max": oracle_n_max}
    ident = "grammar/peaks"
    W = triangles.poly_W(n_max)
    Wt = triangles.poly_Wtilde(n_max)
    py = grammar.MPoly.letter("y")
    if py != grammar.MPoly.monomial({"y": 1}, Wt.entry(0, 0)):
        return _failed(ident, params, 0, "derivative 0 of y", py, Wt[0])
    return _expand(
        ident, params, grammar.builtin("peaks"), n_max,
        [(py, "derivative of y",
          Wt.row, lambda n, k: {"y": 2 * k + 1, "z": n - 2 * k}),
         (grammar.MPoly.letter("z"), "derivative of z",
          W.row, lambda n, k: {"y": 2 * k + 2, "z": n - 2 * k - 1})],
        oracle=[(permcore.Stat.INTERIOR_PEAKS, W.row, "interior-peak histogram"),
                (permcore.Stat.LEFT_PEAKS, Wt.row, "left-peak histogram")],
        oracle_n_max=oracle_n_max, descent_tables=descent_tables,
    )


def _random_mpoly(rng: random.Random, letters: "tuple[str, ...]") -> grammar.MPoly:
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = {l: rng.randint(0, 2) for l in letters}
        terms.append((grammar.Monomial(mono), rng.randint(1, 3)))
    return grammar.MPoly(terms)


def check_leibniz(n_max: int = 10, cases: int = 100, seed: int = 20240801) -> CheckReport:
    """Iterated product rule: D^n(u*v) = sum_k C(n,k) D^k(u) D^(n-k)(v)
    over seeded random u, v and all four stock grammars."""
    params = {"n_max": n_max, "cases": cases, "seed": seed}
    rng = random.Random(seed)
    names = sorted(grammar.BUILTIN_GRAMMARS)
    for case in range(cases):
        name = rng.choice(names)
        g = grammar.builtin(name)
        letters = tuple(sorted(g.alphabet))
        u = _random_mpoly(rng, letters)
        v = _random_mpoly(rng, letters)
        n = rng.randint(0, n_max)
        if not grammar.leibniz_check(g, u, v, n):
            lhs = grammar.d_power(g, u * v, n)
            rhs = grammar.MPoly.zero()
            for k in range(n + 1):
                rhs = rhs + comb(n, k) * (
                    grammar.d_power(g, u, k) * grammar.d_power(g, v, n - k)
                )
            return _failed(
                "grammar/leibniz", params, n,
                f"case {case}: grammar={name}, u={u}, v={v}", lhs, rhs,
            )
    return _passed("grammar/leibniz", params)


# ----------------------------------------------------------------------
# Polynomial identities (exact polynomial arithmetic).


def check_convolutions(n_max: int = 20) -> CheckReport:
    """Five binomial convolution formulas tying together the run,
    altsubseq and peak polynomial families, e.g.
    R_(n+1) = sum_k C(n,k) T_k T_(n-k); peak factors enter at x^2."""
    params = {"n_max": n_max}
    ident = "poly/convolutions"
    T = triangles.poly_T(n_max + 1)
    R = triangles.poly_R(n_max + 2)
    W = triangles.poly_W(n_max)
    Wt = triangles.poly_Wtilde(n_max)
    x = RatPoly((0, 1))
    x2 = RatPoly((0, 0, 1))
    for n in range(1, n_max + 1):
        c = [comb(n, k) for k in range(n + 1)]
        rhs = sum((c[k] * (T[k] * T[n - k]) for k in range(n + 1)), RatPoly())
        if rhs != R[n + 1]:
            return _failed(ident, params, n,
                           "R_(n+1) = sum C(n,k) T_k T_(n-k)", R[n + 1], rhs)
        rhs = 2 * sum((c[k] * (T[k] * T[n - k + 1]) for k in range(n + 1)), RatPoly())
        if rhs != R[n + 2]:
            return _failed(ident, params, n,
                           "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)", R[n + 2], rhs)
        rhs = 2 * x * Wt[n].stretch(2) + 2 * x * sum(
            (c[k] * (R[k + 1] * Wt[n - k].stretch(2)) for k in range(1, n + 1)),
            RatPoly(),
        )
        if rhs != R[n + 2]:
            return _failed(ident, params, n,
                           "R_(n+2) = 2x Wt_n(x^2) + 2x sum C(n,k) R_(k+1) Wt_(n-k)(x^2)",
                           R[n + 2], rhs)
        rhs = x * sum(
            (c[k] * (T[k] * Wt[n - k].stretch(2)) for k in range(n + 1)), RatPoly()
        )
        if rhs != T[n + 1]:
            return _failed(ident, params, n,
                           "T_(n+1) = x sum C(n,k) T_k Wt_(n-k)(x^2)", T[n + 1], rhs)
        rhs = T[n] + x2 * sum(
            (c[k] * (T[k] * W[n - k].stretch(2)) for k in range(n)), RatPoly()
        )
        if rhs != T[n + 1]:
            return _failed(ident, params, n,
                           "T_(n+1) = T_n + x^2 sum C(n,k) T_k W_(n-k)(x^2)",
                           T[n + 1], rhs)
    return _passed(ident, params)


def check_recurrence_consistency(n_max: int = 20) -> CheckReport:
    """Triangle-generated polynomials satisfy the differential
    recurrences exactly: the rows of the run triangle obey
    R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)', and the altsubseq rows
    obey T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'."""
    params = {"n_max": n_max}
    ident = "poly/recurrences"
    r = triangles.triangle_R(n_max + 2)
    t = triangles.triangle_A(n_max + 1)
    for n in range(0, n_max + 1):
        rhs = RatPoly((0, 2, n)) * r[n + 1] + RatPoly((0, 1, 0, -1)) * r[n + 1].derivative()
        if rhs != r[n + 2]:
            return _failed(ident, params, n,
                           "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'",
                           r[n + 2], rhs)
        rhs = RatPoly((0, 1, n)) * t[n] + RatPoly((0, 1, 0, -1)) * t[n].derivative()
        if rhs != t[n + 1]:
            return _failed(ident, params, n,
                           "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'", t[n + 1], rhs)
    return _passed(ident, params)


def check_alt_from_runs(n_max: int = 25) -> CheckReport:
    """T_n(x) = (1+x)/2 * R_n(x) for n >= 2, checked in integer
    polynomial arithmetic as 2 T_n = (1+x) R_n."""
    params = {"n_max": n_max}
    ident = "closed/alt-from-runs"
    one_plus_x = RatPoly((1, 1))
    T = triangles.poly_T(n_max)
    R = triangles.poly_R(n_max)
    for n in range(2, n_max + 1):
        lhs = 2 * T[n]
        rhs = one_plus_x * R[n]
        if rhs != lhs:
            return _failed(ident, params, n, "2 T_n = (1+x) R_n", lhs, rhs)
    return _passed(ident, params)


# ----------------------------------------------------------------------
# Closed forms verified pointwise in Q(sqrt(d)).


def check_runs_from_peaks(n_max: int = 20, plan: "SamplePlan | None" = None) -> CheckReport:
    """Run and altsubseq polynomials from the peak polynomials:
    R_n(x) = x (1+x)^(n-2) / 2^(n-2) * W_n(2x/(1+x))   for n >= 2,
    T_n(x) = x (1+x)^(n-1) / 2^(n-1) * W_n(2x/(1+x))   for n >= 1.

    Both sides are rational at rational x; after clearing (1+x) powers
    the degree is at most n, so the n_max+2 sample points certify every
    n <= n_max.
    """
    needed = n_max + 2
    if plan is None:
        plan = default_plan("runs-from-peaks", needed)
    ident = "closed/runs-from-peaks"
    _require(plan, lambda x: x == -1, "W_n(2x/(1+x))", ident, needed)
    params = {"n_max": n_max, "points": len(plan)}
    W = triangles.poly_W(n_max)
    R = triangles.poly_R(n_max)
    T = triangles.poly_T(n_max)
    for n in range(1, n_max + 1):
        Wn, Rn, Tn = W[n], R[n], T[n]
        for x in plan.points:
            wn = Wn(2 * x / (1 + x))
            rhs = x * (1 + x) ** (n - 1) / 2 ** (n - 1) * wn
            if rhs != Tn(x):
                return _failed(ident, params, n, f"T-form x={x}", Tn(x), rhs)
            if n >= 2:
                rhs = x * (1 + x) ** (n - 2) / 2 ** (n - 2) * wn
                if rhs != Rn(x):
                    return _failed(ident, params, n, f"R-form x={x}", Rn(x), rhs)
    return _passed(ident, params)


def check_tangent_forms(n_max: int = 12, plan: "SamplePlan | None" = None) -> CheckReport:
    """Both closed forms through the tangent derivative polynomials:
    W_n(x) = (1/x) (x-1)^((n+1)/2) P_n(1/sqrt(x-1)),
    R_n(x) = ((x+1)/2)^(n-1) ((x-1)/(x+1))^((n+1)/2) P_n(sqrt((x+1)/(x-1))),
    both for n >= 2.

    Half-integer powers are evaluated in Q(sigma), sigma^2 = x-1 (resp.
    Q(tau), tau^2 = (x+1)/(x-1)); the parity of P_n makes each right-hand
    side land in Q, and the sqrt component is asserted zero before the
    rational parts are compared.  After clearing denominators the degree
    is at most 2n+2, so 2*n_max+3 points certify every n <= n_max.
    """
    needed = 2 * n_max + 3
    if plan is None:
        plan = default_plan("tangent", needed)
    ident = "closed/tangent"
    _require(plan, lambda x: x in (0, 1, -1), "the tangent closed forms", ident, needed)
    params = {"n_max": n_max, "points": len(plan)}
    W = triangles.poly_W(n_max)
    R = triangles.poly_R(n_max)
    P = triangles.poly_P(n_max)
    for n in range(2, n_max + 1):
        Wn, Rn, Pn = W[n], R[n], P[n]
        for x in plan.points:
            sigma = QuadExt.root(x - 1)
            val = sigma ** (n + 1) * Pn(sigma.inverse()) / x
            if val.b != 0:
                return _failed(ident, params, n,
                               f"W-form x={x}: sqrt component", val, 0)
            if val.a != Wn(x):
                return _failed(ident, params, n, f"W-form x={x}", Wn(x), val.a)
            tau = QuadExt.root((x + 1) / (x - 1))
            val = ((x + 1) / 2) ** (n - 1) * tau ** (-(n + 1)) * Pn(tau)
            if val.b != 0:
                return _failed(ident, params, n,
                               f"R-form x={x}: sqrt component", val, 0)
            if val.a != Rn(x):
                return _failed(ident, params, n, f"R-form x={x}", Rn(x), val.a)
    return _passed(ident, params)


def check_david_barton(n_max: int = 12, plan: "SamplePlan | None" = None) -> CheckReport:
    """The run polynomials from the descent polynomials:
    R_n(x) = ((1+x)/2)^(n-1) (1+w)^(n+1) A_n((1-w)/(1+w))  for n >= 2,
    with w = sqrt((1-x)/(1+x)), realized as rho/(1+x) in Q(rho),
    rho^2 = 1-x^2.  Points stay in (-1,1) \\ {0}; the sqrt component of
    every evaluation must vanish exactly.
    """
    needed = 2 * n_max + 3
    if plan is None:
        plan = default_plan("david-barton", needed)
    ident = "closed/david-barton"
    _require(plan, lambda x: x == 0 or abs(x) >= 1, "the descent closed form", ident, needed)
    params = {"n_max": n_max, "points": len(plan)}
    A = triangles.poly_A(n_max)
    R = triangles.poly_R(n_max)
    for n in range(2, n_max + 1):
        An, Rn = A[n], R[n]
        for x in plan.points:
            w = QuadExt.root(1 - x * x) / (1 + x)
            u = (1 - w) / (1 + w)
            val = ((1 + x) / 2) ** (n - 1) * (1 + w) ** (n + 1) * An(u)
            if val.b != 0:
                return _failed(ident, params, n, f"x={x}: sqrt component", val, 0)
            if val.a != Rn(x):
                return _failed(ident, params, n, f"x={x}", Rn(x), val.a)
    return _passed(ident, params)


# ----------------------------------------------------------------------
# Exponential generating functions, coefficient by coefficient.


def _egf_coeffs(rows: "Callable[[int], list[int]]", x0: Fraction, order: int) -> "list[Fraction]":
    """Coefficient of z^n: (1/n!) sum_k row(n)[k] x0^(n-k)."""
    out = []
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n
        row = rows(n)
        total = sum(row[k] * x0 ** (n - k) for k in range(len(row)))
        out.append(Fraction(total, fact))
    return out


def _series_point(x0: Rational, order: int) -> Fraction:
    """``x0`` as a ``Fraction``, refused unless it lies in (-1, 1) and the
    series order is at least 1."""
    x0 = Fraction(x0)
    if not -1 < x0 < 1:
        raise ValueError(f"base point {x0} must lie in (-1, 1)")
    if order < 1:
        raise ValueError("order must be >= 1")
    return x0


def _check_series(ident: str, params: dict, rhs: PowerSeries,
                  expected: "list[Fraction]") -> CheckReport:
    for n, want in enumerate(expected):
        got = rhs.coefficient(n)
        if got.b != 0:
            return _failed(ident, params, n, f"z^{n}: sqrt component", got, 0)
        if got.a != want:
            return _failed(ident, params, n, f"z^{n}", want, got.a)
    return _passed(ident, params)


def check_carlitz(x0: Rational = Fraction(1, 2), order: int = DEFAULT_ORDER) -> CheckReport:
    """Closed EGF for the run triangle read along antidiagonals:
    sum_n z^n/n! sum_k R(n+1,k) x0^(n-k)
      = (1-x0)/(1+x0) * ((rho + sin(z rho)) / (x0 - cos(z rho)))^2,
    rho = sqrt(1-x0^2), compared through z^order."""
    x0 = _series_point(x0, order)
    params = {"x0": str(x0), "order": order}
    ident = f"gf/carlitz[x0={x0}]"
    rho = QuadExt.root(1 - x0 * x0)
    q = (rho + sin_series(rho, order)) / (x0 - cos_series(rho, order))
    rhs = (1 - x0) / (1 + x0) * (q * q)
    tri = triangles.triangle_R(order + 1)
    expected = _egf_coeffs(lambda n: tri.row(n + 1), x0, order)
    return _check_series(ident, params, rhs, expected)


def check_stanley_gf(t0: Rational = Fraction(1, 2), order: int = DEFAULT_ORDER) -> CheckReport:
    """Closed EGF for the altsubseq polynomials:
    sum_n T_n(t0) x^n/n!
      = (1-t0) (1 + rho + 2 t0 e^(rho x) + (1-rho) e^(2 rho x))
              / (1 + rho - t0^2 + (1 - rho - t0^2) e^(2 rho x)),
    rho = sqrt(1-t0^2), compared through x^order."""
    t0 = _series_point(t0, order)
    params = {"t0": str(t0), "order": order}
    ident = f"gf/stanley[t0={t0}]"
    rho = QuadExt.root(1 - t0 * t0)
    e1 = exp_series(rho, order)
    e2 = exp_series(rho * 2, order)
    num = (1 + rho) + e1 * (2 * t0) + e2 * (1 - rho)
    den = ((1 - t0 * t0) + rho) + e2 * ((1 - t0 * t0) - rho)
    rhs = num / den * (1 - t0)
    T = triangles.poly_T(order)
    expected = []
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n
        expected.append(T[n](t0) / fact)
    return _check_series(ident, params, rhs, expected)


def check_altsubseq_gf(x0: Rational = Fraction(1, 2), order: int = DEFAULT_ORDER) -> CheckReport:
    """Closed EGF for the altsubseq triangle read along antidiagonals:
    sum_n z^n/n! sum_k a_k(n) x0^(n-k)
      = -sqrt((1-x0)/(1+x0)) (rho + sin(z rho)) / (x0 - cos(z rho)),
    with the positive branch sqrt((1-x0)/(1+x0)) = rho/(1+x0)."""
    x0 = _series_point(x0, order)
    params = {"x0": str(x0), "order": order}
    ident = f"gf/altsubseq[x0={x0}]"
    rho = QuadExt.root(1 - x0 * x0)
    q = (rho + sin_series(rho, order)) / (x0 - cos_series(rho, order))
    rhs = q * (-(rho / (1 + x0)))
    tri = triangles.triangle_A(order)
    expected = _egf_coeffs(tri.row, x0, order)
    return _check_series(ident, params, rhs, expected)


# ----------------------------------------------------------------------
# Oracle equivalence.


def check_oracle(n_max: int = 8, *,
                 descent_tables: "_DescentTables | None" = None) -> CheckReport:
    """All five triangles match brute-force histograms over S_n, n <= n_max,
    read from ``descent_tables`` (a fresh one by default)."""
    params = {"n_max": n_max}
    tables = _DescentTables() if descent_tables is None else descent_tables
    ident = "oracle/triangles"
    sources = [
        (permcore.Stat.RUNS, triangles.triangle_R(n_max)),
        (permcore.Stat.LONGEST_ALT_SUBSEQ, triangles.triangle_A(n_max)),
        (permcore.Stat.INTERIOR_PEAKS, triangles.triangle_W(n_max)),
        (permcore.Stat.LEFT_PEAKS, triangles.triangle_Wtilde(n_max)),
        (permcore.Stat.DESCENTS, triangles.triangle_euler(n_max)),
    ]
    for n in range(1, n_max + 1):
        classes = tables[n]
        for stat, tri in sources:
            dist = permcore.distribution(stat, n, classes)
            expected = _row_counts(tri.row(n))
            if expected != dist.counts:
                return _failed(ident, params, n, f"{stat.value} over S_{n}",
                               _hist_str(dist.counts), _hist_str(expected))
    return _passed(ident, params)


# ----------------------------------------------------------------------
# Suites.

SUITES = ("all", "grammar", "convolutions", "closed-forms", "gf", "oracle")


def run_suite(
    suite: str = "all",
    *,
    n_max: "int | None" = None,
    oracle_n_max: "int | None" = None,
    order: "int | None" = None,
    points: "int | None" = None,
    carlitz_x0s: "Sequence[Rational] | None" = None,
    stanley_t0s: "Sequence[Rational] | None" = None,
    final_x0s: "Sequence[Rational] | None" = None,
) -> "list[CheckReport]":
    """Run one suite and return its reports sorted by identity id."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (known: {', '.join(SUITES)})")
    order = DEFAULT_ORDER if order is None else order
    if oracle_n_max is not None:
        oracle_cap = oracle_n_max
    elif suite == "oracle" and n_max is not None:
        oracle_cap = n_max
    else:
        # in `all` and `grammar` the oracle share stays at S_8; params show it
        oracle_cap = min(n_max or 8, 8)
    if oracle_cap > permcore.MAX_ENUM_N:
        raise ValueError(f"oracle bound {oracle_cap} exceeds the brute-force "
                         f"limit S_{permcore.MAX_ENUM_N}")

    def bound(default: int) -> int:
        return n_max if n_max is not None else default

    # every option is validated before any check runs, read by the suite or not
    if points is not None and points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    gf_checks = [
        (check, [_series_point(x, order) for x in (stock if given is None else given)])
        for check, given, stock in (
            (check_carlitz, carlitz_x0s, DEFAULT_CARLITZ_X0S),
            (check_stanley_gf, stanley_t0s, DEFAULT_STANLEY_T0S),
            (check_altsubseq_gf, final_x0s, DEFAULT_FINAL_X0S),
        )
    ]
    plans: "dict[str, SamplePlan]" = {}
    if points is not None and suite in ("all", "closed-forms"):
        plans = {kind: default_plan(kind, points)
                 for kind in ("runs-from-peaks", "tangent", "david-barton")}
    # the oracle's three readers share one walk of each S_n
    tables = _DescentTables()

    reports: "list[CheckReport]" = []
    if suite in ("all", "grammar"):
        reports += [
            check_grammar_runs(bound(12)),
            check_grammar_alt(bound(12)),
            check_dumont(bound(12), oracle_cap, descent_tables=tables),
            check_peaks_grammar(bound(12), oracle_cap, descent_tables=tables),
            check_leibniz(bound(10)),
        ]
    if suite in ("all", "convolutions"):
        reports += [
            check_convolutions(bound(20)),
            check_recurrence_consistency(bound(20)),
        ]
    if suite in ("all", "closed-forms"):
        reports += [
            check_alt_from_runs(bound(25)),
            check_runs_from_peaks(bound(20), plans.get("runs-from-peaks")),
            check_tangent_forms(bound(12), plans.get("tangent")),
            check_david_barton(bound(12), plans.get("david-barton")),
        ]
    if suite in ("all", "gf"):
        for check, x0s in gf_checks:
            reports += [check(x0, order) for x0 in x0s]
    if suite in ("all", "oracle"):
        reports.append(check_oracle(oracle_cap, descent_tables=tables))
    return sorted(reports, key=lambda r: r.identity)
