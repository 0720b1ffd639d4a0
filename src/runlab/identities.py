"""Executable identity checks with structured pass/fail reports.

Each ``check_*`` function verifies one exact relation between the
grammar expansions, the recurrence-generated triangles/polynomials, the
brute-force oracle, and the closed forms/generating functions -- all in
exact arithmetic, so a check either passes identically or returns the
first counterexample rendered exactly.

Three kinds of verification appear:

* structural equality of polynomials / multivariate expansions,
* pointwise evaluation of the closed forms at enough rational points
  to certify the underlying polynomial identity (the degree bound is
  noted per check).  Each n is evaluated only at the first points of
  the plan that its own degree bound needs, read from its rows, and a
  plan that holds fewer is refused at that n: this bound is the only
  certificate, the stock plan's size only what reports print.
  The radical in the tangent and David-Barton forms
  cancels by a symmetry of P_n or A_n, checked once per n as its own
  named integer condition; at a point p/q each side is then an integer
  ratio, found by homogeneous Horner and compared by
  cross-multiplication.  Only a failed case builds the ``Fraction`` it
  prints,
* coefficient-by-coefficient comparison of truncated series against
  triangle-derived exponential generating function coefficients.  The
  series carry sqrt(1-x0^2); each coefficient's sqrt component must
  vanish, checked as its own case before its rational part is compared.

A check states its comparisons as a lazy stream of cases
``(n, point, lhs, rhs)`` and hands it to :func:`_verdict`, the one place
where a comparison becomes a report.  Two comparisons report on their
own: grammar/leibniz, whose verdict comes from ``grammar.leibniz_check``,
and grammar/peaks' derivative-0 seed check, whose right side prints as
``Wt[0]``.

Reports are deterministic: the same inputs produce byte-identical
serialized output.  One table, ``_CHECKS``, says which checks each suite
runs; :func:`run_suite` may run grammar/leibniz in a forked child beside
the others.  The closed forms but alt-from-runs, the convolutions and the
recurrences compare each n on its own, so :func:`_split` may draw every
other n in a forked child.  Only one child lives at a time, and either
way a check returns the report or raises the exception of the serial
run.  Every public check refuses a bad range or order in one place,
:func:`_params`, before it builds anything.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
from itertools import islice
from math import comb, isqrt
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import grammar, permcore, triangles
from .exactnum import (
    Fraction,
    PowerSeries,
    QuadExt,
    RatPoly,
    Rational,
    _Frozen,
    _is_rational,
    cos_series,
    exp_series,
    horner,
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


class CheckFailure(NamedTuple):
    """First counterexample of a failed check, rendered exactly."""

    n: int
    point: str
    lhs: str
    rhs: str


class CheckReport(NamedTuple):
    identity: str
    params: "dict[str, object]"
    passed: bool
    first_failure: "CheckFailure | None" = None

    def to_json_obj(self) -> dict:
        """The report as a dict in field order, in containers of its own."""
        f = self.first_failure
        return {"identity": self.identity, "params": dict(self.params), "passed": self.passed,
                "first_failure": None if f is None else f._asdict()}


def _passed(identity: str, params: dict) -> CheckReport:
    return CheckReport(identity, params, True, None)


def _failed(identity: str, params: dict, n: int, point: str, lhs, rhs) -> CheckReport:
    return CheckReport(identity, params, False, CheckFailure(n, point, str(lhs), str(rhs)))


def _verdict(identity: str, params: dict, cases: "Iterable[tuple]") -> CheckReport:
    """The report on ``cases``, each ``(n, point, lhs, rhs)``, drawn lazily
    up to the first whose sides differ, which fails the check.

    A side is a value compared by ``!=``, or an integer ratio ``(num,
    den)``, ``den != 0``, compared with the other ratio by
    cross-multiplication and printed as the ``Fraction`` it denotes.  A
    check that draws no case has compared nothing, so it raises
    ``ValueError`` instead of passing.
    """
    drawn = 0
    for drawn, (n, point, lhs, rhs) in enumerate(cases, 1):
        if type(lhs) is tuple:
            if lhs[0] * rhs[1] != rhs[0] * lhs[1]:
                return _failed(identity, params, n, point, Fraction(*lhs), Fraction(*rhs))
        elif lhs != rhs:
            return _failed(identity, params, n, point, lhs, rhs)
    if not drawn:
        raise _no_case(identity, params)
    return _passed(identity, params)


def _no_case(identity: str, params: "Mapping[str, object]") -> ValueError:
    """The refusal of a check that compares nothing.  A check whose range
    of n is empty raises it through :func:`_params`, before it builds a
    family that range would need none of."""
    return ValueError(f"{identity} ({_params_text(params)}) has no case to compare")


def _params_text(params: "Mapping[str, object]") -> str:
    """``params`` as a report line shows them: ``k=v, ...`` in their order."""
    return ", ".join(f"{k}={v}" for k, v in params.items())


def _int(value: object, what: str) -> int:
    """``value``, refused with ``TypeError`` unless it is an ``int`` (not
    a ``bool``)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def _params(identity: str, first: "int | None", **params: object) -> "dict[str, object]":
    """The report params of check ``identity``, refused before it builds
    anything: first a non-int ``n_max``, ``oracle_n_max`` or ``order`` by
    :func:`_int`, in params order; then an ``n_max`` below ``first``, the
    check's first n, if it has one, by :func:`_no_case`; then an
    ``oracle_n_max`` outside 0..min(n_max, permcore.MAX_ENUM_N), which
    the step before has made nonempty."""
    for name, value in params.items():
        if name in ("n_max", "oracle_n_max", "order"):
            _int(value, name)
    if first is not None and params["n_max"] < first:
        raise _no_case(identity, params)
    if "oracle_n_max" in params:
        top = min(params["n_max"], permcore.MAX_ENUM_N)
        if not 0 <= params["oracle_n_max"] <= top:
            raise ValueError(f"oracle_n_max must be between 0 and {top}, "
                             f"got {params['oracle_n_max']}")
    return params


# ----------------------------------------------------------------------
# Sample plans for the pointwise closed forms.


class SamplePlan(_Frozen):
    """Rational sample points, already filtered for the target identity."""

    __slots__ = ("points",)

    def __init__(self, points: "tuple[Fraction, ...]"):
        object.__setattr__(self, "points", points)

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


#: Per pointwise check: the size of its stock plan at n_max, which
#: reports print and the benchmark draws, the points where it is singular
#: and what for, and its stock plan: the pool moved by a shift, then
#: filtered.  The certificate is each n's own degree bound (see
#: :func:`_certify`), which needs n+1 points of runs-from-peaks and n of
#: the radical forms on stock rows; the stock size only covers them.
_POINTWISE = {
    "runs-from-peaks": (lambda n: n + 2, lambda x: x == -1, "W_n(2x/(1+x))",
                        0, lambda x: x != -1),
    # x in (1, 2): x-1 positive; skip squares of both discriminants
    "tangent": (lambda n: 2 * n + 3, lambda x: x in (0, 1, -1), "the tangent closed forms",
                1, lambda x: x > 1 and not _is_square(x - 1)
                and not _is_square((x + 1) / (x - 1))),
    "david-barton": (lambda n: 2 * n + 3, lambda x: x == 0 or abs(x) >= 1,
                     "the descent closed form", 0, lambda x: not _is_square(1 - x * x)),
}


def default_plan(identity: str, count: int) -> SamplePlan:
    """The stock sample plan of ``count`` points for one of the pointwise
    checks; ``count`` is an ``int`` (not a ``bool``) of at least 1.

    ``identity`` is one of ``runs-from-peaks``, ``tangent``,
    ``david-barton``.  Points avoid each identity's singular values; the
    two radical forms' pools still skip square discriminants.  A check
    sizes its stock plan by ``_POINTWISE`` and draws at each n only the
    first points its rows' degree bound needs, n or n+1 on stock rows,
    refusing a plan that holds fewer.
    """
    if _int(count, "count") < 1:
        raise ValueError(f"points must be >= 1, got {count}")
    if identity not in _POINTWISE:
        raise ValueError(f"no default plan for identity {identity!r}")
    *_, shift, keep = _POINTWISE[identity]
    return SamplePlan(tuple(islice(filter(keep, (shift + x for x in _pool())), count)))


def _rational(value: object, what: str) -> Rational:
    """``value``, refused with ``TypeError`` unless it is an ``int`` (not
    a ``bool``) or a ``Fraction``."""
    if not _is_rational(value):
        raise TypeError(f"{what} {value!r} is a {type(value).__name__}, "
                        "not an int or Fraction")
    return value


def _pointwise(kind: str, n_max: int, plan: "SamplePlan | None", first: int,
               forms: "tuple[str, ...]") -> "tuple[str, dict, list[tuple]]":
    """``closed/<kind>``, its report params for n = first..n_max, and each
    distinct point x of ``plan``, or of the stock plan when it is None, in
    plan order, as ``f"{form}x={x}"`` for each of ``forms``, then p, q of
    x = p/q.  Refused before any family is built: first a non-int
    ``n_max``, then a point that is not an ``int`` or ``Fraction`` or is
    singular for ``closed/<kind>``, then an ``n_max`` below ``first``."""
    count, singular, what, _, _ = _POINTWISE[kind]
    _int(n_max, "n_max")
    if plan is None:
        # at least one point, so an empty range is refused as such
        plan = default_plan(kind, max(1, count(n_max)))
    for x in plan.points:
        if singular(_rational(x, "sample point")):
            raise ValueError(f"sample point {x} is singular for {what}")
    identity = f"closed/{kind}"
    return identity, _params(identity, first, n_max=n_max, points=len(plan)), [
        (*(f"{form}x={x}" for form in forms), x.numerator, x.denominator)
        for x in dict.fromkeys(plan.points)]


def _certify(identity: str, n: int, points: "list[tuple]", top: int) -> Iterator[tuple]:
    """The first ``top`` + 1 of the distinct ``points``, at which n draws
    its cases when their difference has degree at most ``top``.  Once
    those cases have passed, a plan of fewer points is refused: its cases
    at n prove nothing."""
    yield from points[:top + 1]
    if len(points) <= top:
        raise ValueError(f"{len(points)} distinct sample points cannot certify {identity} "
                         f"at n={n}: its rows' degree bound needs {top + 1}")


# ----------------------------------------------------------------------
# Grammar expansions vs. triangles and oracle.


class _Hist(dict):
    """A histogram ``{k: count}``, printed as ``{k:count, ...}`` in k order
    only when a failed report needs it."""

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}:{v}" for k, v in sorted(self.items())) + "}"


def _term_str(exps: "Mapping[str, int]", c: int) -> str:
    """``c`` times the power product ``exps``, as ``MPoly`` prints a term,
    negative exponents included."""
    mono = "*".join(l if e == 1 else f"{l}^{e}" for l, e in sorted(exps.items()) if e)
    return mono if c == 1 else f"{c}*{mono}"


def _expand(g: "grammar.Grammar | None", n_max: int, streams: "Sequence[tuple]",
            oracle: "Sequence[tuple]" = (), oracle_n_max: int = 0) -> Iterator[tuple]:
    """The cases of the four grammar checks and of the oracle check.

    Each stream ``(seed, point, row, exponents)`` reads its derivatives
    under ``g`` from one :func:`grammar.d_tower` to n_max, the streams
    taking turns at each n in the order given, and derivative n must
    equal sum_k row(n)[k] * x^exponents(n, k) over the nonzero entries of
    the row (k = 0 included), compared at ``point``; that sum is packed
    from its exponent vectors over the letters ``exponents`` names.  An
    entry whose monomial would need a negative exponent is printed with
    it on the right, so that case fails.  For n <= oracle_n_max each
    oracle row ``(stat, row, name)`` must then match the brute-force
    histogram of ``stat`` over S_n, all rows read from one class table of
    S_n; the histogram is the left side and the row the right, as the
    triangle is the right side of every stream.
    """
    towers = [grammar.d_tower(g, seed, n_max) for seed, _, _, _ in streams]
    for n in range(1, n_max + 1):
        for tower, (_, point, row, exponents) in zip(towers, streams):
            p = next(tower)
            terms = [(exponents(n, k), c) for k, c in enumerate(row(n)) if c]
            # an entry past the degree of derivative n has a negative exponent
            stray = [(e, c) for e, c in terms if min(e.values()) < 0]
            letters = tuple(sorted(exponents(n, 0)))
            expected = grammar._mpoly(letters, *grammar._pack(
                [([e[l] for l in letters], c) for e, c in terms if min(e.values()) >= 0]))
            if stray:
                # str(p) never spells a negative exponent, so this case fails
                yield n, point, str(p), " + ".join(
                    [str(expected), *(_term_str(e, c) for e, c in stray)])
            else:
                yield n, point, p, expected
        if n <= oracle_n_max:
            classes = permcore.descent_classes(n)
            for stat, row, name in oracle:
                dist = permcore.distribution(stat, n, classes)
                yield (n, f"{name} over S_{n}", _Hist(dist.counts),
                       _Hist((k, c) for k, c in enumerate(row(n)) if c))


def check_grammar_runs(n_max: int = 12) -> CheckReport:
    """Iterated derivatives of x^2 under the main grammar carry the run
    triangle: the n-th derivative equals x^2 sum_k R(n+1,k) y^k z^(n-k)."""
    params = _params("grammar/runs", 1, n_max=n_max)
    tri = triangles.triangle_R(n_max + 1)
    return _verdict("grammar/runs", params, _expand(
        grammar.builtin("main"), n_max,
        [(grammar.MPoly.monomial({"x": 2}), "derivative of x^2",
          lambda n: tri.row(n + 1), lambda n, k: {"x": 2, "y": k, "z": n - k})],
    ))


def check_grammar_alt(n_max: int = 12) -> CheckReport:
    """Iterated derivatives of x under the main grammar carry the
    altsubseq triangle: the n-th derivative is x sum_k a_k(n) y^k z^(n-k)."""
    params = _params("grammar/altsubseq", 1, n_max=n_max)
    tri = triangles.triangle_A(n_max)
    return _verdict("grammar/altsubseq", params, _expand(
        grammar.builtin("main"), n_max,
        [(grammar.MPoly.letter("x"), "derivative of x",
          tri.row, lambda n, k: {"x": 1, "y": k, "z": n - k})],
    ))


def check_dumont(n_max: int = 12, oracle_n_max: int = 8) -> CheckReport:
    """The two-letter grammar {x -> xy, y -> xy} expands descent counts:
    the n-th derivative of x is sum_k E(n,k) x^(k+1) y^(n-k).

    Coefficients are compared against the euler triangle for n <= n_max
    and against the brute-force descent histogram for n <= oracle_n_max.
    ``triangles.triangle_euler`` steps the eulerian recurrence
    E(n,k) = (k+1)E(n-1,k) + (n-k)E(n-1,k-1) and never reads a grammar,
    so each half is an independent comparison.
    """
    params = _params("grammar/eulerian", 1, n_max=n_max, oracle_n_max=oracle_n_max)
    tri = triangles.triangle_euler(n_max)
    return _verdict("grammar/eulerian", params, _expand(
        grammar.builtin("dumont"), n_max,
        [(grammar.MPoly.letter("x"), "derivative of x",
          tri.row, lambda n, k: {"x": k + 1, "y": n - k})],
        oracle=[(permcore.Stat.DESCENTS, tri.row, "descent histogram")],
        oracle_n_max=oracle_n_max,
    ))


def check_peaks_grammar(n_max: int = 12, oracle_n_max: int = 8) -> CheckReport:
    """The grammar {y -> yz, z -> y^2} expands both peak triangles:
    derivatives of y carry left-peak counts on monomials y^(2k+1) z^(n-2k),
    derivatives of z carry interior-peak counts on y^(2k+2) z^(n-2k-1).
    Both are also compared against the brute-force histograms for
    n <= oracle_n_max, read from one class table of each S_n."""
    ident = "grammar/peaks"
    params = _params(ident, 1, n_max=n_max, oracle_n_max=oracle_n_max)
    W = triangles.poly_W(n_max)
    Wt = triangles.poly_Wtilde(n_max)
    py = grammar.MPoly.letter("y")
    if py != grammar.MPoly.monomial({"y": 1}, Wt.entry(0, 0)):
        return _failed(ident, params, 0, "derivative 0 of y", py, Wt[0])
    return _verdict(ident, params, _expand(
        grammar.builtin("peaks"), n_max,
        [(py, "derivative of y",
          Wt.row, lambda n, k: {"y": 2 * k + 1, "z": n - 2 * k}),
         (grammar.MPoly.letter("z"), "derivative of z",
          W.row, lambda n, k: {"y": 2 * k + 2, "z": n - 2 * k - 1})],
        oracle=[(permcore.Stat.INTERIOR_PEAKS, W.row, "interior-peak histogram"),
                (permcore.Stat.LEFT_PEAKS, Wt.row, "left-peak histogram")],
        oracle_n_max=oracle_n_max,
    ))


def _random_mpoly(rng: random.Random, letters: "tuple[str, ...]") -> grammar.MPoly:
    """One to three terms over the sorted ``letters``, each exponent in
    0..2 and each coefficient in 1..3, drawn term by term."""
    terms = [([rng.randint(0, 2) for _ in letters], rng.randint(1, 3))
             for _ in range(rng.randint(1, 3))]
    return grammar._mpoly(letters, *grammar._pack(terms))


def check_leibniz(n_max: int = 10) -> CheckReport:
    """Iterated product rule: D^n(u*v) = sum_k C(n,k) D^k(u) D^(n-k)(v)
    over the four stock grammars, on a fixed sample: 100 random u, v and
    0 <= n <= n_max from one seed, both printed in the params, so a
    failure's case index names the same case in every run."""
    params = _params("grammar/leibniz", 0, n_max=n_max, cases=100, seed=20240801)
    rng = random.Random(params["seed"])
    names = sorted(grammar.BUILTIN_GRAMMARS)
    for case in range(params["cases"]):
        name = rng.choice(names)
        g = grammar.builtin(name)
        letters = tuple(sorted(g.alphabet))
        u = _random_mpoly(rng, letters)
        v = _random_mpoly(rng, letters)
        n = rng.randint(0, n_max)
        if not grammar.leibniz_check(g, u, v, n):
            lhs, rhs = grammar._leibniz_sides(g, u, v, n)
            return _failed(
                "grammar/leibniz", params, n,
                f"case {case}: grammar={name}, u={u}, v={v}", lhs, rhs,
            )
    return _passed("grammar/leibniz", params)


# ----------------------------------------------------------------------
# Polynomial identities (exact polynomial arithmetic).


def _kron(row: "Sequence[int]", bits: int) -> int:
    """The polynomial with coefficients ``row`` evaluated at 2**bits.

    When ``bits`` is a whole number of bytes and every coefficient fits
    its field unsigned, the fields are written as little-endian byte
    chunks and read back as one int, in linear time; otherwise, e.g. for
    a negative coefficient, by shift-add Horner.
    """
    if not bits % 8:
        size = bits // 8
        try:
            return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in row]),
                                  "little")
        except OverflowError:
            pass
    value = 0
    for c in reversed(row):
        value = (value << bits) + c
    return value


def _unkron(value: int, bits: int) -> RatPoly:
    """The polynomial whose balanced base-2**bits digits, each in
    [-2**(bits-1), 2**(bits-1)), spell ``value``: the inverse of
    :func:`_kron` on coefficients in that range."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        coeffs.append(digit)
        value = (value - digit) >> bits
    return RatPoly(coeffs)


#: The five convolution formulas, in the order they are checked.
_CONVOLUTIONS = (
    "R_(n+1) = sum C(n,k) T_k T_(n-k)",
    "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
    "R_(n+2) = 2x Wt_n(x^2) + 2x sum C(n,k) R_(k+1) Wt_(n-k)(x^2)",
    "T_(n+1) = x sum C(n,k) T_k Wt_(n-k)(x^2)",
    "T_(n+1) = T_n + x^2 sum C(n,k) T_k W_(n-k)(x^2)",
)

#: Kronecker field widths are rounded up to a multiple of this many bits.
_WIDTH_STEP = 32


def _convolution_sides(ns: "Sequence[int]", T, R, W, Wt) -> Iterator[tuple]:
    """Yield the five convolution formulas at each n of ``ns``, ascending
    from 1 or more, as ``(n, bits, sides)``: each side is ``(formula,
    lhs(2**bits), rhs(2**bits))``, with ``lhs`` the polynomial on the
    left and ``rhs`` the right-hand sum.

    ``bits`` is 2 more than the bit length of a bound on the absolute
    value of every coefficient of either side of every formula at n,
    rounded up to a multiple of ``_WIDTH_STEP``, and never below the
    width of n - 1, so each width holds for a run of consecutive n; it is
    found for every n up to the last of ``ns``, so any ``ns`` gives each
    of its n the same width as ``range(1, n_max + 1)`` does.  The
    bound is the 1-norm of each left side, and each right side summed
    over the 1-norms of its rows.  That bounds it because a coefficient
    of F*G is at most |F|_1 |G|_1, and x -> x^2 and the prefactors x and
    x^2 keep 1-norms.

    The rows and their 1-norms are read once, and each row is packed at
    most once per width, the packed values kept while the width holds.
    """
    n_max, wanted = ns[-1], set(ns)
    # rows 0..n_max+1 of T, 1..n_max+2 of R, 1..n_max of W and 0..n_max of Wt
    rows = ([T.row(k) for k in range(n_max + 2)], [[]] + [R.row(k) for k in range(1, n_max + 3)],
            [[]] + [W.row(k) for k in range(1, n_max + 1)], [Wt.row(k) for k in range(n_max + 1)])
    norms = [[sum(map(abs, row)) for row in family] for family in rows]
    width, values = 0, ()
    for n in range(1, n_max + 1):
        c = [comb(n, k) for k in range(n + 1)]

        def right_sides(t, r, w, wt, times_x):
            # t, r, w, wt: one value per row; times_x(v, j) is x^j * v.
            # The first sum is symmetric in k and n-k.
            m = n // 2
            first = 2 * sum(c[k] * t[k] * t[n - k] for k in range((n + 1) // 2))
            return (
                first if n % 2 else first + c[m] * t[m] * t[m],
                2 * sum(c[k] * t[k] * t[n - k + 1] for k in range(n + 1)),
                2 * times_x(wt[n] + sum(c[k] * r[k + 1] * wt[n - k] for k in range(1, n + 1)), 1),
                times_x(sum(c[k] * t[k] * wt[n - k] for k in range(n + 1)), 1),
                t[n] + times_x(sum(c[k] * t[k] * w[n - k] for k in range(n)), 2),
            )

        t, r, w, wt = norms
        bound = max(r[n + 1], r[n + 2], t[n + 1], *right_sides(t, r, w, wt, lambda v, j: v))
        b = max(width, -(-(bound.bit_length() + 2) // _WIDTH_STEP) * _WIDTH_STEP)
        if b != width:
            width, values = b, ([], [], [], [])
        if n not in wanted:
            continue
        # W and Wt enter as W(x^2), so they are evaluated at X^2
        for vals, family, bits, stop in zip(values, rows, (b, b, 2 * b, 2 * b),
                                            (n + 2, n + 3, n + 1, n + 1)):
            vals.extend(_kron(row, bits) for row in family[len(vals):stop])
        t, r, w, wt = values
        lefts = (r[n + 1], r[n + 2], r[n + 2], t[n + 1], t[n + 1])
        rights = right_sides(t, r, w, wt, lambda v, j: v << j * b)
        yield n, b, tuple(zip(_CONVOLUTIONS, lefts, rights))


def check_convolutions(n_max: int = 20) -> CheckReport:
    """Five binomial convolution formulas tying together the run,
    altsubseq and peak polynomial families, e.g.
    R_(n+1) = sum_k C(n,k) T_k T_(n-k); peak factors enter at x^2.

    Each formula is checked at n by evaluating both sides at X = 2**b
    (Kronecker substitution): a row is packed into one int, a row
    W(x^2) or Wt(x^2) is evaluated at X^2, prefactors x and x^2 are
    shifts, and each product is one integer product.  The width rule:
    ``b`` is chosen per n from a bound B on every coefficient of both
    sides (see :func:`_convolution_sides`), as the bit length of B plus
    2 rounded up to a multiple of 32, or the width of n - 1 if that is
    wider.  So 2B < 2**(b-1), and consecutive n share a width, at which
    each row is packed once.  Equal values then mean equal polynomials:
    if the two sides differed, their difference D would be nonzero with
    every coefficient below X in absolute value, and D(X) = 0 would force
    X to divide its lowest nonzero coefficient.  Where the two values
    differ, both are decoded into their balanced base-X digits, which are
    exactly the coefficients of the left-hand row and of the term-by-term
    sum, since each lies in (-X/2, X/2).
    """
    params = _params("poly/convolutions", 1, n_max=n_max)
    T = triangles.poly_T(n_max + 1)
    R = triangles.poly_R(n_max + 2)
    W = triangles.poly_W(n_max)
    Wt = triangles.poly_Wtilde(n_max)

    def cases(ns):
        for n, b, sides in _convolution_sides(ns, T, R, W, Wt):
            for formula, lhs, rhs in sides:
                if lhs != rhs:
                    lhs, rhs = _unkron(lhs, b), _unkron(rhs, b)
                yield n, formula, lhs, rhs

    return _split("poly/convolutions", params, cases, range(1, n_max + 1))


def check_recurrence_consistency(n_max: int = 20) -> CheckReport:
    """Triangle-generated polynomials satisfy the differential
    recurrences exactly: the rows of the run triangle obey
    R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)', and the altsubseq rows
    obey T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'."""
    params = _params("poly/recurrences", 0, n_max=n_max)
    r = triangles.triangle_R(n_max + 2)
    t = triangles.triangle_A(n_max + 1)
    x_1_minus_x2 = RatPoly((0, 1, 0, -1))

    def cases(ns):
        for n in ns:
            yield (n, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'", r[n + 2],
                   RatPoly((0, 2, n)) * r[n + 1] + x_1_minus_x2 * r[n + 1].derivative())
            yield (n, "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'", t[n + 1],
                   RatPoly((0, 1, n)) * t[n] + x_1_minus_x2 * t[n].derivative())

    return _split("poly/recurrences", params, cases, range(0, n_max + 1))


def check_alt_from_runs(n_max: int = 25) -> CheckReport:
    """T_n(x) = (1+x)/2 * R_n(x) for n >= 2, checked in integer
    polynomial arithmetic as 2 T_n = (1+x) R_n."""
    params = _params("closed/alt-from-runs", 2, n_max=n_max)
    one_plus_x = RatPoly((1, 1))
    T = triangles.poly_T(n_max)
    R = triangles.poly_R(n_max)
    return _verdict("closed/alt-from-runs", params, (
        (n, "2 T_n = (1+x) R_n", 2 * T[n], one_plus_x * R[n]) for n in range(2, n_max + 1)
    ))


# ----------------------------------------------------------------------
# Closed forms verified pointwise over integers.
#
# At each n a form compares two sides whose cross-multiplied difference
# is, after dividing out powers of q and of factors nonzero at every
# allowed point, a polynomial B in x of degree at most D_n, a bound taken
# from the lengths of the rows actually read.  If B is not zero, one of
# any D_n+1 distinct points is not a root of it, so n draws its cases
# only at the first D_n+1 distinct points of the plan, in plan order: the
# first failing point, if any, is among them, and the report is that of
# every point.  A plan of fewer points is refused at n by :func:`_certify`.


def _deg(row: "Sequence[int]") -> int:
    """The degree a row is homogenised to by :func:`horner`, 0 if empty."""
    return max(len(row) - 1, 0)


def check_runs_from_peaks(n_max: int = 20, plan: "SamplePlan | None" = None) -> CheckReport:
    """Run and altsubseq polynomials from the peak polynomials:
    R_n(x) = x (1+x)^(n-2) / 2^(n-2) * W_n(2x/(1+x))   for n >= 2,
    T_n(x) = x (1+x)^(n-1) / 2^(n-1) * W_n(2x/(1+x))   for n >= 1.

    Both sides are rational at rational x.  At x = p/q each side is an
    integer ratio: a row F homogenised to its own degree d_F is F(a, b),
    so the T-form compares T_n(p, q)/q^(d_T) with p (p+q)^(n-1)
    W_n(2p, p+q) over q (2q)^(n-1) (p+q)^(d_W), and the R-form is the
    same with n-2.  After clearing q and the common (1+x) powers the
    T-form's difference has degree at most max(d_T, n) +
    max(0, d_W - n + 1) and the R-form's max(d_R, n - 1) +
    max(0, d_W - n + 2), so n draws one point more than the larger of
    the two: n+1 on stock rows, where d_R = n-1, d_T = n, d_W < n.
    """
    identity, params, points = _pointwise("runs-from-peaks", n_max, plan, 1,
                                          ("T-form ", "R-form "))
    W = triangles.poly_W(n_max)
    R = triangles.poly_R(n_max)
    T = triangles.poly_T(n_max)

    def cases(ns):
        for n in ns:
            Wn, Rn, Tn = W.row(n), R.row(n), T.row(n)
            dW, dR, dT = _deg(Wn), _deg(Rn), _deg(Tn)
            top = max(max(dT, n) + max(0, dW - n + 1), max(dR, n - 1) + max(0, dW - n + 2))
            for t_form, r_form, p, q in _certify(identity, n, points, top):
                w, w_den = horner(Wn, 2 * p, p + q)
                yield (n, t_form, horner(Tn, p, q),
                       (p * (p + q) ** (n - 1) * w, q * (2 * q) ** (n - 1) * w_den))
                if n >= 2:
                    yield (n, r_form, horner(Rn, p, q),
                           (p * (p + q) ** (n - 2) * w, q * (2 * q) ** (n - 2) * w_den))

    return _split(identity, params, cases, range(1, n_max + 1))


def _parity_split(row: "Sequence[int]", top: int) -> "tuple[list[int], list[int], int]":
    """``(E, O, low)`` with sum_j row[j] r^(top-j) = y^low (E(y) + r O(y))
    for y = r^2: each term goes to E or O by the parity of top-j, and
    ``low`` <= 0 is below 0 only for a row longer than top+1 entries."""
    low = min(0, (top + 1 - len(row)) // 2)
    E = [0] * (top // 2 - low + 1)
    O = list(E)
    for j, c in enumerate(row):
        m = top - j
        (O if m % 2 else E)[m // 2 - low] += c
    return E, O, low


def check_tangent_forms(n_max: int = 12, plan: "SamplePlan | None" = None) -> CheckReport:
    """Both closed forms through the tangent derivative polynomials:
    W_n(x) = (1/x) (x-1)^((n+1)/2) P_n(1/sqrt(x-1)),
    R_n(x) = ((x+1)/2)^(n-1) ((x-1)/(x+1))^((n+1)/2) P_n(sqrt((x+1)/(x-1))),
    both for n >= 2.

    With sigma^2 = y = x-1, sigma^(n+1) P_n(1/sigma) splits by the parity
    of n+1-j into E(y) + sigma O(y); the R-form is the same split in
    w = (x-1)/(x+1), since ((x-1)/(x+1))^((n+1)/2) P_n(1/sqrt(w)) is
    E(w) + sqrt(w) O(w).  P_n has the parity of n+1, so O vanishes:
    that is checked once per n as ``odd part of P_n``, which prints O's
    coefficients on failure.  Each form is then compared at x = p/q as
    two integer ratios, E homogenised at (p-q, q), resp. (p-q, p+q).
    With L = -low, the W-form's difference after clearing denominators
    has degree at most max(d_W + 1 + L, d_E), and the R-form's, after
    dividing out the common (x+1) power, max(d_R + L, n - 1 + L) +
    max(0, d_E - (n - 1 + L)); n draws one point more than the larger:
    n on stock rows.
    """
    identity, params, points = _pointwise("tangent", n_max, plan, 2, ("W-form ", "R-form "))
    W = triangles.poly_W(n_max)
    R = triangles.poly_R(n_max)
    P = triangles.poly_P(n_max)

    def cases(ns):
        for n in ns:
            Wn, Rn = W.row(n), R.row(n)
            E, O, low = _parity_split(P.row(n), n + 1)
            yield n, "odd part of P_n", O, [0] * len(O)
            L, dE = -low, len(E) - 1
            top = max(_deg(Wn) + 1 + L, dE,
                      max(_deg(Rn) + L, n - 1 + L) + max(0, dE - (n - 1 + L)))
            for w_form, r_form, p, q in _certify(identity, n, points, top):
                # W-form: (q/p) y^low E(y), y = (p-q)/q
                e, e_den = horner(E, p - q, q)
                yield (n, w_form, horner(Wn, p, q),
                       (q * q ** -low * e, p * (p - q) ** -low * e_den))
                # R-form: h^(n-1) w^low E(w), h = (p+q)/(2q), w = (p-q)/(p+q)
                e, e_den = horner(E, p - q, p + q)
                yield (n, r_form, horner(Rn, p, q),
                       ((p + q) ** (n - 1) * (p + q) ** -low * e,
                        (2 * q) ** (n - 1) * (p - q) ** -low * e_den))

    return _split(identity, params, cases, range(2, n_max + 1))


def _w_expansion(row: "Sequence[int]", top: int) -> "list[int]":
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


def check_david_barton(n_max: int = 12, plan: "SamplePlan | None" = None) -> CheckReport:
    """The run polynomials from the descent polynomials:
    R_n(x) = ((1+x)/2)^(n-1) (1+w)^(n+1) A_n((1-w)/(1+w))  for n >= 2,
    with w = sqrt((1-x)/(1+x)).  Points stay in (-1,1) \\ {0}.

    (1+w)^(n+1) A_n((1-w)/(1+w)) = sum_k A(n,k) (1-w)^k (1+w)^(n+1-k)
    = sum_m c_m w^m is expanded over integers once per n.  A_n is
    palindromic, so every odd c_m vanishes: that is checked once per n,
    printing the odd c_m on failure.  Then 2^(n-1) R_n(x) =
    sum_m c_(2m) (1-x)^m (1+x)^(n-1-m), compared at x = p/q as
    R_n(p, q)/q^(deg R_n) against sum_m c_(2m) (q-p)^m (q+p)^(n-1-m) over
    (2q)^(n-1).  A row e entries longer than n+2 is expanded after e
    zeros to top n+1+2e, which multiplies the sum by
    (1-w^2)^e = (2p/(q+p))^e, divided out again.  Its odd part vanishes
    only if its last e entries are zeros, so after clearing denominators
    the difference is (2x)^e times one of degree at most max(d_R, n - 1),
    and n draws one point more: n on stock rows.
    """
    identity, params, points = _pointwise("david-barton", n_max, plan, 2, ("",))
    A = triangles.poly_A(n_max)
    R = triangles.poly_R(n_max)

    def cases(ns):
        for n in ns:
            An, Rn = A.row(n), R.row(n)
            e = max(0, len(An) - n - 2)
            c = _w_expansion([0] * e + An, n + 1 + 2 * e)
            odd, even = c[1::2], c[::2]
            yield n, "odd part of (1+w)^(n+1) A_n((1-w)/(1+w))", odd, [0] * len(odd)
            # (q+p)^(n-1+e-m) is (q+p)^(len(even)-1-m) times this power
            extra = n + e - len(even)
            for label, p, q in _certify(identity, n, points, max(_deg(Rn), n - 1)):
                v, _ = horner(even, q - p, q + p)
                yield (n, label, horner(Rn, p, q),
                       (v * (q + p) ** extra, (2 * q) ** (n - 1) * (2 * p) ** e))

    return _split(identity, params, cases, range(2, n_max + 1))


# ----------------------------------------------------------------------
# Exponential generating functions, coefficient by coefficient.


def _egf_coeffs(rows: "Callable[[int], list[int]]", x0: Fraction, order: int) -> "list[Fraction]":
    """Coefficient of z^n: (1/n!) sum_k row(n)[k] x0^(n-k), for rows of
    n+1 entries; the sum is the reversed row evaluated at x0 by Horner."""
    out = []
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n
        num, den = horner(rows(n)[::-1], x0.numerator, x0.denominator)
        out.append(Fraction(num, den * fact))
    return out


def _series_point(x0: Rational, order: int) -> Fraction:
    """``x0`` as a ``Fraction``, refused unless it is an ``int`` or
    ``Fraction`` in (-1, 1) and the series order an int of at least 1."""
    x0 = Fraction(_rational(x0, "base point"))
    if not -1 < x0 < 1:
        raise ValueError(f"base point {x0} must lie in (-1, 1)")
    if _int(order, "order") < 1:
        raise ValueError("order must be >= 1")
    return x0


def _check_series(ident: str, params: dict, rhs: PowerSeries,
                  expected: "list[Fraction]") -> CheckReport:
    """The report comparing ``expected[n]`` with the coefficient of z^n of
    ``rhs``, which lies in Q(sqrt(d)).  A coefficient must first have a
    zero sqrt component, or it fails at ``"z^n: sqrt component"`` as
    ``(c, 0)``; its rational part is then compared at ``"z^n"``."""
    def cases():
        for n, want in enumerate(expected):
            c = rhs.coefficient(n)
            if c.b:
                yield n, f"z^{n}: sqrt component", c, 0
            else:
                yield n, f"z^{n}", want, c.a

    return _verdict(ident, params, cases())


def _q_series(x0: Fraction, rho: QuadExt, order: int) -> PowerSeries:
    """q = (rho + sin(z rho)) / (x0 - cos(z rho)) through z^order, the
    series both closed EGFs in z are built from."""
    return (rho + sin_series(rho, order)) / (x0 - cos_series(rho, order))


def check_carlitz(x0: Rational = Fraction(1, 2), order: int = DEFAULT_ORDER) -> CheckReport:
    """Closed EGF for the run triangle read along antidiagonals:
    sum_n z^n/n! sum_k R(n+1,k) x0^(n-k)
      = (1-x0)/(1+x0) * ((rho + sin(z rho)) / (x0 - cos(z rho)))^2,
    rho = sqrt(1-x0^2), compared through z^order."""
    x0 = _series_point(x0, order)
    ident = f"gf/carlitz[x0={x0}]"
    params = _params(ident, None, x0=str(x0), order=order)
    q = _q_series(x0, QuadExt.root(1 - x0 * x0), order)
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
    ident = f"gf/stanley[t0={t0}]"
    params = _params(ident, None, t0=str(t0), order=order)
    rho = QuadExt.root(1 - t0 * t0)
    e1 = exp_series(rho, order)
    e2 = exp_series(rho * 2, order)
    num = (1 + rho) + e1 * (2 * t0) + e2 * (1 - rho)
    den = ((1 - t0 * t0) + rho) + e2 * ((1 - t0 * t0) - rho)
    rhs = num / den * (1 - t0)
    T = triangles.poly_T(order)
    # over a reversed row of n+1 entries, sum_k row[k] t0^(n-k) is T_n(t0)
    expected = _egf_coeffs(lambda n: T.row(n)[::-1], t0, order)
    return _check_series(ident, params, rhs, expected)


def check_altsubseq_gf(x0: Rational = Fraction(1, 2), order: int = DEFAULT_ORDER) -> CheckReport:
    """Closed EGF for the altsubseq triangle read along antidiagonals:
    sum_n z^n/n! sum_k a_k(n) x0^(n-k)
      = -sqrt((1-x0)/(1+x0)) (rho + sin(z rho)) / (x0 - cos(z rho)),
    with the positive branch sqrt((1-x0)/(1+x0)) = rho/(1+x0)."""
    x0 = _series_point(x0, order)
    ident = f"gf/altsubseq[x0={x0}]"
    params = _params(ident, None, x0=str(x0), order=order)
    rho = QuadExt.root(1 - x0 * x0)
    rhs = _q_series(x0, rho, order) * (-(rho / (1 + x0)))
    tri = triangles.triangle_A(order)
    expected = _egf_coeffs(tri.row, x0, order)
    return _check_series(ident, params, rhs, expected)


# ----------------------------------------------------------------------
# Oracle equivalence.


def check_oracle(n_max: int = 8) -> CheckReport:
    """All five triangles match brute-force histograms over S_n, n <= n_max,
    the five read from one class table of each S_n."""
    params = _params("oracle/triangles", 1, n_max=n_max)
    if n_max > permcore.MAX_ENUM_N:
        raise ValueError(f"n_max must be between 1 and {permcore.MAX_ENUM_N}, got {n_max}")
    sources = [
        (permcore.Stat.RUNS, triangles.triangle_R(n_max)),
        (permcore.Stat.LONGEST_ALT_SUBSEQ, triangles.triangle_A(n_max)),
        (permcore.Stat.INTERIOR_PEAKS, triangles.triangle_W(n_max)),
        (permcore.Stat.LEFT_PEAKS, triangles.triangle_Wtilde(n_max)),
        (permcore.Stat.DESCENTS, triangles.triangle_euler(n_max)),
    ]
    return _verdict("oracle/triangles", params, _expand(
        None, n_max, (), [(stat, tri.row, stat.value) for stat, tri in sources], n_max))


# ----------------------------------------------------------------------
# Suites.

SUITES = ("all", "grammar", "convolutions", "closed-forms", "gf", "oracle")

#: Each check in the order run_suite starts it: its name, looked up as it
#: runs (so a wrapper set on this module is called), the suite that runs
#: it besides ``all``, the options it reads, and whether it may run in a
#: forked child (one row at most), which reports last wherever it ran.
#: closed/alt-from-runs comes first: its first n, 2, is the highest, so a
#: range it refuses starts no child.  grammar/leibniz, about half the work
#: of ``all``, starts next, so its child runs beside every other check;
#: while it lives, the checks that split their n between two processes
#: (:func:`_split`) run theirs all in this one.
_CHECKS = (
    ("check_alt_from_runs", "closed-forms", "range", False),
    ("check_leibniz", "grammar", "range", True),
    ("check_runs_from_peaks", "closed-forms", "range", False),
    ("check_tangent_forms", "closed-forms", "range", False),
    ("check_david_barton", "closed-forms", "range", False),
    ("check_grammar_runs", "grammar", "range", False),
    ("check_grammar_alt", "grammar", "range", False),
    ("check_dumont", "grammar", "range and oracle cap", False),
    ("check_peaks_grammar", "grammar", "range and oracle cap", False),
    ("check_convolutions", "convolutions", "range", False),
    ("check_recurrence_consistency", "convolutions", "range", False),
    ("check_carlitz", "gf", "carlitz_x0s", False),
    ("check_stanley_gf", "gf", "stanley_t0s", False),
    ("check_altsubseq_gf", "gf", "final_x0s", False),
    ("check_oracle", "oracle", "oracle cap", False),
)


#: True while this process has a child it has not reaped, and in a
#: forked child for good: :func:`_fork` then refuses, so a run never has
#: more than two processes.
_busy = False


def _fork(check: "Callable[..., CheckReport]", kwargs: dict) -> "tuple[int, int] | None":
    """Start ``check(**kwargs)`` in a forked child, which sends its report
    back marshalled over a pipe: ``(pid, read end)``, or None when no
    second process may run beside this one.

    That takes ``os.fork``, ``os.sched_getaffinity`` with at least two
    CPUs, no thread but this one, since a child forked beside another
    thread may inherit a lock that thread held, and a process that is
    neither a forked child nor has a live one (``_busy``).  ``threading``
    is read from ``sys.modules``, never imported.  The child never
    returns: it leaves by ``os._exit``, so it flushes no stdio buffer of
    this process and runs no exit handler, and if ``check`` raises, it
    sends nothing.
    """
    global _busy
    threading = sys.modules.get("threading")
    if _busy or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                     and len(os.sched_getaffinity(0)) >= 2
                     and (threading is None or threading.active_count() == 1)):
        return None
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    _busy = True
    if not pid:
        try:
            os.close(read)
            r = check(**kwargs)
            data = memoryview(marshal.dumps((r.identity, r.params, r.passed,
                                             None if r.first_failure is None
                                             else tuple(r.first_failure))))
            while data:
                data = data[os.write(write, data):]
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def _kill(child: "tuple[int, int]") -> None:
    """Stop the child at once and reap it."""
    import signal

    global _busy
    pid, read = child
    os.close(read)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    _busy = False


def _join(child: "tuple[int, int]") -> "CheckReport | None":
    """The report the child sent, once it has exited and been reaped, or
    None if it raised, died or sent nothing that reads as a report."""
    global _busy
    pid, read = child
    chunks = []
    try:
        while chunk := os.read(read, 1 << 16):
            chunks.append(chunk)
    except BaseException:
        _kill(child)
        raise
    os.close(read)
    status = os.waitpid(pid, 0)[1]
    _busy = False
    if status:
        return None
    try:
        identity, params, passed, failure = marshal.loads(b"".join(chunks))
        return CheckReport(identity, params, passed,
                           None if failure is None else CheckFailure(*failure))
    except (EOFError, ValueError, TypeError):
        return None


def _split(identity: str, params: dict, cases: "Callable[[Sequence[int]], Iterable[tuple]]",
           ns: "Sequence[int]") -> CheckReport:
    """``_verdict(identity, params, cases(ns))``, for ``cases`` that yield
    the cases of each n of the given ascending ``ns`` in turn, each n's
    the same whichever other n are given.

    When :func:`_fork` may start a child, the child draws
    ``cases(ns[1::2])`` while this process draws ``cases(ns[0::2])``, and
    the failure with the smaller n is the report.  A failure here below
    the child's first n stops the child at once; otherwise the child is
    joined, and stops at its own first failure.  If the child raises or
    dies, or the cases here raise an ``Exception``, the child is stopped
    and every n is drawn here again, so the report or exception is the
    serial run's.
    """
    child = None if len(ns) < 2 else _fork(
        _verdict, {"identity": identity, "params": params, "cases": cases(ns[1::2])})
    if child is None:
        return _verdict(identity, params, cases(ns))
    try:
        mine = _verdict(identity, params, cases(ns[0::2]))
    except Exception:
        mine = None  # drawn again below, outside this handler
    except BaseException:
        _kill(child)
        raise

    def first(report):  # the n of the first failure, past every n if it passed
        return report.first_failure.n if report.first_failure else ns[-1] + 1

    if mine is None or first(mine) < ns[1]:
        _kill(child)
        if mine is not None:
            return mine
    elif (theirs := _join(child)) is not None:
        return min(mine, theirs, key=first)
    return _verdict(identity, params, cases(ns))


def run_suite(
    suite: str = "all",
    *,
    n_max: "int | None" = None,
    order: "int | None" = None,
    carlitz_x0s: "Sequence[Rational] | None" = None,
    stanley_t0s: "Sequence[Rational] | None" = None,
    final_x0s: "Sequence[Rational] | None" = None,
) -> "list[CheckReport]":
    """Run one suite and return its reports sorted by identity id."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (known: {', '.join(SUITES)})")
    order = DEFAULT_ORDER if order is None else _int(order, "order")
    # every option is validated before any check runs, read by the suite or not
    if n_max is not None and _int(n_max, "n_max") < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    # in `all` and `grammar` the oracle share stays at S_8; params show it
    oracle_cap = 8 if n_max is None else n_max if suite == "oracle" else min(n_max, 8)

    # the keywords of each call by the options read; with no n_max a check takes its own range
    span = {} if n_max is None else {"n_max": n_max}
    calls = {"range": [span], "range and oracle cap": [{**span, "oracle_n_max": oracle_cap}],
             "oracle cap": [{"n_max": oracle_cap}]}
    for option, param, given, stock in (
        ("carlitz_x0s", "x0", carlitz_x0s, DEFAULT_CARLITZ_X0S),
        ("stanley_t0s", "t0", stanley_t0s, DEFAULT_STANLEY_T0S),
        ("final_x0s", "x0", final_x0s, DEFAULT_FINAL_X0S),
    ):
        points = [_series_point(x, order) for x in (stock if given is None else given)]
        if not points:
            raise ValueError(f"{option} must hold at least one point")
        repeated = [x for i, x in enumerate(points) if x in points[:i]]
        if repeated:
            raise ValueError(f"{option} repeats the point {repeated[0]}")
        calls[option] = [{param: x, "order": order} for x in points]

    reports, deferred, child = [], None, None
    try:
        for name, member, option, may_fork in _CHECKS:
            if suite in ("all", member):
                for kwargs in calls[option]:
                    if may_fork:
                        deferred, child = (name, kwargs), _fork(globals()[name], kwargs)
                    else:
                        reports.append(globals()[name](**kwargs))
    except BaseException:
        if child is not None:
            _kill(child)
        raise
    if deferred is not None:
        # a child that raised or died is rerun here: the check is
        # deterministic, so this raises what the child would have
        name, kwargs = deferred
        report = None if child is None else _join(child)
        reports.append(globals()[name](**kwargs) if report is None else report)
    return sorted(reports, key=lambda r: r.identity)
