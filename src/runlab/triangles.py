"""Recurrence-driven integer families, one :class:`Family` per statistic.

The run and altsubseq triangles come from one integer runner over a
small table per recurrence, each (shift, a, b, c) entry adding
(a*k + b*n + c) * T(n-1, k-shift) to entry k of row n; the polynomials
R_n and T_n are those rows.  The peak polynomials W_n, Wt_n and the
tangent polynomials P_n step a differential recurrence on ``RatPoly``,
whose coefficients are integral by type.  The euler rows and A_n expand
the dumont grammar.  Every generator runs from its smallest seed only
and asserts any later printed seed row, so a mistranscribed recurrence
fails loudly instead of producing plausible garbage.

Family rows are stored dense from k = 0 (recurrences reach k-1 and
k-2, and dense rows avoid sentinel bugs at the boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import grammar
from .exactnum import RatPoly

__all__ = [
    "ConsistencyError",
    "Family",
    "poly_A",
    "poly_P",
    "poly_R",
    "poly_T",
    "poly_W",
    "poly_Wtilde",
    "triangle_A",
    "triangle_R",
    "triangle_W",
    "triangle_Wtilde",
    "triangle_euler",
]


class ConsistencyError(RuntimeError):
    """A generated family contradicts a printed seed row or its own shape."""


_X = RatPoly((0, 1))


@dataclass(frozen=True)
class Family:
    """Integer coefficient rows indexed n = start.., dense from k = 0.

    Row n holds the coefficients of the family's n-th polynomial, and
    ``F[n]`` is that polynomial, built from the stored row on each call.
    """

    name: str
    start: int
    rows: "list[list[int]]"

    @property
    def max_n(self) -> int:
        return self.start + len(self.rows) - 1

    def indices(self) -> range:
        return range(self.start, self.max_n + 1)

    def row(self, n: int) -> "list[int]":
        if not self.start <= n <= self.max_n:
            raise ValueError(f"row {n} outside generated range "
                             f"{self.start}..{self.max_n} of family {self.name!r}")
        return self.rows[n - self.start]

    def entry(self, n: int, k: int) -> int:
        row = self.row(n)
        return row[k] if 0 <= k < len(row) else 0

    def __getitem__(self, n: int) -> RatPoly:
        return RatPoly(self.row(n))


#: Triangle recurrences, one (shift, a, b, c) entry per term: row n,
#: column k of the triangle gets (a*k + b*n + c) * T(n-1, k-shift).
_R_STEPS = ((0, 1, 0, 0), (1, 0, 0, 2), (2, -1, 1, 0))
_A_STEPS = ((0, 1, 0, 0), (1, 0, 0, 1), (2, -1, 1, 1))


def _run_steps(
    name: str,
    start: int,
    steps: "tuple[tuple[int, int, int, int], ...]",
    seeds: "dict[int, list[int]]",
    n_max: int,
) -> Family:
    """Rows start..n_max of the triangle ``steps`` describes, from the
    seed row T(start, 0) = 1.  Row n has n - start + 1 entries and only
    k >= 1 is written; a printed row in ``seeds`` is asserted."""
    if n_max < start:
        raise ValueError(f"n_max must be >= {start}")
    pad = max(s for s, *_ in steps)
    rows = [[1]]
    for n in range(start + 1, n_max + 1):
        prev = [0] * pad + rows[-1] + [0]
        row = [0] * (n - start + 1)
        for s, a, b, c in steps:
            for k in range(1, len(row)):
                row[k] += (a * k + b * n + c) * prev[k + pad - s]
        expected = seeds.get(n)
        if expected is not None and row != expected:
            raise ConsistencyError(f"row {n} of the {name} triangle is {row}, "
                                   f"expected {expected}")
        rows.append(row)
    return Family(name, start, rows)


def triangle_R(n_max: int) -> Family:
    """Counts of permutations of [n] by number of alternating runs.

    Rows n = 1..n_max from
    R(n,k) = k*R(n-1,k) + 2*R(n-1,k-1) + (n-k)*R(n-1,k-2),
    seeded with R(1,0) = 1.
    """
    return _run_steps("runs", 1, _R_STEPS, {}, n_max)


def triangle_A(n_max: int) -> Family:
    """Counts of permutations of [n] by longest alternating subsequence.

    Rows n = 0..n_max from
    a_k(n) = k*a_k(n-1) + a_(k-1)(n-1) + (n-k+1)*a_(k-2)(n-1),
    seeded with a_0(0) = 1; the printed row a_1(1) = 1, i.e. T_1 = x, is
    asserted.
    """
    return _run_steps("altsubseq", 0, _A_STEPS, {1: [0, 1]}, n_max)


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


def poly_R(n_max: int) -> Family:
    """Run polynomials R_n(x) = sum_k R(n,k) x^k: the rows of triangle_R."""
    return triangle_R(n_max)


def poly_T(n_max: int) -> Family:
    """Alternating-subsequence polynomials T_n(x) = sum_k a_k(n) x^k: the
    rows of triangle_A."""
    return triangle_A(n_max)


def poly_W(n_max: int) -> Family:
    """Interior-peak polynomials from
    W_(n+1) = (nx-x+2)W_n + 2x(1-x)W_n', seeded W_1 = 1; W_2, W_3 asserted."""
    return _recurrence_family(
        "W",
        1,
        RatPoly((1,)),
        lambda n, p: RatPoly((2, n - 1)) * p + RatPoly((0, 2, -2)) * p.derivative(),
        {2: RatPoly((2,)), 3: RatPoly((4, 2))},
        n_max,
    )


def poly_Wtilde(n_max: int) -> Family:
    """Left-peak polynomials from
    Wt_(n+1) = (nx+1)Wt_n + 2x(1-x)Wt_n', seeded Wt_0 = 1; the printed
    rows Wt_1 = 1, Wt_2 = 1+x, Wt_3 = 1+5x are asserted."""
    return _recurrence_family(
        "Wt",
        0,
        RatPoly((1,)),
        lambda n, p: RatPoly((1, n)) * p + RatPoly((0, 2, -2)) * p.derivative(),
        {1: RatPoly((1,)), 2: RatPoly((1, 1)), 3: RatPoly((1, 5))},
        n_max,
    )


def poly_P(n_max: int) -> Family:
    """Tangent derivative polynomials: P_0 = x, P_(n+1) = (1+x^2)P_n'."""
    return _recurrence_family(
        "P",
        0,
        _X,
        lambda n, p: RatPoly((1, 0, 1)) * p.derivative(),
        {},
        n_max,
    )


def triangle_W(n_max: int) -> Family:
    """Interior-peak counts W(n,k): the rows of poly_W."""
    return poly_W(n_max)


def triangle_Wtilde(n_max: int) -> Family:
    """Left-peak counts: the rows of poly_Wtilde."""
    return poly_Wtilde(n_max)


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
        for mono, c in p.terms():
            k = mono.degree_of("x") - 1
            if not (0 <= k < n and mono.degree_of("y") == n - k
                    and mono.total_degree == n + 1):
                raise ConsistencyError(
                    f"unexpected monomial {mono} in derivative {n} of x"
                )
            row[k] = c
        rows.append(row)
    return Family("euler", 1, rows)


def poly_A(n_max: int) -> Family:
    """Descent polynomials A_n(x) = x * sum_k E(n,k) x^k: euler rows shifted by x."""
    return Family("A", 1, [[0] + row for row in triangle_euler(n_max).rows])
