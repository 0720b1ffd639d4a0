"""Recurrence-driven integer families, one :class:`Family` per statistic.

Every family comes from one integer runner over its row of one table,
:data:`FAMILIES`, each (shift, a, b, c) entry of a recurrence adding
(a*k + b*n + c) * F(n-1, k-shift) to entry k of row n: the run and
altsubseq triangles, the peak and left-peak polynomials W_n and Wt_n,
the tangent derivative polynomials P_n and the eulerian numbers.  The
polynomials are those rows, and A_n is the euler row shifted by x; none
of them reads the grammar module, so the grammar checks compare against
independent numbers.  Every generator runs from its smallest seed only
and asserts every later printed seed row, so a mistranscribed recurrence
fails loudly instead of producing plausible garbage.

Each family has one builder, the key of its row: ``triangle_R`` (runs,
R_n), ``triangle_A`` (longest alternating subsequence, T_n), ``poly_W``
(interior peaks), ``poly_Wtilde`` (left peaks), ``poly_P`` and
``triangle_euler``, with ``poly_A`` reading the euler rows.  A builder
reads its row, and every reader its builder, by name when called, so a
patch of either reaches them all.  ``poly_R``, ``poly_T``,
``triangle_W`` and ``triangle_Wtilde`` are second names no reader calls.

Family rows are stored dense from k = 0 (recurrences reach k+1, k-1
and k-2, and dense rows avoid sentinel bugs at the boundaries).
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import RatPoly, _Frozen, _ratpoly
from .permcore import Stat

__all__ = [
    "ConsistencyError",
    "FAMILIES",
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
    """A generated family contradicts a printed seed row."""


class Family(_Frozen):
    """Integer coefficient rows indexed n = start.., dense from k = 0.

    Row n holds the ``int`` coefficients of the family's n-th polynomial,
    and ``F[n]`` is that polynomial, built from a copy of the stored row
    on each call, its entries trusted to be ints.
    """

    __slots__ = ("name", "start", "rows")

    def __init__(self, name: str, start: int, rows: "list[list[int]]"):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "rows", rows)

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
        return _ratpoly(list(self.row(n)))


FamilySpec = namedtuple("FamilySpec", "name command stat start first steps seeds")

#: Every recurrence family by the name of its builder, in the order the
#: oracle reads them: its name in error texts, its ``runlab triangle``
#: name and its oracle statistic (None where it has none), then its
#: recurrence: the first row at n = start, the steps and the printed rows.
FAMILIES = {
    "triangle_R": FamilySpec("runs", "runs", Stat.RUNS, 1, [1],
                             ((0, 1, 0, 0), (1, 0, 0, 2), (2, -1, 1, 0)), {}),
    "triangle_A": FamilySpec("altsubseq", "altsubseq", Stat.LONGEST_ALT_SUBSEQ, 0, [1],
                             ((0, 1, 0, 0), (1, 0, 0, 1), (2, -1, 1, 1)), {1: [0, 1]}),
    "poly_W": FamilySpec("W", "peaks", Stat.INTERIOR_PEAKS, 1, [1],
                         ((0, 2, 0, 2), (1, -2, 1, 0)), {2: [2], 3: [4, 2]}),
    "poly_Wtilde": FamilySpec("Wt", "leftpeaks", Stat.LEFT_PEAKS, 0, [1],
                              ((0, 2, 0, 1), (1, -2, 1, 1)), {1: [1], 2: [1, 1], 3: [1, 5]}),
    "poly_P": FamilySpec("P", None, None, 0, [0, 1], ((-1, 1, 0, 1), (1, 1, 0, -1)), {}),
    "triangle_euler": FamilySpec("euler", "euler", Stat.DESCENTS, 1, [1],
                                 ((0, 1, 0, 1), (1, -1, 1, 0)), {}),
}


def _run_steps(builder: str, n_max: int) -> Family:
    """Rows start..n_max of the family ``FAMILIES[builder]``, read when
    called, from a copy of its first row.  Shifts run from -1 to 2, and
    each row is trimmed of trailing zeros as a ``RatPoly`` is.  Every
    printed row of the family is asserted, whatever ``n_max`` is."""
    name, _, _, start, first, steps, seeds = FAMILIES[builder]
    if n_max < start:
        raise ValueError(f"n_max must be >= {start}")
    lo = min(s for s, *_ in steps)
    hi = max(s for s, *_ in steps)
    rows = [list(first)]
    for n in range(start + 1, max([n_max, *seeds]) + 1):
        prev = [0] * hi + rows[-1] + [0] * (hi - lo)
        width = len(rows[-1]) + hi
        row = [0] * width
        for s, a, b, c in steps:
            m, off = b * n + c, hi - s
            for k in range(width):
                row[k] += (a * k + m) * prev[k + off]
        while row and not row[-1]:
            row.pop()
        expected = seeds.get(n)
        if expected is not None and row != expected:
            raise ConsistencyError(f"row {n} of the {name} triangle is {row}, "
                                   f"expected {expected}")
        rows.append(row)
    return Family(name, start, rows[: n_max - start + 1])


def triangle_R(n_max: int) -> Family:
    """Counts of permutations of [n] by number of alternating runs.

    Rows n = 1..n_max from
    R(n,k) = k*R(n-1,k) + 2*R(n-1,k-1) + (n-k)*R(n-1,k-2),
    seeded with R(1,0) = 1.
    """
    return _run_steps("triangle_R", n_max)


def triangle_A(n_max: int) -> Family:
    """Counts of permutations of [n] by longest alternating subsequence.

    Rows n = 0..n_max from
    a_k(n) = k*a_k(n-1) + a_(k-1)(n-1) + (n-k+1)*a_(k-2)(n-1),
    seeded with a_0(0) = 1; the printed row a_1(1) = 1, i.e. T_1 = x, is
    asserted.
    """
    return _run_steps("triangle_A", n_max)


def poly_W(n_max: int) -> Family:
    """Interior-peak polynomials, the coefficient form of
    W_(n+1) = (nx-x+2)W_n + 2x(1-x)W_n':
    W(n,k) = (2k+2)*W(n-1,k) + (n-2k)*W(n-1,k-1), seeded W_1 = 1; the
    printed rows W_2 = 2, W_3 = 4+2x are asserted."""
    return _run_steps("poly_W", n_max)


def poly_Wtilde(n_max: int) -> Family:
    """Left-peak polynomials, the coefficient form of
    Wt_(n+1) = (nx+1)Wt_n + 2x(1-x)Wt_n':
    Wt(n,k) = (2k+1)*Wt(n-1,k) + (n-2k+1)*Wt(n-1,k-1), seeded Wt_0 = 1;
    the printed rows Wt_1 = 1, Wt_2 = 1+x, Wt_3 = 1+5x are asserted."""
    return _run_steps("poly_Wtilde", n_max)


#: Second names of four builders, bound to the builders themselves.
poly_R, poly_T, triangle_W, triangle_Wtilde = triangle_R, triangle_A, poly_W, poly_Wtilde


def poly_P(n_max: int) -> Family:
    """Tangent derivative polynomials, the coefficient form of
    P_0 = x, P_(n+1) = (1+x^2)P_n':
    P(n,k) = (k+1)*P(n-1,k+1) + (k-1)*P(n-1,k-1)."""
    return _run_steps("poly_P", n_max)


def triangle_euler(n_max: int) -> Family:
    """Eulerian numbers, permutations of [n] by number of descents:
    E(n,k) = (k+1)*E(n-1,k) + (n-k)*E(n-1,k-1), seeded E(1,0) = 1."""
    return _run_steps("triangle_euler", n_max)


def poly_A(n_max: int) -> Family:
    """Descent polynomials A_n(x) = x * sum_k E(n,k) x^k: euler rows shifted by x."""
    return Family("A", 1, [[0] + row for row in triangle_euler(n_max).rows])
