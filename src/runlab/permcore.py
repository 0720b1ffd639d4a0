"""Brute-force permutation statistics: the ground-truth oracle.

Each statistic is a direct transcription of its definition -- scan for
direction changes, scan for peaks, scan with two running lengths for the
longest alternating subsequence.  All five depend only on a permutation's
descent word, its n-1 adjacent comparisons: four of them read nothing
else, and ``longest_alt_subseq`` documents why it is no exception.  So
the oracle never visits S_n one permutation at a time: it counts the
permutations of each descent word by the descent-set prefix DP and takes
the word's lexicographically least permutation as its member
(:func:`descent_classes`); a histogram then applies the definition once
per class, to that member, weighted by the class size.  A caller that
needs several histograms of one n passes the same table to each call,
as each oracle check in ``identities`` does.  The triangle generators
are validated against these histograms, so this module must stay
independent of them: the DP reads no triangle, recurrence or grammar.

Conventions for the one-element permutation: 0 alternating runs, 0 peaks,
0 left peaks, 0 descents, and a longest alternating subsequence of 1.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from math import factorial
from operator import itemgetter
from typing import NamedTuple, Sequence

__all__ = [
    "MAX_ENUM_N",
    "Stat",
    "StatDistribution",
    "alternating_runs",
    "descent_classes",
    "descents",
    "distribution",
    "interior_peaks",
    "left_peaks",
    "longest_alt_subseq",
]

#: The class table of S_n has 2^(n-1) rows, and each histogram applies its
#: definition once per row: S_1..S_14 check all five in about 0.15 s
#: (Python 3.11, 2 shared vCPUs).
MAX_ENUM_N = 14


class Stat(Enum):
    """Statistics with exact distributions over S_n."""

    RUNS = "runs"
    INTERIOR_PEAKS = "peaks"
    LEFT_PEAKS = "leftpeaks"
    LONGEST_ALT_SUBSEQ = "altsubseq"
    DESCENTS = "descents"


def _check_enum_n(n: int) -> None:
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be between 1 and {MAX_ENUM_N}, got {n}")


def alternating_runs(w: "Sequence[int]") -> int:
    """Number of maximal monotone segments: 1 + number of direction changes.

    A single element has no runs under the convention used throughout
    this package.
    """
    n = len(w)
    if n < 2:
        return 0
    changes = 0
    for i in range(1, n - 1):
        if (w[i - 1] < w[i]) != (w[i] < w[i + 1]):
            changes += 1
    return changes + 1


def interior_peaks(w: "Sequence[int]") -> int:
    """Count positions 1 < i < n with w[i-1] < w[i] > w[i+1]."""
    return sum(
        1 for i in range(1, len(w) - 1) if w[i - 1] < w[i] > w[i + 1]
    )


def left_peaks(w: "Sequence[int]") -> int:
    """Like interior peaks, but position 1 counts too (sentinel w[0] = 0)."""
    n = len(w)
    if n < 2:
        return 0
    count = 1 if w[0] > w[1] else 0
    for i in range(1, n - 1):
        if w[i - 1] < w[i] > w[i + 1]:
            count += 1
    return count


def longest_alt_subseq(w: "Sequence[int]") -> int:
    """Length of the longest subsequence of shape a > b < c > d < ...

    The first comparison must be a descent; singletons count, so the
    result is at least 1 for nonempty input.  A tie counts as an ascent.

    One left-to-right scan keeps two running lengths.  Invariant: after
    each element, ``down`` is the longest subsequence of the prefix read
    so far whose next step must descend (odd length), and ``up`` the
    longest whose next step must ascend (even length, 0 while there is
    none: a subsequence may not open with an ascent).  A step a > b sets
    ``up = max(up, down + 1)`` and leaves ``down``; a step a <= b sets
    ``down = max(down, up + 1)`` (when ``up`` is reachable) and leaves
    ``up``.  Exchange argument: a subsequence still alternates when its
    last element moves to another element of w, placed after the one
    before it, on the same side of that one.  Moved to the greatest
    (least) element of w from its place up to a, an optimal ``down``
    (``up``) ends at an element >= a (<= a), so a descent (ascent) to b
    extends it.  A subsequence whose last step, into b, goes against the
    latest step moves back to a, so its kind does not grow.  The
    exhaustive 2^n subsequence scan in the test suite guards this.

    For n >= 2 the result is ``alternating_runs(w) + 1 - (w[0] < w[1])``,
    which reads only the descent word (the greedy argument of Stanley,
    "Longest alternating subsequences of permutations", Michigan Math. J.
    2008).  Proof: a word with r runs has r - 1 turning points (interior
    peaks and valleys), and they alternate in kind.

    * Lower bound.  w[0], the turning points and w[-1] span one run per
      consecutive pair, so their comparisons alternate.  If w opens with
      a descent they form an alternating subsequence of length r + 1;
      otherwise drop w[0], and the rest, which opens at a peak (or is
      just w[-1]), has length r.
    * Upper bound.  Let a_1 > a_2 < a_3 > ... sit at positions
      p_1 < ... < p_m.  For 1 < j < m, a_j lies below (above) both of
      its neighbours, so the minimum (maximum) of w over positions
      p_(j-1)..p_(j+1) is interior: a valley (peak) q_j of w.
      Consecutive q_j differ in kind and q_j < p_(j+1) < q_(j+2), so the
      q_j are m - 2 distinct turning points and m <= r + 1: one element
      per run, plus one.  If w opens with an ascent, the maximum
      of w over positions 0..p_2 is neither w[0] (below w[1]) nor a_2
      (below a_1): one more peak, before q_3 and unlike the valley q_2,
      so m <= r.
    """
    if not w:
        return 0
    # each max() of the docstring written out: down + 1 > up iff down >= up
    down, up = 1, 0
    a = w[0]
    for b in w[1:]:
        if a > b:
            if down >= up:
                up = down + 1
        elif up >= down:
            down = up + 1
        a = b
    return down if down > up else up


def descents(w: "Sequence[int]") -> int:
    """Count positions i < n with w[i] > w[i+1]."""
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


_STAT_FUNCS = {
    Stat.RUNS: alternating_runs,
    Stat.INTERIOR_PEAKS: interior_peaks,
    Stat.LEFT_PEAKS: left_peaks,
    Stat.LONGEST_ALT_SUBSEQ: longest_alt_subseq,
    Stat.DESCENTS: descents,
}


class StatDistribution(NamedTuple):
    """Exact histogram of a statistic over S_n; counts sum to n!."""

    stat: Stat
    n: int
    counts: "dict[int, int]"


def descent_classes(n: int) -> "list[tuple[tuple[int, ...], int]]":
    """S_n (n <= 14) partitioned by descent word, counted without a walk.

    Returns one ``(member, class size)`` pair per descent word -- all
    2^(n-1) of them occur -- ordered by member, and the sizes sum to n!.
    The member is the word's lexicographically least permutation: 1..n
    with each maximal descent block reversed.

    The sizes come from the descent-set prefix DP (Stanley, *EC1*,
    Sec. 1.4).  For each prefix of the word, ``f[j]`` counts the
    permutations of its length, with that prefix as descent word, that end
    at rank j.  Appending an ascent gives ``f'[j] = sum_{l<j} f[l]``, a
    descent ``f'[j] = sum_{l>=j} f[l]``; the class size is ``sum(f)``.
    Each level extends its prefixes ascent first, so the words stay in
    lexicographic order with ascent before descent.  That is the order of
    their least members: where two words first differ, the one with the
    ascent ends its descent block sooner, so its member is smaller at the
    block's first position and equal before it.  The members grow in a
    second level loop, one letter per level, in the same order.
    """
    _check_enum_n(n)
    if n == 1:
        return [((1,), 1)]
    # the n - 1 letter prefixes of every word, by one prefix sum per step
    level = [[1]]
    for _ in range(n - 2):
        grown = []
        for f in level:
            sums = list(accumulate(f, initial=0))
            total = sums[-1]
            grown.append(sums)
            grown.append([total - s for s in sums])
        level = grown
    # the last step needs only the totals of the two extensions
    sizes = []
    for f in level:
        up = sum(accumulate(f, initial=0))
        sizes += (up, n * sum(f) - up)
    del level  # so the peak never holds both the size prefixes and the members
    # the members level by level in the same order: an ascent appends i,
    # a descent puts i at the head of the last block, which holds
    # m[-1]..i-1 reversed and so starts at index m[-1] - 1
    members = [(1,)]
    for i in range(2, n + 1):
        grown = []
        for m in members:
            head = m[-1] - 1
            grown.append(m + (i,))
            grown.append(m[:head] + (i,) + m[head:])
        members = grown
    return list(zip(members, sizes))


def distribution(
    stat: "Stat | str",
    n: int,
    classes: "Sequence[tuple[Sequence[int], int]] | None" = None,
) -> StatDistribution:
    """Histogram of ``stat`` over all of S_n (n <= 14).

    S_n is partitioned by descent word (:func:`descent_classes`); the
    statistic's definition then runs once per class, on the class's
    member, and counts the class size.  A caller that needs several
    statistics of one n builds ``classes`` once and passes it to each
    call; it must be a table for this ``n``.
    """
    stat = Stat(stat)
    _check_enum_n(n)
    # A passed table is checked once: its sizes sum to n! and each word
    # has length n.  The rows are not counted: a table that merges one
    # class into another (the class-moved fault in the tests) still sums
    # to n!, and must give failing histograms, not a refusal.
    if classes is None:
        classes = descent_classes(n)
    elif sum(map(itemgetter(1), classes)) != factorial(n) or {
        *map(len, map(itemgetter(0), classes))
    } != {n}:
        raise ValueError(f"descent classes do not partition S_{n}")
    fn = _STAT_FUNCS[stat]
    counts: "dict[int, int]" = {}
    for word, size in classes:
        k = fn(word)
        counts[k] = counts.get(k, 0) + size
    return StatDistribution(stat=stat, n=n, counts=dict(sorted(counts.items())))
