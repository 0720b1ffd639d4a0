"""Brute-force permutation statistics: the ground-truth oracle.

Each statistic is a direct transcription of its definition -- scan for
direction changes, scan for peaks, quadratic DP for the longest
alternating subsequence.  All five depend only on a permutation's
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
from itertools import accumulate, product
from math import factorial
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
#: definition once per row: S_1..S_14 check all five in about 0.3 s
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
    result is at least 1 for nonempty input.  O(n^2) DP over (end
    position, next required comparison); the exhaustive 2^n subsequence
    scan in the test suite guards this.

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
    n = len(w)
    if n == 0:
        return 0
    # need_desc[j]: best length ending at j when the next step must descend.
    # need_asc[j]: same with the next step ascending; 0 marks "unreachable"
    # because a subsequence cannot open with an ascent.
    need_desc = [1] * n
    need_asc = [0] * n
    for j in range(n):
        wj = w[j]
        for i in range(j):
            if w[i] > wj:
                if need_desc[i] + 1 > need_asc[j]:
                    need_asc[j] = need_desc[i] + 1
            elif need_asc[i] and need_asc[i] + 1 > need_desc[j]:
                need_desc[j] = need_asc[i] + 1
    return max(max(need_desc), max(need_asc))


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
    block's first position and equal before it.
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
    members = []
    for word in product((False, True), repeat=n - 1):
        member: "list[int]" = []
        start = 1
        for i, desc in enumerate(word, start=1):
            if not desc:
                member.extend(range(i, start - 1, -1))
                start = i + 1
        member.extend(range(n, start - 1, -1))
        members.append(tuple(member))
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
    if classes is None:
        classes = descent_classes(n)
    elif sum(size for _, size in classes) != factorial(n) or any(
        len(word) != n for word, _ in classes
    ):
        raise ValueError(f"descent classes do not partition S_{n}")
    fn = _STAT_FUNCS[stat]
    counts: "dict[int, int]" = {}
    for word, size in classes:
        k = fn(word)
        counts[k] = counts.get(k, 0) + size
    return StatDistribution(stat=stat, n=n, counts=dict(sorted(counts.items())))
