"""Oracle statistics: golden values, exhaustive cross-checks, invariants."""

import gc
import pickle
import random
import tracemalloc
from collections import Counter
from itertools import accumulate, permutations, product
from math import comb, factorial
from operator import gt, le, lt

import pytest
from hypothesis import given, strategies as st

from runlab import permcore as pc


def exhaustive_longest_alt(word, ascends=lt):
    """Independent oracle: scan all 2^n subsequences for the longest one
    alternating with a leading descent, each ascent a pair for which
    ``ascends`` holds."""

    def alternates(seq):
        return all(
            ascends(seq[i], seq[i + 1]) if i % 2 else seq[i] > seq[i + 1]
            for i in range(len(seq) - 1)
        )

    n = len(word)
    best = 1 if n else 0
    for mask in range(1, 1 << n):
        sub = [word[i] for i in range(n) if mask >> i & 1]
        if len(sub) > best and alternates(sub):
            best = len(sub)
    return best


def quadratic_longest_alt(w):
    """Reference: the O(n^2) DP over (end position, next required
    comparison) that ``longest_alt_subseq`` replaced; a tie counts as an
    ascent."""
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


def indexed_runs(w):
    """Reference: the indexed definition that ``alternating_runs``'
    scan replaced."""
    n = len(w)
    if n < 2:
        return 0
    changes = 0
    for i in range(1, n - 1):
        if (w[i - 1] < w[i]) != (w[i] < w[i + 1]):
            changes += 1
    return changes + 1


def indexed_interior_peaks(w):
    """Reference: ``interior_peaks`` before its scan."""
    return sum(
        1 for i in range(1, len(w) - 1) if w[i - 1] < w[i] > w[i + 1]
    )


def indexed_left_peaks(w):
    """Reference: ``left_peaks`` before its scan; index 0 counts when
    w[0] > w[1], whatever its letter."""
    n = len(w)
    if n < 2:
        return 0
    count = 1 if w[0] > w[1] else 0
    for i in range(1, n - 1):
        if w[i - 1] < w[i] > w[i + 1]:
            count += 1
    return count


def indexed_descents(w):
    """Reference: ``descents`` before its scan."""
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


#: each direction-scan kernel beside the indexed definition it replaced
SCAN_REFERENCES = [
    (pc.alternating_runs, indexed_runs),
    (pc.interior_peaks, indexed_interior_peaks),
    (pc.left_peaks, indexed_left_peaks),
    (pc.descents, indexed_descents),
]
scan_pairs = pytest.mark.parametrize(
    "scan, reference", SCAN_REFERENCES, ids=[f.__name__ for f, _ in SCAN_REFERENCES]
)


def product_members(n):
    """Reference: the least permutation of each descent word, built from
    scratch per word in ``product`` order, ascent (False) first."""
    members = []
    for word in product((False, True), repeat=n - 1):
        member = []
        start = 1
        for i, desc in enumerate(word, start=1):
            if not desc:
                member.extend(range(i, start - 1, -1))
                start = i + 1
        member.extend(range(n, start - 1, -1))
        members.append(tuple(member))
    return members


def per_n_classes(n):
    """Reference: the per-n loop that ``descent_classes`` ran before the
    sweep, the sizes by the prefix DP up to S_n's last step, then the
    members, each from scratch for this n alone."""
    if n == 1:
        return [((1,), 1)]
    level = [[1]]
    for _ in range(n - 2):
        grown = []
        for f in level:
            sums = list(accumulate(f, initial=0))
            total = sums[-1]
            grown.append(sums)
            grown.append([total - s for s in sums])
        level = grown
    sizes = []
    for f in level:
        up = sum(accumulate(f, initial=0))
        sizes += (up, n * sum(f) - up)
    members = [(1,)]
    for i in range(2, n + 1):
        grown = []
        for m in members:
            head = m[-1] - 1
            grown.append(m + (i,))
            grown.append(m[:head] + (i,) + m[head:])
        members = grown
    return list(zip(members, sizes))


def interior_valleys(word):
    return sum(
        1
        for i in range(1, len(word) - 1)
        if word[i - 1] > word[i] < word[i + 1]
    )


perms_st = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def walk(n):
    """Reference table: every permutation of S_n, in lexicographic order,
    tallied under the first permutation seen with its descent word."""
    first = {}
    sizes = Counter(
        first.setdefault(bytes(map(gt, w, w[1:])), w)
        for w in permutations(range(1, n + 1))
    )
    return list(sizes.items())


def sizes_by_descent_set(n):
    """``descent_classes(n)`` keyed by each member's own descent positions
    (1-based), so a lookup does not trust the table's word order."""
    sizes = {
        frozenset(i for i in range(1, n) if w[i - 1] > w[i]): size
        for w, size in pc.descent_classes(n)
    }
    assert len(sizes) == 2 ** (n - 1)
    return sizes


#: Euler zigzag numbers E_2..E_14 (OEIS A000111)
ZIGZAG = [1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765,
          22368256, 199360981]


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_table_equals_the_literal_walk(self, n):
        assert pc.descent_classes(n) == walk(n)

    def test_sizes(self):
        for n in range(1, pc.MAX_ENUM_N + 1):
            classes = pc.descent_classes(n)
            assert len(classes) == 2 ** (n - 1)
            assert sum(size for _, size in classes) == factorial(n)

    @pytest.mark.parametrize("n, euler", zip(range(2, 15), ZIGZAG))
    def test_alternating_word_counts_zigzag_permutations(self, n, euler):
        # descent, ascent, descent, ...: the down-up permutations
        assert sizes_by_descent_set(n)[frozenset(range(1, n, 2))] == euler

    @pytest.mark.parametrize("n", range(2, 15))
    def test_one_descent_counts_binomials(self, n):
        # a descent only at i: choose the first i letters, each set but
        # {1..i} leaves a descent at the cut
        sizes = sizes_by_descent_set(n)
        for i in range(1, n):
            assert sizes[frozenset([i])] == comb(n, i) - 1

    def test_lexicographic_and_deterministic(self):
        words = [w for w, _ in pc.descent_classes(3)]
        assert words == sorted(words)
        assert words[0] == (1, 2, 3) and words[-1] == (3, 2, 1)
        assert pc.descent_classes(5) == pc.descent_classes(5)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            pc.descent_classes(0)
        with pytest.raises(ValueError):
            pc.descent_classes(15)

    @pytest.mark.parametrize("n", [True, False, 3.0, "3", None])
    def test_non_int_n_refused(self, n):
        with pytest.raises(TypeError, match=f"n must be an int, got {n!r}"):
            pc.descent_classes(n)
        with pytest.raises(TypeError, match=f"n must be an int, got {n!r}"):
            pc.distribution("runs", n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_members_equal_the_product_loop(self, n):
        assert [w for w, _ in pc.descent_classes(n)] == product_members(n)


class TestDescentTables:
    """``descent_tables``: the tables of S_1..S_n_max from one level loop,
    each checked once, when it is built."""

    def test_each_table_equals_the_per_n_tables(self):
        tables = list(pc.descent_tables(pc.MAX_ENUM_N))
        assert [t.n for t in tables] == list(range(1, pc.MAX_ENUM_N + 1))
        for n, table in enumerate(tables, 1):
            assert type(table) is not list and table == tuple(table)
            dumped = pickle.dumps(list(table))
            assert dumped == pickle.dumps(pc.descent_classes(n)), n
            assert dumped == pickle.dumps(per_n_classes(n)), n

    def test_a_table_pickles_as_itself(self):
        for table in pc.descent_tables(5):
            back = pickle.loads(pickle.dumps(table))
            assert type(back) is type(table) and back == table and back.n == table.n

    def test_a_table_is_checked_once_when_built(self, monkeypatch):
        checks = []
        real = pc._check_table
        monkeypatch.setattr(pc, "_check_table", lambda t, n: checks.append(n) or real(t, n))
        for table in pc.descent_tables(6):
            for stat in pc.Stat:
                assert pc.distribution(stat, table.n, table) == pc.distribution(
                    stat, table.n, per_n_classes(table.n))
        # one check per sweep table, and one per call that passes a plain list
        assert checks == [n for n in range(1, 7) for _ in range(1 + len(pc.Stat))]

    def test_a_table_of_another_n_is_refused(self):
        tables = list(pc.descent_tables(6))
        for stat in pc.Stat:
            for m, n in [(5, 6), (6, 5), (1, 2), (2, 1)]:
                with pytest.raises(ValueError, match=f"^descent classes do not partition S_{n}$"):
                    pc.distribution(stat, n, tables[m - 1])

    def test_a_plain_copy_with_a_wrong_size_sum_is_refused(self):
        table = next(t for t in pc.descent_tables(4) if t.n == 4)
        (first, size), *rest = table
        with pytest.raises(ValueError, match="^descent classes do not partition S_4$"):
            pc.distribution("runs", 4, [(first, size + 1), *rest])
        # the same rows in a plain list are checked, and pass
        assert pc.distribution("runs", 4, list(table)) == pc.distribution("runs", 4, table)

    @pytest.mark.parametrize("n_max, error, message", [
        (True, TypeError, "n must be an int, got True"),
        (3.0, TypeError, "n must be an int, got 3.0"),
        (0, ValueError, f"n must be between 1 and {pc.MAX_ENUM_N}, got 0"),
        (15, ValueError, f"n must be between 1 and {pc.MAX_ENUM_N}, got 15"),
    ])
    def test_bad_bound_refused_before_any_table(self, n_max, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            pc.descent_tables(n_max)

    def test_sweeps_leave_no_memory_behind(self):
        # a tuple built from an iterator of unknown length is filled in a
        # spare tuple and resized; built that way, each table left a tuple
        # of its own size on the interpreter's free lists, about 0.45 KB a
        # sweep to S_5, until each list held 2000
        gc.collect()  # a full collection empties the free lists
        tracemalloc.start()
        try:
            for _ in range(200):
                list(pc.descent_tables(5))
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024

    def test_each_level_is_let_go_once_its_table_is_built(self, monkeypatch):
        # a map of sizes holds its level until it is exhausted; left
        # unexhausted by the zip, S_13's level stayed alive while S_14's
        # members grew, and a sweep to S_14 peaked 1.3-1.7 times as high as
        # descent_classes(14) (tracemalloc, Python 3.10, 3.11 and 3.13)
        made, exhausted = [], []

        def tracked(fn, *iterables):
            sizes = map(fn, *iterables)
            if fn is not sum:
                return sizes
            made.append(fn)

            def drained():
                yield from sizes
                exhausted.append(fn)

            return drained()

        monkeypatch.setattr(pc, "map", tracked, raising=False)
        tables = pc.descent_tables(6)
        for n in range(1, 7):
            assert next(tables).n == n
            assert len(exhausted) == len(made), n
        assert len(made) == 4  # S_2..S_5; S_6's sizes are read as a list

    @pytest.mark.parametrize("k", range(1, 7))
    def test_drawing_k_tables_builds_nothing_past_s_k(self, monkeypatch, k):
        # S_k's level takes prefix sums over k - 1 entries, S_(k+1)'s over k
        summed = []
        real = pc.accumulate

        def counted(f, **kwargs):
            summed.append(len(f))
            return real(f, **kwargs)

        monkeypatch.setattr(pc, "accumulate", counted)
        tables = pc.descent_tables(pc.MAX_ENUM_N)
        drawn = [next(tables) for _ in range(k)]
        assert [t.n for t in drawn] == list(range(1, k + 1))
        assert max(summed, default=0) == k - 1


def descent_word(w):
    return tuple(a > b for a, b in zip(w, w[1:]))


class TestDescentClasses:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_statistics_are_constant_on_classes(self, n):
        # the histograms evaluate each statistic on one word per class, so
        # every word of S_n must agree with its class's first word
        classes = pc.descent_classes(n)
        first = {descent_word(w): (w, size) for w, size in classes}
        seen = dict.fromkeys(first, 0)
        for w in permutations(range(1, n + 1)):
            key = descent_word(w)
            rep, _ = first[key]
            if not seen[key]:
                assert w == rep
            seen[key] += 1
            for fn in pc._STAT_FUNCS.values():
                assert fn(w) == fn(rep), (fn.__name__, w, rep)
            if n >= 2:
                assert pc.longest_alt_subseq(w) == (
                    pc.alternating_runs(w) + 1 - (w[0] < w[1])
                )
        assert seen == {key: size for key, (_, size) in first.items()}

    def test_table_must_belong_to_n(self):
        for stat in pc.Stat:
            for m, n in [(5, 6), (6, 5), (1, 2), (2, 1)]:
                with pytest.raises(ValueError, match=f"S_{n}"):
                    pc.distribution(stat, n, classes=pc.descent_classes(m))

    def test_table_check_reads_sizes_and_lengths(self):
        (first, size), *rest = pc.descent_classes(4)
        long_word = [(first + (5,), size), *rest]  # sums to 4!
        for bad in (long_word, rest):  # rest: right lengths, sums to 4! - 1
            with pytest.raises(ValueError, match="S_4"):
                pc.distribution("runs", 4, classes=bad)
        # the row count is not checked: a merged class is a wrong table,
        # which the histograms, not a refusal, report
        merged = [(rest[0][0], size + rest[0][1]), *rest[1:]]
        counts = pc.distribution("runs", 4, classes=merged).counts
        assert counts == {1: 1, 2: 13, 3: 10}

    @pytest.mark.parametrize("stat", list(pc.Stat))
    def test_histograms_match_per_permutation_scan(self, stat):
        fn = pc._STAT_FUNCS[stat]
        for n in range(1, 8):
            classes = pc.descent_classes(n)
            scan = Counter(fn(w) for w in permutations(range(1, n + 1)))
            assert pc.distribution(stat, n).counts == dict(sorted(scan.items()))
            assert pc.distribution(stat, n, classes) == pc.distribution(stat, n)


class TestStatistics:
    def test_reference_permutation_21435(self):
        p = [2, 1, 4, 3, 5]
        assert pc.alternating_runs(p) == 4
        assert pc.interior_peaks(p) == 1
        assert pc.left_peaks(p) == 2

    def test_small_words(self):
        assert pc.alternating_runs([1, 2]) == 1
        assert pc.alternating_runs([1]) == 0
        assert pc.interior_peaks([1, 2, 3, 4]) == 0
        assert pc.left_peaks([1, 2, 3]) == 0
        assert pc.descents([1, 2, 3]) == 0
        assert pc.descents([2, 1]) == 1

    def test_altsubseq_small(self):
        assert pc.longest_alt_subseq([1, 2]) == 1
        assert pc.longest_alt_subseq([2, 1]) == 2
        assert pc.longest_alt_subseq(()) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_altsubseq_of_decreasing_word(self, n):
        # only one comparison of a strictly decreasing word can be a
        # descent-then-ascent chain, so the best subsequence is a pair
        word = list(range(n, 0, -1))
        assert pc.longest_alt_subseq(word) == 2
        assert exhaustive_longest_alt(word) == 2

    def test_altsubseq_matches_exhaustive_oracle_small(self):
        for n in range(1, 7):
            for word in permutations(range(1, n + 1)):
                assert pc.longest_alt_subseq(word) == exhaustive_longest_alt(word)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_scan_equals_quadratic_dp_on_permutations(self, n):
        for word in permutations(range(1, n + 1)):
            assert pc.longest_alt_subseq(word) == quadratic_longest_alt(word)

    def test_scan_equals_quadratic_dp_with_ties(self):
        # every word over {0, 1, 2} of length <= 7: a tie counts as an ascent
        for n in range(8):
            for word in product(range(3), repeat=n):
                assert pc.longest_alt_subseq(word) == quadratic_longest_alt(word)

    def test_quadratic_dp_matches_exhaustive_oracle_with_ties(self):
        for n in range(7):
            for word in product(range(3), repeat=n):
                best = exhaustive_longest_alt(word, le)
                assert quadratic_longest_alt(word) == best

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_altsubseq_matches_exhaustive_oracle_sampled(self, n):
        rng = random.Random(1000 + n)
        for _ in range(60):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            assert pc.longest_alt_subseq(word) == exhaustive_longest_alt(word)


class TestDirectionScans:
    @scan_pairs
    @pytest.mark.parametrize("n", range(0, 9))
    def test_scan_equals_reference_on_permutations(self, scan, reference, n):
        for word in permutations(range(1, n + 1)):
            assert scan(word) == reference(word), word

    @scan_pairs
    @pytest.mark.parametrize("alphabet", [(0, 1, 2), (-1, 0, 1)])
    def test_scan_equals_reference_with_ties(self, scan, reference, alphabet):
        # every word of length <= 7, the empty word and lengths 1 and 2
        # included, as a tuple and as a list
        for n in range(8):
            for word in product(alphabet, repeat=n):
                expected = reference(word)
                assert scan(word) == expected, word
                assert scan(list(word)) == expected, word

    @pytest.mark.parametrize("word, runs, peaks, lpeaks, desc", [
        ((), 0, 0, 0, 0),
        ((7,), 0, 0, 0, 0),
        ((1, 1), 1, 0, 0, 0),
        ((0, -1), 1, 0, 1, 1),  # index 0 counts on w[0] > w[1], not on w[0] > 0
        ((1, 1, 1), 1, 0, 0, 0),
        ((2, 2, 1), 1, 0, 0, 1),  # a tie into index 1 clears the start state
        ((1, 2, 2, 1), 2, 0, 0, 1),  # a tie is no descent: no peak at either 2
        ((1, 2, 2, 3), 3, 0, 0, 0),  # a tie ends a rising run
        ((3, 2, 2, 1), 1, 0, 1, 2),  # and continues a falling one
        ((1, 3, 2, 1), 2, 1, 1, 2),  # one peak, however long the fall after it
        ((2, 1, 2, 1, 2, 1), 5, 2, 3, 3),
        ((1, 2, 1, 1, 2, 1), 4, 2, 2, 2),
    ])
    def test_tie_cases_by_value(self, word, runs, peaks, lpeaks, desc):
        for w in (word, list(word)):
            assert pc.alternating_runs(w) == runs
            assert pc.interior_peaks(w) == peaks
            assert pc.left_peaks(w) == lpeaks
            assert pc.descents(w) == desc


class TestDistributions:
    def test_runs_match_printed_rows(self):
        assert pc.distribution("runs", 4).counts == {1: 2, 2: 12, 3: 10}
        assert pc.distribution("runs", 5).counts == {1: 2, 2: 28, 3: 58, 4: 32}

    def test_peak_rows(self):
        assert pc.distribution("peaks", 2).counts == {0: 2}
        assert pc.distribution("peaks", 3).counts == {0: 4, 1: 2}
        assert pc.distribution("peaks", 4).counts == {0: 8, 1: 16}

    def test_left_peak_rows(self):
        assert pc.distribution("leftpeaks", 2).counts == {0: 1, 1: 1}
        assert pc.distribution("leftpeaks", 3).counts == {0: 1, 1: 5}

    def test_altsubseq_rows(self):
        assert pc.distribution("altsubseq", 2).counts == {1: 1, 2: 1}
        # expansion of (1+x)(2x + 28x^2 + 58x^3 + 32x^4)/2
        assert pc.distribution("altsubseq", 5).counts == {
            1: 1, 2: 15, 3: 43, 4: 45, 5: 16,
        }

    def test_descent_rows(self):
        assert pc.distribution("descents", 2).counts == {0: 1, 1: 1}
        assert pc.distribution("descents", 4).counts == {0: 1, 1: 11, 2: 11, 3: 1}

    def test_accepts_enum_or_string(self):
        assert (
            pc.distribution(pc.Stat.RUNS, 3).counts
            == pc.distribution("runs", 3).counts
        )

    @pytest.mark.parametrize("stat", list(pc.Stat))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_totals_are_factorials(self, stat, n):
        assert sum(pc.distribution(stat, n).counts.values()) == factorial(n)


class TestInvariants:
    @given(perms_st)
    def test_left_peaks_bracket_interior_peaks(self, word):
        pk = pc.interior_peaks(word)
        lpk = pc.left_peaks(word)
        if len(word) >= 2:
            assert pk <= lpk <= pk + 1

    @given(perms_st)
    def test_run_count_bounds(self, word):
        runs = pc.alternating_runs(word)
        n = len(word)
        if n >= 2:
            assert 1 <= runs <= n - 1

    @given(perms_st)
    def test_peaks_become_valleys_under_complement(self, word):
        n = len(word)
        complement = [n + 1 - v for v in word]
        assert pc.interior_peaks(word) == interior_valleys(complement)

    @given(perms_st)
    def test_dp_agrees_with_exhaustive_scan(self, word):
        assert pc.longest_alt_subseq(word) == exhaustive_longest_alt(word)
