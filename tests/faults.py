"""Catalogue of injected faults, each pinned to the exact reports it fails.

A fault replaces one attribute of runlab with a broken version of it.
Its entry names the suite to run and the failing map: each report that
must fail, with its first failure; every other report must pass.  Run
one with

    PYTHONPATH=src python tests/faults.py NAME FORMAT

where FORMAT is plain, json or csv; it exits 2 with one line on stderr
for an unknown name, a wrong argument count or a fault that cannot be
installed.  With no argument the script lists the fault names, one a
line.  Imports only the standard library and runlab.

The failing maps are the one place a fault's failure texts are written.
Tier-1 reads them three ways: ``TestFaultCatalogue`` in
tests/test_identities.py runs each entry's suite against its whole map;
``FAULT_CALLS`` there, the per-check table, calls one check at its own
parameters and compares its first failure with the map's entry for the
report; and tests/test_cli.py prints runs-R52's in each output format.
"""

import sys

from runlab import cli, grammar, identities, permcore, triangles
from runlab.exactnum import PowerSeries


def corrupt_triangle(builder, n, k, delta=1):
    """Wrap a family builder so one entry, row n's k-th, comes out wrong."""

    def wrapped(n_max):
        tri = builder(n_max)
        if tri.start <= n <= tri.max_n and k < len(tri.row(n)):
            tri.row(n)[k] += delta
        return tri

    return wrapped


def bump(n, k, delta=1):
    """Wrap of a family builder: row n's k-th entry ``delta`` off."""
    return lambda real: corrupt_triangle(real, n, k, delta)


def aliasing(n, k, delta):
    """Wrap of a family builder: ``delta`` at row n's k-th entry and -1 at
    the next, which cancel when the row is read at X = ``delta``."""
    return lambda real: corrupt_triangle(corrupt_triangle(real, n, k, delta), n, k + 1, -1)


def replace(value):
    """Wrap that ignores the original and puts ``value`` in its place."""
    return lambda real: value


def redefine(stat, fn):
    """Wrap of ``permcore._STAT_FUNCS`` with ``stat`` defined by ``fn``."""
    return lambda real: {**real, stat: fn}


def restep(builder, steps, printed=True):
    """Wrap of ``triangles.FAMILIES`` with ``builder``'s recurrence stepped
    by ``steps``, its printed rows kept or, with ``printed`` false, dropped."""

    def wrap(real):
        spec = real[builder]
        return {**real, builder: spec._replace(steps=steps, seeds=spec.seeds if printed else {})}

    return wrap


def linear_tower(g, terms, width, n):
    """``grammar._tower`` without the exponent factor e: a linear map that
    replaces each letter occurrence by its rule, but not a derivation."""
    mask = (1 << width) - 1
    for _ in range(n):
        items, terms = terms.items(), {}
        for s, rule in g._fields(width):
            for delta, rc in rule:
                for k, c in items:
                    if k >> s & mask:
                        terms[k + delta] = terms.get(k + delta, 0) + c * rc
        yield terms


def plus_z_power(p):
    """Wrap of ``identities.sin_series``: every sine series gains z^p."""

    def wrap(real):
        def bumped(c, order):
            return real(c, order) + PowerSeries([0] * p + [1] + [0] * (order - p))

        return bumped

    return wrap


def left_peaks_on_ascent(w):
    """Left peaks with position 1 counted on an ascent, not a descent."""
    return (w[0] < w[1]) + permcore.interior_peaks(w) if len(w) > 1 else 0


def alt_subseq_opening_ascent(w):
    """The quadratic longest alternating subsequence DP (the reference in
    ``tests/test_permcore.py``) with need_asc reachable from the start, so
    a subsequence may open with an ascent.  Dropping only its
    ``need_asc[i] and`` guard is an equivalent mutant: an unreachable
    need_asc[i] = 0 offers length 1, which never beats need_desc[j] >= 1."""
    n = len(w)
    need_desc = [1] * n
    need_asc = [1] * n
    for j in range(n):
        for i in range(j):
            if w[i] > w[j]:
                need_asc[j] = max(need_asc[j], need_desc[i] + 1)
            else:
                need_desc[j] = max(need_desc[j], need_asc[i] + 1)
    return max(need_desc + need_asc)


def swap_dumont(real):
    """Wrap of ``grammar.builtin``: the dumont grammar reads y -> 2*x*y."""
    return lambda name: (grammar.parse_grammar("x -> x*y; y -> 2*x*y")
                         if name == "dumont" else real(name))


def move_class(real):
    """Wrap of ``permcore.descent_tables``: S_4's table swapped for a plain
    list that counts 1234's class under 1324's, so its sizes still sum to
    4! but it is wrong."""

    def moved(n_max):
        for table in real(n_max):
            if table.n == 4:
                sizes = dict(table)
                sizes[(1, 3, 2, 4)] += sizes.pop((1, 2, 3, 4))
                table = list(sizes.items())
            yield table

    return moved


#: name -> (suite, owner, attribute, wrap of its original, failing map
#: {identity: (n, point, lhs, rhs)} of the suite's reports that fail)
FAULTS = {
    # -- one entry per family builder, run through `all`: each wraps the
    # builder's own name, the one every reader calls (a second name such
    # as poly_R is the same function, but patching it reaches no reader),
    # and the map is the set of checks that read the family
    # R(5,3) + 1, as perfbench/selfcheck.py check 4 injects it
    "runs-R53": ("all", triangles, "triangle_R", bump(5, 3), {
        "closed/alt-from-runs": (5, "2 T_n = (1+x) R_n",
                                 "2*x + 30*x^2 + 86*x^3 + 90*x^4 + 32*x^5",
                                 "2*x + 30*x^2 + 87*x^3 + 91*x^4 + 32*x^5"),
        "closed/david-barton": (5, "x=1/2", "139/8", "69/4"),
        "closed/runs-from-peaks": (5, "R-form x=1/2", "139/8", "69/4"),
        "closed/tangent": (5, "R-form x=3/2", "3417/8", "1695/4"),
        "gf/carlitz[x0=1/2]": (4, "z^4", "275/96", "91/32"),
        "gf/carlitz[x0=1/3]": (4, "z^4", "1481/648", "184/81"),
        "grammar/runs": (4, "derivative of x^2",
                         "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
                         "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 59*x^2*y^3*z + 32*x^2*y^4"),
        "oracle/triangles": (5, "runs over S_5",
                             "{1:2, 2:28, 3:58, 4:32}", "{1:2, 2:28, 3:59, 4:32}"),
        "poly/convolutions": (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 28*x^2 + 59*x^3 + 32*x^4", "2*x + 28*x^2 + 58*x^3 + 32*x^4"),
        "poly/recurrences": (3, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'",
                             "2*x + 28*x^2 + 59*x^3 + 32*x^4", "2*x + 28*x^2 + 58*x^3 + 32*x^4"),
    }),
    # a_2(4) + 1, T_4's x^2 entry
    "alt-A42": ("all", triangles, "triangle_A", bump(4, 2), {
        "closed/alt-from-runs": (4, "2 T_n = (1+x) R_n",
                                 "2*x + 16*x^2 + 22*x^3 + 10*x^4",
                                 "2*x + 14*x^2 + 22*x^3 + 10*x^4"),
        "closed/runs-from-peaks": (4, "T-form x=1/2", "67/16", "63/16"),
        "gf/altsubseq[x0=1/2]": (4, "z^4", "101/192", "33/64"),
        "gf/altsubseq[x0=1/3]": (4, "z^4", "259/648", "32/81"),
        "gf/stanley[t0=1/2]": (4, "z^4", "67/384", "21/128"),
        "gf/stanley[t0=1/3]": (4, "z^4", "137/1944", "16/243"),
        "grammar/altsubseq": (4, "derivative of x",
                              "x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
                              "x*y*z^3 + 8*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4"),
        "oracle/triangles": (4, "altsubseq over S_4",
                             "{1:1, 2:7, 3:11, 4:5}", "{1:1, 2:8, 3:11, 4:5}"),
        "poly/convolutions": (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 28*x^2 + 58*x^3 + 32*x^4", "2*x + 30*x^2 + 58*x^3 + 32*x^4"),
        "poly/recurrences": (3, "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'",
                             "x + 8*x^2 + 11*x^3 + 5*x^4", "x + 7*x^2 + 11*x^3 + 5*x^4"),
    }),
    # a_3(5) + 1, the fault `verify all` must report in acceptance criterion 9
    "alt-A53": ("all", triangles, "triangle_A", bump(5, 3), {
        "closed/alt-from-runs": (5, "2 T_n = (1+x) R_n",
                                 "2*x + 30*x^2 + 88*x^3 + 90*x^4 + 32*x^5",
                                 "2*x + 30*x^2 + 86*x^3 + 90*x^4 + 32*x^5"),
        "closed/runs-from-peaks": (5, "T-form x=1/2", "209/16", "207/16"),
        "gf/altsubseq[x0=1/2]": (5, "z^5", "823/1920", "273/640"),
        "gf/altsubseq[x0=1/3]": (5, "z^5", "2953/9720", "368/1215"),
        "gf/stanley[t0=1/2]": (5, "z^5", "209/1920", "69/640"),
        "gf/stanley[t0=1/3]": (5, "z^5", "1033/29160", "128/3645"),
        "grammar/altsubseq": (5, "derivative of x",
                              "x*y*z^4 + 15*x*y^2*z^3 + 43*x*y^3*z^2 + 45*x*y^4*z + 16*x*y^5",
                              "x*y*z^4 + 15*x*y^2*z^3 + 44*x*y^3*z^2 + 45*x*y^4*z + 16*x*y^5"),
        "oracle/triangles": (5, "altsubseq over S_5",
                             "{1:1, 2:15, 3:43, 4:45, 5:16}", "{1:1, 2:15, 3:44, 4:45, 5:16}"),
        "poly/convolutions": (4, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 60*x^2 + 236*x^3 + 300*x^4 + 122*x^5",
                              "2*x + 60*x^2 + 238*x^3 + 300*x^4 + 122*x^5"),
        "poly/recurrences": (4, "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'",
                             "x + 15*x^2 + 44*x^3 + 45*x^4 + 16*x^5",
                             "x + 15*x^2 + 43*x^3 + 45*x^4 + 16*x^5"),
    }),
    # W(3,1) + 1
    "peaks-W31": ("all", triangles, "poly_W", bump(3, 1), {
        "closed/runs-from-peaks": (3, "T-form x=1/2", "3/2", "27/16"),
        "closed/tangent": (3, "W-form x=3/2", "17/2", "7"),
        "grammar/peaks": (3, "derivative of z", "4*y^2*z^2 + 2*y^4", "4*y^2*z^2 + 3*y^4"),
        "oracle/triangles": (3, "peaks over S_3", "{0:4, 1:2}", "{0:4, 1:3}"),
        "poly/convolutions": (3, "T_(n+1) = T_n + x^2 sum C(n,k) T_k W_(n-k)(x^2)",
                              "x + 7*x^2 + 11*x^3 + 5*x^4", "x + 7*x^2 + 11*x^3 + 6*x^4"),
    }),
    # Wt(3,1) + 1
    "leftpeaks-Wt31": ("all", triangles, "poly_Wtilde", bump(3, 1), {
        "grammar/peaks": (3, "derivative of y", "y*z^3 + 5*y^3*z", "y*z^3 + 6*y^3*z"),
        "oracle/triangles": (3, "leftpeaks over S_3", "{0:1, 1:5}", "{0:1, 1:6}"),
        "poly/convolutions": (3, "R_(n+2) = 2x Wt_n(x^2) + 2x sum C(n,k) R_(k+1) Wt_(n-k)(x^2)",
                              "2*x + 28*x^2 + 58*x^3 + 32*x^4", "2*x + 28*x^2 + 60*x^3 + 32*x^4"),
    }),
    # E(3,1) + 1, A_3's x^2 entry
    "euler-E31": ("all", triangles, "triangle_euler", bump(3, 1), {
        "closed/david-barton": (3, "x=1/2", "2", "9/4"),
        "grammar/eulerian": (3, "derivative of x",
                             "x*y^3 + 4*x^2*y^2 + x^3*y", "x*y^3 + 5*x^2*y^2 + x^3*y"),
        "oracle/triangles": (3, "descents over S_3", "{0:1, 1:4, 2:1}", "{0:1, 1:5, 2:1}"),
    }),
    # A_3's x entry + 1 breaks its palindrome, so the right-hand side leaves
    # Q: the extra (1-w)(1+w)^3 has odd part 2w - 2w^3
    "descents-A31": ("all", triangles, "poly_A", bump(3, 1), {
        "closed/david-barton": (3, "odd part of (1+w)^(n+1) A_n((1-w)/(1+w))",
                                "[2, -2]", "[0, 0]"),
    }),
    # P_2 + x^2: its odd part fails closed/tangent at n = 2
    "tangent-P2": ("all", triangles, "poly_P", bump(2, 2), {
        "closed/tangent": (2, "odd part of P_n", "[1, 0]", "[0, 0]"),
    }),
    # -- a wrong definition, run through `all`: a recurrence in
    # triangles.FAMILIES, which every builder reads when called
    # the shift-2 coefficient n-k+1 of the A table in place of R's n-k:
    # row 2 grows a third entry, R(2,2) = 1, that no permutation has
    "steps-R": ("all", triangles, "FAMILIES",
                restep("triangle_R", ((0, 1, 0, 0), (1, 0, 0, 2), (2, -1, 1, 1))), {
        "closed/alt-from-runs": (2, "2 T_n = (1+x) R_n", "2*x + 2*x^2", "2*x + 3*x^2 + x^3"),
        "closed/david-barton": (2, "x=1/2", "5/4", "1"),
        "closed/runs-from-peaks": (2, "R-form x=1/2", "5/4", "1"),
        "closed/tangent": (2, "R-form x=3/2", "21/4", "3"),
        "gf/carlitz[x0=0]": (1, "z^1", "1", "2"),
        "gf/carlitz[x0=1/2]": (2, "z^2", "15/4", "5/2"),
        "gf/carlitz[x0=1/3]": (1, "z^1", "5/3", "2"),
        "grammar/runs": (1, "derivative of x^2", "2*x^2*y", "2*x^2*y + x^2*y^2*z^-1"),
        "oracle/triangles": (2, "runs over S_2", "{1:2}", "{1:2, 2:1}"),
        "poly/convolutions": (1, "R_(n+1) = sum C(n,k) T_k T_(n-k)", "2*x + x^2", "2*x"),
        "poly/recurrences": (0, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'", "2*x + x^2", "2*x"),
    }),
    # the shift-0 coefficient 3k+2 in place of 2k+2: the asserted rows
    # W_2 and W_3 survive, W(4,1) reads 18 instead of 16
    "steps-W": ("all", triangles, "FAMILIES", restep("poly_W", ((0, 3, 0, 2), (1, -2, 1, 0))), {
        "closed/runs-from-peaks": (4, "T-form x=1/2", "63/16", "135/32"),
        "closed/tangent": (4, "W-form x=3/2", "35", "32"),
        "grammar/peaks": (4, "derivative of z", "8*y^2*z^3 + 16*y^4*z", "8*y^2*z^3 + 18*y^4*z"),
        "oracle/triangles": (4, "peaks over S_4", "{0:8, 1:16}", "{0:8, 1:18}"),
        "poly/convolutions": (4, "T_(n+1) = T_n + x^2 sum C(n,k) T_k W_(n-k)(x^2)",
                              "x + 15*x^2 + 43*x^3 + 45*x^4 + 16*x^5",
                              "x + 15*x^2 + 43*x^3 + 47*x^4 + 16*x^5"),
    }),
    # the shift-0 coefficient 2k+1 in place of k+1: E(3,1) reads 5
    "steps-euler": ("all", triangles, "FAMILIES",
                    restep("triangle_euler", ((0, 2, 0, 1), (1, -1, 1, 0))), {
        "closed/david-barton": (3, "x=1/2", "2", "9/4"),
        "grammar/eulerian": (3, "derivative of x",
                             "x*y^3 + 4*x^2*y^2 + x^3*y", "x*y^3 + 5*x^2*y^2 + x^3*y"),
        "oracle/triangles": (3, "descents over S_3", "{0:1, 1:4, 2:1}", "{0:1, 1:5, 2:1}"),
    }),
    # every permutation counted with one run too many
    "stat-runs": ("all", permcore, "_STAT_FUNCS",
                  redefine(permcore.Stat.RUNS, lambda w: permcore.alternating_runs(w) + 1), {
        "oracle/triangles": (1, "runs over S_1", "{1:1}", "{0:1}"),
    }),
    # position 1 a left peak on an ascent instead of a descent
    "stat-leftpeaks": ("all", permcore, "_STAT_FUNCS",
                       redefine(permcore.Stat.LEFT_PEAKS, left_peaks_on_ascent), {
        "grammar/peaks": (3, "left-peak histogram over S_3", "{0:3, 1:1, 2:2}", "{0:1, 1:5}"),
        "oracle/triangles": (3, "leftpeaks over S_3", "{0:3, 1:1, 2:2}", "{0:1, 1:5}"),
    }),
    # an alternating subsequence may open with an ascent
    "stat-altsubseq": ("all", permcore, "_STAT_FUNCS",
                       redefine(permcore.Stat.LONGEST_ALT_SUBSEQ, alt_subseq_opening_ascent), {
        "oracle/triangles": (2, "altsubseq over S_2", "{2:2}", "{1:1, 2:1}"),
    }),
    # S_4's class table wrong for all three of its readers
    "class-moved": ("all", permcore, "descent_tables", move_class, {
        "grammar/eulerian": (4, "descent histogram over S_4",
                             "{1:12, 2:11, 3:1}", "{0:1, 1:11, 2:11, 3:1}"),
        "grammar/peaks": (4, "interior-peak histogram over S_4", "{0:7, 1:17}", "{0:8, 1:16}"),
        "oracle/triangles": (4, "runs over S_4", "{1:1, 2:12, 3:11}", "{1:2, 2:12, 3:10}"),
    }),
    # the euler rows come from their recurrence, not from this grammar, so
    # y -> 2*x*y fails the triangle half on its own
    "dumont-swap": ("all", grammar, "builtin", swap_dumont, {
        "grammar/eulerian": (2, "derivative of x", "x*y^2 + 2*x^2*y", "x*y^2 + x^2*y"),
    }),
    # -- a fault aimed at one check, run through that check's suite
    # R(5,2) + 1, whose `verify grammar --n-max 6` output tests/test_cli.py pins
    "runs-R52": ("grammar", triangles, "triangle_R", bump(5, 2), {
        "grammar/runs": (4, "derivative of x^2",
                         "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
                         "2*x^2*y*z^3 + 29*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4"),
    }),
    # R(5,0) and a_0(4) are 0; a nonzero k = 0 entry must reach the
    # expected polynomial
    "runs-R50": ("grammar", triangles, "triangle_R", bump(5, 0), {
        "grammar/runs": (4, "derivative of x^2",
                         "2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4",
                         "x^2*z^4 + 2*x^2*y*z^3 + 28*x^2*y^2*z^2 + 58*x^2*y^3*z + 32*x^2*y^4"),
    }),
    "alt-A40": ("grammar", triangles, "triangle_A", bump(4, 0), {
        "grammar/altsubseq": (4, "derivative of x",
                              "x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4",
                              "x*z^4 + x*y*z^3 + 7*x*y^2*z^2 + 11*x*y^3*z + 5*x*y^4"),
    }),
    "peaks-W41": ("grammar", triangles, "poly_W", bump(4, 1), {
        "grammar/peaks": (4, "derivative of z", "8*y^2*z^3 + 16*y^4*z", "8*y^2*z^3 + 17*y^4*z"),
    }),
    # Wt_0 = 2, R_1 = 2 and T_0 = 2 against the seeds y, x^2 and x, before
    # any derivative is taken
    "leftpeaks-Wt0": ("grammar", triangles, "poly_Wtilde", bump(0, 0), {
        "grammar/peaks": (0, "derivative 0 of y", "y", "2"),
    }),
    "runs-R10": ("grammar", triangles, "triangle_R", bump(1, 0), {
        "grammar/runs": (0, "derivative 0 of x^2", "x^2", "2"),
    }),
    "alt-A00": ("grammar", triangles, "triangle_A", bump(0, 0), {
        "grammar/altsubseq": (0, "derivative 0 of x", "x", "2"),
    }),
    "euler-E41": ("grammar", triangles, "triangle_euler", bump(4, 1), {
        "grammar/eulerian": (4, "derivative of x",
                             "x*y^4 + 11*x^2*y^3 + 11*x^3*y^2 + x^4*y",
                             "x*y^4 + 12*x^2*y^3 + 11*x^3*y^2 + x^4*y"),
    }),
    # D no derivation: every grammar check fails
    "linear-tower": ("grammar", grammar, "_tower", replace(linear_tower), {
        "grammar/altsubseq": (3, "derivative of x",
                              "x*y*z^2 + 2*x*y^2*z + 2*x*y^3", "x*y*z^2 + 3*x*y^2*z + 2*x*y^3"),
        "grammar/eulerian": (3, "derivative of x",
                             "x*y^3 + 2*x^2*y^2 + x^3*y", "x*y^3 + 4*x^2*y^2 + x^3*y"),
        "grammar/leibniz": (6, "case 0: grammar=schett, u=y^2, v=3 + 2*x^2*z^2",
                            "12*y^2*z^6 + 30*y^4*z^4 + 18*y^4*z^8 + 12*y^6*z^2 + 36*y^6*z^6"
                            " + 18*y^8*z^4 + 12*x^2*z^6 + 72*x^2*y^2*z^4 + 36*x^2*y^2*z^8"
                            " + 72*x^2*y^4*z^2 + 114*x^2*y^4*z^6 + 12*x^2*y^6 + 114*x^2*y^6*z^4"
                            " + 36*x^2*y^8*z^2 + 30*x^4*z^4 + 18*x^4*z^8 + 72*x^4*y^2*z^2"
                            " + 114*x^4*y^2*z^6 + 30*x^4*y^4 + 180*x^4*y^4*z^4"
                            " + 114*x^4*y^6*z^2 + 18*x^4*y^8 + 12*x^6*z^2 + 36*x^6*z^6"
                            " + 12*x^6*y^2 + 114*x^6*y^2*z^4 + 114*x^6*y^4*z^2 + 36*x^6*y^6"
                            " + 18*x^8*z^4 + 36*x^8*y^2*z^2 + 18*x^8*y^4",
                            "12*y^2*z^6 + 30*y^4*z^4 + 128*y^4*z^8 + 12*y^6*z^2 + 178*y^6*z^6"
                            " + 18*y^8*z^4 + 12*x^2*z^6 + 72*x^2*y^2*z^4 + 512*x^2*y^2*z^8"
                            " + 72*x^2*y^4*z^2 + 1554*x^2*y^4*z^6 + 12*x^2*y^6"
                            " + 948*x^2*y^6*z^4 + 36*x^2*y^8*z^2 + 30*x^4*z^4 + 128*x^4*z^8"
                            " + 72*x^4*y^2*z^2 + 1776*x^4*y^2*z^6 + 30*x^4*y^4"
                            " + 2804*x^4*y^4*z^4 + 948*x^4*y^6*z^2 + 18*x^4*y^8 + 12*x^6*z^2"
                            " + 260*x^6*z^6 + 12*x^6*y^2 + 1776*x^6*y^2*z^4 + 1554*x^6*y^4*z^2"
                            " + 178*x^6*y^6 + 128*x^8*z^4 + 512*x^8*y^2*z^2 + 128*x^8*y^4"),
        "grammar/peaks": (2, "derivative of z", "y^2*z", "2*y^2*z"),
        "grammar/runs": (1, "derivative of x^2", "x^2*y", "2*x^2*y"),
    }),
    # R(6,3) + 1: both checks first read R_6 at n = 4
    "runs-R63": ("convolutions", triangles, "triangle_R", bump(6, 3), {
        "poly/convolutions": (4, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 60*x^2 + 237*x^3 + 300*x^4 + 122*x^5",
                              "2*x + 60*x^2 + 236*x^3 + 300*x^4 + 122*x^5"),
        "poly/recurrences": (4, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'",
                             "2*x + 60*x^2 + 237*x^3 + 300*x^4 + 122*x^5",
                             "2*x + 60*x^2 + 236*x^3 + 300*x^4 + 122*x^5"),
    }),
    # Wt(2,1) + 1: the first two formulas read only R and T, so the third
    # fails first
    "leftpeaks-Wt21": ("convolutions", triangles, "poly_Wtilde", bump(2, 1), {
        "poly/convolutions": (2, "R_(n+2) = 2x Wt_n(x^2) + 2x sum C(n,k) R_(k+1) Wt_(n-k)(x^2)",
                              "2*x + 12*x^2 + 10*x^3", "2*x + 12*x^2 + 12*x^3"),
    }),
    # +2^64 at x^2 and -1 at x^3 of T_4 cancel at X = 2^64, so a width
    # sized without the perturbed row would let this pass
    "alias-T4": ("convolutions", triangles, "triangle_A", aliasing(4, 2, 2 ** 64), {
        "poly/convolutions": (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 28*x^2 + 58*x^3 + 32*x^4",
                              "2*x + 36893488147419103260*x^2 + 56*x^3 + 32*x^4"),
        "poly/recurrences": (3, "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'",
                             "x + 18446744073709551623*x^2 + 10*x^3 + 5*x^4",
                             "x + 7*x^2 + 11*x^3 + 5*x^4"),
    }),
    # R_5 is only ever a left side at n = 3, where the right sides alone
    # would give X = 2^9: +2^9 at x^2 and -1 at x^3 cancel there
    "alias-R5": ("convolutions", triangles, "triangle_R", aliasing(5, 2, 2 ** 9), {
        "poly/convolutions": (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 540*x^2 + 57*x^3 + 32*x^4", "2*x + 28*x^2 + 58*x^3 + 32*x^4"),
        "poly/recurrences": (3, "R_(n+2) = x(nx+2)R_(n+1) + x(1-x^2)R_(n+1)'",
                             "2*x + 540*x^2 + 57*x^3 + 32*x^4", "2*x + 28*x^2 + 58*x^3 + 32*x^4"),
    }),
    "huge-T4": ("convolutions", triangles, "triangle_A", bump(4, 2, 3 ** 200), {
        "poly/convolutions": (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 28*x^2 + 58*x^3 + 32*x^4",
                              "2*x + 5312279777517495386775626440715592536584669053067889919"
                              "49149923478184981802604365988769398088030*x^2 + 58*x^3 + 32*x^4"),
        "poly/recurrences": (3, "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'",
                             "x + 26561398887587476933878132203577962682923345265339449597"
                             "4574961739092490901302182994384699044008*x^2 + 11*x^3 + 5*x^4",
                             "x + 7*x^2 + 11*x^3 + 5*x^4"),
    }),
    # T_4 with -7x^2 cancels R_5's x^2 term on the right
    "negated-T4": ("convolutions", triangles, "triangle_A", bump(4, 2, -14), {
        "poly/convolutions": (3, "R_(n+2) = 2 sum C(n,k) T_k T_(n-k+1)",
                              "2*x + 28*x^2 + 58*x^3 + 32*x^4", "2*x + 58*x^3 + 32*x^4"),
        "poly/recurrences": (3, "T_(n+1) = x(nx+1)T_n + x(1-x^2)T_n'",
                             "x - 7*x^2 + 11*x^3 + 5*x^4", "x + 7*x^2 + 11*x^3 + 5*x^4"),
    }),
    # R(4,2) + 1: carlitz reads R_(n+1) at z^n
    "runs-R42": ("gf", triangles, "triangle_R", bump(4, 2), {
        "gf/carlitz[x0=1/2]": (3, "z^3", "17/6", "11/4"),
        "gf/carlitz[x0=1/3]": (3, "z^3", "131/54", "64/27"),
    }),
    # R(4,3) + 1 on the diagonal R(n+1, n), the only entries that
    # gf/carlitz[x0=0] reads
    "diagonal-R43": ("gf", triangles, "triangle_R", bump(4, 3), {
        "gf/carlitz[x0=0]": (3, "z^3", "11/6", "5/3"),
        "gf/carlitz[x0=1/2]": (3, "z^3", "35/12", "11/4"),
        "gf/carlitz[x0=1/3]": (3, "z^3", "137/54", "64/27"),
    }),
    # z^p in the sine inside the shared q series: z^p picks up a rational
    # term against rho, so its coefficient leaves Q
    "sine-z3": ("gf", identities, "sin_series", plus_z_power(3), {
        "gf/altsubseq[x0=1/2]": (3, "z^3: sqrt component", "5/8 + 4/3*sqrt(3/4)", "0"),
        "gf/altsubseq[x0=1/3]": (3, "z^3: sqrt component", "14/27 + 9/8*sqrt(8/9)", "0"),
        "gf/carlitz[x0=0]": (3, "z^3: sqrt component", "5/3 + 2*sqrt(1)", "0"),
        "gf/carlitz[x0=1/2]": (3, "z^3: sqrt component", "11/4 + 8/3*sqrt(3/4)", "0"),
        "gf/carlitz[x0=1/3]": (3, "z^3: sqrt component", "64/27 + 9/4*sqrt(8/9)", "0"),
    }),
    "sine-z1": ("gf", identities, "sin_series", plus_z_power(1), {
        "gf/altsubseq[x0=1/2]": (1, "z^1: sqrt component", "1 + 4/3*sqrt(3/4)", "0"),
        "gf/altsubseq[x0=1/3]": (1, "z^1: sqrt component", "1 + 9/8*sqrt(8/9)", "0"),
        "gf/carlitz[x0=0]": (1, "z^1: sqrt component", "2 + 2*sqrt(1)", "0"),
        "gf/carlitz[x0=1/2]": (1, "z^1: sqrt component", "2 + 8/3*sqrt(3/4)", "0"),
        "gf/carlitz[x0=1/3]": (1, "z^1: sqrt component", "2 + 9/4*sqrt(8/9)", "0"),
    }),
}


def install(name, patch=setattr):
    """Inject fault ``name`` through ``patch(owner, attribute, value)`` and
    return the suite it must fail."""
    suite, owner, attr, wrap, _ = FAULTS[name]
    patch(owner, attr, wrap(getattr(owner, attr)))
    return suite


def _refuse(message):
    print(f"faults.py: {message}", file=sys.stderr)
    return 2


def main(argv):
    if not argv:
        print("\n".join(FAULTS))
        return 0
    if len(argv) != 2:
        return _refuse(f"usage: faults.py [NAME FORMAT], got {len(argv)} arguments")
    name, fmt = argv
    if name not in FAULTS:
        return _refuse(f"unknown fault {name!r}")
    try:
        suite = install(name)
    except Exception as exc:
        return _refuse(f"cannot install fault {name!r}: {type(exc).__name__}: {exc}")
    return cli.main(["verify", suite, "--format", fmt])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
