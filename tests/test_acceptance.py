"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every comparison in this module is exact (integer/rational equality);
the only numeric tolerances are the stated wall-clock budgets.  Each test
prints one summary line (visible with ``pytest -s``); the per-test
PASSED/FAILED line of ``pytest -v`` serves the same purpose when output
capture is on.
"""

import random
import time
from fractions import Fraction

from runlab import cli, grammar, identities as idn, triangles
from runlab.exactnum import QuadExt, RatPoly
from tests import faults

F = Fraction


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def best_of(k, fn):
    return min(timed(fn)[1] for _ in range(k))


def report(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


def test_criterion_1_printed_tables():
    def generate_and_compare():
        t = triangles.triangle_R(5)
        assert t.row(2) == [0, 2]
        assert t.row(3) == [0, 2, 4]
        assert t.row(4) == [0, 2, 12, 10]
        assert t.row(5) == [0, 2, 28, 58, 32]
        W = triangles.poly_W(3)
        assert W[3] == RatPoly((4, 2))
        Wt = triangles.poly_Wtilde(3)
        assert Wt[3] == RatPoly((1, 5))

    generate_and_compare()  # correctness (and warm-up)
    elapsed = best_of(3, generate_and_compare)
    assert elapsed < 0.001, f"{elapsed * 1000:.3f} ms >= 1 ms"
    report(1, f"printed rows match exactly in {elapsed * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence():
    result, elapsed = timed(lambda: idn.check_oracle(8))
    assert result.passed, result.first_failure
    assert elapsed < 5.0, f"{elapsed:.2f} s >= 5 s"
    report(2, f"five triangles == S_1..S_8 histograms in {elapsed:.2f} s")


def test_criterion_3_main_grammar_expansions():
    def both():
        runs = idn.check_grammar_runs(12)
        alt = idn.check_grammar_alt(12)
        return runs, alt

    (runs, alt), elapsed = timed(both)
    assert runs.passed, runs.first_failure
    assert alt.passed, alt.first_failure
    assert elapsed < 2.0, f"{elapsed:.2f} s >= 2 s"
    report(3, f"derivative coefficients match triangles for n <= 12 in {elapsed:.2f} s")


def test_criterion_4_descent_and_peak_grammars():
    eulerian = idn.check_dumont(12, oracle_n_max=8)
    assert eulerian.passed, eulerian.first_failure
    peaks = idn.check_peaks_grammar(12, oracle_n_max=8)
    assert peaks.passed, peaks.first_failure
    report(4, "eulerian and peak expansions match polynomials and oracle")


def test_criterion_5_leibniz_random_cases():
    cases = 0
    rng = random.Random(987654)
    names = sorted(grammar.BUILTIN_GRAMMARS)
    for _ in range(120):
        g = grammar.builtin(rng.choice(names))
        letters = tuple(sorted(g.alphabet))
        terms_u = [
            (grammar.Monomial({l: rng.randint(0, 2) for l in letters}), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        terms_v = [
            (grammar.Monomial({l: rng.randint(0, 2) for l in letters}), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        u, v = grammar.MPoly(terms_u), grammar.MPoly(terms_v)
        n = rng.randint(0, 10)
        assert grammar.leibniz_check(g, u, v, n), (g, u, v, n)
        cases += 1
    assert cases >= 100
    report(5, f"product-rule identity exact in {cases} random cases, n <= 10")


def test_criterion_6_convolutions():
    result, elapsed = timed(lambda: idn.check_convolutions(20))
    assert result.passed, result.first_failure
    assert elapsed < 1.0, f"{elapsed:.2f} s >= 1 s"
    report(6, f"all five convolution formulas exact for n <= 20 in {elapsed:.2f} s")


def test_criterion_7_closed_forms():
    half = idn.check_alt_from_runs(25)
    assert half.passed, half.first_failure

    peaks_form = idn.check_runs_from_peaks(20)
    assert peaks_form.passed, peaks_form.first_failure
    assert peaks_form.params["points"] >= 22

    tangent = idn.check_tangent_forms(12)
    assert tangent.passed, tangent.first_failure
    assert tangent.params["points"] >= 2 * 12 + 3

    db = idn.check_david_barton(12)
    assert db.passed, db.first_failure
    assert db.params["points"] >= 2 * 12 + 3

    # the sqrt component of a sampled radical evaluation is exactly zero
    x = F(7, 3)
    P5 = triangles.poly_P(5)[5]
    sigma = QuadExt.root(x - 1)
    value = sigma**6 * P5(sigma.inverse()) / x
    assert value.b == 0 and value.a == triangles.poly_W(5)[5](x)
    report(7, "closed forms exact at all sample points, radical parts zero")


def test_criterion_8_generating_functions():
    for x0 in (F(0), F(1, 3), F(1, 2)):
        result, elapsed = timed(lambda x0=x0: idn.check_carlitz(x0, order=12))
        assert result.passed, (x0, result.first_failure)
        assert elapsed < 2.0
    for t0 in (F(1, 3), F(1, 2)):
        result, elapsed = timed(lambda t0=t0: idn.check_stanley_gf(t0, order=12))
        assert result.passed, (t0, result.first_failure)
        assert elapsed < 2.0
    for x0 in (F(1, 3), F(1, 2)):
        result, elapsed = timed(lambda x0=x0: idn.check_altsubseq_gf(x0, order=12))
        assert result.passed, (x0, result.first_failure)
        assert elapsed < 2.0
    report(8, "all three EGFs match triangle coefficients through order 12")


def test_criterion_9_cli_contract(capsys, monkeypatch):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].endswith("checks passed")

    faults.install("alt-A53", monkeypatch.setattr)
    code = cli.main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "counterexample" in out
    assert "lhs = " in out and "rhs = " in out
    report(9, "verify all exits 0 when correct, 1 with counterexample when corrupted")


def test_every_check_in_the_harness_passes():
    reports = idn.run_suite("all")
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    assert len(reports) == 19
