"""The grammar core against a literal reference.

The reference below works on plain ``{letter: exponent}`` dicts: a
polynomial is a dict from a monomial key (its sorted ``(letter,
exponent)`` pairs with exponent > 0) to a nonzero int coefficient, and
every operation is written out term by term from its definition, with
nothing taken from ``runlab.grammar``.

A second reference is the step-by-step derivation that the towers of
``runlab.grammar`` replaced, kept verbatim but for the letter that a
refusal names: one ``d_apply`` per step, each at the width its own
result needs, and a Leibniz check that aligns all 2n+2 derivatives
before it sums their products, with u*v taken by ``step_mul``.
``d_power``, ``d_apply`` and ``_leibniz_sides`` must equal it term for
term, and ``d_tower`` level by level.  Both references, like ``runlab.grammar``, refuse an operand by
naming its first letter without a rule in alphabetical order, whatever
the order of its terms.
"""

import json
from itertools import chain
from math import comb

import pytest
from hypothesis import given, strategies as st

from runlab import grammar as gr
from runlab import triangles
from runlab.grammar import Grammar, MPoly, _align, _fit, _mpoly, _mul_into, _repack

LETTERS = "wxyz"


# -- reference -----------------------------------------------------------


def key(exps):
    return tuple(sorted((l, e) for l, e in exps.items() if e))


def ref(terms):
    """Reference polynomial of ``(exponent dict, coefficient)`` terms,
    keeping the order in which monomials first appear."""
    out = {}
    for exps, c in terms:
        k = key(exps)
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_add(p, q):
    return ref((dict(k), c) for k, c in chain(p.items(), q.items()))


def ref_scale(p, a):
    return ref((dict(k), a * c) for k, c in p.items())


def ref_mul(p, q):
    terms = []
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            exps = dict(k1)
            for l, e in k2:
                exps[l] = exps.get(l, 0) + e
            terms.append((exps, c1 * c2))
    return ref(terms)


def ref_d(rules, p):
    """One derivation step: each occurrence of a letter replaced by its rule.
    A letter without a rule is refused, the first in alphabetical order."""
    missing = sorted({l for k in p for l, _ in k} - set(rules))
    if missing:
        raise ValueError(f"letter {missing[0]!r} has no rule in this grammar")
    terms = []
    for k, c in p.items():
        for l, e in k:
            rest = dict(k)
            rest[l] = e - 1
            for rk, rc in rules[l].items():
                exps = dict(rest)
                for rl, re in rk:
                    exps[rl] = exps.get(rl, 0) + re
                terms.append((exps, c * e * rc))
    return ref(terms)


def ref_sorted(p):
    """Terms ordered by exponent vector over the sorted letters that occur."""
    letters = sorted({l for k in p for l, _ in k})
    return sorted(p.items(), key=lambda kc: [dict(kc[0]).get(l, 0) for l in letters])


def ref_str(p):
    if not p:
        return "0"
    parts = []
    for k, c in ref_sorted(p):
        mono = "*".join(l if e == 1 else f"{l}^{e}" for l, e in k)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


def as_ref(p):
    """The reference form of an MPoly, read through its public sorted_terms()."""
    return {tuple(m.items()): c for m, c in p.sorted_terms()}


def build(terms):
    return gr.MPoly([(gr.Monomial(exps), c) for exps, c in terms])


# -- step reference ------------------------------------------------------


def step_mul(p: MPoly, q: MPoly) -> MPoly:
    """p*q by the product kernel the Leibniz check sums with, on packed
    keys at the width that holds the sum of their bounds."""
    top = p._top + q._top
    letters, (a, b) = _align((p, q), top)
    out: "dict[int, int]" = {}
    _mul_into(out, a, b)
    return _mpoly(letters, top, out)


def step_d_apply(g: Grammar, p: MPoly) -> MPoly:
    """One application of the derivation induced by ``g``.

    Acts linearly on terms and by the product rule inside each monomial:
    every letter occurrence is replaced, once, by its rule.  On packed
    keys over the grammar's alphabet, a term ``c * v`` whose field ``i``
    reads ``e`` contributes ``c * e * rc`` at ``v + delta`` for each
    compiled rule term ``(delta, rc)`` of letter ``i``.  A delta field of
    -1 is only added where that exponent is >= 1, so no field borrows,
    and the result's fields are widened first if ``g`` could raise an
    exponent to their top bit.
    """
    letters = g._letters
    if p._letters != letters:
        for letter in p.letters():
            if letter not in g.rules:
                raise ValueError(f"letter {letter!r} has no rule in this grammar")
    top = p._top + g._grow
    width = _fit(top)
    fields = g._fields(width)
    mask = (1 << width) - 1
    acc: "dict[int, int]" = {}
    for k, c in _repack(p, letters, width).items():
        for s, rule in fields:
            e = k >> s & mask
            if e:
                ce = c * e
                for delta, rc in rule:
                    m = k + delta
                    acc[m] = acc.get(m, 0) + ce * rc
    return _mpoly(letters, top, acc)


def step_d_power(g: Grammar, p: MPoly, n: int) -> MPoly:
    """n-fold application of :func:`step_d_apply`."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    for _ in range(n):
        p = step_d_apply(g, p)
    return p


def step_d_tower(g: Grammar, p: MPoly, n: int) -> "list[MPoly]":
    """D^1(p), ..., D^n(p), each by one :func:`step_d_apply` on the last."""
    levels = []
    for _ in range(n):
        p = step_d_apply(g, p)
        levels.append(p)
    return levels


def step_leibniz_sides(g: Grammar, u: MPoly, v: MPoly, n: int) -> "tuple[MPoly, MPoly]":
    """D^n(u*v) and sum_k C(n,k) D^k(u) D^(n-k)(v).

    The sum is accumulated in one dict of packed keys, every derivative
    aligned first to one alphabet and to the width that holds the
    exponents of each product.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    du = [u]
    dv = [v]
    for _ in range(n):
        du.append(step_d_apply(g, du[-1]))
        dv.append(step_d_apply(g, dv[-1]))
    top = max(du[k]._top + dv[n - k]._top for k in range(n + 1))
    letters, terms = _align(du + dv, top)
    acc: "dict[int, int]" = {}
    for k in range(n + 1):
        _mul_into(acc, terms[k], terms[2 * n + 1 - k], comb(n, k))
    return step_d_power(g, step_mul(u, v), n), _mpoly(letters, top, acc)


# -- strategies ----------------------------------------------------------

subsets = st.lists(st.sampled_from(LETTERS), unique=True, max_size=len(LETTERS))


small_exps = st.integers(0, 3)

#: The initial exponent field width.
W = gr._WIDTH

#: Exponents at the field boundary, mixed: small ones, ones of W-1, W and
#: W+1 bits (the exact edges of the top bit of a field included), and
#: ones far past any machine word.
wide_exps = st.one_of(
    small_exps,
    st.integers(2 ** (W - 2), 2 ** (W + 1) - 1),
    st.sampled_from([2 ** (W - 1) - 1, 2 ** (W - 1), 2 ** W - 1, 2 ** W]),
    st.integers(2 ** 62, 2 ** 130),
)

#: Exponents that still fit the initial width below its top bit, the
#: largest ones included.
narrow_top_exps = st.one_of(
    small_exps, st.integers(2 ** (W - 3), 2 ** (W - 1) - 1), st.just(2 ** (W - 1) - 1))


@st.composite
def term_lists(draw, letters=None, coeffs=st.integers(-3, 3), size=4, exps=small_exps):
    """Up to ``size`` terms over a random letter subset; zero exponents and
    zero coefficients included, as are the empty list and constants."""
    if letters is None:
        letters = draw(subsets)
    vectors = st.fixed_dictionaries({l: exps for l in letters})
    return draw(st.lists(st.tuples(vectors, coeffs), max_size=size))


@st.composite
def grammars(draw, letters=None, exps=small_exps):
    """(Grammar, reference rules) over a random nonempty alphabet."""
    if letters is None:
        letters = draw(subsets.filter(bool))
    rules = {}
    for l in letters:
        rules[l] = draw(term_lists(letters=letters, coeffs=st.integers(0, 3), size=2,
                                   exps=exps))
    g = gr.Grammar({l: build(terms) for l, terms in rules.items()})
    return g, {l: ref(terms) for l, terms in rules.items()}


@st.composite
def operands(draw, exps=small_exps):
    """(MPoly, reference) built through the public constructor, or as the
    derivative under a four-letter grammar, whose alphabet then often
    holds letters with exponent 0 in every term."""
    terms = draw(term_lists(exps=exps))
    p, r = build(terms), ref(terms)
    if draw(st.booleans()):
        g, rules = draw(grammars(letters=tuple(LETTERS), exps=exps))
        p, r = gr.d_apply(g, p), ref_d(rules, r)
    return p, r


wide_operands = operands(exps=wide_exps)


# -- properties ----------------------------------------------------------


def assert_d_apply_matches(grammar, operand):
    g, rules = grammar
    p, r = operand
    try:
        expected = ref_d(rules, r)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            gr.d_apply(g, p)
        assert str(err.value) == str(exc)
    else:
        assert as_ref(gr.d_apply(g, p)) == expected


def assert_serializes_like_reference(p, r):
    assert str(p) == ref_str(r)
    assert [(tuple(m.items()), c) for m, c in p.sorted_terms()] == ref_sorted(r)
    expected = [{"coeff": str(c), "mono": dict(k)} for k, c in ref_sorted(r)]
    assert json.dumps(p.to_json_obj()) == json.dumps(expected)
    occurring = sorted({l for k in r for l, _ in k})
    assert p.letters() == tuple(occurring)


class TestAgainstReference:
    @given(term_lists())
    def test_public_constructor(self, terms):
        assert as_ref(build(terms)) == ref(terms)

    @given(grammars(), operands())
    def test_d_apply(self, grammar, operand):
        assert_d_apply_matches(grammar, operand)

    @given(operands(), operands())
    def test_mul(self, a, b):
        (p, r), (q, s) = a, b
        assert as_ref(step_mul(p, q)) == ref_mul(r, s)

    @given(operands(), operands())
    def test_equality_is_reference_equality(self, a, b):
        (p, r), (q, s) = a, b
        assert (p == q) == (r == s)
        assert p == build([(dict(k), c) for k, c in r.items()])

    @given(operands())
    def test_serialization_order(self, a):
        assert_serializes_like_reference(*a)


class TestFieldBoundary:
    """The reference properties with exponents around and far past the
    initial field width, so results must widen their fields."""

    @given(grammars(exps=wide_exps), wide_operands)
    def test_d_apply(self, grammar, operand):
        assert_d_apply_matches(grammar, operand)

    @given(wide_operands, wide_operands)
    def test_mul(self, a, b):
        (p, r), (q, s) = a, b
        assert as_ref(step_mul(p, q)) == ref_mul(r, s)

    @given(term_lists(exps=narrow_top_exps, size=3), term_lists(exps=narrow_top_exps, size=3))
    def test_product_of_products(self, t, u):
        # factors that just fit W bits: (pq)^2 has exponents up to four
        # times theirs, so the bound of pq must count both factors even
        # though pq itself still fits
        pq, rs = step_mul(build(t), build(u)), ref_mul(ref(t), ref(u))
        assert as_ref(step_mul(pq, pq)) == ref_mul(rs, rs)

    @given(wide_operands, wide_operands)
    def test_equality_is_reference_equality(self, a, b):
        (p, r), (q, s) = a, b
        assert (p == q) == (r == s)
        assert p == build([(dict(k), c) for k, c in r.items()])

    @given(wide_operands)
    def test_serialization_order(self, a):
        assert_serializes_like_reference(*a)

    @given(grammars(letters=tuple(LETTERS), exps=wide_exps),
           term_lists(exps=wide_exps), term_lists(exps=wide_exps), st.integers(0, 3))
    def test_leibniz_holds(self, grammar, u_terms, v_terms, n):
        # every D is a derivation, so a False here is a carry between fields
        g, _ = grammar
        assert gr.leibniz_check(g, build(u_terms), build(v_terms), n)

    def test_equal_values_at_different_widths(self):
        # x + 2y + x^(2^40)*y - x^(2^40)*y is x + 2y, but its fields stay
        # as wide as x^(2^40) needed; it must still equal and print like it
        big = {"x": 2 ** 40, "y": 1}
        x = build([({"x": 1}, 1), ({"y": 1}, 2)])
        wide = build([({"x": 1}, 1), ({"y": 1}, 2), (big, 1), (big, -1)])
        assert gr._fit(wide._top) > gr._fit(x._top)
        assert wide == x and x == wide and not wide != x
        assert (str(wide), repr(wide)) == (str(x), repr(x)) == (
            "2*y + x", "MPoly(2*y + x)")
        assert wide.to_json_obj() == x.to_json_obj()
        assert wide.sorted_terms() == x.sorted_terms()
        assert wide.letters() == x.letters() == ("x", "y")


def assert_matches_step(fn, step, *args):
    """``fn(*args)`` raises the ValueError text of ``step(*args)``, or
    returns the same polynomials, term for term, with the same bound."""
    try:
        want = step(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            fn(*args)
        assert str(err.value) == str(exc)
        return
    got = fn(*args)
    if isinstance(want, MPoly):
        got, want = (got,), (want,)
    assert [(p._top, as_ref(p)) for p in got] == [(p._top, as_ref(p)) for p in want]


def assert_tower_matches_step(g, p, n):
    """``d_tower(g, p, n)`` raises the ValueError text of the step
    reference, or yields its levels, term for term.  Every level carries
    the bound of the last, so bounds are not compared."""
    try:
        want = step_d_tower(g, p, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            list(gr.d_tower(g, p, n))
        assert str(err.value) == str(exc)
        return
    assert [as_ref(q) for q in gr.d_tower(g, p, n)] == [as_ref(q) for q in want]


class TestAgainstStepReference:
    """The towers against the step-by-step derivation they replaced, on
    operands whose alphabet is seldom the grammar's, so letters without
    a rule are refused or dropped as there."""

    @given(grammars(), operands(), st.integers(0, 4))
    def test_d_power(self, grammar, operand, n):
        assert_matches_step(gr.d_power, step_d_power, grammar[0], operand[0], n)

    @given(grammars(), operands())
    def test_d_apply(self, grammar, operand):
        assert_matches_step(gr.d_apply, step_d_apply, grammar[0], operand[0])

    @given(grammars(), operands(), st.integers(0, 4))
    def test_d_tower(self, grammar, operand, n):
        assert_tower_matches_step(grammar[0], operand[0], n)

    @given(grammars(exps=wide_exps), wide_operands, st.integers(0, 3))
    def test_d_tower_past_the_field_width(self, grammar, operand, n):
        assert_tower_matches_step(grammar[0], operand[0], n)

    def test_d_tower_refusal_and_order_zero(self):
        # z and y have no rule: the refusal names y, and only once a level
        # is drawn; at order 0 nothing is yielded and no letter is checked
        g = gr.Grammar({"x": gr.MPoly.letter("x")})
        p = build([({"z": 1}, 1), ({"x": 1, "y": 2}, 3)])
        assert list(gr.d_tower(g, p, 0)) == step_d_tower(g, p, 0) == []
        assert_tower_matches_step(g, p, 2)
        with pytest.raises(ValueError) as err:
            next(gr.d_tower(g, p, 2))
        assert str(err.value) == "letter 'y' has no rule in this grammar"

    @given(grammars(), operands(), operands(), st.integers(0, 4))
    def test_leibniz_sides(self, grammar, u, v, n):
        assert_matches_step(gr._leibniz_sides, step_leibniz_sides,
                            grammar[0], u[0], v[0], n)

    @given(grammars(exps=wide_exps), wide_operands, st.integers(0, 3))
    def test_d_power_past_the_field_width(self, grammar, operand, n):
        assert_matches_step(gr.d_power, step_d_power, grammar[0], operand[0], n)

    @given(grammars(exps=wide_exps), wide_operands, wide_operands, st.integers(0, 3))
    def test_leibniz_sides_past_the_field_width(self, grammar, u, v, n):
        assert_matches_step(gr._leibniz_sides, step_leibniz_sides,
                            grammar[0], u[0], v[0], n)

    def test_leibniz_case_wider_than_either_operand(self):
        # u and v each fit W-bit fields, but u*v and its derivatives do
        # not: every tower of the case runs at the one wider width, and
        # both sides carry the one bound
        g = gr.builtin("main")
        u = gr.MPoly.monomial({"x": 2 ** (W - 2), "y": 1})
        v = build([({"x": 2 ** (W - 2), "z": 2}, 1), ({"y": 1}, 1)])
        n = 3
        top = u._top + v._top + n * g._grow
        assert gr._fit(top) > max(gr._fit(u._top), gr._fit(v._top))
        lhs, rhs = gr._leibniz_sides(g, u, v, n)
        assert lhs._top == rhs._top == top
        assert_matches_step(gr._leibniz_sides, step_leibniz_sides, g, u, v, n)
        assert gr.leibniz_check(g, u, v, n)


class TestConstructionPaths:
    def test_letter_monomial_and_parser_agree(self):
        x = gr.MPoly.letter("x")
        assert x == gr.MPoly.monomial({"x": 1, "y": 0}) == gr.parse_word("x")
        assert x == gr.MPoly([(gr.Monomial({"x": 1, "z": 0}), 1)])
        assert gr.MPoly.monomial({}, 3) == gr.parse_word("3")
        assert gr.MPoly() == gr.MPoly.monomial({}, 0)
        assert x != gr.MPoly.letter("y") and x != 1
        # an MPoly is never equal to an int, not even to its constant
        assert gr.MPoly.monomial({}, 3) != 3 and gr.MPoly() != 0

    def test_derivative_equals_its_public_form(self):
        # d(z) = y^2 under the peaks grammar: z's column is all zero
        g = gr.builtin("peaks")
        dz = gr.d_apply(g, gr.MPoly.letter("z"))
        assert dz == gr.MPoly.monomial({"y": 2, "z": 0}) == gr.parse_word("y^2")
        assert dz.letters() == ("y",)
        assert dz.sorted_terms() == [(gr.Monomial({"y": 2}), 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_derivative_equals_expansion(self, n):
        # the first derivative of x^2 has no z: its column is all zero
        g = gr.builtin("main")
        tri = triangles.triangle_R(n + 1)
        p = gr.d_power(g, gr.MPoly.monomial({"x": 2}), n)
        row = tri.row(n + 1)
        assert p == build([({"x": 2, "y": k, "z": n - k}, c) for k, c in enumerate(row)])

    def test_zero_column_of_a_letter_outside_the_grammar(self):
        # y^2 from the peaks grammar still carries a zero z column; a
        # grammar without z may derive it, but not a term that uses z
        only_y = gr.Grammar({"y": gr.MPoly.letter("y")})
        dz = gr.d_apply(gr.builtin("peaks"), gr.MPoly.letter("z"))
        assert gr.d_apply(only_y, dz) == gr.MPoly.monomial({"y": 2}, 2)
        dy = gr.d_apply(gr.builtin("peaks"), gr.MPoly.letter("y"))
        with pytest.raises(ValueError) as err:
            gr.d_apply(only_y, dy)
        assert str(err.value) == "letter 'z' has no rule in this grammar"

    def test_letter_without_rule_message(self):
        p = gr.MPoly([(gr.Monomial({"x": 1}), 1), (gr.Monomial({"w": 1, "z": 2}), 1)])
        with pytest.raises(ValueError) as err:
            gr.d_apply(gr.builtin("dumont"), p)
        assert str(err.value) == "letter 'w' has no rule in this grammar"
