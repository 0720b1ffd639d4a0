"""The grammar core against a literal reference.

The reference below works on plain ``{letter: exponent}`` dicts: a
polynomial is a dict from a monomial key (its sorted ``(letter,
exponent)`` pairs with exponent > 0) to a nonzero int coefficient, and
every operation is written out term by term from its definition, with
nothing taken from ``runlab.grammar``.
"""

import json
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from runlab import grammar as gr
from runlab import triangles

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


def ref_pow(p, n):
    out = {(): 1}
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_d(rules, p):
    """One derivation step: each occurrence of a letter replaced by its rule."""
    terms = []
    for k, c in p.items():
        for l, e in k:
            if l not in rules:
                raise ValueError(f"letter {l!r} has no rule in this grammar")
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
    """The reference form of an MPoly, read through its public terms()."""
    return {tuple(m.items()): c for m, c in p.terms()}


def build(terms):
    return gr.MPoly([(gr.Monomial(exps), c) for exps, c in terms])


# -- strategies ----------------------------------------------------------

subsets = st.lists(st.sampled_from(LETTERS), unique=True, max_size=len(LETTERS))


@st.composite
def term_lists(draw, letters=None, coeffs=st.integers(-3, 3), size=4):
    """Up to ``size`` terms over a random letter subset; zero exponents and
    zero coefficients included, as are the empty list and constants."""
    if letters is None:
        letters = draw(subsets)
    exps = st.fixed_dictionaries({l: st.integers(0, 3) for l in letters})
    return draw(st.lists(st.tuples(exps, coeffs), max_size=size))


@st.composite
def grammars(draw, letters=None):
    """(Grammar, reference rules) over a random nonempty alphabet."""
    if letters is None:
        letters = draw(subsets.filter(bool))
    rules = {}
    for l in letters:
        rules[l] = draw(term_lists(letters=letters, coeffs=st.integers(0, 3), size=2))
    g = gr.Grammar({l: build(terms) for l, terms in rules.items()})
    return g, {l: ref(terms) for l, terms in rules.items()}


@st.composite
def operands(draw):
    """(MPoly, reference) built through the public constructor, or as the
    derivative under a four-letter grammar, whose alphabet then often
    holds letters with exponent 0 in every term."""
    terms = draw(term_lists())
    p, r = build(terms), ref(terms)
    if draw(st.booleans()):
        g, rules = draw(grammars(letters=tuple(LETTERS)))
        p, r = gr.d_apply(g, p), ref_d(rules, r)
    return p, r


# -- properties ----------------------------------------------------------


class TestAgainstReference:
    @given(term_lists())
    def test_public_constructor(self, terms):
        assert as_ref(build(terms)) == ref(terms)

    @given(grammars(), operands())
    def test_d_apply(self, grammar, operand):
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

    @given(operands(), operands())
    def test_add_sub_neg(self, a, b):
        (p, r), (q, s) = a, b
        assert as_ref(p + q) == ref_add(r, s)
        assert as_ref(p - q) == ref_add(r, ref_scale(s, -1))
        assert as_ref(-p) == ref_scale(r, -1)

    @given(operands(), st.integers(-3, 3))
    def test_int_operands(self, a, k):
        p, r = a
        assert as_ref(k * p) == as_ref(p * k) == ref_scale(r, k)
        assert as_ref(p + k) == as_ref(k + p) == ref_add(r, ref([({}, k)]))
        assert as_ref(k - p) == ref_add(ref([({}, k)]), ref_scale(r, -1))

    @given(operands(), operands())
    def test_mul(self, a, b):
        (p, r), (q, s) = a, b
        assert as_ref(p * q) == ref_mul(r, s)

    @given(term_lists(size=3), st.integers(0, 4))
    def test_pow(self, terms, n):
        assert as_ref(build(terms) ** n) == ref_pow(ref(terms), n)

    @given(operands(), operands())
    def test_equality_is_reference_equality(self, a, b):
        (p, r), (q, s) = a, b
        assert (p == q) == (r == s)
        assert p == build([(dict(k), c) for k, c in r.items()])

    @given(operands())
    def test_serialization_order(self, a):
        p, r = a
        assert str(p) == ref_str(r)
        assert [(tuple(m.items()), c) for m, c in p.sorted_terms()] == ref_sorted(r)
        expected = [{"coeff": str(c), "mono": dict(k)} for k, c in ref_sorted(r)]
        assert json.dumps(p.to_json_obj()) == json.dumps(expected)
        occurring = sorted({l for k in r for l, _ in k})
        assert p.letters() == tuple(occurring)

    @given(operands(), term_lists(letters=LETTERS, coeffs=st.just(1)))
    def test_coefficient(self, a, probes):
        p, r = a
        for exps, _ in probes:
            assert p.coefficient(exps) == r.get(key(exps), 0)
            assert p.coefficient(gr.Monomial(exps)) == r.get(key(exps), 0)


class TestConstructionPaths:
    def test_letter_monomial_and_parser_agree(self):
        x = gr.MPoly.letter("x")
        assert x == gr.MPoly.monomial({"x": 1, "y": 0}) == gr.parse_word("x")
        assert x == gr.MPoly([(gr.Monomial({"x": 1, "z": 0}), 1)])
        assert gr.MPoly.constant(3) == 3 == gr.parse_word("3")
        assert gr.MPoly.zero() == 0 == gr.MPoly.constant(0)
        assert x != gr.MPoly.letter("y") and x != 1

    def test_derivative_equals_its_public_form(self):
        # d(z) = y^2 under the peaks grammar: z's column is all zero
        g = gr.builtin("peaks")
        dz = gr.d_apply(g, gr.MPoly.letter("z"))
        assert dz == gr.MPoly.monomial({"y": 2, "z": 0}) == gr.parse_word("y^2")
        assert dz.letters() == ("y",)
        assert list(dz.terms()) == [(gr.Monomial({"y": 2}), 1)]

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
