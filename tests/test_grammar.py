"""Grammar DSL, derivation operator, and their algebraic laws."""

import json

import pytest
from hypothesis import given, strategies as st

from runlab import grammar as gr
from tests.test_grammar_reference import as_ref, build, ref, ref_add, ref_mul, ref_scale


def mono(**exps):
    return gr.Monomial(exps)


@st.composite
def small_terms(draw, letters=("x", "y", "z")):
    """One to three (exponent dict, coefficient) terms over ``letters``."""
    return [({l: draw(st.integers(0, 2)) for l in letters}, draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(1, 3)))]


def mpolys(letters=("x", "y", "z")):
    return small_terms(letters).map(build)


small_ints = st.integers(-4, 4)


class TestParser:
    def test_builtin_sources_parse(self):
        for name in gr.BUILTIN_GRAMMARS:
            g = gr.builtin(name)
            assert g.alphabet

    def test_dumont_rules(self):
        g = gr.parse_grammar("x -> x*y; y -> x*y")
        xy = gr.MPoly.monomial({"x": 1, "y": 1})
        assert g.rules["x"] == xy and g.rules["y"] == xy

    def test_peaks_rules(self):
        g = gr.parse_grammar("y -> y*z; z -> y^2")
        assert g.rules["z"] == gr.MPoly.monomial({"y": 2})

    def test_schett_rules(self):
        g = gr.parse_grammar("x -> y*z; y -> x*z; z -> x*y")
        assert set(g.alphabet) == {"x", "y", "z"}

    def test_coefficients_and_sums(self):
        g = gr.parse_grammar("x -> 2*x^2*y + 3*y; y -> x")
        assert g.rules["x"] == gr.MPoly(
            [(mono(x=2, y=1), 2), (mono(y=1), 3)]
        )

    def test_like_terms_merge(self):
        g = gr.parse_grammar("x -> x*y + x*y; y -> x")
        assert g.rules["x"] == gr.MPoly.monomial({"x": 1, "y": 1}, 2)

    def test_unknown_character_reports_position(self):
        with pytest.raises(gr.GrammarError) as err:
            gr.parse_grammar("x -> x*% y")
        assert err.value.position == 7

    def test_non_decimal_digit_is_an_unknown_character(self):
        # '²' passes str.isdigit but int() refuses it
        for parse, text, at in ((gr.parse_word, "x^²", 2), (gr.parse_grammar, "x -> x^²", 7)):
            with pytest.raises(gr.GrammarError) as err:
                parse(text)
            assert str(err.value) == f"unknown character '²' (at position {at})"
        assert gr.parse_word("x^\u0663") == gr.MPoly.monomial({"x": 3})  # Arabic-Indic 3

    def test_duplicate_rule(self):
        with pytest.raises(gr.GrammarError, match="duplicate"):
            gr.parse_grammar("x -> x; x -> x*x")

    @pytest.mark.parametrize("spec, message, at", [
        ("x x*y", "expected ARROW, found 'x'", 2),
        ("x - y", "expected '->'", 2),
        ("x -> ;", "expected a coefficient or a letter", 5),
        ("x -> x y -> y", "expected ';' between rules", 7),
    ], ids=["no-arrow", "lone-minus", "empty-rule", "no-semicolon"])
    def test_syntax_error_names_what_was_expected(self, spec, message, at):
        with pytest.raises(gr.GrammarError) as err:
            gr.parse_grammar(spec)
        assert str(err.value) == f"{message} (at position {at})"
        assert err.value.position == at

    def test_trailing_semicolon_accepted(self):
        assert gr.parse_grammar("x -> x;").rules == {"x": gr.MPoly.monomial({"x": 1})}

    def test_zero_coefficient_rejected(self):
        with pytest.raises(gr.GrammarError, match="positive"):
            gr.parse_grammar("x -> 0*x")

    def test_zero_exponent_rejected(self):
        with pytest.raises(gr.GrammarError, match="positive"):
            gr.parse_grammar("x -> x^0")

    def test_unclosed_alphabet_rejected(self):
        with pytest.raises(gr.GrammarError, match="no rule"):
            gr.parse_grammar("x -> x*w")

    def test_rules_are_read_only(self):
        # parsed afresh: a writable builtin("main") would be shared by later tests
        g = gr.parse_grammar(gr.BUILTIN_GRAMMARS["main"])
        with pytest.raises(TypeError):
            g.rules["w"] = gr.MPoly.letter("w")
        assert g.alphabet == {"x", "y", "z"}
        rules = {"x": gr.MPoly.letter("x")}
        g = gr.Grammar(rules)
        rules["y"] = gr.MPoly.letter("y")
        del rules["x"]
        assert g.alphabet == {"x"}
        assert g.rules["x"] == gr.MPoly.letter("x")

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            gr.builtin("nope")

    def test_parse_word(self):
        assert gr.parse_word("x^2") == gr.MPoly.monomial({"x": 2})
        assert gr.parse_word("2*x*y") == gr.MPoly.monomial({"x": 1, "y": 1}, 2)
        with pytest.raises(gr.GrammarError):
            gr.parse_word("x + y")


class TestDerivation:
    def test_square_of_x(self):
        g = gr.builtin("main")
        assert gr.d_apply(g, gr.MPoly.monomial({"x": 2})) == gr.MPoly.monomial(
            {"x": 2, "y": 1}, 2
        )

    def test_xy_equals_xz(self):
        g = gr.builtin("main")
        expected = gr.MPoly(
            [(mono(x=1, y=1, z=1), 1), (mono(x=1, y=2), 1)]
        )
        assert gr.d_apply(g, gr.MPoly.monomial({"x": 1, "y": 1})) == expected
        assert gr.d_apply(g, gr.MPoly.monomial({"x": 1, "z": 1})) == expected

    def test_constants_die(self):
        g = gr.builtin("main")
        assert gr.d_apply(g, gr.parse_word("7")) == gr.MPoly()

    def test_unknown_letter(self):
        g = gr.builtin("dumont")
        with pytest.raises(ValueError, match="no rule"):
            gr.d_apply(g, gr.MPoly.letter("z"))

    def test_power_examples(self):
        g = gr.builtin("main")
        x2 = gr.MPoly.monomial({"x": 2})
        assert gr.d_power(g, x2, 0) == x2
        assert gr.d_power(g, x2, 2) == gr.MPoly(
            [(mono(x=2, y=1, z=1), 2), (mono(x=2, y=2), 4)]
        )
        gd = gr.builtin("dumont")
        assert gr.d_power(gd, gr.MPoly.letter("x"), 2) == gr.MPoly(
            [(mono(x=2, y=1), 1), (mono(x=1, y=2), 1)]
        )

    @pytest.mark.parametrize("n, error, message", [
        (True, TypeError, "derivative order must be an int, got True"),
        (False, TypeError, "derivative order must be an int, got False"),
        (2.0, TypeError, "derivative order must be an int, got 2.0"),
        ("1", TypeError, "derivative order must be an int, got '1'"),
        (-1, ValueError, "derivative order must be >= 0"),
    ], ids=["true", "false", "float", "str", "negative"])
    def test_bad_orders_refused(self, n, error, message):
        # one check for every derivation: a bool is not an order, and a
        # negative order fails the tower too instead of yielding nothing
        g = gr.builtin("main")
        x = gr.MPoly.letter("x")
        for derive in (gr.d_power, lambda g, p, n: list(gr.d_tower(g, p, n)),
                       lambda g, p, n: gr.leibniz_check(g, p, p, n)):
            with pytest.raises(error) as err:
                derive(g, x, n)
            assert str(err.value) == message

    @pytest.mark.parametrize("n", range(1, 16))
    def test_derivatives_of_xy_and_xz_agree(self, n):
        g = gr.builtin("main")
        xy = gr.MPoly.monomial({"x": 1, "y": 1})
        xz = gr.MPoly.monomial({"x": 1, "z": 1})
        assert gr.d_power(g, xy, n) == gr.d_power(g, xz, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_homogeneity_of_x_squared_expansion(self, n):
        g = gr.builtin("main")
        p = gr.d_power(g, gr.MPoly.monomial({"x": 2}), n)
        for m, _ in p.sorted_terms():
            assert m.degree_of("x") == 2
            assert m.degree_of("y") + m.degree_of("z") == n

    @given(small_terms(), small_terms(), small_ints, small_ints)
    def test_linearity(self, p, q, a, b):
        # D(a*p + b*q), with a*p + b*q built from the scaled terms, against
        # a*D(p) + b*D(q) summed by the reference
        g = gr.builtin("main")
        combo = build([(e, a * c) for e, c in p] + [(e, b * c) for e, c in q])
        assert as_ref(combo) == ref_add(ref_scale(ref(p), a), ref_scale(ref(q), b))
        dp, dq = (as_ref(gr.d_apply(g, build(t))) for t in (p, q))
        assert as_ref(gr.d_apply(g, combo)) == ref_add(ref_scale(dp, a), ref_scale(dq, b))

    @given(small_terms(), small_terms())
    def test_product_rule(self, p, q):
        # D(p*q), with p*q built from the reference product, against
        # D(p)*q + p*D(q) multiplied and summed by the reference
        g = gr.builtin("main")
        rp, rq = ref(p), ref(q)
        pq = build([(dict(k), c) for k, c in ref_mul(rp, rq).items()])
        dp, dq = (as_ref(gr.d_apply(g, build(t))) for t in (p, q))
        assert as_ref(gr.d_apply(g, pq)) == ref_add(ref_mul(dp, rq), ref_mul(rp, dq))

    @given(st.data(), st.integers(0, 6), st.sampled_from(sorted(gr.BUILTIN_GRAMMARS)))
    def test_leibniz_property(self, data, n, name):
        g = gr.builtin(name)
        letters = tuple(sorted(g.alphabet))
        u = data.draw(mpolys(letters=letters))
        v = data.draw(mpolys(letters=letters))
        assert gr.leibniz_check(g, u, v, n)

    def test_rule_alphabet_may_hold_undeclared_letters(self):
        # x*w - x*w keeps w in the alphabet of the rule for x at exponent 0
        # in every term; w has no rule, and compiling must ignore it
        xy, xy2 = gr.MPoly.monomial({"x": 1, "y": 1}), gr.MPoly.monomial({"x": 1, "y": 2})
        rule_x = gr.MPoly([(mono(x=1, y=1), 1), (mono(w=1, x=1), 1), (mono(w=1, x=1), -1)])
        assert rule_x._letters == ("w", "x", "y") and rule_x.letters() == ("x", "y")
        padded = gr.Grammar({"x": rule_x, "y": xy2})
        plain = gr.Grammar({"x": xy, "y": xy2})
        p = gr.MPoly([(mono(x=2, y=1), 1), (mono(x=70000, y=3), 5)])
        for n in range(5):
            assert gr.d_power(padded, p, n) == gr.d_power(plain, p, n)

    def test_leibniz_examples(self):
        g = gr.builtin("main")
        x, y = gr.MPoly.letter("x"), gr.MPoly.letter("y")
        assert gr.leibniz_check(g, x, x, 3)
        assert gr.leibniz_check(g, x, y, 5)
        assert gr.leibniz_check(g, x, y, 0)


class TestSerialization:
    def test_canonical_str(self):
        g = gr.builtin("main")
        p = gr.d_power(g, gr.MPoly.monomial({"x": 2}), 2)
        assert str(p) == "2*x^2*y*z + 4*x^2*y^2"
        assert str(gr.MPoly()) == "0"
        p = gr.MPoly([(gr.Monomial(), 5), (gr.Monomial({"x": 1}), -1),
                      (gr.Monomial({"y": 2}), -3), (gr.Monomial({"x": 1, "y": 1}), 1)])
        assert str(p) == "5 - 3*y^2 - x + x*y"
        assert str(gr.MPoly([(gr.Monomial(), -1), (gr.Monomial({"z": 1}), 2)])) == "-1 + 2*z"

    def test_json_term_list(self):
        g = gr.builtin("main")
        p = gr.d_power(g, gr.MPoly.monomial({"x": 2}), 2)
        obj = p.to_json_obj()
        assert obj == [
            {"coeff": "2", "mono": {"x": 2, "y": 1, "z": 1}},
            {"coeff": "4", "mono": {"x": 2, "y": 2}},
        ]
        json.dumps(obj)  # round-trippable

    def test_sorted_terms_are_deterministic(self):
        p = gr.MPoly(
            [(mono(x=1, y=2), 1), (mono(x=2, y=1), 1), (mono(y=1), 5)]
        )
        keys = [str(m) for m, _ in p.sorted_terms()]
        assert keys == ["y", "x*y^2", "x^2*y"]


class TestMonomialValidation:
    @pytest.mark.parametrize("exps", [{"x": True, "y": 2}, {"x": 1, "y": False}],
                             ids=["true", "false"])
    def test_bool_exponents_rejected(self, exps):
        # bool is an int subclass, but an exponent of True would
        # serialise as "x": true; the message is the one for any non-int
        letter = next(l for l, e in exps.items() if isinstance(e, bool))
        message = f"exponent of {letter!r} must be a nonnegative int"
        for build in (gr.Monomial, gr.MPoly.monomial):
            with pytest.raises(ValueError) as err:
                build(exps)
            assert str(err.value) == message

    @pytest.mark.parametrize("e", [-1, 1.0, "2", None])
    def test_other_non_ints_rejected(self, e):
        with pytest.raises(ValueError, match="must be a nonnegative int"):
            gr.Monomial({"x": e})


class TestMPolyBool:
    """bool coefficients are refused, as by RatPoly."""

    @pytest.mark.parametrize("b", [True, False])
    def test_bool_coefficients_rejected(self, b):
        with pytest.raises(TypeError, match="MPoly coefficients must be int"):
            gr.MPoly.monomial({"x": 1}, b)
        with pytest.raises(TypeError, match="MPoly coefficients must be int"):
            gr.MPoly([(gr.Monomial({"x": 1}), b)])
