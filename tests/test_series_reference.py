"""``PowerSeries`` products and quotients against a literal reference.

``ref_mul`` and ``ref_div`` are the term-by-term ``QuadExt`` loops that
one-reduction-per-coefficient arithmetic replaced, kept verbatim: every
partial product and partial sum is a reduced ``QuadExt``.  For operands
whose irrational coefficients share one field, both operations must give
the same coefficients, with the same ``str`` and, for every coefficient
with a sqrt component, the same field, and must raise the same errors,
messages included.  A rational coefficient carries a field that nothing
reads (it embeds into any), so its field is not compared.

Operands whose irrational coefficients lie in two fields are refused
before any arithmetic, also where the reference never meets two of
them and returns a value.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from runlab import exactnum
from runlab.exactnum import PowerSeries, QuadExt

F = Fraction


# -- reference -----------------------------------------------------------


def ref_mul(self, other):
    n = min(self.order, other.order)
    a, b = self._coeffs, other._coeffs
    out = []
    for k in range(n + 1):
        acc = a[0] * b[k]
        for i in range(1, k + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return PowerSeries(out)


def ref_div(self, other):
    n = min(self.order, other.order)
    g0 = other._coeffs[0]
    if g0.norm() == 0:
        raise ZeroDivisionError(
            f"series constant term {g0} is not invertible"
        )
    inv = g0.inverse()
    out: "list[QuadExt]" = []
    for k in range(n + 1):
        acc = self._coeffs[k]
        for j in range(1, k + 1):
            acc = acc - other._coeffs[j] * out[k - j]
        out.append(acc * inv)
    return PowerSeries(out)


# -- strategies ----------------------------------------------------------

rationals = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-5, max_value=5, max_denominator=9))
#: discriminants of every shape the checks meet, rational squares included
discriminants = st.sampled_from([F(3, 4), F(-1), F(2), F(-7, 3), F(5), F(1, 4), F(9), F(0)])


@st.composite
def coefficient(draw, d):
    """An element of Q(sqrt(d)), rational one time in three; a rational one
    is tagged with ``d`` or with another field, as series builders leave it."""
    a = draw(rationals)
    if draw(st.integers(0, 2)) == 0:
        return QuadExt(a, 0, draw(st.one_of(st.just(d), discriminants)))
    return QuadExt(a, draw(rationals), d)


@st.composite
def series(draw, d=None, rational=False, order=None):
    """A series in Q(sqrt(d)) (drawn when None), rational-only when asked."""
    d = draw(discriminants) if d is None else d
    order = draw(st.integers(0, 6)) if order is None else order
    if rational:
        return PowerSeries([draw(rationals) for _ in range(order + 1)])
    return PowerSeries([draw(coefficient(d)) for _ in range(order + 1)])


@st.composite
def zero_norm(draw, d):
    """A nonzero element of norm 0: r + sqrt(r^2) for a square ``d = r^2``,
    scaled; 0 itself when ``d`` is not a square."""
    r = {F(1, 4): F(1, 2), F(9): 3, F(0): 0}.get(d)
    if r is None or r == 0:
        return QuadExt(0, 0, d)
    b = draw(rationals.filter(bool))
    return QuadExt(draw(st.sampled_from([1, -1])) * r * b, b, d)


@st.composite
def series_pairs(draw):
    """Two series: in one field, in two fields, or one of them rational;
    the divisor's constant term is of norm zero one time in four."""
    kind = draw(st.sampled_from(["one field", "two fields", "rational", "both rational"]))
    d = draw(discriminants)
    f = draw(series(d))
    if kind == "one field":
        g = draw(series(d))
    elif kind == "two fields":
        g = draw(series(draw(discriminants.filter(lambda e: e != d))))
    else:
        g = draw(series(rational=True))
        if kind == "both rational":
            f = draw(series(rational=True))
    if draw(st.integers(0, 3)) == 0:
        g = PowerSeries((draw(zero_norm(g.coeffs[0].d)),) + g.coeffs[1:])
    return f, g


def outcome(fn, *args):
    """What ``fn(*args)`` gives, in terms both implementations share."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc), str(exc))
    return [(c.a, c.b, str(c), c.d if c.b else None) for c in value.coeffs]


def expected(op, f, g):
    """What ``op(f, g)`` must give: the reference's outcome, or, when the
    irrational coefficients of the truncated operands lie in two fields,
    the refusal naming the first two in operand order.  A quotient refuses
    a constant term of norm zero first, as the reference does."""
    ref = ref_mul if op is operator.mul else ref_div
    n = min(f.order, g.order)
    ds = [c.d for c in f.coeffs[: n + 1] + g.coeffs[: n + 1] if c.b]
    other = next((d for d in ds if d != ds[0]), None)
    if other is None or ref is ref_div and g.coeffs[0].norm() == 0:
        return outcome(ref, f, g)
    return ("raises", ValueError, f"mismatched discriminants: sqrt({ds[0]}) vs sqrt({other})")


# -- differential tests --------------------------------------------------


class TestAgainstReference:
    @given(series_pairs())
    def test_products(self, pair):
        f, g = pair
        assert outcome(operator.mul, f, g) == expected(operator.mul, f, g)
        assert outcome(operator.mul, g, f) == expected(operator.mul, g, f)

    @given(series_pairs())
    def test_quotients(self, pair):
        f, g = pair
        assert outcome(operator.truediv, f, g) == expected(operator.truediv, f, g)
        assert outcome(operator.truediv, g, f) == expected(operator.truediv, g, f)

    def test_two_fields_refuse_with_the_reference_text(self):
        f = PowerSeries([QuadExt(1, 1, 2), 1, 0])
        g = PowerSeries([QuadExt(1, 1, 3), QuadExt(0, 2, 3), 1])
        for op, ref in ((operator.mul, ref_mul), (operator.truediv, ref_div)):
            got = outcome(op, f, g)
            assert got == outcome(ref, f, g)
            assert got == ("raises", ValueError, "mismatched discriminants: sqrt(2) vs sqrt(3)")

    def test_zero_norm_constant_term_refused_before_the_fields(self):
        # 2 + sqrt(4) has norm 0, and its field differs from the dividend's
        f = PowerSeries([QuadExt(1, 1, 2), 1])
        g = PowerSeries([QuadExt(2, 1, 4), QuadExt(0, 1, 4)])
        got = outcome(operator.truediv, f, g)
        assert got == outcome(ref_div, f, g)
        assert got == ("raises", ZeroDivisionError,
                       "series constant term 2 + sqrt(4) is not invertible")

    def test_two_fields_refused_where_no_two_irrationals_meet(self):
        # every partial product pairs a sqrt with a 0, so the reference
        # returns a value; the operands still lie in two fields
        f = PowerSeries([0, QuadExt.root(2)])
        g = PowerSeries([0, QuadExt.root(3)])
        assert [str(c) for c in ref_mul(f, g).coeffs] == ["0", "0"]
        assert outcome(operator.mul, f, g) == (
            "raises", ValueError, "mismatched discriminants: sqrt(2) vs sqrt(3)")
        assert outcome(operator.mul, g, f) == (
            "raises", ValueError, "mismatched discriminants: sqrt(3) vs sqrt(2)")
        h = PowerSeries([1, QuadExt.root(3)])
        assert [str(c) for c in ref_div(f, h).coeffs] == ["0", "sqrt(2)"]
        assert outcome(operator.truediv, f, h) == (
            "raises", ValueError, "mismatched discriminants: sqrt(2) vs sqrt(3)")

    @pytest.mark.parametrize("scalar", [2, F(1, 2), QuadExt.root(2)],
                             ids=["int", "Fraction", "QuadExt"])
    def test_no_division_by_a_scalar(self, scalar):
        f = PowerSeries([1, QuadExt.root(2)])
        with pytest.raises(TypeError):
            f / scalar
        assert scalar / PowerSeries([1, 0]) == PowerSeries([scalar, 0])


class TestOneReductionPerCoefficient:
    @pytest.mark.parametrize("op, extra", [(operator.mul, 0), (operator.truediv, 1)],
                             ids=["product", "quotient"])
    def test_reductions_counted(self, monkeypatch, op, extra):
        # order 8 in one field: one reduction per coefficient, plus the
        # inverse of the divisor's constant term for a quotient
        rho = QuadExt.root(F(3, 4))
        f = exactnum.sin_series(rho, 8) + 1
        g = exactnum.cos_series(rho, 8) * F(2, 3) + exactnum.exp_series(rho, 8)
        calls = []
        real = exactnum._quad

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exactnum, "_quad", counted)
        op(f, g)
        assert len(calls) == 9 + extra
