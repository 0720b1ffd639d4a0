"""Field arithmetic, polynomial and series behavior."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from runlab.exactnum import (
    NEG_INF,
    PowerSeries,
    QuadExt,
    RatPoly,
    cos_series,
    exp_series,
    sin_series,
)

F = Fraction

DISCRIMINANTS = [F(2), F(3, 4), F(5), F(-1), F(7, 3), F(1)]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def quad_triples(draw):
    d = draw(st.sampled_from(DISCRIMINANTS))
    return [
        QuadExt(draw(fractions_st), draw(fractions_st), d) for _ in range(3)
    ]


# ----------------------------------------------------------------------
# QuadExt


class TestQuadExt:
    def test_defining_relation(self):
        rho = QuadExt.root(F(3, 4))
        assert rho * rho == F(3, 4)

    def test_one_is_identity(self):
        u = QuadExt(F(2, 3), F(-5), 7)
        assert QuadExt(1, 0, 7) * u == u

    def test_conjugate_product(self):
        assert QuadExt(1, 1, 2) * QuadExt(1, -1, 2) == -1

    def test_div_root(self):
        assert QuadExt.root(2).inverse() == QuadExt(0, F(1, 2), 2)

    def test_div_by_one_and_zero_numerator(self):
        u = QuadExt(3, F(1, 5), 2)
        assert u / QuadExt(1, 0, 2) == u
        assert QuadExt(0, 0, 2) / u == 0

    def test_division_round_trip(self):
        u = QuadExt(2, 3, 5)
        v = QuadExt(F(1, 2), F(-4, 3), 5)
        assert (u / v) * v == u

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1, 2) / QuadExt(0, 0, 2)

    def test_zero_norm_with_square_discriminant(self):
        # 2 + sqrt(4) has norm 4 - 4*1 = 0 even though it is not "zero"
        with pytest.raises(ZeroDivisionError):
            QuadExt(2, 1, 4).inverse()

    def test_mismatched_discriminants(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 2) * QuadExt(1, 1, 3)
        with pytest.raises(ValueError):
            QuadExt(0, 1, 2) + QuadExt(0, 1, F(3, 4))

    def test_rational_embeds_into_any_field(self):
        assert QuadExt(3, 0, 7) * QuadExt.root(2) == QuadExt(0, 3, 2)
        assert QuadExt(2, 0, 11) == QuadExt(2, 0, 13) == 2

    def test_negative_powers(self):
        tau = QuadExt.root(F(2))
        assert tau ** (-3) == tau.inverse() ** 3
        assert tau ** (-2) * tau ** 2 == 1

    @given(quad_triples())
    def test_mul_associative_and_distributive(self, triple):
        u, v, w = triple
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w

    @given(quad_triples())
    def test_inverse_round_trip(self, triple):
        u, v, _ = triple
        if u.norm() != 0:
            assert (u * v) / u == v

    @given(quad_triples())
    def test_norm_is_multiplicative(self, triple):
        u, v, _ = triple
        assert (u * v).norm() == u.norm() * v.norm()

    def test_str(self):
        assert str(QuadExt(F(1, 2), F(-3), F(5))) == "1/2 - 3*sqrt(5)"
        assert str(QuadExt(0, 1, 2)) == "sqrt(2)"
        assert str(QuadExt(F(7, 3), 0, 2)) == "7/3"


# ----------------------------------------------------------------------
# RatPoly


class TestRatPoly:
    def test_derivative(self):
        assert RatPoly((0, 0, 0, 1)).derivative() == RatPoly((0, 0, 3))
        assert RatPoly((5,)).derivative() == RatPoly()

    def test_tangent_poly_chain(self):
        # (1 + x^2) d/dx applied twice to x
        p1 = RatPoly((1, 0, 1)) * RatPoly((0, 1)).derivative()
        assert p1 == RatPoly((1, 0, 1))
        p2 = RatPoly((1, 0, 1)) * p1.derivative()
        assert p2 == RatPoly((0, 2, 0, 2))
        assert p2(F(1)) == 4

    def test_eval_in_quadratic_field(self):
        rho = QuadExt.root(2)
        assert RatPoly((0, 0, 1))(rho) == 2
        assert RatPoly((1, 1))(F(0)) == 1

    def test_integral_coefficients_are_ints(self):
        p = RatPoly((2, 1))
        assert all(type(c) is int for c in (p * 3).coeffs)
        for bad in (F(1, 2), 1.0, True):
            with pytest.raises(TypeError):
                RatPoly((bad,))
        with pytest.raises(TypeError):
            p * F(1, 2)
        with pytest.raises(TypeError):
            p(RatPoly((0, 1)))

    def test_zero_degree_sentinel(self):
        assert RatPoly().degree == NEG_INF
        assert RatPoly((0, 0)).degree == NEG_INF
        assert RatPoly((1, 2)).degree == 1

    def test_stretch(self):
        assert RatPoly((1, 2, 3)).stretch(2) == RatPoly((1, 0, 2, 0, 3))

    def test_str(self):
        assert str(RatPoly((0, 2, 4))) == "2*x + 4*x^2"
        assert str(RatPoly((-3, -1, 0, 1))) == "-3 - x + x^3"
        assert str(RatPoly()) == "0"


# ----------------------------------------------------------------------
# Evaluation over integers, against products built by repeated ``*``

POINT_DISCRIMINANTS = DISCRIMINANTS + [F(9, 4), F(0)]

integral_coeffs_st = st.lists(st.integers(min_value=-60, max_value=60), max_size=10)


@st.composite
def points(draw):
    kind = draw(st.sampled_from(["int", "fraction", "quad", "rational quad"]))
    if kind == "int":
        return draw(st.integers(min_value=-7, max_value=7))
    if kind == "fraction":
        return draw(fractions_st)
    b = 0 if kind == "rational quad" else draw(fractions_st)
    return QuadExt(draw(fractions_st), b, draw(st.sampled_from(POINT_DISCRIMINANTS)))


def one_like(x):
    """The unit of the ring ``x`` lives in, of the type Horner returns."""
    if isinstance(x, QuadExt):
        return QuadExt(1, 0, x.d)
    return 1 if isinstance(x, int) else F(1)


def naive_power(x, k):
    acc = one_like(x)
    for _ in range(k):
        acc = acc * x
    return acc


def same(got, want):
    return type(got) is type(want) and got == want and repr(got) == repr(want)


class TestIntegerEvaluation:
    @given(integral_coeffs_st, points())
    def test_call_matches_sum_of_products(self, cs, x):
        # an empty sum is the int 0, as the zero polynomial's value must be
        want = 0
        for k, c in enumerate(RatPoly(cs).coeffs):
            want = want + c * naive_power(x, k)
        assert same(RatPoly(cs)(x), want)

    @given(quad_triples(), st.one_of(fractions_st, st.integers(-5, 5)))
    def test_rational_operands_act_as_embedded_elements(self, triple, r):
        u = triple[0]
        e = QuadExt(r, 0, u.d)
        pairs = [(u + r, u + e), (r + u, e + u), (u - r, u - e), (r - u, e - u),
                 (u * r, u * e), (r * u, e * u), (-u, e * 0 - u)]
        if r:
            pairs.append((u / r, u / e))
        if u.norm():
            pairs.append((u.inverse() * r, e / u))
        for got, want in pairs:
            assert same(got, want)

    @given(fractions_st, fractions_st, st.sampled_from(POINT_DISCRIMINANTS),
           st.integers(min_value=-8, max_value=30))
    def test_power_matches_repeated_multiplication(self, a, b, d, n):
        q = QuadExt(a, b, d)
        if n < 0 and q.norm() == 0:
            with pytest.raises(ZeroDivisionError):
                q ** n
            return
        want = naive_power(q, n) if n >= 0 else naive_power(q, -n).inverse()
        assert same(q ** n, want)

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=7),
           st.sampled_from([F(1), F(4), F(9, 4)]),
           st.integers(min_value=-8, max_value=-1))
    def test_zero_norm_powers_still_raise(self, b, d, n):
        # a = sqrt(d) * b makes a^2 - d b^2 = 0 for a square d
        root = F(isqrt(d.numerator), isqrt(d.denominator))
        q = QuadExt(root * b, b, d)
        if b == 0:
            with pytest.raises(ZeroDivisionError, match="^division by zero$"):
                q ** n
            return
        with pytest.raises(ZeroDivisionError, match="has zero norm"):
            q ** n
        assert same(q ** 2, q * q)


# ----------------------------------------------------------------------
# PowerSeries


class TestPowerSeries:
    def test_product(self):
        lhs = PowerSeries([1, 1, 0]) * PowerSeries([1, -1, 0])
        assert lhs == PowerSeries([1, 0, -1])

    def test_self_division_is_one(self):
        f = PowerSeries([1, 3, F(1, 2), -2, 7])
        assert f / f == PowerSeries([1, 0, 0, 0, 0])

    def test_geometric_series(self):
        assert 1 / PowerSeries([1, -1, 0, 0]) == PowerSeries([1, 1, 1, 1])

    def test_division_inverts_multiplication(self):
        f = PowerSeries([QuadExt(1, 1, 2), QuadExt(0, 3, 2), QuadExt(2, 0, 2)])
        g = PowerSeries([QuadExt(2, -1, 2), QuadExt(1, 0, 2), QuadExt(0, 1, 2)])
        assert (f * g) / g == f
        assert (f / g) * g == f

    def test_min_order_truncation(self):
        a = PowerSeries([1, 1, 1, 1, 1])
        b = PowerSeries([1, 2])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_non_invertible_constant_term(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries([1, 1]) / PowerSeries([0, 1])

    def test_sin_example(self):
        assert sin_series(1, 3) == PowerSeries([0, 1, 0, F(-1, 6)])

    def test_cos_of_root(self):
        rho = QuadExt.root(F(3, 4))
        assert cos_series(rho, 2) == PowerSeries([1, 0, F(-3, 8)])

    def test_exp_of_zero(self):
        assert exp_series(0, 7) == PowerSeries([1] + [0] * 7)

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.sampled_from(DISCRIMINANTS),
    )
    def test_sin_squared_plus_cos_squared(self, b, d):
        c = QuadExt(0, b, d)
        order = 9
        s = sin_series(c, order)
        co = cos_series(c, order)
        one = PowerSeries([1] + [0] * order)
        assert s * s + co * co == one

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.sampled_from(DISCRIMINANTS),
    )
    def test_exp_derivative(self, b, d):
        c = QuadExt(F(1, 2), b, d)
        e = exp_series(c, 10)
        # termwise d/dz of exp(c z) is c exp(c z), one order lower
        derivative = PowerSeries([e.coeffs[k] * k for k in range(1, 11)])
        assert derivative.coeffs == (e * c).coeffs[:10]

    def test_coefficient_out_of_range(self):
        with pytest.raises(IndexError):
            PowerSeries([1, 2]).coefficient(5)

    def test_discriminant_mismatch_rejected(self):
        # a series in sqrt(2) times one in sqrt(3): the field lives in the
        # coefficients, which refuse to combine
        with pytest.raises(ValueError):
            PowerSeries([QuadExt(1, 1, 2), 1]) * PowerSeries([QuadExt(1, 1, 3), 1])
