"""Field arithmetic, polynomial and series behavior."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from runlab.exactnum import (
    PowerSeries,
    QuadExt,
    RatPoly,
    cos_series,
    exp_series,
    horner,
    kron,
    sin_series,
    unkron,
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

# zeros drawn often, so products cancel and results need trimming
coeff_lists_st = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-2 ** 70, max_value=2 ** 70)),
    max_size=8,
)


def trimmed(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_add(a, b):
    n = max(len(a), len(b))
    return trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n))


def schoolbook_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


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

    def test_trailing_zeros_trimmed(self):
        assert RatPoly((0, 0)).coeffs == RatPoly().coeffs == ()
        assert RatPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert RatPoly((0, 0)) == RatPoly()

    def test_constructor_refuses_non_int_coefficients(self):
        # results of +, * and derivative skip this check; the public
        # constructor keeps it
        for bad in (True, [F(1, 2)], [1.0], [1, True], [2, 0.0]):
            with pytest.raises(TypeError):
                RatPoly(bad)

    @given(coeff_lists_st, coeff_lists_st, st.integers(min_value=-5, max_value=5))
    def test_arithmetic_equals_schoolbook(self, a, b, s):
        p, q = RatPoly(a), RatPoly(b)
        results = [
            (p + q, schoolbook_add(a, b)),
            (q + p, schoolbook_add(a, b)),
            (p * q, schoolbook_mul(a, b)),
            (q * p, schoolbook_mul(a, b)),
            (p.derivative(), trimmed(k * a[k] for k in range(1, len(a)))),
            (p + s, schoolbook_add(a, [s])),
            (s + p, schoolbook_add(a, [s])),
            (p * s, schoolbook_mul(a, [s])),
            (s * p, schoolbook_mul(a, [s])),
        ]
        for got, want in results:
            assert got.coeffs == want
            assert all(type(c) is int for c in got.coeffs)
            assert got == RatPoly(want)
        # the operands are values: no result shares or edits their coefficients
        assert p.coeffs == trimmed(a) and q.coeffs == trimmed(b)

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

    def test_empty_series_and_negative_order_refused(self):
        with pytest.raises(ValueError, match="^a series needs at least its constant coefficient$"):
            PowerSeries([])
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            sin_series(1, -1)

    def test_bool_refused(self):
        # True is an int to isinstance, but not a rational to exactnum
        for build in (lambda: QuadExt(True, 0, 2), lambda: QuadExt(1, False, 2),
                      lambda: QuadExt.root(True), lambda: PowerSeries([True]),
                      lambda: exp_series(True, 3)):
            with pytest.raises(TypeError, match="got bool"):
                build()

    def test_bool_operand_refused(self):
        # arithmetic refuses True where it would compute with 1; == does not
        q, s = QuadExt.root(2), PowerSeries([1, QuadExt.root(2)])
        for op in (lambda: q + True, lambda: True + q, lambda: q - True, lambda: True - q,
                   lambda: q * True, lambda: True * q, lambda: q / True, lambda: True / q,
                   lambda: s + True, lambda: True + s, lambda: s * True, lambda: True * s,
                   lambda: True - s, lambda: True / s, lambda: RatPoly((1, 1))(True),
                   lambda: q ** True):
            with pytest.raises(TypeError, match="bool"):
                op()
        assert QuadExt(1, 0, 2) == True and QuadExt(0) == False

    def test_discriminant_mismatch_rejected(self):
        # a series in sqrt(2) times one in sqrt(3): the field lives in the
        # coefficients, which refuse to combine
        with pytest.raises(ValueError):
            PowerSeries([QuadExt(1, 1, 2), 1]) * PowerSeries([QuadExt(1, 1, 3), 1])


# ----------------------------------------------------------------------
# Integer rows


def homogenised(row, p, q):
    """sum_k c_k p^k q^(deg-k), deg = len(row) - 1, term by term."""
    deg = len(row) - 1
    return sum(c * p ** k * q ** (deg - k) for k, c in enumerate(row))


class TestIntegerRows:
    def test_horner_equals_the_homogenised_sum(self):
        # seeded rows with negative entries, at negative and huge p and q,
        # among them the many-thousand-bit p = 1 - 2^b of the w-expansion
        rng = random.Random(20241020)
        big = 1 << 5000
        pairs = [(3, 5), (-7, 2), (2, -9), (-4, -11), (0, 3), (5, 0), (1 - big, 1 + big),
                 (-(3 ** 900), 7 ** 400), (2 ** 64 + 1, -(2 ** 61))]
        for _ in range(40):
            row = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(rng.randint(1, 12))]
            for p, q in pairs:
                assert horner(row, p, q) == (homogenised(row, p, q), q ** (len(row) - 1))

    @pytest.mark.parametrize("p, q", [(3, 5), (-7, 2), (1 - (1 << 4000), 1 + (1 << 4000))])
    def test_horner_on_short_rows(self, p, q):
        # a single entry is its own value over q^0; no entries give (0, 1)
        assert horner([-12], p, q) == (-12, 1)
        assert horner([0], p, q) == (0, 1)
        assert horner([], p, q) == (0, 1)

    @pytest.mark.parametrize("bits", [1, 7, 8, 12, 32, 64, 96, 200])
    @pytest.mark.parametrize("row", [
        [], [0], [1], [3, 0, 1], [0, 0, 5], [255, 1, 0, 7],
        [-1], [4, -3, 2], [2, 0, -3 ** 80], [2 ** 64, 1], [3 ** 200, 0, 2], [1, -(2 ** 64), 0],
    ])
    def test_kron_equals_horner(self, row, bits):
        # the byte packing and its Horner fallback give the same value,
        # also for negative entries and entries wider than a field
        value = 0
        for c in reversed(row):
            value = value * 2 ** bits + c
        assert kron(row, bits) == value
        assert kron(row, bits) == horner(row, 2 ** bits, 1)[0]

    @given(st.integers(min_value=2, max_value=160).flatmap(lambda bits: st.tuples(
        st.just(bits),
        st.lists(st.integers(min_value=-(2 ** (bits - 1)), max_value=2 ** (bits - 1) - 1),
                 max_size=12))))
    def test_unkron_inverts_kron(self, case):
        # a list, without the row's trailing zeros
        bits, row = case
        got = unkron(kron(row, bits), bits)
        assert type(got) is list
        assert tuple(got) == trimmed(row)
        assert not got or got[-1] != 0
