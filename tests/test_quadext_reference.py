"""``QuadExt`` and ``RatPoly`` evaluation at ``QuadExt`` points against a
literal reference.

``QuadExt`` in this module is the reference: the ``Fraction``-component
implementation that the integer form ``(A + B*sigma)/D`` replaced, kept
verbatim, so each element holds three eagerly normalised ``Fraction``s;
``ref_eval`` is the ``QuadExt`` branch of its ``RatPoly.__call__``.  Every
operation of ``exactnum.QuadExt`` must give the same value, the same
``str``/``repr``, the same ``a``/``b``/``d`` and the same errors, messages
included.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from runlab import exactnum

F = Fraction


# -- reference -----------------------------------------------------------


def _fr(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class QuadExt:
    """``a + b*rho`` with ``rho**2 = d``, all components rational.

    The discriminant is data, not a type parameter: one class serves
    sqrt(1-x^2), sqrt((1-x)/(1+x)), sqrt(x-1), ... at every base point.
    Elements with different discriminants refuse to combine, except that a
    purely rational element (``b == 0``) embeds into any Q(sqrt(d)).
    Plain ``int``/``Fraction`` operands combine with the rational
    component directly.  ``d`` may be a rational square; the arithmetic
    does not care.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational = 0, d: Rational = 0):
        object.__setattr__(self, "a", _fr(a))
        object.__setattr__(self, "b", _fr(b))
        object.__setattr__(self, "d", _fr(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @staticmethod
    def root(d: Rational) -> "QuadExt":
        """The element rho = sqrt(d) itself."""
        return QuadExt(0, 1, d)

    # -- coercion ------------------------------------------------------

    def _pair(self, other: "QuadExt") -> "tuple[QuadExt, QuadExt]":
        """``self`` and ``other`` in one field: the same field when the
        discriminants agree, else the rational one embedded in the other's."""
        if self.d == other.d:
            return self, other
        if other.b == 0:
            return self, _quad(other.a, other.b, self.d)
        if self.b == 0:
            return _quad(self.a, self.b, other.d), other
        raise ValueError(
            f"mismatched discriminants: sqrt({self.d}) vs sqrt({other.d})"
        )

    # -- ring/field operations ----------------------------------------

    def __add__(self, other):
        if isinstance(other, QuadExt):
            u, v = self._pair(other)
            return _quad(u.a + v.a, u.b + v.b, u.d)
        if isinstance(other, (int, Fraction)):
            return _quad(self.a + other, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            u, v = self._pair(other)
            return _quad(u.a - v.a, u.b - v.b, u.d)
        if isinstance(other, (int, Fraction)):
            return _quad(self.a - other, self.b, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quad(other - self.a, -self.b, self.d)
        return NotImplemented

    def __neg__(self):
        return _quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            u, v = self._pair(other)
            return _quad(
                u.a * v.a + u.d * u.b * v.b,
                u.a * v.b + u.b * v.a,
                u.d,
            )
        if isinstance(other, (int, Fraction)):
            return _quad(self.a * other, self.b * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            u, v = self._pair(other)
            return u * v.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _quad(self.a / other, self.b / other, self.d)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        A, B, D, e, dd = _int_form(self)
        den = D ** n
        X, Y = 1, 0
        while n:
            if n & 1:
                X, Y = X * A + e * Y * B, X * B + Y * A
            n >>= 1
            if n:
                A, B = A * A + e * B * B, 2 * A * B
        return _quad(Fraction(X, den), Fraction(Y * dd, den), self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (multiplicative)."""
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero")
            raise ZeroDivisionError(
                f"element {self} has zero norm (d = {self.d} is a rational "
                "square) and no inverse"
            )
        return _quad(self.a / n, -self.b / n, self.d)

    # -- structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.a != other.a or self.b != other.b:
                return False
            return self.b == 0 or self.d == other.d
        return NotImplemented

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, d={self.d!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        mag = abs(self.b)
        tail = root if mag == 1 else f"{mag}*{root}"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {tail}"


def _quad(a: Fraction, b: Fraction, d: Fraction) -> QuadExt:
    """A ``QuadExt`` from components that are already ``Fraction``s.

    The arithmetic's own results take this path; the public constructor
    keeps validating its arguments.
    """
    q = object.__new__(QuadExt)
    object.__setattr__(q, "a", a)
    object.__setattr__(q, "b", b)
    object.__setattr__(q, "d", d)
    return q


def _int_form(q: QuadExt) -> "tuple[int, int, int, int, int]":
    """``q = a + b*rho`` as ``(A + B*sigma) / D`` over integers.

    With ``d = dn/dd`` in lowest terms, ``sigma = dd*rho`` has the integer
    square ``e = dn*dd``.  Returns ``(A, B, D, e, dd)``; an integer pair
    ``(X, Y)`` over the denominator ``den`` maps back to
    ``Fraction(X, den) + Fraction(Y*dd, den)*rho``.
    """
    a, b, d = q.a, q.b, q.d
    dd = d.denominator
    bden = b.denominator * dd
    D = lcm(a.denominator, bden)
    A = a.numerator * (D // a.denominator)
    B = b.numerator * (D // bden)
    return A, B, D, d.numerator * dd, dd


def ref_eval(cs, point):
    """``RatPoly(cs)(point)`` at a reference ``QuadExt`` point, by the
    reference's homogenised Horner."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return 0
    A, B, D, e, dd = _int_form(point)
    X, Y, Dk = cs[-1], 0, 1
    for c in reversed(cs[:-1]):
        Dk *= D
        X, Y = X * A + e * Y * B + c * Dk, X * B + Y * A
    return _quad(Fraction(X, Dk), Fraction(Y * dd, Dk), point.d)


# -- strategies ----------------------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=9)
rationals = st.one_of(st.integers(-6, 6), small_fractions)


@st.composite
def discriminants(draw):
    """Discriminants of every shape the checks meet: denominators above 1,
    (x+1)/(x-1), negative, zero and rational squares (zero-norm elements)."""
    kind = draw(st.sampled_from(["listed", "tangent", "square", "any"]))
    if kind == "listed":
        return draw(st.sampled_from([F(3, 4), F(-1), F(0), F(2), F(-7, 3), F(5)]))
    if kind == "tangent":
        x = draw(small_fractions.filter(lambda x: x != 1))
        return (x + 1) / (x - 1)
    r = draw(small_fractions)
    return r * r if kind == "square" else r


@st.composite
def components(draw, d=None):
    """``(a, b, d)`` as ``int``s and ``Fraction``s, ``b = 0`` one time in four."""
    a = draw(rationals)
    b = 0 if draw(st.integers(0, 3)) == 0 else draw(rationals)
    return a, b, draw(discriminants()) if d is None else d


@st.composite
def component_pairs(draw):
    """Two elements in one field, or in two fields (where a rational one
    embeds into the other's field, or the pair refuses to combine), or an
    irrational element and one of norm zero, r*b + b*sqrt(r^2), in another
    field: a divisor that is refused for its field before its norm."""
    u = draw(components())
    kind = draw(st.sampled_from(["same field", "any field", "zero norm elsewhere"]))
    if kind == "zero norm elsewhere":
        u = (u[0], draw(rationals.filter(bool)), u[2])
        r = draw(small_fractions.filter(lambda r: r * r != u[2]))
        b = draw(rationals.filter(bool))
        return u, (draw(st.sampled_from([1, -1])) * r * b, b, r * r)
    return u, draw(components(u[2] if kind == "same field" else None))


def both(args):
    """The element ``args`` as ``(exactnum.QuadExt, QuadExt)``."""
    return exactnum.QuadExt(*args), QuadExt(*args)


def outcome(fn, *args):
    """What ``fn(*args)`` gives, in terms both implementations share."""
    try:
        value = fn(*args)
    except (ArithmeticError, TypeError, ValueError, AttributeError) as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(value, (exactnum.QuadExt, QuadExt)):
        parts = (value.a, value.b, value.d)
        assert all(type(p) is Fraction for p in parts)
        return ("quad", parts, str(value), repr(value), bool(value))
    return (type(value), value)


def agree(fn, *pairs):
    """``fn`` on the new elements gives what it gives on the reference ones;
    each of ``pairs`` is a ``(exactnum.QuadExt, QuadExt)`` pair or a plain value."""
    new = [p[0] if isinstance(p, tuple) else p for p in pairs]
    ref = [p[1] if isinstance(p, tuple) else p for p in pairs]
    got, want = outcome(fn, *new), outcome(fn, *ref)
    assert got == want
    return got


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


# -- differential tests --------------------------------------------------


class TestAgainstReference:
    @given(component_pairs())
    def test_binary_operators_between_elements(self, pair):
        u, v = both(pair[0]), both(pair[1])
        for op in BINARY:
            agree(op, u, v)
            agree(op, v, u)
            agree(op, u, u)

    @given(components(), rationals)
    def test_binary_operators_with_rationals(self, args, r):
        u = both(args)
        for op in BINARY:
            agree(op, u, r)
            agree(op, r, u)

    @given(components(), st.integers(-6, 12))
    def test_unary_operations(self, args, n):
        u = both(args)
        agree(operator.neg, u)
        agree(bool, u)
        agree(lambda q: q.inverse(), u)
        agree(lambda q: q.norm(), u)
        agree(lambda q: q ** n, u)
        agree(lambda q: q ** F(1, 2), u)

    @given(components())
    def test_components_str_and_repr(self, args):
        agree(lambda q: (q.a, q.b, q.d, str(q), repr(q)), both(args))

    @given(component_pairs(), rationals)
    def test_equality(self, pair, r):
        u, v = both(pair[0]), both(pair[1])
        for other in (v, u, r, 0.5, "1"):
            agree(operator.eq, u, other)
            agree(operator.ne, u, other)
        embedded = both((pair[0][0], 0, pair[1][2]))
        agree(operator.eq, both((pair[0][0], 0, pair[0][2])), embedded)

    @given(st.lists(st.integers(-40, 40), max_size=9), components())
    def test_ratpoly_evaluation(self, cs, args):
        new, ref = both(args)
        assert outcome(exactnum.RatPoly(cs), new) == outcome(ref_eval, cs, ref)

    @pytest.mark.parametrize("args", [(1.5,), (1, 0.5), (1, 1, 2.0), ("1",), (1, 1, None)])
    def test_constructor_type_errors(self, args):
        assert outcome(exactnum.QuadExt, *args) == outcome(QuadExt, *args)
        assert outcome(exactnum.QuadExt, *args)[1] is TypeError

    def test_immutable(self):
        for q in both((1, 2, 3)):
            for name in ("a", "b", "d", "other"):
                with pytest.raises(AttributeError, match="^QuadExt is immutable$"):
                    setattr(q, name, 1)

    def test_zero_norm_and_zero_divisor_texts(self):
        # 2 + sqrt(4) has norm 0; dividing by it, inverting it and raising
        # it to a negative power name it; a rational zero divides by zero
        q, z = both((2, 1, 4)), both((0, 0, 7))
        one = both((1, 0, 9))
        for fn, args in [(lambda x: x.inverse(), (q,)), (lambda x: x ** -2, (q,)),
                         (operator.truediv, (one, q)), (operator.truediv, (q, z)),
                         (operator.truediv, (q, 0)), (lambda x: x.inverse(), (z,))]:
            got = agree(fn, *args)
            assert got[1] is ZeroDivisionError

    def test_mismatched_discriminants_text(self):
        got = agree(operator.mul, both((1, 1, F(3, 4))), both((0, 2, -5)))
        assert got == ("raises", ValueError, "mismatched discriminants: sqrt(3/4) vs sqrt(-5)")
        # a divisor of norm zero is refused for its field before its norm
        got = agree(operator.truediv, both((1, 1, 2)), both((0, 1, 0)))
        assert got == ("raises", ValueError, "mismatched discriminants: sqrt(2) vs sqrt(0)")


class TestOneFormPerValue:
    @given(component_pairs(), rationals.filter(bool),
           st.lists(st.integers(-9, 9), max_size=4), st.integers(1, 9))
    def test_paths_to_one_value_store_one_triple(self, pair, r, cs, lead):
        u = exactnum.QuadExt(*pair[0])
        v = exactnum.QuadExt(*pair[1])
        paths = [exactnum.QuadExt(u.a, u.b, u.d), -(-u), u ** 1, u + 0,
                 u / r * r, (u * r) / r, r - (r - u), (r + u) - r,
                 exactnum.RatPoly((0, 1))(u), exactnum.QuadExt.root(u.d) * u.b + u.a]
        try:
            paths += [(u + v) - v, (u - v) + v]
            if v.norm():
                paths.append((u * v) / v)
        except ValueError:  # two fields that do not combine
            pass
        for q in paths:
            assert q == u and q._s[:3] == u._s[:3]
        # a polynomial value, by Horner and by ring operations
        cs = cs + [lead]
        horner = exactnum.RatPoly(cs)(u)
        ring = exactnum.QuadExt(0, 0, u.d)
        for c in reversed(cs):
            ring = ring * u + c
        assert horner == ring and horner._s == ring._s

    @given(components())
    def test_stored_form_is_reduced(self, args):
        A, B, D, e, dd = exactnum.QuadExt(*args)._s
        d = F(args[2])
        assert D > 0 and gcd(A, B, D) == 1
        assert (e, dd) == (d.numerator * d.denominator, d.denominator)
