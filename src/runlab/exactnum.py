"""Exact arithmetic substrate: quadratic extensions, polynomials, series.

Plain ``int`` and :class:`fractions.Fraction` already provide
arbitrary-precision integers and eagerly normalized rationals, so this
module only adds the layers the identity checks need on top of them:

* :class:`QuadExt` -- elements ``a + b*rho`` of Q(sqrt(d)), with the
  discriminant ``d`` carried by each value,
* :class:`RatPoly` -- dense univariate polynomials with ``int``
  coefficients, integral by type,
* :class:`PowerSeries` -- series truncated at an explicit order, with
  :class:`QuadExt` coefficients, plus ``sin``/``cos``/``exp`` builders.

Evaluation runs over integers and normalises once at the end.  A
polynomial is evaluated at ``p/q`` (or at ``(A + B*sigma)/D`` in
Q(sqrt(d)), see :func:`_int_form`) by homogenised Horner on its integer
coefficients, and one ``Fraction`` per component is built from the
result over its single shared denominator.  ``QuadExt`` powers use the
same integer form, and ``QuadExt`` arithmetic with ``int``/``Fraction``
operands uses them directly instead of wrapping them in a ``QuadExt``
first.

Every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "Fraction",
    "NEG_INF",
    "PowerSeries",
    "QuadExt",
    "RatPoly",
    "Rational",
    "cos_series",
    "exp_series",
    "sin_series",
]

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


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


class RatPoly:
    """Dense univariate polynomial with ``int`` coefficients; index = degree.

    Every polynomial the checks build lies in Z[x], so the constructor
    takes ``int`` coefficients only and raises ``TypeError`` on any
    other type, ``bool`` included; sums, products with ``int`` scalars,
    derivatives and stretches keep them integral.  Trailing zero
    coefficients are trimmed on construction, so equality is structural.
    The zero polynomial has degree ``NEG_INF``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"RatPoly coefficients must be int, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @property
    def coeffs(self) -> "tuple[int, ...]":
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return RatPoly(c * other for c in self._coeffs)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return RatPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "RatPoly":
        return RatPoly(k * c for k, c in enumerate(self._coeffs) if k)

    def stretch(self, k: int) -> "RatPoly":
        """Substitute x -> x**k."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        out = [0] * (len(self._coeffs) * k)
        for i, c in enumerate(self._coeffs):
            out[i * k] = c
        return RatPoly(out)

    def __call__(self, point):
        """Horner evaluation at an int, Fraction or QuadExt point.

        The loop runs on integers: the point is written over one
        denominator, ``p/q`` or ``(A + B*sigma)/D`` (see
        :func:`_int_form`), so the only ``Fraction``s built are those of
        the result.  The value is an ``int`` exactly when the point is an
        ``int``.  Any other point raises ``TypeError``.
        """
        if not isinstance(point, (int, Fraction, QuadExt)):
            raise TypeError(f"cannot evaluate a RatPoly at a {type(point).__name__}")
        cs = self._coeffs
        if not cs:
            return 0
        if isinstance(point, QuadExt):
            A, B, D, e, dd = _int_form(point)
            X, Y, Dk = cs[-1], 0, 1
            for c in reversed(cs[:-1]):
                Dk *= D
                X, Y = X * A + e * Y * B + c * Dk, X * B + Y * A
            return _quad(Fraction(X, Dk), Fraction(Y * dd, Dk), point.d)
        p, q = point.numerator, point.denominator
        acc, qk = cs[-1], 1
        for c in reversed(cs[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return acc if isinstance(point, int) else Fraction(acc, qk)

    # -- structure -----------------------------------------------------

    def __eq__(self, other):
        if type(other) is int:
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        return f"RatPoly({list(self._coeffs)!r})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = f"-{xs}"
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                text += " - " + term[1:]
            else:
                text += " + " + term
        return text


class PowerSeries:
    """Coefficients ``c_0 .. c_N`` of a series truncated at order ``N``.

    Rational coefficients are stored as rational ``QuadExt``s.  The field
    lives only in the coefficients: combining two whose discriminants
    differ raises ``ValueError`` (see ``QuadExt._pair``).  Binary
    operations truncate to the shorter operand, so a result never
    pretends to more precision than its inputs carried.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: "Sequence[QuadExt | Rational]"):
        items = tuple(c if isinstance(c, QuadExt) else QuadExt(c) for c in coeffs)
        if not items:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "_coeffs", items)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> "tuple[QuadExt, ...]":
        return self._coeffs

    def coefficient(self, k: int) -> QuadExt:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient z^{k} beyond truncation order {self.order}")
        return self._coeffs[k]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(
                [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
            )
        if isinstance(other, (int, Fraction, QuadExt)):
            out = list(self._coeffs)
            out[0] = out[0] + other
            return PowerSeries(out)
        return NotImplemented

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return PowerSeries([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            a, b = self._coeffs, other._coeffs
            out = []
            for k in range(n + 1):
                acc = a[0] * b[k]
                for i in range(1, k + 1):
                    acc = acc + a[i] * b[k - i]
                out.append(acc)
            return PowerSeries(out)
        if isinstance(other, (int, Fraction, QuadExt)):
            return PowerSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
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
        if isinstance(other, (int, Fraction, QuadExt)):
            if isinstance(other, QuadExt):
                inv = other.inverse()
            else:
                if other == 0:
                    raise ZeroDivisionError("division by zero")
                inv = Fraction(1) / _fr(other)
            return PowerSeries([c * inv for c in self._coeffs])
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            const = [other] + [0] * self.order
            return PowerSeries(const) / self
        return NotImplemented

    # -- structure -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        )


def _taylor(c: "QuadExt | Rational", order: int, signs: "tuple[int, ...]") -> PowerSeries:
    """sum_n signs[n % 4] * (c*z)**n / n! truncated at z**order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = c if isinstance(c, QuadExt) else QuadExt(c)
    zero = QuadExt(0, 0, c.d)
    value = QuadExt(1, 0, c.d)
    out = []
    for n in range(order + 1):
        if n:
            value = value * c * Fraction(1, n)
        sign = signs[n % 4]
        out.append(value if sign == 1 else -value if sign == -1 else zero)
    return PowerSeries(out)


def sin_series(c: "QuadExt | Rational", order: int) -> PowerSeries:
    """Taylor series of sin(c*z) truncated at z**order."""
    return _taylor(c, order, (0, 1, 0, -1))


def cos_series(c: "QuadExt | Rational", order: int) -> PowerSeries:
    """Taylor series of cos(c*z) truncated at z**order."""
    return _taylor(c, order, (1, 0, -1, 0))


def exp_series(c: "QuadExt | Rational", order: int) -> PowerSeries:
    """Taylor series of exp(c*z) truncated at z**order."""
    return _taylor(c, order, (1, 1, 1, 1))
