"""Exact arithmetic substrate: quadratic extensions, polynomials, series.

Plain ``int`` and :class:`fractions.Fraction` already provide
arbitrary-precision integers and eagerly normalized rationals, so this
module only adds the layers the identity checks need on top of them:

* :class:`QuadExt` -- elements ``a + b*rho`` of Q(sqrt(d)), with the
  discriminant ``d`` carried by each value,
* :class:`RatPoly` -- dense univariate polynomials with ``int``
  coefficients, integral by type,
* :class:`PowerSeries` -- series truncated at an explicit order, with
  :class:`QuadExt` coefficients, plus ``sin``/``cos``/``exp`` builders,
* integer rows -- ``list[int]``, index = degree: :func:`horner` at ``p/q``,
  homogenised, and Kronecker packing at 2**bits, :func:`kron`/:func:`unkron`.

Arithmetic runs over integers and normalises once per result.  A
``QuadExt`` is stored as ``(A + B*sigma)/D`` with integer ``A``, ``B``,
``D`` and ``sigma**2`` an integer, so each of its operations is an
integer formula followed by one three-argument ``gcd``; its ``a``,
``b`` and ``d`` are ``Fraction``s built only when read.  ``int`` and
``Fraction`` operands enter those formulas as ``p/q`` directly.
Outside the series convolutions the element product is written once, in
``QuadExt.__mul__``: ``**`` squares and multiplies through it, and a
polynomial at a ``QuadExt`` point runs Horner on ``QuadExt`` values; at
``p/q`` it runs :func:`horner` and is normalised once.  A series
product or quotient writes each operand over one common denominator and
sums each coefficient over integers, so it reduces once per coefficient,
not once per partial product; operands whose irrational coefficients lie
in two fields are refused before any arithmetic.

Every operation is a pure function.  Every runlab value type, here and
in ``grammar``, ``triangles`` and ``identities``, refuses attribute
assignment and deletion through one base, :class:`_Frozen`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "Fraction",
    "PowerSeries",
    "QuadExt",
    "RatPoly",
    "Rational",
    "cos_series",
    "exp_series",
    "horner",
    "kron",
    "sin_series",
    "unkron",
]

class _Frozen:
    """Base of every runlab value type: an instance refuses attribute
    assignment and deletion, so a shared value cannot change under its
    other holders.  Constructors set their slots with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def _is_rational(value: object) -> bool:
    """Whether ``value`` is an ``int`` or ``Fraction``; a ``bool`` is not."""
    return isinstance(value, (int, Fraction)) and type(value) is not bool


def _parts(value: Rational) -> "tuple[int, int]":
    """Numerator and denominator of an ``int`` or ``Fraction``; a ``bool``
    is refused."""
    if _is_rational(value):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _sum_text(terms: "Iterable[tuple[int, str]]") -> str:
    """The text of a polynomial from its nonzero terms ``(c, m)`` in order,
    ``m`` the monomial's text (``"1"`` for the constant): ``c*m``, a unit
    ``c`` left out, joined by `` + `` or by `` - `` before a negative
    term; ``"0"`` for no terms."""
    text = ""
    for c, m in terms:
        if m == "1":
            term = str(c)
        elif c == 1:
            term = m
        elif c == -1:
            term = f"-{m}"
        else:
            term = f"{c}*{m}"
        if not text:
            text = term
        elif term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text or "0"


class QuadExt(_Frozen):
    """``a + b*rho`` with ``rho**2 = d``, all components rational.

    The discriminant is data, not a type parameter: one class serves
    sqrt(1-x^2), sqrt((1-x)/(1+x)), sqrt(x-1), ... at every base point.
    Elements with different discriminants refuse to combine, except that a
    purely rational element (``b == 0``) embeds into any Q(sqrt(d)).
    Plain ``int``/``Fraction`` operands combine with the rational
    component directly; ``+ - * /`` refuse a ``bool`` operand and ``**``
    a ``bool`` exponent, ``==`` does not.
    ``d`` may be a rational square; the arithmetic does not care.

    A value is stored over integers as ``(A + B*sigma)/D``: with ``d =
    dn/dd`` in lowest terms, ``sigma = dd*rho`` has the integer square
    ``e = dn*dd``.  The one slot holds ``(A, B, D, e, dd)`` with ``D > 0``
    and ``gcd(A, B, D) == 1``, so each value has exactly one form and
    equality is structural.  ``a``, ``b`` and ``d`` are read-only
    ``Fraction``s derived from it: ``a = A/D``, ``b = B*dd/D``,
    ``d = dn/dd``.
    """

    __slots__ = ("_s",)

    def __new__(cls, a: Rational, b: Rational = 0, d: Rational = 0):
        an, ad = _parts(a)
        bn, bd = _parts(b)
        dn, dd = _parts(d)
        bden = bd * dd
        D = lcm(ad, bden)
        return _quad(an * (D // ad), bn * (D // bden), D, dn * dd, dd)

    @staticmethod
    def root(d: Rational) -> "QuadExt":
        """The element rho = sqrt(d) itself."""
        return QuadExt(0, 1, d)

    @property
    def a(self) -> Fraction:
        A, _, D, _, _ = self._s
        return Fraction(A, D)

    @property
    def b(self) -> Fraction:
        _, B, D, _, dd = self._s
        return Fraction(B * dd, D)

    @property
    def d(self) -> Fraction:
        _, _, _, e, dd = self._s
        return Fraction(e // dd, dd)

    # -- coercion ------------------------------------------------------

    def _pair(self, other: "QuadExt") -> "tuple[int, int]":
        """The field ``(e, dd)`` in which ``self`` and ``other``, whose
        discriminants differ, combine: a rational operand embeds into
        the other's field, ``other`` into ``self``'s when both are."""
        s, t = self._s, other._s
        if t[1] == 0:
            return s[3], s[4]
        if s[1] == 0:
            return t[3], t[4]
        raise ValueError(
            f"mismatched discriminants: sqrt({self.d}) vs sqrt({other.d})"
        )

    # -- ring/field operations ----------------------------------------

    def __add__(self, other):
        A, B, D, e, dd = self._s
        if isinstance(other, QuadExt):
            A2, B2, D2, e2, dd2 = other._s
            if e != e2 or dd != dd2:
                e, dd = self._pair(other)
            return _quad(A * D2 + A2 * D, B * D2 + B2 * D, D * D2, e, dd)
        if _is_rational(other):
            p, q = other.numerator, other.denominator
            return _quad(A * q + p * D, B * q, D * q, e, dd)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadExt) or _is_rational(other):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        # __add__'s NotImplemented passes through: 0.5 - q raises TypeError for '-'
        return (-self).__add__(other)

    def __neg__(self):
        A, B, D, e, dd = self._s
        return _quad(-A, -B, D, e, dd)

    def __mul__(self, other):
        A, B, D, e, dd = self._s
        if isinstance(other, QuadExt):
            A2, B2, D2, e2, dd2 = other._s
            if e != e2 or dd != dd2:
                e, dd = self._pair(other)
            return _quad(A * A2 + e * B * B2, A * B2 + B * A2, D * D2, e, dd)
        if _is_rational(other):
            p, q = other.numerator, other.denominator
            return _quad(A * p, B * p, D * q, e, dd)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        A, B, D, e, dd = self._s
        if isinstance(other, QuadExt):
            if e != other._s[3] or dd != other._s[4]:
                self._pair(other)  # two fields are refused before a zero divisor
            return self * other.inverse()
        if _is_rational(other):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _quad(A * q, B * q, D * p, e, dd)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or type(n) is bool:
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        power, base = _quad(1, 0, 1, *self._s[3:]), self
        while n:
            if n & 1:
                power = power * base
            n >>= 1
            if n:
                base = base * base
        return power

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (multiplicative)."""
        A, B, D, e, _ = self._s
        return Fraction(A * A - e * B * B, D * D)

    def inverse(self) -> "QuadExt":
        A, B, D, e, dd = self._s
        N = A * A - e * B * B
        if N == 0:
            if not self:
                raise ZeroDivisionError("division by zero")
            raise ZeroDivisionError(
                f"element {self} has zero norm (d = {self.d} is a rational "
                "square) and no inverse"
            )
        if N < 0:
            N, D = -N, -D
        return _quad(D * A, -D * B, N, e, dd)

    # -- structure -----------------------------------------------------

    def __bool__(self) -> bool:
        A, B, _, _, _ = self._s
        return A != 0 or B != 0

    def __eq__(self, other):
        s = self._s
        if isinstance(other, (int, Fraction)):
            return s[1] == 0 and s[0] == other.numerator and s[2] == other.denominator
        if isinstance(other, QuadExt):
            t = other._s
            # a rational value has one form in every field
            return s == t or s[1] == 0 and s[:3] == t[:3]
        return NotImplemented

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, d={self.d!r})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        root = f"sqrt({self.d})"
        mag = abs(b)
        tail = root if mag == 1 else f"{mag}*{root}"
        if a == 0:
            return tail if b > 0 else f"-{tail}"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {tail}"


_new = object.__new__
_set = object.__setattr__


def _quad(A: int, B: int, D: int, e: int, dd: int) -> QuadExt:
    """The ``QuadExt`` ``(A + B*sigma)/D`` in the field ``(e, dd)``,
    brought to lowest terms; ``D`` must be positive."""
    g = gcd(A, B, D)
    if g != 1:
        A, B, D = A // g, B // g, D // g
    q = _new(QuadExt)
    _set(q, "_s", (A, B, D, e, dd))
    return q


def _ratpoly(coeffs: "list[int]") -> "RatPoly":
    """The ``RatPoly`` with coefficients ``coeffs``, trailing zeros popped
    from the list.  The trusted path, for int lists built inside runlab:
    the public constructor's type check is skipped."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = _new(RatPoly)
    _set(p, "_coeffs", tuple(coeffs))
    return p


class RatPoly(_Frozen):
    """Dense univariate polynomial with ``int`` coefficients; index = degree.

    Every polynomial the checks build lies in Z[x], so the constructor
    takes ``int`` coefficients only and raises ``TypeError`` on any
    other type, ``bool`` included; sums, products with ``int`` scalars
    and derivatives keep them integral, so their results are built by
    :func:`_ratpoly` without checking again.  Trailing zero coefficients
    are trimmed on construction, so equality is structural.
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

    @property
    def coeffs(self) -> "tuple[int, ...]":
        return self._coeffs

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            other = _ratpoly([other])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _ratpoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return _ratpoly([c * other for c in self._coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return _ratpoly([])
        # one row of partial products per nonzero coefficient of the
        # shorter operand
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + m] = [o + c * d for o, d in zip(out[i:i + m], b)]
        return _ratpoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "RatPoly":
        return _ratpoly([k * c for k, c in enumerate(self._coeffs) if k])

    def __call__(self, point):
        """Horner evaluation at an int, Fraction or QuadExt point.

        At ``p/q`` :func:`horner` runs on integers and the result is
        normalised once at the end; the value is an ``int`` exactly when
        the point is an ``int``.  At a ``QuadExt`` point Horner runs with
        ``QuadExt`` ``*`` and ``+``, from the top coefficient as an
        element of the point's field, so a nonzero constant still gives a
        ``QuadExt``; the zero polynomial gives ``0`` at every point.  Any
        other point, ``bool`` included, raises ``TypeError``.
        """
        if not (isinstance(point, QuadExt) or _is_rational(point)):
            raise TypeError(f"cannot evaluate a RatPoly at a {type(point).__name__}")
        cs = self._coeffs
        if not cs:
            return 0
        if isinstance(point, QuadExt):
            acc = _quad(cs[-1], 0, 1, *point._s[3:])
            for c in reversed(cs[:-1]):
                acc = acc * point + c
            return acc
        num, den = horner(cs, point.numerator, point.denominator)
        return num if isinstance(point, int) else Fraction(num, den)

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
        return _sum_text((c, "1" if k == 0 else "x" if k == 1 else f"x^{k}")
                         for k, c in enumerate(self._coeffs) if c)


class PowerSeries(_Frozen):
    """Coefficients ``c_0 .. c_N`` of a series truncated at order ``N``.

    Rational coefficients are stored as rational ``QuadExt``s.  The field
    lives only in the coefficients, and a rational coefficient embeds into
    any.  Binary operations truncate to the shorter operand, so a result
    never pretends to more precision than its inputs carried.  A scalar
    operand is an ``int``, ``Fraction`` or ``QuadExt``, never a ``bool``.

    ``*`` and ``/`` between series sum each result coefficient over
    integers and reduce it once.  When the irrational coefficients of the
    truncated operands lie in two fields, both raise ``QuadExt._pair``'s
    ``ValueError`` before any arithmetic (``/`` refuses a constant term of
    norm zero first).  ``+``, and ``*`` by a ``QuadExt``, raise it only
    where an irrational coefficient meets one from another field.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: "Sequence[QuadExt | Rational]"):
        items = tuple(c if isinstance(c, QuadExt) else QuadExt(c) for c in coeffs)
        if not items:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "_coeffs", items)

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
        if isinstance(other, QuadExt) or _is_rational(other):
            out = list(self._coeffs)
            out[0] = out[0] + other
            return PowerSeries(out)
        return NotImplemented

    __radd__ = __add__

    def __rsub__(self, other):
        # __add__'s NotImplemented passes through: True - s raises TypeError for '-'
        return (-self).__add__(other)

    def __neg__(self):
        return PowerSeries([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            a, b = self._coeffs[: n + 1], other._coeffs[: n + 1]
            e, dd = _one_field(a + b)
            A, A2, Da = _common(a)
            B, B2, Db = _common(b)
            out = []
            for k in range(n + 1):
                x, x2, y, y2 = A[: k + 1], A2[: k + 1], B[k::-1], B2[k::-1]
                out.append(_quad(sum(map(mul, x, y)) + e * sum(map(mul, x2, y2)),
                                 sum(map(mul, x, y2)) + sum(map(mul, x2, y)),
                                 Da * Db, e, dd))
            return PowerSeries(out)
        if isinstance(other, QuadExt) or _is_rational(other):
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
            a, b = self._coeffs[: n + 1], other._coeffs[: n + 1]
            e, dd = _one_field(a + b)
            A, A2, Da = _common(a)
            B, B2, Db = _common(b)
            C, C2, Dc, _, _ = inv._s
            out = []
            # the quotient so far, written over its common denominator L
            X, Y, L = [], [], 1
            for k in range(n + 1):
                y, y2, x, x2 = B[1 : k + 1], B2[1 : k + 1], X[::-1], Y[::-1]
                # sum_j b[j] out[k-j] is (S + T*s)/(Db*L), so a[k] minus it
                # is (P + Q*s)/(Da*Db*L)
                S = sum(map(mul, y, x)) + e * sum(map(mul, y2, x2))
                T = sum(map(mul, y, x2)) + sum(map(mul, y2, x))
                P = A[k] * Db * L - Da * S
                Q = A2[k] * Db * L - Da * T
                q = _quad(P * C + e * Q * C2, P * C2 + Q * C, Da * Db * L * Dc, e, dd)
                out.append(q)
                Xq, Yq, Dq, _, _ = q._s
                grown = lcm(L, Dq)
                if grown != L:
                    X = [v * (grown // L) for v in X]
                    Y = [v * (grown // L) for v in Y]
                    L = grown
                X.append(Xq * (L // Dq))
                Y.append(Yq * (L // Dq))
            return PowerSeries(out)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, QuadExt) or _is_rational(other):
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


def _one_field(coeffs: "Sequence[QuadExt]") -> "tuple[int, int]":
    """The field ``(e, dd)`` that every irrational one of ``coeffs`` lies
    in, or the first coefficient's when all are rational.  Irrational
    coefficients in two fields raise ``QuadExt._pair``'s ``ValueError``,
    which names the first two fields in ``coeffs`` order."""
    irrational = [c for c in coeffs if c._s[1]]
    for c in irrational:
        if c._s[3:] != irrational[0]._s[3:]:
            irrational[0]._pair(c)
    return (irrational[0] if irrational else coeffs[0])._s[3:]


def _common(coeffs: "Sequence[QuadExt]") -> "tuple[list[int], list[int], int]":
    """``(As, Bs, D)``: the ``QuadExt``s ``coeffs``, all in one field or
    rational, as ``(As[i] + Bs[i]*sigma)/D`` over their least common
    denominator ``D``."""
    D = lcm(*(c._s[2] for c in coeffs))
    As, Bs = [], []
    for c in coeffs:
        A, B, Dc, _, _ = c._s
        As.append(A * (D // Dc))
        Bs.append(B * (D // Dc))
    return As, Bs, D


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


# ----------------------------------------------------------------------
# Integer rows: a polynomial over Z as a ``list[int]``, index = degree.


def horner(coeffs: "Sequence[int]", p: int, q: int) -> "tuple[int, int]":
    """The integer polynomial ``coeffs`` at ``p/q`` as ``(num, q**deg)``.

    ``num = sum_k c_k p^k q^(deg-k)`` is the polynomial homogenised to
    its own degree ``deg = len(coeffs) - 1``, by Horner over integers;
    nothing is reduced.  No coefficients give ``(0, 1)``.
    """
    if not coeffs:
        return 0, 1
    acc, qk = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc, qk


def kron(row: "Sequence[int]", bits: int) -> int:
    """The row at 2**bits: its little-endian byte fields read as one int
    when ``bits`` is a whole number of bytes and each coefficient fits its
    field unsigned, else (e.g. for a negative one) shift-add Horner."""
    if not bits % 8:
        size = bits // 8
        try:
            return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in row]),
                                  "little")
        except OverflowError:
            pass
    value = 0
    for c in reversed(row):
        value = (value << bits) + c
    return value


def unkron(value: int, bits: int) -> "list[int]":
    """The row, without trailing zeros, whose balanced base-2**bits
    digits, each in [-2**(bits-1), 2**(bits-1)), spell ``value``: the
    inverse of :func:`kron` on coefficients in that range."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    row = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        row.append(digit)
        value = (value - digit) >> bits
    return row
