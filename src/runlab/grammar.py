"""Substitution-rule calculus on commutative letters.

A grammar maps single-character letters to polynomials in those letters;
it induces a derivation ``D`` on the polynomial ring: linear, Leibniz on
products, and equal to the rule on each letter.  Iterating ``D`` on a
seed monomial expands into :class:`MPoly` values whose integer
coefficients are the triangles generated elsewhere in this package --
that cross-check is the point of the whole module.  An :class:`MPoly`
is a value: built, compared and printed; every sum and product a
derivation needs is taken on packed terms inside this module.

Coefficients are plain ``int`` (iterated derivatives reach
tangent-number growth, far past 64 bits).  Every value refuses attribute
assignment and deletion through ``exactnum``'s one immutable base, and
``Grammar.rules`` is read-only, so a cached :func:`builtin` cannot drift.
Monomials inside an :class:`MPoly` are packed exponent vectors (Monagan
and Pearce, CASC 2007): one int per monomial, one fixed-width bit field
per letter, the first letter of the sorted alphabet in the most
significant field.  A monomial product is then one int addition, a
derivation step adds a precompiled int offset per rule term, and int
order is the canonical term order.  Exponents stay unbounded: a result
whose exponents could reach the top bit of a field is repacked at twice
the width first.

Derivatives are taken in towers: D^1(p), ..., D^n(p) from one private
kernel, all at the one width that holds the exponents of D^n(p), chosen
once from p's bound plus n times the most any rule raises an exponent.
No step repacks; zero coefficients are dropped from each level handed
out.  :func:`d_tower` checks the order and p's letters once and yields
every level as an :class:`MPoly`: the grammar checks read each stream
from one tower, and :func:`d_power` keeps the last level.
:func:`d_apply` is ``d_power(g, p, 1)``, public API with no caller left
in this package.  The Leibniz check derives u, v and u*v in three
towers at the single width of its whole case.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .exactnum import _Frozen, _set, _sum_text

__all__ = [
    "BUILTIN_GRAMMARS",
    "Grammar",
    "GrammarError",
    "MPoly",
    "Monomial",
    "builtin",
    "d_apply",
    "d_power",
    "d_tower",
    "leibniz_check",
    "parse_grammar",
    "parse_word",
]


def _check_letter(letter: str) -> str:
    if not (isinstance(letter, str) and len(letter) == 1 and letter.isalpha()):
        raise ValueError(f"letters are single alphabetic characters, got {letter!r}")
    return letter


class Monomial(_Frozen):
    """A commutative power product, stored as sorted (letter, exponent) pairs."""

    __slots__ = ("_exps",)

    def __init__(self, exps: "Mapping[str, int] | Iterable[tuple[str, int]]" = ()):
        pairs = dict(exps)
        clean = {}
        for letter, e in pairs.items():
            _check_letter(letter)
            if type(e) is not int or e < 0:
                raise ValueError(f"exponent of {letter!r} must be a nonnegative int")
            if e:
                clean[letter] = e
        object.__setattr__(self, "_exps", tuple(sorted(clean.items())))

    def items(self) -> "tuple[tuple[str, int], ...]":
        return self._exps

    @property
    def letters(self) -> "tuple[str, ...]":
        return tuple(l for l, _ in self._exps)

    def degree_of(self, letter: str) -> int:
        for l, e in self._exps:
            if l == letter:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged = dict(self._exps)
        for l, e in other._exps:
            merged[l] = merged.get(l, 0) + e
        return Monomial(merged)

    def exponent_vector(self, alphabet: "tuple[str, ...]") -> "tuple[int, ...]":
        return tuple(self.degree_of(l) for l in alphabet)

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self._exps == other._exps
        return NotImplemented

    def __hash__(self):
        return hash(self._exps)

    def __repr__(self):
        return f"Monomial({dict(self._exps)!r})"

    def __str__(self):
        if not self._exps:
            return "1"
        return "*".join(l if e == 1 else f"{l}^{e}" for l, e in self._exps)


#: Field width, in bits, that a new polynomial's exponents start in.
_WIDTH = 16


def _fit(top: int) -> int:
    """The field width for exponents up to ``top``: the smallest of _WIDTH,
    2*_WIDTH, 4*_WIDTH, ... bits whose fields hold ``top`` below their top bit."""
    width = _WIDTH
    while top >> (width - 1):
        width *= 2
    return width


def _shifts(n: int, width: int) -> "list[int]":
    """Bit offsets of the fields of ``n`` letters, the first letter highest."""
    return [width * (n - 1 - i) for i in range(n)]


def _unpack(keys: "Iterable[int]", n: int, width: int) -> "list[list[int]]":
    """The exponent vectors of ``n`` letters that ``keys`` pack in fields
    of ``width`` bits."""
    mask = (1 << width) - 1
    shifts = _shifts(n, width)
    return [[k >> s & mask for s in shifts] for k in keys]


def _mpoly(letters: "tuple[str, ...]", top: int, terms: "dict[int, int]") -> "MPoly":
    """The MPoly with ``terms`` over ``letters``, zero coefficients dropped.

    The trusted path: ``letters`` must be a sorted tuple of valid
    letters, ``top`` at least every exponent, every key a packed exponent
    vector over ``letters`` in fields of ``_fit(top)`` bits, and every
    coefficient an int.
    """
    p = object.__new__(MPoly)
    _set(p, "_letters", letters)
    _set(p, "_top", top)
    _set(p, "_terms", {k: c for k, c in terms.items() if c})
    return p


def _pack(terms: "Sequence[tuple[Sequence[int], int]]") -> "tuple[int, dict[int, int]]":
    """``(top, packed)`` for ``terms``, (exponent vector, coefficient)
    pairs over one sorted alphabet: ``top`` the largest exponent, and
    ``packed`` the coefficients summed per key in fields of ``_fit(top)``
    bits, zero sums dropped.  Every exponent must be a nonnegative int
    and every coefficient an int: :class:`MPoly` validates before it
    packs, and :func:`_mpoly` takes the result as it is."""
    top = max((e for v, _ in terms for e in v), default=0)
    width = _fit(top)
    packed: "dict[int, int]" = {}
    for v, c in terms:
        k = 0
        for e in v:
            k = k << width | e
        packed[k] = packed.get(k, 0) + c
    return top, {k: c for k, c in packed.items() if c}


def _repack(p: "MPoly", letters: "tuple[str, ...]", width: int) -> "dict[int, int]":
    """The terms of ``p`` keyed over ``letters`` in fields of ``width`` bits.

    Letters of ``p`` outside ``letters`` are dropped, so their exponents
    must be 0 in every term; ``width`` must hold ``p``'s exponents.
    """
    own_width = _fit(p._top)
    if p._letters == letters and own_width == width:
        return p._terms
    own = p._letters
    mask = (1 << own_width) - 1
    dest = dict(zip(letters, _shifts(len(letters), width)))
    moves = [(s, dest[l]) for l, s in zip(own, _shifts(len(own), own_width)) if l in dest]
    out = {}
    for k, c in p._terms.items():
        m = 0
        for s, t in moves:
            m |= ((k >> s) & mask) << t
        out[m] = c
    return out


def _align(polys: "Sequence[MPoly]", top: int):
    """(letters, terms of each poly) over the union of the alphabets, in
    fields of ``_fit(top)`` bits; ``top`` must bound every poly's exponents."""
    letters = polys[0]._letters
    if any(p._letters != letters for p in polys):
        letters = tuple(sorted({l for p in polys for l in p._letters}))
    width = _fit(top)
    return letters, [_repack(p, letters, width) for p in polys]


def _mul_into(acc: "dict[int, int]", a: "dict[int, int]", b: "dict[int, int]",
              scale: int = 1) -> None:
    """Add ``scale`` times the product of the packed terms ``a`` and ``b``
    into ``acc``; the keys of all three must share one alphabet and width."""
    b_items = b.items()
    for k1, c1 in a.items():
        c1 *= scale
        for k2, c2 in b_items:
            m = k1 + k2
            acc[m] = acc.get(m, 0) + c1 * c2


class MPoly(_Frozen):
    """Sparse multivariate polynomial with int coefficients, as a value.

    An MPoly is constructed (``MPoly(...)``, :meth:`letter`,
    :meth:`monomial`, or as a derivative by this module's functions),
    compared with ``==``, printed (``str``, :meth:`sorted_terms`,
    :meth:`to_json_obj`) and asked for its :meth:`letters`.  It has no
    arithmetic: the sums and products a derivation needs are taken on
    packed terms inside this module.

    Terms are stored as ``{packed exponent vector: coefficient}`` over a
    sorted tuple of letters.  A monomial's key is one int: the exponent
    of each letter sits in a field of ``width`` bits, the first letter
    in the most significant field, so ``x^a*y^b*z^c`` over ``(x, y, z)``
    is ``a << 2*width | b << width | c``.  Integer order on keys is then
    the canonical term order (exponent vectors compared over the sorted
    letters, used for printing and serialization), and multiplying two
    monomials adds their keys.

    Exponents are unbounded.  Each polynomial carries an upper bound
    ``top`` on its exponents, and its field width is ``_fit(top)``: the
    smallest of 16, 32, 64, ... bits whose fields hold ``top`` below
    their top bit.  A derivation first bounds the exponents of its
    result and packs its operands at that bound's width, so no field
    carries into the next.

    The alphabet may hold letters whose exponent is 0 in every term (a
    derivative keeps its grammar's alphabet), so equality aligns two
    polynomials over the union of their alphabets and one width that
    holds both.  Zero coefficients are never stored, so equality is
    structural.

    The constructors validate through :class:`Monomial`, then pack
    through :func:`_pack`, as runlab's own values built from exponent
    vectors do without the validation.  Coefficients are ``int`` only,
    with ``bool`` refused as by ``RatPoly``.
    """

    __slots__ = ("_letters", "_top", "_terms")

    def __init__(self, terms: "Mapping[Monomial, int] | Iterable[tuple[Monomial, int]]" = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for mono, c in items:
            if not isinstance(mono, Monomial):
                raise TypeError("MPoly terms are keyed by Monomial")
            if type(c) is not int:
                raise TypeError("MPoly coefficients must be int")
            checked.append((mono, c))
        letters = tuple(sorted({l for mono, _ in checked for l in mono.letters}))
        top, terms = _pack([(mono.exponent_vector(letters), c) for mono, c in checked])
        _set(self, "_letters", letters)
        _set(self, "_top", top)
        _set(self, "_terms", terms)

    @classmethod
    def letter(cls, letter: str) -> "MPoly":
        return cls([(Monomial({letter: 1}), 1)])

    @classmethod
    def monomial(cls, exps: "Mapping[str, int]", coeff: int = 1) -> "MPoly":
        return cls([(Monomial(exps), coeff)])

    def letters(self) -> "tuple[str, ...]":
        vectors = _unpack(self._terms, len(self._letters), _fit(self._top))
        return tuple(
            l for i, l in enumerate(self._letters) if any(v[i] for v in vectors)
        )

    def sorted_terms(self) -> "list[tuple[Monomial, int]]":
        keys = sorted(self._terms)
        letters = self._letters
        return [(Monomial(zip(letters, v)), self._terms[k])
                for k, v in zip(keys, _unpack(keys, len(letters), _fit(self._top)))]

    # -- structure -----------------------------------------------------

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        _, (a, b) = _align((self, other), max(self._top, other._top))
        return a == b

    __hash__ = None  # dict-backed; not hashable

    def __repr__(self):
        return f"MPoly({self})"

    def __str__(self):
        return _sum_text((c, str(mono)) for mono, c in self.sorted_terms())

    def to_json_obj(self) -> "list[dict]":
        """Sorted term list, coefficients as decimal strings."""
        return [
            {"coeff": str(c), "mono": dict(mono.items())}
            for mono, c in self.sorted_terms()
        ]


class Grammar(_Frozen):
    """Substitution rules letter -> polynomial, closed over the alphabet.

    The rules are compiled once, at construction, over the sorted
    alphabet: the rule for letter ``i`` becomes its terms as exponent
    vectors minus the unit vector of ``i`` (the "delta" that one
    replaced occurrence adds to a monomial), and ``_grow`` is the
    largest amount by which a delta raises any exponent.  For each field
    width it is used at, a delta is packed once more into an int offset
    (fields of -1 included), which a derivation step adds to a key.
    ``rules`` is a read-only copy of the mapping passed in, so a grammar
    shared by :func:`builtin` cannot drift from its compiled form.
    """

    __slots__ = ("rules", "_letters", "_deltas", "_grow", "_packed")

    def __init__(self, rules: "Mapping[str, MPoly]"):
        rules = MappingProxyType(dict(rules))
        declared = set(rules)
        for letter, rhs in rules.items():
            _check_letter(letter)
            if not isinstance(rhs, MPoly):
                raise TypeError("rule right-hand sides must be MPoly")
            for used in rhs.letters():
                if used not in declared:
                    raise ValueError(
                        f"letter {used!r} appears in the rule for {letter!r} "
                        "but has no rule of its own"
                    )
        letters = tuple(sorted(declared))
        deltas = []
        for i, letter in enumerate(letters):
            rule = rules[letter]
            compiled = []
            for v, c in zip(_unpack(rule._terms, len(rule._letters), _fit(rule._top)),
                            rule._terms.values()):
                # a rule's alphabet may hold undeclared letters, at exponent 0
                exps = dict(zip(rule._letters, v))
                delta = tuple(exps.get(l, 0) - (j == i) for j, l in enumerate(letters))
                compiled.append((delta, c))
            deltas.append(tuple(compiled))
        deltas = tuple(deltas)
        _set(self, "rules", rules)
        _set(self, "_letters", letters)
        _set(self, "_deltas", deltas)
        _set(self, "_grow", max((e for rule in deltas for delta, _ in rule for e in delta
                                 if e > 0), default=0))
        _set(self, "_packed", {})

    @property
    def alphabet(self) -> "frozenset[str]":
        return frozenset(self.rules)

    def _fields(self, width: int) -> "tuple[tuple[int, tuple[tuple[int, int], ...]], ...]":
        """Per letter, its field's bit offset and its rule as (packed delta,
        coefficient) pairs, for fields of ``width`` bits."""
        fields = self._packed.get(width)
        if fields is None:
            shifts = _shifts(len(self._letters), width)
            fields = self._packed[width] = tuple(
                (s, tuple((sum(e << t for e, t in zip(delta, shifts)), c)
                          for delta, c in rule))
                for s, rule in zip(shifts, self._deltas)
            )
        return fields


def _check_rules(g: Grammar, p: MPoly) -> None:
    """Refuse ``p`` if a letter it uses has no rule in ``g``, naming the
    first such letter in alphabetical order, whatever the order of terms."""
    if p._letters != g._letters:
        for letter in p.letters():
            if letter not in g.rules:
                raise ValueError(f"letter {letter!r} has no rule in this grammar")


def _check_order(n: int) -> None:
    """Refuse a derivative order that is not an ``int``, or is a ``bool``,
    with ``TypeError``, and a negative one with ``ValueError``."""
    if type(n) is not int:
        raise TypeError(f"derivative order must be an int, got {n!r}")
    if n < 0:
        raise ValueError("derivative order must be >= 0")


def _tower(g: Grammar, terms: "dict[int, int]", width: int, n: int):
    """Yield D^1(p), ..., D^n(p) for the packed terms of ``p``, keyed over
    the grammar's alphabet in fields of ``width`` bits.

    ``width`` must hold every exponent of D^n(p) below its top bit; each
    level is a new dict and may hold zero coefficients.  D acts linearly
    on terms and by the product rule inside each monomial: a term ``c *
    v`` whose field ``i`` reads ``e`` contributes ``c * e * rc`` at ``v +
    delta`` for each compiled rule term ``(delta, rc)`` of letter ``i``.
    A delta field of -1 is only added where that exponent is >= 1, so no
    field borrows.  Each step makes one pass over the terms per (letter,
    rule term) pair.
    """
    fields = g._fields(width)
    mask = (1 << width) - 1
    for _ in range(n):
        items = terms.items()
        terms = {}
        get = terms.get
        for s, rule in fields:
            for delta, rc in rule:
                for k, c in items:
                    e = k >> s & mask
                    if e:
                        m = k + delta
                        terms[m] = get(m, 0) + c * e * rc
        yield terms


def d_tower(g: Grammar, p: MPoly, n: int) -> "Iterator[MPoly]":
    """Yield D^1(p), ..., D^n(p) under the derivation induced by ``g``.

    The order and p's letters are checked once, when the first level is
    drawn, and the width once: every level carries the bound of D^n(p)
    and is taken at the one field width that holds it.  An order that is
    not an ``int``, or is a ``bool``, raises ``TypeError``, a negative
    one ``ValueError``; n = 0 yields nothing and checks no letter.
    """
    _check_order(n)
    if not n:
        return
    _check_rules(g, p)
    top = p._top + n * g._grow
    width = _fit(top)
    for terms in _tower(g, _repack(p, g._letters, width), width, n):
        yield _mpoly(g._letters, top, terms)


def d_apply(g: Grammar, p: MPoly) -> MPoly:
    """One application of the derivation induced by ``g``: every letter
    occurrence replaced, once, by its rule."""
    return d_power(g, p, 1)


def d_power(g: Grammar, p: MPoly, n: int) -> MPoly:
    """D^n(p): the last level of :func:`d_tower`, or ``p`` itself, its
    letters unchecked, for n = 0."""
    for p in d_tower(g, p, n):
        pass
    return p


def _leibniz_sides(g: Grammar, u: MPoly, v: MPoly, n: int) -> "tuple[MPoly, MPoly]":
    """D^n(u*v) and sum_k C(n,k) D^k(u) D^(n-k)(v).

    Every derivative and product is taken at one width, that of ``top``,
    which bounds the exponents of both sides; the sum is accumulated in
    one dict of packed keys.
    """
    _check_order(n)
    if n:
        _check_rules(g, u)
        _check_rules(g, v)
        letters = g._letters
    else:
        # no rule is applied, so u and v may use letters g has no rule for
        letters = tuple(sorted({*u._letters, *v._letters}))
    top = u._top + v._top + n * g._grow
    width = _fit(top)
    a = _repack(u, letters, width)
    b = _repack(v, letters, width)
    du = [a, *_tower(g, a, width, n)]
    dv = [b, *_tower(g, b, width, n)]
    uv: "dict[int, int]" = {}
    _mul_into(uv, a, b)
    for uv in _tower(g, uv, width, n):
        pass
    acc: "dict[int, int]" = {}
    for k in range(n + 1):
        _mul_into(acc, du[k], dv[n - k], comb(n, k))
    return _mpoly(letters, top, uv), _mpoly(letters, top, acc)


def leibniz_check(g: Grammar, u: MPoly, v: MPoly, n: int) -> bool:
    """Whether D^n(u*v) equals sum_k C(n,k) D^k(u) D^(n-k)(v) exactly."""
    lhs, rhs = _leibniz_sides(g, u, v, n)
    return lhs == rhs


# ----------------------------------------------------------------------
# DSL: rules "letter -> term (+ term)*" separated by ";", explicit "*"
# between factors, "^" for powers, positive integer coefficients.


class GrammarError(ValueError):
    """Parse failure, carrying the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PUNCT = {"+", "*", "^", ";"}


def _tokenize(src: str) -> "list[tuple[str, str, int]]":
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch == "-":
            if src[i + 1 : i + 2] == ">":
                tokens.append(("ARROW", "->", i))
                i += 2
            else:
                raise GrammarError("expected '->'", i)
        elif ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdecimal():
            # isdecimal, not isdigit: exactly the digits int() reads
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(("INT", src[i:j], i))
            i = j
        elif ch.isalpha():
            tokens.append(("LETTER", ch, i))
            i += 1
        else:
            raise GrammarError(f"unknown character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str) -> "tuple[str, str, int]":
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            shown = repr(tok[1]) if tok[0] != "END" else "end of input"
            raise GrammarError(f"expected {kind}, found {shown}", tok[2])
        self.pos += 1
        return tok

    def parse_factor(self) -> "tuple[int, Monomial]":
        kind, text, at = self.peek()
        if kind == "INT":
            self.take("INT")
            value = int(text)
            if value < 1:
                raise GrammarError("coefficients must be positive integers", at)
            return value, Monomial()
        if kind == "LETTER":
            self.take("LETTER")
            exp = 1
            if self.peek()[0] == "^":
                self.take("^")
                _, etext, eat = self.take("INT")
                exp = int(etext)
                if exp < 1:
                    raise GrammarError("exponents must be positive integers", eat)
            return 1, Monomial({text: exp})
        raise GrammarError(
            "expected a coefficient or a letter", at
        )

    def parse_term(self) -> "tuple[int, Monomial]":
        coeff, mono = self.parse_factor()
        while self.peek()[0] == "*":
            self.take("*")
            c, m = self.parse_factor()
            coeff *= c
            mono = mono * m
        return coeff, mono

    def parse_poly(self) -> MPoly:
        terms = [self.parse_term()]
        while self.peek()[0] == "+":
            self.take("+")
            terms.append(self.parse_term())
        return MPoly((mono, coeff) for coeff, mono in terms)

    def parse_rules(self) -> "dict[str, MPoly]":
        rules: "dict[str, MPoly]" = {}
        while True:
            _, letter, at = self.take("LETTER")
            if letter in rules:
                raise GrammarError(f"duplicate rule for letter {letter!r}", at)
            self.take("ARROW")
            rules[letter] = self.parse_poly()
            kind, _, at = self.peek()
            if kind == ";":
                self.take(";")
                if self.peek()[0] == "END":
                    break
            elif kind == "END":
                break
            else:
                raise GrammarError("expected ';' between rules", at)
        return rules


def parse_grammar(spec: str) -> Grammar:
    """Parse ``"x -> x*y; y -> y*z; z -> y^2"`` style rule sets."""
    parser = _Parser(spec)
    rules = parser.parse_rules()
    try:
        return Grammar(rules)
    except ValueError as exc:
        raise GrammarError(str(exc), len(spec)) from None


def parse_word(text: str) -> MPoly:
    """Parse a single term such as ``x^2`` or ``2*x*y`` into an MPoly."""
    parser = _Parser(text)
    coeff, mono = parser.parse_term()
    kind, _, at = parser.peek()
    if kind != "END":
        raise GrammarError("a word must be a single term", at)
    return MPoly([(mono, coeff)])


BUILTIN_GRAMMARS = {
    "main": "x -> x*y; y -> y*z; z -> y^2",
    "dumont": "x -> x*y; y -> x*y",
    "peaks": "y -> y*z; z -> y^2",
    "schett": "x -> y*z; y -> x*z; z -> x*y",
}


@lru_cache(maxsize=None)
def builtin(name: str) -> Grammar:
    """One of the stock grammars: main, dumont, peaks, schett."""
    try:
        source = BUILTIN_GRAMMARS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GRAMMARS))
        raise ValueError(f"unknown builtin grammar {name!r} (known: {known})") from None
    return parse_grammar(source)
