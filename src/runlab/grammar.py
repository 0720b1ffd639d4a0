"""Substitution-rule calculus on commutative letters.

A grammar maps single-character letters to polynomials in those letters;
it induces a derivation ``D`` on the polynomial ring: linear, Leibniz on
products, and equal to the rule on each letter.  Iterating ``D`` on a
seed monomial expands into :class:`MPoly` values whose integer
coefficients are the triangles generated elsewhere in this package --
that cross-check is the point of the whole module.

Coefficients are plain ``int`` (iterated derivatives reach
tangent-number growth, far past 64 bits), and all values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from operator import add
from typing import Iterable, Mapping

__all__ = [
    "BUILTIN_GRAMMARS",
    "Grammar",
    "GrammarError",
    "MPoly",
    "Monomial",
    "builtin",
    "d_apply",
    "d_power",
    "leibniz_check",
    "parse_grammar",
    "parse_word",
]


def _check_letter(letter: str) -> str:
    if not (isinstance(letter, str) and len(letter) == 1 and letter.isalpha()):
        raise ValueError(f"letters are single alphabetic characters, got {letter!r}")
    return letter


class Monomial:
    """A commutative power product, stored as sorted (letter, exponent) pairs."""

    __slots__ = ("_exps",)

    def __init__(self, exps: "Mapping[str, int] | Iterable[tuple[str, int]]" = ()):
        pairs = dict(exps)
        clean = {}
        for letter, e in pairs.items():
            _check_letter(letter)
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {letter!r} must be a nonnegative int")
            if e:
                clean[letter] = e
        object.__setattr__(self, "_exps", tuple(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

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

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self._exps)

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


_set = object.__setattr__


def _mpoly(letters: "tuple[str, ...]", terms: "dict[tuple[int, ...], int]") -> "MPoly":
    """The MPoly with ``terms`` over ``letters``, zero coefficients dropped.

    The trusted path: keys must be exponent vectors over ``letters``, a
    sorted tuple of valid letters, and coefficients must be ints.
    """
    p = object.__new__(MPoly)
    _set(p, "_letters", letters)
    _set(p, "_terms", {k: c for k, c in terms.items() if c})
    return p


def _reindex(p: "MPoly", letters: "tuple[str, ...]") -> "dict[tuple[int, ...], int]":
    """The terms of ``p`` as exponent vectors over ``letters``.

    Letters of ``p`` outside ``letters`` are dropped, so their exponents
    must be 0 in every term.
    """
    if p._letters == letters:
        return p._terms
    own = p._letters
    src = [own.index(l) if l in own else -1 for l in letters]
    return {
        tuple(k[i] if i >= 0 else 0 for i in src): c for k, c in p._terms.items()
    }


def _common(p: "MPoly", q: "MPoly"):
    """(letters, p's terms, q's terms) over the union of both alphabets."""
    if p._letters == q._letters:
        return p._letters, p._terms, q._terms
    letters = tuple(sorted(set(p._letters).union(q._letters)))
    return letters, _reindex(p, letters), _reindex(q, letters)


class MPoly:
    """Sparse multivariate polynomial with int coefficients.

    Terms are stored as ``{exponent vector: coefficient}`` over a sorted
    tuple of letters.  That alphabet may hold letters whose exponent is 0
    in every term (a derivative keeps its grammar's alphabet), so
    operations and equality align two polynomials over the union of their
    alphabets.  Zero coefficients are never stored, so equality is
    structural.  The canonical term order (used for printing and
    serialization) compares exponent vectors over the sorted letters.

    ``MPoly(...)``, :meth:`letter` and :meth:`monomial` validate through
    :class:`Monomial`; arithmetic builds its results from exponent
    vectors directly.
    """

    __slots__ = ("_letters", "_terms")

    def __init__(self, terms: "Mapping[Monomial, int] | Iterable[tuple[Monomial, int]]" = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for mono, c in items:
            if not isinstance(mono, Monomial):
                raise TypeError("MPoly terms are keyed by Monomial")
            if not isinstance(c, int):
                raise TypeError("MPoly coefficients must be int")
            checked.append((mono, c))
        letters = tuple(sorted({l for mono, _ in checked for l in mono.letters}))
        agg: "dict[tuple[int, ...], int]" = {}
        for mono, c in checked:
            k = mono.exponent_vector(letters)
            agg[k] = agg.get(k, 0) + c
        _set(self, "_letters", letters)
        _set(self, "_terms", {k: c for k, c in agg.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def letter(cls, letter: str) -> "MPoly":
        return cls([(Monomial({letter: 1}), 1)])

    @classmethod
    def monomial(cls, exps: "Mapping[str, int]", coeff: int = 1) -> "MPoly":
        return cls([(Monomial(exps), coeff)])

    def _monomial(self, k: "tuple[int, ...]") -> Monomial:
        return Monomial(zip(self._letters, k))

    def terms(self):
        return {self._monomial(k): c for k, c in self._terms.items()}.items()

    def letters(self) -> "tuple[str, ...]":
        return tuple(
            l for i, l in enumerate(self._letters) if any(k[i] for k in self._terms)
        )

    def sorted_terms(self) -> "list[tuple[Monomial, int]]":
        return [(self._monomial(k), c) for k, c in sorted(self._terms.items())]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = _mpoly((), {(): other})
        if not isinstance(other, MPoly):
            return NotImplemented
        letters, a, b = _common(self, other)
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return _mpoly(letters, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return _mpoly(self._letters, {k: c * other for k, c in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        letters, a, b = _common(self, other)
        out: "dict[tuple[int, ...], int]" = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return _mpoly(letters, out)

    __rmul__ = __mul__

    # -- structure -----------------------------------------------------

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = _mpoly((), {(): other})
        if not isinstance(other, MPoly):
            return NotImplemented
        _, a, b = _common(self, other)
        return a == b

    __hash__ = None  # dict-backed; not hashable

    def __repr__(self):
        return f"MPoly({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            if mono == Monomial():
                parts.append(str(c))
            elif c == 1:
                parts.append(str(mono))
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                text += " - " + term[1:]
            else:
                text += " + " + term
        return text

    def to_json_obj(self) -> "list[dict]":
        """Sorted term list, coefficients as decimal strings."""
        return [
            {"coeff": str(c), "mono": dict(mono.items())}
            for mono, c in self.sorted_terms()
        ]


@dataclass(frozen=True)
class Grammar:
    """Substitution rules letter -> polynomial, closed over the alphabet.

    The rules are compiled once, at construction, over the sorted
    alphabet: the rule for letter ``i`` becomes its terms as exponent
    vectors minus the unit vector of ``i`` (the "delta" that one
    replaced occurrence adds to a monomial).  ``rules`` must not be
    changed after construction.
    """

    rules: "Mapping[str, MPoly]"
    _letters: "tuple[str, ...]" = field(init=False, repr=False, compare=False)
    _deltas: "tuple[tuple[tuple[tuple[int, ...], int], ...], ...]" = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        declared = set(self.rules)
        for letter, rhs in self.rules.items():
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
        deltas = tuple(
            tuple(
                (tuple(e - (j == i) for j, e in enumerate(k)), c)
                for k, c in _reindex(self.rules[letter], letters).items()
            )
            for i, letter in enumerate(letters)
        )
        _set(self, "_letters", letters)
        _set(self, "_deltas", deltas)

    @property
    def alphabet(self) -> "frozenset[str]":
        return frozenset(self.rules)


def d_apply(g: Grammar, p: MPoly) -> MPoly:
    """One application of the derivation induced by ``g``.

    Acts linearly on terms and by the product rule inside each monomial:
    every letter occurrence is replaced, once, by its rule.  On exponent
    vectors over the grammar's alphabet, a term ``c * v`` with ``v[i] = e``
    contributes ``c * e * rc`` at ``v + delta`` for each compiled rule
    term ``(delta, rc)`` of letter ``i``.
    """
    letters = g._letters
    if p._letters != letters:
        for k in p._terms:
            for letter, e in zip(p._letters, k):
                if e and letter not in g.rules:
                    raise ValueError(f"letter {letter!r} has no rule in this grammar")
    deltas = g._deltas
    acc: "dict[tuple[int, ...], int]" = {}
    for k, c in _reindex(p, letters).items():
        for i, e in enumerate(k):
            if e:
                ce = c * e
                for delta, rc in deltas[i]:
                    m = tuple(map(add, k, delta))
                    acc[m] = acc.get(m, 0) + ce * rc
    return _mpoly(letters, acc)


def d_power(g: Grammar, p: MPoly, n: int) -> MPoly:
    """n-fold application of :func:`d_apply`."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    for _ in range(n):
        p = d_apply(g, p)
    return p


def leibniz_check(g: Grammar, u: MPoly, v: MPoly, n: int) -> bool:
    """Whether D^n(u*v) equals sum_k C(n,k) D^k(u) D^(n-k)(v) exactly."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    du = [u]
    dv = [v]
    for _ in range(n):
        du.append(d_apply(g, du[-1]))
        dv.append(d_apply(g, dv[-1]))
    rhs = MPoly.zero()
    for k in range(n + 1):
        rhs = rhs + comb(n, k) * (du[k] * dv[n - k])
    return d_power(g, u * v, n) == rhs


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
        elif ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
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
