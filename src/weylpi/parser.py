"""Expression text <-> NCPoly.

Grammar: variables ``x1``..``x999``; ``+ - * ^``; commutator sugar
``[e1,e2]``; integer and rational (``a/b``) literals; parentheses.
Products are left-associative and ``^`` binds tighter than ``*``.
With ``max_degree`` the parser refuses, from the degrees and term counts
of the operands, every product, power or commutator of degree above the
cap, or of more than ``_MAX_PRODUCT_TERMS`` terms, before it is multiplied
out.

While parsing, a letter, a literal, and a power or product of monomials
is a monomial ``(word, c)``: factors fold into one word and one scalar as
they are read, and a commutator of two monomials is written out as its
two words.  Only a value of two or more words is a word dict, and only its
products, powers and commutators call ``free_algebra._word_product``.
Over Q the coefficients are ints until a literal ``a/b`` brings in a
``Fraction``; ``_Parser.parse`` lifts them into the field once, and the
dict it hands to ``NCPoly`` is already merged, reduced and free of zeros.
"""

import re

from .errors import ParseError, ResourceLimit, UnknownVariable
from .free_algebra import NCPoly, _word_product

# A power of a rational constant grows by the size of the base per unit of
# exponent; past this many bits it is refused as a resource limit.
_MAX_CONSTANT_BITS = 1 << 16

# A product of polynomials with k and l terms can have k*l terms; under a
# degree cap, products bounded above this many terms are refused.
_MAX_PRODUCT_TERMS = 10**5

# The canonical spellings x1..x999 read so far, mapped to their indices:
# ``_Parser.letter`` enters each one the first time it is read.  An entry
# never changes, so every parse may share them.
_LETTERS = {}

_TOKEN = re.compile(r"x\d+|\d+|[+\-*^()\[\],/]", re.ASCII)
# the first character that starts no token: an x with no digit after it, or
# any character that is not an ASCII space, an ASCII digit or an operator
_BAD = re.compile(r"x(?!\d)|[^\s\dx+\-*^()\[\],/]", re.ASCII)


def _tokenize(text):
    """The tokens as strings, then "" for the end; positions are found again
    only for an error (``_Parser.pos``)."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    return _TOKEN.findall(text) + [""]


def _as_dict(f):
    return f if type(f) is dict else {f[0]: f[1]} if f[1] else {}


def _as_value(terms):
    return terms if len(terms) > 1 else next(iter(terms.items()), ((), 0))


class _Parser:
    """Recursive descent over the tokens.  A value is a monomial ``(w, c)``,
    ``w == ()`` if ``c`` is 0, or a word dict of two or more nonzero terms."""

    def __init__(self, text, field, max_degree=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.field = field
        self.max_degree = max_degree
        self.nvars = 0  # the largest index read, cancelled or not

    def pos(self, i):
        """Where token ``i`` starts in the text."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return (starts + [len(self.text)])[i]

    def number(self, i):
        try:
            return int(self.tokens[i])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"number {self.tokens[i][:20]}... is too long", self.pos(i)) from None

    def cap(self, degree, count=1):
        top, limit = self.max_degree, _MAX_PRODUCT_TERMS
        if top is not None and degree > top:
            raise ResourceLimit(f"expression degree {degree} exceeds the cap of {top}")
        if top is not None and count > limit:
            raise ResourceLimit(f"product of up to {count} terms exceeds the limit of {limit}")

    def product(self, f, g):
        # f*g as a word dict, formed once both caps pass
        f, g = _as_dict(f), _as_dict(g)
        if self.max_degree is not None:
            self.cap(max(map(len, f), default=0) + max(map(len, g), default=0), len(f) * len(g))
        return _word_product(self.field, f, g)

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op):
        tok = self.take()
        if tok != op:
            found = repr(tok) if tok else "end of input"
            raise ParseError(f"expected {op!r}, found {found}", self.pos(self.i - 1))

    def parse(self):
        F, terms = self.field, _as_dict(self.expr())
        if self.tokens[self.i]:
            raise ParseError(f"trailing input {self.tokens[self.i]!r}", self.pos(self.i))
        if not F.p:
            terms = {w: F.of(c) for w, c in terms.items()}
        return NCPoly._of_terms(F, self.nvars, terms)

    def expr(self):
        # one unsigned term is its own value; a sum adds into one dict, in linear time
        sign = self.take() if self.tokens[self.i] in ("+", "-") else "+"
        f = self.term()
        if sign == "+" and self.tokens[self.i] not in ("+", "-"):
            return f
        terms = {}
        while True:
            pairs = f.items() if type(f) is dict else (f,)
            self.field.add_into(terms, pairs if sign == "+" else ((w, -c) for w, c in pairs))
            if self.tokens[self.i] not in ("+", "-"):
                return _as_value(terms)
            sign = self.take()
            f = self.term()

    def letter(self, i, tok):
        """The index of the variable token ``tok``, token ``i``.  A canonical
        spelling ``x1``..``x999`` is entered in ``_LETTERS``; any other, such
        as ``x01``, is checked each time it is read."""
        digits = tok[1:].lstrip("0")
        idx = int(digits) if 0 < len(digits) <= 3 else 0
        if not 1 <= idx <= 999:
            raise UnknownVariable(f"variable {tok[:8]} out of range x1..x999", self.pos(i))
        if len(digits) == len(tok) - 1:
            _LETTERS[tok] = idx
        return idx

    def term(self):
        # letters and integers are read here; monomials fold, capped first,
        # and a letter extends the word with no scalar product
        p, tokens, f, top = self.field.p, self.tokens, None, self.max_degree
        while True:
            i, tok = self.i, tokens[self.i]
            self.i += 1
            idx = _LETTERS.get(tok) or tok[:1] == "x" and self.letter(i, tok)
            if idx:
                if top is not None:
                    self.cap(1)
                if idx > self.nvars:
                    self.nvars = idx
                g = (idx,), 1
            elif tok.isdecimal() and tokens[self.i] != "/":
                g = (), self.number(i) % p if p else self.number(i)
            else:
                g = self.atom(i, tok)
            if tokens[self.i] == "^":
                g = self.power(g)
            if f is None:
                f = g
            elif type(f) is dict or type(g) is dict:
                f = _as_value(self.product(f, g))
            else:
                (w, c), (v, d) = f, g
                if top is not None:
                    self.cap(len(w) + len(v))
                if not idx:  # a letter or its power has scalar 1
                    c = c * d % p if p else c * d
                f = (w + v, c) if c else ((), 0)
            if tokens[self.i] != "*":
                return f
            self.i += 1

    def power(self, f):
        self.i += 1
        if not self.take().isdecimal():
            raise ParseError("exponent must be a nonnegative integer", self.pos(self.i - 1))
        n = self.number(self.i - 1)
        if type(f) is tuple:  # the word repeated, one scalar power
            (w, c), p = f, self.field.p
            self.cap(len(w) * n)
            if p or w:
                return w * n, pow(c, n, p) if p else c**n
            bits = n * max(abs(c.numerator), c.denominator).bit_length()
            if bits > n and bits > _MAX_CONSTANT_BITS:  # 0 and 1 do not grow
                raise ResourceLimit(f"constant power of {bits} bits exceeds {_MAX_CONSTANT_BITS}")
            return (), c**n
        # with two or more terms the bound passes the limit by n = 64
        self.cap(max(map(len, f)) * n, len(f) ** min(n, 64))
        out = {(): 1}
        for _ in range(n):
            out = _word_product(self.field, out, f)
        return _as_value(out)

    def atom(self, i, tok):
        # a rational literal, a parenthesis or a commutator: token i, just taken
        F = self.field
        if tok.isdecimal():  # a/b
            num, i, den = self.number(i), i + 2, self.tokens[i + 2]
            self.i = i + 1
            if not den.isdecimal():
                raise ParseError("expected denominator", self.pos(i))
            try:
                return (), F.of(num, self.number(i))
            except ZeroDivisionError:
                raise ParseError(f"denominator {den} is not invertible", self.pos(i)) from None
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok == "[":
            f = self.expr()
            self.expect(",")
            g = self.expr()
            self.expect("]")
            if type(f) is dict or type(g) is dict:
                fg = self.product(f, g)
                F.add_into(fg, ((w, -c) for w, c in self.product(g, f).items()))
                return _as_value(fg)
            (w, c), (v, d) = f, g
            self.cap(len(w) + len(v))
            if w + v == v + w:  # a zero monomial has the empty word
                return (), 0
            c = c * d % F.p if F.p else c * d
            return {w + v: c, v + w: -c % F.p if F.p else -c}
        if not tok:
            raise ParseError("unexpected end of input", self.pos(i))
        raise ParseError(f"unexpected token {tok!r}", self.pos(i))


def parse_poly(text, field, max_degree=None):
    """Parse an expression into an NCPoly over the given field.

    With ``max_degree``, an expression that would need a product of higher
    degree raises ``ResourceLimit`` before that product is formed."""
    try:
        return _Parser(text, field, max_degree).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply", 0) from None


def _format_word(word):
    if not word:
        return "1"
    parts = []
    prev, run = word[0], 0
    for letter in word:
        if letter != prev:
            parts.append(f"x{prev}^{run}" if run > 1 else f"x{prev}")
            prev, run = letter, 0
        run += 1
    parts.append(f"x{prev}^{run}" if run > 1 else f"x{prev}")
    return "*".join(parts)


def format_poly(f):
    """Canonical text form; ``parse_poly(format_poly(f), field) == f``.

    Each coefficient is read once as an int pair (n, d): (numerator,
    denominator) over Q, (residue, 1) over F_p.  Its magnitude prints as
    ``n`` or ``n/d``, as ``str`` prints a ``Fraction`` or an int."""
    if f.is_zero():
        return "0"
    rational = f.field.p == 0
    pieces = []
    for w, c in f.sorted_terms():
        n, d = (c.numerator, c.denominator) if rational else (c, 1)
        neg = n < 0
        if neg:
            n = -n
        mag = str(n) if d == 1 else f"{n}/{d}"
        if not w:
            txt = mag
        elif n == 1 and d == 1:
            txt = _format_word(w)
        else:
            txt = f"{mag}*{_format_word(w)}"
        if not pieces:
            pieces.append("-" + txt if neg else txt)
        else:
            pieces.append(("- " if neg else "+ ") + txt)
    return " ".join(pieces)
