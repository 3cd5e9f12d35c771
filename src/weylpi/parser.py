"""Expression text <-> NCPoly.

Grammar: variables ``x1``..``x999``; ``+ - * ^``; commutator sugar
``[e1,e2]``; integer and rational (``a/b``) literals; parentheses.
Products are left-associative and ``^`` binds tighter than ``*``.
With ``max_degree`` the parser refuses, from the degrees and term counts
of the operands, every product, power or commutator of degree above the
cap, or of more than ``_MAX_PRODUCT_TERMS`` terms, before it is multiplied
out.

While parsing, values are plain word dicts (see ``_Parser``): every
product and both halves of a commutator go through
``free_algebra._word_product``, the routine behind ``NCPoly.__mul__``, and
so does each step of a power, unless its base has one word.  Over Q the
coefficients are ints until a rational literal ``a/b`` brings in a
``Fraction``, so products of letters and integers multiply ints, not
Fractions; ``_Parser.parse`` lifts each coefficient that survives into the
field once, and an NCPoly over Q holds only Fractions.
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


def _constant(c):
    return {(): c} if c else {}


def _degree(terms):
    return max(map(len, terms), default=0)


class _Parser:
    """Recursive descent over the tokens.  Every value is a word dict with no
    zero coefficients; ``nvars`` is the largest variable index read so far,
    cancelled or not.  Over F_p a coefficient is a residue; over Q it is an
    int, or a Fraction once a rational literal takes part, and int and
    Fraction arithmetic mix exactly.  ``parse`` makes the one NCPoly, with
    ``Field.of`` applied once to each of its coefficients."""

    def __init__(self, text, field, max_degree=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.field = field
        self.max_degree = max_degree
        self.nvars = 0

    def pos(self, i):
        """Where token ``i`` starts in the text."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return (starts + [len(self.text)])[i]

    def number(self, i):
        try:
            return int(self.tokens[i])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"number {self.tokens[i][:20]}... is too long", self.pos(i)) from None

    def cap(self, degree):
        if self.max_degree is not None and degree > self.max_degree:
            raise ResourceLimit(
                f"expression degree {degree} exceeds the cap of {self.max_degree}"
            )

    def cap_terms(self, count):
        if count > _MAX_PRODUCT_TERMS:
            raise ResourceLimit(
                f"product of up to {count} terms exceeds the limit of {_MAX_PRODUCT_TERMS}"
            )

    def cap_product(self, f, g):
        if self.max_degree is not None:
            self.cap(_degree(f) + _degree(g))
            self.cap_terms(len(f) * len(g))

    def constant_power(self, f, n):
        F = self.field
        c = f.get((), F.zero)
        if F.p:
            return pow(c, n, F.p)
        bits = max(abs(c.numerator), c.denominator).bit_length()
        if bits > 1 and n * bits > _MAX_CONSTANT_BITS:
            raise ResourceLimit(f"constant power of {n * bits} bits exceeds {_MAX_CONSTANT_BITS}")
        return c**n

    def peek(self):
        return self.tokens[self.i]

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
        F = self.field
        terms = self.expr()
        if self.peek():
            raise ParseError(f"trailing input {self.peek()!r}", self.pos(self.i))
        if not F.p:
            terms = {w: F.of(c) for w, c in terms.items()}
        return NCPoly(F, self.nvars, terms)

    def expr(self):
        # every term is added into one dict, so a sum parses in linear time
        F = self.field
        terms = {}
        while True:
            sign = self.take() if self.peek() in ("+", "-") else "+"
            pairs = self.term().items()
            F.add_into(terms, pairs if sign == "+" else ((w, -c) for w, c in pairs))
            if self.peek() not in ("+", "-"):
                return terms

    def term(self):
        f = self.factor()
        while self.peek() == "*":
            self.take()
            g = self.factor()
            self.cap_product(f, g)
            f = _word_product(self.field, f, g)
        return f

    def factor(self):
        f = self.atom()
        if self.peek() == "^":
            self.take()
            if not self.take().isdecimal():
                raise ParseError("exponent must be a nonnegative integer", self.pos(self.i - 1))
            n = self.number(self.i - 1)
            degree = _degree(f)
            self.cap(degree * n)
            if degree == 0:  # a constant: one scalar power, not n products
                return _constant(self.constant_power(f, n))
            if self.max_degree is not None:
                # with two or more terms the bound passes the limit by n = 64
                self.cap_terms(len(f) ** min(n, 64))
            if len(f) == 1:  # a word to the n: n copies, one scalar power
                ((w, c),) = f.items()
                p = self.field.p
                return {w * n: pow(c, n, p) if p else c**n}
            out = {(): 1}
            for _ in range(n):
                out = _word_product(self.field, out, f)
            f = out
        return f

    def atom(self):
        F = self.field
        i, tok = self.i, self.take()
        if tok.isdecimal():
            num = self.number(i)
            if self.peek() != "/":
                return _constant(num % F.p if F.p else num)
            self.take()
            i, den = self.i, self.take()
            if not den.isdecimal():
                raise ParseError("expected denominator", self.pos(i))
            try:
                return _constant(F.of(num, self.number(i)))
            except ZeroDivisionError:
                raise ParseError(f"denominator {den} is not invertible", self.pos(i)) from None
        if tok[:1] == "x":
            digits = tok[1:].lstrip("0")
            idx = int(digits) if 0 < len(digits) <= 3 else 0
            if not 1 <= idx <= 999:
                raise UnknownVariable(f"variable {tok[:8]} out of range x1..x999", self.pos(i))
            self.cap(1)
            self.nvars = max(self.nvars, idx)
            return {(idx,): 1}
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok == "[":
            f = self.expr()
            self.expect(",")
            g = self.expr()
            self.expect("]")
            self.cap_product(f, g)
            fg = _word_product(F, f, g)
            F.add_into(fg, ((w, -c) for w, c in _word_product(F, g, f).items()))
            return fg
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
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        parts.append(f"x{word[i]}" + (f"^{run}" if run > 1 else ""))
        i = j
    return "*".join(parts)


def format_poly(f):
    """Canonical text form; ``parse_poly(format_poly(f), field) == f``."""
    if f.is_zero():
        return "0"
    F = f.field
    pieces = []
    for w, c in f.sorted_terms():
        word_txt = _format_word(w)
        neg = F.p == 0 and c < 0
        mag = -c if neg else c
        if w and mag == F.one:
            txt = word_txt
        elif not w:
            txt = F.format(mag)
        else:
            txt = f"{F.format(mag)}*{word_txt}"
        if not pieces:
            pieces.append(("-" if neg else "") + txt)
        else:
            pieces.append(("- " if neg else "+ ") + txt)
    return " ".join(pieces)
