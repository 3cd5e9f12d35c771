"""Expression text <-> NCPoly.

Grammar: variables ``x1``..``x999``; ``+ - * ^``; commutator sugar
``[e1,e2]``; integer and rational (``a/b``) literals; parentheses.
Products are left-associative and ``^`` binds tighter than ``*``.
With ``max_degree`` the parser refuses, from the degrees and term counts
of the operands, every product, power or commutator of degree above the
cap, or of more than ``_MAX_PRODUCT_TERMS`` terms, before it is multiplied
out.
"""

import re

from .errors import ParseError, ResourceLimit, UnknownVariable
from .free_algebra import NCPoly, commutator

# A power of a rational constant grows by the size of the base per unit of
# exponent; past this many bits it is refused as a resource limit.
_MAX_CONSTANT_BITS = 1 << 16

# A product of polynomials with k and l terms can have k*l terms; under a
# degree cap, products bounded above this many terms are refused.
_MAX_PRODUCT_TERMS = 10**5

_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([+\-*^()\[\],/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            while text[pos].isspace():
                pos += 1
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        var, num, op = m.groups()
        if var is not None:
            tokens.append(("var", var, m.start(1)))
        elif num is not None:
            tokens.append(("num", num, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _int(text, pos):
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"number {text[:20]}... is too long", pos) from None


def _degree(f):
    return max(map(len, f.terms), default=0)


class _Parser:
    def __init__(self, text, field, max_degree=None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.field = field
        self.max_degree = max_degree

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
            self.cap_terms(len(f.terms) * len(g.terms))

    def constant_power(self, f, n):
        F = self.field
        c = f.terms.get((), F.zero)
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
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self):
        f = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return f

    def expr(self):
        # every term is added into one dict, so a sum parses in linear time
        F = self.field
        terms = {}
        nvars = 0
        kind, val, _ = self.peek()
        while True:
            sign = 1
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
            g = self.term()
            nvars = max(nvars, g.nvars)
            pairs = g.terms.items()
            F.add_into(terms, pairs if sign > 0 else ((w, -c) for w, c in pairs))
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                return NCPoly(F, nvars, terms)

    def term(self):
        f = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                g = self.factor()
                self.cap_product(f, g)
                f = f * g
            else:
                return f

    def factor(self):
        f = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            n = _int(val, pos)
            degree = _degree(f)
            self.cap(degree * n)
            if degree == 0:  # a constant: one scalar power, not n products
                return NCPoly(self.field, f.nvars, {(): self.constant_power(f, n)})
            if self.max_degree is not None:
                # with two or more terms the bound passes the limit by n = 64
                self.cap_terms(len(f.terms) ** min(n, 64))
            f = f**n
        return f

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            num = _int(val, pos)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num":
                    raise ParseError("expected denominator", p3)
                try:
                    return NCPoly(self.field, 0, {(): self.field.of(num, _int(v3, p3))})
                except ZeroDivisionError:
                    raise ParseError(f"denominator {v3} is not invertible", p3) from None
            return NCPoly(self.field, 0, {(): self.field.of(num)})
        if kind == "var":
            digits = val[1:].lstrip("0")
            idx = int(digits) if 0 < len(digits) <= 3 else 0
            if not 1 <= idx <= 999:
                raise UnknownVariable(f"variable {val[:8]} out of range x1..x999", pos)
            self.cap(1)
            return NCPoly.variable(idx, self.field)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect(")")
            return f
        if kind == "op" and val == "[":
            f = self.expr()
            self.expect(",")
            g = self.expr()
            self.expect("]")
            self.cap_product(f, g)
            return commutator(f, g)
        raise ParseError(f"unexpected token {val!r}", pos)


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
