"""Exact arithmetic in the Weyl algebra A1 = F<x,y>/(yx - xy - 1).

An element is one flat dict: the key (i, j, exps) stands for x^i y^j times
the parameter monomial a1^e1 b1^e2 a2^e3 ... of the substitution parameters,
with exps trimmed of trailing zeros, and its value is a nonzero scalar.  A
scalar element uses exps = ().

Products use the closed normal-ordering formula y^j x^i = sum_k k! C(i,k)
C(j,k) x^(i-k) y^(j-k), k = 0..min(i,j) (Dixmier, *Enveloping Algebras*,
ch. 4); its coefficients are integers, so it holds in every characteristic.

The linear-space operations of ``WeylElement`` (``+``, ``-``, unary ``-``,
``scale`` and ``==``) are public, with ``*``: the tests check the package
against oracles written in them, such as commutators as ``y * a - a * y``.
"""

from itertools import zip_longest
from math import comb, factorial

from .errors import NotPurelyX
from .fields import check_same_field


def _trim(exps):
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


class WeylElement:
    """Element of A1 with parameter-polynomial coefficients in the basis
    x^i y^j: ``terms`` maps (i, j, exps) to a nonzero scalar."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        pairs = (((i, j, _trim(e)), c) for (i, j, e), c in (terms or {}).items())
        self.terms = field.add_into({}, pairs)

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def basis(cls, i, j, field):
        return cls(field, {(i, j, ()): field.one})

    @classmethod
    def x(cls, field):
        return cls.basis(1, 0, field)

    @classmethod
    def y(cls, field):
        return cls.basis(0, 1, field)

    @classmethod
    def one(cls, field):
        return cls.basis(0, 0, field)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        return WeylElement(F, F.add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        F = self.field
        return WeylElement(F, {key: F.neg(c) for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Multiply by a scalar of the field."""
        return WeylElement(self.field, {key: c * scalar for key, c in self.terms.items()})

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        pairs = (
            ((i1 + i2 - k, j1 + j2 - k, e), c1 * c2 * factorial(k) * comb(i2, k) * comb(j1, k))
            for (i1, j1, e1), c1 in self.terms.items()
            for (i2, j2, e2), c2 in other.terms.items()
            for e in [tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0))]
            for k in range(min(j1, i2) + 1)
        )
        return WeylElement(F, F.add_into({}, pairs))

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"WeylElement({self.terms!r})"


def commutator_with_y(a):
    """[y, a] for a polynomial a in x only: the formal derivative of a."""
    if any(j for _, j, _ in a.terms):
        raise NotPurelyX("element has a y-part")
    terms = {(i - 1, 0, e): i * c for (i, _, e), c in a.terms.items() if i}
    return WeylElement(a.field, terms)
