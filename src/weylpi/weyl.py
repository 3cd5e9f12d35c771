"""Exact arithmetic in the Weyl algebra A1 = F<x,y>/(yx - xy - 1).

Elements are stored in the normal-ordered basis x^i y^j.  Coefficients are
always commutative polynomials (``CommPoly``) in the substitution
parameters a1, b1, a2, b2, ...; scalar-only computations use constant
CommPolys so there is a single code path.

Products use the closed normal-ordering formula y^j x^i = sum_k k! C(i,k)
C(j,k) x^(i-k) y^(j-k), k = 0..min(i,j) (Dixmier, *Enveloping Algebras*,
ch. 4); its coefficients are integers, so it holds in every characteristic.
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


class CommPoly:
    """Commutative polynomial in the formal substitution parameters."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not field.is_zero(c):
                    self.terms[_trim(e)] = c

    @classmethod
    def constant(cls, field, scalar):
        return cls(field, {(): scalar})

    @classmethod
    def parameter(cls, field, index):
        e = [0] * (index + 1)
        e[index] = 1
        return cls(field, {tuple(e): field.one})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        return CommPoly(F, F.add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        F = self.field
        return CommPoly(F, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        terms = F.add_into(
            {},
            (
                (tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )
        return CommPoly(F, terms)

    def scale(self, scalar):
        F = self.field
        if F.is_zero(scalar):
            return CommPoly(F)
        return CommPoly(F, {e: F.mul(scalar, c) for e, c in self.terms.items()})

    def constant_value(self):
        """The scalar value if this is a constant, else None."""
        if not self.terms:
            return self.field.zero
        if list(self.terms) == [()]:
            return self.terms[()]
        return None

    def __eq__(self, other):
        return (
            isinstance(other, CommPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"CommPoly({self.terms!r})"


class WeylElement:
    """Element of A1 with CommPoly coefficients in the basis x^i y^j."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for ij, c in terms.items():
                if not c.is_zero():
                    self.terms[ij] = c

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def basis(cls, i, j, field, coeff=None):
        c = CommPoly.constant(field, field.one) if coeff is None else coeff
        return cls(field, {(i, j): c})

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
        terms = dict(self.terms)
        for ij, c in other.terms.items():
            s = terms.get(ij)
            terms[ij] = c if s is None else s + c
        return WeylElement(self.field, terms)

    def __neg__(self):
        return WeylElement(self.field, {ij: -c for ij, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        """Multiply by a CommPoly (or scalar) coefficient."""
        if not isinstance(coeff, CommPoly):
            coeff = CommPoly.constant(self.field, coeff)
        return WeylElement(self.field, {ij: c * coeff for ij, c in self.terms.items()})

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                c = c1 * c2
                for k in range(min(j1, i2) + 1):
                    ij = (i1 + i2 - k, j1 + j2 - k)
                    contrib = c.scale(F.of(factorial(k) * comb(i2, k) * comb(j1, k)))
                    s = terms.get(ij)
                    terms[ij] = contrib if s is None else s + contrib
        return WeylElement(F, terms)

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
    F = a.field
    terms = {}
    for (i, j), c in a.terms.items():
        if j != 0:
            raise NotPurelyX("element has a y-part")
        if i > 0:
            contrib = c.scale(F.of(i))
            if not contrib.is_zero():
                terms[(i - 1, 0)] = contrib
    return WeylElement(F, terms)


def is_central(u):
    """True iff u commutes with both x and y."""
    X = WeylElement.x(u.field)
    Y = WeylElement.y(u.field)
    return (u * X - X * u).is_zero() and (u * Y - Y * u).is_zero()
