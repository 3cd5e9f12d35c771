"""Exact arithmetic in the Weyl algebra A1 = F<x,y>/(yx - xy - 1).

Elements are stored in the normal-ordered basis x^i y^j.  Coefficients are
always commutative polynomials (``CommPoly``) in the substitution
parameters a1, b1, a2, b2, ...; scalar-only computations use constant
CommPolys so there is a single code path.
"""

from functools import lru_cache
from itertools import zip_longest

from .errors import NotPurelyX
from .fields import check_same_field


def param_name(index):
    # parameters come in pairs per free-algebra variable: a_k, b_k
    k, which = divmod(index, 2)
    return f"{'ab'[which]}{k + 1}"


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
                (_trim(a + b for a, b in zip_longest(e1, e2, fillvalue=0)), c1 * c2)
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

    def format(self):
        if not self.terms:
            return "0"
        F = self.field
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                param_name(i) + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p > 0
            )
            if not mono:
                parts.append(F.format(c))
            elif c == F.one:
                parts.append(mono)
            else:
                parts.append(f"{F.format(c)}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CommPoly({self.format()})"


@lru_cache(maxsize=None)
def _y_power_times_x_powers(j, i):
    """y^j x^i rewritten into the x^a y^b basis; integer coefficients.

    Applies the rule y^j x = x y^j + j y^{j-1} once per x letter.
    """
    terms = {(0, j): 1}
    for _ in range(i):
        nxt = {}
        for (a, b), c in terms.items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + c
            if b > 0:
                nxt[(a, b - 1)] = nxt.get((a, b - 1), 0) + c * b
        terms = nxt
    return tuple(terms.items())


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

    @classmethod
    def poly_in_x(cls, coeffs, field):
        """sum coeffs[i] x^i with scalar coefficients."""
        return cls(
            field,
            {(i, 0): CommPoly.constant(field, c) for i, c in enumerate(coeffs)},
        )

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
                for (a, b), n in _y_power_times_x_powers(j1, i2):
                    ij = (i1 + a, b + j2)
                    contrib = c.scale(F.of(n))
                    s = terms.get(ij)
                    terms[ij] = contrib if s is None else s + contrib
        return WeylElement(F, terms)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def format(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mono = ""
            if i:
                mono += f"x^{i}" if i > 1 else "x"
            if j:
                mono += ("*" if mono else "") + (f"y^{j}" if j > 1 else "y")
            coeff = c.format()
            if not mono:
                parts.append(f"({coeff})")
            elif coeff == "1":
                parts.append(mono)
            else:
                parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"WeylElement({self.format()})"


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
