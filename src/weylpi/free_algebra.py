"""Sparse exact arithmetic in the free algebra F<x1,...,xm>.

Words are tuples of 1-based variable indices; the empty tuple is the unit
monomial.  Polynomials are dicts word -> scalar with no zero coefficients
stored.  Also provides multidegree grading, commutators, the partial /
complete linearization operators and the three identity generators
Gamma_m, St_3 and T_4.

The linear-space operations of ``NCPoly`` (``+``, ``-``, unary ``-``,
``scale`` and ``==``) are public, with ``*`` and ``**``: the tests check
the package against oracles written in them.
"""

from .errors import BadArity, DegreeMismatch, NotMultihomogeneous
from .fields import check_same_field


def word_mdeg(word, nvars):
    counts = [0] * nvars
    for letter in word:
        counts[letter - 1] += 1
    return tuple(counts)


def components(terms, nvars):
    """Split a word dict by multidegree: a dict multidegree -> word dict,
    in increasing multidegree order; {} gives {}."""
    out = {}
    for w, c in terms.items():
        out.setdefault(word_mdeg(w, nvars), {})[w] = c
    return dict(sorted(out.items()))


def mdeg_word(delta):
    """The sorted word x1^d1...xm^dm of the multidegree ``delta``."""
    return tuple(l for l, d in enumerate(delta, start=1) for _ in range(d))


def _word_product(field, f, g):
    """The product of two word dicts: every concatenation w1 + w2 of a word
    of ``f`` and a word of ``g``, in that order, with c1 * c2 added in.

    When ``g`` is one word w2 with coefficient 1, w1 -> w1 + w2 is
    injective, so nothing is summed or dropped: the result is
    {w1 + w2: c1}, with the same items in the same order as the summing
    product."""
    if len(g) == 1:
        ((w2, c2),) = g.items()
        if c2 == 1:
            return {w1 + w2: c1 for w1, c1 in f.items()}
    return field.add_into(
        {}, ((w1 + w2, c1 * c2) for w1, c1 in f.items() for w2, c2 in g.items())
    )


class NCPoly:
    """Noncommutative polynomial: mapping word -> nonzero scalar.  Over F_p
    each given scalar is reduced to its residue in [0, p) first."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = field.add_into({}, (terms or {}).items())

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_terms(cls, field, nvars, terms):
        """An NCPoly that takes the dict ``terms`` as it is: its scalars must
        be nonzero and, over F_p, residues in [0, p)."""
        f = cls.__new__(cls)
        f.field, f.nvars, f.terms = field, nvars, terms
        return f

    @classmethod
    def zero(cls, field, nvars=0):
        return cls(field, nvars)

    @classmethod
    def one(cls, field, nvars=0):
        return cls(field, nvars, {(): field.one})

    @classmethod
    def variable(cls, i, field, nvars=None):
        if i < 1:
            raise ValueError("variables are 1-based")
        return cls(field, nvars if nvars is not None else i, {(i,): field.one})

    @classmethod
    def monomial(cls, word, field, coeff=None, nvars=None):
        word = tuple(word)
        if nvars is None:
            nvars = max(word, default=0)
        c = field.one if coeff is None else coeff
        return cls(field, nvars, {word: c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        # canonical term order: total degree, then lexicographic on letters
        return sorted(self.terms.items(), key=lambda it: (len(it[0]), it[0]))

    def multihomogeneous_components(self):
        """Split into multidegree components; the empty poly gives {}."""
        return {
            d: NCPoly(self.field, self.nvars, terms)
            for d, terms in components(self.terms, self.nvars).items()
        }

    def mdeg(self):
        """Multidegree of a multihomogeneous polynomial (None if zero)."""
        degs = {word_mdeg(w, self.nvars) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NotMultihomogeneous("mixed multidegrees")
        return degs.pop()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        terms = F.add_into(dict(self.terms), other.terms.items())
        return NCPoly(F, max(self.nvars, other.nvars), terms)

    def __neg__(self):
        F = self.field
        return NCPoly(F, self.nvars, {w: F.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        F = self.field
        return NCPoly(F, self.nvars, {w: F.mul(scalar, c) for w, c in self.terms.items()})

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        terms = _word_product(self.field, self.terms, other.terms)
        return NCPoly(self.field, max(self.nvars, other.nvars), terms)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = NCPoly.one(self.field, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        from .parser import format_poly

        return f"NCPoly({format_poly(self)})"

    def rename(self, mapping):
        """Relabel variables; ``mapping`` sends old index -> new index."""
        F = self.field
        renamed = [(tuple(mapping.get(l, l) for l in w), c) for w, c in self.terms.items()]
        terms = F.add_into({}, renamed)
        nv = max((max(w, default=0) for w, _ in renamed), default=0)
        return NCPoly(F, max(nv, 1) if terms else self.nvars, terms)


def commutator(f, g):
    """[f, g] = fg - gf."""
    return f * g - g * f


# -- generators of the ideal of known identities --------------------------


def gamma(m, field):
    """Gamma_m = [[x1,x2], x3...xm] for m >= 3."""
    if m < 3:
        raise BadArity("gamma needs m >= 3")
    x = lambda i: NCPoly.variable(i, field, nvars=m)
    tail = NCPoly.one(field, m)
    for i in range(3, m + 1):
        tail = tail * x(i)
    return commutator(commutator(x(1), x(2)), tail)


def st3(field):
    """St_3 = x1[x2,x3] - x2[x1,x3] + x3[x1,x2]."""
    x = lambda i: NCPoly.variable(i, field, nvars=3)
    return (
        x(1) * commutator(x(2), x(3))
        - x(2) * commutator(x(1), x(3))
        + x(3) * commutator(x(1), x(2))
    )


def t4(field):
    """T_4 = [x1,x2][x3,x4] - [x1,x3][x2,x4] + [x2,x3][x1,x4]."""
    x = lambda i: NCPoly.variable(i, field, nvars=4)
    br = lambda i, j: commutator(x(i), x(j))
    return br(1, 2) * br(3, 4) - br(1, 3) * br(2, 4) + br(2, 3) * br(1, 4)


def generator_at(g, indices):
    """Substitute letters into a generator: x_t -> x_{indices[t-1]}.

    Repeated indices are allowed (e.g. Gamma_3(x1, x2, x1)).
    """
    mapping = {t + 1: idx for t, idx in enumerate(indices)}
    return g.rename(mapping)


# -- linearization ---------------------------------------------------------


def _multiset_permutations(items):
    """The list of all distinct orderings of a multiset, as tuples in
    lexicographic order, [()] for the empty one.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) on one list: from the sorted
    items, find the last ascent a[j] < a[j+1], swap a[j] with the last
    item greater than it, and reverse the tail after j; with no ascent left
    the last ordering is reached.  Each step gives the next ordering in
    lexicographic order, so each distinct ordering is listed once."""
    a = sorted(items)
    out = [tuple(a)]
    n = len(a)
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]
        out.append(tuple(a))


def partial_linearization(f, i, gamma_frag):
    """Replace x_i by x_i + ... + x_{i+k-1} and keep the component where the
    new variables have degrees ``gamma_frag``; variables above i shift up."""
    gamma_frag = tuple(gamma_frag)
    if f.is_zero():
        return f
    delta = f.mdeg()  # raises NotMultihomogeneous on mixed input
    if i < 1 or i > len(delta):
        raise DegreeMismatch(f"variable index {i} out of range")
    if sum(gamma_frag) != delta[i - 1] or delta[i - 1] == 0:
        raise DegreeMismatch(
            f"|gamma| = {sum(gamma_frag)} must equal deg_x{i}(f) = {delta[i - 1]} > 0"
        )
    k = len(gamma_frag)
    shift = k - 1
    F = f.field
    # the multiset of replacement letters for the occurrences of x_i
    replacement = []
    for t, g in enumerate(gamma_frag):
        replacement.extend([i + t] * g)
    terms = {}
    for w, c in f.terms.items():
        positions = [p for p, l in enumerate(w) if l == i]
        base = [l if l < i else l + shift for l in w]
        for assignment in _multiset_permutations(replacement):
            nw = list(base)
            for p, letter in zip(positions, assignment):
                nw[p] = letter
            F.add_into(terms, [(tuple(nw), c)])
    return NCPoly(F, f.nvars + shift, terms)


def complete_linearization(f):
    """Linearize every variable down to degree 1 (multidegree 1^{|delta|}).

    Variables of degree zero are compacted away so the result really is
    multilinear in x1..x_{|delta|}.
    """
    if f.is_zero():
        return f
    delta = f.mdeg()
    # drop unused variables first
    used = [i + 1 for i, d in enumerate(delta) if d > 0]
    f = f.rename({v: t + 1 for t, v in enumerate(used)})
    delta = tuple(d for d in delta if d > 0)
    pos = 1
    for d in delta:
        if d > 1:
            f = partial_linearization(f, pos, (1,) * d)
        pos += d
    return f
