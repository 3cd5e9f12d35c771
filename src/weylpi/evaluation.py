"""Substitution of span{x, y} elements into free-algebra polynomials and
the weak-identity membership test.

The generic substitution sends x_k to a_k*x + b_k*y with fresh formal
parameters, which is exact over an infinite field of the configured
characteristic: the parameter-monomial coefficients of the result are
precisely the evaluations of all partial linearizations at tuples from
{x, y}.

``eval_vectors`` computes it with an integer kernel: the image of a word
is a dict ``{(i, j, code): int}`` over the basis x^i y^j, where ``code``
packs the exponents of (a1, b1, a2, b2, ...) into one int, and it is
built letter by letter with x^i y^j * x = x^{i+1} y^j + j x^i y^{j-1}.
The words of a batch are walked in sorted order, so each common prefix is
multiplied out once.  Coefficients are scaled to integers and enter the
field once per output coordinate.  ``generic_substitution`` computes the
same thing with ``WeylElement`` arithmetic and is kept as the reference
oracle for the kernel.

``leading_forms`` gives the top-degree part of the image of bracket-monomials
at a scalar point mod a prime, which is commutative.
"""

from math import lcm

from .errors import ArityMismatch
from .weyl import CommPoly, WeylElement


def letter_image(k, field):
    """The generic image a_k*x + b_k*y of the k-th variable."""
    a = CommPoly.parameter(field, 2 * (k - 1))
    b = CommPoly.parameter(field, 2 * (k - 1) + 1)
    return WeylElement(field, {(1, 0): a, (0, 1): b})


def _substitute(f, images):
    """Evaluate f with x_k -> images[k], one word at a time."""
    F = f.field
    out = WeylElement.zero(F)
    for word, coeff in f.terms.items():
        acc = WeylElement.one(F)
        for letter in word:
            acc = acc * images[letter]
        out = out + acc.scale(coeff)
    return out


def generic_substitution(f):
    """Evaluate f at x_k -> a_k*x + b_k*y with formal parameters."""
    letters = {letter for word in f.terms for letter in word}
    return _substitute(f, {k: letter_image(k, f.field) for k in letters})


def _times_letter(image, codes):
    """image * (a*x + b*y), where ``codes`` holds the packed parameter
    codes (a, b)."""
    a, b = codes
    out = {}
    get = out.get
    for (i, j, code), c in image.items():
        key = (i + 1, j, code + a)
        out[key] = get(key, 0) + c
        if j:
            key = (i, j - 1, code + a)
            out[key] = get(key, 0) + j * c
        key = (i, j + 1, code + b)
        out[key] = get(key, 0) + c
    return out


def eval_vectors(polys, field):
    """Sparse coordinates of the generic substitution of each polynomial.

    Returns one dict per polynomial mapping (i, j, exps) to a nonzero
    scalar, where exps is the trimmed exponent tuple of (a1, b1, a2, ...):
    exactly the coefficients of ``generic_substitution``.
    """
    uses = {}  # word -> [(row, integer coefficient)]
    dens = []
    for row, f in enumerate(polys):
        den = 1
        for c in f.terms.values():
            den = lcm(den, c.denominator)
        dens.append(den)
        for w, c in f.terms.items():
            uses.setdefault(w, []).append((row, c.numerator * (den // c.denominator)))

    # an exponent is at most the word length, so this many bits per slot
    # never carry into the next
    bits = max(map(len, uses), default=0).bit_length()
    codes = {
        letter: (1 << 2 * (letter - 1) * bits, 1 << (2 * letter - 1) * bits)
        for letter in set().union(*uses)
    }
    # sorted words walk a word trie depth first, so each common prefix is
    # multiplied out once and only one root-to-leaf path of images is alive
    accs = [{} for _ in polys]
    path = [{(0, 0, 0): 1}]  # path[t] is the image of the first t letters
    prev = ()
    for w in sorted(uses):
        t = 0
        while t < len(prev) and t < len(w) and prev[t] == w[t]:
            t += 1
        del path[t + 1 :]
        for letter in w[t:]:
            path.append(_times_letter(path[-1], codes[letter]))
        image = path[-1]
        for row, c in uses[w]:
            acc = accs[row]
            for key, v in image.items():
                acc[key] = acc.get(key, 0) + c * v
        prev = w

    mask = (1 << bits) - 1
    exps_of = {}
    out = []
    for acc, den in zip(accs, dens):
        vec = {}
        for (i, j, code), s in acc.items():
            v = field.of(s, den)
            if field.is_zero(v):
                continue
            exps = exps_of.get(code)
            if exps is None:
                digits, rest = [], code
                while rest:
                    digits.append(rest & mask)
                    rest >>= bits
                exps = exps_of[code] = tuple(digits)
            vec[(i, j, exps)] = v
        out.append(vec)
    return out


def leading_forms(monomials, point, p):
    """Top-degree parts of the images of bracket-monomials at a scalar point.

    ``monomials`` are ``(prefix, brackets)`` pairs (k may be 0) and
    ``point`` is a tuple of pairs ``(a_k, b_k)``.  The part of the image
    with i + j = len(prefix) is the commutative product of the
    a_t*x + b_t*y over the prefix times the bracket scalars
    b_r*a_s - a_r*b_s (as y*x = x*y + 1).  Returns, per monomial, its
    coefficients of x^i y^(len(prefix)-i), i = 0, 1, ..., mod the prime p.
    """
    forms = {(): [1]}  # prefix -> its product, shared by common prefixes

    def form(prefix):
        prod = forms.get(prefix)
        if prod is None:
            a, b = point[prefix[-1] - 1]
            g = form(prefix[:-1])
            prod = forms[prefix] = [(a * u + b * v) % p for u, v in zip([0] + g, g + [0])]
        return prod

    out = []
    for prefix, brackets in monomials:
        c = 1
        for r, s in brackets:
            (ar, br), (as_, bs) = point[r - 1], point[s - 1]
            c = c * (br * as_ - ar * bs) % p
        out.append([c * v % p for v in form(prefix)])
    return out


def eval_vector(f):
    """Sparse coordinates of generic_substitution(f): (i, j, exps) -> scalar."""
    return eval_vectors([f], f.field)[0]


def substitute_tuple(f, t):
    """Evaluate f at a concrete tuple over {x, y} ('x'/'y' per variable)."""
    F = f.field
    if len(t) != f.nvars:
        raise ArityMismatch(f"tuple length {len(t)} != nvars {f.nvars}")
    images = {}
    for k, choice in enumerate(t, start=1):
        if choice == "x":
            images[k] = WeylElement.x(F)
        elif choice == "y":
            images[k] = WeylElement.y(F)
        else:
            raise ValueError(f"tuple entries must be 'x' or 'y', got {choice!r}")
    return _substitute(f, images)


def is_weak_identity(f):
    """True iff every multihomogeneous component of f vanishes under all
    substitutions from span{x, y}.

    In the image of a word the parameters a_k, b_k have total degree equal
    to the multiplicity of x_k, so components of different multidegrees
    land on disjoint coordinates and f vanishes iff each component does.
    """
    return not eval_vector(f)
