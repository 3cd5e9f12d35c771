"""Substitution of span{x, y} elements into free-algebra polynomials and
the weak-identity membership test.

The generic substitution sends x_k to a_k*x + b_k*y with fresh formal
parameters, which is exact over an infinite field of the configured
characteristic: the parameter-monomial coefficients of the result are
precisely the evaluations of all partial linearizations at tuples from
{x, y}.  ``generic_substitution``, the reference oracle, computes it in
``WeylElement`` arithmetic, as a flat dict (i, j, exps) -> scalar for the
terms x^i y^j a1^e1 b1^e2 a2^e3 ...; the integer kernel computes it modulo
the left ideal A1*y, spanned by the x^i y^j with j >= 1.  In
A1/A1*y = F[x], y acts as d/dx (Dixmier, *Enveloping Algebras*, ch. 4),
and (a*x + b*y) * x^i = a x^(i+1) + i b x^(i-1).

Lemma.  Let K = F(a, b) and U = f(a_k*x + b_k*y) in A1(K).  If U is in
A1(K)*y, then U = 0.  Proof: for t in K, phi_t: x -> x, y -> y + t*x is an
automorphism of A1(K), as [y + t*x, x] = [y, x], and phi_t(U) =
U(a + t*b, b).  The coefficients of U modulo A1*y are polynomials in
(a, b) that vanish identically, so phi_t(U) is in A1*y, and U is in
A1(K)*(y - t*x) for every t in K.  As gr A1(K) = K[x, y] is a domain, the
top symbol of U is divisible by infinitely many pairwise coprime linear
forms, so it is 0, and U = 0.  K is infinite in every characteristic, so
over Q and every F_p the projection has the kernel of the full image on
the free algebra: every rank, kernel vector and verdict is unchanged.

``_integer_images`` applies Horner's rule, f = sum_l x_l * f_l with f_l the
words of f that start with x_l, that letter removed, walking the sorted
words of each polynomial depth first over its own prefix trie.  Each node
sums the images of the words below it, and a finished node is folded into
its parent by one left multiplication, so a polynomial's image is summed
bottom-up and only the few nodes near the root carry large images.  A
batch shares only the key layout, so its images have common keys.  It
takes and gives integer rows: its callers scale a polynomial with
``Field.integral``, and ``is_weak_identity`` and the exact eliminations
take its images as they are.
"""

from . import weyl
from .errors import ArityMismatch


def letter_image(k, field):
    """The generic image a_k*x + b_k*y of the k-th variable: a_k and b_k
    are the parameters at exponent indices 2k-2 and 2k-1."""
    a_k = (0,) * (2 * k - 2) + (1,)
    b_k = (0,) * (2 * k - 1) + (1,)
    return weyl.WeylElement(field, {(1, 0, a_k): field.one, (0, 1, b_k): field.one})


def _substitute(f, images):
    """Evaluate f with x_k -> images[k], one word at a time."""
    F = f.field
    out = weyl.WeylElement.zero(F)
    for word, coeff in f.terms.items():
        acc = weyl.WeylElement.one(F)
        for letter in word:
            acc = acc * images[letter]
        out = out + acc.scale(coeff)
    return out


def generic_substitution(f):
    """Evaluate f at x_k -> a_k*x + b_k*y with formal parameters."""
    letters = {letter for word in f.terms for letter in word}
    return _substitute(f, {k: letter_image(k, f.field) for k in letters})


def _key_layout(length, letters):
    """The packed int keys of the images of words of at most ``length``
    letters, each in the set ``letters``, whose largest element is m.

    A key packs i, a1, b1, ..., am, bm from the top down, ``bits`` bits
    each: an exponent is at most the word length, so no slot carries into
    the next, and keys order as the pairs (i, exps) do.  Returns
    ``(x, params)``: a factor x adds ``x`` to a term's key, and factors a_k
    and b_k add the pair ``params[k]``.
    """
    bits = length.bit_length()
    m = max(letters, default=0)
    params = {k: (1 << (2 * (m - k) + 1) * bits, 1 << 2 * (m - k) * bits) for k in letters}
    return 1 << 2 * m * bits, params


def _integer_images(rows):
    """The generic substitution, modulo A1*y, of each polynomial given as a
    dict word -> int: the list of images, ``images[r]`` mapping the packed
    int keys of ``_key_layout`` to the nonzero ints of the image of
    ``rows[r]``.  Keys order as their coordinates do, so an elimination on
    them picks the same pivots.  The image of a row is its row over Q and,
    reduced mod p, over F_p.

    Each polynomial is folded bottom-up over its own prefix trie; a batch
    shares only the key layout, set by its longest word and largest letter,
    so all its images have common keys.  A node is folded into its parent
    by the left multiplication by its letter, (a*x + b*y) * x^i = a x^(i+1)
    + i b x^(i-1) modulo A1*y: ``up`` and ``down`` are what these two terms
    add to a key, and i is the key from bit ``ishift`` on.
    """
    words = set().union(*rows)
    x, params = _key_layout(max(map(len, words), default=0), set().union(*words))
    ishift = x.bit_length() - 1
    shifts = {k: (a + x, b - x) for k, (a, b) in params.items()}

    # path[t] is the open trie node of the current word's first t letters:
    # the sum of the images of the suffixes below it seen so far.  A word
    # is visited before its extensions, so its node is new.
    def close(depth):
        while len(path) > depth + 1:
            child = path.pop()
            parent = path[-1]
            up, down = shifts[prev[len(path) - 1]]
            get = parent.get
            for key, c in child.items():
                if not c:  # a sum that cancelled adds nothing
                    continue
                k = key + up
                parent[k] = get(k, 0) + c
                i = key >> ishift
                if i:
                    k = key + down
                    parent[k] = get(k, 0) + i * c

    images = []
    for terms in rows:
        path = [{}]
        prev = ()
        for w in sorted(terms):
            t = 0
            while t < len(prev) and t < len(w) and prev[t] == w[t]:
                t += 1
            close(t)
            path.extend({} for _ in w[t:])
            path[-1][0] = terms[w]
            prev = w
        close(0)
        images.append({key: s for key, s in path[0].items() if s})
    return images


def substitute_tuple(f, t):
    """Evaluate f at a concrete tuple over {x, y} ('x'/'y' per variable)."""
    F = f.field
    if len(t) != f.nvars:
        raise ArityMismatch(f"tuple length {len(t)} != nvars {f.nvars}")
    images = {}
    for k, choice in enumerate(t, start=1):
        if choice == "x":
            images[k] = weyl.WeylElement.x(F)
        elif choice == "y":
            images[k] = weyl.WeylElement.y(F)
        else:
            raise ValueError(f"tuple entries must be 'x' or 'y', got {choice!r}")
    return _substitute(f, images)


def is_weak_identity(f):
    """True iff every multihomogeneous component of f vanishes under all
    substitutions from span{x, y}.

    In the image of a word the parameters a_k, b_k have total degree equal
    to the multiplicity of x_k, so components of different multidegrees
    land on disjoint coordinates and f vanishes iff each component does;
    by the lemma of the module docstring, its image modulo A1*y decides.

    The coefficient sums refute first.  In the image modulo A1*y of a word
    of multidegree delta and degree d, the only path to x^d with no b_k
    factor takes a_k*x at every letter, so the coordinate (d, a^delta) of
    the image of the component of multidegree delta is its coefficient
    sum beta, the beta of its normal form.  A nonzero beta (mod p) thus
    certifies that f is not an identity; every other f is evaluated: over
    F_p on its residues as they are, since the verdict reduces the image
    mod p, and over Q on the integers of ``Field.integral``.
    """
    p = f.field.p
    sums = {}  # the letters of a word, sorted, name its multidegree
    for w, c in f.terms.items():
        key = tuple(sorted(w))
        sums[key] = sums.get(key, 0) + c
    if any(s % p if p else s for s in sums.values()):
        return False
    (image,) = _integer_images([f.terms if p else f.field.integral(f.terms)[1]])
    return not any(s % p for s in image.values()) if p else not image
