"""Linear-algebra layer: bases of the weak-identity spaces per multidegree,
dimension of the known-identity ideal, and conjecture verification.

Verification decides multidegree delta from the n completely reduced
bracket-monomials and the pure word x1^d1...xm^dm.  If the generic
evaluations of the bracket-monomials are linearly independent, then every
weak identity of that multidegree rewrites to 0 modulo the ideal (its beta
vanishes by evaluation at equal arguments, and the alpha_i vanish by
independence), so the identity space and the ideal coincide there, and
dim Id = dim F_delta - rank of all n+1 evaluations.

It reports how the verdict was reached (``ConjectureReport.route``):

- ``certified``: under x_k -> a_k*x + b_k*y the image of
  u[x_r1,x_s1]...[x_rk,x_sk] has terms x^i y^j with i + j <= d - 2k, and
  its part with i + j = d - 2k is the commutative form
  prod_{t in u}(a_t x + b_t y) * prod(b_r a_s - a_r b_s).  So the matrix of
  generic evaluations is block triangular by k, and it has full row rank
  when each diagonal block (the rows with k brackets against the columns
  with i + j = d - 2k) has.  Weigh x far above y, a_t as t and b_t as 0:
  the heaviest term of a_t x + b_t y is a_t x, and for r < s that of
  b_r a_s - a_r b_s is +b_r a_s.  So each form has one heaviest term,
  x^(d-2k) prod_{t in u} a_t prod_i a_(s_i) b_(r_i), with coefficient +1
  in every characteristic, and rows whose heaviest terms differ are
  independent over any field (in a dependency, the heaviest of its leading
  terms would not cancel).  Within one multidegree u and the s's make up
  delta - R, where R is the multiset of r's and k = |R|, so the term is
  x^(d-2k) a^(delta-R) b^R and R names it: distinct r-multisets certify
  every block with no elimination, and the pure word has R empty.
  Completely reduced keys always have distinct R (the lemma in
  ``bracket.enumerate_completely_reduced``: R determines the key); a
  repeated or non-reduced key may collide.
- ``uncertified``: if the r-multisets collide, which the lemma rules out
  for completely reduced keys and so would mean a bug, the report is
  ``Inconclusive`` and claims nothing: ``eval_rank``, ``dim_id`` and
  ``dim_I`` are None.

The other library modules are imported as modules and each function is
read from its module at call time, so a call loads only what it runs
(``weylpi`` registers its submodules to load on first use):
``verify_conjecture`` loads ``bracket`` and ``fields`` but not the free
algebra, the evaluator or the eliminator, and ``identity_basis`` and
``ideal_span_dimension`` do not load ``bracket``.  A function patched in
its module is what every caller here sees.
"""
import math
import time
from collections import namedtuple
from itertools import combinations, product
from operator import itemgetter

from . import bracket, evaluation, fields, free_algebra, linalg


def words_of_multidegree(delta):
    """All words with the given letter multiset, in lexicographic order."""
    return free_algebra._multiset_permutations(free_algebra.mdeg_word(delta))


def space_dimension(delta):
    """dim of the multidegree slice of the free algebra (a multinomial)."""
    n = math.factorial(sum(delta))
    for d in delta:
        n //= math.factorial(d)
    return n


def identity_basis(delta, fieldobj):
    """Deterministic echelon basis of the weak identities of multidegree delta.

    The kernel of the evaluation, computed modulo A1*y (``evaluation``), in
    reduced echelon form over the lexicographic word order.  The integer
    images of the words, in reverse order, go as they are to
    ``row_reduce_sparse``.  It reduces them mod p over F_p, keeps them as
    ints over Q, and reads the kernel off the back-substituted echelon
    form of their transpose, one row per image coordinate (``linalg``).
    So each kernel vector has coefficient 1 on its least word and its
    other words are pivots, which no other vector contains: read
    backwards, the kernel is already the reduced echelon basis.  A basis element lists its least word first,
    then its other words in decreasing order; ``format_poly`` sorts them.
    Its scalars are nonzero and reduced, on distinct words, so it takes
    them as they are (``NCPoly._of_terms``).
    """
    delta = tuple(delta)
    words = words_of_multidegree(delta)[::-1]
    rows = evaluation._integer_images([{w: 1} for w in words])
    _, kernel = linalg.row_reduce_sparse(rows, fieldobj, want_kernel=True)
    of_terms = free_algebra.NCPoly._of_terms
    return [
        of_terms(fieldobj, len(delta), {words[i]: c for i, c in vec.items()})
        for vec in reversed(kernel)
    ]


# Gamma_3 = [[x1,x2],x3] and St_3 as (letter positions, sign) pairs, in the
# term order of ``gamma(3, F)`` and ``st3(F)``: position t stands for the
# (t+1)-th letter of an index tuple.
_GAMMA3 = (((0, 1, 2), 1), ((1, 0, 2), -1), ((2, 0, 1), -1), ((2, 1, 0), 1))
_ST3 = (
    ((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
    ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1),
)


def _ideal_span_rows(delta):
    """The rows w1 * g(x_i, x_j, x_k) * w2 of multidegree delta, for
    g = Gamma_3 with i < j, g = St_3 with i < j < k and words w1, w2, as
    dicts word code -> int, where a word's code is its lexicographic
    position negated.  They are nonzero and pairwise distinct.

    They span the slice of the ideal generated by Gamma_3, St_3 and T_4
    over every field: Gamma_3 is antisymmetric in its first two arguments
    and St_3 is alternating, so any other index tuple gives 0 or minus one
    of these rows; and T_4 - [St_3(x1,x2,x3), x4] = Gamma_3(x1,x3,x4) x2
    - Gamma_3(x1,x2,x4) x3 - Gamma_3(x2,x3,x4) x1 holds over the integers,
    so each T_4 row is a sum of these rows times +-1.  The generators have
    coefficients +-1, so the rows are one integer matrix for every field,
    and the field enters only in ``row_reduce_sparse``, which reduces the
    ints mod p over F_p and takes them as they are over Q.

    The generators are multilinear, so the substitution has the multidegree
    of its index tuple, counted before it is built.  It is built from the
    fixed patterns ``_GAMMA3`` and ``_ST3``: each term's letters are read
    off the index tuple with its int sign, and the words that a repeated
    letter makes equal are summed, such as x1 x2 x1 with coefficient 2 in
    Gamma_3(x1, x2, x1), which no sum cancels over the integers (over F_2
    ``row_reduce_sparse`` drops that 2 as it reduces the entries mod 2, as
    ``generator_at`` does).  A row is
    then its terms with u[:cut] and u[cut:] concatenated on either side,
    which is injective on words, so nothing cancels and no product of
    polynomials is needed.
    """
    delta = tuple(delta)
    m = len(delta)
    code = {w: -i for i, w in enumerate(words_of_multidegree(delta))}
    letters = range(1, m + 1)
    patterns = [
        (_GAMMA3, [t for t in product(letters, repeat=3) if t[0] < t[1]]),
        (_ST3, combinations(letters, 3)),
    ]
    word_mdeg = free_algebra.word_mdeg
    mdeg_word = free_algebra.mdeg_word
    permutations = free_algebra._multiset_permutations
    rows = []
    for pattern, tuples in patterns:
        signed = [(itemgetter(*pos), c) for pos, c in pattern]
        for idxs in tuples:
            mu = word_mdeg(idxs, m)
            if any(mu[i] > delta[i] for i in range(m)):
                continue
            sub = {}
            for get, c in signed:
                w = get(idxs)
                sub[w] = sub.get(w, 0) + c
            rem = mdeg_word(d - e for d, e in zip(delta, mu))
            for u in permutations(rem):
                for cut in range(len(u) + 1):
                    w1, w2 = u[:cut], u[cut:]
                    rows.append({code[w1 + w + w2]: c for w, c in sub.items()})
    return rows


def ideal_span_dimension(delta, fieldobj):
    """dim of the multidegree slice of the ideal of known identities,
    as the rank of the explicit spanning set over the word basis.

    The rows of ``_ideal_span_rows`` are keyed by word codes, the
    lexicographic positions negated.  ``row_reduce_sparse`` eliminates the
    transpose in sorted code order, so the codes order the columns with the
    lex-largest word first: the word the rewriter rewrites first (the
    largest term of Gamma_3(x_i, x_j, x_k) is x_k x_j x_i).  That order is
    the faster one: summed over the partitions with at most 840 words, the
    rank over Q took 53 ms at degree 6 and 86 ms at degree 7, against 78 and
    155 ms with the positions as codes (Python 3.11 on a shared 2-vCPU VM,
    medians of 5).  Int keys are cheap to compare and hash, and the coding
    is a bijection of the coordinates, which leaves the rank unchanged."""
    return linalg.row_reduce_sparse(_ideal_span_rows(delta), fieldobj)[0]


class ConjectureReport(
    namedtuple(
        "ConjectureReport",
        "mdeg field n_reduced eval_rank dim_id dim_I verdict elapsed_ms route",
    )
):
    """The verdict on one multidegree.  ``eval_rank``, ``dim_id`` and
    ``dim_I`` are None when uncertified; ``verdict`` is Verified or
    Inconclusive; ``route`` says how it was reached (certified or
    uncertified) and is not part of ``to_dict()``, whose keys are fixed."""

    __slots__ = ()

    def to_dict(self):
        return {
            "mdeg": list(self.mdeg),
            "field": "q" if self.field.p == 0 else f"fp:{self.field.p}",
            "n_reduced": self.n_reduced,
            "eval_rank": self.eval_rank,
            "dim_id": self.dim_id,
            "dim_I": self.dim_I,
            "verdict": self.verdict,
            "witness": None,  # no route gives a witness; the keys stay fixed
            "elapsed_ms": self.elapsed_ms,
        }


def _full_rank(monomials):
    """True when the ``monomials`` (``(prefix, brackets)`` pairs of one
    multidegree) have pairwise distinct multisets of r's, which name their
    leading terms and so certify that their generic evaluations are
    independent."""
    leads = {tuple(sorted(r for r, _ in brackets)) for _, brackets in monomials}
    return len(leads) == len(monomials)


def verify_conjecture(delta, fieldobj=None):
    """Check that the weak identities of multidegree delta all lie in the
    ideal of known identities; never extrapolated across characteristics.

    No degree cap applies here: the cost is the listing of the completely
    reduced keys, and 1^d lists C(d, floor(d/2)) - 1 of them."""
    t0 = time.perf_counter()
    fieldobj = fieldobj or fields.Field.rationals()
    delta = tuple(delta)

    keys = bracket.enumerate_completely_reduced(delta)
    n = len(keys)
    # dim Id = dim F_delta - rank of the evaluated quotient spanning set
    # {x1^d1...xm^dm} + reduced monomials (sound by the normal-form theorem).
    # ``_full_rank`` reads only the brackets, and the pure word has none, so
    # it enters as a bracket-free pair, without spelling out its letters.
    monomials = keys + [((), ())]
    if _full_rank(monomials):
        # full rank of every block bounds the exact rank from below
        dim_id = space_dimension(delta) - (n + 1)
        rank, verdict, route = n, "Verified", "certified"
    else:
        # the lemma rules this out, so reaching it is a bug: claim nothing
        rank = dim_id = None
        verdict, route = "Inconclusive", "uncertified"
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return ConjectureReport(
        delta, fieldobj, n, rank, dim_id, dim_id, verdict, elapsed_ms, route
    )


def two_variable_certificate(r, s, fieldobj=None):
    """Evaluation table certifying independence in the two-variable case.

    For i = 1..s the monomial x1^{r-i} x2^{s-i} [x1,x2]^i evaluates at
    (x, y) to (-1)^i x^{r-i} y^{s-i}, which are distinct basis elements.
    Returns a list of (i, monomial NCPoly, evaluated WeylElement).
    """
    if not r >= s >= 1:
        raise ValueError("need r >= s >= 1")
    fieldobj = fieldobj or fields.Field.rationals()
    NCPoly = free_algebra.NCPoly
    x1 = NCPoly.variable(1, fieldobj, nvars=2)
    x2 = NCPoly.variable(2, fieldobj, nvars=2)
    br = free_algebra.commutator(x1, x2)
    table = []
    for i in range(1, s + 1):
        mono = (x1 ** (r - i)) * (x2 ** (s - i)) * (br ** i)
        table.append((i, mono, evaluation.substitute_tuple(mono, ("x", "y"))))
    return table


def degree_multidegrees(n):
    """Sorted-descending multidegree representatives of total degree n
    (one per variable-permutation class): the partitions of n."""
    def rec(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest

    return list(rec(n, n))
