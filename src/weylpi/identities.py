"""Linear-algebra layer: bases of the weak-identity spaces per multidegree,
dimension of the known-identity ideal, and conjecture verification.

Verification decides multidegree delta from the n completely reduced
bracket-monomials and the pure word x1^d1...xm^dm.  If the generic
evaluations of the bracket-monomials are linearly independent, then every
weak identity of that multidegree rewrites to 0 modulo the ideal (its beta
vanishes by evaluation at equal arguments, and the alpha_i vanish by
independence), so the identity space and the ideal coincide there, and
dim Id = dim F_delta - rank of all n+1 evaluations.

It takes the first of these routes that decides (``ConjectureReport.route``):

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
- ``exact``: one exact elimination of the generic evaluations.  If the
  bracket rows are independent, the report is ``Verified`` as above.
- ``ideal-span``: otherwise dim Id is compared with the rank of an explicit
  spanning set of the ideal slice, which is refused (``ResourceLimit``)
  when the slice has more than ``MAX_EVAL_WORDS`` words.
- ``witness``: if they differ, the span rows stay in one echelon, and
  the first dependency among the bracket evaluations (a weak identity)
  that raises its rank is a witness outside the ideal (``Refuted``); if
  none does, the report is ``Inconclusive``.
"""
import math
import time
from dataclasses import dataclass
from itertools import combinations, product

from .bracket import enumerate_completely_reduced
from .errors import ResourceLimit
from .evaluation import _integer_images, substitute_tuple
from .fields import Field
from .free_algebra import NCPoly, _multiset_permutations, gamma, generator_at, st3
from .linalg import Echelon, row_reduce_sparse
from .parser import format_poly

DEFAULT_MAX_DEGREE = 8

# The most words the CLI's ``check`` and ``idbasis`` evaluate, and the most
# words of a slice whose ideal span ``verify``'s exact route builds; the
# span and the elimination of ``idbasis`` grow fastest.  On a shared 2-vCPU
# VM, at this limit: ``check`` evaluates 2520 words of degree 8 in 0.03-0.2 s
# and of degree 10 in 0.1-0.45 s, random letters slowest (parsing takes
# 0.15-0.25 s more); the slowest accepted ``idbasis`` slices, (2,1,1,1,1,1)
# and (2,2,2,2), take 0.7-0.8 s over Q.  Above it, (3,2,1,1,1), 3360 words,
# takes 0.8 s and (2,2,1,1,1,1), 5040 words, 4.4 s; the span of 1^7, 5040
# words, takes 34 s over F_2 and 94 s over Q.
MAX_EVAL_WORDS = 2520


def capped(delta, cap):
    """``delta``, or ``ResourceLimit`` if its total degree exceeds ``cap``."""
    if sum(delta) > cap:
        raise ResourceLimit(f"total degree {sum(delta)} exceeds cap {cap}")
    return delta


def words_of_multidegree(delta):
    """All words with the given letter multiset, in lexicographic order."""
    letters = [i + 1 for i, d in enumerate(delta) for _ in range(d)]
    return list(_multiset_permutations(letters))


def space_dimension(delta):
    """dim of the multidegree slice of the free algebra (a multinomial)."""
    n = math.factorial(sum(delta))
    for d in delta:
        n //= math.factorial(d)
    return n


def identity_basis(delta, fieldobj):
    """Deterministic echelon basis of the weak identities of multidegree delta.

    The kernel of the evaluation, computed modulo A1*y (``evaluation``), in
    reduced echelon form over the lexicographic word order.  The words are
    eliminated in reverse order, so each kernel vector has coefficient 1 on
    its least word and its other words are pivots, which no other vector
    contains: read backwards, the kernel is already the reduced echelon basis.
    """
    delta = tuple(delta)
    words = words_of_multidegree(delta)[::-1]
    nvars = len(delta)
    # coefficient 1 on each word, so den is 1
    rows, _, _ = _integer_images([NCPoly.monomial(w, fieldobj, nvars=nvars) for w in words])
    _, kernel = row_reduce_sparse(rows, fieldobj, want_kernel=True)
    return [
        NCPoly(fieldobj, nvars, {words[i]: c for i, c in vec.items()})
        for vec in reversed(kernel)
    ]


def _ideal_span_rows(delta, fieldobj):
    """The rows w1 * g(x_i, x_j, x_k) * w2 of multidegree delta, for
    g = Gamma_3 with i < j, g = St_3 with i < j < k and words w1, w2, as
    dicts word -> scalar.  They are nonzero and pairwise distinct.

    They span the slice of the ideal generated by Gamma_3, St_3 and T_4:
    Gamma_3 is antisymmetric in its first two arguments and St_3 is
    alternating, so any other index tuple gives 0 or minus one of these
    rows; and T_4 - [St_3(x1,x2,x3), x4] = Gamma_3(x1,x3,x4) x2
    - Gamma_3(x1,x2,x4) x3 - Gamma_3(x2,x3,x4) x1 holds over the integers,
    so over every field each T_4 row is a sum of these rows times +-1.

    The generators are multilinear, so the substitution has the multidegree
    of its index tuple, counted before it is built; and a row is its terms
    with u[:cut] and u[cut:] concatenated on either side, which is injective
    on words, so nothing cancels and no product of polynomials is needed.
    """
    delta = tuple(delta)
    m = len(delta)
    letters = range(1, m + 1)
    generators = [
        (gamma(3, fieldobj), [t for t in product(letters, repeat=3) if t[0] < t[1]]),
        (st3(fieldobj), combinations(letters, 3)),
    ]
    rows = []
    for g, tuples in generators:
        for idxs in tuples:
            mu = [idxs.count(i + 1) for i in range(m)]
            if any(mu[i] > delta[i] for i in range(m)):
                continue
            sub = generator_at(g, idxs).terms
            rem = [i + 1 for i in range(m) for _ in range(delta[i] - mu[i])]
            for u in _multiset_permutations(rem):
                for cut in range(len(u) + 1):
                    w1, w2 = u[:cut], u[cut:]
                    rows.append({w1 + w + w2: c for w, c in sub.items()})
    return rows


def ideal_span_dimension(delta, fieldobj):
    """dim of the multidegree slice of the ideal of known identities,
    as the rank of the explicit spanning set over the word basis."""
    rank, _ = row_reduce_sparse(_ideal_span_rows(delta, fieldobj), fieldobj)
    return rank


@dataclass
class ConjectureReport:
    mdeg: tuple
    field: Field
    n_reduced: int
    eval_rank: int
    dim_id: int
    dim_I: int
    verdict: str  # Verified | Refuted | Inconclusive
    witness: object = None  # expression text or None
    elapsed_ms: float = 0.0
    # how the verdict was reached: certified | exact | ideal-span | witness;
    # not part of to_dict(), whose keys are fixed
    route: str = ""

    def to_dict(self):
        return {
            "mdeg": list(self.mdeg),
            "field": "q" if self.field.p == 0 else f"fp:{self.field.p}",
            "n_reduced": self.n_reduced,
            "eval_rank": self.eval_rank,
            "dim_id": self.dim_id,
            "dim_I": self.dim_I,
            "verdict": self.verdict,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }


def _full_rank(monomials):
    """True when the ``monomials`` (``(prefix, brackets)`` pairs of one
    multidegree) have pairwise distinct multisets of r's, which name their
    leading terms and so certify that their generic evaluations are
    independent."""
    leads = {tuple(sorted(r for r, _ in brackets)) for _, brackets in monomials}
    return len(leads) == len(monomials)


def verify_conjecture(delta, fieldobj=None, max_degree=None):
    """Check that the weak identities of multidegree delta all lie in the
    ideal of known identities; never extrapolated across characteristics."""
    t0 = time.perf_counter()
    fieldobj = fieldobj or Field.rationals()
    cap = max_degree if max_degree is not None else DEFAULT_MAX_DEGREE
    delta = capped(tuple(delta), cap)

    keys = enumerate_completely_reduced(delta)
    n = len(keys)
    # dim Id = dim F_delta - rank of the evaluated quotient spanning set
    # {x1^d1...xm^dm} + reduced monomials (sound by the normal-form theorem).
    pure = tuple(l for l, d in enumerate(delta, start=1) for _ in range(d))
    monomials = keys + [(pure, ())]
    if _full_rank(monomials):
        # full rank of every block bounds the exact rank from below
        dim_id = space_dimension(delta) - (n + 1)
        report = ConjectureReport(
            delta, fieldobj, n, n, dim_id, dim_id, "Verified", route="certified"
        )
    else:
        report = _exact_report(delta, fieldobj, keys, pure)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _exact_report(delta, fieldobj, keys, pure):
    """The verdict from exact elimination of the generic evaluations, then
    the ideal span and the witness search if they are dependent."""
    n = len(keys)
    polys = [key.expand(fieldobj) for key in keys]
    polys.append(NCPoly.monomial(pure, fieldobj, nvars=len(delta)))
    rows, _, _ = _integer_images(polys)  # coefficients +-1, so den is 1
    ech = Echelon(fieldobj, want_kernel=True)
    for row in rows[:n]:
        ech.add(row)
    eval_rank, kernel = ech.rank, list(ech.kernel)  # before the pure row adds one
    ech.add(rows[n])
    dim_id = space_dimension(delta) - ech.rank

    if eval_rank == n:
        return ConjectureReport(
            delta, fieldobj, n, eval_rank, dim_id, dim_id, "Verified", route="exact"
        )
    words = space_dimension(delta)
    if words > MAX_EVAL_WORDS:
        raise ResourceLimit(f"{words} words to span exceed the limit of {MAX_EVAL_WORDS}")
    span = Echelon(fieldobj)
    for row in _ideal_span_rows(delta, fieldobj):
        span.add(row)
    dim_I = span.rank
    if dim_I == dim_id:
        return ConjectureReport(
            delta, fieldobj, n, eval_rank, dim_id, dim_I, "Verified", route="ideal-span"
        )
    # a dependency g is a weak identity; it lies outside the ideal exactly
    # when it raises the span's rank, and a failed add leaves the pivots
    # as they were, so the one span echelon tests every candidate
    witness = None
    for vec in kernel:
        g = fieldobj.add_into(
            {}, ((w, c * cw) for idx, c in vec.items() for w, cw in polys[idx].terms.items())
        )
        if span.add(g):
            witness = format_poly(NCPoly(fieldobj, len(delta), g))
            break
    verdict = "Refuted" if witness is not None else "Inconclusive"
    return ConjectureReport(
        delta, fieldobj, n, eval_rank, dim_id, dim_I, verdict, witness, route="witness"
    )


def two_variable_certificate(r, s, fieldobj=None):
    """Evaluation table certifying independence in the two-variable case.

    For i = 1..s the monomial x1^{r-i} x2^{s-i} [x1,x2]^i evaluates at
    (x, y) to (-1)^i x^{r-i} y^{s-i}, which are distinct basis elements.
    Returns a list of (i, monomial NCPoly, evaluated WeylElement).
    """
    if not r >= s >= 1:
        raise ValueError("need r >= s >= 1")
    fieldobj = fieldobj or Field.rationals()
    x1 = NCPoly.variable(1, fieldobj, nvars=2)
    x2 = NCPoly.variable(2, fieldobj, nvars=2)
    br = x1 * x2 - x2 * x1
    table = []
    for i in range(1, s + 1):
        mono = (x1 ** (r - i)) * (x2 ** (s - i)) * (br ** i)
        table.append((i, mono, substitute_tuple(mono, ("x", "y"))))
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
