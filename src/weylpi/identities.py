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
  with i + j = d - 2k) has.  Each block's leading forms are evaluated at
  seeded scalar points in F_p, with p = 2^61 - 1 over Q and the field
  itself over F_p, and their coefficients feed the block's own echelon.
  Full rank there is exact: stacking points multiplies the block by a
  matrix of parameter-monomial values, which cannot raise its rank, and
  over Q neither can reducing the integer rows mod p.  A block gives up
  after ``_DRY_POINTS`` consecutive points that add no rank.
- ``exact``: one exact elimination of the generic evaluations.  If the
  bracket rows are independent, the report is ``Verified`` as above.
- ``ideal-span``: otherwise dim Id is compared with the rank of an explicit
  spanning set of the ideal slice.
- ``witness``: if they differ, each dependency among the evaluations is
  tried as a witness outside the ideal (``Refuted``), else ``Inconclusive``.
"""
import math
import random
import time
from dataclasses import dataclass
from itertools import product, tee

from .bracket import BracketMonomial, completely_reduced_keys
from .errors import ResourceLimit
from .evaluation import eval_vectors, leading_forms, substitute_tuple
from .fields import Field
from .free_algebra import NCPoly, _multiset_permutations, gamma, generator_at, st3, t4
from .linalg import Echelon, row_reduce_sparse
from .parser import format_poly

DEFAULT_MAX_DEGREE = 8


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

    The kernel of the word-basis -> Weyl-evaluation map in reduced echelon
    form over the lexicographic word order.  The words are eliminated in
    reverse order, so each kernel vector has coefficient 1 on its least
    word and its other words are pivots, which no other vector contains:
    read backwards, the kernel is already the reduced echelon basis.
    """
    delta = tuple(delta)
    words = words_of_multidegree(delta)[::-1]
    nvars = len(delta)
    rows = eval_vectors(
        [NCPoly.monomial(w, fieldobj, nvars=nvars) for w in words], fieldobj
    )
    _, kernel = row_reduce_sparse(rows, fieldobj, want_kernel=True)
    return [
        NCPoly(fieldobj, nvars, {words[i]: c for i, c in vec.items()})
        for vec in reversed(kernel)
    ]


def _ideal_span_rows(delta, fieldobj):
    """The distinct rows w1 * g(x_i1, ..., x_ia) * w2 of multidegree delta,
    for g in Gamma_3, St_3, T_4 and words w1, w2, as dicts word -> scalar.

    The generators are multilinear in their arity, so the substitution has
    the multidegree of its index tuple, counted before it is built; and a
    row is its terms with u[:cut] and u[cut:] concatenated on either side,
    which is injective on words, so nothing cancels and no product of
    polynomials is needed.
    """
    delta = tuple(delta)
    m = len(delta)
    generators = [(gamma(3, fieldobj), 3), (st3(fieldobj), 3), (t4(fieldobj), 4)]
    seen = set()
    rows = []
    for g, arity in generators:
        for idxs in product(range(1, m + 1), repeat=arity):
            mu = [idxs.count(i + 1) for i in range(m)]
            if any(mu[i] > delta[i] for i in range(m)):
                continue
            sub = generator_at(g, idxs).terms
            if not sub:
                continue
            rem = [i + 1 for i in range(m) for _ in range(delta[i] - mu[i])]
            for u in _multiset_permutations(rem):
                for cut in range(len(u) + 1):
                    w1, w2 = u[:cut], u[cut:]
                    row = {w1 + w + w2: c for w, c in sub.items()}
                    key = frozenset(row.items())
                    if key in seen:
                        continue
                    seen.add(key)
                    rows.append(row)
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
    dim_I: object  # int or None
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


# Over Q the certificate works mod this prime: the rank of an integer
# matrix mod p is at most its rank over Q.
_CERTIFICATE_FIELD = Field(2**61 - 1)


def _scalar_points(nvars, p):
    """Seeded pseudo-random points ((a_1, b_1), ..., (a_m, b_m)) over F_p."""
    rng = random.Random(0)
    while True:
        yield tuple((rng.randrange(p), rng.randrange(p)) for _ in range(nvars))


# Over a small field many points add no rank even to a block of full rank
# (a bracket scalar b_r*a_s - a_r*b_s vanishes at 5/8 of the points of F_2),
# so a block gives up only after this many consecutive dry points.
_DRY_POINTS = 24


def _full_rank_at_points(monomials, nvars, field):
    """True when, for each bracket count, the leading forms of the
    ``monomials`` (``(prefix, brackets)`` pairs) with that count reach full
    rank at scalar points over the prime field ``field``.  Each point gives
    a block one column per coefficient of the forms.  The points are drawn
    once and replayed: every block starts at the first point, and only as
    many are drawn as the block that needs the most."""
    blocks = {}
    for mono in monomials:
        blocks.setdefault(len(mono[1]), []).append(mono)
    replays = tee(_scalar_points(nvars, field.p), len(blocks))
    return all(
        _block_full_rank(block, points, field)
        for block, points in zip(blocks.values(), replays)
    )


def _block_full_rank(block, points, field):
    p = field.p
    ech = Echelon(field)
    dry = 0
    for point in points:
        before = ech.rank
        forms = leading_forms(block, point, p)
        for i in range(len(forms[0])):
            ech.add({row: form[i] for row, form in enumerate(forms)})
            if ech.rank == len(block):
                return True
        dry = 0 if ech.rank > before else dry + 1
        if dry == _DRY_POINTS:
            return False


def verify_conjecture(delta, fieldobj=None, max_degree=None):
    """Check that the weak identities of multidegree delta all lie in the
    ideal of known identities; never extrapolated across characteristics."""
    t0 = time.perf_counter()
    delta = tuple(delta)
    fieldobj = fieldobj or Field.rationals()
    cap = max_degree if max_degree is not None else DEFAULT_MAX_DEGREE
    if sum(delta) > cap:
        raise ResourceLimit(f"total degree {sum(delta)} exceeds cap {cap}")

    keys = completely_reduced_keys(delta)
    n = len(keys)
    # dim Id = dim F_delta - rank of the evaluated quotient spanning set
    # {x1^d1...xm^dm} + reduced monomials (sound by the normal-form theorem).
    pure = tuple(l for l, d in enumerate(delta, start=1) for _ in range(d))
    monomials = keys + [(pure, ())]
    point_field = fieldobj if fieldobj.p else _CERTIFICATE_FIELD
    if _full_rank_at_points(monomials, len(delta), point_field):
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
    from .rewriter import normal_form

    n = len(keys)
    nvars = len(delta)
    polys = [BracketMonomial(*key).expand(fieldobj) for key in keys]
    polys.append(NCPoly.monomial(pure, fieldobj, nvars=nvars))
    # One elimination with the pure word last: rows are consumed in order,
    # so the kernel vectors of the bracket rows come out as if they were
    # reduced alone, and the pure row either adds a pivot or gives the only
    # kernel vector containing index n.
    rank_full, kernel = row_reduce_sparse(
        eval_vectors(polys, fieldobj), fieldobj, want_kernel=True
    )
    kernel = [vec for vec in kernel if n not in vec]
    eval_rank = n - len(kernel)
    dim_id = space_dimension(delta) - rank_full

    if eval_rank == n:
        return ConjectureReport(
            delta, fieldobj, n, eval_rank, dim_id, dim_id, "Verified", route="exact"
        )
    span_rows = _ideal_span_rows(delta, fieldobj)
    dim_I, _ = row_reduce_sparse(span_rows, fieldobj)
    if dim_I == dim_id:
        return ConjectureReport(
            delta, fieldobj, n, eval_rank, dim_id, dim_I, "Verified", route="ideal-span"
        )
    witness = None
    for vec in kernel:
        g = NCPoly.zero(fieldobj, nvars)
        for idx, c in vec.items():
            g = g + polys[idx].scale(c)
        if g.is_zero():
            continue
        rank_aug, _ = row_reduce_sparse(span_rows + [g.terms], fieldobj)
        nf = next(iter(normal_form(g).values()), None)
        if rank_aug > dim_I and nf is not None and not nf.is_zero():
            witness = format_poly(g)
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
