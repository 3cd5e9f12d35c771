import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpi.bracket import enumerate_completely_reduced
from weylpi.errors import ArityMismatch
from weylpi.evaluation import (
    _integer_images,
    _key_layout,
    generic_substitution,
    is_weak_identity,
    substitute_tuple,
)
from weylpi.fields import Field
from weylpi.free_algebra import (
    NCPoly,
    complete_linearization,
    gamma,
    partial_linearization,
    st3,
    t4,
)
from weylpi.identities import degree_multidegrees, identity_basis, words_of_multidegree
from weylpi.linalg import row_reduce_sparse
from weylpi.parser import parse_poly
from weylpi.weyl import WeylElement

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def test_generic_substitution_of_commutator():
    f = parse_poly("[x1,x2]", QQ)
    w = generic_substitution(f)
    # [a1 x + b1 y, a2 x + b2 y] = -(a1 b2 - a2 b1) * 1
    assert w == WeylElement(QQ, {(0, 0, (1, 0, 0, 1)): QQ.of(-1), (0, 0, (0, 1, 1)): QQ.one})


def test_generic_substitution_of_generators():
    assert generic_substitution(st3(QQ)).is_zero()
    assert generic_substitution(t4(QQ)).is_zero()
    assert generic_substitution(NCPoly.zero(QQ)).is_zero()


def test_substitute_tuple_paper_values():
    assert substitute_tuple(t4(QQ), ("x", "x", "y", "y")).is_zero()
    f = parse_poly("x2*[x1,x3]", QQ)
    assert substitute_tuple(f, ("x", "y", "y")) == -WeylElement.y(QQ)
    g = parse_poly("x1*[x2,x3]", QQ)
    assert substitute_tuple(g, ("x", "y", "x")) == WeylElement.x(QQ)


def test_substitute_tuple_arity():
    with pytest.raises(ArityMismatch):
        substitute_tuple(st3(QQ), ("x", "y"))
    with pytest.raises(ValueError):
        substitute_tuple(st3(QQ), ("x", "y", "z"))


@pytest.mark.parametrize("field", [QQ, F5])
def test_generators_are_weak_identities(field):
    for m in range(3, 7):
        assert is_weak_identity(gamma(m, field))
    assert is_weak_identity(st3(field))
    assert is_weak_identity(t4(field))


def test_commutator_is_not_an_identity():
    assert not is_weak_identity(parse_poly("[x1,x2]", QQ))


@pytest.mark.parametrize("field", [QQ, F5])
def test_nonzero_coefficient_sum_refutes_without_evaluating(field, monkeypatch):
    from weylpi import evaluation

    kernel = evaluation._integer_images

    def refuse(polys):
        raise AssertionError("evaluated")

    monkeypatch.setattr(evaluation, "_integer_images", refuse)
    for text in ("x1*x2 + x2*x1", "3*x1 - 2*x1", "x1*x2 + 2*x3 - x3"):
        assert not is_weak_identity(parse_poly(text, field)), text
    # every coefficient sum is 0 (3 + 2 is, mod 5), yet none is an identity:
    # the real kernel decides
    evaluated = []

    def counted(polys):
        evaluated.append(polys)
        return kernel(polys)

    monkeypatch.setattr(evaluation, "_integer_images", counted)
    texts = ["[x1,x2]", "[x1,x2] + x1*x3 - x3*x1"]
    if field is F5:
        texts.append("3*x1*x2 + 2*x2*x1")
    for text in texts:
        assert not is_weak_identity(parse_poly(text, field)), text
    assert len(evaluated) == len(texts)


def test_no_identities_in_degree_up_to_two():
    rng = random.Random(9)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
            terms[w] = QQ.of(rng.randint(-4, 4))
        f = NCPoly(QQ, 2, terms)
        if not f.is_zero():
            assert not is_weak_identity(f)


def test_evaluation_is_a_homomorphism():
    rng = random.Random(13)
    for _ in range(15):
        terms_f = {
            tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): QQ.of(
                rng.randint(-3, 3)
            )
            for _ in range(2)
        }
        terms_g = {
            tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): QQ.of(
                rng.randint(-3, 3)
            )
            for _ in range(2)
        }
        f = NCPoly(QQ, 3, terms_f)
        g = NCPoly(QQ, 3, terms_g)
        assert generic_substitution(f * g) == generic_substitution(f) * generic_substitution(g)
        assert generic_substitution(f + g) == generic_substitution(f) + generic_substitution(g)


def test_multilinear_paths_agree():
    polys = (st3(QQ), t4(QQ), parse_poly("x1*x2 - x2*x1", QQ), gamma(4, QQ))
    for f in polys:
        brute = all(
            substitute_tuple(f, t).is_zero()
            for t in product(("x", "y"), repeat=f.nvars)
        )
        assert is_weak_identity(f) == brute


def test_multilinear_shortcut_equivalence():
    # for multilinear f: generic vanishing <=> all 2^m tuple evaluations vanish
    rng = random.Random(21)
    for _ in range(10):
        m = 3
        terms = {
            tuple(perm): QQ.of(rng.randint(-2, 2))
            for perm in [
                (1, 2, 3),
                (2, 1, 3),
                (3, 1, 2),
            ]
        }
        f = NCPoly(QQ, m, terms)
        brute = all(
            substitute_tuple(f, t).is_zero() for t in product(("x", "y"), repeat=m)
        )
        assert brute == generic_substitution(f).is_zero()


def test_specialization_of_parameters():
    # substituting concrete scalars for the parameters recovers the direct
    # evaluation at the corresponding elements of span{x, y}
    f = parse_poly("x1*x2", QQ)
    w = generic_substitution(f)
    # specialize a1=1, b1=0, a2=0, b2=1, i.e. x1 -> x, x2 -> y
    direct = substitute_tuple(f, ("x", "y"))
    values = {0: QQ.of(1), 1: QQ.of(0), 2: QQ.of(0), 3: QQ.of(1)}
    specialized = {}
    for (i, j, exps), scalar in w.terms.items():
        term = scalar
        for idx, e in enumerate(exps):
            for _ in range(e):
                term = QQ.mul(term, values[idx])
        QQ.add_into(specialized, [((i, j, ()), term)])
    assert specialized == direct.terms


def test_partial_linearizations_of_generators_stay_identities():
    for g in (gamma(3, QQ), st3(QQ), t4(QQ)):
        delta = g.mdeg()
        for i, d in enumerate(delta, start=1):
            if d == 0:
                continue
            for g1 in range(0, d + 1):
                h = partial_linearization(g, i, (g1, d - g1))
                assert is_weak_identity(h)
        assert is_weak_identity(complete_linearization(g))
    # a non-multilinear member of the ideal, same property
    f = parse_poly("[[x1,x2],x1*x1]", QQ)
    assert is_weak_identity(f)
    assert is_weak_identity(partial_linearization(f, 1, (2, 1)))


def test_generic_bracket_value_is_central():
    # a scalar: every term is x^0 y^0 times a parameter monomial
    f = parse_poly("[x1,x2]", QQ)
    assert all(i == j == 0 for i, j, _ in generic_substitution(f).terms)


# -- the integer evaluation kernel against the WeylElement oracle ------------


def _full_oracle_vector(f):
    return generic_substitution(f).terms


def _oracle_vector(f):
    # the terms x^i y^0 of the full image: the image modulo A1*y
    return {(i, exps): s for (i, j, exps), s in _full_oracle_vector(f).items() if not j}


def _assert_images_match_oracle(polys, field):
    # the kernel's images of the Field.integral rows of a batch against the
    # oracle packed forward into the batch's keys: the term (i, 0, exps)
    # has the key i*x + sum_t exps[t]*params[t//2+1][t%2], and its value
    # times den is the image's int over Q, the int mod p over F_p
    p = field.p
    scaled = [field.integral(f.terms) for f in polys]
    rows = [ints for _, ints in scaled]
    words = [w for row in rows for w in row]
    x, params = _key_layout(max(map(len, words), default=0), set().union(*words))
    images = _integer_images(rows)
    assert len(images) == len(polys)
    for f, (den, _), image in zip(polys, scaled, images):
        packed = {
            i * x + sum(e * params[t // 2 + 1][t % 2] for t, e in enumerate(exps) if e): v * den
            for (i, exps), v in _oracle_vector(f).items()
        }
        assert all(image.values())
        assert ({k: s % p for k, s in image.items() if s % p} if p else image) == packed


def _image_vanishes(f):
    # the kernel's image of f, through Field.integral, is zero in the field
    p = f.field.p
    (image,) = _integer_images([f.field.integral(f.terms)[1]])
    return not any(s % p for s in image.values()) if p else not image


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_kernel_matches_oracle_up_to_degree_five(p):
    field = Field(p)
    for n in range(6):
        for delta in degree_multidegrees(n):
            polys = [b.expand(field) for b in enumerate_completely_reduced(delta)]
            polys += [
                NCPoly.monomial(w, field, nvars=len(delta))
                for w in words_of_multidegree(delta)
            ]
            _assert_images_match_oracle(polys, field)


_word = st.lists(st.integers(1, 4), max_size=4).map(tuple)
_term = st.tuples(_word, st.fractions(min_value=-3, max_value=3, max_denominator=6))


@settings(max_examples=60, deadline=None)
@given(st.lists(_term, max_size=5))
def test_kernel_matches_oracle_on_random_polynomials(terms):
    f = NCPoly(QQ, 4, dict(terms))
    _assert_images_match_oracle([f], QQ)


def test_shared_prefixes_give_the_same_vectors():
    # a batch multiplies out each common prefix once; polynomials evaluated
    # one at a time share nothing; both match the oracle
    rng = random.Random(5)
    for field in (QQ, F5):
        polys = []
        for _ in range(12):
            terms = {
                tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5))): field.of(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(rng.randint(1, 6))
            }
            polys.append(NCPoly(field, 3, terms))
        _assert_images_match_oracle(polys, field)
        for f in polys:
            _assert_images_match_oracle([f], field)


def _layout(rows):
    # what the packed keys of a batch depend on: the slot width, set by the
    # longest word, and the number of slot pairs, set by the largest letter
    words = [w for row in rows for w in row]
    return max(map(len, words), default=0).bit_length(), max(sum(words, ()), default=0)


def _assert_batch_is_rowwise(rows):
    # a batch packs the row index in the low bits of its keys; its images
    # must be the single-row images, in the same order where the layouts
    # agree, and the oracle's images in the batch's and in each row's layout
    images = _integer_images(rows)
    assert len(images) == len(rows)
    for r, row in enumerate(rows):
        (single,) = _integer_images([row])
        if _layout([row]) == _layout(rows):
            assert list(images[r].items()) == list(single.items()), r
    polys = [NCPoly(QQ, 3, {w: QQ.of(c) for w, c in row.items()}) for row in rows]
    _assert_images_match_oracle(polys, QQ)
    for f in polys:
        _assert_images_match_oracle([f], QQ)


_int_row = st.dictionaries(
    st.sampled_from([(), (1,), (2,), (1, 2), (2, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (3, 1, 2)]),
    st.integers(-3, 3).filter(bool),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_images_are_the_single_row_images(data):
    # batch sizes at and around the row-bit boundaries 1, 2, 3, 4 and 5 bits
    n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17]))
    rows = data.draw(st.lists(_int_row, min_size=n, max_size=n))
    _assert_batch_is_rowwise(rows)


def test_batched_images_at_the_row_bit_boundaries():
    # an empty row, the empty word, one word in several rows, and rows whose
    # terms cancel inside a trie node: x1 x2 - x2 x1 at the root, and
    # x3 (x1 x2 - x2 x1) at the node of x3
    rows = [
        {},
        {(): 2},
        {(1, 2): 1, (2, 1): -1},
        {(3, 1, 2): -4, (3, 2, 1): 4},
        {(1, 2): 5, (): -1},
        {(1, 1, 1): 1, (2, 1): 3},
        {(1, 2): -1, (2, 1): 1, (1,): 7},
    ]
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17):
        batch = [rows[r % len(rows)] for r in range(n)]
        _assert_batch_is_rowwise(batch)
        _assert_batch_is_rowwise(batch[::-1])
    assert _integer_images([{}]) == [{}]


@pytest.mark.parametrize("field", [QQ, Field.prime(2), Field.prime(3)])
def test_batches_with_shared_words_and_prefix_words_match_the_oracle(field):
    # The words include the empty word and every prefix of each word, so
    # many end at internal nodes of the prefix trie; repeated letters give
    # terms x^i y^j with i, j > 1; the rows share words with different
    # coefficients, over Q with mixed denominators.
    rng = random.Random(17)
    base = [tuple(rng.randint(1, 3) for _ in range(rng.randint(3, 6))) for _ in range(6)]
    pool = sorted({w[:t] for w in base for t in range(len(w) + 1)})
    assert () in pool and len(pool) > 15

    def coeff():
        if field.p:
            return field.of(rng.randrange(1, field.p))
        return field.of(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 6))

    polys = [NCPoly(field, 3, {w: coeff() for w in rng.sample(pool, 8)}) for _ in range(6)]
    polys.append(NCPoly(field, 3, {w: coeff() for w in pool}))
    polys.append(NCPoly(field, 3, {w: coeff() for w in pool}))
    _assert_images_match_oracle(polys, field)


# -- the certificate's leading terms against the generic substitution ---------


def _weight(coord):
    # x weighs far more than y, a_t weighs t and b_t weighs 0
    i, _, exps = coord
    return i, sum(t * e for t, e in enumerate(exps[::2], start=1))


@pytest.mark.parametrize("p", [0, 2, 3, 32003, 2**61 - 1])
def test_point_vectors_match_substitution_up_to_degree_five(p):
    # the image of u[x_r1,x_s1]...[x_rk,x_sk] lies in i + j <= d - 2k, and
    # its heaviest coordinate is x^(d-2k) prod a_(u + s's) prod b_(r's), with
    # value 1: the premise of the certificate's distinct-triple check
    field = Field(p)
    for n in range(6):
        for delta in degree_multidegrees(n):
            m = len(delta)
            reduced = enumerate_completely_reduced(delta)
            words = words_of_multidegree(delta)
            monomials = [(b.prefix, b.brackets) for b in reduced] + [(w, ()) for w in words]
            polys = [b.expand(field) for b in reduced]
            polys += [NCPoly.monomial(w, field, nvars=m) for w in words]
            for (prefix, brackets), f in zip(monomials, polys):
                vec = _full_oracle_vector(f)
                top = len(prefix)  # d - 2k
                exps = [0] * (2 * m)
                for t in prefix + tuple(s for _, s in brackets):
                    exps[2 * t - 2] += 1
                for r, _ in brackets:
                    exps[2 * r - 1] += 1
                while exps and not exps[-1]:
                    exps.pop()
                lead = (top, 0, tuple(exps))
                assert all(i + j <= top for i, j, _ in vec)
                assert vec[lead] == field.one
                others = [c for c in vec if c != lead and c[0] + c[1] == top]
                assert all(_weight(c) < _weight(lead) for c in others)


# -- the image modulo A1*y against the full image -----------------------------


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_identity_basis_is_the_kernel_of_the_full_image(field):
    for n in range(6):
        for delta in degree_multidegrees(n):
            words = words_of_multidegree(delta)[::-1]
            rows = [_full_oracle_vector(NCPoly.monomial(w, field, nvars=len(delta))) for w in words]
            _, kernel = row_reduce_sparse(rows, field, want_kernel=True)
            expected = [{words[i]: c for i, c in vec.items()} for vec in reversed(kernel)]
            assert [f.terms for f in identity_basis(delta, field)] == expected


_SLICES = [(2, 1), (1, 1, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([QQ, F2, F3]),
    st.sampled_from(_SLICES),
    st.lists(st.integers(-3, 3), min_size=24, max_size=24),
    st.integers(-1, 23),
    st.lists(st.tuples(_word, st.integers(-3, 3)), max_size=3),
)
def test_full_image_vanishes_iff_its_part_modulo_a1y_does(field, delta, coeffs, word, terms):
    # sums of identity-basis elements vanish, and adding a word or random
    # terms to them makes both images nonzero or leaves both zero
    f = NCPoly.zero(field, 4)
    for c, g in zip(coeffs, identity_basis(delta, field)):
        f = f + g.scale(field.of(c))
    words = words_of_multidegree(delta)
    if word >= 0:
        f = f + NCPoly.monomial(words[word % len(words)], field, nvars=4)
    f = f + NCPoly(field, 4, {w: field.of(c) for w, c in terms})
    full = _full_oracle_vector(f)
    assert (not full) == (not _oracle_vector(f)) == _image_vanishes(f)
    assert (not full) == is_weak_identity(f)
    if word >= 0 and not terms:
        assert full


@pytest.mark.parametrize("p", [2, 3, 32003])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weak_identity_verdict_over_prime_fields_is_the_image_test(p, data):
    # over F_p the residues of f are evaluated as they are, without the
    # copy through Field.integral that _image_vanishes makes; sums of basis
    # elements are identities, and a difference of two words of the slice
    # keeps every coefficient sum zero, so the evaluation decides
    F = Field(p)
    delta = data.draw(st.sampled_from(_SLICES))
    words = words_of_multidegree(delta)
    scalar = st.integers(-(10**6), 10**6)
    f = NCPoly.zero(F, 4)
    for g in identity_basis(delta, F):
        f = f + g.scale(F.of(data.draw(scalar)))
    for _ in range(data.draw(st.integers(0, 2))):
        u, v = data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))
        c = F.of(data.draw(scalar))
        f = f + NCPoly(F, 4, {u: c}) - NCPoly(F, 4, {v: c})
    assert is_weak_identity(f) == _image_vanishes(f)
