import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpi.errors import BadArity, DegreeMismatch, FieldMismatch, NotMultihomogeneous
from weylpi.fields import Field
from weylpi.free_algebra import (
    NCPoly,
    _multiset_permutations,
    _word_product,
    commutator,
    complete_linearization,
    gamma,
    generator_at,
    partial_linearization,
    st3,
    t4,
)
from weylpi.parser import format_poly, parse_poly

QQ = Field.rationals()


def x(i, nvars=None):
    return NCPoly.variable(i, QQ, nvars=nvars)


def rand_poly(rng, nvars=3, max_terms=4, max_len=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randint(1, nvars) for _ in range(rng.randint(0, max_len)))
        terms[w] = QQ.of(rng.randint(-5, 5))
    return NCPoly(QQ, nvars, terms)


def test_mul_examples():
    f = (x(1) + x(2)) * (x(1) - x(2))
    assert f == parse_poly("x1^2 - x1*x2 + x2*x1 - x2^2", QQ)
    g = rand_poly(random.Random(0))
    assert NCPoly.one(QQ) * g == g
    assert x(1) * x(2) - x(2) * x(1) == commutator(x(1), x(2))


def test_commutator_examples():
    assert commutator(x(1), x(1)).is_zero()
    assert commutator(commutator(x(1), x(2)), x(3)) == gamma(3, QQ)
    assert len(gamma(3, QQ).terms) == 4


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        x(1) * NCPoly.variable(1, Field.prime(5))


def test_variable_index_and_power_must_be_valid():
    with pytest.raises(ValueError):
        NCPoly.variable(0, QQ)
    with pytest.raises(ValueError):
        x(1) ** -1


def test_mul_associative_and_distributive():
    rng = random.Random(42)
    for _ in range(25):
        f, g, h = (rand_poly(rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("field", [QQ, Field.prime(7)])
def test_one_word_product_equals_the_summed_one(field):
    # concatenating one word is injective, so the product without sums has
    # the items, in order and with their values, of the summing product
    rng = random.Random(23)
    for _ in range(200):
        f = {}
        for _ in range(rng.randint(0, 6)):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
            f[w] = field.of(rng.choice((1, 2, 3, 4, 5, 6)), rng.choice((1, 2, 3)))
        w2 = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        for c2 in (field.one, field.of(rng.choice((2, 3, 5)), rng.choice((1, 2)))):
            summed = field.add_into(
                {}, ((w1 + w2, c1 * c2) for w1, c1 in f.items())
            )
            product = _word_product(field, f, {w2: c2})
            assert list(product.items()) == list(summed.items())
            assert [type(c) for c in product.values()] == [type(c) for c in summed.values()]


def test_fp_scalars_are_reduced_to_residues():
    F7 = Field.prime(7)
    assert NCPoly(F7, 1, {(1,): 7}).is_zero()
    assert NCPoly(F7, 1, {(1,): 7}) == NCPoly.zero(F7, 1)
    product = NCPoly(F7, 1, {(1,): 10}) * NCPoly.variable(2, F7)
    assert product.terms == {(1, 2): 3}
    assert format_poly(NCPoly(F7, 1, {(1,): -1})) == "6*x1"


def test_mdeg_additive():
    f = x(1, 3) * x(2, 3) * x(1, 3)
    g = x(2, 3) * x(3, 3)
    assert (f * g).mdeg() == tuple(
        a + b for a, b in zip(f.mdeg(), g.mdeg())
    )
    assert NCPoly.zero(QQ, 2).mdeg() is None


def test_multihomogeneous_components():
    f = parse_poly("x1^2 + x1*x2", QQ)
    comps = f.multihomogeneous_components()
    assert set(comps) == {(2, 0), (1, 1)}
    assert comps[(2, 0)] == parse_poly("x1^2", QQ).rename({1: 1})
    assert NCPoly.zero(QQ).multihomogeneous_components() == {}
    assert list(st3(QQ).multihomogeneous_components()) == [(1, 1, 1)]
    total = NCPoly.zero(QQ, f.nvars)
    for comp in comps.values():
        total = total + comp
    assert total == f


def test_partial_linearization_paper_example():
    f = x(1, 3) ** 2 * x(2, 3) ** 3 * x(3, 3) ** 2
    got = partial_linearization(f, 2, (2, 1))
    expected = (
        x(1, 4) ** 2
        * (
            x(2, 4) ** 2 * x(3, 4)
            + x(2, 4) * x(3, 4) * x(2, 4)
            + x(3, 4) * x(2, 4) ** 2
        )
        * x(4, 4) ** 2
    )
    assert got == expected


def test_partial_linearization_degree_one_is_identity():
    f = x(1, 2) * x(2, 2)
    assert partial_linearization(f, 1, (1,)) == f


def _substitution_component_oracle(f, i, gamma_frag):
    """Expand f(..., x_i + ... + x_{i+k-1}, ...) literally and keep the
    target multidegree component."""
    delta = f.mdeg()
    k = len(gamma_frag)
    shifted = f.rename({j: j + k - 1 for j in range(i + 1, f.nvars + 1)})
    replacement = NCPoly.zero(QQ, f.nvars + k - 1)
    for t in range(k):
        replacement = replacement + NCPoly.variable(i + t, QQ, nvars=f.nvars + k - 1)
    # substitute by rebuilding every word
    out = NCPoly.zero(QQ, f.nvars + k - 1)
    for w, c in shifted.terms.items():
        acc = NCPoly.one(QQ, f.nvars + k - 1)
        for letter in w:
            acc = acc * (replacement if letter == i else NCPoly.variable(letter, QQ, nvars=f.nvars + k - 1))
        out = out + acc.scale(c)
    target = (
        delta[: i - 1] + tuple(gamma_frag) + delta[i:]
    )
    return out.multihomogeneous_components().get(
        target, NCPoly.zero(QQ, f.nvars + k - 1)
    )


def test_partial_linearization_matches_substitution_oracle():
    rng = random.Random(7)
    f = x(1, 2) ** 2  # lin^{(1,1)}(x1^2) = x1x2 + x2x1
    assert partial_linearization(f, 1, (1, 1)) == parse_poly("x1*x2 + x2*x1", QQ)
    for _ in range(20):
        nvars = 3
        w = tuple(rng.randint(1, nvars) for _ in range(rng.randint(1, 4)))
        f = NCPoly.monomial(w, QQ, nvars=nvars) + NCPoly.monomial(
            tuple(sorted(w)), QQ, nvars=nvars
        )
        if f.is_zero():
            continue
        delta = f.mdeg()
        i = rng.choice([v + 1 for v, d in enumerate(delta) if d > 0])
        d = delta[i - 1]
        g1 = rng.randint(0, d)
        frag = (g1, d - g1)
        got = partial_linearization(f, i, frag)
        assert got == _substitution_component_oracle(f, i, frag)


def test_linearizations_sum_to_substitution_expansion():
    # re-identifying the two fresh variables reconstructs f(x_i + x_i)
    f = x(1, 2) ** 2 * x(2, 2)
    total = NCPoly.zero(QQ)
    for g1 in range(0, 3):
        lin = partial_linearization(f, 1, (g1, 2 - g1))
        total = total + lin.rename({2: 1, 3: 2})
    assert total == f.scale(QQ.of(4))  # f(2*x1, x2) = 4 f


def test_complete_linearization():
    assert complete_linearization(x(1) ** 2) == parse_poly("x1*x2 + x2*x1", QQ)
    f = x(1, 2) * x(2, 2)
    assert complete_linearization(f) == f
    words = complete_linearization(x(1) ** 3).terms
    assert len(words) == 6
    assert all(sorted(w) == [1, 2, 3] for w in words)
    zero = NCPoly.zero(QQ, 2)
    assert complete_linearization(zero) is zero
    assert partial_linearization(zero, 1, (1, 1)) is zero


def test_linearization_errors():
    with pytest.raises(DegreeMismatch):
        partial_linearization(x(1) ** 2, 1, (1,))
    with pytest.raises(DegreeMismatch):
        partial_linearization(x(1) * x(2), 3, (1,))
    with pytest.raises(NotMultihomogeneous):
        partial_linearization(parse_poly("x1 + x1^2", QQ), 1, (1,))


def test_generators():
    assert len(st3(QQ).terms) == 6
    assert all(c in (QQ.of(1), QQ.of(-1)) for c in st3(QQ).terms.values())
    assert len(t4(QQ).terms) == 12
    assert gamma(3, QQ) == parse_poly("[x1,x2]*x3 - x3*[x1,x2]", QQ)
    with pytest.raises(Exception):
        gamma(2, QQ)


def test_gamma_arity_below_three_is_bad_arity():
    for m in (0, 1, 2):
        with pytest.raises(BadArity, match="gamma needs m >= 3"):
            gamma(m, QQ)
    assert gamma(4, QQ) == parse_poly("[[x1,x2],x3*x4]", QQ)
    assert gamma(4, QQ).nvars == 4


def test_generator_at_relabels_with_repetition():
    g = generator_at(gamma(3, QQ), (1, 2, 1))
    assert g == parse_poly("[[x1,x2],x1]", QQ)
    # St_3 is alternating, so any repeated substitution vanishes
    assert generator_at(st3(QQ), (1, 1, 2)).is_zero()
    assert generator_at(st3(QQ), (2, 1, 3)) == -st3(QQ)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=7))
def test_multiset_permutations_are_the_distinct_orderings_in_order(items):
    got = _multiset_permutations(items)
    assert type(got) is list and all(type(t) is tuple for t in got)
    assert got == sorted(set(itertools.permutations(items)))
