import random
from itertools import product

import pytest

from weylpi.errors import NotPurelyX
from weylpi.fields import Field
from weylpi.weyl import (
    WeylElement,
    commutator_with_y,
)

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)


def brute_force_normal_order(word, field):
    """Oracle: rewrite a word in {'x','y'} with single yx -> xy + 1 swaps."""
    terms = {}  # word tuple -> scalar
    work = [(tuple(word), field.one)]
    while work:
        w, c = work.pop()
        for i in range(len(w) - 1):
            if w[i] == "y" and w[i + 1] == "x":
                work.append((w[:i] + ("x", "y") + w[i + 2 :], c))
                work.append((w[:i] + w[i + 2 :], c))
                break
        else:
            key = (w.count("x"), w.count("y"), ())
            s = field.add(terms.get(key, field.zero), c)
            if field.is_zero(s):
                terms.pop(key, None)
            else:
                terms[key] = s
    return WeylElement(field, terms)


def product_of_letters(word, field):
    out = WeylElement.one(field)
    for letter in word:
        out = out * (WeylElement.x(field) if letter == "x" else WeylElement.y(field))
    return out


def test_defining_relation():
    F = QQ
    assert WeylElement.y(F) * WeylElement.x(F) == WeylElement.basis(1, 1, F) + WeylElement.one(F)
    assert WeylElement.x(F) * WeylElement.y(F) == WeylElement.basis(1, 1, F)


def test_y2_x2():
    F = QQ
    y2 = WeylElement.basis(0, 2, F)
    x2 = WeylElement.basis(2, 0, F)
    expected = (
        WeylElement.basis(2, 2, F)
        + WeylElement.basis(1, 1, F).scale(F.of(4))
        + WeylElement.one(F).scale(F.of(2))
    )
    assert y2 * x2 == expected
    assert y2 * x2 == brute_force_normal_order("yyxx", F)


@pytest.mark.parametrize("field", [QQ, F3])
def test_against_single_swap_oracle(field):
    for n in range(0, 6):
        for word in product("xy", repeat=n):
            assert product_of_letters(word, field) == brute_force_normal_order(
                word, field
            )


def test_mul_associative_random():
    rng = random.Random(11)
    F = QQ

    def rand_elem():
        # random trimmed exps exercise the parameter products of __mul__
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randint(0, 2) for _ in range(rng.randint(0, 4))]
            if exps:
                exps[-1] = rng.randint(1, 2)
            key = (rng.randint(0, 3), rng.randint(0, 3), tuple(exps))
            terms[key] = F.of(rng.randint(-3, 3))
        return WeylElement(F, terms)

    one = WeylElement.one(F)
    for _ in range(20):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert (u * v) * w == u * (v * w)
        assert u * one == u and one * u == u


def test_product_degree_bound():
    rng = random.Random(5)
    F = QQ
    for _ in range(30):
        i1, j1, i2, j2 = (rng.randint(0, 4) for _ in range(4))
        prod = WeylElement.basis(i1, j1, F) * WeylElement.basis(i2, j2, F)
        for (i, j, _) in prod.terms:
            assert i <= i1 + i2 and j <= j1 + j2


@pytest.mark.parametrize("field", [QQ, Field.prime(2), F3])
def test_basis_products_match_single_swap_oracle(field):
    # y^j1 x^i2 with j1, i2 >= 2 reaches the k >= 2 terms of the formula
    for i1, j1, i2, j2 in product(range(4), repeat=4):
        prod = WeylElement.basis(i1, j1, field) * WeylElement.basis(i2, j2, field)
        word = "x" * i1 + "y" * j1 + "x" * i2 + "y" * j2
        assert prod == brute_force_normal_order(word, field), (i1, j1, i2, j2)


def test_derivative_bracket():
    F = QQ
    a = WeylElement.basis(3, 0, F)  # x^3
    assert commutator_with_y(a) == WeylElement.basis(2, 0, F).scale(F.of(3))
    assert commutator_with_y(WeylElement.one(F)).is_zero()
    a3 = WeylElement.basis(3, 0, F3)
    assert commutator_with_y(a3).is_zero()  # 3 = 0 in F_3


def test_derivative_matches_commutator():
    rng = random.Random(3)
    for field in (QQ, F5):
        y = WeylElement.y(field)
        for _ in range(20):
            coeffs = [field.of(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
            monomials = [WeylElement.basis(i, 0, field).scale(c) for i, c in enumerate(coeffs)]
            a = sum(monomials[1:], monomials[0])
            assert commutator_with_y(a) == y * a - a * y


def test_derivative_requires_pure_x():
    with pytest.raises(NotPurelyX):
        commutator_with_y(WeylElement.y(QQ))


def test_generic_bracket_is_central_scalar():
    # [u, v] for generic u, v in span{x, y} is a parameter multiple of 1
    F = QQ
    u = WeylElement(F, {(1, 0, (1,)): F.one, (0, 1, (0, 1)): F.one})
    v = WeylElement(F, {(1, 0, (0, 0, 1)): F.one, (0, 1, (0, 0, 0, 1)): F.one})
    br = u * v - v * u
    assert br.terms == {(0, 0, (0, 1, 1)): 1, (0, 0, (1, 0, 0, 1)): -1}
    assert all(i == j == 0 for i, j, _ in br.terms)
    # trailing zero exponents are trimmed on input
    assert WeylElement(F, {(1, 0, (1, 0, 0)): F.one}) == WeylElement(F, {(1, 0, (1,)): F.one})
