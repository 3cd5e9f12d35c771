from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpi.evaluation import _integer_images
from weylpi.fields import _MR_LIMIT, Field, _is_prime
from weylpi.identities import (
    _ideal_span_rows,
    degree_multidegrees,
    ideal_span_dimension,
    identity_basis,
    space_dimension,
    words_of_multidegree,
)
from weylpi.linalg import row_reduce_sparse
from weylpi.parser import format_poly

QQ = Field.rationals()
F5 = Field.prime(5)


def test_rational_arithmetic():
    assert QQ.add(QQ.of(1, 2), QQ.of(1, 3)) == Fraction(5, 6)
    assert QQ.mul(QQ.zero, QQ.of(7, 3)) == 0
    assert QQ.inv(QQ.of(-3, 4)) == Fraction(-4, 3)
    assert QQ.of(Fraction(1, 2), 3) == Fraction(1, 6)


def test_prime_field_arithmetic():
    assert F5.inv(F5.of(2)) == 3
    assert F5.add(F5.of(3), F5.of(4)) == 2
    assert F5.of(-1) == 4
    assert F5.of(1, 2) == 3  # 1/2 = 3 mod 5


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        F5.inv(F5.zero)


def test_field_parse():
    assert Field.parse("q") == QQ
    assert Field.parse("fp:7") == Field.prime(7)
    with pytest.raises(ValueError):
        Field.parse("fp:6")
    with pytest.raises(ValueError):
        Field.parse("r")


def test_non_prime_characteristic_rejected():
    for p in (4, 1, -3):
        with pytest.raises(ValueError):
            Field(p)


def test_primality_is_exact_on_strong_pseudoprimes():
    assert _is_prime(2**61 - 1) and _is_prime(32003) and _is_prime(41)
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, and a Carmichael number
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 1105):
        assert not _is_prime(n)
    with pytest.raises(ValueError):
        Field(_MR_LIMIT + 2)


def _sparse(field, dense_rows):
    return [{j: field.of(e) for j, e in enumerate(row) if e} for row in dense_rows]


def _rank(field, dense_rows):
    return row_reduce_sparse(_sparse(field, dense_rows), field)[0]


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integral_gives_ints_over_one_denominator(p, data):
    # over F_p the scalars are ints, raw or residues; over Q also Fractions
    F = Field(p)
    value = st.integers(-50, 50) | st.just(0)
    if not p:
        value = value | st.fractions(max_denominator=12) | st.just(Fraction(0))
    terms = data.draw(st.dictionaries(st.integers(0, 9), value))
    den, ints = F.integral(terms)
    nonzero = {k: v for k, v in terms.items() if not F.is_zero(F.of(v))}
    assert set(ints) == set(nonzero)
    assert all(type(v) is int for v in ints.values())
    assert all(F.of(ints[k], den) == F.of(v) for k, v in nonzero.items())
    assert den == (lcm(*(Fraction(v).denominator for v in terms.values())) if not p else 1)
    assert F.integral({}) == (1, {})


def _general_of(p, num, den):
    """``Field.of`` without its shortcut for the denominator 1."""
    if isinstance(num, Fraction):
        num, den = num.numerator, num.denominator * den
    if p == 0:
        return Fraction(num, den)
    if den % p == 0:
        raise ZeroDivisionError(den)
    return num * pow(den, -1, p) % p


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
@settings(max_examples=150, deadline=None)
@given(
    num=st.integers(-(10**30), 10**30) | st.fractions(max_denominator=40),
    den=st.sampled_from([1, -1, 0, 2, 3, -32003, 64006]) | st.integers(-70000, 70000),
)
def test_of_equals_the_general_formula(p, num, den):
    F = Field(p)
    if p:
        with pytest.raises(ZeroDivisionError):
            F.of(num, -3 * p)
    try:
        expected = _general_of(p, num, den)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            F.of(num, den)
        return
    got = F.of(num, den)
    assert type(got) is type(expected) and got == expected
    if den == 1:
        assert F.of(num) == got


def test_rank_examples():
    assert _rank(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert _rank(QQ, [[0] * 4, [0] * 4]) == 0
    assert _rank(QQ, [[1, 2], [2, 4]]) == 1


def test_kernel_examples():
    # the vanishing row combinations of M^T are the right null space of M
    def kernel_basis(field, columns):
        return row_reduce_sparse(_sparse(field, columns), field, want_kernel=True)[1]

    assert kernel_basis(QQ, [[1, 0], [0, 1]]) == []
    assert len(kernel_basis(QQ, [[0], [0]])) == 2
    (v,) = kernel_basis(QQ, [[1], [1]])
    assert v == {0: Fraction(-1), 1: Fraction(1)}


small_int = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
    st.sampled_from([0, 5, 7]),
)
def test_rank_nullity_and_exact_kernel(rows, cols, data, p):
    F = Field(p)
    ints = data.draw(
        st.lists(small_int, min_size=rows * cols, max_size=rows * cols)
    )
    dense = [ints[i * cols : (i + 1) * cols] for i in range(rows)]
    rank, kernel = row_reduce_sparse(_sparse(F, dense), F, want_kernel=True)
    assert rank + len(kernel) == rows
    # the first keys of the kernel vectors are exactly the rows that do not raise the rank
    flat = [i for i in range(rows) if _rank(F, dense[: i + 1]) == _rank(F, dense[:i])]
    assert [next(iter(v)) for v in kernel] == flat
    for v in kernel:
        for j in range(cols):
            acc = F.zero
            for i, c in v.items():
                acc = F.add(acc, F.mul(c, F.of(dense[i][j])))
            assert F.is_zero(acc)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_rational_rank_at_least_modular_rank(rows, cols, data):
    ints = data.draw(
        st.lists(small_int, min_size=rows * cols, max_size=rows * cols)
    )
    dense = [ints[i * cols : (i + 1) * cols] for i in range(rows)]
    assert _rank(QQ, dense) >= _rank(Field.prime(7), dense)


def test_sparse_row_reduce_matches_dense():
    rank, kernel = row_reduce_sparse(
        _sparse(QQ, [[1, 2, 0], [2, 4, 0], [0, 1, 1]]), QQ, want_kernel=True
    )
    assert rank == 2
    # the vanishing combination is row1 = 2 * row0
    (combo,) = kernel
    assert combo == {0: Fraction(-2), 1: Fraction(1)}


def test_integer_rows_over_q_give_an_exact_kernel():
    assert QQ.inv(3) == Fraction(1, 3)
    rank, kernel = row_reduce_sparse([{0: 2, 1: 1}, {0: 4, 1: 2}], QQ, want_kernel=True)
    assert rank == 1
    assert kernel == [{0: Fraction(-2), 1: Fraction(1)}]
    assert all(type(c) is Fraction for c in kernel[0].values())


# -- differential test against elimination over Fractions ---------------------
#
# The oracle is elimination row by row, as it was before the fraction-free
# elimination on the transpose: field arithmetic throughout, every pivot row
# scaled to be monic.


class _FractionEchelon:
    def __init__(self, field, want_kernel=False):
        self.field = field
        self.want_kernel = want_kernel
        self.pivots = {}
        self.kernel = []
        self.rank = 0
        self.nrows = 0

    def add(self, row):
        F = self.field
        pivots = self.pivots
        row = {c: v for c, v in row.items() if not F.is_zero(v)}
        aug = {self.nrows: F.one} if self.want_kernel else None
        self.nrows += 1
        while row:
            c = min(row)
            if c not in pivots:
                break
            prow, paug = pivots[c]
            factor = F.neg(row[c])
            F.add_into(row, ((pc, factor * pv) for pc, pv in prow.items()))
            if aug is not None:
                F.add_into(aug, ((pc, factor * pv) for pc, pv in paug.items()))
        if not row:
            if aug is not None:
                self.kernel.append(aug)
            return False
        c = min(row)
        inv = F.inv(row[c])
        row = {k: F.mul(inv, v) for k, v in row.items()}
        if aug is not None:
            aug = {k: F.mul(inv, v) for k, v in aug.items()}
        pivots[c] = (row, aug)
        self.rank += 1
        return True


def _oracle_reduce(rows, field, want_kernel=False):
    ech = _FractionEchelon(field, want_kernel)
    for row in rows:
        ech.add(row)
    return ech.rank, ech.kernel


_q_entry = st.one_of(
    st.just(0),
    small_int,
    st.builds(Fraction, small_int, st.sampled_from([2, 3])),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from([1, 2, 3])),
)


def _pinned_order(vec):
    """The key order of a kernel vector: its own row, the largest index,
    first, then the pivot rows in elimination order."""
    own = max(vec)
    return [own] + sorted(k for k in vec if k != own)


def _assert_same_elimination(field, rows, oracle_rows=None):
    """``row_reduce_sparse`` on ``rows`` against the oracle on
    ``oracle_rows`` (by default the same rows)."""
    oracle = _FractionEchelon(field, want_kernel=True)
    grew = [oracle.add(row) for row in (rows if oracle_rows is None else oracle_rows)]
    rank, kernel = row_reduce_sparse(rows, field, want_kernel=True)
    assert rank == oracle.rank
    assert [next(iter(v)) for v in kernel] == [i for i, g in enumerate(grew) if not g]
    assert kernel == oracle.kernel
    assert [list(v) for v in kernel] == [_pinned_order(v) for v in oracle.kernel]
    scalar = Fraction if field.p == 0 else int
    assert all(type(c) is scalar for v in kernel for c in v.values())
    assert row_reduce_sparse(rows, field)[0] == oracle.rank


_multiplier = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), 6])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_integer_elimination_over_q_matches_fractions(rows, cols, data):
    base = data.draw(
        st.lists(st.lists(_q_entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    # combinations of the rows above reduce to zero, through scaled steps
    index = st.integers(0, rows - 1)
    combos = [
        [a * x + b * y for x, y in zip(base[i], base[j])]
        for i, j, a, b in data.draw(
            st.lists(st.tuples(index, index, _multiplier, _multiplier), max_size=6)
        )
    ]
    # ints and Fractions as drawn: plain int rows are accepted over Q
    _assert_same_elimination(QQ, [{j: e for j, e in enumerate(r) if e} for r in base + combos])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.data(),
    st.sampled_from([5, 7]),
)
def test_elimination_over_prime_fields_matches_the_oracle(rows, cols, data, p):
    ints = data.draw(
        st.lists(st.integers(-(10**6), 10**6) | st.just(0), min_size=rows * cols, max_size=rows * cols)
    )
    dense = [ints[i * cols : (i + 1) * cols] for i in range(rows)]
    F = Field(p)
    _assert_same_elimination(F, _sparse(F, dense + dense[: rows // 2]))


def _residues(field, rows):
    """The rows as the oracle takes them: over F_p reduced residues."""
    p = field.p
    return [{k: v % p for k, v in row.items() if v % p} for row in rows] if p else rows


_KERNEL_FIELDS = [0, 2, 3, 5, 32003]


@pytest.mark.parametrize("p", _KERNEL_FIELDS)
@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{}, {}, {0: 0, 1: 0}],
        [{0: 2, 2: -1}],
        [{0: 2, 2: -1}, {1: 1}, {0: 2, 2: -1}, {1: 1}, {0: 2, 2: -1}],
    ],
    ids=["empty", "all-zero", "single", "duplicates"],
)
def test_kernel_of_degenerate_inputs_is_the_oracle_kernel(p, rows):
    F = Field(p)
    _assert_same_elimination(F, rows, _residues(F, rows))


@pytest.mark.parametrize("p", _KERNEL_FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_of_scaled_and_unreduced_rows_is_the_oracle_kernel(p, data):
    # over Q an entry is divided by a denominator of its row and one of its
    # column, staying an int where both are 1; over F_p it is shifted by a
    # multiple of p, so rows hold unreduced ints and nonzero multiples of p
    F = Field(p)
    ncols = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.lists(small_int, min_size=ncols, max_size=ncols), max_size=7))
    if cells:  # repeated rows make dependent rows common
        cells += data.draw(st.lists(st.sampled_from(cells), max_size=3))
    if p:
        shift = st.integers(-3, 3)
        dense = [[e + p * data.draw(shift) for e in r] for r in cells]
    else:
        den = st.sampled_from([1, 1, 2, 3, 4, 6])
        row_den = [data.draw(den) for _ in cells]
        col_den = [data.draw(den) for _ in range(ncols)]
        dense = [
            [e if rd * cd == 1 else Fraction(e, rd * cd) for e, cd in zip(r, col_den)]
            for r, rd in zip(cells, row_den)
        ]
    keep_zeros = data.draw(st.booleans())
    rows = [{j: e for j, e in enumerate(r) if keep_zeros or e} for r in dense]
    _assert_same_elimination(F, rows, _residues(F, rows))


@pytest.mark.parametrize(
    "p, text",
    [
        (0, "x1^2*x3 - 2*x1*x3*x1 + x3*x1^2"),
        (2, "x1^2*x3 + x3*x1^2"),
        (3, "x1^2*x3 + x1*x3*x1 + x3*x1^2"),
        (32003, "x1^2*x3 + 32001*x1*x3*x1 + x3*x1^2"),
    ],
)
def test_identity_basis_of_empty_and_small_slices(p, text):
    F = Field(p)
    for delta in [(), (0,), (0, 0), (1,)]:
        assert identity_basis(delta, F) == []
    (f,) = identity_basis((2, 0, 1), F)
    assert f.nvars == 3 and format_poly(f) == text


@pytest.mark.parametrize("p", [0, 2, 3])
def test_identity_basis_is_the_oracle_kernel(p):
    F = Field(p)
    for n in range(1, 6):
        for delta in degree_multidegrees(n):
            words = words_of_multidegree(delta)[::-1]
            # the kernel's images, as identity_basis takes them, in the field
            rows = [F.integral(image)[1] for image in _integer_images([{w: 1} for w in words])]
            _, kernel = _oracle_reduce(rows, F, want_kernel=True)
            expected = [{words[i]: c for i, c in vec.items()} for vec in reversed(kernel)]
            basis = identity_basis(delta, F)
            assert [f.terms for f in basis] == expected
            # own word, the least, first, then the pivot words in elimination
            # order, which is decreasing; format_poly and repr sort the terms
            order = [[words[i] for i in _pinned_order(vec)] for vec in reversed(kernel)]
            assert [list(f.terms) for f in basis] == order
            assert all(type(c) is type(F.one) for f in basis for c in f.terms.values())


@pytest.mark.parametrize("p", [0, 2, 3])
def test_ideal_span_dimension_is_the_oracle_rank(p):
    # both sides of the exact cross-check eliminate through row_reduce_sparse,
    # so the span rank is also taken row by row, over the field's own scalars
    F = Field(p)
    for n in range(1, 7):
        for delta in degree_multidegrees(n):
            if space_dimension(delta) > 360:
                continue
            # over F_2 the lift drops the 2 of Gamma_3(x_i, x_j, x_i)
            rows = [
                F.add_into({}, ((k, F.of(v)) for k, v in row.items()))
                for row in _ideal_span_rows(delta)
            ]
            assert ideal_span_dimension(delta, F) == _oracle_reduce(rows, F)[0], delta


# -- int entries enter as they are ---------------------------------------------


def _both(field, rows):
    return row_reduce_sparse(rows, field, want_kernel=True), row_reduce_sparse(rows, field)[0]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_int_field_and_mixed_column_rows_eliminate_alike_over_q(rows, cols, data):
    dense = data.draw(
        st.lists(st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    index = st.integers(0, rows - 1)
    for i, j, a in data.draw(st.lists(st.tuples(index, index, small_int), max_size=4)):
        dense.append([x + a * y for x, y in zip(dense[i], dense[j])])
    # column c divided by d: a column scaling, which keeps the rank and the
    # row dependencies, and one column that holds both an int and a
    # non-integral Fraction
    c = data.draw(st.integers(0, cols - 1))
    d = data.draw(st.sampled_from([2, 3, 4, 6]))
    dense[0][c] = d * data.draw(st.integers(1, 4))
    dense[1][c] = d * data.draw(small_int) + data.draw(st.integers(1, d - 1))
    scaled = [
        [e if k != c else (e // d if e % d == 0 else Fraction(e, d)) for k, e in enumerate(r)]
        for r in dense
    ]
    assert type(scaled[0][c]) is int and scaled[1][c].denominator > 1
    ints = [{k: e for k, e in enumerate(r) if e} for r in dense]
    result = _both(QQ, ints)
    assert _both(QQ, _sparse(QQ, dense)) == result
    assert _both(QQ, [{k: e for k, e in enumerate(r) if e} for r in scaled]) == result
    (rank, kernel), _ = result
    assert rank + len(kernel) == len(dense)
    assert all(type(v) is Fraction for vec in kernel for v in vec.values())


@pytest.mark.parametrize("p", [2, 3, 7])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unreduced_int_rows_eliminate_as_their_residues(p, data):
    # negative ints and multiples of p, zero among them, reduced as they enter
    F = Field(p)
    ncols = data.draw(st.integers(1, 5))
    entry = st.integers(-2 * p, 2 * p) | st.sampled_from([-p, p, 3 * p, -(10**9) * p])
    rows = data.draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), entry), min_size=1, max_size=8)
    )
    result = _both(F, rows)
    assert _both(F, _residues(F, rows)) == result
    assert all(type(v) is int and 0 < v < p for vec in result[0][1] for v in vec.values())


def test_int_rows_over_q_skip_field_integral(monkeypatch):
    calls = []
    integral = Field.integral

    def counted(self, terms):
        calls.append(len(terms))
        return integral(self, terms)

    monkeypatch.setattr(Field, "integral", counted)
    assert len(identity_basis((2, 2, 1), QQ)) == ideal_span_dimension((2, 2, 1), QQ) > 0
    assert calls == []
    # the same rows as Fractions: every column goes through Field.integral
    rows = [{k: QQ.of(v) for k, v in row.items()} for row in _ideal_span_rows((2, 2, 1))]
    assert row_reduce_sparse(rows, QQ)[0] == ideal_span_dimension((2, 2, 1), QQ)
    assert len(calls) == len({k for row in rows for k in row})
