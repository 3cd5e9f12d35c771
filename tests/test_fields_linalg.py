from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpi.fields import _MR_LIMIT, Field, _is_prime
from weylpi.linalg import Matrix, row_reduce_sparse

QQ = Field.rationals()
F5 = Field.prime(5)


def test_rational_arithmetic():
    assert QQ.add(QQ.of(1, 2), QQ.of(1, 3)) == Fraction(5, 6)
    assert QQ.mul(QQ.zero, QQ.of(7, 3)) == 0
    assert QQ.inv(QQ.of(-3, 4)) == Fraction(-4, 3)


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
    with pytest.raises(ValueError):
        Field(4)


def test_primality_is_exact_on_strong_pseudoprimes():
    assert _is_prime(2**61 - 1) and _is_prime(32003) and _is_prime(41)
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, and a Carmichael number
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 1105):
        assert not _is_prime(n)
    with pytest.raises(ValueError):
        Field(_MR_LIMIT + 2)


def test_rank_examples():
    assert Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert Matrix(QQ, 2, 4, [0] * 8).rank() == 0
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Matrix.from_rows(QQ, [[1, 0], [0, 1]]).kernel_basis() == []
    zero = Matrix(QQ, 1, 2, [0, 0])
    assert len(zero.kernel_basis()) == 2
    (v,) = Matrix.from_rows(QQ, [[1, 1]]).kernel_basis()
    assert v == [Fraction(-1), Fraction(1)]


def _mat_vec(mat, v):
    F = mat.field
    out = []
    for i in range(mat.rows):
        acc = F.zero
        for j in range(mat.cols):
            acc = F.add(acc, F.mul(mat.entries[i * mat.cols + j], v[j]))
        out.append(acc)
    return out


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
    mat = Matrix(F, rows, cols, [F.of(e) for e in ints])
    kernel = mat.kernel_basis()
    assert mat.rank() + len(kernel) == cols
    for v in kernel:
        assert all(F.is_zero(e) for e in _mat_vec(mat, v))


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
    F7 = Field.prime(7)
    rq = Matrix(QQ, rows, cols, [QQ.of(e) for e in ints]).rank()
    rp = Matrix(F7, rows, cols, [F7.of(e) for e in ints]).rank()
    assert rq >= rp


def test_sparse_row_reduce_matches_dense():
    rows_dense = [[1, 2, 0], [2, 4, 0], [0, 1, 1]]
    mat = Matrix.from_rows(QQ, rows_dense)
    sparse = [
        {j: QQ.of(e) for j, e in enumerate(row) if e} for row in rows_dense
    ]
    rank, kernel = row_reduce_sparse(sparse, QQ, want_kernel=True)
    assert rank == mat.rank() == 2
    # the vanishing combination is row1 = 2 * row0
    (combo,) = kernel
    assert combo == {0: Fraction(-2), 1: Fraction(1)}


def test_integer_rows_over_q_give_an_exact_kernel():
    assert QQ.inv(3) == Fraction(1, 3)
    assert QQ.div(1, 3) == Fraction(1, 3)
    rank, kernel = row_reduce_sparse([{0: 2, 1: 1}, {0: 4, 1: 2}], QQ, want_kernel=True)
    assert rank == 1
    assert kernel == [{0: Fraction(-2), 1: Fraction(1)}]
    assert all(type(c) is Fraction for c in kernel[0].values())
