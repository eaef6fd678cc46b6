"""Differential test of the exact kernels against sympy's DomainMatrix.

sympy is a test-time cross-check only; the library never imports it.
Seeded random matrices over Q, F_3, F_5 and F_7, square and not, of full
and of deficient rank, go through both implementations and must agree
entry for entry on products, reduced row echelon forms with their pivots,
ranks, determinants and inverses.
"""

import random
from fractions import Fraction

import pytest

from wallfact import Matrix, PrimeField, QQ

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(7)]
SAMPLES = 40


def sympy_domain(field):
    return sympy.QQ if field == QQ else sympy.GF(field.p)


def to_sympy(M):
    K = sympy_domain(M.field)
    if M.field == QQ:
        rows = [[K(x.numerator, x.denominator) for x in row] for row in M.entries]
    else:
        rows = [[K(x.value) for x in row] for row in M.entries]
    return DomainMatrix(rows, (M.rows, M.cols), K)


def from_sympy(field, x):
    if field == QQ:
        return Fraction(int(x.numerator), int(x.denominator))
    return field(int(x))  # sympy's GF(p) elements are symmetric residues


def rows_from_sympy(field, rows):
    return tuple(tuple(from_sympy(field, x) for x in row) for row in rows)


def random_scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randrange(field.p)


def random_matrix(field, rng, rows, cols):
    """A random rows x cols matrix; one in three has rank below min(rows, cols)."""
    if rng.random() < 1 / 3 and min(rows, cols) > 1:
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[random_scalar(field, rng) for _ in range(k)] for _ in range(rows)]
        right = [[random_scalar(field, rng) for _ in range(cols)] for _ in range(k)]
        entries = [[sum((left[i][t] * right[t][j] for t in range(k)), 0)
                    for j in range(cols)] for i in range(rows)]
    else:
        entries = [[random_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, entries, cols=cols)


def samples(field, seed):
    rng = random.Random("%r:%d" % (field, seed))
    for _ in range(SAMPLES):
        yield rng, random_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 5))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products(field):
    for rng, A in samples(field, 1):
        B = random_matrix(field, rng, A.cols, rng.randint(1, 5))
        expected = to_sympy(A).matmul(to_sympy(B)).to_list()
        assert (A @ B).entries == rows_from_sympy(field, expected)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_pivots_and_rank(field):
    deficient = 0
    for _, A in samples(field, 2):
        R, pivots = A.rref()
        S, spivots = to_sympy(A).rref()
        assert pivots == tuple(spivots)
        # sympy keeps the zero rows at the bottom; the kernels drop them
        assert R.entries == rows_from_sympy(field, S.to_list()[:len(spivots)])
        assert A.rank() == to_sympy(A).rank() == len(pivots)
        deficient += A.rank() < min(A.rows, A.cols)
    assert deficient > 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_and_inverse(field):
    singular = 0
    for rng, _ in samples(field, 3):
        n = rng.randint(1, 5)
        A = random_matrix(field, rng, n, n)
        S = to_sympy(A)
        det = A.det()
        assert det == from_sympy(field, S.det())
        if det:
            assert A.inverse().entries == rows_from_sympy(field, S.inv().to_list())
        else:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                A.inverse()
            with pytest.raises(DMNonInvertibleMatrixError):
                S.inv()
    assert singular > 0
