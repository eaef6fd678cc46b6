"""Differential test of the exact kernels against sympy's DomainMatrix.

sympy is a test-time cross-check only; the library never imports it.
Seeded random matrices over Q, F_3, F_5 and F_7, square and not, of full
and of deficient rank, go through both implementations and must agree
entry for entry on products, matrix-vector products, reduced row echelon
forms with their pivots, ranks, determinants, inverses, solutions of
linear systems and null spaces.  Over Q the samples also include tall
ones: up to 10x10, with numerators and denominators of 60-200 bits, where
some rows share one denominator and others have unrelated ones.  Every
entry of a result must have the field's element type: over Q an int would
compare equal to the right Fraction and slip past the value checks.
"""

import random
from fractions import Fraction

import pytest

from wallfact import Fp, Matrix, PrimeField, QQ, kernel, solve

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(7)]
SAMPLES = 40
TALL_SAMPLES = 12


def sympy_domain(field):
    return sympy.QQ if field == QQ else sympy.GF(field.p)


def to_sympy_rows(field, rows, shape):
    K = sympy_domain(field)
    if field == QQ:
        rows = [[K(x.numerator, x.denominator) for x in row] for row in rows]
    else:
        rows = [[K(x.value) for x in row] for row in rows]
    return DomainMatrix(rows, shape, K)


def to_sympy(M):
    return to_sympy_rows(M.field, M.entries, (M.rows, M.cols))


def column(field, v):
    return to_sympy_rows(field, [[x] for x in v], (len(v), 1))


def from_sympy(field, x):
    if field == QQ:
        return Fraction(int(x.numerator), int(x.denominator))
    return field(int(x))  # sympy's GF(p) elements are symmetric residues


def rows_from_sympy(field, rows):
    return tuple(tuple(from_sympy(field, x) for x in row) for row in rows)


def assert_field_type(field, rows):
    kind = Fraction if field == QQ else Fp
    assert all(type(x) is kind for row in rows for x in row)


def random_scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randrange(field.p)


def tall_int(rng):
    return rng.getrandbits(rng.randint(60, 200)) | 1


def tall_row(rng, cols):
    """Rationals of 60-200 bits, on one shared denominator or on unrelated ones."""
    shared = tall_int(rng) if rng.random() < 0.5 else None
    return [Fraction(rng.choice((-1, 1)) * tall_int(rng), shared or tall_int(rng))
            for _ in range(cols)]


def random_matrix(field, rng, rows, cols, tall=False):
    """A random rows x cols matrix; one in three has rank below min(rows, cols)."""
    if tall:
        entries = [tall_row(rng, cols) for _ in range(rows)]
        if rng.random() < 1 / 3 and min(rows, cols) > 1:
            # rows k.. become combinations of the first k rows
            k = rng.randint(1, min(rows, cols) - 1)
            for i in range(k, rows):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                entries[i] = [sum((c * entries[t][j] for t, c in enumerate(coeffs)), Fraction(0))
                              for j in range(cols)]
    elif rng.random() < 1 / 3 and min(rows, cols) > 1:
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[random_scalar(field, rng) for _ in range(k)] for _ in range(rows)]
        right = [[random_scalar(field, rng) for _ in range(cols)] for _ in range(k)]
        entries = [[sum((left[i][t] * right[t][j] for t in range(k)), 0)
                    for j in range(cols)] for i in range(rows)]
    else:
        entries = [[random_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, entries, cols=cols)


def samples(field, seed, square=False):
    """(rng, A, tall): SAMPLES small matrices up to 5x5, then over Q
    TALL_SAMPLES tall ones up to 10x10."""
    rng = random.Random("%r:%d" % (field, seed))
    tall_count = TALL_SAMPLES if field == QQ else 0
    for i in range(SAMPLES + tall_count):
        tall = i >= SAMPLES
        top = 10 if tall else 5
        rows = rng.randint(1, top)
        cols = rows if square else rng.randint(1, top)
        yield rng, random_matrix(field, rng, rows, cols, tall), tall


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products(field):
    for rng, A, tall in samples(field, 1):
        B = random_matrix(field, rng, A.cols, rng.randint(1, 10 if tall else 5), tall)
        expected = to_sympy(A).matmul(to_sympy(B)).to_list()
        product = A @ B
        assert product.entries == rows_from_sympy(field, expected)
        assert_field_type(field, product.entries)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_pivots_and_rank(field):
    deficient = tall_deficient = 0
    for _, A, tall in samples(field, 2):
        R, pivots = A.rref()
        S, spivots = to_sympy(A).rref()
        assert pivots == tuple(spivots)
        # sympy keeps the zero rows at the bottom; the kernels drop them
        assert R.entries == rows_from_sympy(field, S.to_list()[:len(spivots)])
        assert_field_type(field, R.entries)
        assert A.rank() == to_sympy(A).rank() == len(pivots)
        short = A.rank() < min(A.rows, A.cols)
        deficient += short
        tall_deficient += short and tall
    assert deficient > 0
    assert tall_deficient > 0 or field != QQ


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_and_inverse(field):
    singular = tall_singular = 0
    for _, A, tall in samples(field, 3, square=True):
        S = to_sympy(A)
        det = A.det()
        assert det == from_sympy(field, S.det())
        assert_field_type(field, [[det]])
        if det:
            inverse = A.inverse()
            assert inverse.entries == rows_from_sympy(field, S.inv().to_list())
            assert_field_type(field, inverse.entries)
        else:
            singular += 1
            tall_singular += tall
            with pytest.raises(ZeroDivisionError):
                A.inverse()
            with pytest.raises(DMNonInvertibleMatrixError):
                S.inv()
    assert singular > 0
    assert tall_singular > 0 or field != QQ


def random_vector(field, rng, n, tall):
    return tall_row(rng, n) if tall else [field(random_scalar(field, rng)) for _ in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_apply(field):
    for rng, A, tall in samples(field, 4):
        v = random_vector(field, rng, A.cols, tall)
        out = A.apply(v)
        expected = to_sympy(A).matmul(column(field, v)).to_list()
        assert (out,) == tuple(zip(*rows_from_sympy(field, expected)))
        assert_field_type(field, [out])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve(field):
    solvable = unsolvable = 0
    for rng, A, tall in samples(field, 5):
        # a right-hand side in the column space, or a random one
        if rng.random() < 0.5:
            b = A.apply(random_vector(field, rng, A.cols, tall))
        else:
            b = random_vector(field, rng, A.rows, tall)
        S, sb = to_sympy(A), column(field, b)
        x = solve(A, b)
        if S.rank() < S.hstack(sb).rank():
            assert x is None
            unsolvable += 1
            continue
        solvable += 1
        assert_field_type(field, [x])
        assert S.matmul(column(field, x)) == sb
        # the free variables are zero, which makes x the unique such solution
        pivots = set(S.rref()[1])
        assert all(not x[c] for c in range(A.cols) if c not in pivots)
    assert solvable > 0 and unsolvable > 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel(field):
    nontrivial = 0
    for _, A, _ in samples(field, 6):
        K = kernel(A)
        N = to_sympy(A).nullspace()
        assert K.dim == N.shape[0] == A.cols - A.rank()
        if K.dim:
            nontrivial += 1
            R, _ = N.rref()
            assert K.basis == rows_from_sympy(field, R.to_list())
        assert_field_type(field, K.basis)
    assert nontrivial > 0
