"""The integer form of matrices over Q and the inertia kernel.

Over Q a Matrix keeps (A, d), integer rows over the least common
denominator of its entries, built at most once; products, sums, forms and
inertia run on it, and results box their Fraction entries only when read.
The eager Fraction computations are kept here as references: a product
entry by entry, and inertia counted off ``lagrange_diagonalize``.
"""

import random
from fractions import Fraction
from operator import mul

import pytest

from wallfact import linalg, quadspace
from wallfact.field import QQ, PrimeField
from wallfact.linalg import (Matrix, bilinear_value, image, inertia_counts, kernel,
                             preserves_form)
from wallfact.positive import positive_factorization
from wallfact.quadspace import QuadraticSpace, diagonal_space, lagrange_diagonalize
from tests.conftest import random_positive_isometry

DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 12)


def rational(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.choice(DENOMINATORS))


def random_matrix(rng, rows, cols):
    return Matrix(QQ, [[rational(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)


def eager_product(M, N):
    return tuple(tuple(sum(map(mul, row, col), Fraction(0)) for col in zip(*N.entries))
                 for row in M.entries)


def reference_inertia(S):
    diag, _ = lagrange_diagonalize(S)
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    return pos, neg, len(diag) - pos - neg


# ---------------------------------------------------------------------------
# seeded symmetric matrices over Q, in five shapes

def dense_symmetric(rng, k):
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rational(rng)
    return rows


def singular_symmetric(rng, k):
    """B^T D B with B of rank below k: a congruence image of a smaller form."""
    r = rng.randint(0, max(0, k - 1))
    B = random_matrix(rng, r, k)
    D = Matrix.diagonal(QQ, [rational(rng) or Fraction(1) for _ in range(r)])
    return [list(row) for row in (B.transpose() @ D @ B).entries] if r else \
        [[Fraction(0)] * k for _ in range(k)]


def hyperbolic_blocks(rng, k):
    """A zero diagonal throughout: hyperbolic planes [[0, a], [a, 0]], then
    (sometimes) a dense off-diagonal coupling, still with zero diagonal."""
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(0, k - 1, 2):
        a = rational(rng) or Fraction(1)
        rows[i][i + 1] = rows[i + 1][i] = a
    if rng.random() < 0.5:
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.3:
                    rows[i][j] = rows[j][i] = rational(rng)
    return rows


def mixed_denominators(rng, k):
    """Rows of unrelated denominators, some of them large."""
    dens = [rng.choice((1, 2, 3, 5, 7, 11, 2 ** 20 + 7, 3 ** 13)) for _ in range(k)]
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-10 ** 6, 10 ** 6), dens[i] * dens[j])
    return rows


def congruent_to_diagonal(rng, k):
    """C^T D C with C invertible and D a diagonal with some zeros."""
    while True:
        C = random_matrix(rng, k, k)
        if C.det():
            break
    D = Matrix.diagonal(QQ, [rng.choice((-2, -1, 0, 1, 3)) for _ in range(k)])
    return [list(row) for row in (C.transpose() @ D @ C).entries]


SHAPES = [dense_symmetric, singular_symmetric, hyperbolic_blocks, mixed_denominators,
          congruent_to_diagonal]


def symmetric_samples(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        k = i % 9
        out.append(Matrix(QQ, SHAPES[i % len(SHAPES)](rng, k), cols=k))
    return out


class TestInertiaKernel:
    @pytest.mark.parametrize("seed", [2401, 2402, 2403, 2404])
    def test_matches_lagrange_diagonalization(self, seed):
        for S in symmetric_samples(seed, 550):
            assert inertia_counts(S) == reference_inertia(S), S

    def test_zero_diagonal_needs_the_lagrange_step(self):
        S = Matrix(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, Fraction(-1, 2)],
                        [0, 0, Fraction(-1, 2), 0]])
        assert inertia_counts(S) == (2, 2, 0)
        assert inertia_counts(Matrix(QQ, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])) == (1, 1, 1)

    def test_zero_and_empty_matrices(self):
        assert inertia_counts(Matrix(QQ, [], cols=0)) == (0, 0, 0)
        assert inertia_counts(Matrix.zeros(QQ, 3, 3)) == (0, 0, 3)

    def test_against_sympy_eigenvalue_signs(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        samples = [S for S in symmetric_samples(2405, 60) if 1 <= S.rows <= 5][:15]
        assert len(samples) == 15
        for S in samples:
            M = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                              for row in S.entries])
            roots = sympy.Poly(M.charpoly(x).as_expr(), x).real_roots()
            assert len(roots) == S.rows            # a symmetric matrix: all roots real
            signs = (sum(1 for r in roots if r.is_positive),
                     sum(1 for r in roots if r.is_negative),
                     sum(1 for r in roots if r.is_zero))
            assert inertia_counts(S) == signs, S


class TestLazyEntries:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_product_entries_equal_the_eager_product(self, n):
        rng = random.Random(2410 + n)
        for rows in range(1, n + 1):
            M = random_matrix(rng, rows, n)
            N = random_matrix(rng, n, rng.randint(1, n))
            P = M @ N
            assert P._entries is None           # boxed on first read, not before
            assert P.entries == eager_product(M, N)
            assert all(type(x) is Fraction for row in P.entries for x in row)

    def test_sums_scales_and_transposes_match_entrywise(self):
        rng = random.Random(2420)
        for _ in range(40):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            M, N = random_matrix(rng, r, c), random_matrix(rng, r, c)
            a = rational(rng)
            zipped = list(zip(M.entries, N.entries))
            assert (M + N).entries == tuple(tuple(x + y for x, y in zip(*p)) for p in zipped)
            assert (M - N).entries == tuple(tuple(x - y for x, y in zip(*p)) for p in zipped)
            assert (-M).entries == tuple(tuple(-x for x in row) for row in M.entries)
            assert M.scale(a).entries == tuple(tuple(a * x for x in row) for row in M.entries)
            assert M.transpose().entries == tuple(zip(*M.entries))
            assert (M - M).is_zero() and (M - M) == Matrix.zeros(QQ, r, c)

    def test_integer_form_is_the_least_common_denominator(self):
        rng = random.Random(2430)
        for _ in range(40):
            M, N = random_matrix(rng, 3, 4), random_matrix(rng, 4, 3)
            for R in (M @ N, M + M, M.scale(Fraction(2, 3)), (M @ N).transpose()):
                assert R._int_form() == linalg._int_matrix(R.entries)


class TestIntegerFormBuiltOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"matrix": 0, "row": 0}
        real_matrix, real_row = linalg._int_matrix, linalg._int_row

        def count_matrix(rows):
            calls["matrix"] += 1
            return real_matrix(rows)

        def count_row(row):
            calls["row"] += 1
            return real_row(row)

        monkeypatch.setattr(linalg, "_int_matrix", count_matrix)
        monkeypatch.setattr(linalg, "_int_row", count_row)
        return calls

    def test_every_kernel_reads_the_kept_form(self, calls):
        rng = random.Random(2440)
        M = random_matrix(rng, 4, 4)
        u, v = [rational(rng) for _ in range(4)], [rational(rng) for _ in range(4)]
        P = M @ M
        P.entries
        results = [P @ M, M + P, M - M, -M, M.scale(3), M.transpose() @ M, M.det(), M.rank(),
                   M.rref(), kernel(M), image(M), M.is_symmetric(), M.is_zero(),
                   preserves_form(M, P), M == P, inertia_counts(M + M.transpose())]
        assert results and calls == {"matrix": 1, "row": 0}
        M.apply(v)
        assert calls == {"matrix": 1, "row": 1}     # the vector only
        bilinear_value(M, u, v)
        assert calls == {"matrix": 1, "row": 3}     # the two vectors only
        bilinear_value(M, u, u)
        assert calls == {"matrix": 1, "row": 4}

    def test_space_forms_are_built_once(self, calls):
        space = QuadraticSpace(QQ, [[1, Fraction(1, 2), 0], [Fraction(1, 2), -3, 0], [0, 0, 2]])
        assert calls["matrix"] == 1                  # the Gram matrix, from its entries
        space.q_value((1, 2, 3))
        space.polar((1, 2, 3), (0, 1, 1))
        space.reflection((1, 0, 1))
        space.inertia()
        assert calls["matrix"] == 1


class TestKeptAmbientInertia:
    def test_inertia_of_the_space_is_kept(self):
        space = diagonal_space(QQ, [1, 1, -1, Fraction(1, 3)])
        assert space.inertia() is space.inertia()
        assert space.inertia() == (3, 1, 0)
        assert space.signature() == (3, 1)

    def test_over_f_p_still_unordered(self):
        from wallfact.field import UnorderedField
        with pytest.raises(UnorderedField):
            diagonal_space(PrimeField(5), [1, 2]).inertia()

    def test_positive_factorization_eliminates_the_ambient_form_once(self, monkeypatch):
        space = diagonal_space(QQ, [1, 1, 1, -1, -1])
        grams = []
        real = quadspace.inertia_counts

        def counted(S):
            grams.append(S is space.gram)
            return real(S)

        monkeypatch.setattr(quadspace, "inertia_counts", counted)
        rng = random.Random(2450)
        for _ in range(6):
            f = random_positive_isometry(space, rng, rng.choice([2, 3, 4]))
            fact = positive_factorization(f)
            assert fact.product() == f
        assert grams.count(True) == 1
        assert len(grams) > 6                        # moved-space counts are not kept
