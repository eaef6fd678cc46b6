import operator
import random
from fractions import Fraction

import pytest

from wallfact import (DimensionMismatch, Fp, Matrix, NonSquare, PrimeField, QQ,
                      Subspace, TooLarge, diagonal_space, enumerate_subspaces, image,
                      kernel, solve, subspace_intersection, subspace_sum, wall_form)
from wallfact import linalg
from wallfact.linalg import (bilinear_value, combine, contains, count_subspaces,
                             gaussian_binomial)


def random_matrix(field, rng, rows, cols, bound=4):
    return Matrix(field, [[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def random_invertible(field, rng, n):
    while True:
        M = random_matrix(field, rng, n, n)
        if M.det():
            return M


def random_scalar(field, rng, bits):
    """A rational with numerator and denominator of up to ``bits`` bits, some
    zeros; over F_p a residue given as an int."""
    if rng.random() < 0.2:
        return 0
    if field is QQ:
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
    return rng.randrange(field.p)


def explicit_double_sum(X, u, v):
    field = X.field
    acc = field.zero
    for i in range(X.rows):
        for j in range(X.cols):
            acc = acc + field(u[i]) * X[i, j] * field(v[j])
    return acc


def explicit_row_loop(field, coords, rows, ncols):
    out = []
    for c in coords:
        vec = [field.zero] * ncols
        for a, row in zip(c, rows):
            vec = [x + field(a) * field(y) for x, y in zip(vec, row)]
        out.append(tuple(vec))
    return tuple(out)


class TestCoordinateLayer:
    """bilinear_value and combine against the explicit sums they replace."""

    FIELDS = (QQ, PrimeField(3), PrimeField(5))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_bilinear_value(self, field):
        rng = random.Random(1401)
        for m in range(0, 7):
            for bits in (1, 8, 200):
                X = Matrix(field, [[random_scalar(field, rng, bits) for _ in range(m)]
                                   for _ in range(m)], cols=m)
                u = [random_scalar(field, rng, bits) for _ in range(m)]
                v = [random_scalar(field, rng, bits) for _ in range(m)]
                expected = explicit_double_sum(X, u, v)
                for uu, vv in ((u, v), (tuple(map(field, u)), tuple(map(field, v)))):
                    got = bilinear_value(X, uu, vv)
                    assert got == expected
                    assert isinstance(got, Fraction if field is QQ else Fp)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_bilinear_value_of_empty_form(self, field):
        X = Matrix(field, [], cols=0)
        zero = bilinear_value(X, (), ())
        assert zero == field.zero and isinstance(zero, Fraction if field is QQ else Fp)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_combine(self, field):
        rng = random.Random(1402)
        for k in range(0, 5):
            for ncols in range(1, 6):
                for bits in (1, 8, 200):
                    rows = [tuple(field(random_scalar(field, rng, bits)) for _ in range(ncols))
                            for _ in range(k)]
                    coords = [[random_scalar(field, rng, bits) for _ in range(k)]
                              for _ in range(rng.randint(0, 4))]
                    got = combine(field, coords, rows, ncols)
                    assert got == explicit_row_loop(field, coords, rows, ncols)
                    assert all(isinstance(x, Fraction if field is QQ else Fp)
                               for row in got for x in row)

    def test_combine_empty(self, f3):
        assert combine(QQ, [], [(1, 2)], 2) == ()
        assert combine(f3, [], [], 3) == ()
        assert combine(f3, [()], [], 3) == ((f3.zero,) * 3,)

    def test_combine_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            combine(QQ, [(1, 2, 3)], [(1, 0), (0, 1)], 2)

    def test_wall_form_keeps_its_moved_space(self):
        space = diagonal_space(QQ, [1, 1, -1])
        f = space.reflection((1, 0, 0)) @ space.reflection((1, 1, 1))
        wd = wall_form(f)
        assert wd.subspace is wd.subspace
        assert wd.basis == wd.subspace.basis_matrix()


class TestSolve:
    def test_identity(self):
        A = Matrix.identity(QQ, 3)
        assert solve(A, (1, 2, 3)) == (1, 2, 3)

    def test_inconsistent(self):
        A = Matrix.zeros(QQ, 2, 2)
        assert solve(A, (1, 0)) is None

    def test_homogeneous_f3(self, f3):
        A = Matrix(f3, [[1, 2], [2, 1]])
        assert solve(A, (0, 0)) == (f3.zero, f3.zero)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(Matrix.identity(QQ, 2), (1, 2, 3))

    @pytest.mark.parametrize("fieldname", ["rational", "f3", "f5"])
    def test_random_consistent_systems(self, fieldname, rng):
        field = {"rational": QQ, "f3": PrimeField(3), "f5": PrimeField(5)}[fieldname]
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = random_matrix(field, rng, rows, cols)
            x0 = tuple(field(rng.randint(-3, 3)) for _ in range(cols))
            b = A.apply(x0)
            x = solve(A, b)
            assert x is not None and A.apply(x) == b


class TestRankKernelImage:
    def test_kernel_of_zero_map(self):
        A = Matrix.identity(QQ, 3) - Matrix.identity(QQ, 3)
        assert kernel(A) == Subspace.full(QQ, 3)

    def test_rank_of_example_matrix(self):
        # the 3x3 block [[1,0,0],[0,0,1],[0,-1,0]] is nonsingular
        A = Matrix(QQ, [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        assert A.rank() == 3
        assert A.det() == 1

    def test_det_f5(self, f5):
        assert Matrix.diagonal(f5, [2, 3]).det() == 1

    def test_det_nonsquare(self):
        with pytest.raises(NonSquare):
            Matrix.zeros(QQ, 2, 3).det()

    def test_rank_nullity(self, rng):
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = random_matrix(QQ, rng, rows, cols)
            assert A.rank() + kernel(A).dim == cols

    def test_image_dimension_is_rank(self, rng):
        for _ in range(20):
            A = random_matrix(PrimeField(5), rng, rng.randint(1, 4), rng.randint(1, 4))
            assert image(A).dim == A.rank()

    def test_det_multiplicative(self, rng):
        for _ in range(20):
            A = random_matrix(QQ, rng, 3, 3)
            B = random_matrix(QQ, rng, 3, 3)
            assert (A @ B).det() == A.det() * B.det()

    def test_inverse(self, rng):
        for _ in range(20):
            A = random_invertible(QQ, rng, 3)
            assert A @ A.inverse() == Matrix.identity(QQ, 3)


class TestMixedFields:
    """Operands over different fields raise, as their scalars would."""

    @pytest.mark.parametrize("op", [operator.matmul, operator.add, operator.sub])
    def test_f3_against_f5(self, op, f3, f5):
        A = Matrix(f3, [[1, 2], [0, 1]])
        B = Matrix(f5, [[1, 2], [0, 1]])
        with pytest.raises(ValueError):
            op(A, B)
        with pytest.raises(ValueError):
            op(B, A)

    @pytest.mark.parametrize("op", [operator.matmul, operator.add, operator.sub])
    def test_rational_against_f3(self, op, f3):
        A = Matrix(QQ, [[1, 2], [0, 1]])
        B = Matrix(f3, [[1, 2], [0, 1]])
        with pytest.raises(TypeError):
            op(A, B)
        with pytest.raises(TypeError):
            op(B, A)

    def test_solve_with_f5_right_hand_side(self, f3, f5):
        A = Matrix(f3, [[1, 2], [0, 1]])
        with pytest.raises(ValueError):
            solve(A, (f5(1), f5(3)))

    def test_f3_results_stay_in_f3(self, f3):
        A = Matrix(f3, [[1, 2], [2, 2]])
        for M in (A @ A, A + A, A - A, A.inverse(), A.rref()[0], A.transpose()):
            assert M.field == f3
            assert all(x.p == 3 for row in M.entries for x in row)
        assert A.det().p == 3


class TestSubspaces:
    def test_sum_with_zero(self):
        U = Subspace(QQ, 3, [(1, 0, 0)])
        assert subspace_sum(U, Subspace.zero(QQ, 3)) == U

    def test_intersection_with_self(self):
        U = Subspace(QQ, 3, [(1, 2, 0), (0, 0, 1)])
        assert subspace_intersection(U, U) == U

    def test_contains_basis_vector(self):
        U = Subspace(QQ, 3, [(1, 2, 0), (0, 0, 1)])
        assert contains(U, (1, 2, 0))
        assert not contains(U, (1, 0, 0))

    def test_canonical_under_basis_change(self, rng):
        field = PrimeField(5)
        for _ in range(25):
            dim = rng.randint(1, 3)
            rows = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(dim)]
            U = Subspace(field, 4, rows)
            # scramble by taking random combinations that keep the span
            T = random_invertible(field, rng, U.dim)
            scrambled = (T @ U.basis_matrix()).entries
            assert Subspace(field, 4, scrambled) == U

    def test_dimension_formula(self, rng):
        field = PrimeField(3)
        for _ in range(30):
            U = Subspace(field, 4, [tuple(rng.randint(0, 2) for _ in range(4))
                                    for _ in range(rng.randint(0, 3))])
            W = Subspace(field, 4, [tuple(rng.randint(0, 2) for _ in range(4))
                                    for _ in range(rng.randint(0, 3))])
            s = subspace_sum(U, W)
            i = subspace_intersection(U, W)
            assert s.dim + i.dim == U.dim + W.dim
            assert i.is_contained_in(U) and i.is_contained_in(W)
            assert U.is_contained_in(s) and W.is_contained_in(s)

    def test_sum_intersection_basis_independent(self, rng):
        field = PrimeField(3)
        for _ in range(15):
            U = Subspace(field, 4, [tuple(rng.randint(0, 2) for _ in range(4))
                                    for _ in range(2)])
            W = Subspace(field, 4, [tuple(rng.randint(0, 2) for _ in range(4))
                                    for _ in range(2)])
            if U.dim == 0 or W.dim == 0:
                continue
            TU = random_invertible(field, rng, U.dim)
            TW = random_invertible(field, rng, W.dim)
            U2 = Subspace(field, 4, (TU @ U.basis_matrix()).entries)
            W2 = Subspace(field, 4, (TW @ W.basis_matrix()).entries)
            assert subspace_sum(U, W) == subspace_sum(U2, W2)
            assert subspace_intersection(U, W) == subspace_intersection(U2, W2)

    def test_coordinates_roundtrip(self, rng):
        U = Subspace(QQ, 4, [(1, 0, 2, 0), (0, 1, -1, 3)])
        for _ in range(10):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            v = tuple(a * x + b * y for x, y in zip(*U.basis))
            assert U.coordinates_of(v) == (Fraction(a), Fraction(b))


class TestEnumerateSubspaces:
    def test_line_over_f3(self, f3):
        U = Subspace(f3, 3, [(1, 0, 0)])
        subs = list(enumerate_subspaces(U))
        assert len(subs) == 2
        assert subs[0].dim == 0 and subs[1] == U

    def test_counts_over_f3(self, f3):
        full2 = Subspace.full(f3, 2)
        assert len(list(enumerate_subspaces(full2))) == 6
        full3 = Subspace.full(f3, 3)
        assert len(list(enumerate_subspaces(full3))) == 28

    def test_gaussian_binomials(self):
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(3, 1, 3) == 13
        assert gaussian_binomial(3, 2, 3) == 13

    def test_counts_match_independent_formula(self, f5):
        # number of k-dim subspaces of F_q^d by counting ordered bases
        def by_counting(d, k, q):
            num = den = 1
            for i in range(k):
                num *= q ** d - q ** i
                den *= q ** k - q ** i
            return num // den

        full = Subspace.full(f5, 3)
        subs = list(enumerate_subspaces(full))
        for k in range(4):
            expected = by_counting(3, k, 5)
            assert sum(1 for U in subs if U.dim == k) == expected
        assert len(subs) == count_subspaces(3, 5)

    def test_no_duplicates_and_all_inside(self, f3):
        amb = Subspace(f3, 4, [(1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 0)])
        seen = set()
        for U in enumerate_subspaces(amb):
            assert U not in seen
            seen.add(U)
            assert U.is_contained_in(amb)
        assert len(seen) == count_subspaces(3, 3)

    def test_cap(self, f3):
        with pytest.raises(TooLarge):
            list(enumerate_subspaces(Subspace.full(f3, 3), cap=5))

    def test_rationals_rejected(self):
        with pytest.raises(TypeError):
            list(enumerate_subspaces(Subspace.full(QQ, 2)))


class TestApplyWithoutColumns:
    """An m x 0 matrix maps the empty vector to m zeros."""

    @pytest.mark.parametrize("field", (QQ, PrimeField(3), PrimeField(5)), ids=str)
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_zero_columns(self, field, m):
        for M in (Matrix.zeros(field, m, 0), Matrix(field, [()] * m, cols=0)):
            image = M.apply(())
            assert image == (field.zero,) * m
            assert all(isinstance(x, Fraction if field is QQ else Fp) for x in image)
            with pytest.raises(DimensionMismatch):
                M.apply((1,))


F_P = (PrimeField(3), PrimeField(5), PrimeField(7))


def eager_fp_product(M, N):
    field = M.field
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), field.zero)
                       for col in zip(*N.entries)) for row in M.entries)


class TestLazyResidueForm:
    """Over F_p a Matrix keeps its residue rows; results box their Fp
    entries, the field's shared residue objects, only when read."""

    @staticmethod
    def results(field, rng):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        M, N = random_matrix(field, rng, r, c), random_matrix(field, rng, r, c)
        P = random_matrix(field, rng, c, rng.randint(1, 4))
        a = field(rng.randint(-9, 9))
        zipped = list(zip(M.entries, N.entries))
        return [
            (M @ P, eager_fp_product(M, P)),
            (M + N, tuple(tuple(x + y for x, y in zip(*z)) for z in zipped)),
            (M - N, tuple(tuple(x - y for x, y in zip(*z)) for z in zipped)),
            (-M, tuple(tuple(-x for x in row) for row in M.entries)),
            (M.scale(a), tuple(tuple(a * x for x in row) for row in M.entries)),
            (M.transpose(), tuple(zip(*M.entries))),
        ]

    @pytest.mark.parametrize("field", F_P, ids=str)
    def test_results_are_boxed_when_read(self, field):
        rng = random.Random(2700 + field.p)
        for _ in range(30):
            for R, eager in self.results(field, rng):
                assert R._entries is None
                assert R._int_form() == ([[x.value for x in row] for row in eager], 1)
                assert R.entries == eager
                assert all(x is field.residues[x.value] for row in R.entries for x in row)
                assert R.entries is R.entries

    @pytest.mark.parametrize("field", F_P, ids=str)
    def test_residue_form_is_built_once(self, field, monkeypatch):
        calls = []
        real = linalg._kernel_form

        def counted(f, rows):
            calls.append(f)
            return real(f, rows)

        monkeypatch.setattr(linalg, "_kernel_form", counted)
        rng = random.Random(2710 + field.p)
        M = Matrix(field, random_invertible(field, rng, 4).entries)
        u, v = [rng.randint(0, 6) for _ in range(4)], [rng.randint(0, 6) for _ in range(4)]
        calls.clear()
        P = M @ M
        P.entries
        results = [P @ M, M + P, M - M, -M, M.scale(3), M.transpose() @ M, M.det(), M.rank(),
                   M.rref(), M.inverse(), kernel(M), image(M), M.is_symmetric(), M.is_zero(),
                   M == P, M.apply(v), bilinear_value(M, u, v),
                   linalg.preserves_form(M, P), linalg.reflection_product(P + P.transpose(), [])]
        assert results and calls == [field]


def reference_rref(field, vectors):
    """The reduced row echelon rows of the span of vectors, by plain
    elimination on Fraction or Fp entries."""
    rows = [[field(x) for x in v] for v in vectors]
    out = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((row for row in rows if row[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]
        rows = [[x - row[c] * y for x, y in zip(row, pivot)] for row in rows]
        out = [[x - row[c] * y for x, y in zip(row, pivot)] for row in out] + [pivot]
    return tuple(tuple(row) for row in out)


def spanning_sets(field, rng, n):
    """A seeded spanning set, and the same span given by random combinations
    of it and by rescaled, reordered copies of its vectors."""
    bound = 9 if field is QQ else field.p - 1
    vectors = [tuple(random_scalar(field, rng, 6) if field is QQ else rng.randint(0, bound)
                     for _ in range(n)) for _ in range(rng.randint(0, n))]
    mixed = [tuple(sum((field(a) * field(x) for a, x in zip(coeffs, col)), field.zero)
                   for col in zip(*vectors))
             for coeffs in [[rng.randint(-3, 3) for _ in vectors] for _ in vectors]]
    scales = [field(rng.randint(1, field.p - 1)) if field is not QQ
              else Fraction(rng.choice((1, -2, 3, 7)), rng.choice((1, 5, 12))) for _ in vectors]
    rescaled = [tuple(s * field(x) for x in v) for s, v in zip(scales, vectors)][::-1]
    return vectors, mixed, rescaled


class TestSubspaceForm:
    """A Subspace is its echelon basis matrix: equality and hashing read it,
    and agree with plain elimination on field elements."""

    FIELDS = (QQ, PrimeField(3), PrimeField(5))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_equality_and_hash_match_the_field_rows(self, field):
        rng = random.Random(2720 + field.characteristic)
        seen = []
        for _ in range(60):
            n = rng.randint(1, 5)
            vectors, mixed, rescaled = spanning_sets(field, rng, n)
            U, R = Subspace(field, n, vectors), Subspace(field, n, rescaled)
            ref = reference_rref(field, vectors)
            assert U.basis == ref
            assert hash(U) == hash((field, n, ref))
            assert R == U and hash(R) == hash(U)
            assert reference_rref(field, rescaled) == ref
            M = Subspace(field, n, mixed)
            assert (M == U) == (reference_rref(field, mixed) == ref)
            assert subspace_sum(U, M) == Subspace(field, n, vectors + mixed)
            seen.append((U, ref))
        for U, ref in seen:
            for W, other in seen:
                assert (U == W) == (U.ambient_dim == W.ambient_dim and ref == other)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_basis_and_matrix_are_kept(self, field):
        rng = random.Random(2730 + field.characteristic)
        for _ in range(20):
            n = rng.randint(1, 4)
            U = Subspace(field, n, spanning_sets(field, rng, n)[0])
            assert U.basis_matrix() is U.basis_matrix()
            assert U.basis_matrix()._entries is None        # boxed on first read
            assert U.basis is U.basis
            assert U.basis_matrix().entries is U.basis
            assert U.dim == len(U.basis) == U.basis_matrix().rows
            assert U.basis_matrix().cols == n

    def test_zero_subspaces_of_different_ambient_dimensions_differ(self, f3):
        assert Subspace.zero(f3, 2) != Subspace.zero(f3, 3)
        assert Subspace.zero(QQ, 2) != Subspace.zero(QQ, 3)
        assert Matrix.zeros(QQ, 0, 2) != Matrix.zeros(QQ, 0, 3)


# ---------------------------------------------------------------------------
# the forward kernel: rank, column bases and determinants from one elimination

def reference_det_int(rows):
    """Bareiss determinant of a square integer matrix, stopping at the first
    column without a pivot: the reference for ``_det`` over Q."""
    work = [list(row) for row in rows]
    n = len(work)
    sign = prev = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        p = work[c][c]
        ptail = work[c][c + 1:]
        for i in range(c + 1, n):
            row = work[i]
            t = row[c]
            row[c + 1:] = [(p * x - t * y) // prev for x, y in zip(row[c + 1:], ptail)]
        prev = p
    return sign * prev


def reference_det_mod(rows, p):
    """Determinant mod p by elimination with inverses, stopping at the first
    column without a pivot: the reference for ``_det`` over F_p."""
    work = [list(row) for row in rows]
    n = len(work)
    det = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            det = -det
        pivot = work[c][c]
        det = det * pivot % p
        inv = pow(pivot, p - 2, p)
        tail = work[c][c:]
        for i in range(c + 1, n):
            if work[i][c]:
                t = work[i][c] * inv % p
                work[i][c:] = [(x - t * y) % p for x, y in zip(work[i][c:], tail)]
    return det


def kernel_matrices(field, rng):
    """Seeded matrices up to 9 x 12: zero, full rank, and rank-deficient ones
    made as products of thin factors (rows x k times k x cols, k small)."""
    out = []
    for rows in range(1, 10):
        for cols in range(1, 13):
            out.append(Matrix.zeros(field, rows, cols))
            out.append(random_matrix(field, rng, rows, cols, bound=9))
            k = rng.randint(1, max(1, min(rows, cols) - 1))
            out.append(random_matrix(field, rng, rows, k) @ random_matrix(field, rng, k, cols))
    for n in range(1, 10):
        out.append(random_invertible(field, rng, n))
        k = rng.randint(1, n)
        out.append(random_matrix(field, rng, n, k) @ random_matrix(field, rng, k, n))
    return out


class TestForwardKernel:
    FIELDS = (QQ, PrimeField(3), PrimeField(5), PrimeField(7))

    @pytest.fixture(params=FIELDS, ids=str)
    def matrices(self, request):
        field = request.param
        return field, kernel_matrices(field, random.Random(4409 + getattr(field, "p", 0)))

    def test_column_basis_against_the_image(self, matrices):
        field, Ms = matrices
        deficient = 0
        for A in Ms:
            J, P, minor = linalg.column_basis(A)
            img = image(A)
            assert len(J) == len(set(J)) == img.dim == A.rank() == len(A.rref()[1])
            assert tuple(P) == img.basis_matrix().rref()[1] == A.transpose().rref()[1]
            cols = A.submatrix(range(A.rows), J)
            assert cols.rank() == len(J) and image(cols) == img
            block = A.submatrix(P, J)
            assert minor in (block.det(), -block.det()) and block.det()
            deficient += 0 < len(J) < min(A.rows, A.cols)
        assert deficient >= 40

    def test_det_against_the_reference_kernels(self, matrices):
        field, Ms = matrices
        singular = 0
        for A in Ms:
            if A.rows != A.cols:
                continue
            rows, d = A._int_form()
            if field is QQ:
                expected = reference_det_int(rows)
                assert linalg._det(field, rows) == expected
                assert A.det() == Fraction(expected, d ** A.rows)
            else:
                expected = reference_det_mod(rows, field.p)
                assert linalg._det(field, rows) % field.p == expected
                assert A.det() == field(expected)
            singular += not expected
        assert singular >= 9

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_pivot_rows_and_columns(self, field):
        rows = [[0, 0, 0, 0], [0, 2, 1, 1], [0, 4, 2, 2], [1, 0, 0, 1], [0, 0, 0, 3]]
        copy = [row[:] for row in rows]
        J, P, minor = linalg._forward(field, rows, 4)
        assert rows == copy
        # column 0 is taken from row 3, column 1 from row 1; row 2 is twice row 1
        assert (J, P) == ([3, 1, 4], [0, 1, 3])
        block = Matrix(field, [[rows[i][j] for j in P] for i in J])
        assert field(minor) in (block.det(), -block.det())

    def test_empty_and_zero(self, f5):
        for field in (QQ, f5):
            assert linalg._forward(field, [], 4) == ([], [], 1)
            assert linalg._forward(field, [[0, 0], [0, 0]], 2) == ([], [], 1)
            assert linalg._det(field, []) == 1
        assert Matrix.zeros(QQ, 3, 0).rank() == Matrix.zeros(QQ, 0, 3).rank() == 0
        assert linalg.column_basis(Matrix.zeros(QQ, 2, 3)) == ([], [], 1)


def rank_r_residues(rng, p, n, r):
    """An n x n residue matrix of rank at most r: a sum of r outer products."""
    M = [[0] * n for _ in range(n)]
    for _ in range(r):
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        M = [[(x + a * b) % p for x, b in zip(row, v)] for row, a in zip(M, u)]
    return M


class TestRankOneMod:
    """linalg._rank_one_mod against Matrix.rank() == 1 on A - B."""

    @staticmethod
    def by_rank(p, A, B):
        field = PrimeField(p)
        return (Matrix(field, A) - Matrix(field, B)).rank() == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_seeded_pairs(self, p):
        rng = random.Random(3000 + p)
        seen = set()
        for n in range(1, 7):
            for _ in range(60):
                A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                D = rank_r_residues(rng, p, n, rng.choice([0, 1, 1, 2, 3]))
                B = [[(x - y) % p for x, y in zip(a, d)] for a, d in zip(A, D)]
                expected = self.by_rank(p, A, B)
                assert linalg._rank_one_mod(p, A, B) == expected, (A, B)
                seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_special_cases(self, p):
        rng = random.Random(4000 + p)
        for n in range(1, 7):
            A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            # equal matrices: rank 0
            assert not linalg._rank_one_mod(p, A, [row[:] for row in A])
            assert not self.by_rank(p, A, A)
            # rank one, with the first rows of the difference zero
            u = [0] * (n - 1) + [1 + rng.randrange(p - 1)]
            v = [0] * rng.randrange(n) + [1 + rng.randrange(p - 1)]
            v += [rng.randrange(p) for _ in range(n - len(v))]
            B = [[(x - a * b) % p for x, b in zip(row, v)] for row, a in zip(A, u)]
            assert linalg._rank_one_mod(p, A, B) and self.by_rank(p, A, B)
            if n < 3:
                continue
            # rank two, with the first two nonzero rows of the difference
            # proportional: only a later row breaks the rank
            w = [0] * n
            w[(v.index(next(x for x in v if x)) + 1) % n] = 1
            D = [[0] * n] * (n - 3) + [v, [2 * x % p for x in v], w]
            B = [[(x - y) % p for x, y in zip(a, d)] for a, d in zip(A, D)]
            assert not linalg._rank_one_mod(p, A, B)
            assert not self.by_rank(p, A, B)
