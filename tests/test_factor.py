import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import wallfact
from wallfact import (AlternatingForm, DegenerateRestriction, Factorization,
                      Matrix, PrimeField, QQ, SingularVector, Subspace,
                      diagonal_space, is_minimal, isometry_from_wall,
                      minimal_factorization, moved_space, reflection_length,
                      spinor_norm, split, triangular_basis, wall_form)
from wallfact.factor import bilinear_value, nonsingular_vector
from tests.conftest import random_isometry


def check_triangular(X, rows):
    assert len(rows) == X.rows
    assert Matrix(X.field, rows).rank() == X.rows
    for i, u in enumerate(rows):
        assert bilinear_value(X, u, u)
        for j in range(i + 1, len(rows)):
            assert not bilinear_value(X, u, rows[j])


class TestTriangularBasis:
    def test_diagonal_already_triangular(self):
        X = Matrix.diagonal(QQ, [1, 2])
        rows = triangular_basis(X)
        assert rows == [(1, 0), (0, 1)]

    def test_example_matrix_starts_at_first_vector(self):
        X = Matrix(QQ, [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        # the probe starts at e_1, the only nonzero diagonal entry ...
        from wallfact.factor import nonalternating_witness
        assert nonalternating_witness(X) == (1, 0, 0)
        rows = triangular_basis(X)
        check_triangular(X, rows)
        # ... but no triangular basis can keep e_1 itself: the form is
        # alternating on its right complement, so the repair must kick in
        assert rows[0] != (1, 0, 0)
        assert bilinear_value(X, rows[0], rows[0])

    def test_alternating_rejected(self):
        X = Matrix(QQ, [[0, 1], [-1, 0]])
        with pytest.raises(AlternatingForm):
            triangular_basis(X)

    def test_repair_path(self):
        # diagonal zero everywhere except a non-alternating cross pair
        X = Matrix(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        rows = triangular_basis(X)
        check_triangular(X, rows)

    @pytest.mark.parametrize("p", [3, 5])
    def test_randomized_over_prime_fields(self, p, rng):
        field = PrimeField(p)
        done = 0
        while done < 50:
            X = Matrix(field, [[rng.randint(0, p - 1) for _ in range(4)]
                               for _ in range(4)])
            if not X.det():
                continue
            from wallfact.factor import nonalternating_witness
            if nonalternating_witness(X) is None:
                continue
            rows = triangular_basis(X)
            check_triangular(X, rows)
            done += 1

    def test_randomized_over_rationals(self, rng):
        done = 0
        while done < 50:
            X = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if not X.det():
                continue
            rows = triangular_basis(X)
            check_triangular(X, rows)
            done += 1


class TestSplit:
    def test_full_subspace_gives_identity_cofactor(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        f = random_isometry(space, rng)
        mov = moved_space(f)
        f1, f2 = split(f, mov)
        assert f1 == f and f2.is_identity()

    def test_example_splits_off_reflection_with_alternating_rest(self):
        F3 = PrimeField(3)
        space = diagonal_space(F3, [1, 1, 1, -1, -1])
        basis = [(1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]
        f = isometry_from_wall(space, Matrix(F3, basis),
                               [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        U1 = Subspace(F3, 5, [basis[0]])
        f1, f2 = split(f, U1)
        assert f1 @ f2 == f
        assert moved_space(f1).dim == 1     # a reflection
        wd2 = wall_form(f2)
        assert wd2.is_alternating()
        assert not is_minimal(f2)

    def test_left_split(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(10):
            f = random_isometry(space, rng, reflections=3)
            wd = wall_form(f)
            if wd.dim < 2:
                continue
            U1 = Subspace(QQ, 3, [wd.basis.row(0)])
            if not wd.restrict(U1).det():
                continue
            f1, f2 = split(f, U1, side="left")
            assert f2 @ f1 == f

    def test_commuting_iff_orthogonal(self):
        # two rotation blocks in orthogonal planes commute
        space = diagonal_space(QQ, [1, 1, 1, 1])
        c, s = Fraction(3, 5), Fraction(4, 5)
        from wallfact import Isometry
        f = Isometry(space, [[c, -s, 0, 0], [s, c, 0, 0],
                             [0, 0, c, s], [0, 0, -s, c]])
        U1 = Subspace(QQ, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        f1, f2 = split(f, U1)
        assert moved_space(f1) == U1
        assert moved_space(f2) == Subspace(QQ, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        assert f1 @ f2 == f2 @ f1 == f

    def test_degenerate_restriction_rejected(self):
        space = diagonal_space(QQ, [1, 1, -1, -1])
        U = Subspace(QQ, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        f = isometry_from_wall(space, U, [[0, 1], [-1, 0]])
        line = Subspace(QQ, 4, [(1, 0, 1, 0)])
        with pytest.raises(DegenerateRestriction):
            split(f, line)


class TestReflectionLength:
    def test_identity_and_reflections(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        assert reflection_length(space.identity_isometry()) == 0
        assert is_minimal(space.identity_isometry())
        r = space.reflection((1, 0, 0))
        assert reflection_length(r) == 1 and is_minimal(r)

    def test_totally_singular_case(self, f3, census_f3_d4):
        space = census_f3_d4.space
        U = Subspace(f3, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        assert space.is_totally_singular(U)
        f = isometry_from_wall(space, U, [[0, 1], [-1, 0]])
        assert reflection_length(f) == 4
        assert not is_minimal(f)
        assert census_f3_d4.length_of(f) == 4

    def test_rotation_length_two(self, f3, census_f3_d2):
        space = census_f3_d2.space
        from wallfact import Isometry
        f = Isometry(space, [[0, -1], [1, 0]])
        assert reflection_length(f) == 2
        assert census_f3_d2.length_of(f) == 2

    def test_totally_singular_mov_iff_unipotency_two(self, census_f3_d4):
        # documented equivalences: Mov(f) totally singular <=> (f - id)^2 = 0
        # <=> Mov(f) inside Fix(f)
        census = census_f3_d4
        space = census.space
        zero = Matrix.zeros(space.field, 4, 4)
        for f in census.elements:
            if f.is_identity():
                continue
            D = Matrix.identity(space.field, 4) - f.matrix
            unipotent = (D @ D) == zero
            mov = moved_space(f)
            from wallfact import fixed_space
            inside_fix = mov.is_contained_in(fixed_space(f))
            assert space.is_totally_singular(mov) == unipotent == inside_fix


class TestMinimalFactorization:
    def test_identity_empty(self):
        space = diagonal_space(QQ, [1, 1])
        assert len(minimal_factorization(space.identity_isometry())) == 0

    def test_reflection(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        v = (1, 2, 0)
        fact = minimal_factorization(space.reflection(v))
        assert len(fact) == 1
        assert space.reflection(fact.vectors[0]) == space.reflection(v)

    def test_rotation_over_f3(self, f3):
        space = diagonal_space(f3, [1, 1])
        from wallfact import Isometry
        f = Isometry(space, [[0, -1], [1, 0]])
        fact = minimal_factorization(f)
        assert len(fact) == 2
        assert fact.product() == f

    def test_totally_singular_factors_with_two_extra(self, f3):
        space = diagonal_space(f3, [1, 1, -1, -1])
        U = Subspace(f3, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        f = isometry_from_wall(space, U, [[0, 1], [-1, 0]])
        fact = minimal_factorization(f)
        assert len(fact) == 4
        assert fact.product() == f

    def test_random_products_over_rationals(self, rng):
        space = diagonal_space(QQ, [1, 1, -1, 2])
        for _ in range(25):
            f = random_isometry(space, rng)
            fact = minimal_factorization(f)
            assert fact.product() == f
            assert len(fact) == reflection_length(f)
            assert (len(fact) - moved_space(f).dim) % 2 == 0

    def test_direct_factorization_multiplies_spinor_norms(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(15):
            f = random_isometry(space, rng)
            if not is_minimal(f) or f.is_identity():
                continue
            fact = minimal_factorization(f)
            prod = spinor_norm(space.reflection(fact.vectors[0]))
            for v in fact.vectors[1:]:
                prod = prod * spinor_norm(space.reflection(v))
            assert prod == spinor_norm(f)

    def test_census_lengths_match(self, census_f3_d3, rng):
        elements = census_f3_d3.elements
        for f in rng.sample(list(elements), 20):
            fact = minimal_factorization(f)
            assert len(fact) == census_f3_d3.length_of(f)
            assert fact.product() == f


class TestFactorizationCertificate:
    def test_certificate_mismatch_raises(self):
        space = diagonal_space(QQ, [1, 1])
        with pytest.raises(ValueError):
            Factorization(space, [(1, 0)], target=space.identity_isometry())

    def test_singular_vector_rejected(self):
        space = diagonal_space(QQ, [1, -1])
        with pytest.raises(SingularVector):
            Factorization(space, [(1, 1)])

    def test_nonsingular_vector_helper(self):
        space = diagonal_space(QQ, [1, -1])
        v = nonsingular_vector(space)
        assert space.q_value(v)
        # a space where all basis vectors are singular
        split_form = Matrix(QQ, [[0, 1], [1, 0]])
        from wallfact import QuadraticSpace
        space2 = QuadraticSpace(QQ, split_form)
        v2 = nonsingular_vector(space2)
        assert space2.q_value(v2)


OPTIMIZED_CERTIFICATES = r"""
# runs under python -O, which strips assert statements: checks here raise
from wallfact import QQ, diagonal_space, positive_factorization, split
from wallfact import factor, hyperbolic, linalg, positive, quadspace, wall
from wallfact.factor import CertificateError, Factorization

if __debug__:
    raise SystemExit("run under python -O")


def expect_certificate_error(label, fn):
    try:
        fn()
    except CertificateError:
        return
    raise SystemExit("%s: no CertificateError" % label)


space = diagonal_space(QQ, [1, 1, -1])
f = space.reflection((1, 0, 0)) @ space.reflection((0, 1, 2)) @ space.reflection((1, 1, 0))

# split: both factors come back as the identity, so they cannot recombine to f
real_from_wall = factor.isometry_from_wall
factor.isometry_from_wall = lambda space, U, chi: quadspace.Isometry.identity(space)
expect_certificate_error("split", lambda: split(f, wall.moved_space(f)))
factor.isometry_from_wall = real_from_wall

# wall_form: no witness found for the moved-space basis
real_solve_all = wall.solve_all
wall.solve_all = lambda A, vectors: None
expect_certificate_error("wall_form", lambda: wall.wall_form(f))
wall.solve_all = real_solve_all

# positive_factorization: the positivity check of the result fails
negdef = diagonal_space(QQ, [1, 1, -1, -1])
g = quadspace.Isometry(negdef, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
real_is_positive = Factorization.is_positive
Factorization.is_positive = lambda self: False
expect_certificate_error("positive_factorization", lambda: positive_factorization(g))

# hyperbolic_positive_factorization: the same end check, on a Lorentz boost
lorentz = hyperbolic.lorentz_space(3)
boost = hyperbolic.hyperbolic_example(lorentz)
expect_certificate_error("hyperbolic_positive_factorization",
                         lambda: hyperbolic.hyperbolic_positive_factorization(boost))
Factorization.is_positive = real_is_positive

# parabolic_interval_description: the polar hyperplane of the displacement
# witness is the whole space, so it does not cut the right complement out of Mov(f)
parabolic = hyperbolic.parabolic_example(lorentz)
real_kernel_of_rows = hyperbolic._kernel_of_rows
hyperbolic._kernel_of_rows = lambda space, rows: linalg.Subspace.full(QQ, space.dim)
expect_certificate_error("parabolic_interval_description",
                         lambda: hyperbolic.parabolic_interval_description(parabolic))
hyperbolic._kernel_of_rows = real_kernel_of_rows

# hyperbolic_positive_factorization: the moved space misses x_{n+1} = 0
hyperbolic.subspace_intersection = lambda U, W: linalg.Subspace(QQ, U.ambient_dim)
expect_certificate_error("hyperbolic_positive_factorization loop",
                         lambda: hyperbolic.hyperbolic_positive_factorization(boost))


# _positive_basis_rec: every restriction reports the opposite determinant sign,
# so the complement of the first probe fails the det > 0 check
class FlippedDet(linalg.Matrix):
    __slots__ = ()

    def det(self):
        return -linalg.Matrix.det(self)


real_restrict = positive.restrict_bilinear
positive.restrict_bilinear = lambda X, rows: FlippedDet._of(
    QQ, real_restrict(X, rows).entries, len(rows))
chi = linalg.Matrix(QQ, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
expect_certificate_error("_positive_basis_rec", lambda: positive.positive_basis(chi))
positive.restrict_bilinear = real_restrict
print("ok")
"""


def test_certificates_run_under_optimized_python(tmp_path):
    script = tmp_path / "certificates.py"
    script.write_text(OPTIMIZED_CERTIFICATES)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wallfact.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
