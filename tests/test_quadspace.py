import random
from fractions import Fraction

import pytest

from wallfact import (Definiteness, DegenerateForm, Matrix, PrimeField, QQ,
                      QuadraticSpace, SingularVector, Subspace, UnorderedField,
                      diagonal_space)
from tests.conftest import random_isometry, random_nonsingular_vector


@pytest.fixture
def lorentz3():
    return diagonal_space(QQ, [1, 1, -1])


class TestEvaluation:
    def test_q_values(self, lorentz3):
        plane = diagonal_space(QQ, [1, 1])
        assert plane.q_value((3, 4)) == 25
        assert lorentz3.q_value((0, 0, 1)) == -1

    def test_polar_is_diagonal_free(self, lorentz3):
        assert lorentz3.polar((1, 0, 0), (0, 1, 0)) == 0

    def test_polarization_identity(self, rng):
        space = QuadraticSpace(QQ, [[1, 2, 0], [2, -1, 1], [0, 1, 3]])
        for _ in range(20):
            u = tuple(rng.randint(-4, 4) for _ in range(3))
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            assert space.polar(u, v) == (space.q_value(tuple(a + b for a, b in zip(u, v)))
                                         - space.q_value(u) - space.q_value(v))
            assert space.polar(u, u) == 2 * space.q_value(u)

    def test_scaling(self, lorentz3, rng):
        for _ in range(10):
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            assert lorentz3.q_value(tuple(a * x for x in v)) == a * a * lorentz3.q_value(v)

    def test_symmetrization_preserves_q(self, rng):
        asym = [[1, 5, 0], [1, -1, 2], [0, 0, 3]]
        space = QuadraticSpace(QQ, asym)
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            direct = sum(v[i] * asym[i][j] * v[j] for i in range(3) for j in range(3))
            assert space.q_value(v) == direct

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            QuadraticSpace(QQ, [[1, 0], [0, 0]])


class TestComplements:
    def test_zero_and_full(self, lorentz3):
        assert lorentz3.orthogonal_complement(Subspace.zero(QQ, 3)) == Subspace.full(QQ, 3)
        assert lorentz3.orthogonal_complement(Subspace.full(QQ, 3)) == Subspace.zero(QQ, 3)

    def test_singular_line_inside_own_complement(self, lorentz3):
        line = Subspace(QQ, 3, [(1, 0, 1)])
        comp = lorentz3.orthogonal_complement(line)
        # direct check: every basis vector of comp pairs to zero with (1,0,1)
        for v in comp.basis:
            assert lorentz3.polar((1, 0, 1), v) == 0
        assert comp.dim == 2
        assert line.is_contained_in(comp)

    def test_dimension_and_double_complement(self, rng):
        space = diagonal_space(PrimeField(5), [1, 1, 2, 3])
        for _ in range(20):
            W = Subspace(space.field, 4, [tuple(rng.randint(0, 4) for _ in range(4))
                                          for _ in range(rng.randint(0, 3))])
            comp = space.orthogonal_complement(W)
            assert W.dim + comp.dim == 4
            assert space.orthogonal_complement(comp) == W


class TestTotallySingular:
    def test_examples(self, lorentz3):
        assert lorentz3.is_totally_singular(Subspace.zero(QQ, 3))
        split = diagonal_space(QQ, [1, -1])
        assert split.is_totally_singular(Subspace(QQ, 2, [(1, 1)]))
        plane = diagonal_space(QQ, [1, 1])
        for line in [(1, 0), (1, 1), (2, -3)]:
            assert not plane.is_totally_singular(Subspace(QQ, 2, [line]))


class TestSignature:
    def test_lorentz_signature(self, lorentz3):
        assert lorentz3.signature() == (2, 1)

    def test_degenerate_restriction_counts(self, lorentz3):
        line = Subspace(QQ, 3, [(1, 0, 1)])
        assert lorentz3.inertia(line) == (0, 0, 1)
        assert lorentz3.definiteness(line) == Definiteness.POSITIVE_SEMIDEFINITE

    def test_definiteness_values(self):
        assert diagonal_space(QQ, [1, 1]).definiteness() == Definiteness.POSITIVE_DEFINITE
        assert diagonal_space(QQ, [-1, -2]).definiteness() == Definiteness.NEGATIVE_DEFINITE
        assert diagonal_space(QQ, [1, -1]).definiteness() == Definiteness.INDEFINITE

    def test_unordered_rejected(self, f3):
        with pytest.raises(UnorderedField):
            diagonal_space(f3, [1, 1]).signature()

    def test_invariant_under_congruence(self, rng):
        space = diagonal_space(QQ, [2, 3, -1])
        sig = space.signature()
        for _ in range(15):
            while True:
                P = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
                if P.det():
                    break
            other = QuadraticSpace(QQ, P.transpose() @ space.gram @ P)
            assert other.signature() == sig


class TestReflection:
    def test_axis_reflection(self):
        plane = diagonal_space(QQ, [1, 1])
        r = plane.reflection((1, 0))
        assert r.matrix == Matrix.diagonal(QQ, [-1, 1])

    def test_reflects_its_vector(self, rng):
        space = diagonal_space(QQ, [1, 2, -1])
        for _ in range(20):
            v = random_nonsingular_vector(space, rng)
            r = space.reflection(v)
            assert r.apply(v) == tuple(-x for x in v)

    def test_singular_vector_rejected(self, lorentz3):
        with pytest.raises(SingularVector):
            lorentz3.reflection((1, 0, 1))

    def test_scale_invariance(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(15):
            v = random_nonsingular_vector(space, rng)
            c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            assert space.reflection(v) == space.reflection(tuple(c * x for x in v))

    def test_involution_and_determinant(self, rng):
        space = diagonal_space(PrimeField(5), [1, 1, 2])
        for _ in range(15):
            v = random_nonsingular_vector(space, rng, bound=4)
            r = space.reflection(v)
            assert r.is_involution()
            assert r.det() == -space.field.one

    def test_fixes_orthogonal_hyperplane(self, lorentz3, rng):
        v = (1, 2, 1)
        r = lorentz3.reflection(v)
        comp = lorentz3.orthogonal_complement(Subspace(QQ, 3, [v]))
        for u in comp.basis:
            assert r.apply(u) == u

    def test_conjugation_moves_the_vector(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(15):
            v = random_nonsingular_vector(space, rng)
            f = random_isometry(space, rng)
            lhs = f @ space.reflection(v) @ f.inverse()
            assert lhs == space.reflection(f.apply(v))


class TestIsometryWrapper:
    def test_rejects_non_isometry(self):
        space = diagonal_space(QQ, [1, 1])
        from wallfact import NotIsometry
        with pytest.raises(NotIsometry):
            from wallfact import Isometry
            Isometry(space, [[1, 1], [0, 1]])

    def test_group_operations(self, rng):
        space = diagonal_space(QQ, [1, 2, 3])
        f = random_isometry(space, rng)
        g = random_isometry(space, rng)
        assert (f @ g).matrix == f.matrix @ g.matrix
        assert (f @ f.inverse()).is_identity()
        assert f.apply(g.apply((1, 2, 3))) == (f @ g).apply((1, 2, 3))
