import ast
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
                      minimal_factorization, moved_space, reflection_distance,
                      reflection_length, spinor_norm, split, triangular_basis, wall_form)
from wallfact.factor import (CertificateError, ProductMismatch, bilinear_value, form_row,
                             nonsingular_vector, right_complement_rows)
from wallfact.linalg import RightComplement, combine, kernel, restrict_bilinear
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


def reference_distance(g, h):
    """l(g^-1 h) by the expression reflection_distance replaced: invert g,
    multiply, measure the product."""
    return reflection_length(g.inverse() @ h)


def assert_distance_matches_reference(pairs):
    for g, h in pairs:
        expected = reference_distance(g, h)
        assert reflection_distance(g, h) == expected
        assert ((h.matrix - g.matrix).rank() == 1) == (expected == 1)


class TestReflectionDistance:
    """reflection_distance(g, h) against reflection_length(g^-1 h), and the
    rank-one cover test against the reference being 1."""

    def test_every_pair_of_o3_f3(self, census_f3_d3):
        elements = census_f3_d3.elements
        assert len(elements) ** 2 == 2304
        assert_distance_matches_reference((g, h) for g in elements for h in elements)

    def test_seeded_pairs_of_o4_f3(self, census_f3_d4):
        rng = random.Random(1701)
        elements = census_f3_d4.elements
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(3000)]
        # pairs whose difference has a totally singular image: g and g t for
        # every non-minimal t, which includes the ts94 element
        singular = [f for f in elements if not is_minimal(f)]
        space = census_f3_d4.space
        ts94 = isometry_from_wall(space, Subspace(space.field, 4, [(1, 0, 1, 0), (0, 1, 0, 1)]),
                                  [[0, 1], [-1, 0]])
        assert ts94 in singular
        pairs += [(g, g @ t) for t in singular for g in rng.sample(elements, 10)]
        assert_distance_matches_reference(pairs)
        assert sum(reflection_distance(g, h) == 4 for g, h in pairs) >= 10 * len(singular)

    def test_seeded_pairs_over_q(self):
        rng = random.Random(1702)
        pairs = []
        for n in range(2, 9):
            space = diagonal_space(QQ, [rng.choice([1, -1, 2, -3]) for _ in range(n)])
            for _ in range(6):
                pairs.append((random_isometry(space, rng, rng.randint(0, n)),
                              random_isometry(space, rng, rng.randint(0, n))))
        space = diagonal_space(QQ, [1, 1, -1, -1])
        t = isometry_from_wall(space, [(1, 0, 1, 0), (0, 1, 0, 1)], [[0, 1], [-1, 0]])
        for _ in range(4):
            g = random_isometry(space, rng, 3)
            pairs += [(g, g @ t), (g @ t, g)]
        assert_distance_matches_reference(pairs)
        assert reflection_distance(*pairs[-1]) == 4

    def test_different_spaces_rejected(self):
        f = diagonal_space(QQ, [1, 1]).identity_isometry()
        g = diagonal_space(QQ, [1, 2]).identity_isometry()
        with pytest.raises(ValueError, match="isometries of different spaces"):
            reflection_distance(f, g)


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

    def test_certificate_mismatch_is_a_certificate_error(self):
        space = diagonal_space(PrimeField(5), [1, 1, 2])
        f = space.reflection((1, 0, 0)) @ space.reflection((0, 1, 1))
        with pytest.raises(ProductMismatch) as info:
            Factorization(space, [(0, 1, 1), (1, 0, 0), (1, 1, 0)], target=f)
        assert isinstance(info.value, CertificateError) and isinstance(info.value, ValueError)
        Factorization(space, [(1, 0, 0), (0, 1, 1)], target=f)

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
expect_certificate_error("wall_form", lambda: wall.wall_form(quadspace.Isometry(space, f.matrix)))
# and on a moved space of dimension 2 in 3, solved on its 2 x 2 pivot block
rank_two = space.reflection((1, 0, 0)) @ space.reflection((0, 1, 2))
if linalg.column_basis(linalg.Matrix.identity(QQ, 3) - rank_two.matrix)[0] != [0, 1]:
    raise SystemExit("wall_form pivot block: the moved space is not spanned by columns 0, 1")
expect_certificate_error("wall_form pivot block",
                         lambda: wall.wall_form(quadspace.Isometry(space, rank_two.matrix)))
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
real_complement = quadspace.QuadraticSpace.orthogonal_complement
quadspace.QuadraticSpace.orthogonal_complement = (
    lambda self, W: linalg.Subspace.full(QQ, self.dim))
expect_certificate_error("parabolic_interval_description",
                         lambda: hyperbolic.parabolic_interval_description(parabolic))
quadspace.QuadraticSpace.orthogonal_complement = real_complement

# hyperbolic_positive_factorization: the moved space does not shrink after a peel
real_moved_space = hyperbolic.moved_space
moved_calls = []


def stuck_moved_space(g):
    moved_calls.append(g)
    if len(moved_calls) > 2:
        raise SystemExit("hyperbolic_positive_factorization peel: no CertificateError")
    return real_moved_space(boost)


hyperbolic.moved_space = stuck_moved_space
expect_certificate_error("hyperbolic_positive_factorization peel",
                         lambda: hyperbolic.hyperbolic_positive_factorization(boost))
hyperbolic.moved_space = real_moved_space

# classify: every proper subspace reads as positive definite, so the moved
# space says elliptic and the fixed space says hyperbolic
real_inertia = quadspace.QuadraticSpace.inertia
quadspace.QuadraticSpace.inertia = (
    lambda self, W=None: real_inertia(self) if W is None else quadspace.Inertia(W.dim, 0, 0))
expect_certificate_error("classify", lambda: hyperbolic.classify(boost))
quadspace.QuadraticSpace.inertia = real_inertia

# hyperbolic_positive_factorization: the moved space misses x_{n+1} = 0
hyperbolic.kernel = lambda A: linalg.Subspace(QQ, A.cols)
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

# triangular_rows: the start vector is found, then every complement looks
# alternating, so the repair cannot end
real_witness = factor.nonalternating_witness
witness_calls = []


def first_witness_only(X):
    witness_calls.append(X)
    return real_witness(X) if len(witness_calls) == 1 else None


factor.nonalternating_witness = first_witness_only
expect_certificate_error("triangular_rows",
                         lambda: factor.triangular_basis(linalg.Matrix.diagonal(QQ, [1, 2, 3])))
factor.nonalternating_witness = real_witness
if len(witness_calls) != 3:
    raise SystemExit("triangular_rows: %d witness calls, not 3" % len(witness_calls))

# _from_admissible: chi = [[2]] on a line with Q = 1 breaks the polar
# condition, so the matrix built is no isometry and the form certificate
# must reject it
line = linalg.Matrix(QQ, [(1, 0, 0)])
try:
    wall._from_admissible(space, line, line @ space.polar_matrix, linalg.Matrix(QQ, [[2]]))
except quadspace.NotIsometry:
    pass
else:
    raise SystemExit("_from_admissible: no NotIsometry")

# Factorization: the word is a valid one for another isometry, so the
# rank-one certificate must reject it
try:
    Factorization(space, [(1, 0, 0), (1, 1, 0), (0, 1, 2)], target=f)
except factor.ProductMismatch:
    pass
else:
    raise SystemExit("Factorization: no ProductMismatch")
Factorization(space, [(1, 0, 0), (0, 1, 2), (1, 1, 0)], target=f)
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


def test_library_has_no_assert_statements():
    """python -O strips assert statements, so no check in the library may be one."""
    package = os.path.dirname(os.path.abspath(wallfact.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, found


def test_matrix_and_subspace_methods_do_not_branch_on_the_field():
    """Matrix and Subspace run one code path on the kernel form; what differs
    by field sits in a few linalg helpers, dispatched once each."""
    package = os.path.dirname(os.path.abspath(wallfact.__file__))
    with open(os.path.join(package, "linalg.py")) as handle:
        tree = ast.parse(handle.read(), filename="linalg.py")

    def field_tests(node):
        return [n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance" and len(n.args) == 2
                and isinstance(n.args[1], ast.Name) and n.args[1].id == "PrimeField"]

    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    in_methods = {name: field_tests(classes[name]) for name in ("Matrix", "Subspace")}
    assert in_methods == {"Matrix": [], "Subspace": []}, in_methods
    assert len(field_tests(tree)) <= 12


def reference_nonalternating_witness(X):
    """The diagonal scan, then pairwise basis sums."""
    field, m = X.field, X.rows
    unit = [tuple(field.one if j == i else field.zero for j in range(m)) for i in range(m)]
    for i in range(m):
        if X[i, i]:
            return unit[i]
    for i in range(m):
        for j in range(i + 1, m):
            if X[i, j] + X[j, i]:
                return tuple(a + b for a, b in zip(unit[i], unit[j]))
    return None


def reference_nonsingular_vector(space):
    """The standard basis, then pairwise sums, by their Q values."""
    for i in range(space.dim):
        if space.q_value(space.standard_basis(i)):
            return space.standard_basis(i)
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            v = tuple(a + b for a, b in zip(space.standard_basis(i), space.standard_basis(j)))
            if space.q_value(v):
                return v
    return None


class TestSmallVectors:
    """Every finder on ``small_vectors`` returns what its own scan returned."""

    def test_values_are_the_squares(self, rng):
        from wallfact.factor import small_vectors
        X = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        found = list(small_vectors(X))
        assert len(found) == 4 + 2 * 6
        for v, value in found:
            assert value == bilinear_value(X, v, v)

    def test_nonalternating_witness_on_every_3x3_form_over_f3(self):
        import itertools
        from wallfact.factor import nonalternating_witness
        field = PrimeField(3)
        found = set()
        for entries in itertools.product(range(3), repeat=9):
            X = Matrix(field, [entries[0:3], entries[3:6], entries[6:9]])
            expected = reference_nonalternating_witness(X)
            assert nonalternating_witness(X) == expected
            found.add(None if expected is None else sum(1 for x in expected if x))
        assert found == {None, 1, 2}

    def test_nonsingular_vector(self):
        from wallfact import QuadraticSpace
        f5 = PrimeField(5)
        spaces = [diagonal_space(QQ, [1, -1]), diagonal_space(QQ, [3, 2, -5]),
                  diagonal_space(f5, [2, 3, 1]),
                  QuadraticSpace(QQ, Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 2]])),
                  QuadraticSpace(QQ, Matrix(QQ, [[0, 1], [1, 0]])),
                  QuadraticSpace(QQ, Matrix(QQ, [[0, 1, 2], [1, 0, 3], [2, 3, 0]])),
                  QuadraticSpace(f5, Matrix(f5, [[0, 1, 0, 0], [1, 0, 0, 0],
                                                 [0, 0, 0, 2], [0, 0, 2, 0]]))]
        pairs = 0
        for space in spaces:
            v = nonsingular_vector(space)
            assert v == reference_nonsingular_vector(space)
            pairs += sum(1 for x in v if x) == 2
        assert pairs == 3


class TestInternalChecksRaise:
    """The internal invariants of factor.py raise CertificateError (exit 3),
    not AssertionError."""

    def test_unterminated_repair(self, monkeypatch):
        import wallfact.factor as factor_mod
        real = factor_mod.nonalternating_witness
        calls = []

        def witness(X):
            # the start vector is found; every complement then looks alternating
            calls.append(X)
            return real(X) if len(calls) == 1 else None

        monkeypatch.setattr(factor_mod, "nonalternating_witness", witness)
        with pytest.raises(CertificateError):
            triangular_basis(Matrix.diagonal(QQ, [1, 2, 3]))
        assert len(calls) == 3

    def test_no_nonsingular_small_vector(self, monkeypatch):
        import wallfact.factor as factor_mod
        monkeypatch.setattr(factor_mod, "small_vectors", lambda X: iter(()))
        with pytest.raises(CertificateError):
            nonsingular_vector(diagonal_space(QQ, [1, -1]))


def reference_triangular_rows(X, u, repairs):
    """The per-level construction that the rank-one levels replace: the
    reduced echelon basis R of the right complement of u as a kernel, the
    form R X R^T on it by matrix products, and the rows found below mapped
    back as the rows of C R.  Appends the size of X to repairs whenever the
    repair step runs."""
    field, m = X.field, X.rows
    if m == 1:
        return [tuple(u)]
    for _attempt in range(2):
        R = kernel(Matrix(field, [form_row(X, u)])).basis
        XR = restrict_bilinear(X, R)
        wit = reference_nonalternating_witness(XR)
        if wit is not None:
            return [tuple(u), *combine(field, reference_triangular_rows(XR, wit, repairs), R, m)]
        repairs.append(m)
        v = next((r for r in R if bilinear_value(X, r, u)), R[0])
        uu, vu = bilinear_value(X, u, u), bilinear_value(X, v, u)
        scalars = [field(c) for c in ((1, -1, 2) if field is QQ else range(1, field.p))]
        a = next(c for c in scalars if uu + c * vu)
        u = tuple(x + a * y for x, y in zip(u, v))
    raise AssertionError("the reference repair did not terminate")


def random_entry(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    return rng.randrange(field.p)


def repair_form(field, rng, r, k):
    """[[L, 0], [*, J]]: L lower triangular r x r with a nonzero diagonal, J a
    non-degenerate alternating k x k block (k even), * random.  Each of the
    first r levels starts at e_1 and splits it off, so the last of them meets
    the alternating complement J and repairs."""
    m = r + k
    while True:
        J = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                J[i][j] = random_entry(field, rng)
                J[j][i] = -J[i][j]
        if Matrix(field, J).det():
            break
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i < r and j > i:
                row.append(0)
            elif i == j and i < r:
                row.append(rng.choice([1, 2, -1]) if field is QQ else rng.randrange(1, field.p))
            elif i >= r and j >= r:
                row.append(J[i - r][j - r])
            else:
                row.append(random_entry(field, rng))
        rows.append(row)
    return Matrix(field, rows)


class TestRankOneLevels:
    """The rank-one levels of triangular_rows against the per-level
    construction they replace, row for row."""

    FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(7)]

    def forms(self):
        rng = random.Random(2828)
        for field in self.FIELDS:
            for m in range(1, 10):
                found = 0
                while found < 4:
                    X = Matrix(field, [[random_entry(field, rng) for _ in range(m)]
                                       for _ in range(m)])
                    if X.det() and reference_nonalternating_witness(X) is not None:
                        found += 1
                        yield X
            for m in range(3, 10):
                for k in range(2, m, 2):
                    yield repair_form(field, rng, m - k, k)

    def test_against_the_per_level_construction(self):
        repairs, cases = [], 0
        for X in self.forms():
            u = reference_nonalternating_witness(X)
            rows = triangular_basis(X)
            assert rows == reference_triangular_rows(X, u, repairs)
            check_triangular(X, rows)
            if X.rows > 1:
                R = kernel(Matrix(X.field, [form_row(X, u)])).basis
                level = RightComplement(X, u)
                assert level.rows() == R == right_complement_rows(X, u)
                assert level.form == restrict_bilinear(X, R)
            cases += 1
        assert cases >= 4 * 9 * 4
        assert len(repairs) >= 20, len(repairs)

    def test_scales_are_exact(self):
        # the rows come back as the field elements of the reference, scale
        # included, and their entries as Fractions over Q
        X = Matrix(QQ, [[Fraction(1, 2), 3, 0], [Fraction(-2, 3), 0, 5], [1, Fraction(7, 4), -2]])
        rows = triangular_basis(X)
        assert rows == reference_triangular_rows(X, (1, 0, 0), [])
        assert all(type(x) is Fraction for row in rows for x in row)


class TestNoProductsInTriangularBases:
    """A triangular basis runs no matrix product, restriction or row
    combination, and a minimal factorization never boxes the basis of the
    moved space it combines with."""

    def test_no_products(self, monkeypatch):
        import wallfact.factor as factor_mod
        from wallfact import linalg
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(Matrix, "__matmul__", counted("matmul", Matrix.__matmul__))
        for module in (linalg, factor_mod):
            for name in ("restrict_bilinear", "combine"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rng = random.Random(2829)
        forms = [repair_form(QQ, rng, 2, 4), repair_form(PrimeField(5), rng, 3, 2),
                 Matrix(QQ, [[random_entry(QQ, rng) for _ in range(7)] for _ in range(7)])]
        for X in forms:
            triangular_basis(X)
        assert calls == []

    def test_the_moved_space_basis_stays_unboxed(self, rng):
        space = diagonal_space(QQ, [1, 2, -1, 3, -2, 1])
        for _ in range(5):
            f = random_isometry(space, rng, 5)
            fact = minimal_factorization(f)
            assert fact.product() == f
            assert wall_form(f).subspace.basis_matrix()._entries is None
