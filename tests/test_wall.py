import random

import pytest

from wallfact import (ChiQMismatch, DegenerateChi, Matrix, PrimeField, QQ,
                      Subspace, check_wall_properties, chi_left_complement,
                      chi_right_complement, diagonal_space, fixed_space,
                      isometry_from_wall, moved_space, spinor_norm, wall_form)
from wallfact import wall
from wallfact.linalg import bilinear_value, enumerate_subspaces
from wallfact.wall import Isometry, WallData, enumerate_isometries_with_moved_space
from tests.conftest import random_isometry, random_nonsingular_vector


@pytest.fixture(scope="module")
def embedded_example():
    """The 3x3 Wall matrix [[1,0,0],[0,0,1],[0,-1,0]] realized over F_3.

    The moved space needs a unit vector plus a two-dimensional radical of
    the restricted polar form, which takes five ambient dimensions:
    diag(1,1,1,-1,-1) with basis (e1, e2+e4, e3+e5).
    """
    F3 = PrimeField(3)
    space = diagonal_space(F3, [1, 1, 1, -1, -1])
    basis = [(1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]
    chi = [[1, 0, 0], [0, 0, 1], [0, -1, 0]]
    f = isometry_from_wall(space, Matrix(F3, basis), chi)
    return space, basis, chi, f


class TestFixMov:
    def test_identity(self):
        space = diagonal_space(QQ, [1, 1])
        f = space.identity_isometry()
        assert fixed_space(f) == Subspace.full(QQ, 2)
        assert moved_space(f) == Subspace.zero(QQ, 2)

    def test_reflection(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        v = random_nonsingular_vector(space, rng)
        r = space.reflection(v)
        assert moved_space(r) == Subspace(QQ, 3, [v])
        assert fixed_space(r) == space.orthogonal_complement(Subspace(QQ, 3, [v]))

    def test_f3_rotation_moves_everything(self, f3):
        space = diagonal_space(f3, [1, 1])
        from wallfact import Isometry
        f = Isometry(space, [[0, -1], [1, 0]])
        # det(I - F) = 2 != 0 mod 3, computed directly
        D = Matrix.identity(f3, 2) - f.matrix
        assert D.det() == 2
        assert moved_space(f) == Subspace.full(f3, 2)

    def test_fix_is_orthogonal_of_mov(self, rng):
        space = diagonal_space(QQ, [1, 2, -1, 1])
        for _ in range(15):
            f = random_isometry(space, rng)
            assert fixed_space(f) == space.orthogonal_complement(moved_space(f))


class TestWallForm:
    def test_reflection_chi(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        v = random_nonsingular_vector(space, rng)
        wd = wall_form(space.reflection(v))
        assert wd.dim == 1
        u = wd.basis.row(0)
        assert wd.chi[0, 0] == space.q_value(u)

    def test_identity_chi_is_empty(self):
        space = diagonal_space(QQ, [1, 1])
        wd = wall_form(space.identity_isometry())
        assert wd.dim == 0 and wd.chi.rows == 0

    def test_involution_chi_symmetric_and_half_polar(self):
        space = diagonal_space(QQ, [1, 1, -1, -1])
        f = space.reflection((0, 0, 1, 0)) @ space.reflection((0, 0, 0, 1))
        assert f.is_involution()
        wd = wall_form(f)
        assert wd.is_symmetric()
        assert wd.chi.scale(2) == space.polar_gram_on(wd.basis.entries)

    def test_diagonal_is_q_and_symmetrization_is_polar(self, rng):
        space = diagonal_space(QQ, [1, 2, -3])
        for _ in range(15):
            f = random_isometry(space, rng)
            wd = wall_form(f)
            for i in range(wd.dim):
                assert wd.chi[i, i] == space.q_value(wd.basis.row(i))
            assert wd.chi + wd.chi.transpose() == space.polar_gram_on(wd.basis.entries)
            assert wd.det()  # non-degenerate

    def test_well_defined_under_witness_choice(self, rng):
        # chi(u, v) = beta(w, v) must not depend on which w solves u = w - f(w)
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(10):
            f = random_isometry(space, rng)
            wd = wall_form(f)
            D = Matrix.identity(QQ, 3) - f.matrix
            from wallfact import kernel, solve
            fix = kernel(D)
            for i, u in enumerate(wd.basis.entries):
                w = solve(D, u)
                for extra in fix.basis:
                    w2 = tuple(a + b for a, b in zip(w, extra))
                    for j, v in enumerate(wd.basis.entries):
                        assert space.polar(w2, v) == wd.chi[i, j]


class TestKeptWallForm:
    """An isometry keeps its Wall form once computed."""

    def test_same_object_on_every_call(self, rng):
        space = diagonal_space(QQ, [1, 2, -1, 3])
        f = random_isometry(space, rng, 3)
        assert wall_form(f) is wall_form(f)

    def test_moved_space_before_and_after_the_form(self, rng):
        from wallfact import image
        space = diagonal_space(QQ, [1, 2, -1, 3])
        for _ in range(10):
            f = random_isometry(space, rng)
            displacement_image = image(Matrix.identity(QQ, space.dim) - f.matrix)
            assert moved_space(f) == displacement_image
            wd = wall_form(f)
            assert moved_space(f) == displacement_image
            assert moved_space(f) is wd.subspace

    def test_one_elimination_per_isometry(self, rng, monkeypatch):
        from wallfact import (classify, lorentz_space, parabolic_interval_description,
                              positive_factorization)
        from wallfact.hyperbolic import hyperbolic_example, parabolic_example
        from tests.conftest import random_positive_isometry
        displacements = []
        real_solve_all = wall.solve_all

        def solve_all(A, vectors):
            displacements.append(A)
            return real_solve_all(A, vectors)

        monkeypatch.setattr(wall, "solve_all", solve_all)
        space = diagonal_space(QQ, [1, 1, -1, -1])
        involution = Isometry(space, Matrix.diagonal(QQ, [1, 1, -1, -1]))
        L = lorentz_space(3)
        for f in [random_positive_isometry(space, rng, 4) for _ in range(5)] + [involution]:
            positive_factorization(f)
        classify(hyperbolic_example(L))
        parabolic_interval_description(parabolic_example(L))
        assert displacements
        assert len(displacements) == len(set(displacements))


def reference_wall_form(f):
    """The per-vector definition: w_i = solve(D, u_i), chi[i][j] = beta(w_i, u_j)."""
    from wallfact import solve

    space = f.space
    D = Matrix.identity(space.field, space.dim) - f.matrix
    mov = moved_space(f)
    basis = mov.basis
    witnesses = [solve(D, u) for u in basis]
    chi = [[space.polar(w, u) for u in basis] for w in witnesses]
    return WallData(space, mov, Matrix(space.field, chi, cols=len(basis)))


def totally_singular_isometry(space, rng):
    """Wall's construction on the totally singular plane span(e_0 + e_h, e_1 + e_{h+1})
    of diag(1, ..., 1, -1, ..., -1) (h ones), conjugated by a random isometry."""
    n = space.dim
    h = n // 2
    u1 = [1 if j in (0, h) else 0 for j in range(n)]
    u2 = [1 if j in (1, h + 1) else 0 for j in range(n)]
    t = rng.choice([1, 2, 3])
    f = isometry_from_wall(space, [u1, u2], [[0, t], [-t, 0]])
    c = random_isometry(space, rng, 3)
    return c @ f @ c.inverse()


class TestWallFormReference:
    def test_random_rational_up_to_dim_10(self, rng):
        for n in range(2, 11):
            space = diagonal_space(QQ, [rng.choice([1, 2, -1, -3]) for _ in range(n)])
            for _ in range(3):
                f = random_isometry(space, rng, rng.randint(1, n))
                assert wall_form(f) == reference_wall_form(f)

    def test_totally_singular_moved_spaces(self, rng):
        for n in (4, 6, 8, 10):
            space = diagonal_space(QQ, [1] * (n // 2) + [-1] * (n // 2))
            f = totally_singular_isometry(space, rng)
            assert space.is_totally_singular(moved_space(f))
            assert wall_form(f) == reference_wall_form(f)

    def test_census_f3_d2(self, census_f3_d2):
        for f in census_f3_d2.elements:
            assert wall_form(f) == reference_wall_form(f)


class TestIsometryFromWall:
    def test_empty_gives_identity(self):
        space = diagonal_space(QQ, [1, 1])
        f = isometry_from_wall(space, Subspace.zero(QQ, 2), Matrix.zeros(QQ, 0, 0))
        assert f.is_identity()

    def test_line_gives_reflection(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(10):
            v = random_nonsingular_vector(space, rng)
            f = isometry_from_wall(space, Matrix(QQ, [v]), [[space.q_value(v)]])
            assert f == space.reflection(v)

    def test_round_trip_random_rational(self, rng):
        space = diagonal_space(QQ, [1, 1, -1, 2])
        for _ in range(20):
            f = random_isometry(space, rng)
            wd = wall_form(f)
            assert isometry_from_wall(space, wd.subspace, wd.chi) == f

    def test_round_trip_full_group_f3(self, census_f3_d2):
        for f in census_f3_d2.elements:
            wd = wall_form(f)
            assert isometry_from_wall(f.space, wd.subspace, wd.chi) == f

    def test_degenerate_chi_rejected(self):
        space = diagonal_space(QQ, [1, 1])
        with pytest.raises(DegenerateChi):
            isometry_from_wall(space, Matrix(QQ, [(1, 0)]), [[0]])

    def test_chi_q_mismatch_rejected(self):
        space = diagonal_space(QQ, [1, 1])
        with pytest.raises(ChiQMismatch):
            isometry_from_wall(space, Matrix(QQ, [(1, 0)]), [[5]])
        # symmetrization failure on a 2x2 candidate
        with pytest.raises(ChiQMismatch):
            isometry_from_wall(space, Matrix.identity(QQ, 2), [[1, 3], [1, 1]])

    def test_example_matrix_realized(self, embedded_example):
        space, basis, chi, f = embedded_example
        wd = wall_form(f)
        assert wd.subspace == Subspace(space.field, 5, basis)
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                assert bilinear_value(wd.chi, wd.coordinates_of(u),
                                      wd.coordinates_of(v)) == space.field(chi[i][j])


class TestComplements:
    def test_trivial_cases(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        f = random_isometry(space, rng)
        wd = wall_form(f)
        zero = Subspace.zero(QQ, 3)
        assert chi_right_complement(wd, zero) == wd.subspace
        assert chi_right_complement(wd, wd.subspace).dim == 0
        assert chi_left_complement(wd, zero) == wd.subspace

    def test_example_right_complement(self, embedded_example):
        space, basis, chi, f = embedded_example
        wd = wall_form(f)
        U1 = Subspace(space.field, 5, [basis[0]])
        assert chi_right_complement(wd, U1) == Subspace(space.field, 5, basis[1:])

    def test_dimensions_and_double_complement(self, rng):
        space = diagonal_space(QQ, [1, 1, -1, 2])
        for _ in range(10):
            f = random_isometry(space, rng, reflections=3)
            wd = wall_form(f)
            for U in _some_subspaces(wd, rng):
                right = chi_right_complement(wd, U)
                assert U.dim + right.dim == wd.dim
                assert chi_left_complement(wd, right) == U

    def test_left_right_exchange_via_f(self, rng):
        # the left complement is the f-image of the right complement
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(10):
            f = random_isometry(space, rng)
            wd = wall_form(f)
            for U in _some_subspaces(wd, rng):
                right = chi_right_complement(wd, U)
                mapped = Subspace(QQ, 3, [f.apply(v) for v in right.basis])
                assert chi_left_complement(wd, U) == mapped


def _some_subspaces(wd, rng):
    out = []
    if wd.dim == 0:
        return out
    for _ in range(3):
        k = rng.randint(0, wd.dim)
        rows = []
        for _ in range(k):
            coords = [rng.randint(-2, 2) for _ in range(wd.dim)]
            vec = [wd.space.field.zero] * wd.space.dim
            for c, b in zip(coords, wd.basis.entries):
                vec = [x + wd.space.field(c) * y for x, y in zip(vec, b)]
            rows.append(tuple(vec))
        U = Subspace(wd.space.field, wd.space.dim, rows)
        if wd.restrict(U).det():
            out.append(U)
    return out


class TestSpinorNorm:
    def test_identity_is_one(self):
        space = diagonal_space(QQ, [1, 1])
        assert spinor_norm(space.identity_isometry()).is_one()

    def test_reflection_class_is_q_value(self):
        space = diagonal_space(QQ, [1, 2])
        r = space.reflection((1, 1))          # Q = 3
        assert spinor_norm(r) == QQ.square_class(3)
        space2 = diagonal_space(QQ, [-3, 1])
        assert spinor_norm(space2.reflection((1, 0))) == QQ.square_class(-3)

    def test_two_reflections_multiply(self):
        space = diagonal_space(QQ, [1, 2])
        f = space.reflection((0, 1)) @ space.reflection((1, 1))   # Q = 2 and 3
        # independent route: the determinant of the full Wall form
        wd = wall_form(f)
        assert QQ.square_class(wd.det()) == QQ.square_class(6)
        assert spinor_norm(f) == QQ.square_class(6)

    def test_homomorphism_on_random_products(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(20):
            f = random_isometry(space, rng)
            g = random_isometry(space, rng)
            assert spinor_norm(f @ g) == spinor_norm(f) * spinor_norm(g)

    def test_basis_independence(self, rng):
        # det of chi in any basis of Mov(f) lands in the same square class
        space = diagonal_space(QQ, [1, 1, -1])
        f = random_isometry(space, rng, reflections=3)
        wd = wall_form(f)
        if wd.dim:
            T = Matrix(QQ, [[rng.randint(-3, 3) or 1 if i == j else rng.randint(-2, 2)
                             for j in range(wd.dim)] for i in range(wd.dim)])
            if T.det():
                other = T @ wd.chi @ T.transpose()
                assert QQ.square_class(other.det()) == spinor_norm(f)


class TestWallProperties:
    def test_random_rational(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(10):
            f = random_isometry(space, rng)
            g = random_isometry(space, rng)
            report = check_wall_properties(f, g)
            assert report.ok, report.failing()

    def test_random_f3(self, rng, census_f3_d3):
        elements = census_f3_d3.elements
        for _ in range(15):
            f = rng.choice(elements)
            g = rng.choice(elements)
            report = check_wall_properties(f, g)
            assert report.ok, report.failing()

    def test_transposed_chi_fails_the_twist(self, rng, monkeypatch):
        """chi^T + chi is still the polar Gram matrix, and the inverse and
        conjugation checks transpose along with it, so only the twist
        identity C_f chi = -chi^T can tell chi^T from chi."""
        space = diagonal_space(QQ, [1, 1, -1])
        f = space.reflection((1, 0, 0)) @ space.reflection((1, 1, 0))
        assert not f.is_involution()
        g = random_isometry(space, rng)
        real_wall_form = wall.wall_form

        def transposed(h):
            wd = real_wall_form(h)
            return WallData(wd.space, wd.subspace, wd.chi.transpose())

        monkeypatch.setattr(wall, "wall_form", transposed)
        assert check_wall_properties(f, g).failing() == ["twist_identity"]

    def test_one_report_type(self, rng, monkeypatch):
        """The structural checks report like the oracle's theorem checks:
        the names of the failing identities are the violations."""
        from wallfact.oracle import CheckReport as OracleReport
        space = diagonal_space(QQ, [1, 1, -1])
        f = space.reflection((1, 0, 0)) @ space.reflection((1, 1, 0))
        g = random_isometry(space, rng)
        report = check_wall_properties(f, g)
        assert type(report) is wall.CheckReport is OracleReport
        assert (report.name, report.checked, report.violations) == ("wall_properties", 5, [])
        real_wall_form = wall.wall_form
        monkeypatch.setattr(wall, "wall_form", lambda h: WallData(
            h.space, real_wall_form(h).subspace, real_wall_form(h).chi.transpose()))
        report = check_wall_properties(f, g)
        assert not report.ok and report.violations == ["twist_identity"]
        assert report.to_json_dict() == {"name": "wall_properties", "checked": 5,
                                         "violations": 1, "witnesses": ["twist_identity"]}


class TestMovedSpaceEnumeration:
    def test_counts_on_lines(self, f3):
        space = diagonal_space(f3, [1, 1])
        # a non-singular line supports exactly one isometry (its reflection)
        line = Subspace(f3, 2, [(1, 0)])
        got = list(enumerate_isometries_with_moved_space(space, line))
        assert got == [space.reflection((1, 0))]

    def test_plane_count_matches_census(self, f3, census_f3_d2):
        space = census_f3_d2.space
        full = Subspace.full(f3, 2)
        got = list(enumerate_isometries_with_moved_space(space, full))
        with_full_mov = [f for f in census_f3_d2.elements
                         if moved_space(f) == full]
        assert len(got) == len(with_full_mov) == 3
        assert {f.key() for f in got} == {f.key() for f in with_full_mov}


# ---------------------------------------------------------------------------
# lengths, spinor norms and Wall forms from one column basis of id - f

def fresh(f):
    """The same isometry without its kept Wall form."""
    return Isometry(f.space, f.matrix, _checked=True)


def full_solve_wall_form(f):
    """Mov(f) as the canonical basis of im(D), D = id - f, and chi = W B U^T
    with the witnesses W from one elimination of [D | U^T]."""
    from wallfact.linalg import image, solve_all
    space = f.space
    D = Matrix.identity(space.field, space.dim) - f.matrix
    mov = image(D)
    W = solve_all(D, mov.basis_matrix())
    chi = Matrix(space.field, W, cols=space.dim) @ space.polar_matrix \
        @ mov.basis_matrix().transpose()
    return mov, chi


def image_rule_distance(g, h):
    """l(g^-1 h) read from the canonical basis of W = im(g - h)."""
    from wallfact.linalg import image
    W = image(g.matrix - h.matrix)
    return W.dim + 2 if W.dim and g.space.is_totally_singular(W) else W.dim


def caller_cases(field, rng, dims):
    """(label, f) over field: identities, single reflections, full and half
    moved spaces, isometries whose Wall form is already kept, and over Q
    totally singular moved spaces."""
    cases = []
    for n in dims:
        space = diagonal_space(field, [rng.choice([1, 2, -1, -2]) for _ in range(n)])
        cases.append(("identity", space.identity_isometry()))
        cases.append(("reflection", random_isometry(space, rng, 1)))
        cases.append(("full", random_isometry(space, rng, n)))
        cases.append(("half", random_isometry(space, rng, n // 2)))
        kept = random_isometry(space, rng, rng.randint(1, n))
        wall_form(kept)
        cases.append(("kept", kept))
        if field is QQ and n % 2 == 0 and n >= 4:
            hyperbolic = diagonal_space(field, [1] * (n // 2) + [-1] * (n // 2))
            cases.append(("singular", totally_singular_isometry(hyperbolic, rng)))
    return cases


class TestColumnBasisCallers:
    """spinor_norm, reflection_distance and wall_form read one forward
    elimination of the displacement; each against the canonical-basis rule
    it replaced."""

    FIELDS = (QQ, PrimeField(3), PrimeField(5), PrimeField(7))

    @pytest.fixture(params=FIELDS, ids=str)
    def cases(self, request):
        field = request.param
        return caller_cases(field, random.Random(6703 + getattr(field, "p", 0)), range(2, 10))

    def test_spinor_norm_is_the_class_of_det_chi(self, cases):
        for label, f in cases:
            g = fresh(f)
            wd = wall_form(fresh(f))
            field = f.space.field
            expected = field.square_class(wd.det() if wd.dim else field.one)
            assert spinor_norm(g) == expected, label
            assert g._wall is None
            assert spinor_norm(f) == expected, label

    def test_wall_form_matches_the_canonical_construction(self, cases):
        labels = set()
        for label, f in cases:
            mov, chi = full_solve_wall_form(f)
            wd = wall_form(fresh(f))
            assert wd.subspace.basis_matrix()._int_form() == mov.basis_matrix()._int_form()
            assert wd.chi._int_form() == chi._int_form()
            assert wall_form(f) == wd
            labels.add((label, "full" if wd.dim == f.space.dim else "part" if wd.dim else "zero"))
        assert {("full", "full"), ("half", "part"), ("reflection", "part"),
                ("identity", "zero")} <= labels

    def test_distance_matches_the_image_rule(self, cases):
        from wallfact import reflection_distance, reflection_length
        rng = random.Random(4242)
        by_space = {}
        for _, f in cases:
            by_space.setdefault(f.space, []).append(f)
        singular = 0
        for fs in by_space.values():
            for g in fs:
                for h in fs:
                    assert reflection_distance(g, h) == image_rule_distance(g, h)
                length = reflection_length(g)
                assert length == image_rule_distance(g.space.identity_isometry(), g)
                singular += length == moved_space(g).dim + 2
            t = rng.choice(fs)
            for s in fs:
                assert reflection_distance(s, s @ t) == image_rule_distance(s, s @ t)
        if cases[0][1].space.field is QQ:
            assert singular >= 3

    def test_totally_singular_lengths_over_f3(self, census_f3_d4):
        from wallfact import reflection_distance
        elements = census_f3_d4.elements
        rng = random.Random(9311)
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(400)]
        singular = 0
        for g, h in pairs + [(g, g) for g in elements[:20]]:
            expected = image_rule_distance(g, h)
            assert reflection_distance(g, h) == expected
            singular += expected > moved_space(fresh(g.inverse() @ h)).dim
        assert singular


class TestNoCanonicalBasisForInvariants:
    """For an isometry of an 8-dimensional space with a 4-dimensional moved
    space, the length, the spinor norm and the order run no reduced echelon
    elimination, and the Wall form runs two, each on dim Mov(f) rows."""

    def test_rref_calls(self, monkeypatch):
        from wallfact import less_equal, linalg, reflection_length
        rng = random.Random(5521)
        space = diagonal_space(QQ, [1, 1, 2, -1, 3, -1, -2, 1])
        f = random_isometry(space, rng, 4)
        g = space.reflection(random_nonsingular_vector(space, rng)) @ f
        m = moved_space(fresh(f)).dim
        assert m == 4
        calls = []
        real = linalg._rref
        monkeypatch.setattr(linalg, "_rref",
                            lambda field, rows, ncols: calls.append(len(rows))
                            or real(field, rows, ncols))
        spinor_norm(fresh(f))
        reflection_length(fresh(f))
        less_equal(fresh(g), fresh(f))
        assert calls == []
        wall_form(fresh(f))
        assert calls == [m, m]


def checked_isometry_from_wall(space, basis, chi):
    """The construction isometry_from_wall replaced: the rank test on every
    basis, Q(u_i) per diagonal entry, the polar Gram matrix of the rows, and
    F = I - U^T X^-T U B."""
    if isinstance(basis, Subspace):
        U = basis.basis_matrix()
    elif isinstance(basis, Matrix):
        U = basis
    else:
        U = Matrix(space.field, basis, cols=space.dim)
    X = chi if isinstance(chi, Matrix) else Matrix(space.field, chi, cols=U.rows)
    m = U.rows
    if m == 0:
        return Isometry.identity(space)
    if U.rank() != m:
        raise ValueError("basis rows are linearly dependent")
    if X.rows != m or X.cols != m:
        raise ChiQMismatch("chi must be %dx%d" % (m, m))
    if not X.det():
        raise DegenerateChi("the candidate Wall form is degenerate")
    for i in range(m):
        if X[i, i] != space.q_value(U.row(i)):
            raise ChiQMismatch("diagonal entry %d does not match Q" % i)
    if X + X.transpose() != space.polar_gram_on(U.entries):
        raise ChiQMismatch("chi + chi^T does not match the polar form")
    F = Matrix.identity(space.field, space.dim) - (
        U.transpose() @ X.transpose().inverse() @ U @ space.polar_matrix)
    return Isometry(space, F)


def reference_enumerate(space, U):
    """enumerate_isometries_with_moved_space as it was, through the public
    construction per candidate."""
    import itertools

    field = space.field
    k = U.dim
    if k == 0:
        yield Isometry.identity(space)
        return
    rows = U.basis
    qdiag = [space.q_value(u) for u in rows]
    bgram = space.polar_gram_on(rows)
    positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for assignment in itertools.product(list(field.elements()), repeat=len(positions)):
        X = [[field.zero] * k for _ in range(k)]
        for i in range(k):
            X[i][i] = qdiag[i]
        for (i, j), t in zip(positions, assignment):
            X[i][j] = t
            X[j][i] = bgram[i, j] - t
        M = Matrix(field, X, cols=k)
        if not M.det():
            continue
        yield checked_isometry_from_wall(space, U, M)


def refusal(fn, *args):
    try:
        fn(*args)
    except Exception as exc:        # the class and the message are compared
        return type(exc), str(exc)
    return None


class TestIsometryFromWallAgainstReference:
    """One U B per call, the diagonal read off the polar Gram matrix, and no
    rank test on a Subspace: the same refusals, in the same order, and the
    same isometries as the construction they replaced."""

    FIELDS = [QQ, PrimeField(5)]

    @pytest.mark.parametrize("field", FIELDS)
    def test_refusals_keep_class_and_message(self, field):
        space = diagonal_space(field, [1, 1, -1])
        u, v = (1, 0, 0), (0, 1, 1)          # Q(u) = 1, Q(v) = 0, beta(u, v) = 0
        cases = {
            "dependent rows": ([u, (2, 0, 0)], [[1, 0], [0, 4]]),
            "dependent rows as a Matrix": (Matrix(field, [u, (2, 0, 0)]), [[1, 0], [0, 4]]),
            "chi rows of the wrong length": ([u, v], [[1]]),
            "chi too small": ([u, v], Matrix(field, [[1]])),
            "chi not square": ([u, v], Matrix(field, [[1, 0, 0], [0, 0, 0]])),
            "degenerate chi": ([u, v], [[1, 0], [0, 0]]),
            "first diagonal entry": ([u, v], [[2, 0], [0, 1]]),
            "second diagonal entry": ([u, v], [[1, 1], [-1, 1]]),
            "polar mismatch": ([u, v], [[1, 1], [1, 0]]),
            "polar mismatch on a Subspace": (Subspace(field, 3, [u, v]), [[1, 1], [1, 0]]),
            "degenerate before diagonal": ([u, v], [[2, 0], [0, 0]]),
            "rows of the wrong width": (Matrix(field, [(1, 0)]), [[1]]),
        }
        refused = set()
        for name, (basis, chi) in cases.items():
            expected = refusal(checked_isometry_from_wall, space, basis, chi)
            assert expected is not None, name
            assert refusal(isometry_from_wall, space, basis, chi) == expected, name
            refused.add(expected[0])
        assert {ValueError, ChiQMismatch, DegenerateChi} <= refused

    @pytest.mark.parametrize("field", FIELDS)
    def test_seeded_admissible_pairs(self, field):
        rng = random.Random(2030)
        space = diagonal_space(field, [1, 2, -1, 1])
        for _ in range(25):
            f = random_isometry(space, rng)
            wd = wall_form(f)
            for basis in (wd.subspace, wd.basis, list(wd.subspace.basis)):
                expected = checked_isometry_from_wall(space, basis, wd.chi)
                assert expected == f
                assert isometry_from_wall(space, basis, wd.chi) == expected

    @pytest.mark.parametrize("p,values", [(3, [1, 1, -1, -1]), (5, [1, 1, 1]), (3, [1, 2, 1])])
    def test_enumeration_same_isometries_in_order(self, p, values):
        field = PrimeField(p)
        space = diagonal_space(field, values)
        rng = random.Random(2031 + p)
        subspaces = list(enumerate_subspaces(Subspace.full(field, space.dim)))
        for U in rng.sample(subspaces, 12) + [subspaces[0], subspaces[-1]]:
            assert (list(enumerate_isometries_with_moved_space(space, U))
                    == list(reference_enumerate(space, U)))
