"""Moved/fixed spaces, the Wall form, and the parametrization of isometries.

Every isometry f is pinned down by the pair (Mov(f), chi_f):  Mov(f) is the
image of id - f, and chi_f is the non-degenerate bilinear form on Mov(f)
with chi_f(w - f(w), v) = beta(w, v).  Going back, a pair (W, chi) with chi
non-degenerate and chi(u, u) = Q(u) on W determines a unique isometry; the
construction inverts one m x m matrix and is implemented in closed form as
F = I - U^T X^-T (U B) for a row basis U of W.  In a basis, chi(u, u) = Q(u)
on W reads X + X^T = (U B) U^T, the polar Gram matrix: the diagonal
condition X[i][i] = Q(u_i) is implied by it, since beta(u, u) = 2 Q(u) and
char != 2.  ``isometry_from_wall`` still tests the diagonal first, off the
same matrix X + X^T - (U B) U^T, so that a wrong diagonal entry is reported
as such.  Wall data that is admissible by construction (the candidates of
``enumerate_isometries_with_moved_space``, and the restrictions of a Wall
form to the admissible subspaces of an interval) skips those checks: it
goes to the private ``_from_admissible``, given U B, which builds F and
ends, like the public construction, in the ``Isometry`` form certificate.

The spinor norm is the square class of det(chi_f) in any basis of Mov(f)
(Zassenhaus).  Both it and the Wall form start from one forward
elimination of the displacement D = id - f (``linalg.column_basis``): the
columns J of D that are a basis of Mov(f), and the pivots P of its
canonical basis U.  The column D e_j is e_j - f(e_j), so e_j is its
witness and chi on the basis (D e_j)_(j in J) is (B D)[J][J], B the polar
matrix.  U is C (D[:, J])^T with C = (D[P][J]^T)^-1, because U[:, P] = I,
so chi in U is C (B D)[J][J] C^T and

    det chi_f = det (B D)[J][J] / det D[P][J]^2,

the same rational as the determinant of the canonical Wall form, with no
canonical basis built.  ``wall_form`` builds U as the reduced echelon
basis of the m columns J (the whole space when m = n) and finds its
witnesses on the m x m pivot block D[P][J] alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Subspace, column_basis, image, kernel, restrict_bilinear, solve_all
from .quadspace import DegenerateForm, Isometry

# re-exported: the isometry wrapper lives with the quadratic space
__all__ = [
    "Isometry", "WallData", "DegenerateChi", "ChiQMismatch", "CertificateError",
    "fixed_space", "moved_space", "wall_form", "isometry_from_wall",
    "chi_right_complement", "chi_left_complement", "spinor_norm",
    "check_wall_properties", "CheckReport",
    "enumerate_isometries_with_moved_space",
]


class CertificateError(Exception):
    """A constructed result failed the check that certifies it.

    Raised explicitly rather than by ``assert``, so the check also runs
    under ``python -O``; it signals an internal fault, not bad input.
    """


class DegenerateChi(Exception):
    """The candidate Wall form has determinant zero."""


class ChiQMismatch(Exception):
    """The candidate Wall form does not restrict Q correctly on its space."""


def _displacement(f):
    return Matrix.identity(f.space.field, f.space.dim) - f.matrix


def fixed_space(f) -> Subspace:
    """Fix(f) = ker(id - f)."""
    return kernel(_displacement(f))


def moved_space(f) -> Subspace:
    """Mov(f) = im(id - f); read from the kept Wall form once there is one."""
    if f._wall is not None:
        return f._wall.subspace
    return image(_displacement(f))


class WallData:
    """The moved space Mov(f) with the matrix of chi_f in its canonical basis.

    ``subspace`` is the canonical Subspace of Mov(f) that ``wall_form``
    builds, kept so that coordinates are read off its RREF basis without
    another elimination; ``basis`` is its basis matrix.  The canonical basis
    makes WallData equality meaningful: equal isometries give equal
    WallData.  Vectors of Mov(f) enter the coordinate layer through the one
    coordinate map of the subspace (``Subspace._coordinates``): a vector
    through ``coordinates_of``, and the rows of a matrix, the basis matrix of
    a subspace U say, at once through ``_coord_rows``, which ``restrict``,
    the complements and ``check_wall_properties`` use.  Coordinate rows go
    back to ambient vectors by a product with the basis matrix.
    """

    __slots__ = ("space", "subspace", "chi")

    def __init__(self, space, subspace, chi):
        self.space = space
        self.subspace = subspace
        self.chi = chi if isinstance(chi, Matrix) else Matrix(space.field, chi, cols=subspace.dim)

    @property
    def dim(self):
        return self.subspace.dim

    @property
    def basis(self):
        return self.subspace.basis_matrix()

    def coordinates_of(self, v):
        coords = self.subspace.coordinates_of(v)
        if coords is None:
            raise ValueError("vector is not in the moved space")
        return coords

    def _coord_rows(self, V):
        """The coordinate rows of the rows of the Matrix V, as a Matrix."""
        C = self.subspace._coordinates(V)
        if C is None:
            raise ValueError("vector is not in the moved space")
        return C

    def restrict(self, U):
        """Matrix of chi on the canonical basis of a subspace U of Mov(f)."""
        return restrict_bilinear(self.chi, self._coord_rows(U.basis_matrix()))

    def _complement(self, U, X):
        """{v in Mov : u X v^T = 0 for all u in U}, as an ambient Subspace."""
        coords = kernel(self._coord_rows(U.basis_matrix()) @ X).basis_matrix()
        return Subspace._span(self.space.field, self.space.dim,
                              (coords @ self.basis)._int_form()[0])

    def right_complement(self, U):
        """{v in Mov : chi(u, v) = 0 for all u in U}."""
        return self._complement(U, self.chi)

    def left_complement(self, U):
        """{v in Mov : chi(v, u) = 0 for all u in U}."""
        return self._complement(U, self.chi.transpose())

    def is_symmetric(self):
        return self.chi.is_symmetric()

    def is_alternating(self):
        X = self.chi
        m = X.rows
        return all(not X[i, i] for i in range(m)) and all(
            X[i, j] == -X[j, i] for i in range(m) for j in range(i + 1, m))

    def det(self):
        return self.chi.det()

    def __eq__(self, other):
        if not isinstance(other, WallData):
            return NotImplemented
        return (self.space == other.space and self.subspace == other.subspace
                and self.chi == other.chi)

    def __hash__(self):
        return hash((self.space, self.subspace, self.chi))

    def __repr__(self):
        return "WallData(dim %d in %r)" % (self.dim, self.space)


def wall_form(f) -> WallData:
    """The Wall form of f on the canonical basis of Mov(f).

    With D = id - f (the displacement), one forward elimination finds the
    columns J of D that are a basis of Mov(f) = im(D) and the pivots P of
    its canonical basis U (``linalg.column_basis``).  Mov(f) is the whole
    space when |J| = n, else the span of the columns J.  A witness w_i
    with u_i = w_i - f(w_i) is sought on the span of the e_j (j in J): D
    on it is D[:, J], a basis of Mov(f), so w_i = sum_k y_ik e_(J_k) with
    D[:, J] y_i = u_i, and the rows P decide y_i, since D[P][J] is
    invertible.  So one elimination of the m x m pivot block against
    U[:, P] gives the rows y_i of Y, and chi = W B U^T = Y B[J] U^T, that
    is chi[i][j] = beta(w_i, u_j), with B the polar matrix.  The result
    does not depend on the choice of the w_i.

    Isometries are immutable, so the result is kept in f's ``_wall`` slot
    and later calls return that same WallData.
    """
    if f._wall is not None:
        return f._wall
    space = f.space
    field, n = space.field, space.dim
    D = _displacement(f)
    J, P, _ = column_basis(D)
    mov = Subspace.full(field, n) if len(J) == n else image(D.submatrix(range(n), J))
    U = mov.basis_matrix()
    witnesses = solve_all(D.submatrix(P, J), U.submatrix(range(len(J)), P))
    if witnesses is None:
        raise CertificateError("moved-space vector outside the displacement image")
    Y = Matrix._of(field, tuple(witnesses), len(J))
    f._wall = WallData(space, mov, Y @ space.polar_matrix.submatrix(J, range(n)) @ U.transpose())
    return f._wall


def isometry_from_wall(space, basis, chi) -> Isometry:
    """The unique isometry f with Mov(f) = span(basis) and Wall form chi.

    basis may be a Subspace (its canonical basis is used) or an explicit
    row matrix / list of rows; chi is the matrix of the form in that basis.
    Preconditions: det(chi) != 0, chi[i][i] = Q(u_i), and chi + chi^T equals
    the polar Gram matrix of the basis (together these say chi(u,u) = Q(u)
    on the whole span, char != 2).  Explicit rows must be independent; the
    canonical rows of a Subspace are, so they are not tested.

    U B is computed once, and the polar Gram matrix (U B) U^T from it.  As
    beta(u, u) = 2 Q(u), the diagonal condition reads 2 chi[i][i] =
    beta(u_i, u_i), the diagonal of chi + chi^T - (U B) U^T, whose zero
    test is then the polar condition.  The result is built and certified by
    ``_from_admissible``.
    """
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
    if not isinstance(basis, Subspace) and U.rank() != m:
        raise ValueError("basis rows are linearly dependent")
    if X.rows != m or X.cols != m:
        raise ChiQMismatch("chi must be %dx%d" % (m, m))
    if not X.det():
        raise DegenerateChi("the candidate Wall form is degenerate")
    if U.cols != space.dim:
        raise DegenerateForm("vector of length %d in dimension %d" % (U.cols, space.dim))
    UB = U @ space.polar_matrix
    excess = X + X.transpose() - UB @ U.transpose()
    for i in range(m):
        if excess[i, i]:
            raise ChiQMismatch("diagonal entry %d does not match Q" % i)
    if not excess.is_zero():
        raise ChiQMismatch("chi + chi^T does not match the polar form")
    return _from_admissible(space, U, UB, X)


def _from_admissible(space, U, UB, X):
    """The isometry F = I - U^T X^-T (U B) of Wall data known to be
    admissible: U a row basis matrix, UB = U B, and X a non-degenerate
    Matrix with X + X^T = (U B) U^T.  ``Isometry`` still certifies F."""
    if not U.rows:
        return Isometry.identity(space)
    F = Matrix.identity(space.field, space.dim) - U.transpose() @ X.transpose().inverse() @ UB
    return Isometry(space, F)


def chi_right_complement(wd, U) -> Subspace:
    return wd.right_complement(U)


def chi_left_complement(wd, U) -> Subspace:
    return wd.left_complement(U)


def spinor_norm(f):
    """Square class of det(chi_f); the class of 1 for the identity.

    It reads the kept Wall form when f has one.  Otherwise no canonical
    basis is built: the columns D e_j (j in J, D = id - f) found by one
    forward elimination (``linalg.column_basis``) are a basis of Mov(f)
    with witnesses e_j, so chi on that basis is (B D)[J][J].  The canonical
    basis is C (D[:, J])^T with C = (D[P][J]^T)^-1, so

        det chi_f = det (B D)[J][J] / det D[P][J]^2,

    the very rational that det of the canonical Wall form gives.  For the
    identity J is empty and both determinants are 1.
    """
    space = f.space
    if f._wall is not None:
        return space.field.square_class(f._wall.det())
    D = _displacement(f)
    J, _, minor = column_basis(D)
    chi = space.polar_matrix.submatrix(J, range(space.dim)) @ D.submatrix(range(space.dim), J)
    return space.field.square_class(chi.det() / (minor * minor))


@dataclass
class CheckReport:
    """A check run on ``checked`` cases, with one witness per violation: the
    names of the identities that failed for ``check_wall_properties`` and
    ``order.interval_is_graded_check``, the failing elements for the
    oracle's theorem checks."""

    name: str
    checked: int
    violations: list

    @classmethod
    def of_checks(cls, name, checks):
        """The report of named structural checks, a dict of name -> held."""
        return cls(name, len(checks), [check for check, held in checks.items() if not held])

    @property
    def ok(self):
        return not self.violations

    def failing(self):
        return list(self.violations)

    def to_json_dict(self):
        return {"name": self.name, "checked": self.checked,
                "violations": len(self.violations),
                "witnesses": [str(w) for w in self.violations[:5]]}


def check_wall_properties(f, g) -> CheckReport:
    """Check the five structural identities of chi_f (g drives conjugation):

    (i)   chi(u,v) + chi(v,u) = beta(u,v) on Mov(f);
    (ii)  chi(f(u), v) = -chi(v, u);
    (iii) Mov(f^-1) = Mov(f) and chi_{f^-1}(u,v) = chi_f(v,u);
    (iv)  Mov(g f g^-1) = g(Mov(f)) and chi_{gfg^-1}(g(u), g(v)) = chi_f(u,v);
    (v)   chi_f symmetric iff f is an involution.

    (ii) and (iv) compare matrices: with C_f the coordinate rows of the
    f(u_i), (ii) reads C_f chi = -chi^T; with C the coordinate rows of the
    g(u_i) in the basis of Mov(g f g^-1), (iv) reads C chi_h C^T = chi.
    """
    space = f.space
    wd = wall_form(f)
    checks = {}

    checks["symmetrization_is_polar"] = (
        wd.chi + wd.chi.transpose() == space.polar_gram_on(wd.basis))

    C_f = wd._coord_rows(wd.basis @ f.matrix.transpose())     # the rows f(u_i)
    checks["twist_identity"] = C_f @ wd.chi == -wd.chi.transpose()

    wi = wall_form(f.inverse())
    checks["inverse_transposes"] = (
        wi.subspace == wd.subspace and wi.chi == wd.chi.transpose())

    h = g @ f @ g.inverse()
    wh = wall_form(h)
    g_basis = wd.basis @ g.matrix.transpose()                # the rows g(u_i)
    ok = wh.subspace == Subspace._span(space.field, space.dim, g_basis._int_form()[0])
    if ok:
        ok = restrict_bilinear(wh.chi, wh._coord_rows(g_basis)) == wd.chi
    checks["conjugation_transports"] = ok

    checks["symmetric_iff_involution"] = (wd.is_symmetric() == f.is_involution())
    return CheckReport.of_checks("wall_properties", checks)


def enumerate_isometries_with_moved_space(space, U):
    """All isometries f with Mov(f) exactly U, over a prime field.

    chi is pinned on the diagonal (by Q) and on symmetrized entries (by the
    polar form), so only the strictly-upper entries range over the field;
    non-degenerate choices biject with the isometries.  Every such choice
    meets the diagonal and polar conditions, so U B and the polar Gram
    matrix are computed once per U (``_polar_gram``), each candidate chi is
    written straight into its residue rows, and it goes to
    ``_from_admissible`` (``_wall_candidates``).
    """
    if U.dim == 0:
        yield Isometry.identity(space)
        return
    basis = U.basis_matrix()
    yield from _wall_candidates(space, basis, *_polar_gram(space, basis))


def _polar_gram(space, basis):
    """U B and the residues of the polar Gram matrix (U B) U^T, for the row
    basis U of a nonzero subspace over a prime field."""
    UB = basis @ space.polar_matrix
    return UB, (UB @ basis.transpose())._int_form()[0]


def _wall_candidates(space, basis, UB, bgram):
    """The isometries whose moved space has the row basis U = ``basis``,
    given U B and the residues ``bgram`` of its polar Gram matrix."""
    import itertools

    field = space.field
    p, k = field.p, basis.rows
    half = (p + 1) // 2                                 # the inverse of 2 mod p
    qdiag = [bgram[i][i] * half % p for i in range(k)]  # Q(u_i) = beta(u_i, u_i) / 2
    positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for assignment in itertools.product(range(p), repeat=len(positions)):
        X = [[0] * k for _ in range(k)]
        for i in range(k):
            X[i][i] = qdiag[i]
        for (i, j), t in zip(positions, assignment):
            X[i][j] = t
            X[j][i] = (bgram[i][j] - t) % p
        M = Matrix._of_int(field, X, 1, k)
        if not M.det():
            continue
        yield _from_admissible(space, basis, UB, M)
