"""The signature-(n, 1) specialization over the rationals.

With the form x_1^2 + ... + x_n^2 - x_{n+1}^2, the positive isometries are
exactly the maps fixing the upper hyperboloid sheet, every positive isometry
factors into exactly dim Mov(f) positive reflections, and the interval below
f in the positive order is the poset of subspaces U of Mov(f) with
det(chi_f|_U) > 0.  Isometries classify as elliptic, parabolic or hyperbolic
by the definiteness of the moved space (equivalently of the fixed space);
classification here computes both and insists they agree.

The model field is the rationals, not the reals: every argument used is
either a signature count or a square-density search, both of which are
exact over Q.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .factor import Factorization
from .field import QQ
from .linalg import Matrix, Subspace, kernel, solve, subspace_intersection, vec_scale
from .positive import is_positive_isometry
from .quadspace import Isometry, QuadraticSpace, diagonal_space
from .wall import (CertificateError, fixed_space, isometry_from_wall, moved_space,
                   wall_form)


class NotPositive(Exception):
    """The isometry does not fix hyperbolic space (negative spinor norm)."""


class HyperbolicClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def lorentz_space(n) -> QuadraticSpace:
    """The rational quadratic space of signature (n, 1), dimension n + 1."""
    if n < 1:
        raise ValueError("hyperbolic space needs n >= 1")
    return diagonal_space(QQ, [1] * n + [-1])


def is_lorentz(space) -> bool:
    if not space.field.is_ordered:
        return False
    pos, neg, zero = space.inertia()
    return zero == 0 and neg == 1 and pos == space.dim - 1


def _require_lorentz(space):
    if not is_lorentz(space):
        raise ValueError("the operation needs a space of signature (n, 1)")


def fixes_hyperbolic_space(f) -> bool:
    """Whether f maps the upper hyperboloid sheet to itself."""
    _require_lorentz(f.space)
    return is_positive_isometry(f)


def classify(f) -> HyperbolicClass:
    """Elliptic / parabolic / hyperbolic, via the moved space.

    Cross-checked against the fixed-space criterion; the two must agree on a
    Lorentz space, and a disagreement raises CertificateError.
    """
    space = f.space
    _require_lorentz(space)
    if not is_positive_isometry(f):
        raise NotPositive("only positive isometries act on hyperbolic space")
    pos, neg, zero = space.inertia(moved_space(f))
    if neg == 0 and zero == 0:
        by_mov = HyperbolicClass.ELLIPTIC
    elif neg == 0:
        by_mov = HyperbolicClass.PARABOLIC
    else:
        by_mov = HyperbolicClass.HYPERBOLIC

    fpos, fneg, fzero = space.inertia(fixed_space(f))
    if fneg > 0:
        by_fix = HyperbolicClass.ELLIPTIC
    elif fzero > 0:
        by_fix = HyperbolicClass.PARABOLIC
    else:
        by_fix = HyperbolicClass.HYPERBOLIC

    if by_mov != by_fix:
        raise CertificateError("moved-space and fixed-space classifications disagree")
    return by_mov


def hyperbolic_positive_factorization(f) -> Factorization:
    """Exactly dim Mov(f) positive reflections multiplying to f.

    While the moved space has dimension at least two, it meets the
    coordinate hyperplane x_{n+1} = 0 non-trivially; any nonzero vector v
    there is positive.  Splitting Mov(g) at the line of v gives r_v (the one
    isometry with that moved line and chi = Q(v)) times the rest, so the
    rest is r_v g: one rank-one reflection update and one product, with no
    Wall split.  Each peel is certified by r_v (r_v g) = g and by the moved
    space losing exactly one dimension; the end result by its product, the
    positivity of its vectors and its length.  Every check raises
    CertificateError, so they also run under ``python -O``.
    """
    space = f.space
    _require_lorentz(space)
    if not is_positive_isometry(f):
        raise NotPositive("only positive isometries factor positively here")
    field, n = space.field, space.dim
    mov = moved_space(f)
    mov_dim = mov.dim
    vectors = []
    g = f
    while mov.dim:
        if mov.dim == 1:
            u = mov.basis[0]
            if not space.field.is_positive(space.q_value(u)):
                raise CertificateError("the moved line of a positive isometry is not positive")
            vectors.append(u)
            break
        # the coordinates a with sum a_i b_i[-1] = 0 on the basis rows b_i,
        # mapped back by the basis matrix B
        B = mov.basis_matrix()
        last = B.submatrix(range(mov.dim), [n - 1]).transpose()
        meet = Subspace._span(field, n, (kernel(last).basis_matrix() @ B)._int_form()[0])
        if meet.dim < mov.dim - 1:
            raise CertificateError("the moved space meets x_{n+1} = 0 in dimension %d, "
                                   "expected at least %d" % (meet.dim, mov.dim - 1))
        v = meet.basis[0]
        if not space.field.is_positive(space.q_value(v)):
            raise CertificateError("a vector with x_{n+1} = 0 is not positive")
        r = space.reflection(v)
        rest = r @ g
        if r @ rest != g:
            raise CertificateError("the peeled reflection and the rest do not multiply back")
        vectors.append(v)
        g = rest
        peeled = moved_space(g)
        if peeled.dim != mov.dim - 1:
            raise CertificateError("peeling a reflection left a moved space of dimension %d, "
                                   "expected %d" % (peeled.dim, mov.dim - 1))
        mov = peeled
    fact = Factorization(space, vectors, target=f)
    if not fact.is_positive():
        raise CertificateError("a reflecting vector of the factorization has Q(v) <= 0")
    if len(fact) != mov_dim:
        raise CertificateError("the factorization has %d reflections, dim Mov(f) is %d"
                               % (len(fact), mov_dim))
    return fact


def interval_subspace_test(f, U) -> bool:
    """det(chi_f|_U) > 0; U must sit inside Mov(f).  Empty determinant is 1."""
    wd = wall_form(f)
    if not U.is_contained_in(wd.subspace):
        raise ValueError("the subspace is not contained in the moved space")
    if U.dim == 0:
        return True
    return wd.restrict(U).det() > 0


def interval_membership(g, f) -> bool:
    """Whether g lies in [id, f] within the positive-order interval.

    Holds exactly when Mov(g) is a subspace of Mov(f), the Wall form of g is
    the restriction of the Wall form of f, and that restriction has positive
    determinant.
    """
    space = f.space
    _require_lorentz(space)
    if g.space != space:
        raise ValueError("isometries of different spaces")
    if not is_positive_isometry(f) or not is_positive_isometry(g):
        raise NotPositive("interval membership lives inside the positive group")
    wf = wall_form(f)
    movg = moved_space(g)
    if not movg.is_contained_in(wf.subspace):
        return False
    restriction = wf.restrict(movg)
    if wall_form(g).chi != restriction:
        return False
    if movg.dim == 0:
        return True
    return restriction.det() > 0


@dataclass
class IntervalDescription:
    """Which subspaces of Mov(f) appear in the interval below f.

    Elliptic: every subspace.  Parabolic: everything except the sandwiches
    line <= U <= hyperplane around the fixed singular line.  Hyperbolic: no
    simplification, the determinant criterion itself.
    """

    kind: HyperbolicClass
    mov_dim: int
    isometry: object
    fixed_line: tuple | None = None
    hyperplane: Subspace | None = None

    def admits(self, U) -> bool:
        if self.kind == HyperbolicClass.ELLIPTIC:
            wd = wall_form(self.isometry)
            if not U.is_contained_in(wd.subspace):
                raise ValueError("the subspace is not contained in the moved space")
            return True
        if self.kind == HyperbolicClass.PARABOLIC:
            line = Subspace(U.field, U.ambient_dim, [self.fixed_line])
            sandwiched = line.is_contained_in(U) and U.is_contained_in(self.hyperplane)
            return not sandwiched
        return interval_subspace_test(self.isometry, U)


def parabolic_interval_description(f) -> IntervalDescription:
    """The simplified membership record for the interval below f.

    The checks on the fixed line and its hyperplane raise CertificateError,
    so they also run under ``python -O``.
    """
    kind = classify(f)
    mov = moved_space(f)
    if kind != HyperbolicClass.PARABOLIC:
        return IntervalDescription(kind, mov.dim, f)
    space = f.space
    fix = fixed_space(f)
    line = subspace_intersection(fix, mov)
    if line.dim != 1 or not space.is_totally_singular(line):
        raise CertificateError("a parabolic isometry fixes exactly one singular line "
                               "of its moved space")
    v = line.basis[0]
    # points at infinity are projective: normalize the last coordinate to 1
    if v[-1]:
        v = vec_scale(space.field.one / v[-1], v)
    wd = wall_form(f)
    hyperplane = wd.right_complement(Subspace(space.field, space.dim, [v]))
    # the right complement of the line is the polar hyperplane of any
    # displacement witness w with w - f(w) = v, intersected with Mov(f)
    D = Matrix.identity(space.field, space.dim) - f.matrix
    w = solve(D, v)
    if w is None:
        raise CertificateError("the fixed line of a parabolic isometry is not a displacement")
    w_perp = space.orthogonal_complement(Subspace(space.field, space.dim, [w]))
    if hyperplane != subspace_intersection(w_perp, mov):
        raise CertificateError("the right complement of the fixed line is not the polar "
                               "hyperplane of its displacement witness")
    return IntervalDescription(kind, mov.dim, f, fixed_line=v, hyperplane=hyperplane)


# ---------------------------------------------------------------------------
# explicit builders, used by the demos and the test-bed

def elliptic_example(space, c="3/5", s="4/5"):
    """A rotation in the first two spatial coordinates; needs c^2 + s^2 = 1."""
    _require_lorentz(space)
    c, s = space.field(c), space.field(s)
    if c * c + s * s != space.field.one:
        raise ValueError("(c, s) must be a rational point on the unit circle")
    rows = [[space.field.one if i == j else space.field.zero
             for j in range(space.dim)] for i in range(space.dim)]
    rows[0][0], rows[0][1] = c, -s
    rows[1][0], rows[1][1] = s, c
    return Isometry(space, rows)


def hyperbolic_example(space, ch="5/3", sh="4/3"):
    """A boost in the (x_1, x_{n+1}) plane; needs ch^2 - sh^2 = 1."""
    _require_lorentz(space)
    ch, sh = space.field(ch), space.field(sh)
    if ch * ch - sh * sh != space.field.one:
        raise ValueError("(ch, sh) must be a rational point on the unit hyperbola")
    n = space.dim
    rows = [[space.field.one if i == j else space.field.zero
             for j in range(n)] for i in range(n)]
    rows[0][0], rows[0][n - 1] = ch, sh
    rows[n - 1][0], rows[n - 1][n - 1] = sh, ch
    return Isometry(space, rows)


def parabolic_example(space, t=1):
    """A parabolic isometry moving the plane spanned by a null vector and e_2.

    Built through the Wall parametrization: on the span of s = e_1 + e_{n+1}
    and e_2 (positive semi-definite, not definite), the matrix
    [[0, t], [-t, 1]] satisfies the diagonal and symmetrization constraints
    for every t != 0 and has determinant t^2 > 0.
    """
    _require_lorentz(space)
    if space.dim < 3:
        raise ValueError("parabolic isometries need n >= 2")
    t = space.field(t)
    if not t:
        raise ValueError("t must be nonzero")
    one, zero = space.field.one, space.field.zero
    s = tuple(one if i in (0, space.dim - 1) else zero for i in range(space.dim))
    e2 = space.standard_basis(1)
    chi = [[zero, t], [-t, one]]
    return isometry_from_wall(space, [s, e2], chi)
