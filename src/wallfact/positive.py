"""Factorizations into positive reflections over the rationals.

A reflection is positive when its vector has Q(v) > 0; an isometry is
positive when its spinor norm is a positive square class.  Positive
isometries factor into positive reflections, with length dim Mov(f) exactly
when Mov(f) is positive definite or f is a non-involution whose moved space
contains a positive vector; otherwise two extra reflections are needed.

Positive bases start with one ``factor.triangular_step`` at the first
positive vector of ``factor.small_vectors``, with the LLL-reduced complement
and the repair scalar chi(v, u) (1 if it vanishes), which keeps the first
square positive; ``factor.triangular_rows`` completes the basis on the form
on that complement.  ``_positive_route`` is the one rule
behind both the route of a positive factorization and its length.

The constructive core: a triangular basis of chi consisting of positive
vectors, built by induction.  The three-dimensional step finds an
orthogonal pair of positive vectors in a non-symmetric form; the inductive
step tries that pair as a probe u and, only if the right complement of u
carries a symmetric restriction, builds perturbations of the pair into
every coordinate direction (keeping positivity and orthogonality) and tries
them until one complement is non-symmetric; it recurses on that
restriction.

The induction needs some basis of each right complement, not a particular
one: non-symmetry, the sign of the determinant and the triangular property
of the vectors found in the complement do not depend on the basis, and
those vectors are mapped back through it.  So every complement here is the
integer lattice {y : a . y = 0}, a the row u X scaled to integers, with an
LLL-reduced basis (``lattice.kernel_basis``).  Its short rows keep the
restricted forms C X C^T small, where an echelon basis of the complement
roughly doubles their coefficient size at every level of the induction.

All comparisons are exact rational arithmetic; square density of the
rationals enters only through the integer square search of
rational_square_in_interval.  The internal checks of the construction
raise CertificateError, so they also run under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .factor import (CertificateError, Factorization, form_row, small_vectors, triangular_basis,
                     triangular_rows, triangular_step, _unit)
from .field import UnorderedField, rational_square_in_interval
from .lattice import kernel_basis
from .linalg import (Matrix, Subspace, bilinear_value, combine, kernel, restrict_bilinear, solve,
                     subspace_intersection, vec_add, vec_scale, _int_row)
from .quadspace import lagrange_diagonalize
from .wall import fixed_space, moved_space, wall_form


class NegativeSpinor(Exception):
    """The isometry is not positive, so no positive factorization exists."""


class NoPositiveVector(Exception):
    """chi(u, u) <= 0 everywhere on the space in question."""


class SymmetricChi(Exception):
    """The construction needs a non-symmetric form."""


class NegativeDeterminant(Exception):
    """A positive triangular basis forces det(chi) > 0."""


@dataclass
class PositivityReport:
    """How an isometry sits relative to the positive-reflection machinery."""

    spinor_positive: bool
    mov_definiteness: object
    is_involution: bool
    positive_length: int | None


def is_positive_isometry(f) -> bool:
    """Whether the spinor norm of f is a positive square class: the sign of
    det(chi_f) decides it, with no factoring."""
    if not f.space.field.is_ordered:
        raise UnorderedField("square classes of %r carry no sign" % f.space.field)
    return f.is_identity() or wall_form(f).det() > 0


def positivity_report(f) -> PositivityReport:
    positive = is_positive_isometry(f)
    mov = moved_space(f)
    return PositivityReport(
        spinor_positive=positive,
        mov_definiteness=f.space.definiteness(mov),
        is_involution=f.is_involution(),
        positive_length=positive_reflection_length(f) if positive else None,
    )


# ---------------------------------------------------------------------------
# finding vectors of positive square, exactly

def positive_vector_for(X):
    """Coordinates of some u with X(u, u) > 0, or None when none exists.

    Takes the first positive small vector (``factor.small_vectors``); if
    there is none, diagonalizes the symmetrized form, which decides
    existence exactly.
    """
    u = next((v for v, value in small_vectors(X) if value > 0), None)
    if u is not None:
        return u
    field = X.field
    half = field.one / field(2)
    sym = (X + X.transpose()).scale(half)
    diag, C = lagrange_diagonalize(sym)
    for d, row in zip(diag, C.entries):
        if d > 0:
            return tuple(row)
    return None


def _certify(condition, message):
    """An internal check that also runs under python -O."""
    if not condition:
        raise CertificateError(message)


def reduced_right_complement_rows(X, u):
    """An LLL-reduced basis of the integer rows y with u X y^T = 0 (over Q).

    The row u X is scaled to integers over the lcm of its denominators, which
    leaves its kernel unchanged; the reduced kernel rows come back as
    Fractions.  Any basis of the complement serves the constructions here,
    and a short integer one keeps the restricted forms small.
    """
    a, _ = _int_row(form_row(X, u))
    return tuple(tuple(map(Fraction, y)) for y in kernel_basis(a))


def reduced_left_complement_rows(X, u):
    """An LLL-reduced basis of the integer rows y with y X u^T = 0 (over Q)."""
    return reduced_right_complement_rows(X.transpose(), u)


def _positive_repair(X, u, v):
    """chi(v, u), or 1 if it vanishes: u + a v has square chi(u, u) + a chi(v, u) > 0."""
    vu = bilinear_value(X, v, u)
    return vu if vu else X.field.one


def basis_with_one_positive_vector(X):
    """Triangular basis whose first vector has positive square.

    One ``factor.triangular_step`` from a positive vector, with the
    LLL-reduced complement and the positive repair, then
    ``factor.triangular_rows`` on the form on that complement.
    """
    if not X.field.is_ordered:
        raise TypeError("positive bases need an ordered field")
    if X.rows == 0:
        return []
    if not X.det():
        raise ValueError("basis search on a degenerate form")
    u = positive_vector_for(X)
    if u is None:
        raise NoPositiveVector("chi(u, u) <= 0 on the whole space")
    if X.rows == 1:
        return [u]
    u, R, XR, wit = triangular_step(X, u, reduced_right_complement_rows, _positive_repair)
    return [u, *combine(X.field, triangular_rows(XR, wit), R, X.rows)]


# ---------------------------------------------------------------------------
# the three-dimensional orthogonal positive pair

@dataclass
class PositivePair:
    v1: tuple
    v2: tuple
    case: str


def _checked_pair(X, v1, v2, case):
    _certify(bilinear_value(X, v1, v1) > 0, "first vector not positive")
    _certify(bilinear_value(X, v2, v2) > 0, "second vector not positive")
    _certify(not bilinear_value(X, v1, v2), "pair not right-orthogonal")
    return PositivePair(v1, v2, case)


def orthogonal_positive_pair_3d(X) -> PositivePair:
    """Two positive vectors v1, v2 with chi(v1, v2) = 0 in a 3x3 form.

    Requires a non-degenerate, non-symmetric form with at least one positive
    vector.  The construction distinguishes the shape of the form on the
    right complement of the first positive basis vector: a null second
    vector leads to the two explicit combinations of the zero-sum and
    nonzero-sum subcases; a negative one leads to a rational q found either
    directly or by a square search in an explicit interval.
    """
    field = X.field
    if X.rows != 3:
        raise ValueError("the pair construction is three-dimensional")
    if X.is_symmetric():
        raise SymmetricChi("the pair construction needs a non-symmetric form")
    if not X.det():
        raise ValueError("pair construction on a degenerate form")
    u = positive_vector_for(X)
    if u is None:
        raise NoPositiveVector("chi(u, u) <= 0 on the whole space")
    e1, right, _, wit = triangular_step(X, u, reduced_right_complement_rows, _positive_repair)
    left = reduced_left_complement_rows(X, e1)
    both = subspace_intersection(Subspace(field, 3, right), Subspace(field, 3, left))
    _certify(both.dim >= 1, "the two complements of the first vector meet in zero")
    e2 = both.basis[0]
    d2 = bilinear_value(X, e2, e2)
    if d2 > 0:
        return _checked_pair(X, e1, e2, "immediate")

    if not d2:
        # second vector is null; take the non-null direction of the right
        # complement that the triangular step found
        (e3,) = combine(field, [wit], right, 3)
        t3 = bilinear_value(X, e3, e3)
        if t3 > 0:
            return _checked_pair(X, e1, e3, "immediate")
        gamma = bilinear_value(X, e1, e1)
        delta = -t3
        a = bilinear_value(X, e3, e1)
        b = bilinear_value(X, e3, e2)
        c = bilinear_value(X, e2, e3)
        _certify(b and c, "degenerate middle block")
        if not a:
            # chi(e3, e1) = 0 puts e3 in both complements; restart the
            # negative-second-vector route with it
            return _case_negative(X, e1, e3)
        if b + c:
            return _checked_pair(X, e1, vec_add(vec_scale(2 * delta, e2), vec_scale(b + c, e3)),
                                 "case1-nonzero-sum")
        v1 = vec_add(vec_scale(a * b, e1), vec_scale(gamma * delta, e2))
        v2 = vec_add(vec_scale(delta, e1), vec_scale(a, e3))
        return _checked_pair(X, v1, v2, "case1-zero-sum")

    return _case_negative(X, e1, e2)


def _case_negative(X, e1, e2):
    """The route where the two-sided complement vector has negative square."""
    field = X.field
    gamma = bilinear_value(X, e1, e1)
    delta = -bilinear_value(X, e2, e2)
    _certify(delta > 0, "the second vector is not negative")
    plane_comp = kernel(Matrix._of(field, (form_row(X, e1), form_row(X, e2)), 3))
    _certify(plane_comp.dim == 1, "the two rows of the plane complement are dependent")
    e3 = plane_comp.basis[0]
    t = bilinear_value(X, e3, e3)
    _certify(t, "degenerate form: null vector right-orthogonal to everything")
    if t > 0:
        return _checked_pair(X, e1, e3, "immediate")
    eps = -t
    a = bilinear_value(X, e3, e1)
    b = bilinear_value(X, e3, e2)
    _certify(a or b, "diagonal form is symmetric")
    if b * b >= 4 * delta * eps:
        q0 = delta / gamma + 1
        case = "case2-large-b"
    else:
        hi = (1 + a * a / (4 * gamma * eps)) / (1 - b * b / (4 * delta * eps)) * (delta / gamma)
        q0 = rational_square_in_interval(delta / gamma, hi)
        case = "case2-square-search"
    q = q0 if a * b >= 0 else -q0
    v1 = vec_add(vec_scale(q, e1), e2)
    v2 = vec_add(vec_add(e1, vec_scale(gamma / delta * q, e2)),
                 vec_scale((a + gamma / delta * b * q) / (2 * eps), e3))
    return _checked_pair(X, v1, v2, case)


# ---------------------------------------------------------------------------
# perturbation lemmas

def perturb_orthogonal_pair(X, v1, v2, u):
    """A vector w with chi(v1 + a u, v2 + a w) = 0 for every scalar a.

    The three coefficient identities hold exactly: chi(v1, v2) = 0 is given,
    w is solved from chi(u, v2) + chi(v1, w) = 0 and chi(u, w) = 0.  When u
    is a multiple of v1, w = 0 works.
    """
    field = X.field
    m = X.rows
    _certify(not bilinear_value(X, v1, v2), "input pair is not orthogonal")
    if Matrix(field, [v1, u], cols=m).rank() <= 1:
        return tuple(field.zero for _ in range(m))
    rows = (form_row(X, v1), form_row(X, u))
    rhs = (-bilinear_value(X, u, v2), field.zero)
    w = solve(Matrix._of(field, rows, m), rhs)
    _certify(w is not None, "perturbation system is always solvable for independent v1, u")
    return w


def perturb_positive_vector(X, v, u):
    """A threshold d > 0 with chi(v + a u, v + a u) > 0 whenever |a| < d.

    Uses d = min(1, chi(v, v) / (3 M)) with M the largest magnitude among
    chi(u, v), chi(v, u), chi(u, u) and 1: each of the three non-leading
    terms of the expansion stays below chi(v, v)/3 in absolute value.
    """
    cv = bilinear_value(X, v, v)
    _certify(cv > 0, "the vector to perturb must be positive")
    M = max(abs(bilinear_value(X, u, v)), abs(bilinear_value(X, v, u)),
            abs(bilinear_value(X, u, u)), Fraction(1))
    return min(Fraction(1), Fraction(cv) / (3 * M))


# ---------------------------------------------------------------------------
# the full positive triangular basis

def positive_basis(X):
    """Triangular basis with chi(e_i, e_i) > 0 throughout.

    Requires chi non-degenerate with det(chi) > 0, not symmetric, and at
    least one positive vector.
    """
    field = X.field
    if not field.is_ordered:
        raise TypeError("positive bases need an ordered field")
    m = X.rows
    if m == 0:
        return []
    if positive_vector_for(X) is None:
        raise NoPositiveVector("chi(u, u) <= 0 on the whole space")
    d = X.det()
    if not d:
        raise ValueError("positive basis of a degenerate form")
    if d < 0:
        raise NegativeDeterminant("det(chi) < 0 rules out a positive triangular basis")
    # dimension 1 is the trivial base of the induction and always symmetric;
    # from dimension 2 on, symmetric forms belong to the plain triangular
    # route (they only work out when positive definite)
    if m >= 2 and X.is_symmetric():
        raise SymmetricChi("a symmetric form has no positive triangular basis "
                           "unless it is positive definite")
    return _positive_basis_rec(X)


def _probes(X, v1, v2):
    """The pair (v1, v2), then the perturbed pairs (v1 + a e_k, v2 + a w_k).

    The perturbed pairs, with their partners w_k and the common step a, are
    built only when the caller asks for more than the first pair, that is
    after the unperturbed probe was rejected.
    """
    yield v1, v2
    field = X.field
    m = X.rows
    units = [_unit(field, m, k) for k in range(m)]
    partners = [perturb_orthogonal_pair(X, v1, v2, e) for e in units]
    deltas = [perturb_positive_vector(X, v1, e) for e in units]
    deltas += [perturb_positive_vector(X, v2, w) for w in partners]
    a = min(deltas) / 2
    for e, w in zip(units, partners):
        yield vec_add(v1, vec_scale(a, e)), vec_add(v2, vec_scale(a, w))


def _positive_basis_rec(X):
    """The induction of positive_basis on a form X with a positive basis.

    Dimensions 1 and 2 are direct.  From dimension 3 on, a positive,
    right-orthogonal pair (v1, v2) comes from a three-dimensional
    restriction.  The first probe is u = v1 itself; only when its right
    complement carries a symmetric form are the perturbed probes
    u = v1 + a e_k built (with partner v2 + a w_k, still positive and
    orthogonal for the small a chosen), and they run through the coordinate
    directions until the right complement of u carries a non-symmetric
    form.  Its determinant has the sign of det X, since
    X(u, u) > 0 and the basis (u, complement) is block triangular for X.
    The recursion on that complement may use any of its bases: the one
    taken is an LLL-reduced integer kernel basis, so the recursive form
    C X C^T stays small, and the vectors it returns are mapped back through
    C to coordinates of X.
    """
    field = X.field
    m = X.rows
    if m == 1:
        _certify(X[0, 0] > 0, "a positive form of dimension 1 has a positive entry")
        return [_unit(field, 1, 0)]
    if m == 2:
        rows = basis_with_one_positive_vector(X)
        _certify(bilinear_value(X, rows[1], rows[1]) > 0,
                 "det > 0 forces the second square positive")
        return rows
    basis = basis_with_one_positive_vector(X)
    T = restrict_bilinear(X, basis)
    pick = None
    for r in range(1, m):
        for c in range(r):
            if T[r, c]:
                pick = (r, c)
                break
        if pick:
            break
    _certify(pick is not None, "triangular and symmetric would be diagonal")
    r, c = pick
    if c == 0:
        i, j = (1, r) if r >= 2 else (1, 2)
    else:
        i, j = c, r
    sub_rows = [basis[0], basis[i], basis[j]]
    X3 = restrict_bilinear(X, sub_rows)
    pair = orthogonal_positive_pair_3d(X3)
    v1, v2 = combine(field, [pair.v1, pair.v2], sub_rows, m)

    for u, partner in _probes(X, v1, v2):
        R = reduced_right_complement_rows(X, u)
        XR = restrict_bilinear(X, R)
        if XR.is_symmetric():
            continue
        _certify(bilinear_value(X, u, u) > 0, "the probe is not positive")
        _certify(bilinear_value(X, partner, partner) > 0, "the probe's partner is not positive")
        _certify(not bilinear_value(X, u, partner), "the probe and its partner are not orthogonal")
        _certify(XR.det() > 0, "sign of the complement determinant must stay positive")
        return [u, *combine(field, _positive_basis_rec(XR), R, m)]
    raise CertificateError("every probe had a symmetric complement; "
                           "impossible for a non-symmetric form in dimension >= 3")


# ---------------------------------------------------------------------------
# positive reflection length and factorization

def _positive_route(f):
    """(route, positive length) of f: "definite" (Mov(f) positive definite,
    or f = id) and "positive_basis" (a non-involution with a positive vector
    in Mov(f)) take dim Mov(f); "prepend" (Mov(f) negative semi-definite)
    and "peel" (an involution with indefinite Mov(f)) take dim Mov(f) + 2."""
    if not is_positive_isometry(f):
        raise NegativeSpinor("the isometry has negative spinor norm")
    if f.is_identity():
        return "definite", 0
    space = f.space
    amb_pos, _, _ = space.inertia()
    if amb_pos == 0:
        raise ValueError("a negative definite space has no positive reflections")
    mov = moved_space(f)
    pos, neg, zero = space.inertia(mov)
    if neg == 0 and zero == 0:
        return "definite", mov.dim
    if not f.is_involution() and pos > 0:
        return "positive_basis", mov.dim
    return ("prepend" if pos == 0 else "peel"), mov.dim + 2


def positive_reflection_length(f) -> int:
    """Minimal number of positive reflections multiplying to f."""
    return _positive_route(f)[1]


def _positive_vector_outside_fix(f):
    """A vector with Q(v) > 0 not fixed by f; exists whenever f != id."""
    space = f.space
    fix = fixed_space(f)
    v = next((v for v, q in small_vectors(space.gram) if q > 0 and not fix.contains(v)), None)
    if v is not None:
        return v
    diag, C = lagrange_diagonalize(space.gram)
    v0 = next(tuple(row) for d, row in zip(diag, C.entries) if d > 0)
    if not fix.contains(v0):
        return v0
    u = next(space.standard_basis(i) for i in range(space.dim)
             if not fix.contains(space.standard_basis(i)))
    a = perturb_positive_vector(space.gram, v0, u) / 2
    v = vec_add(v0, vec_scale(a, u))
    _certify(space.field.is_positive(space.q_value(v)) and not fix.contains(v),
             "the perturbed vector is not positive or is fixed")
    return v


def positive_factorization(f) -> Factorization:
    """A shortest factorization of f into positive reflections.

    Four routes: a positive definite moved space takes any triangular basis
    of the Wall form (its diagonal is Q, hence positive); a non-involution
    with a positive vector in its moved space takes a positive triangular
    basis; a negative semi-definite moved space first prepends one positive
    reflection through a vector outside Fix(f), which makes the Wall form of
    the product non-symmetric; an involution with indefinite moved space
    peels positive directions until the moved space is negative definite.
    """
    route, _ = _positive_route(f)
    space = f.space
    field, n = space.field, space.dim
    wd = wall_form(f)
    if route == "definite":
        vectors = combine(field, triangular_basis(wd.chi), wd.basis, n)
    elif route == "positive_basis":
        vectors = combine(field, positive_basis(wd.chi), wd.basis, n)
    elif route == "prepend":
        v = _positive_vector_outside_fix(f)
        wg = wall_form(space.reflection(v) @ f)
        _certify(not wg.is_symmetric(), "a non-fixed direction forces non-symmetry")
        vectors = (v, *combine(field, positive_basis(wg.chi), wg.basis, n))
    else:
        (u,) = combine(field, [positive_vector_for(wd.chi)], wd.basis, n)
        vectors = (u, *positive_factorization(space.reflection(u) @ f).vectors)
    fact = Factorization(space, vectors, target=f)
    if not fact.is_positive():
        raise CertificateError("a reflecting vector of the factorization has Q(v) <= 0")
    length = positive_reflection_length(f)
    if len(fact) != length:
        raise CertificateError("the factorization has %d reflections, the positive length is %d"
                               % (len(fact), length))
    return fact


def positive_less_equal(g, f) -> bool:
    """The positive-reflection order: l+(g) + l+(g^-1 f) = l+(f)."""
    if g.space != f.space:
        raise ValueError("isometries of different spaces")
    if not is_positive_isometry(g) or not is_positive_isometry(f):
        raise NegativeSpinor("the positive order compares positive isometries")
    return (positive_reflection_length(g)
            + positive_reflection_length(g.inverse() @ f)
            == positive_reflection_length(f))
