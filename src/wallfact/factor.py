"""Reflection length and minimal reflection factorizations.

The length of f is dim Mov(f) when Mov(f) carries a non-singular vector and
dim Mov(f) + 2 when Mov(f) is totally singular.  Minimal factorizations come
from a triangular basis of the Wall form: chi(e_i, e_i) != 0 with zeros
above the diagonal peels f into reflections r_{e_1} ... r_{e_m} one split at
a time.  In the totally singular case one auxiliary reflection is prepended
first.  ``reflection_distance(g, h)`` = l(g^-1 h) is the one length rule.
It reads m = dim im(g - h) off one forward elimination
(``linalg.column_basis``), with the columns J of g - h that are a basis of
the image, and builds no canonical basis.  A totally singular W lies in
W^perp, so 2 dim W <= n for the non-degenerate form (the Witt bound): only
when 2m <= n is the Gram matrix of the m columns J tested for zero.

``triangular_rows`` is the one triangular-basis routine: each level takes
the right complement of its vector u in the reduced echelon basis
e_j - (w_j / w_q) e_q (w = u X, q the last index with w_q != 0) and the
form on it by one rank-one update of the kernel form
(``linalg.RightComplement``), O(m^2) per level and O(m^3) in all, with no
matrix product; the rows found below map back in O(m) each.  When the
complement is alternating, u is repaired to u + a v for the first basis row
v with X(v, u) != 0 (else the first row) and the first scalar a of 1, -1, 2
(of 1, ..., p - 1 over F_p) that keeps the square of u + a v nonzero.
``triangular_step`` is one level with a given complement and repair;
positive bases take it with an LLL-reduced complement at their first level.
``small_vectors`` is the one scan of e_i, e_i + e_j and e_i - e_j; each
vector finder takes its first hit, and ``nonalternating_witness`` reads
that hit off the kernel form of X + X^T.

A Factorization with a target is certified on construction: its word,
multiplied out by rank-one updates (``linalg.reflection_product``), must
equal the whole target matrix, or ProductMismatch is raised.  Q(v) != 0 is
checked by that product, which computes each Q(v); without a target, by
``q_value`` on the integer form of the Gram matrix.
"""

from __future__ import annotations

from .linalg import (Matrix, RightComplement, bilinear_value, column_basis, combine,
                     reflection_product, restrict_bilinear, vec_add, vec_scale)
from .quadspace import Isometry, SingularVector
from .wall import CertificateError, isometry_from_wall, moved_space, wall_form


class AlternatingForm(Exception):
    """chi(u, u) = 0 everywhere; no triangular basis exists."""


class DegenerateRestriction(Exception):
    """The Wall form restricts degenerately to the requested subspace."""


class ProductMismatch(CertificateError, ValueError):
    """A reflection word does not multiply to its target isometry."""


class Factorization:
    """An ordered list of reflecting vectors whose product is a known isometry."""

    __slots__ = ("space", "vectors")

    def __init__(self, space, vectors, target=None):
        vectors = tuple(space.vector(v) for v in vectors)
        self.space = space
        self.vectors = vectors
        if target is None:
            if not all(map(space.q_value, vectors)):
                raise SingularVector("factorization vector with Q(v) = 0")
            return
        try:
            product = self.product()
        except ZeroDivisionError:
            raise SingularVector("factorization vector with Q(v) = 0") from None
        if product != target:
            raise ProductMismatch("reflection product does not reproduce the target isometry")

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def product(self) -> Isometry:
        """r_{v_1} ... r_{v_m}, one rank-one update per reflection."""
        return Isometry(self.space, reflection_product(self.space.polar_matrix, self.vectors),
                        _checked=True)

    def is_positive(self):
        """All reflecting vectors have Q(v) > 0 (ordered fields)."""
        return all(self.space.field.is_positive(self.space.q_value(v)) for v in self.vectors)

    def __repr__(self):
        return "Factorization(%d reflections in %r)" % (len(self.vectors), self.space)


# ---------------------------------------------------------------------------
# triangular bases of bilinear forms, in coordinates

def form_row(X, u):
    """The row u X, so that u X y^T is its dot product with y."""
    return X.transpose().apply(u)


def right_complement_rows(X, u):
    """RREF basis rows of {y : u X y^T = 0} in coordinates (u X != 0)."""
    return RightComplement(X, u).rows()


def _unit(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def small_vectors(X):
    """(v, X(v, v)) for the unit vectors e_i, then for e_i + e_j and e_i - e_j
    (i < j), with the values read off the entries of X."""
    field = X.field
    m = X.rows
    for i in range(m):
        yield _unit(field, m, i), X[i, i]
    for i in range(m):
        for j in range(i + 1, m):
            diag, cross = X[i, i] + X[j, j], X[i, j] + X[j, i]
            ei, ej = _unit(field, m, i), _unit(field, m, j)
            yield vec_add(ei, ej), diag + cross
            yield tuple(a - b for a, b in zip(ei, ej)), diag - cross


def nonalternating_witness(X):
    """A coordinate vector u with X(u, u) != 0, or None if X is alternating:
    the first small vector with a nonzero square.

    The small vectors are exhaustive: the squared value of any vector
    expands over the diagonal and the pairwise sums X(e_i, e_j) + X(e_j, e_i).
    Once the diagonal vanishes, e_i + e_j comes before e_i - e_j and has
    the opposite square, so both are read off the kernel form of the
    symmetric S = X + X^T (S_ii = 2 X(e_i, e_i), char != 2), unboxed.
    """
    field, m = X.field, X.rows
    S = (X + X.transpose())._int_form()[0]
    i = next((i for i in range(m) if S[i][i]), None)
    if i is not None:
        return _unit(field, m, i)
    return next((vec_add(_unit(field, m, i), _unit(field, m, j))
                 for i in range(m) for j in range(i + 1, m) if S[i][j]), None)


def _scalar_candidates(field):
    if field.is_ordered:
        return (field.one, -field.one, field(2))
    return tuple(field.nonzero_elements())


def _generic_repair(X, u, v):
    """A scalar a with X(u + a v, u + a v) = X(u, u) + a X(v, u) nonzero."""
    uu = bilinear_value(X, u, u)
    vu = bilinear_value(X, v, u)
    return next(c for c in _scalar_candidates(X.field) if uu + c * vu)


def _repaired(X, u, R, repair):
    """u + a v for the first row v of R with X(v, u) != 0 (else R[0]) and
    a = repair(X, u, v)."""
    v = next((r for r in R if bilinear_value(X, r, u)), R[0])
    return vec_add(u, vec_scale(repair(X, u, v), v))


def triangular_step(X, u, complement, repair):
    """One level of a triangular basis: (u, R, X_R, witness), with R the
    ``complement`` rows of u and witness non-alternating for X_R = X|_R.

    If X_R is alternating, u is repaired (``_repaired``); after that the
    complement cannot stay alternating, else CertificateError.
    """
    for _attempt in range(2):
        R = complement(X, u)
        XR = restrict_bilinear(X, R)
        wit = nonalternating_witness(XR)
        if wit is not None:
            return u, R, XR, wit
        u = _repaired(X, u, R, repair)
    raise CertificateError("triangular repair did not terminate")


def triangular_rows(X, u):
    """Triangular basis of X starting at u (X(u, u) != 0), as the rows of a
    Matrix: u, repaired by ``_generic_repair`` when its right complement is
    alternating, then the basis of the form on that complement, from its
    first non-alternating witness, mapped back."""
    if X.rows == 1:
        return Matrix(X.field, [u])
    for _attempt in range(2):
        comp = RightComplement(X, u)
        wit = nonalternating_witness(comp.form)
        if wit is not None:
            return comp.lift(u, triangular_rows(comp.form, wit))
        u = _repaired(X, u, comp.rows(), _generic_repair)
    raise CertificateError("triangular repair did not terminate")


def triangular_basis(chi):
    """Coordinate rows e_1..e_m with chi(e_i,e_i) != 0 and chi(e_i,e_j) = 0 for i<j.

    Requires chi non-degenerate and not alternating.  The first vector is a
    non-alternating witness, repaired where its complement needs it.
    """
    m = chi.rows
    if m == 0:
        return []
    if not chi.det():
        raise ValueError("triangular basis of a degenerate form")
    u = nonalternating_witness(chi)
    if u is None:
        raise AlternatingForm("chi(u, u) = 0 for every u")
    return list(triangular_rows(chi, u).entries)


# ---------------------------------------------------------------------------
# splits, lengths, factorizations

def split(f, U1, side="right"):
    """Split f = f1 f2 (side="right") or f = f2 f1 (side="left").

    U1 must lie in Mov(f) and carry a non-degenerate restriction of the Wall
    form; U2 is the chi-complement of U1 on the chosen side.  Mov(f) is then
    the direct sum of U1 and U2.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    wd = wall_form(f)
    chi1 = wd.restrict(U1)
    if not chi1.det():
        raise DegenerateRestriction("the Wall form degenerates on U1")
    U2 = wd.right_complement(U1) if side == "right" else wd.left_complement(U1)
    chi2 = wd.restrict(U2)
    f1 = isometry_from_wall(f.space, U1, chi1)
    f2 = isometry_from_wall(f.space, U2, chi2)
    recombined = f1 @ f2 if side == "right" else f2 @ f1
    if recombined != f:
        raise CertificateError("the two factors of the split do not multiply back to f")
    return f1, f2


def reflection_distance(g, h) -> int:
    """l(g^-1 h), read from W = im(g - h) = g Mov(g^-1 h): the isometry g
    keeps dimension and total singularity, so it is dim W, or dim W + 2
    when W != 0 is totally singular.

    One forward elimination (``linalg.column_basis``) finds m = dim W and
    the columns J of D = g - h that are a basis of W.  A totally singular W
    lies in its orthogonal complement, so 2m <= n (the Witt bound); only
    then is the Gram matrix of those m columns tested for zero.
    """
    space = g.space
    if space != h.space:
        raise ValueError("isometries of different spaces")
    n = space.dim
    D = g.matrix - h.matrix
    J = column_basis(D)[0]
    m = len(J)
    if m and 2 * m <= n and space.gram_on(D.submatrix(range(n), J).transpose()).is_zero():
        return m + 2
    return m


def reflection_length(f) -> int:
    """Minimal number of reflections multiplying to f."""
    return reflection_distance(Isometry.identity(f.space), f)


def is_minimal(f) -> bool:
    """Whether the reflection length of f equals dim Mov(f)."""
    return f.is_identity() or not f.space.is_totally_singular(moved_space(f))


def nonsingular_vector(space):
    """Some v with Q(v) != 0: the first of the small vectors of the Gram matrix."""
    v = next((v for v, q in small_vectors(space.gram) if q), None)
    if v is None:
        raise CertificateError("Q vanishes on all small vectors; the form would be degenerate")
    return v


def minimal_factorization(f) -> Factorization:
    """A reflection factorization of f of minimal length.

    Identity gives the empty factorization.  When Mov(f) is not totally
    singular, a triangular basis of the Wall form yields a direct
    factorization of length dim Mov(f).  Otherwise one non-singular ambient
    vector is prepended and the minimal factorization of r_v f (whose moved
    space gains the non-singular direction v) is appended.
    """
    space = f.space
    if f.is_identity():
        return Factorization(space, (), target=f)
    wd = wall_form(f)
    if not space.is_totally_singular(wd.subspace):
        vectors = combine(space.field, triangular_basis(wd.chi), wd.basis, space.dim)
        return Factorization(space, vectors, target=f)
    v = nonsingular_vector(space)
    g = space.reflection(v) @ f
    inner = minimal_factorization(g)
    return Factorization(space, (v,) + inner.vectors, target=f)
