"""Non-degenerate quadratic spaces and their isometries.

A space stores the symmetric matrix S with Q(v) = v^T S v; the polar form is
beta(u, v) = Q(u+v) - Q(u) - Q(v), whose matrix is B = 2S.  This is the one
internal convention (valid because characteristic 2 is excluded); arbitrary
square input matrices are symmetrized at construction, which preserves Q
(a symmetric one is taken as it is).

Isometries are invertible matrices F with F^T S F = S, in column convention
f(v) = F v; ``Isometry`` checks that with ``linalg.preserves_form``.  A
reflection r_v = I - v (B v)^T / Q(v) is built as one rank-one update of I
by ``linalg.reflection_product``, the kernel that also multiplies out whole
reflection words.  Orthogonal complements, total-singularity tests, and
(over the rationals) inertia counts and definiteness also live here.

Inertia is counted on integer rows: the Gram matrix of Q on a subspace is a
product of integer forms, and ``linalg.inertia_counts`` eliminates it
fraction-free.  That is the package's only symmetric elimination, and a
vector of positive square comes from it too (``linalg.positive_witness``).
The inertia of the whole space is kept once computed, in the ``_inertia``
slot, as ``Isometry`` keeps its Wall form.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .field import UnorderedField
from .linalg import (Matrix, Subspace, bilinear_value, inertia_counts, kernel, preserves_form,
                     reflection_product, restrict_bilinear)


class DegenerateForm(Exception):
    """The polar form has a nontrivial radical; the space is not allowed."""


class SingularVector(Exception):
    """A reflection was requested through a vector with Q(v) = 0."""


class NotIsometry(Exception):
    """The given matrix does not preserve the quadratic form."""


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    INDEFINITE = "indefinite"


class Signature(NamedTuple):
    positives: int
    negatives: int


class Inertia(NamedTuple):
    positives: int
    negatives: int
    zeros: int


class QuadraticSpace:
    """The ambient pair (V, Q), with Q given by a symmetric matrix."""

    __slots__ = ("field", "dim", "gram", "polar_matrix", "_inertia")

    def __init__(self, field, form):
        M = form if isinstance(form, Matrix) else Matrix(field, form)
        if M.rows != M.cols:
            raise DegenerateForm("form matrix must be square")
        # (M + M^T)/2 is M itself when M is symmetric
        S = M if M.is_symmetric() else (M + M.transpose()).scale(field.one / field(2))
        if not S.det():
            raise DegenerateForm("the polar form is degenerate")
        self.field = field
        self.dim = M.rows
        self.gram = S
        self.polar_matrix = S.scale(2)
        self._inertia = None

    def vector(self, v):
        v = tuple(self.field(x) for x in v)
        if len(v) != self.dim:
            raise DegenerateForm("vector of length %d in dimension %d" % (len(v), self.dim))
        return v

    def standard_basis(self, i):
        return tuple(self.field.one if j == i else self.field.zero for j in range(self.dim))

    def q_value(self, v):
        v = self.vector(v)
        return bilinear_value(self.gram, v, v)

    def polar(self, u, v):
        return bilinear_value(self.polar_matrix, self.vector(u), self.vector(v))

    def gram_on(self, rows):
        """Matrix of Q-values on a list of vectors, or on the basis of a
        Subspace: G[i][j] = u_i^T S u_j."""
        if isinstance(rows, Subspace):
            rows = rows.basis_matrix()
        return restrict_bilinear(self.gram, rows)

    def polar_gram_on(self, rows):
        """Matrix of the polar form on a list of vectors (twice gram_on)."""
        return self.gram_on(rows).scale(2)

    def orthogonal_complement(self, W):
        if W.dim == 0:
            return Subspace.full(self.field, self.dim)
        return kernel(W.basis_matrix() @ self.polar_matrix)

    def is_totally_singular(self, W):
        """Whether Q vanishes identically on W (char != 2: beta|_W = 0)."""
        return self.gram_on(W).is_zero()

    def inertia(self, W=None):
        """Counts (positives, negatives, zeros) of a diagonalization of Q|_W,
        W the whole space by default; that one is computed once and kept."""
        if not self.field.is_ordered:
            raise UnorderedField("inertia needs an ordered field")
        if W is None:
            if self._inertia is None:
                self._inertia = Inertia(*inertia_counts(self.gram))
            return self._inertia
        return Inertia(*inertia_counts(self.gram_on(W)))

    def signature(self, W=None):
        pos, neg, _ = self.inertia(W)
        return Signature(pos, neg)

    def definiteness(self, W=None):
        pos, neg, zeros = self.inertia(W)
        n = pos + neg + zeros
        if neg == 0 and zeros == 0 and n > 0:
            return Definiteness.POSITIVE_DEFINITE
        if pos == 0 and zeros == 0 and n > 0:
            return Definiteness.NEGATIVE_DEFINITE
        if neg == 0:
            return Definiteness.POSITIVE_SEMIDEFINITE
        if pos == 0:
            return Definiteness.NEGATIVE_SEMIDEFINITE
        return Definiteness.INDEFINITE

    def reflection(self, v):
        """The reflection u -> u - (beta(u, v)/Q(v)) v through a non-singular v,
        built as one rank-one update of I (``linalg.reflection_product``)."""
        v = self.vector(v)
        if not self.q_value(v):
            raise SingularVector("cannot reflect through a vector with Q(v) = 0")
        return Isometry(self, reflection_product(self.polar_matrix, (v,)), _checked=True)

    def identity_isometry(self):
        return Isometry.identity(self)

    def __eq__(self, other):
        if not isinstance(other, QuadraticSpace):
            return NotImplemented
        return self.field == other.field and self.gram == other.gram

    def __hash__(self):
        return hash((self.field, self.gram))

    def __repr__(self):
        return "QuadraticSpace(dim %d over %r)" % (self.dim, self.field)


def diagonal_space(field, values):
    """Space with form diag(values)."""
    return QuadraticSpace(field, Matrix.diagonal(field, values))


class Isometry:
    """An invertible linear map preserving Q, as a matrix acting on columns.

    Isometries are immutable, so the Wall form is kept once computed: the
    ``_wall`` slot starts as None and ``wall.wall_form`` fills it.  A
    collection of isometries whose Wall forms have been read (an oracle
    census run through ``verify_wall_bijection``, say) keeps one WallData
    per isometry.
    """

    __slots__ = ("space", "matrix", "_wall")

    def __init__(self, space, matrix, _checked=False):
        M = matrix if isinstance(matrix, Matrix) else Matrix(space.field, matrix)
        if M.rows != space.dim or M.cols != space.dim:
            raise NotIsometry("matrix shape %dx%d in dimension %d" % (M.rows, M.cols, space.dim))
        if not _checked and not preserves_form(M, space.gram):
            raise NotIsometry("matrix does not preserve the quadratic form")
        self.space = space
        self.matrix = M
        self._wall = None

    @classmethod
    def identity(cls, space):
        return cls(space, Matrix.identity(space.field, space.dim), _checked=True)

    def apply(self, v):
        return self.matrix.apply(self.space.vector(v))

    def __matmul__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        if other.space != self.space:
            raise NotIsometry("isometries of different spaces")
        # products and inverses of isometries are isometries exactly
        return Isometry(self.space, self.matrix @ other.matrix, _checked=True)

    def inverse(self):
        return Isometry(self.space, self.matrix.inverse(), _checked=True)

    def det(self):
        return self.matrix.det()

    def is_identity(self):
        return self.matrix == Matrix.identity(self.space.field, self.space.dim)

    def is_involution(self):
        return (self.matrix @ self.matrix) == Matrix.identity(self.space.field, self.space.dim)

    def key(self):
        """Hashable entry grid, for use as a dict key in group enumeration."""
        return self.matrix.entries

    def __eq__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.space == other.space and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.space, self.matrix))

    def __repr__(self):
        return "Isometry(%r)" % (self.matrix,)
