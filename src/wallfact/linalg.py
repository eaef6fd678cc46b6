"""Exact dense linear algebra over the scalar fields.

Matrices are immutable row-major grids of field elements.  Subspaces are
kept in canonical form: the reduced row echelon basis of their row span, so
two Subspace objects are equal (and hash alike) exactly when they describe
the same subspace.  Everything is plain Gaussian elimination; inputs are
desk-scale and exactness beats asymptotics here.

Each field has one set of kernels (products, elimination and determinants;
over F_p also sums), chosen from the matrix's field.  Over Q they compute
on integer rows: a row or column of Fractions becomes a list of ints over
one denominator, the lcm of its entries' denominators.  An entry of a
matrix product or of a matrix-vector product is a plain int dot product
over the product of two such denominators.  Elimination is fraction-free
Gauss-Jordan on the integer rows, with the row's gcd divided out after each
row operation, and each pivot row becomes Fractions once, at the end.  The
determinant is Bareiss elimination on the integer rows, divided by the
product of the row denominators.  Over F_p the kernels compute on plain int
residues, reduce mod p once per dot product or row operation, and box
results into Fp (the field's shared objects, ``PrimeField.residues``).
Either way Fraction or Fp is the boundary type: every entry stored in a
Matrix and every scalar returned is one, and the row operations of an
elimination touch none.  Results built from entries that are already field
elements skip the per-entry coercion that Matrix(field, entries) and
Subspace(field, n, vectors) apply to outside input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .field import PrimeField


class DimensionMismatch(Exception):
    """Operands have incompatible shapes."""


class NonSquare(Exception):
    """A square matrix was required."""


class TooLarge(Exception):
    """An enumeration would exceed the configured cap."""


DEFAULT_SUBSPACE_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# kernels: rows in and out are lists of "kernel scalars", which are Fraction
# values over Q (turned into integer rows inside each kernel) and int
# residues in [0, p) over F_p

def _kernel_rows(field, rows):
    """Rows of field elements as fresh lists of kernel scalars."""
    if isinstance(field, PrimeField):
        return [[x.value for x in row] for row in rows]
    return [list(row) for row in rows]


def _field_rows(field, rows):
    """Rows of kernel scalars boxed into a tuple of tuples of field elements."""
    if isinstance(field, PrimeField):
        box = field.residues
        return tuple(tuple(box[x] for x in row) for row in rows)
    return tuple(tuple(row) for row in rows)


def _rref(field, rows, ncols):
    """Reduced row echelon form of a list of rows of kernel scalars.

    Returns (rows, pivots) where rows is a list of lists of kernel scalars
    with the zero rows removed and pivots the increasing list of pivot
    columns.  The input lists may be reordered and overwritten.
    """
    if isinstance(field, PrimeField):
        return _rref_mod(rows, ncols, field.p)
    return _rref_int(rows, ncols)


def _pivot_row(work, r, c):
    for i in range(r, len(work)):
        if work[i][c]:
            return i
    return None


# Row r has zeros left of column c when column c is reached (earlier columns
# are pivots cleared in every other row, or zero from row r down), so the
# row operations of every elimination read columns c.. of the pivot row only.

def _int_row(row):
    """A row of rationals as (ints, d) with row = ints / d, d the lcm of the
    denominators."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def _primitive(row):
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _rref_int(rows, ncols):
    """Fraction-free Gauss-Jordan on the integer multiples of the rows, each
    kept primitive; pivot rows become Fraction rows once, at the end."""
    work = [_primitive(_int_row(row)[0]) for row in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = _pivot_row(work, r, c)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        p = prow[c]
        ptail = prow[c:]
        for i in range(nrows):
            row = work[i]
            t = row[c]
            if i != r and t:
                g = gcd(p, t)
                a, b = p // g, t // g
                head = row[:c] if a == 1 else [a * x for x in row[:c]]
                work[i] = _primitive(head + [a * x - b * y for x, y in zip(row[c:], ptail)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(work, pivots)], pivots


def _det_int(rows):
    """Bareiss elimination on the integer multiples of the rows, divided by
    the product of the row denominators."""
    work = []
    den = 1
    for row in rows:
        ints, d = _int_row(row)
        work.append(ints)
        den *= d
    n = len(work)
    sign = 1
    prev = 1
    for c in range(n):
        pivot_row = _pivot_row(work, c, c)
        if pivot_row is None:
            return Fraction(0)
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
    return Fraction(sign * prev, den)


def _rref_mod(work, ncols, p):
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = _pivot_row(work, r, c)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], p - 2, p)
        head = work[r][:c]
        tail = [x * inv % p for x in work[r][c:]]
        work[r] = head + tail
        for i in range(nrows):
            t = work[i][c]
            if i != r and t:
                row = work[i]
                row[c:] = [(x - t * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def _det_mod(work, p):
    n = len(work)
    det = 1
    for c in range(n):
        pivot_row = _pivot_row(work, c, c)
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
                row = work[i]
                row[c:] = [(x - t * y) % p for x, y in zip(row[c:], tail)]
    return det


def _check_same_field(a, b):
    """Raise as the scalars would when operands live in different fields."""
    if a == b:
        return
    if isinstance(a, PrimeField) and isinstance(b, PrimeField):
        raise ValueError("mixed characteristics: F_%d vs F_%d" % (a.p, b.p))
    raise TypeError("operands over %r and %r" % (a, b))


class Matrix:
    """Immutable matrix over a fixed field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries, cols=None):
        entries = tuple(tuple(map(field, row)) for row in entries)
        if entries:
            ncols = len(entries[0])
            if any(len(row) != ncols for row in entries):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != ncols:
                raise DimensionMismatch("declared %d columns, rows have %d" % (cols, ncols))
        else:
            ncols = 0 if cols is None else cols
        self.field = field
        self.rows = len(entries)
        self.cols = ncols
        self.entries = entries

    @classmethod
    def _of(cls, field, entries, cols):
        """Internal result: entries is already a rectangular tuple of tuples
        of elements of field, so coercion and shape checks are skipped."""
        M = object.__new__(cls)
        M.field = field
        M.rows = len(entries)
        M.cols = cols
        M.entries = entries
        return M

    @classmethod
    def identity(cls, field, n):
        """The n x n identity over field, built once per field and size:
        matrices are immutable, so the field keeps it and hands it out again."""
        M = field.identities.get(n)
        if M is None:
            M = field.identities[n] = cls.diagonal(field, [field.one] * n)
        return M

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero
        return cls._of(field, ((zero,) * cols,) * rows, cols)

    @classmethod
    def diagonal(cls, field, values):
        values = [field(v) for v in values]
        zeros = [field.zero] * len(values)
        rows = []
        for i, v in enumerate(values):
            row = zeros.copy()
            row[i] = v
            rows.append(tuple(row))
        return cls._of(field, tuple(rows), len(values))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    def transpose(self):
        if self.rows == 0:
            return Matrix._of(self.field, ((),) * self.cols, 0)
        return Matrix._of(self.field, tuple(zip(*self.entries)), self.rows)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("%dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        field = self.field
        _check_same_field(field, other.field)
        pairs = zip(self.entries, other.entries)
        if isinstance(field, PrimeField):
            p, box = field.p, field.residues
            entries = tuple([tuple([box[op(a.value, b.value) % p] for a, b in zip(r1, r2)])
                             for r1, r2 in pairs])
        else:
            entries = tuple([tuple(map(op, r1, r2)) for r1, r2 in pairs])
        return Matrix._of(field, entries, self.cols)

    def __neg__(self):
        return Matrix._of(self.field, tuple(tuple(-a for a in row) for row in self.entries),
                          self.cols)

    def scale(self, c):
        c = self.field(c)
        return Matrix._of(self.field, tuple(tuple(c * a for a in row) for row in self.entries),
                          self.cols)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("%dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        _check_same_field(self.field, other.field)
        if self.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        field = self.field
        if isinstance(field, PrimeField):
            p, box = field.p, field.residues
            cols = [[x.value for x in col] for col in zip(*other.entries)]
            entries = tuple([tuple([box[sum(map(mul, r, c)) % p] for c in cols])
                             for r in [[x.value for x in row] for row in self.entries]])
        else:
            cols = [_int_row(c) for c in zip(*other.entries)]
            entries = tuple([tuple([Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols])
                             for r, dr in map(_int_row, self.entries)])
        return Matrix._of(field, entries, other.cols)

    def apply(self, v):
        """Matrix times column vector, as a tuple."""
        field = self.field
        v = tuple(map(field, v))
        if len(v) != self.cols:
            raise DimensionMismatch("vector of length %d against %d columns" % (len(v), self.cols))
        if isinstance(field, PrimeField) or not v:
            return tuple(_dot(row, v) for row in self.entries)
        iv, dv = _int_row(v)
        return tuple([Fraction(sum(map(mul, r, iv)), dr * dv)
                      for r, dr in map(_int_row, self.entries)])

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def rref(self):
        rows, pivots = _rref(self.field, _kernel_rows(self.field, self.entries), self.cols)
        return Matrix._of(self.field, _field_rows(self.field, rows), self.cols), tuple(pivots)

    def rank(self):
        return len(_rref(self.field, _kernel_rows(self.field, self.entries), self.cols)[1])

    def det(self):
        if self.rows != self.cols:
            raise NonSquare("determinant of a %dx%d matrix" % (self.rows, self.cols))
        field = self.field
        if isinstance(field, PrimeField):
            return field.residues[_det_mod(_kernel_rows(field, self.entries), field.p)]
        return _det_int(self.entries)

    def inverse(self):
        if self.rows != self.cols:
            raise NonSquare("inverse of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        field = self.field
        aug = _kernel_rows(field, [row + e for row, e in
                                   zip(self.entries, Matrix.identity(field, n).entries)])
        reduced, pivots = _rref(field, aug, 2 * n)
        if list(pivots[:n]) != list(range(n)) or len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(field, _field_rows(field, [row[n:] for row in reduced]), n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return "Matrix(%r, %dx%d)" % (self.field, self.rows, self.cols)
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return "Matrix(%r, [%s])" % (self.field, body)


def _dot(u, v):
    it = zip(u, v)
    try:
        a, b = next(it)
    except StopIteration:
        raise DimensionMismatch("dot product of empty vectors needs a field zero") from None
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def dot(u, v):
    """Plain coordinate dot product of two equal-length vectors."""
    if len(u) != len(v):
        raise DimensionMismatch("dot of lengths %d and %d" % (len(u), len(v)))
    return _dot(u, v)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def is_zero_vector(v):
    return all(not x for x in v)


def solve(A, b):
    """A particular solution x of A x = b, or None when none exists."""
    xs = solve_all(A, [b])
    return None if xs is None else xs[0]


def solve_all(A, vectors):
    """Particular solutions x_j of A x_j = b_j, one for each b_j in vectors,
    from one elimination of [A | b_1 ... b_k]; None when some b_j has none.
    Free variables are set to zero, so each x_j is the one solve(A, b_j)
    returns."""
    field = A.field
    vectors = [tuple(map(field, b)) for b in vectors]
    for b in vectors:
        if len(b) != A.rows:
            raise DimensionMismatch("rhs of length %d against %d rows" % (len(b), A.rows))
    if not vectors:
        return []
    n = A.cols
    aug = _kernel_rows(field, [row + rhs for row, rhs in zip(A.entries, zip(*vectors))])
    reduced, pivots = _rref(field, aug, n + len(vectors))
    if pivots and pivots[-1] >= n:
        return None
    out = []
    for j in range(n, n + len(vectors)):
        x = [0] * n
        for i, c in enumerate(pivots):
            x[c] = reduced[i][j]
        out.append(tuple(map(field, x)))
    return out


def kernel(A):
    """The null space of A as a Subspace of the column-index space."""
    field = A.field
    reduced, pivots = _rref(field, _kernel_rows(field, A.entries), A.cols)
    pivot_set = set(pivots)
    free = [c for c in range(A.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * A.cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(v)
    return Subspace(field, A.cols, basis)


def image(A):
    """The column space of A as a Subspace."""
    return Subspace._span(A.field, A.rows, _kernel_rows(A.field, zip(*A.entries)))


def rank(A):
    return A.rank()


def det(A):
    return A.det()


class Subspace:
    """A linear subspace, canonically represented by its RREF row basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, vectors=()):
        vectors = [tuple(map(field, v)) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                        % (len(v), ambient_dim))
        self._reduce(field, ambient_dim, _kernel_rows(field, vectors))

    @classmethod
    def _span(cls, field, ambient_dim, rows):
        """Internal: the span of rows of kernel scalars of length ambient_dim."""
        U = object.__new__(cls)
        U._reduce(field, ambient_dim, rows)
        return U

    def _reduce(self, field, ambient_dim, rows):
        rows, _ = _rref(field, rows, ambient_dim)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = _field_rows(field, rows)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim)

    @classmethod
    def full(cls, field, ambient_dim):
        return cls._span(field, ambient_dim,
                         _kernel_rows(field, Matrix.identity(field, ambient_dim).entries))

    @property
    def dim(self):
        return len(self.basis)

    def basis_matrix(self):
        return Matrix._of(self.field, self.basis, self.ambient_dim)

    def contains(self, v):
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v):
        """Coefficients of v in the canonical basis, or None if v is outside."""
        v = tuple(map(self.field, v))
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                    % (len(v), self.ambient_dim))
        if not self.basis:
            return () if is_zero_vector(v) else None
        # the basis is RREF, so coefficients can be read off the pivot entries
        coords = []
        residue = list(v)
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x)
            c = residue[pivot]
            coords.append(c)
            if c:
                residue = [a - c * b for a, b in zip(residue, row)]
        if not all(not x for x in residue):
            return None
        return tuple(coords)

    def is_contained_in(self, other):
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of %d over %r)" % (self.dim, self.ambient_dim, self.field)


def subspace_sum(U, W):
    _check_same_ambient(U, W)
    return Subspace._span(U.field, U.ambient_dim, _kernel_rows(U.field, U.basis + W.basis))


def subspace_intersection(U, W):
    _check_same_ambient(U, W)
    if U.dim == 0 or W.dim == 0:
        return Subspace.zero(U.field, U.ambient_dim)
    # solve a^T U.basis = b^T W.basis: kernel of the matrix with columns
    # u_1..u_k, -w_1..-w_l, then read the a-part back through U's basis
    cols = [list(v) for v in U.basis] + [[-x for x in w] for w in W.basis]
    M = Matrix(U.field, list(zip(*cols)))
    vectors = []
    for coeffs in kernel(M).basis:
        a = coeffs[:U.dim]
        vec = [U.field.zero] * U.ambient_dim
        for c, u in zip(a, U.basis):
            if c:
                vec = [x + c * y for x, y in zip(vec, u)]
        vectors.append(vec)
    return Subspace(U.field, U.ambient_dim, vectors)


def contains(U, v):
    return U.contains(v)


def _check_same_ambient(U, W):
    if U.field != W.field or U.ambient_dim != W.ambient_dim:
        raise DimensionMismatch("subspaces of different ambient spaces")


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise AssertionError("the Gaussian binomial [%d, %d]_%d is not an integer" % (n, k, q))
    return num // den


def count_subspaces(n, q):
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def enumerate_subspaces(of_space, cap=DEFAULT_SUBSPACE_CAP):
    """Yield every subspace of of_space exactly once, over a prime field.

    Iterates RREF patterns (pivot-column sets times free-entry assignments)
    in the coordinate space of of_space, so the output is duplicate-free by
    construction, ordered by dimension, then pivot columns, then entries.
    """
    field = of_space.field
    if not isinstance(field, PrimeField):
        raise TypeError("subspace enumeration needs a finite field, got %r" % field)
    d = of_space.dim
    total = count_subspaces(d, field.p)
    if total > cap:
        raise TooLarge("%d subspaces exceeds the cap of %d" % (total, cap))
    scalars = list(field.elements())
    amb = of_space.ambient_dim
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            pivot_set = set(pivots)
            free_positions = [(i, c) for i in range(k) for c in range(pivots[i] + 1, d)
                              if c not in pivot_set]
            for assignment in itertools.product(scalars, repeat=len(free_positions)):
                rows = [[field.zero] * d for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one
                for (i, c), val in zip(free_positions, assignment):
                    rows[i][c] = val
                ambient_rows = []
                for row in rows:
                    vec = [field.zero] * amb
                    for c, coeff in enumerate(row):
                        if coeff:
                            vec = [x + coeff * y for x, y in zip(vec, of_space.basis[c])]
                    ambient_rows.append(vec)
                yield Subspace(field, amb, ambient_rows)
