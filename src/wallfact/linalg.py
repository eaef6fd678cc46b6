"""Exact dense linear algebra over the scalar fields.

Matrices are immutable row-major grids of field elements.  Subspaces are
kept in canonical form: the reduced row echelon basis of their row span, so
two Subspace objects are equal (and hash alike) exactly when they describe
the same subspace.  Everything is plain Gaussian elimination; inputs are
desk-scale and exactness beats asymptotics here.

Each field has one set of kernels (products, sums, elimination and
determinants), chosen from the matrix's field.  Over Q a matrix keeps one
integer form (A, d): integer rows A over d, the lcm of its entries'
denominators, so matrix = A / d.  It is built at most once per matrix, from
the entries, or given directly: a matrix read from JSON is decoded straight
into it (``jsonio.decode_matrix``).  Every Q kernel reads it.  Products,
sums, negation, transposes and scalings produce their result's integer form
directly (a product is (A B, d_A d_B) with the common gcd of d and the
entries divided out, which keeps the form unique, so it also decides
equality), and the result's Fraction entries are boxed only when ``entries``
is first read.  Only a vector argument is scaled to integers per call: a
matrix-vector product or a bilinear value is a plain int dot product over
the product of the denominators.  Elimination is fraction-free Gauss-Jordan
on integer rows, with the row's gcd divided out after each row operation,
and each pivot row becomes Fractions once, at the end.  The determinant is
Bareiss elimination on A, divided by d^n.  Inertia counts come from one
kernel, ``inertia_counts``: fraction-free symmetric elimination on A, in
which a pivot p turns the trailing block B into |p| B - sign(p) a a^T, a
congruence up to a positive scale.  Over F_p the kernels compute on plain
int residues, reduce mod p once per dot product or row operation, and box
results into Fp (the field's shared objects, ``PrimeField.residues``).
Either way Fraction or Fp is the boundary type: every entry read from a
Matrix and every scalar returned is one, and the row operations of an
elimination touch none.  Results built from entries that are already field
elements skip the per-entry coercion that Matrix(field, entries) and
Subspace(field, n, vectors) apply to outside input.

Reflection words and form preservation have one kernel per field each.
``reflection_product(B, vectors)`` is the matrix of a word of reflections
r_v = I - v (B v)^T / Q(v), built from I by one rank-one update per
reflection, O(n^2) each: over Q on the integer form of B, with the result
left in integer form, over F_p on int residues.  ``preserves_form(M, S)``
decides M^T S M = S on the same integer forms (A^T G A = d^2 G for
A = d M, G = s S) or residues, without building a product matrix.

The coordinate layer goes through three helpers built on those kernels.
``bilinear_value(X, u, v)`` is the one evaluator of a bilinear form in
coordinates, u X v^T (over Q one int dot product on the integer form of X);
``restrict_bilinear(X, rows)`` is the one restriction of a form, the matrix
C X C^T on coordinate rows C; and ``combine(field, coords, rows, ncols)`` is
the one row combination, the rows of C B for coordinate rows C and basis
rows B, as a matrix product.  Coordinates on a subspace map back to ambient
vectors, and vectors found in a complement map back to the coordinates of
the larger form, through ``combine``.
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
# kernels: rows in are lists of "kernel scalars", which are ints over Q (each
# row an integer multiple of the row it stands for: elimination and spans do
# not see row scales) and int residues in [0, p) over F_p

def _kernel_rows(field, rows):
    """Rows of field elements as fresh lists of kernel scalars."""
    if isinstance(field, PrimeField):
        return [[x.value for x in row] for row in rows]
    return [_int_row(row)[0] for row in rows]


def _matrix_rows(M):
    """The rows of M as kernel scalars: the rows of its integer form over Q
    (shared with M, so only read), fresh residue lists over F_p."""
    if isinstance(M.field, PrimeField):
        return _kernel_rows(M.field, M.entries)
    return M._int_form()[0]


def _field_rows(field, rows):
    """Rows of kernel scalars boxed into a tuple of tuples of field elements."""
    if isinstance(field, PrimeField):
        box = field.residues
        return tuple(tuple(box[x] for x in row) for row in rows)
    return tuple(tuple(row) for row in rows)


def _rref(field, rows, ncols):
    """Reduced row echelon form of a list of rows of kernel scalars.

    Returns (rows, pivots) where rows is a list of lists of field elements
    over Q and of residues over F_p, with the zero rows removed, and pivots
    the increasing list of pivot columns.  The input list may be reordered;
    over F_p its rows are overwritten, over Q they are only read.
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
    """A row of rationals (or ints) as (ints, d) with row = ints / d, d the
    lcm of the denominators."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def _int_matrix(rows):
    """A matrix of rationals as (ints, d) with matrix = ints / d, d the lcm of
    all the entries' denominators."""
    d = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _reduced(A, d):
    """The integer form of the matrix A / d: A and d > 0 with their common
    gcd divided out, so that d is the lcm of the entries' denominators."""
    if d == 1:
        return A, d
    g = gcd(d, *itertools.chain.from_iterable(A))
    if g == 1:
        return A, d
    return [[x // g for x in row] for row in A], d // g


def _transposed(A, ncols):
    """The transpose of the integer rows A, which have ncols columns each."""
    if not A:
        return [[] for _ in range(ncols)]
    return [list(col) for col in zip(*A)]


def _primitive(row):
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _rref_int(rows, ncols):
    """Fraction-free Gauss-Jordan on integer rows, each kept primitive; pivot
    rows become Fraction rows once, at the end.  The input rows are read,
    never modified."""
    work = [_primitive(row) for row in rows]
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


def _det_int(work):
    """The determinant of a square matrix of integer rows, by Bareiss
    elimination; the rows are overwritten."""
    n = len(work)
    sign = 1
    prev = 1
    for c in range(n):
        pivot_row = _pivot_row(work, c, c)
        if pivot_row is None:
            return 0
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
    return sign * prev


def _inertia_int(G):
    """(positives, negatives, zeros) of the symmetric integer matrix G, by
    fraction-free symmetric elimination.

    A pivot p = G[i][i] != 0 with the rest a of its row leaves the trailing
    block B as |p| B - sign(p) a a^T with its content divided out: a
    congruence (the Schur complement B - a a^T / p) times a positive scale,
    which keeps the inertia.  Taking the first nonzero diagonal entry as the
    pivot is the symmetric swap of it to the front.  When the whole diagonal
    is zero, Lagrange's step e_i <- e_i + e_j on the first nonzero entry
    G[i][j] makes the diagonal entry 2 G[i][j].  What remains once every
    entry is zero counts as zeros.
    """
    A = [list(row) for row in G]
    pos = neg = 0
    while A:
        k = len(A)
        i = next((i for i in range(k) if A[i][i]), None)
        if i is None:
            i = next((i for i in range(k) if any(A[i])), None)
            if i is None:
                break
            j = next(j for j, x in enumerate(A[i]) if x)
            A[i] = [x + y for x, y in zip(A[i], A[j])]
            for row in A:
                row[i] += row[j]
        p = A[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        a = A[i][:i] + A[i][i + 1:]
        rest = A[:i] + A[i + 1:]
        s, q = (1, p) if p > 0 else (-1, -p)
        A = [[q * x - s * t * y for x, y in zip(row[:i] + row[i + 1:], a)]
             for row, t in zip(rest, a)]
        g = gcd(*itertools.chain.from_iterable(A))
        if g > 1:
            A = [[x // g for x in row] for row in A]
    return pos, neg, len(G) - pos - neg


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
    """Immutable matrix over a fixed field.

    Over Q a matrix keeps one integer form (A, d): integer rows A over the
    least common denominator d of its entries, with matrix = A / d.  It is
    built at most once, from the entries, or given directly by the results
    of the Q kernels and by the JSON decoder, whose Fraction entries are
    then boxed on first read of ``entries``.  Both are kept once built;
    matrices are immutable.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_int")

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
        self._entries = entries
        self._int = None

    @classmethod
    def _of(cls, field, entries, cols):
        """Internal result: entries is already a rectangular tuple of tuples
        of elements of field, so coercion and shape checks are skipped."""
        M = object.__new__(cls)
        M.field = field
        M.rows = len(entries)
        M.cols = cols
        M._entries = entries
        M._int = None
        return M

    @classmethod
    def _of_int(cls, field, A, d, cols):
        """Internal result over Q: the matrix A / d, given by its integer
        form (lists of ints A, d > 0 the least common denominator)."""
        M = object.__new__(cls)
        M.field = field
        M.rows = len(A)
        M.cols = cols
        M._entries = None
        M._int = (A, d)
        return M

    @property
    def entries(self):
        """The rows as a tuple of tuples of field elements."""
        entries = self._entries
        if entries is None:
            A, d = self._int
            if d == 1:
                entries = tuple([tuple(map(Fraction, row)) for row in A])
            else:
                entries = tuple([tuple([Fraction(x, d) for x in row]) for row in A])
            self._entries = entries
        return entries

    def _int_form(self):
        """The integer form (A, d) of a matrix over Q, built at most once."""
        form = self._int
        if form is None:
            form = self._int = _int_matrix(self._entries)
        return form

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
        field = self.field
        if not isinstance(field, PrimeField):
            A, d = self._int_form()
            return Matrix._of_int(field, _transposed(A, self.cols), d, self.rows)
        if self.rows == 0:
            return Matrix._of(field, ((),) * self.cols, 0)
        return Matrix._of(field, tuple(zip(*self.entries)), self.rows)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("%dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        field = self.field
        _check_same_field(field, other.field)
        if isinstance(field, PrimeField):
            p, box = field.p, field.residues
            entries = tuple([tuple([box[op(a.value, b.value) % p] for a, b in zip(r1, r2)])
                             for r1, r2 in zip(self.entries, other.entries)])
            return Matrix._of(field, entries, self.cols)
        (A1, d1), (A2, d2) = self._int_form(), other._int_form()
        d = lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        rows = [[op(s1 * x, s2 * y) for x, y in zip(r1, r2)] for r1, r2 in zip(A1, A2)]
        return Matrix._of_int(field, *_reduced(rows, d), self.cols)

    def __neg__(self):
        field = self.field
        if isinstance(field, PrimeField):
            return Matrix._of(field, tuple(tuple(-a for a in row) for row in self.entries),
                              self.cols)
        A, d = self._int_form()
        return Matrix._of_int(field, [[-x for x in row] for row in A], d, self.cols)

    def scale(self, c):
        field = self.field
        c = field(c)
        if isinstance(field, PrimeField):
            return Matrix._of(field, tuple(tuple(c * a for a in row) for row in self.entries),
                              self.cols)
        A, d = self._int_form()
        num = c.numerator
        return Matrix._of_int(field, *_reduced([[num * x for x in row] for row in A],
                                               d * c.denominator), self.cols)

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
            return Matrix._of(field, entries, other.cols)
        (A, da), (B, db) = self._int_form(), other._int_form()
        cols = list(zip(*B))
        rows = [[sum(map(mul, r, c)) for c in cols] for r in A]
        return Matrix._of_int(field, *_reduced(rows, da * db), other.cols)

    def apply(self, v):
        """Matrix times column vector, as a tuple."""
        field = self.field
        v = tuple(map(field, v))
        if len(v) != self.cols:
            raise DimensionMismatch("vector of length %d against %d columns" % (len(v), self.cols))
        if isinstance(field, PrimeField) or not v:
            return tuple(_dot(row, v) for row in self.entries)
        iv, dv = _int_row(v)
        A, d = self._int_form()
        d *= dv
        return tuple([Fraction(sum(map(mul, r, iv)), d) for r in A])

    def is_zero(self):
        if isinstance(self.field, PrimeField):
            return all(not x for row in self.entries for x in row)
        return not any(map(any, self._int_form()[0]))

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        if isinstance(self.field, PrimeField):
            return all(self.entries[i][j] == self.entries[j][i]
                       for i in range(self.rows) for j in range(i + 1, self.cols))
        return _is_symmetric(self._int_form()[0])

    def rref(self):
        rows, pivots = _rref(self.field, _matrix_rows(self), self.cols)
        return Matrix._of(self.field, _field_rows(self.field, rows), self.cols), tuple(pivots)

    def rank(self):
        return len(_rref(self.field, _matrix_rows(self), self.cols)[1])

    def det(self):
        if self.rows != self.cols:
            raise NonSquare("determinant of a %dx%d matrix" % (self.rows, self.cols))
        field = self.field
        if isinstance(field, PrimeField):
            return field.residues[_det_mod(_kernel_rows(field, self.entries), field.p)]
        A, d = self._int_form()
        return Fraction(_det_int([row[:] for row in A]), d ** self.rows)

    def inverse(self):
        if self.rows != self.cols:
            raise NonSquare("inverse of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        field = self.field
        if isinstance(field, PrimeField):
            aug = _kernel_rows(field, [row + e for row, e in
                                       zip(self.entries, Matrix.identity(field, n).entries)])
        else:
            A, d = self._int_form()      # [A | d I] is d [M | I]
            aug = [row + [d if j == i else 0 for j in range(n)] for i, row in enumerate(A)]
        reduced, pivots = _rref(field, aug, 2 * n)
        if list(pivots[:n]) != list(range(n)) or len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(field, _field_rows(field, [row[n:] for row in reduced]), n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            return False
        if isinstance(self.field, PrimeField):
            return self.entries == other.entries
        # the integer form is unique, so it decides equality
        return self._int_form() == other._int_form()

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


def bilinear_value(X, u, v):
    """u X v^T for coordinate row vectors u and v (field elements or ints).

    Over Q it is one int dot product on the integer form of X and the two
    vectors scaled to integer rows, over the product of the denominators.
    """
    field = X.field
    if not X.rows:
        return field.zero
    if isinstance(field, PrimeField):
        return dot(tuple(map(field, u)), X.apply(v))
    same = u is v
    u = tuple(map(field, u))
    v = u if same else tuple(map(field, v))
    if len(v) != X.cols:
        raise DimensionMismatch("vector of length %d against %d columns" % (len(v), X.cols))
    if len(u) != X.rows:
        raise DimensionMismatch("dot of lengths %d and %d" % (len(u), X.rows))
    A, d = X._int_form()
    iv, dv = _int_row(v)
    iu, du = (iv, dv) if same else _int_row(u)
    return Fraction(sum(map(mul, iu, [sum(map(mul, r, iv)) for r in A])), d * du * dv)


def inertia_counts(S):
    """(positives, negatives, zeros) of the symmetric matrix S over Q, from
    a fraction-free elimination of its integer form."""
    return _inertia_int(S._int_form()[0])


def restrict_bilinear(X, rows):
    """Matrix C X C^T of the form X on the coordinate rows C."""
    C = Matrix(X.field, rows, cols=X.rows)
    return C @ X @ C.transpose()


def combine(field, coords, rows, ncols):
    """The rows of C B, with C the coordinate rows coords and B the rows
    (each of length ncols), as a tuple of tuples of field elements."""
    C = Matrix(field, coords, cols=len(rows))
    return (C @ Matrix(field, rows, cols=ncols)).entries


# ---------------------------------------------------------------------------
# reflection words and form preservation: one kernel per field each

def reflection_product(B, vectors):
    """The matrix of r_{v_1} ... r_{v_m}, where r_v = I - v (B v)^T / Q(v)
    with Q(v) = v^T B v / 2 is the reflection of the form with polar matrix
    B; the empty word gives I.

    Starting from I, each reflection is one rank-one update
    M <- M - (M v)(B v)^T / Q(v), O(n^2) per reflection.  Raises
    ZeroDivisionError for a vector with Q(v) = 0.
    """
    n = B.rows
    if B.cols != n:
        raise NonSquare("polar matrix of shape %dx%d" % (B.rows, B.cols))
    field = B.field
    vectors = [tuple(map(field, v)) for v in vectors]
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch("vector of length %d in dimension %d" % (len(v), n))
    if isinstance(field, PrimeField):
        rows = _reflection_product_mod(field.p, _kernel_rows(field, B.entries),
                                       _kernel_rows(field, vectors))
        return Matrix._of(field, _field_rows(field, rows), n)
    A, D = _reflection_product_int(B._int_form()[0], vectors)
    return Matrix._of_int(field, A, D, n)


def _reflection_product_int(G, vectors):
    """The word over Q as (A, D) with matrix A / D.  With B = G / s and v
    scaled to a primitive integer row (reflections ignore both scales),
    r_v = I - 2 v (G v)^T / q for q = v^T G v, so A <- q A - 2 (A v)(G v)^T
    and D <- q D, with gcd(D, entries) divided out after each step."""
    n = len(G)
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    D = 1
    for v in vectors:
        v = _primitive(_int_row(v)[0])
        w = [sum(map(mul, g, v)) for g in G]
        q = sum(map(mul, v, w))
        if not q:
            raise ZeroDivisionError("reflection through a vector with Q(v) = 0")
        if q < 0:
            q = -q
            w = [-x for x in w]
        for i, row in enumerate(A):
            t = 2 * sum(map(mul, row, v))
            A[i] = [q * x - t * y for x, y in zip(row, w)]
        D *= q
        g = gcd(D, *itertools.chain.from_iterable(A))
        if g > 1:
            D //= g
            A = [[x // g for x in row] for row in A]
    return A, D


def _reflection_product_mod(p, G, vectors):
    """The word over F_p on int residues: M <- M - c (M v)(G v)^T with
    c = 2 / (v^T G v) = 1 / Q(v)."""
    n = len(G)
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for v in vectors:
        w = [sum(map(mul, g, v)) % p for g in G]
        q = sum(map(mul, v, w)) % p
        if not q:
            raise ZeroDivisionError("reflection through a vector with Q(v) = 0")
        c = 2 * pow(q, p - 2, p)
        w = [c * x % p for x in w]
        for i, row in enumerate(A):
            t = sum(map(mul, row, v)) % p
            if t:
                A[i] = [(x - t * y) % p for x, y in zip(row, w)]
    return A


def preserves_form(M, S):
    """Whether M^T S M = S, decided without a product matrix.

    Over Q, with A = d M and G = s S integer matrices, the test is
    A^T G A = d^2 G; over F_p it is the same products on int residues.  The
    first unequal entry ends the test.  When S is symmetric both sides are,
    so the entries on and above the diagonal decide it; the kernels take
    that as an argument, so a caller testing many M against one S decides
    it once.
    """
    _check_same_field(M.field, S.field)
    n = S.rows
    if S.cols != n or M.rows != n or M.cols != n:
        raise DimensionMismatch("%dx%d matrix against a %dx%d form"
                                % (M.rows, M.cols, S.rows, S.cols))
    field = M.field
    G = _matrix_rows(S)
    if isinstance(field, PrimeField):
        return _preserves_form_mod(field.p, _kernel_rows(field, zip(*M.entries)), G,
                                   _is_symmetric(G))
    A, d = M._int_form()
    return _preserves_form_int(list(zip(*A)), d, G, _is_symmetric(G))


def _is_symmetric(rows):
    return all(list(col) == row for col, row in zip(zip(*rows), rows))


# the two kernels take the columns of A (of M over F_p) and the rows of G

def _preserves_form_int(cols, d, G, symmetric):
    d2 = d * d
    n = len(G)
    for j, col in enumerate(cols):
        gcol = [sum(map(mul, g, col)) for g in G]    # column j of G A
        for i in range(j + 1 if symmetric else n):
            if sum(map(mul, cols[i], gcol)) != d2 * G[i][j]:
                return False
    return True


def _preserves_form_mod(p, cols, G, symmetric):
    n = len(G)
    for j, col in enumerate(cols):
        gcol = [sum(map(mul, g, col)) for g in G]    # column j of G A
        for i in range(j + 1 if symmetric else n):
            if (sum(map(mul, cols[i], gcol)) - G[i][j]) % p:
                return False
    return True


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
    if isinstance(field, PrimeField):
        aug = _kernel_rows(field, [row + rhs for row, rhs in zip(A.entries, zip(*vectors))])
    else:
        # row i of [A | b_1 ... b_k] times d e: rows scale freely
        M, d = A._int_form()
        R, e = _int_matrix(list(zip(*vectors)))
        aug = [[e * x for x in row] + [d * y for y in rhs] for row, rhs in zip(M, R)]
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
    reduced, pivots = _rref(field, _matrix_rows(A), A.cols)
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
    return Subspace._span(A.field, A.rows, _matrix_rows(A.transpose()))


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
        return cls._span(field, ambient_dim, _matrix_rows(Matrix.identity(field, ambient_dim)))

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
    coords = [coeffs[:U.dim] for coeffs in kernel(M).basis]
    return Subspace(U.field, U.ambient_dim, combine(U.field, coords, U.basis, U.ambient_dim))


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


def projective_points(field, n):
    """One vector per line of F_p^n: those whose first nonzero entry is 1,
    ordered by the position of that entry, then by the entries after it."""
    scalars = list(field.elements())
    for lead in range(n):
        prefix = (field.zero,) * lead + (field.one,)
        for tail in itertools.product(scalars, repeat=n - lead - 1):
            yield prefix + tail


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
                yield Subspace(field, amb, combine(field, rows, of_space.basis, amb))
