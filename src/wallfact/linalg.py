"""Exact dense linear algebra over the scalar fields.

Matrices are immutable.  A Subspace is the matrix of the reduced row echelon
basis of its row span, which is canonical, so two subspaces are equal (and
hash alike) exactly when they describe the same subspace.  Everything is
plain Gaussian elimination; inputs are desk-scale and exactness beats
asymptotics here.

Every matrix keeps one kernel form (A, d), matrix = A / d with A lists of
ints: over Q integer rows over d, the lcm of the entries' denominators, and
over F_p residues in [0, p) with d = 1.  It is built at most once, from the
entries, or given directly (a matrix read from JSON is decoded straight
into it by ``jsonio.decode_matrix``), and it is unique, so it decides
equality.  Each Matrix operation is one code path on it: a product is
(A B, d_A d_B), and every result is brought back to the canonical form (the
common gcd of d and A divided out over Q, A reduced mod p over F_p).
Entries are boxed into Fraction or Fp (the field's shared objects,
``PrimeField.residues``) only when ``entries`` is first read; those are the
types of every entry read and every scalar returned, and no kernel touches
one.  A vector argument is put in kernel form per call, so a matrix-vector
product or a bilinear value is one int dot product over the product of the
denominators.

What differs by field is kept in two places.  The kernels that genuinely
differ are dispatched once each: the two eliminations, the reflection word
and the form check.  ``_rref`` is fraction-free Gauss-Jordan on primitive
integer rows over Q and mod p over F_p; it gives canonical bases.
``_forward`` is the one forward elimination, fraction-free Bareiss over Q
and mod p over F_p, with no reduction above the pivots: it returns the
origin indices J of the pivot rows, the pivot columns P and the signed
pivot minor, +-det of the rows J and columns P.  The rows J are a basis of
the row span, and P are the pivots of its reduced echelon basis, since any
echelon form of a matrix has the pivots of its row span.  So
``Matrix.rank`` is |J|, ``_det`` is the minor at full rank and 0 below it,
and ``column_basis(A)``, the kernel on the rows of A^T, gives the columns J
of A that are a basis of its column space, with the pivots P of
``image(A)`` and det A[P][J] up to sign, from one elimination with no back
substitution.  The census of ``oracle`` eliminates mod p one row at a
time instead, with ``_echelon_step_mod``, so that the state after a
prefix of rows can be shared between matrices that start with the same
rows.  Outside them three small conversions differ: field elements to
kernel form, the canonical form, and kernel scalars back to field elements.
``_rref`` returns canonical rows (primitive with a positive pivot entry over
Q, pivot entry 1 over F_p), and ``_echelon_form`` turns them into the kernel
form of the reduced echelon matrix, a step that ``Matrix.rref``,
``inverse``, ``solve_all``, ``kernel`` and every Subspace share.  Inertia
counts exist over Q only: ``inertia_counts`` is fraction-free symmetric
elimination on A, in which a pivot p turns the trailing block B into
|p| B - sign(p) a a^T, a congruence up to a positive scale.

``reflection_product(B, vectors)`` is the matrix of a word of reflections
r_v = I - v (B v)^T / Q(v), built from I by one rank-one update per
reflection, O(n^2) each.  ``preserves_form(M, S)`` decides M^T S M = S on
the kernel forms (A^T G A = d^2 G for A = d M, G = s S, mod p over F_p)
without building a product matrix.

The coordinate layer goes through a few helpers built on those kernels.
Coordinates on a subspace are one map, ``Subspace._coordinates(V)`` for a
Matrix V of rows: the basis B is reduced echelon, so B[:, P] = I on its
pivot columns P, the coordinates of V are the columns V[:, P], and one
product checks membership, V lies in the subspace exactly when
V[:, P] B = V.  ``coordinates_of``, ``contains`` and ``is_contained_in``
call it, the last with the whole basis matrix of the smaller subspace.
``bilinear_value(X, u, v)`` is the one evaluator of a bilinear form in
coordinates, u X v^T, one int dot product on the kernel form of X;
``restrict_bilinear(X, rows)`` is the one restriction of a form, the matrix
C X C^T on coordinate rows C; and ``combine(field, coords, rows, ncols)`` is
the one row combination, the rows of C B for coordinate rows C and basis
rows B, as a matrix product.  Coordinates on a subspace map back to ambient
vectors, and vectors found in a complement map back to the coordinates of
the larger form, by that product: ``combine`` where field elements are
wanted, ``C @ B`` on kernel rows where a Subspace is.
``restrict_bilinear``, ``combine`` and ``solve_all`` take a Matrix wherever
they take rows, a Subspace's basis matrix say, and then read its kept
kernel form, so a basis is never boxed into field elements and converted
back.  ``RightComplement(X, u)`` is the complement of one vector,
{y : u X y^T = 0}, in its reduced echelon basis: X on it is one rank-one
update of the kernel form of X, O(m^2), and its coordinates map back in
O(m) per row, so the triangular bases of ``factor`` run no matrix product.
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
# the kernel form: a matrix is (A, d), matrix = A / d, with A lists of ints.
# Over Q, A holds integer rows over d, the lcm of the entries' denominators;
# over F_p, A holds residues in [0, p) and d = 1.  Kernel rows that stand for
# a row span may carry any nonzero scale over Q: elimination and spans do not
# see it.  Outside the kernels only three conversions differ by field: field
# elements to kernel form (a matrix, a vector or a scalar), the canonical
# form, and kernel scalars back to field elements.

def _kernel_form(field, rows):
    """Rows of field elements in kernel form (A, d)."""
    if isinstance(field, PrimeField):
        return [[x.value for x in row] for row in rows], 1
    return _int_matrix(rows)


def _kernel_vector(field, v):
    """A vector of field elements as (ints, d) with v = ints / d."""
    if isinstance(field, PrimeField):
        return [x.value for x in v], 1
    return _int_row(v)


def _kernel_scalar(field, c):
    """A field element as (n, d) with c = n / d."""
    if isinstance(field, PrimeField):
        return c.value, 1
    return c.numerator, c.denominator


def _canonical(field, A, d):
    """The kernel form of the matrix A / d, for any ints A and d > 0 (over
    F_p, d prime to p): over Q with the common gcd of d and A divided out,
    over F_p with A times the inverse of d reduced mod p and d = 1.  It is
    unique, so it decides equality."""
    if isinstance(field, PrimeField):
        p = field.p
        if d == 1:
            return [[x % p for x in row] for row in A], 1
        s = pow(d, -1, p)
        return [[x * s % p for x in row] for row in A], 1
    if d == 1:
        return A, d
    g = gcd(d, *itertools.chain.from_iterable(A))
    if g == 1:
        return A, d
    return [[x // g for x in row] for row in A], d // g


def _field_vector(field, ints, d):
    """The kernel scalars ints over d as a tuple of field elements (over F_p
    d is 1, and the ints are reduced mod p here)."""
    if isinstance(field, PrimeField):
        box, p = field.residues, field.p
        return tuple([box[x % p] for x in ints])
    if d == 1:
        return tuple(map(Fraction, ints))
    return tuple([Fraction(x, d) for x in ints])


def _rref(field, rows, ncols):
    """Reduced row echelon form of a list of rows of kernel scalars.

    Returns (rows, pivots) where rows are kernel rows, with the zero rows
    removed, and pivots the increasing list of pivot columns: over Q
    primitive integer rows with a positive pivot entry, over F_p residue
    rows with pivot entry 1, so both are canonical.  The input rows are
    read, never modified.
    """
    if isinstance(field, PrimeField):
        return _rref_mod(rows, ncols, field.p)
    return _rref_int(rows, ncols)


def _echelon_form(rows, pivots):
    """The kernel form (E, L) of the reduced row echelon form that _rref
    gives as rows and pivots: L is the lcm of the pivot entries and row i
    of E is row i of rows times L over its pivot entry (over F_p every pivot
    entry is 1, so E is rows).  The rows are primitive, so (E, L) has no
    common factor: it is canonical."""
    L = lcm(*[row[c] for row, c in zip(rows, pivots)])
    if L == 1:
        return rows, 1
    E = []
    for row, c in zip(rows, pivots):
        s = L // row[c]
        E.append(row if s == 1 else [s * x for x in row])
    return E, L


def _null_rows(field, rows, ncols):
    """Kernel rows spanning the null space of the matrix with the given
    kernel rows: with (E, L) its echelon form, free column f gives
    L e_f - sum_i E[i][f] e_(pivot i)."""
    reduced, pivots = _rref(field, rows, ncols)
    E, L = _echelon_form(reduced, pivots)
    pivot_set = set(pivots)
    null = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = L
        for row, c in zip(E, pivots):
            v[c] = -row[f]
        null.append(v)
    return _canonical(field, null, 1)[0]


def _forward(field, rows, ncols):
    """Forward elimination of a list of rows of kernel scalars: (J, P, minor).

    J lists the origin indices of the pivot rows, in the order they were
    taken, so the rows J are a basis of the row span; P is the increasing
    list of pivot columns, the pivots of the reduced echelon basis of that
    span; and minor is the signed pivot minor: +-det of the rows J and
    columns P of the input, and det of the input when it is square of full
    rank.  Over Q it is fraction-free Bareiss elimination, whose last pivot
    is that minor, over F_p elimination mod p.  The input rows are read,
    never modified.
    """
    if isinstance(field, PrimeField):
        return _forward_mod(rows, ncols, field.p)
    return _forward_int(rows, ncols)


def _det(field, rows):
    """The determinant of a square matrix of kernel rows, as a kernel
    scalar: the pivot minor of ``_forward`` at full rank, else 0."""
    J, _, minor = _forward(field, rows, len(rows))
    return minor if len(J) == len(rows) else 0


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


def _transposed(A, ncols):
    """The transpose of the integer rows A, which have ncols columns each."""
    if not A:
        return [[] for _ in range(ncols)]
    return [list(col) for col in zip(*A)]


def _primitive(row):
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _rref_int(rows, ncols):
    """Fraction-free Gauss-Jordan on integer rows, each kept primitive, and
    each pivot row's sign made positive at the end.  The input rows are
    read, never modified."""
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
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(work, pivots)], pivots


def _forward_int(rows, ncols):
    """Bareiss elimination with column skipping on integer rows.  After the
    pivot p of column c, each row i below holds (p x - t y) / prev on the
    columns past c, t its entry in column c, y the pivot row and prev the
    pivot before: a minor of the input, so the division is exact, and the
    last pivot is the minor of the pivot rows and columns."""
    work = [row[:] for row in rows]
    order = list(range(len(work)))
    nrows = len(work)
    pivots = []
    sign = prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = _pivot_row(work, r, c)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            order[r], order[pivot_row] = order[pivot_row], order[r]
            sign = -sign
        p = work[r][c]
        ptail = work[r][c + 1:]
        for i in range(r + 1, nrows):
            row = work[i]
            t = row[c]
            if t:
                row[c + 1:] = [(p * x - t * y) // prev for x, y in zip(row[c + 1:], ptail)]
            elif p != prev:
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
        pivots.append(c)
        prev = p
        r += 1
    return order[:r], pivots, sign * prev


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


def _rref_mod(rows, ncols, p):
    work = [row[:] for row in rows]
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


def _forward_mod(rows, ncols, p):
    """Elimination mod p; the minor is the signed product of the pivots."""
    work = [row[:] for row in rows]
    order = list(range(len(work)))
    nrows = len(work)
    pivots = []
    minor = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = _pivot_row(work, r, c)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            order[r], order[pivot_row] = order[pivot_row], order[r]
            minor = -minor
        pivot = work[r][c]
        minor = minor * pivot % p
        inv = pow(pivot, p - 2, p)
        tail = work[r][c + 1:]
        for i in range(r + 1, nrows):
            row = work[i]
            if row[c]:
                t = row[c] * inv % p
                row[c + 1:] = [(x - t * y) % p for x, y in zip(row[c + 1:], tail)]
        pivots.append(c)
        r += 1
    return order[:r], pivots, minor


def _rank_one_mod(p, A, B):
    """Whether A - B has rank exactly one mod p, for residue rows A and B.

    Residues lie in [0, p), so a row of A - B is zero exactly when the two
    rows are equal.  The first nonzero row l, with lead column c (l_c != 0),
    spans the row space exactly when every later row r is (r_c / l_c) l,
    that is l_c r_k - r_c l_k = 0 mod p for every k; the first row that
    fails ends the test.
    """
    lead = None
    for a, b in zip(A, B):
        if a == b:
            continue
        if lead is None:
            lead = [x - y for x, y in zip(a, b)]
            c = next(k for k, x in enumerate(lead) if x)
            lc = lead[c]
        else:
            rc = a[c] - b[c]
            if any((lc * (x - y) - rc * l) % p for x, y, l in zip(a, b, lead)):
                return False
    return lead is not None


def _echelon_step_mod(p, echelon, row):
    """``echelon`` extended by the residue row ``row`` reduced against it:
    a new tuple with the reduced row appended, scaled to lead with 1, or
    ``echelon`` itself when the row reduces to zero.

    ``echelon`` is a tuple of (pivot column c, row) pairs in the order they
    were appended; each row has 1 at c and 0 at every earlier pivot, since
    it was reduced against the rows before it.  So one pass in that order
    clears every pivot column of ``row``, and the rank of the rows fed in
    is ``len(echelon)``.  The input tuple is never changed, so states can
    be shared between callers.
    """
    for c, e in echelon:
        t = row[c]
        if t:
            row = [(x - t * y) % p for x, y in zip(row, e)]
    for c, x in enumerate(row):
        if x:
            inv = pow(x, p - 2, p)
            return echelon + ((c, [y * inv % p for y in row]),)
    return echelon


def _check_same_field(a, b):
    """Raise as the scalars would when operands live in different fields."""
    if a == b:
        return
    if a.characteristic and b.characteristic:
        raise ValueError("mixed characteristics: F_%d vs F_%d" % (a.p, b.p))
    raise TypeError("operands over %r and %r" % (a, b))


class Matrix:
    """Immutable matrix over a fixed field.

    A matrix keeps one kernel form (A, d), matrix = A / d: over Q integer
    rows A over the least common denominator d of its entries, over F_p
    residue rows A with d = 1.  It is built at most once, from the entries,
    or given directly by the kernels and by the JSON decoder, whose entries
    are then boxed on first read of ``entries``.  Both are kept once built;
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
        """Internal result: the matrix A / d, given by its kernel form (lists
        of ints A and d, as ``_canonical`` gives them)."""
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
            field = self.field
            entries = self._entries = tuple([_field_vector(field, row, d) for row in A])
        return entries

    def _int_form(self):
        """The kernel form (A, d), built at most once; A is shared, so only
        read."""
        form = self._int
        if form is None:
            form = self._int = _kernel_form(self.field, self._entries)
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
        return cls._of_int(field, [[0] * cols for _ in range(rows)], 1, cols)

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

    def submatrix(self, rows, cols):
        """The matrix of the entries in the given rows and columns, in the
        order given."""
        field = self.field
        A, d = self._int_form()
        sub = [[A[i][j] for j in cols] for i in rows]
        return Matrix._of_int(field, *_canonical(field, sub, d), len(cols))

    def transpose(self):
        A, d = self._int_form()
        return Matrix._of_int(self.field, _transposed(A, self.cols), d, self.rows)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("%dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        field = self.field
        _check_same_field(field, other.field)
        (A1, d1), (A2, d2) = self._int_form(), other._int_form()
        d = lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        rows = [[op(s1 * x, s2 * y) for x, y in zip(r1, r2)] for r1, r2 in zip(A1, A2)]
        return Matrix._of_int(field, *_canonical(field, rows, d), self.cols)

    def __neg__(self):
        field = self.field
        A, d = self._int_form()
        return Matrix._of_int(field, *_canonical(field, [[-x for x in row] for row in A], d),
                              self.cols)

    def scale(self, c):
        field = self.field
        num, den = _kernel_scalar(field, field(c))
        A, d = self._int_form()
        return Matrix._of_int(field, *_canonical(field, [[num * x for x in row] for row in A],
                                                 d * den), self.cols)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("%dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        field = self.field
        _check_same_field(field, other.field)
        (A, da), (B, db) = self._int_form(), other._int_form()
        cols = _transposed(B, other.cols)
        rows = [[sum(map(mul, r, c)) for c in cols] for r in A]
        return Matrix._of_int(field, *_canonical(field, rows, da * db), other.cols)

    def apply(self, v):
        """Matrix times column vector, as a tuple."""
        field = self.field
        v = tuple(map(field, v))
        if len(v) != self.cols:
            raise DimensionMismatch("vector of length %d against %d columns" % (len(v), self.cols))
        iv, dv = _kernel_vector(field, v)
        A, d = self._int_form()
        return _field_vector(field, [sum(map(mul, r, iv)) for r in A], d * dv)

    def is_zero(self):
        return not any(map(any, self._int_form()[0]))

    def is_symmetric(self):
        return self.rows == self.cols and _is_symmetric(self._int_form()[0])

    def rref(self):
        reduced, pivots = _rref(self.field, self._int_form()[0], self.cols)
        R = Matrix._of_int(self.field, *_echelon_form(reduced, pivots), self.cols)
        return R, tuple(pivots)

    def rank(self):
        return len(_forward(self.field, self._int_form()[0], self.cols)[0])

    def det(self):
        if self.rows != self.cols:
            raise NonSquare("determinant of a %dx%d matrix" % (self.rows, self.cols))
        A, d = self._int_form()
        return _field_vector(self.field, (_det(self.field, A),), d ** self.rows)[0]

    def inverse(self):
        if self.rows != self.cols:
            raise NonSquare("inverse of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        A, d = self._int_form()      # [A | d I] is d [M | I]
        aug = [row + [d if j == i else 0 for j in range(n)] for i, row in enumerate(A)]
        reduced, pivots = _rref(self.field, aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        # the echelon form is L [I | M^-1], and L is prime to the right half
        E, L = _echelon_form(reduced, pivots)
        return Matrix._of_int(self.field, [row[n:] for row in E], L, n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # the kernel form is unique, so it decides equality
        return (self.field == other.field and self.cols == other.cols
                and self._int_form() == other._int_form())

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return "Matrix(%r, %dx%d)" % (self.field, self.rows, self.cols)
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return "Matrix(%r, [%s])" % (self.field, body)


def bilinear_value(X, u, v):
    """u X v^T for coordinate row vectors u and v (field elements or ints).

    It is one int dot product on the kernel form of X and the two vectors in
    kernel form, over the product of the denominators.
    """
    field = X.field
    if not X.rows:
        return field.zero
    same = u is v
    u = tuple(map(field, u))
    v = u if same else tuple(map(field, v))
    if len(v) != X.cols:
        raise DimensionMismatch("vector of length %d against %d columns" % (len(v), X.cols))
    if len(u) != X.rows:
        raise DimensionMismatch("dot of lengths %d and %d" % (len(u), X.rows))
    A, d = X._int_form()
    iv, dv = _kernel_vector(field, v)
    iu, du = (iv, dv) if same else _kernel_vector(field, u)
    value = sum(map(mul, iu, [sum(map(mul, r, iv)) for r in A]))
    return _field_vector(field, (value,), d * du * dv)[0]


def inertia_counts(S):
    """(positives, negatives, zeros) of the symmetric matrix S over Q, from
    a fraction-free elimination of its integer form."""
    return _inertia_int(S._int_form()[0])


def _as_matrix(field, rows, cols):
    """rows as a Matrix: a Matrix itself, whose kept kernel form is then
    read, or rows of scalars of length cols."""
    return rows if isinstance(rows, Matrix) else Matrix(field, rows, cols=cols)


def restrict_bilinear(X, rows):
    """Matrix C X C^T of the form X on the coordinate rows C (a Matrix, or
    rows of scalars)."""
    C = _as_matrix(X.field, rows, X.rows)
    return C @ X @ C.transpose()


def combine(field, coords, rows, ncols):
    """The rows of C B, with C the coordinate rows coords and B the rows
    (each of length ncols), as a tuple of tuples of field elements.  Either
    may be a Matrix, a basis matrix say, whose kernel form is read as kept."""
    B = _as_matrix(field, rows, ncols)
    return (_as_matrix(field, coords, B.rows) @ B).entries


class RightComplement:
    """The right complement {y : u X y^T = 0} of a coordinate vector u in its
    reduced echelon basis, and the form X on it, by one rank-one update.

    With w = u X (nonzero) and q the last index with w_q != 0, the basis
    rows are r_a = e_(j_a) - c_(j_a) e_q for the indices j_a != q in order,
    c = w / w_q, kept in kernel form (C, e) with C[q] = e: over Q with the
    gcd divided out, over F_p times the inverse of w_q, so e = 1.  On the
    kernel form (A, d) of X the restricted form ``form`` is

        X_R[a][b] = X[j_a][j_b] - c_(j_b) X[j_a][q] - c_(j_a) X[q][j_b]
                    + c_(j_a) c_(j_b) X[q][q],

    that is e^2 d X_R = e^2 A[j_a][j_b] - e A[j_a][q] C[j_b] - C[j_a] g_b
    with g_b = e A[q][j_b] - C[j_b] A[q][q], O(m^2) integer work in place of
    the product R X R^T.  A row y of coordinates on the complement maps
    back to y R in O(m): y at the j_a and -sum_a y_a c_(j_a) at q.
    """

    __slots__ = ("field", "q", "C", "e", "form")

    def __init__(self, X, u):
        field, m = X.field, X.rows
        A, d = X._int_form()
        iu = _kernel_vector(field, tuple(map(field, u)))[0]
        w = [0] * m
        for x, row in zip(iu, A):
            if x:
                w = [s + x * y for s, y in zip(w, row)]
        (w,), _ = _canonical(field, [w], 1)
        q = max(j for j, x in enumerate(w) if x)
        if w[q] < 0:
            w = [-x for x in w]
        (C,), e = _canonical(field, [w], w[q])
        self.field, self.q, self.C, self.e = field, q, C, e
        Cq, Aq, aqq = C[:q] + C[q + 1:], A[q], A[q][q]
        g = [e * x - c * aqq for x, c in zip(Aq[:q] + Aq[q + 1:], Cq)]
        e2 = e * e
        rows = []
        for row, t in zip(A[:q] + A[q + 1:], Cq):
            s = e * row[q]
            rows.append([e2 * x - s * c - t * y for x, c, y in zip(row[:q] + row[q + 1:], Cq, g)])
        self.form = Matrix._of_int(field, *_canonical(field, rows, d * e2), m - 1)

    def rows(self):
        """The basis rows r_a, as tuples of field elements."""
        q, C, e = self.q, self.C, self.e
        out = []
        for j in range(len(C)):
            if j != q:
                r = [0] * len(C)
                r[j], r[q] = e, -C[j]
                out.append(_field_vector(self.field, r, e))
        return tuple(out)

    def lift(self, u, Y):
        """The Matrix with first row u, then y R for each row y of Y, a
        Matrix of coordinate rows on the complement."""
        field, q, C, e = self.field, self.q, self.C, self.e
        B, D = Y._int_form()
        Cq = C[:q] + C[q + 1:]
        iu, du = _kernel_vector(field, tuple(map(field, u)))
        eD = e * D
        L = lcm(eD, du)
        s, t = L // du, L // eD
        rows = [[s * x for x in iu]]
        for y in B:
            z = [t * e * x for x in y]
            z.insert(q, -t * sum(map(mul, y, Cq)))
            rows.append(z)
        return Matrix._of_int(field, *_canonical(field, rows, L), len(C))


# ---------------------------------------------------------------------------
# reflection words and form preservation: one kernel per field each, both
# on the kernel forms

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
    G, rows = B._int_form()[0], [_kernel_vector(field, v)[0] for v in vectors]
    if isinstance(field, PrimeField):
        A, D = _reflection_product_mod(field.p, G, rows), 1
    else:
        A, D = _reflection_product_int(G, rows)
    return Matrix._of_int(field, A, D, n)


def _reflection_product_int(G, vectors):
    """The word over Q as (A, D) with matrix A / D.  With B = G / s and each
    integer row v made primitive (reflections ignore both scales),
    r_v = I - 2 v (G v)^T / q for q = v^T G v, so A <- q A - 2 (A v)(G v)^T
    and D <- q D, with gcd(D, entries) divided out after each step."""
    n = len(G)
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    D = 1
    for v in vectors:
        v = _primitive(v)
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

    On the kernel forms A = d M and G = s S the test is A^T G A = d^2 G over
    Q, and the same products mod p over F_p (where d = 1).  The
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
    G = S._int_form()[0]
    A, d = M._int_form()
    if isinstance(M.field, PrimeField):
        return _preserves_form_mod(M.field.p, list(zip(*A)), G, _is_symmetric(G))
    return _preserves_form_int(list(zip(*A)), d, G, _is_symmetric(G))


def _is_symmetric(rows):
    return all(list(col) == row for col, row in zip(zip(*rows), rows))


# the two kernels take the columns of A and the rows of G

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


def solve(A, b):
    """A particular solution x of A x = b, or None when none exists."""
    xs = solve_all(A, [b])
    return None if xs is None else xs[0]


def solve_all(A, vectors):
    """Particular solutions x_j of A x_j = b_j, one for each b_j in vectors
    (rows of scalars, or the rows of a Matrix, whose kernel form is read as
    kept), from one elimination of [A | b_1 ... b_k]; None when some b_j has
    none.  Free variables are set to zero, so each x_j is the one
    solve(A, b_j) returns."""
    field = A.field
    if isinstance(vectors, Matrix):
        V, e = vectors._int_form()
        if V and vectors.cols != A.rows:
            raise DimensionMismatch("rhs of length %d against %d rows" % (vectors.cols, A.rows))
    else:
        vectors = [tuple(map(field, b)) for b in vectors]
        for b in vectors:
            if len(b) != A.rows:
                raise DimensionMismatch("rhs of length %d against %d rows" % (len(b), A.rows))
        V, e = _kernel_form(field, vectors)
    if not V:
        return []
    n, k = A.cols, len(V)
    # row i of [A | b_1 ... b_k] times d e: rows scale freely
    M, d = A._int_form()
    aug = [[e * x for x in row] + [d * y for y in rhs]
           for row, rhs in zip(M, _transposed(V, A.rows))]
    reduced, pivots = _rref(field, aug, n + k)
    if pivots and pivots[-1] >= n:
        return None
    E, L = _echelon_form(reduced, pivots)
    X = [[0] * n for _ in range(k)]
    for row, c in zip(E, pivots):
        for j, x in enumerate(X):
            x[c] = row[n + j]
    return [_field_vector(field, x, L) for x in X]


def kernel(A):
    """The null space of A as a Subspace of the column-index space."""
    return Subspace._span(A.field, A.cols, _null_rows(A.field, A._int_form()[0], A.cols))


def image(A):
    """The column space of A as a Subspace."""
    return Subspace._span(A.field, A.rows, _transposed(A._int_form()[0], A.cols))


def column_basis(A):
    """(J, P, minor) for the columns of A: the columns J, in the order
    found, are a basis of the column space, P are the pivots of the
    canonical basis of ``image(A)``, and minor = +-det A[P][J], a field
    element.  It is ``_forward`` run on the rows of A^T, one elimination
    with no back substitution."""
    field = A.field
    M, d = A._int_form()
    J, P, minor = _forward(field, _transposed(M, A.cols), A.rows)
    return J, P, _field_vector(field, (minor,), d ** len(J))[0]


def rank(A):
    return A.rank()


def det(A):
    return A.det()


class Subspace:
    """A linear subspace, kept as its basis matrix: the reduced row echelon
    form of its row span, which _rref and _echelon_form give in kernel form,
    with its pivot columns.  It is canonical, so two subspaces are equal
    (and hash alike) exactly when they describe the same subspace.
    ``basis`` is that matrix's entries, boxed on first read."""

    __slots__ = ("field", "ambient_dim", "_matrix", "_pivots")

    def __init__(self, field, ambient_dim, vectors=()):
        vectors = [tuple(map(field, v)) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                        % (len(v), ambient_dim))
        self._reduce(field, ambient_dim, [_kernel_vector(field, v)[0] for v in vectors])

    @classmethod
    def _span(cls, field, ambient_dim, rows):
        """Internal: the span of rows of kernel scalars of length ambient_dim."""
        U = object.__new__(cls)
        U._reduce(field, ambient_dim, rows)
        return U

    def _reduce(self, field, ambient_dim, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        reduced, self._pivots = _rref(field, rows, ambient_dim)
        self._matrix = Matrix._of_int(field, *_echelon_form(reduced, self._pivots), ambient_dim)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim)

    @classmethod
    def full(cls, field, ambient_dim):
        return cls._span(field, ambient_dim, Matrix.identity(field, ambient_dim)._int_form()[0])

    @property
    def basis(self):
        """The canonical basis rows, as a tuple of tuples of field elements."""
        return self._matrix.entries

    @property
    def dim(self):
        return self._matrix.rows

    def basis_matrix(self):
        return self._matrix

    def _coordinates(self, V):
        """The coordinate rows C of the rows of the Matrix V in the basis B,
        or None when some row lies outside.  B is reduced echelon, so
        B[:, P] = I for its pivot columns P: C is V[:, P], and V lies in the
        subspace exactly when C B = V, compared on the kernel forms."""
        if V.rows and V.cols != self.ambient_dim:
            raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                    % (V.cols, self.ambient_dim))
        C = V.submatrix(range(V.rows), self._pivots)
        return C if (C @ self._matrix)._int_form() == V._int_form() else None

    def contains(self, v):
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v):
        """Coefficients of v in the canonical basis, or None if v is outside."""
        v = tuple(map(self.field, v))
        C = self._coordinates(Matrix._of(self.field, (v,), len(v)))
        return None if C is None else C.entries[0]

    def is_contained_in(self, other):
        return other._coordinates(self._matrix) is not None

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._matrix == other._matrix

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._matrix.entries))

    def __repr__(self):
        return "Subspace(dim %d of %d over %r)" % (self.dim, self.ambient_dim, self.field)


def subspace_sum(U, W):
    _check_same_ambient(U, W)
    return Subspace._span(U.field, U.ambient_dim,
                          U._matrix._int_form()[0] + W._matrix._int_form()[0])


def subspace_intersection(U, W):
    _check_same_ambient(U, W)
    field, n, k = U.field, U.ambient_dim, U.dim
    if k == 0 or W.dim == 0:
        return Subspace.zero(field, n)
    # the null space of the matrix with columns u_1..u_k, -w_1..-w_l holds
    # the (a, b) with a U = b W, and the rows a U span the intersection; on
    # kernel rows the row scales change a and b, but not the span of a U
    BU = U._matrix
    cols = BU._int_form()[0] + (-W._matrix)._int_form()[0]
    coords = [row[:k] for row in _null_rows(field, _transposed(cols, n), len(cols))]
    return Subspace._span(field, n, (Matrix._of_int(field, coords, 1, k) @ BU)._int_form()[0])


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
    Each pattern is written as residue rows and mapped into the ambient
    space by one product with the basis matrix of of_space.
    """
    field = of_space.field
    if not isinstance(field, PrimeField):
        raise TypeError("subspace enumeration needs a finite field, got %r" % field)
    d = of_space.dim
    total = count_subspaces(d, field.p)
    if total > cap:
        raise TooLarge("%d subspaces exceeds the cap of %d" % (total, cap))
    B, amb, p = of_space.basis_matrix(), of_space.ambient_dim, field.p
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            pivot_set = set(pivots)
            free_positions = [(i, c) for i in range(k) for c in range(pivots[i] + 1, d)
                              if c not in pivot_set]
            for assignment in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, c), val in zip(free_positions, assignment):
                    rows[i][c] = val
                pattern = Matrix._of_int(field, rows, 1, d)
                yield Subspace._span(field, amb, (pattern @ B)._int_form()[0])
