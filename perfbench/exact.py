"""Exact matrix arithmetic owned by the benchmark, independent of wallfact.

The generator builds its inputs with it and the checker recomputes every
expected answer with it, so a defect in wallfact's kernels cannot hide by
appearing on both sides of a comparison.  A field is either the rationals
(``p is None``, entries are ints or ``Fraction``) or F_p (entries are ints
in ``[0, p)``).  Matrices are lists of row lists.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Field:
    """The rationals when ``p`` is None, otherwise the prime field F_p."""

    def __init__(self, p=None):
        self.p = p

    def __call__(self, x):
        if self.p is None:
            x = Fraction(x)
            # integral values stay ints, which keeps integer-only work fast
            return x.numerator if x.denominator == 1 else x
        return int(x) % self.p

    def inv(self, x):
        if self.p is None:
            return 1 / Fraction(x)
        return pow(x, -1, self.p)

    def norm(self, x):
        return x if self.p is None else x % self.p

    def is_square(self, x):
        """Whether the nonzero scalar x is a square."""
        if self.p is None:
            x = Fraction(x)
            return (x > 0 and math.isqrt(x.numerator) ** 2 == x.numerator
                    and math.isqrt(x.denominator) ** 2 == x.denominator)
        return pow(x % self.p, (self.p - 1) // 2, self.p) == 1


def identity(F, n):
    return [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def matmul(F, A, B):
    cols = list(zip(*B))
    return [[F.norm(sum(a * b for a, b in zip(row, col))) for col in cols] for row in A]


def matvec(F, A, v):
    return [F.norm(sum(a * b for a, b in zip(row, v))) for row in A]


def sub(F, A, B):
    return [[F.norm(a - b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def echelon(F, A):
    """Reduced row echelon form: (rows, pivot columns), zero rows dropped."""
    work = [list(r) for r in A]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.norm(x * inv) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                t = work[i][c]
                work[i] = [F.norm(x - t * y) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def pivot_columns(F, A):
    """Pivot columns of A; over Q by fraction-free elimination on integer rows."""
    if F.p is not None:
        return echelon(F, A)[1]
    work = []
    for row in A:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        work.append([int(x * scale) for x in row])
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        a = work[r][c]
        for i in range(r + 1, len(work)):
            b = work[i][c]
            if b:
                row = [a * x - b * y for x, y in zip(work[i], work[r])]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def det(F, A):
    work = [list(r) for r in A]
    n = len(work)
    d = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            d = F.norm(-d)
        d = F.norm(d * work[c][c])
        inv = F.inv(work[c][c])
        for i in range(c + 1, n):
            if work[i][c]:
                t = F.norm(work[i][c] * inv)
                work[i] = [F.norm(x - t * y) for x, y in zip(work[i], work[c])]
    return d


def primitive(v):
    """The primitive integer vector on the line of a rational vector."""
    v = [Fraction(x) for x in v]
    scale = math.lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def column_basis(F, A):
    """Columns of A that span its column space."""
    return [[row[c] for row in A] for c in pivot_columns(F, A)]


def form_value(F, gram, u, v):
    """u^T G v."""
    return F.norm(sum(a * b for a, b in zip(u, matvec(F, gram, v))))


def inertia(gram_rows):
    """(positive, negative, zero) counts of a symmetric rational matrix."""
    A = [[Fraction(x) for x in row] for row in gram_rows]
    k = len(A)
    pos = neg = 0
    for i in range(k):
        if A[i][i] == 0:
            j = next((j for j in range(i + 1, k) if A[j][j]), None)
            if j is not None:
                A[i], A[j] = A[j], A[i]
                for row in A:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, k) if A[i][j]), None)
                if j is None:
                    continue
                # e_i += e_j makes the diagonal entry 2 A[i][j] != 0
                A[i] = [x + y for x, y in zip(A[i], A[j])]
                for row in A:
                    row[i] += row[j]
        d = A[i][i]
        pos += d > 0
        neg += d < 0
        for j in range(i + 1, k):
            if A[j][i]:
                t = A[j][i] / d
                A[j] = [x - t * y for x, y in zip(A[j], A[i])]
                for row in A:
                    row[j] -= t * row[i]
    return pos, neg, k - pos - neg


def reflection_product(F, gram, vectors):
    """r_{v_1} r_{v_2} ... r_{v_m}, one rank-one update per reflection.

    r_v(u) = u - (beta(u, v) / Q(v)) v with beta(u, v) = 2 u^T G v, so
    M r_v = M - (M v)(2 G v)^T / Q(v).
    """
    n = len(gram)
    if F.p is None:
        return _rational_reflection_product(gram, vectors)
    M = identity(F, n)
    for v in vectors:
        q = form_value(F, gram, v, v)
        if not q:
            raise ZeroDivisionError("reflection through a singular vector")
        Gv = matvec(F, gram, v)
        w = [F.norm(2 * x * F.inv(q)) for x in Gv]
        Mv = matvec(F, M, v)
        M = [[F.norm(m - a * b) for m, b in zip(row, w)] for row, a in zip(M, Mv)]
    return M


def _rational_reflection_product(gram, vectors):
    """Over Q with integers only: M = N / d, each v scaled to an integer vector
    (r_v = r_{cv}), so M r_v = (q N - (N v)(2 G v)^T) / (q d)."""
    n = len(gram)
    G = [[int(x) for x in row] for row in gram]
    if any(x.denominator != 1 for row in gram for x in map(Fraction, row)):
        raise ValueError("the rational path needs an integer form")
    N = [[int(i == j) for j in range(n)] for i in range(n)]
    d = 1
    for v in vectors:
        v = primitive(v)
        Gv = [sum(a * b for a, b in zip(row, v)) for row in G]
        q = sum(a * b for a, b in zip(v, Gv))
        if not q:
            raise ZeroDivisionError("reflection through a singular vector")
        w = [2 * x for x in Gv]
        Nv = [sum(a * b for a, b in zip(row, v)) for row in N]
        N = [[q * m - a * b for m, b in zip(row, w)] for row, a in zip(N, Nv)]
        d *= q
        g = math.gcd(d, *(x for row in N for x in row))
        if g > 1:
            N = [[x // g for x in row] for row in N]
            d //= g
        if d < 0:
            N = [[-x for x in row] for row in N]
            d = -d
    return [[Field()(Fraction(x, d)) for x in row] for row in N]


def isometry_inverse(F, gram, f):
    """f^-1 = G^-1 f^T G for an isometry of a diagonal form G."""
    ft = transpose(f)
    n = len(gram)
    return [[F.norm(ft[i][j] * gram[j][j] * F.inv(gram[i][i])) for j in range(n)]
            for i in range(n)]


def entry_bits(x):
    """Bits of the larger of numerator and denominator (of the residue over F_p)."""
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()
