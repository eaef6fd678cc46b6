"""Integer lattices: LLL reduction and reduced kernel bases.

``lll`` is the integral LLL algorithm with delta = 3/4 (Lenstra, Lenstra and
Lovasz, Math. Ann. 261, 1982), in the all-integer form of Cohen, A Course in
Computational Algebraic Number Theory, Algorithm 2.6.7: the Gram-Schmidt
data are kept as the integers d_i (Gram determinants of the first i basis
vectors) and lambda_{k,j} = d_{j+1} mu_{k,j}, and every division is exact.

``kernel_basis`` gives a reduced basis of {y in Z^m : a . y = 0} for one
integer row a.  A chain of extended gcds completes a / gcd(a) to a
unimodular matrix whose other rows lie in the kernel; those rows span the
whole kernel lattice, and LLL makes them short.
"""

from __future__ import annotations

from math import gcd


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def lll(rows):
    """An LLL-reduced basis (delta = 3/4) of the lattice spanned by rows.

    The rows must be linearly independent integer vectors.  Returns a new
    list of lists of ints spanning the same lattice.
    """
    b = [list(row) for row in rows]
    n = len(b)
    if n <= 1:
        return b
    # d[i] is the Gram determinant of b[0..i-1]; lam[k][j] = d[j+1] mu_{k,j}
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    d[1] = _dot(b[0], b[0])
    if not d[1]:
        raise ValueError("lll needs linearly independent rows")

    def reduce(k, l):
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) > dl:
            q = (2 * lam[k][l] + dl) // (2 * dl)
            bl = b[l]
            b[k] = [x - q * y for x, y in zip(b[k], bl)]
            lam[k][l] -= q * dl
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (B * t + mu * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt for the new row b[k]
            kmax = k
            for j in range(k + 1):
                u = _dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    if not u:
                        raise ValueError("lll needs linearly independent rows")
                    d[k + 1] = u
        reduce(k, k - 1)
        # Lovasz condition d_{k+1} d_{k-1} >= (3/4) d_k^2 - lam_{k,k-1}^2
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b


def _xgcd(a, b):
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def kernel_basis(a):
    """An LLL-reduced basis of the lattice {y in Z^m : a . y = 0}.

    a is a sequence of m ints.  Returns m - 1 rows (lists of ints) when a is
    nonzero and the m unit rows when it is zero.  After a is divided by its
    gcd, v tracks a vector with a . v = acc, the gcd of the entries seen so
    far; pairing e_j with v gives the kernel vector (a_j/g) v - (acc/g) e_j
    and the next v = x v + y e_j, where x acc + y a_j = g.  Each step is a
    unimodular change of (v, e_j), so the m - 1 kernel vectors and the final
    v (with a . v = 1) form a basis of Z^m, and the kernel vectors alone
    span the whole kernel lattice.
    """
    a = list(a)
    m = len(a)
    g = gcd(*a)
    if not g:
        return [[int(i == j) for j in range(m)] for i in range(m)]
    a = [x // g for x in a]
    acc = a[0]
    v = [1] + [0] * (m - 1)
    rows = []
    for j in range(1, m):
        e = [0] * m
        e[j] = 1
        if not acc and not a[j]:
            rows.append(e)
            continue
        g, x, y = _xgcd(acc, a[j])
        p, q = a[j] // g, acc // g
        rows.append([p * s - q * t for s, t in zip(v, e)])
        v = [x * s + y * t for s, t in zip(v, e)]
        acc = g
    return lll(rows)
