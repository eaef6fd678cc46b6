"""Integral LLL and reduced kernel lattices.

Seeded random integer rows of length 2..12 with entries up to 200 bits, some
of them zero, go through kernel_basis.  The rows that come back must lie in
the kernel, span all of it (their Gram determinant is |a/g|^2, g the gcd of
a, which is the determinant of the kernel lattice of a primitive row), and be
LLL-reduced with delta = 3/4, checked by Gram-Schmidt in Fractions.  sympy,
a test-time cross-check only, reduces the same kernel lattice from another
starting basis and must land on the same lattice.  sympy's pure-Python LLL
rounds mu through float, which goes wrong once mu outgrows 53 bits, so that
comparison draws entries of up to 32 bits.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from wallfact import Matrix, QQ, solve
from wallfact.lattice import kernel_basis, lll

SAMPLES = 60


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def random_row(rng, m, bit_sizes):
    bits = rng.choice(bit_sizes)
    row = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(m)]
    for i in rng.sample(range(m), rng.randint(0, m - 1)):
        row[i] = 0
    if not any(row):
        row[rng.randrange(m)] = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
    return row


def rows_sample(seed, bit_sizes=(1, 3, 16, 64, 200)):
    rng = random.Random(seed)
    return [random_row(rng, rng.randint(2, 12), bit_sizes) for _ in range(SAMPLES)]


def gram_det(B):
    return Matrix(QQ, [[_dot(u, v) for v in B] for u in B]).det()


def check_reduced(B):
    """|mu_ij| <= 1/2 and the Lovasz condition with delta = 3/4."""
    star, norms = [], []
    for i, b in enumerate(B):
        v = [Fraction(x) for x in b]
        mus = []
        for bs, n in zip(star, norms):
            mu = _dot(b, bs) / n
            mus.append(mu)
            v = [x - mu * y for x, y in zip(v, bs)]
        assert all(abs(mu) <= Fraction(1, 2) for mu in mus), (i, mus)
        n = _dot(v, v)
        if i:
            assert n >= (Fraction(3, 4) - mus[-1] ** 2) * norms[-1], i
        star.append(v)
        norms.append(n)


def same_lattice(B1, B2):
    """Each row of B2 has integer coordinates in B1, and the covolumes agree."""
    if len(B1) != len(B2):
        return False
    A = Matrix(QQ, list(zip(*B1)))
    for row in B2:
        x = solve(A, row)
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return gram_det(B1) == gram_det(B2)


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_rows_annihilate_the_row(seed):
    for a in rows_sample(seed):
        B = kernel_basis(a)
        assert len(B) == len(a) - 1
        assert all(len(y) == len(a) and _dot(a, y) == 0 for y in B)


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_rows_span_the_whole_kernel_lattice(seed):
    for a in rows_sample(seed):
        g = gcd(*a)
        assert gram_det(kernel_basis(a)) == sum((x // g) ** 2 for x in a)


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_rows_are_lll_reduced(seed):
    for a in rows_sample(seed):
        check_reduced(kernel_basis(a))


def test_zero_row_and_length_one():
    assert kernel_basis([0, 0, 0]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis([5]) == []
    assert kernel_basis([0, 7]) == [[1, 0]]


def test_lll_reduces_a_skewed_basis_of_the_same_lattice():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 8)
        while True:
            B = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)] for _ in range(n)]
            if gram_det(B):
                break
        R = lll(B)
        check_reduced(R)
        assert same_lattice(B, R)


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        lll([[0, 0], [1, 0]])


def test_kernel_lattice_matches_sympy_lll():
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    for a in rows_sample(4, bit_sizes=(1, 3, 16, 32))[:30]:
        m = len(a)
        g = gcd(*a)
        prim = [x // g for x in a]
        # the embedding [I | K a]: for K this large the reduced basis begins
        # with m - 1 rows whose last entry is 0, a basis of the kernel lattice
        K = 2 ** (m + sum(abs(x).bit_length() for x in prim))
        rows = [[int(i == j) for j in range(m)] + [K * x] for i, x in enumerate(prim)]
        reduced = DomainMatrix([[ZZ(x) for x in row] for row in rows], (m, m + 1), ZZ).lll()
        theirs = [[int(x) for x in row] for row in reduced.to_Matrix().tolist()]
        assert all(row[-1] == 0 for row in theirs[:m - 1])
        assert same_lattice(kernel_basis(a), [row[:m] for row in theirs[:m - 1]])
