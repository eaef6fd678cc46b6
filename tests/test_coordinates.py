"""The one coordinate map on subspaces, against the boxed loops it replaced.

``Subspace._coordinates`` reads coordinates off the pivot columns of kernel
rows and checks membership by one product.  The references below are the
per-vector reduction on boxed field elements and the boxed echelon-pattern
loop of ``enumerate_subspaces``, kept here as they were.
"""

import itertools
import random
from fractions import Fraction

import pytest

from wallfact import (DimensionMismatch, Matrix, PrimeField, QQ, Subspace, TooLarge,
                      diagonal_space, enumerate_subspaces, kernel, wall_form)
from wallfact import linalg
from wallfact.linalg import combine, count_subspaces
from tests.conftest import random_isometry

FIELDS = (QQ, PrimeField(3), PrimeField(5), PrimeField(7))


def boxed_coordinates(U, v):
    """Coefficients of v in the canonical basis of U by row reduction on
    boxed entries, or None if v is outside."""
    v = tuple(map(U.field, v))
    if len(v) != U.ambient_dim:
        raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                % (len(v), U.ambient_dim))
    if not U.dim:
        return () if all(not x for x in v) else None
    coords = []
    residue = list(v)
    for row in U.basis:
        pivot = next(i for i, x in enumerate(row) if x)
        c = residue[pivot]
        coords.append(c)
        if c:
            residue = [a - c * b for a, b in zip(residue, row)]
    if any(residue):
        return None
    return tuple(coords)


def boxed_coord_rows(wd, vectors):
    rows = []
    for v in vectors:
        c = boxed_coordinates(wd.subspace, v)
        if c is None:
            raise ValueError("vector is not in the moved space")
        rows.append(c)
    return Matrix(wd.space.field, rows, cols=wd.dim)


def boxed_complement(wd, U, X):
    field, n = wd.space.field, wd.space.dim
    coords = kernel(boxed_coord_rows(wd, U.basis) @ X).basis_matrix()
    return Subspace(field, n, combine(field, coords, wd.basis, n))


def boxed_enumeration(of_space):
    """The echelon-pattern loop on boxed rows, each pattern combined with the
    basis of of_space."""
    field = of_space.field
    d, amb = of_space.dim, of_space.ambient_dim
    scalars = list(field.elements())
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
                yield Subspace(field, amb, combine(field, rows, of_space.basis_matrix(), amb))


def random_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return field(rng.randrange(field.p))


def random_vector(field, rng, n, zeros=0.3):
    return tuple(field.zero if rng.random() < zeros else random_scalar(field, rng)
                 for _ in range(n))


def random_subspace(field, rng, n, k):
    return Subspace(field, n, [random_vector(field, rng, n) for _ in range(k)])


def combination(field, rng, U):
    coeffs = [random_scalar(field, rng) for _ in range(U.dim)]
    v = [field.zero] * U.ambient_dim
    for c, row in zip(coeffs, U.basis):
        v = [x + c * y for x, y in zip(v, row)]
    return tuple(v)


def subspace_cases(field, seed):
    """Seeded subspaces of dims 0-4 in ambient dims 1-6, each with vectors
    inside it and random vectors that mostly lie outside."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for k in range(min(4, n) + 1):
            U = random_subspace(field, rng, n, k)
            inside = [combination(field, rng, U) for _ in range(3)]
            outside = [random_vector(field, rng, n) for _ in range(3)]
            yield U, [(field.zero,) * n, *inside, *outside]


@pytest.mark.parametrize("field", FIELDS, ids=str)
class TestCoordinateMapAgainstBoxedLoop:
    def test_coordinates_and_contains(self, field):
        outside = 0
        for U, vectors in subspace_cases(field, 3201):
            for v in vectors:
                ref = boxed_coordinates(U, v)
                outside += ref is None
                got = U.coordinates_of(v)
                assert got == ref
                assert got is None or all(type(x) is type(field.zero) for x in got)
                assert U.contains(v) == (ref is not None)
                assert linalg.contains(U, v) == (ref is not None)
        assert outside > 0

    def test_is_contained_in(self, field):
        rng = random.Random(3202)
        cases = list(subspace_cases(field, 3203))
        for (U, _), (W, _) in itertools.combinations(cases, 2):
            if U.ambient_dim != W.ambient_dim:
                continue
            for A, B in ((U, W), (W, U), (U, linalg.subspace_sum(U, W))):
                ref = all(boxed_coordinates(B, v) is not None for v in A.basis)
                assert A.is_contained_in(B) == ref
        for U, _ in cases:
            sub = Subspace(field, U.ambient_dim, [combination(field, rng, U)])
            assert sub.is_contained_in(U)

    def test_zero_subspace(self, field):
        for n in range(1, 5):
            Z = Subspace.zero(field, n)
            assert Z.coordinates_of((0,) * n) == ()
            assert Z.coordinates_of((0,) * (n - 1) + (1,)) is None
            assert Z.contains((0,) * n) and not Z.contains((1,) + (0,) * (n - 1))
            assert Z.is_contained_in(Z) and Z.is_contained_in(Subspace.full(field, n))
            assert not Subspace.full(field, n).is_contained_in(Z)

    def test_wrong_length(self, field):
        for U, _ in subspace_cases(field, 3204):
            n = U.ambient_dim
            for v in ((1,) * (n + 1), (0,) * (n - 1)):
                with pytest.raises(DimensionMismatch) as ref:
                    boxed_coordinates(U, v)
                for call in (U.coordinates_of, U.contains):
                    with pytest.raises(DimensionMismatch) as got:
                        call(v)
                    assert str(got.value) == str(ref.value)
            if U.dim:
                other = Subspace.full(field, n + 1)
                with pytest.raises(DimensionMismatch) as got:
                    U.is_contained_in(other)
                assert str(got.value) == "vector of length %d in ambient dimension %d" % (
                    n, n + 1)

    def test_wall_data(self, field):
        rng = random.Random(3205)
        done = 0
        for n in range(2, 7):
            space = diagonal_space(field, [1, -1, 2, 1, -1, 2][:n])
            for _ in range(3):
                wd = wall_form(random_isometry(space, rng, reflections=rng.randint(0, 4)))
                m = wd.dim
                for k in range(m + 1):
                    U = Subspace(field, n, [combination(field, rng, wd.subspace)
                                            for _ in range(k)])
                    assert wd.restrict(U) == boxed_coord_rows(wd, U.basis) @ wd.chi @ \
                        boxed_coord_rows(wd, U.basis).transpose()
                    assert wd.right_complement(U) == boxed_complement(wd, U, wd.chi)
                    assert wd.left_complement(U) == boxed_complement(wd, U, wd.chi.transpose())
                    done += 1
                for v in [combination(field, rng, wd.subspace), random_vector(field, rng, n)]:
                    ref = boxed_coordinates(wd.subspace, v)
                    if ref is None:
                        with pytest.raises(ValueError, match="^vector is not in the moved space$"):
                            wd.coordinates_of(v)
                    else:
                        assert wd.coordinates_of(v) == ref
        assert done > 20


class TestEnumerateSubspacesPinned:
    """Order and subspaces equal the boxed pattern loop, on spaces whose
    pivots are not the first coordinates."""

    SPACES = [
        (PrimeField(3), 5, [(0, 1, 2, 0, 1), (0, 0, 0, 1, 2), (0, 2, 1, 1, 0)]),
        (PrimeField(3), 6, [(0, 0, 1, 2, 0, 1), (0, 1, 0, 0, 0, 2), (0, 0, 0, 0, 1, 1),
                            (1, 1, 1, 1, 1, 1)]),
        (PrimeField(5), 5, [(0, 3, 1, 0, 4), (0, 0, 0, 2, 1), (0, 1, 2, 3, 4)]),
        (PrimeField(5), 4, [(0, 0, 1, 3)]),
        (PrimeField(5), 3, []),
    ]

    @pytest.mark.parametrize("field,n,rows", SPACES)
    def test_same_order_as_boxed_loop(self, field, n, rows):
        W = Subspace(field, n, rows)
        got = list(enumerate_subspaces(W))
        assert got == list(boxed_enumeration(W))
        assert [U.basis for U in got] == [U.basis for U in boxed_enumeration(W)]
        assert len(got) == count_subspaces(W.dim, field.p)

    def test_cap_fires_before_any_yield(self, monkeypatch):
        field = PrimeField(5)
        W = Subspace(field, 5, self.SPACES[2][2])
        built = []
        real = Subspace._span.__func__

        def counting_span(cls, *args):
            built.append(args)
            return real(cls, *args)

        monkeypatch.setattr(Subspace, "_span", classmethod(counting_span))
        gen = enumerate_subspaces(W, cap=count_subspaces(W.dim, 5) - 1)
        with pytest.raises(TooLarge):
            next(gen)
        assert built == []
        assert len(list(enumerate_subspaces(W, cap=count_subspaces(W.dim, 5)))) == len(built)


class TestCoordinatesStayOnKernelRows:
    """Containment, restriction, complements and subspace enumeration box no
    field element, so a per-vector boxed reduction cannot slide back in."""

    @pytest.fixture
    def boxed(self, monkeypatch):
        calls = []
        real = linalg._field_vector

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "_field_vector", counting)
        return calls

    @pytest.mark.parametrize("field", (QQ, PrimeField(3)), ids=str)
    def test_nothing_boxed(self, field, boxed):
        space = diagonal_space(field, [1, 1, -1, -1])
        f = space.reflection([1, 0, 0, 0]) @ space.reflection([0, 1, 0, 0]) @ \
            space.reflection([0, 0, 1, 1])
        wd = wall_form(f)
        n = space.dim
        U = Subspace(field, n, [(1, 0, 0, 0), (0, 1, 1, 1)])
        W = Subspace(field, n, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
        del boxed[:]
        assert U.is_contained_in(W) and U.is_contained_in(wd.subspace)
        assert not W.is_contained_in(U)
        wd.restrict(U)
        wd.right_complement(U)
        if field is not QQ:
            assert len(list(enumerate_subspaces(W))) == count_subspaces(3, 3)
        assert boxed == []
