"""The rank-one reflection-word kernel and the integer isometry check,
against the dense constructions they replaced."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from wallfact import (Factorization, Isometry, Matrix, NotIsometry, PrimeField, QQ,
                      QuadraticSpace, SingularVector)
from wallfact.linalg import preserves_form, reflection_product

PRIMES = (3, 5, 7)


def reference_reflection(space, v):
    """The reflection entry by entry: column j is e_j - beta(e_j, v)/Q(v) v."""
    field = space.field
    q = space.q_value(v)
    n = space.dim
    cols = []
    for j in range(n):
        c = space.polar(space.standard_basis(j), v) / q
        cols.append([(field.one if i == j else field.zero) - c * v[i] for i in range(n)])
    return Matrix(field, list(zip(*cols)))


def reference_product(space, vectors):
    """Isometry.identity @ r_{v_1} @ ... @ r_{v_m}, with dense reflections."""
    out = Isometry.identity(space)
    for v in vectors:
        out = out @ Isometry(space, reference_reflection(space, v), _checked=True)
    return out


def dense_preserves(M, S):
    return M.transpose() @ S @ M == S


def random_rational(rng, bits):
    return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))


def random_space(field, rng, n, bits=8):
    """A non-degenerate, non-diagonal form; over Q its Gram entries have
    denominators."""
    while True:
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if field is QQ:
                    x = random_rational(rng, bits)
                else:
                    x = rng.randrange(field.p)
                S[i][j] = S[j][i] = x
        M = Matrix(field, S)
        if M.det():
            return QuadraticSpace(field, M)


def random_vector(space, rng, bits=8):
    """A non-singular vector; over Q rational and not primitive (a common
    rational factor times rationals)."""
    while True:
        if space.field is QQ:
            scale = Fraction(rng.choice([2, 3, 6, 10]), rng.choice([1, 5, 7]))
            v = tuple(scale * random_rational(rng, bits) for _ in range(space.dim))
        else:
            v = tuple(rng.randrange(space.field.p) for _ in range(space.dim))
        v = space.vector(v)
        if space.q_value(v):
            return v


def fixed_rational_space():
    """A form whose Gram matrix has the denominators 2 and 3."""
    return QuadraticSpace(QQ, [[1, Fraction(1, 2), 0],
                               [Fraction(1, 2), Fraction(1, 3), 1],
                               [0, 1, -1]])


VECTOR_BITS = (8, 64, 256)


def rational_cases():
    """(space, bits of the word's vectors): dims 2 to 16, and the fixed form."""
    rng = random.Random(1501)
    cases = [(fixed_rational_space(), 256)]
    for n in range(2, 17):
        bits = VECTOR_BITS[n % 3]
        # tall vectors on a tall form make 30,000-bit entries; keep one of the two small
        cases.append((random_space(QQ, rng, n, bits=2 if bits == 256 else 32), bits))
    return cases


def prime_cases():
    rng = random.Random(1502)
    return [(random_space(PrimeField(p), rng, n), n) for p in PRIMES for n in (2, 3, 4, 6, 8)]


def sample_words(space, seed, count=3, bits=8, longest=5):
    rng = random.Random(seed)
    return [tuple(random_vector(space, rng, bits) for _ in range(rng.randint(1, longest)))
            for _ in range(count)]


RATIONAL = rational_cases()
PRIME = prime_cases()


class TestReflectionProduct:
    @pytest.mark.parametrize("case", range(len(RATIONAL)))
    def test_rational_words_match_dense_product(self, case):
        space, bits = RATIONAL[case]
        for word in sample_words(space, case, bits=bits, longest=3 if bits == 256 else 5):
            expected = reference_product(space, word)
            assert reflection_product(space.polar_matrix, word) == expected.matrix
            assert Factorization(space, word).product() == expected

    @pytest.mark.parametrize("case", range(len(PRIME)))
    def test_prime_field_words_match_dense_product(self, case):
        space, _ = PRIME[case]
        for word in sample_words(space, 100 + case, count=4):
            expected = reference_product(space, word)
            assert reflection_product(space.polar_matrix, word) == expected.matrix
            assert Factorization(space, word).product() == expected

    @pytest.mark.parametrize("space", [fixed_rational_space(), RATIONAL[7][0], PRIME[5][0]])
    def test_single_reflection_matches_entrywise_build(self, space):
        for (v,) in [w[:1] for w in sample_words(space, 7, count=5)]:
            R = reference_reflection(space, v)
            assert space.reflection(v).matrix == R
            assert reflection_product(space.polar_matrix, [v]) == R

    @pytest.mark.parametrize("space", [fixed_rational_space(), PRIME[0][0], PRIME[-1][0]])
    def test_empty_word_is_identity(self, space):
        identity = Matrix.identity(space.field, space.dim)
        assert reflection_product(space.polar_matrix, ()) == identity
        assert Factorization(space, ()).product().is_identity()

    def test_scale_of_the_vectors_is_irrelevant(self):
        space = fixed_rational_space()
        word = sample_words(space, 11, count=1)[0]
        scaled = [tuple(Fraction(-7, 3) * x for x in v) for v in word]
        assert (reflection_product(space.polar_matrix, scaled)
                == reflection_product(space.polar_matrix, word))

    def test_singular_vector_raises(self):
        space = QuadraticSpace(QQ, [[1, 0], [0, -1]])
        with pytest.raises(ZeroDivisionError):
            reflection_product(space.polar_matrix, [(1, 1)])
        F5 = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            reflection_product(QuadraticSpace(F5, [[1, 0], [0, 1]]).polar_matrix, [(1, 2)])

    @pytest.mark.parametrize("field, singular", [(QQ, (3, 3)), (PrimeField(5), (1, 2))])
    def test_factorization_rejects_a_singular_vector(self, field, singular):
        """Without a target Q(v) is read off the Gram matrix's integer form;
        with one, the product computes it and SingularVector replaces its
        ZeroDivisionError."""
        space = QuadraticSpace(field, [[1, 0], [0, -1]] if field == QQ else [[1, 0], [0, 1]])
        r = space.reflection((1, 0))
        with pytest.raises(SingularVector):
            Factorization(space, [(1, 0), singular])
        with pytest.raises(SingularVector):
            Factorization(space, [(1, 0), singular], target=r)
        with pytest.raises(SingularVector):
            Factorization(space, [singular], target=space.identity_isometry())
        assert Factorization(space, [(1, 0)], target=r).vectors == ((field(1), field(0)),)


def true_isometries(cases, seed):
    rng = random.Random(seed)
    out = []
    for space, _ in cases:
        word = tuple(random_vector(space, rng) for _ in range(rng.randint(1, 4)))
        out.append((space, reference_product(space, word).matrix))
    return out


Q_ISOMETRIES = true_isometries(RATIONAL[:8], 1503)
P_ISOMETRIES = true_isometries(PRIME, 1504)


def nudge(M):
    """M with entry (0, 0) changed by 1/d, d the common denominator of M."""
    field = M.field
    d = 1 if field is not QQ else math.lcm(*[x.denominator for row in M.entries for x in row])
    step = field.one / field(d)
    rows = [list(row) for row in M.entries]
    rows[0][0] = rows[0][0] + step
    return Matrix(field, rows)


class TestIsometryCheck:
    @pytest.mark.parametrize("case", range(len(Q_ISOMETRIES) + len(P_ISOMETRIES)))
    def test_true_isometry_accepted_and_nudged_one_rejected(self, case):
        space, M = (Q_ISOMETRIES + P_ISOMETRIES)[case]
        assert preserves_form(M, space.gram)
        assert Isometry(space, M).matrix == M
        bad = nudge(M)
        assert not dense_preserves(bad, space.gram)
        assert not preserves_form(bad, space.gram)
        with pytest.raises(NotIsometry):
            Isometry(space, bad)

    @pytest.mark.parametrize("space", [s for s, _ in RATIONAL[:8]]
                             + [s for s, _ in PRIME if s.field.p != 3])
    def test_half_identity_rejected(self, space):
        # (I/2)^T S (I/2) = S/4; over Q, d = 2 and A = I
        half = Matrix.identity(space.field, space.dim).scale(space.field.one / space.field(2))
        with pytest.raises(NotIsometry):
            Isometry(space, half)

    def test_half_identity_is_minus_identity_over_f3(self):
        # over F_3 one half is -1, and -I is an isometry of every form
        for space in [s for s, _ in PRIME if s.field.p == 3]:
            identity = Matrix.identity(space.field, space.dim)
            half = identity.scale(space.field.one / space.field(2))
            assert Isometry(space, half).matrix == identity.scale(-1)

    @pytest.mark.parametrize("case", range(len(Q_ISOMETRIES) + len(P_ISOMETRIES)))
    def test_isometry_of_another_form_rejected(self, case):
        space, _ = (Q_ISOMETRIES + P_ISOMETRIES)[case]
        rng = random.Random(1600 + case)
        while True:
            other = random_space(space.field, rng, space.dim)
            word = sample_words(other, rng.randrange(10 ** 6), count=1)[0]
            M = reference_product(other, word).matrix
            if not dense_preserves(M, space.gram):
                break
        with pytest.raises(NotIsometry):
            Isometry(space, M)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)])
    def test_agrees_with_dense_check_on_asymmetric_forms(self, field):
        rng = random.Random(1700)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                S = Matrix(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                M = Matrix(field, [[rng.choice([0, 1, -1, Fraction(1, 2)]) if field is QQ
                                    else rng.randint(0, 4) for _ in range(n)] for _ in range(n)])
                assert preserves_form(M, S) == dense_preserves(M, S)
                assert preserves_form(Matrix.identity(field, n), S)

    def test_exhaustive_against_dense_check_over_f3(self):
        # every 2x2 form and matrix over F_3; for 150 asymmetric pairs the
        # entries on and above the diagonal agree and one below does not
        F3 = PrimeField(3)
        grids = [Matrix(F3, [g[:2], g[2:]]) for g in itertools.product(range(3), repeat=4)]
        for S in grids:
            for M in grids:
                assert preserves_form(M, S) == dense_preserves(M, S)

    def test_shape_and_field_checks_unchanged(self):
        space = fixed_rational_space()
        with pytest.raises(NotIsometry, match="shape"):
            Isometry(space, [[1, 0], [0, 1]])
        F5 = PrimeField(5)
        with pytest.raises(TypeError):
            Isometry(space, Matrix.identity(F5, 3))


class TestNoDenseProducts:
    """The certificate and the isometry check run no matrix product, so the
    O(m n^2) certificate cannot slide back to m dense products unnoticed."""

    @pytest.fixture
    def matmul_calls(self, monkeypatch):
        calls = []
        real = Matrix.__matmul__

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(Matrix, "__matmul__", counting)
        return calls

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)])
    def test_certificate_and_validation(self, field, matmul_calls):
        rng = random.Random(1800)
        space = random_space(field, rng, 8)
        word = tuple(random_vector(space, rng) for _ in range(8))
        target = reference_product(space, word)
        M = target.matrix
        del matmul_calls[:]
        Factorization(space, word, target=target)
        Isometry(space, M)
        assert not matmul_calls
