import json
import random
import time
from fractions import Fraction

import pytest

from wallfact import (Matrix, NegativeDeterminant, NegativeSpinor,
                      NoPositiveVector, QQ, Subspace, SymmetricChi, UnorderedField,
                      basis_with_one_positive_vector, diagonal_space,
                      is_minimal, is_positive_isometry, isometry_from_wall,
                      less_equal, moved_space,
                      orthogonal_positive_pair_3d, perturb_orthogonal_pair,
                      perturb_positive_vector, positive_basis,
                      positive_factorization, positive_less_equal,
                      positive_reflection_length, positivity_report,
                      reflection_length, spinor_norm, wall_form)
import wallfact.field as field_mod
import wallfact.positive as positive_mod
from wallfact import jsonio
from wallfact.cli import main
from wallfact.factor import CertificateError, Factorization, bilinear_value
from wallfact.hyperbolic import classify, interval_membership, lorentz_space
from wallfact.positive import positive_vector_for
from tests.conftest import random_isometry, random_positive_isometry


# Q(u) and Q(v) are primes of 100 and 101 bits in diag(1, 1, -1)
LARGE_PRIME_NORM_VECTORS = ((717806724098554, 620579817928981, 0),
                            (701143936145966, 1076406542435165, 0))


def check_positive_triangular(X, rows, first_only=False):
    assert Matrix(X.field, rows).rank() == X.rows == len(rows)
    for i, u in enumerate(rows):
        d = bilinear_value(X, u, u)
        if i == 0 or not first_only:
            assert d > 0
        else:
            assert d != 0
        for j in range(i + 1, len(rows)):
            assert not bilinear_value(X, u, rows[j])


def random_positive_triangular_conjugate(rng, m, symmetric=False):
    """A form guaranteed to admit a positive triangular basis, scrambled."""
    while True:
        L = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            L[i][i] = Fraction(rng.randint(1, 4))
            for j in range(i):
                L[i][j] = Fraction(rng.randint(-3, 3))
        X = Matrix(QQ, L)
        while True:
            P = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            if P.det():
                break
        Y = P @ X @ P.transpose()
        if Y.is_symmetric() == symmetric:
            return Y


class TestIsPositiveIsometry:
    def test_reflections(self):
        space = diagonal_space(QQ, [2, -1])
        assert is_positive_isometry(space.reflection((1, 0)))       # Q = 2
        assert not is_positive_isometry(space.reflection((0, 1)))   # Q = -1

    def test_product_of_two_negatives(self):
        space = diagonal_space(QQ, [-1, -2, 1])
        f = space.reflection((1, 0, 0)) @ space.reflection((1, 1, 0))
        # direct route: determinant of the full Wall form is a positive class
        assert wall_form(f).det() > 0 or QQ.square_class(wall_form(f).det()).is_positive()
        assert is_positive_isometry(f)

    def test_agrees_with_spinor_norm(self):
        rng = random.Random(2302)
        seen = set()
        for n in range(2, 7):
            for positives in range(n + 1):
                space = diagonal_space(QQ, [1] * positives + [-1] * (n - positives))
                for _ in range(4):
                    f = random_isometry(space, rng, rng.randint(0, n))
                    expected = spinor_norm(f).is_positive()
                    assert is_positive_isometry(f) == expected
                    seen.add(expected)
        assert seen == {True, False}

    def test_finite_fields_rejected(self, f3):
        space = diagonal_space(f3, [1, 1])
        for f in (space.identity_isometry(), space.reflection((1, 0))):
            with pytest.raises(UnorderedField):
                is_positive_isometry(f)

    def test_large_prime_norms_are_not_factored(self):
        # Q(u) and Q(v) are primes of 100 and 101 bits, so the square class
        # of det(chi_f) = Q(u) Q(v) is square-free only after factoring a
        # 201-bit number; the sign needs no factoring
        space = diagonal_space(QQ, [1, 1, -1])
        ru, rv = (space.reflection(u) for u in LARGE_PRIME_NORM_VECTORS)
        f = ru @ rv
        for call, expected in ((lambda: len(positive_factorization(f)), 2),
                               (lambda: classify(f).value, "elliptic"),
                               (lambda: interval_membership(ru @ ru, f), True)):
            start = time.perf_counter()
            assert call() == expected
            assert time.perf_counter() - start < 1.0


class TestBoundedSpinor:
    """``wallfact spinor`` prints the square-free part of det(chi_f), so on
    the large-prime input above it must factor a 201-bit number; the rho
    budget turns that into a domain error (exit 1)."""

    def run_spinor(self, tmp_path, capsys):
        space = diagonal_space(QQ, [1, 1, -1])
        ru, rv = (space.reflection(u) for u in LARGE_PRIME_NORM_VECTORS)
        form = tmp_path / "space.json"
        form.write_text(json.dumps(jsonio.encode_space(space)))
        iso = tmp_path / "f.json"
        iso.write_text(json.dumps(jsonio.encode_isometry(ru @ rv)))
        start = time.perf_counter()
        code = main(["spinor", "--form", str(form), "--isometry", str(iso)])
        elapsed = time.perf_counter() - start
        return code, json.loads(capsys.readouterr().out)["error"], elapsed

    def test_small_budget_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(field_mod, "RHO_ITERATION_BUDGET", 10 ** 4)
        code, error, _ = self.run_spinor(tmp_path, capsys)
        assert (code, error) == (1, "FactoringBudgetExceeded")

    @pytest.mark.slow
    def test_real_budget_exits_1_within_30_s(self, tmp_path, capsys):
        code, error, elapsed = self.run_spinor(tmp_path, capsys)
        assert (code, error) == (1, "FactoringBudgetExceeded")
        assert elapsed < 30


class TestPositiveProbe:
    def test_scan_misses_need_diagonalization(self):
        # positive vectors exist but not among basis vectors or their sums
        X = Matrix(QQ, [[-1, -2], [-2, -1]])
        u = positive_vector_for(X)
        assert u is not None
        assert bilinear_value(X, u, u) > 0

    def test_none_when_negative_semidefinite(self):
        X = Matrix(QQ, [[-1, 0], [0, -3]])
        assert positive_vector_for(X) is None
        X2 = Matrix(QQ, [[0, 1], [-1, 0]])           # alternating: squares all zero
        assert positive_vector_for(X2) is None


class TestBasisWithOnePositiveVector:
    def test_puts_positive_first(self):
        X = Matrix.diagonal(QQ, [1, -1])
        rows = basis_with_one_positive_vector(X)
        check_positive_triangular(X, rows, first_only=True)
        assert rows[0] == (1, 0)

    def test_negative_diagonal_with_positive_mixture(self):
        X = Matrix(QQ, [[-1, 3], [0, -1]])
        rows = basis_with_one_positive_vector(X)
        check_positive_triangular(X, rows, first_only=True)

    def test_no_positive_vector(self):
        with pytest.raises(NoPositiveVector):
            basis_with_one_positive_vector(Matrix(QQ, [[0, 1], [-1, 0]]))

    def test_randomized(self, rng):
        done = 0
        while done < 50:
            m = rng.randint(1, 4)
            X = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if not X.det() or positive_vector_for(X) is None:
                continue
            rows = basis_with_one_positive_vector(X)
            check_positive_triangular(X, rows, first_only=True)
            done += 1


class TestOrthogonalPositivePair:
    def check(self, X, pair):
        assert bilinear_value(X, pair.v1, pair.v1) > 0
        assert bilinear_value(X, pair.v2, pair.v2) > 0
        assert not bilinear_value(X, pair.v1, pair.v2)

    def test_case1_nonzero_sum_instance(self):
        # gamma=1, delta=1, a=1, b=2, c=1
        X = Matrix(QQ, [[1, 0, 0], [0, 0, 1], [1, 2, -1]])
        pair = orthogonal_positive_pair_3d(X)
        self.check(X, pair)
        assert pair.case == "case1-nonzero-sum"

    def test_case1_zero_sum_instance(self):
        # shape [[gamma,0,0],[0,0,-b],[a,b,-delta]]; on this branch the
        # second vector lands exactly at chi(v2, v2) = gamma * delta^2
        X = Matrix(QQ, [[1, 0, 0], [0, 0, -2], [1, 2, -1]])
        pair = orthogonal_positive_pair_3d(X)
        self.check(X, pair)
        assert pair.case == "case1-zero-sum"
        assert bilinear_value(X, pair.v2, pair.v2) == 1     # gamma * delta^2

    def test_case2_square_search_instance(self):
        # gamma=delta=eps=1, a=1, b=0: q^2 must fall in (1, 5/4)
        X = Matrix(QQ, [[1, 0, 0], [0, -1, 0], [1, 0, -1]])
        pair = orthogonal_positive_pair_3d(X)
        self.check(X, pair)
        assert pair.case == "case2-square-search"
        q = pair.v1[0]
        assert 1 < q * q < Fraction(5, 4)

    def test_case2_large_b_instance(self):
        # gamma=delta=1, eps=1/8 makes b^2 = 1 >= 4*delta*eps = 1/2
        X = Matrix(QQ, [[1, 0, 0], [0, -1, 0], [0, 1, Fraction(-1, 8)]])
        pair = orthogonal_positive_pair_3d(X)
        self.check(X, pair)
        assert pair.case == "case2-large-b"

    def test_symmetric_rejected(self):
        with pytest.raises(SymmetricChi):
            orthogonal_positive_pair_3d(Matrix.diagonal(QQ, [1, -1, -1]))

    def test_no_positive_vector(self):
        X = Matrix(QQ, [[-1, 0, 0], [0, -1, 1], [0, 0, -1]])
        with pytest.raises(NoPositiveVector):
            orthogonal_positive_pair_3d(X)

    def test_randomized_all_branches_appear(self, rng):
        seen = set()
        done = 0
        while done < 80:
            X = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if not X.det() or X.is_symmetric() or positive_vector_for(X) is None:
                continue
            pair = orthogonal_positive_pair_3d(X)
            self.check(X, pair)
            seen.add(pair.case)
            done += 1
        # shaped instances above force the rare branches; random sampling
        # must still produce the construction's main routes
        assert "immediate" in seen
        assert any(c.startswith("case") for c in seen)


class TestPerturbations:
    def _random_orthogonal_pair(self, X, rng):
        # build v2 in the right complement of a random positive v1
        from wallfact.factor import right_complement_rows
        while True:
            v1 = positive_vector_for(X)
            if v1 is None:
                return None
            rows = right_complement_rows(X, v1)
            if not rows:
                return None
            coeffs = [rng.randint(-2, 2) for _ in rows]
            v2 = tuple(sum((QQ(c) * r[i] for c, r in zip(coeffs, rows)), Fraction(0))
                       for i in range(X.rows))
            if any(v2):
                return v1, v2

    def test_multiple_of_v1_gives_zero(self):
        X = Matrix.diagonal(QQ, [1, -1, 2])
        w = perturb_orthogonal_pair(X, (1, 0, 0), (0, 0, 1), (2, 0, 0))
        assert w == (0, 0, 0)

    def test_coefficient_identities_exact(self, rng):
        done = 0
        while done < 50:
            m = rng.randint(2, 4)
            X = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if not X.det():
                continue
            pair = self._random_orthogonal_pair(X, rng)
            if pair is None:
                continue
            v1, v2 = pair
            u = tuple(rng.randint(-2, 2) for _ in range(m))
            if not any(u):
                continue
            w = perturb_orthogonal_pair(X, v1, v2, u)
            # the symbolic identity in a: constant handled by precondition,
            # linear and quadratic coefficients vanish exactly
            assert bilinear_value(X, u, v2) + bilinear_value(X, v1, w) == 0
            assert bilinear_value(X, u, w) == 0
            for a in (Fraction(1), Fraction(-1), Fraction(5)):
                va = tuple(x + a * y for x, y in zip(v1, u))
                wa = tuple(x + a * y for x, y in zip(v2, w))
                assert bilinear_value(X, va, wa) == 0
            done += 1

    def test_positive_threshold(self, rng):
        done = 0
        while done < 50:
            m = rng.randint(1, 4)
            X = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            v = positive_vector_for(X)
            if v is None:
                continue
            u = tuple(rng.randint(-3, 3) for _ in range(m))
            delta = perturb_positive_vector(X, v, u)
            assert delta > 0
            for a in (delta / 2, -delta / 2):
                va = tuple(x + a * y for x, y in zip(v, u))
                assert bilinear_value(X, va, va) > 0
            done += 1

    def test_zero_direction(self):
        # with u = 0 any threshold works; the decided formula gives
        # min(1, chi(v,v)/3) since every magnitude bound collapses to 1
        X = Matrix.diagonal(QQ, [2, -1])
        delta = perturb_positive_vector(X, (1, 0), (0, 0))
        assert delta == Fraction(2, 3)
        for a in (Fraction(1), Fraction(-1)):   # delta = 1 also works here
            assert bilinear_value(X, (1, 0), (1, 0)) > 0
        X2 = Matrix.diagonal(QQ, [6, -1])
        assert perturb_positive_vector(X2, (1, 0), (0, 0)) == 1


class TestPositiveBasis:
    def test_dim_one(self):
        assert positive_basis(Matrix(QQ, [[2]])) == [(1,)]

    def test_dim_two_direct(self):
        X = Matrix(QQ, [[1, 0], [3, 2]])
        rows = positive_basis(X)
        check_positive_triangular(X, rows)

    def test_dim_three_case2_matrix(self):
        X = Matrix(QQ, [[1, 0, 0], [0, -1, 0], [1, 0, -1]])
        # det = 1 > 0, non-symmetric, has the positive vector e1
        rows = positive_basis(X)
        check_positive_triangular(X, rows)

    def test_errors(self):
        with pytest.raises(SymmetricChi):
            positive_basis(Matrix.diagonal(QQ, [1, 1, 1]))
        with pytest.raises(NegativeDeterminant):
            positive_basis(Matrix(QQ, [[1, 0], [3, -2]]))
        with pytest.raises(NoPositiveVector):
            positive_basis(Matrix(QQ, [[-1, 1], [0, -1]]))

    def test_randomized_guaranteed_instances(self, rng):
        done = 0
        while done < 50:
            m = rng.randint(2, 4)
            X = random_positive_triangular_conjugate(rng, m)
            if not X.det():
                continue
            rows = positive_basis(X)
            check_positive_triangular(X, rows)
            done += 1


@pytest.fixture(scope="module")
def negdef_involution():
    """The step-stone example: an involution with negative definite moved plane."""
    space = diagonal_space(QQ, [1, 1, -1, -1])
    W = Subspace(QQ, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    chi = [[Fraction(-1), 0], [0, Fraction(-1)]]
    return space, isometry_from_wall(space, W, chi)


class TestPositiveLength:
    def test_positive_reflection(self):
        space = diagonal_space(QQ, [1, -1])
        assert positive_reflection_length(space.reflection((1, 0))) == 1

    def test_negative_definite_involution_needs_two_extra(self, negdef_involution):
        space, f = negdef_involution
        assert f.is_involution() and is_positive_isometry(f)
        assert reflection_length(f) == 2
        assert positive_reflection_length(f) == 4

    def test_boost(self):
        space = diagonal_space(QQ, [1, -1])
        from wallfact import Isometry
        f = Isometry(space, [[Fraction(5, 3), Fraction(4, 3)],
                             [Fraction(4, 3), Fraction(5, 3)]])
        assert not f.is_involution()
        assert moved_space(f).dim == 2
        assert positive_reflection_length(f) == 2
        fact = positive_factorization(f)
        assert len(fact) == 2 and fact.is_positive() and fact.product() == f

    def test_negative_spinor_rejected(self):
        space = diagonal_space(QQ, [1, -1])
        r = space.reflection((0, 1))
        with pytest.raises(NegativeSpinor):
            positive_reflection_length(r)
        with pytest.raises(NegativeSpinor):
            positive_factorization(r)

    def test_report_invariant(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        for _ in range(20):
            f = random_positive_isometry(space, rng)
            rep = positivity_report(f)
            m = moved_space(f).dim
            assert rep.spinor_positive
            assert rep.positive_length in (m, m + 2)
            assert rep.is_involution == f.is_involution()


class TestPositiveFactorization:
    def test_identity_empty(self):
        space = diagonal_space(QQ, [1, -1])
        assert len(positive_factorization(space.identity_isometry())) == 0

    def test_negdef_involution_factors_into_four(self, negdef_involution):
        space, f = negdef_involution
        fact = positive_factorization(f)
        assert len(fact) == 4 and fact.is_positive() and fact.product() == f

    def test_failed_positivity_certificate_raises(self, negdef_involution, monkeypatch):
        space, f = negdef_involution
        monkeypatch.setattr(Factorization, "is_positive", lambda self: False)
        with pytest.raises(CertificateError):
            positive_factorization(f)

    def test_failed_length_certificate_raises(self, negdef_involution, monkeypatch):
        space, f = negdef_involution
        monkeypatch.setattr(positive_mod, "positive_reflection_length", lambda g: 5)
        with pytest.raises(CertificateError):
            positive_factorization(f)

    def test_characterization_of_positive_minimal(self, rng):
        # involutions: positive-minimal iff Mov positive definite;
        # non-involutions: iff Mov contains a positive vector
        space = diagonal_space(QQ, [1, 1, -1])
        seen_minimal = seen_long = False
        for _ in range(40):
            f = random_positive_isometry(space, rng)
            m = moved_space(f).dim
            pos, neg, zero = space.inertia(moved_space(f))
            if f.is_involution():
                expected = m if (neg == 0 and zero == 0) else m + 2
            else:
                expected = m if pos > 0 else m + 2
            assert positive_reflection_length(f) == expected
            seen_minimal |= expected == m
            seen_long |= expected == m + 2
        assert seen_minimal

    @pytest.mark.parametrize("signature", [(2, 1), (3, 1), (2, 2)])
    def test_random_positive_isometries(self, signature, rng):
        space = diagonal_space(QQ, [1] * signature[0] + [-1] * signature[1])
        for _ in range(20):
            f = random_positive_isometry(space, rng)
            fact = positive_factorization(f)
            assert fact.product() == f
            assert fact.is_positive()
            assert len(fact) == positive_reflection_length(f)


def output_bits(fact):
    """Largest numerator or denominator bit size among the reflecting vectors."""
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
               for v in fact.vectors for x in v)


class TestCoefficientGrowth:
    """positive_basis takes each complement as a reduced integer kernel, so
    the restricted forms do not double in size from one level to the next."""

    def test_dim10_lorentz_seed(self):
        # the 2nd draw of Random(1): with RREF complements it took minutes
        # and reached 133,768 bits
        rng = random.Random(1)
        random_positive_isometry(lorentz_space(9), rng, 10)
        f = random_positive_isometry(lorentz_space(9), rng, 10)
        fact = positive_factorization(f)
        assert fact.product() == f and fact.is_positive()
        assert len(fact) == positive_reflection_length(f) == 10
        assert output_bits(fact) <= 2000

    @pytest.mark.parametrize("n", [8, 9, 10])
    @pytest.mark.parametrize("negatives", [1, 2])
    def test_output_bits_stay_bounded(self, n, negatives):
        space = diagonal_space(QQ, [1] * (n - negatives) + [-1] * negatives)
        rng = random.Random(100 * negatives + n)
        for _ in range(3):
            f = random_positive_isometry(space, rng, n + 1)
            fact = positive_factorization(f)
            assert fact.product() == f and fact.is_positive()
            assert output_bits(fact) <= 8000


class TestPositiveOrder:
    def test_reflexive_and_identity(self, rng):
        space = diagonal_space(QQ, [1, 1, -1])
        f = random_positive_isometry(space, rng)
        assert positive_less_equal(f, f)
        assert positive_less_equal(space.identity_isometry(), f)

    def test_positive_order_differs_from_plain_order(self, negdef_involution):
        # a minimal but not positive-minimal f: the length-two suffix of its
        # positive factorization is below f in the positive order but not in
        # the plain order on O(V)
        space, f = negdef_involution
        assert is_minimal(f) and reflection_length(f) < positive_reflection_length(f)
        fact = positive_factorization(f)
        g = space.reflection(fact.vectors[2]) @ space.reflection(fact.vectors[3])
        assert not g.is_identity() and g != f
        assert positive_less_equal(g, f)
        assert not less_equal(g, f)

    def test_mixed_spinor_rejected(self):
        space = diagonal_space(QQ, [1, -1])
        with pytest.raises(NegativeSpinor):
            positive_less_equal(space.reflection((0, 1)), space.identity_isometry())
