import itertools
import random
from fractions import Fraction

import pytest

from wallfact import (HyperbolicClass, NotPositive, QQ, Subspace, classify,
                      diagonal_space, fixes_hyperbolic_space,
                      hyperbolic_positive_factorization, interval_membership,
                      interval_subspace_test, is_positive_isometry,
                      lorentz_space, moved_space, fixed_space,
                      parabolic_interval_description, positive_less_equal,
                      positive_reflection_length, wall_form)
from wallfact.hyperbolic import (elliptic_example, hyperbolic_example,
                                 parabolic_example, is_lorentz)
from wallfact import factor as factor_mod
from wallfact import hyperbolic as hyperbolic_mod
from wallfact import wall as wall_mod
from wallfact.factor import split
from wallfact.linalg import Matrix, subspace_intersection
from wallfact.wall import CertificateError
from tests.conftest import random_nonsingular_vector


def random_positive_lorentz_isometry(space, rng, reflections):
    f = space.identity_isometry()
    count = 0
    while count < reflections:
        v = random_nonsingular_vector(space, rng)
        if not space.field.is_positive(space.q_value(v)):
            continue
        f = f @ space.reflection(v)
        count += 1
    return f


class TestLorentzBasics:
    def test_signature(self):
        assert lorentz_space(3).signature() == (3, 1)
        assert is_lorentz(lorentz_space(2))
        assert not is_lorentz(diagonal_space(QQ, [1, 1]))
        assert not is_lorentz(diagonal_space(QQ, [1, -1, -1]))

    def test_fixes_hyperbolic_space(self):
        L = lorentz_space(2)
        assert fixes_hyperbolic_space(L.reflection((1, 0, 0)))       # Q = 1
        assert not fixes_hyperbolic_space(L.reflection((0, 0, 1)))   # Q = -1
        boost = hyperbolic_example(L)
        assert fixes_hyperbolic_space(boost)


class TestClassification:
    def test_identity_is_elliptic(self):
        L = lorentz_space(2)
        assert classify(L.identity_isometry()) == HyperbolicClass.ELLIPTIC

    def test_examples(self):
        L = lorentz_space(3)
        assert classify(elliptic_example(L)) == HyperbolicClass.ELLIPTIC
        assert classify(hyperbolic_example(L)) == HyperbolicClass.HYPERBOLIC
        assert classify(parabolic_example(L)) == HyperbolicClass.PARABOLIC

    def test_parabolic_fixes_singular_line(self):
        L = lorentz_space(2)
        f = parabolic_example(L)
        from wallfact import subspace_intersection
        line = subspace_intersection(fixed_space(f), moved_space(f))
        assert line.dim == 1
        assert L.is_totally_singular(line)

    def test_nonpositive_rejected(self):
        L = lorentz_space(2)
        with pytest.raises(NotPositive):
            classify(L.reflection((0, 0, 1)))

    def test_classification_total_on_samples(self, rng):
        for n in (2, 3, 4):
            L = lorentz_space(n)
            for _ in range(15):
                f = random_positive_lorentz_isometry(L, rng, rng.choice([2, 4]))
                if not is_positive_isometry(f):
                    continue
                # classify cross-checks the fixed-space criterion internally
                assert classify(f) in HyperbolicClass

    @pytest.fixture
    def disagreeing_inertia(self, monkeypatch):
        """Every proper subspace reads as positive definite: the moved space
        says elliptic, the fixed space says hyperbolic."""
        from wallfact.quadspace import Inertia, QuadraticSpace
        real = QuadraticSpace.inertia
        monkeypatch.setattr(QuadraticSpace, "inertia", lambda self, W=None: (
            real(self) if W is None else Inertia(W.dim, 0, 0)))

    def test_disagreement_raises_certificate_error(self, disagreeing_inertia):
        with pytest.raises(CertificateError, match="classifications disagree"):
            classify(hyperbolic_example(lorentz_space(3)))

    def test_disagreement_exits_3(self, disagreeing_inertia, tmp_path, capsys):
        import json
        from wallfact.cli import main
        form = tmp_path / "space.json"
        form.write_text(json.dumps({"field": "rational",
                                    "form": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}))
        boost = tmp_path / "boost.json"
        boost.write_text(json.dumps({"matrix": [["5/3", "0", "4/3"], ["0", "1", "0"],
                                                ["4/3", "0", "5/3"]]}))
        assert main(["classify", "--form", str(form), "--isometry", str(boost)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "internal"


class TestHyperbolicFactorization:
    def test_single_reflection(self):
        L = lorentz_space(2)
        r = L.reflection((1, 1, 0))
        fact = hyperbolic_positive_factorization(r)
        assert len(fact) == 1 and fact.product() == r

    def test_boost_needs_two(self):
        L = lorentz_space(2)
        f = hyperbolic_example(L)
        fact = hyperbolic_positive_factorization(f)
        assert len(fact) == 2 and fact.is_positive() and fact.product() == f

    def test_three_reflection_products(self, rng):
        L = lorentz_space(3)
        for _ in range(10):
            f = random_positive_lorentz_isometry(L, rng, 3)
            fact = hyperbolic_positive_factorization(f)
            assert fact.product() == f and fact.is_positive()
            assert len(fact) == moved_space(f).dim

    def test_every_positive_isometry_is_positive_minimal(self, rng):
        for n in (2, 3, 4):
            L = lorentz_space(n)
            for _ in range(10):
                f = random_positive_lorentz_isometry(L, rng, rng.choice([2, 3, 4]))
                assert positive_reflection_length(f) == moved_space(f).dim

    def test_parabolic_factors_too(self):
        L = lorentz_space(3)
        f = parabolic_example(L, t=2)
        fact = hyperbolic_positive_factorization(f)
        assert len(fact) == moved_space(f).dim == 2
        assert fact.product() == f and fact.is_positive()

    def test_negative_rejected(self):
        L = lorentz_space(2)
        with pytest.raises(NotPositive):
            hyperbolic_positive_factorization(L.reflection((0, 0, 1)))


def split_peel_reference(f):
    """The peel loop as it was written with Wall splits: each step splits g at
    the line of v and keeps the right factor."""
    space = f.space
    hyperplane = Subspace(space.field, space.dim,
                          [space.standard_basis(i) for i in range(space.dim - 1)])
    vectors = []
    g = f
    mov = moved_space(g)
    while mov.dim:
        if mov.dim == 1:
            vectors.append(mov.basis[0])
            break
        v = subspace_intersection(mov, hyperplane).basis[0]
        _, g = split(g, Subspace(space.field, space.dim, [v]), side="right")
        vectors.append(v)
        mov = moved_space(g)
    return tuple(vectors)


def peel_cases():
    cases = []
    for dim in range(3, 11):
        L = lorentz_space(dim - 1)
        cases += [elliptic_example(L), parabolic_example(L), hyperbolic_example(L)]
    rng = random.Random(31)
    while len(cases) < 24 + 30:
        L = lorentz_space(rng.randint(2, 6))
        f = random_positive_lorentz_isometry(L, rng, rng.randint(1, L.dim))
        if not f.is_identity():
            cases.append(f)
    return cases


class TestPeelByReflection:
    """Each peel is r_v g, the right factor of the Wall split at span(v)."""

    def test_same_vectors_as_the_split_loop(self):
        for f in peel_cases():
            assert hyperbolic_positive_factorization(f).vectors == split_peel_reference(f)

    def test_no_split_inverse_or_wall_parametrization(self, monkeypatch):
        cases = peel_cases()
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(factor_mod, "split", counted("split", factor_mod.split))
        for module in (wall_mod, factor_mod, hyperbolic_mod):
            monkeypatch.setattr(module, "isometry_from_wall",
                                counted("isometry_from_wall", module.isometry_from_wall))
        monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
        for f in cases:
            fact = hyperbolic_positive_factorization(f)
            assert len(fact) == moved_space(f).dim
        assert calls == []

    def test_moved_space_must_shrink(self, monkeypatch):
        # the patched moved space of every peeled map is that of f itself;
        # the first peel must be rejected, before a third call could loop
        f = hyperbolic_example(lorentz_space(3))
        real_moved_space = hyperbolic_mod.moved_space
        calls = []

        def stuck_moved_space(g):
            calls.append(g)
            assert len(calls) <= 2, "the peel was not rejected"
            return real_moved_space(f)

        monkeypatch.setattr(hyperbolic_mod, "moved_space", stuck_moved_space)
        with pytest.raises(CertificateError):
            hyperbolic_positive_factorization(f)


class TestIntervalTests:
    def test_zero_subspace_passes(self, rng):
        L = lorentz_space(2)
        f = hyperbolic_example(L)
        assert interval_subspace_test(f, Subspace.zero(QQ, 3))

    def test_positive_definite_subspaces_pass(self, rng):
        L = lorentz_space(3)
        for _ in range(10):
            f = random_positive_lorentz_isometry(L, rng, 3)
            mov = moved_space(f)
            for _ in range(5):
                rows = [tuple(rng.randint(-2, 2) for _ in range(4))
                        for _ in range(rng.randint(1, mov.dim))]
                from wallfact import subspace_intersection
                U = subspace_intersection(mov, Subspace(QQ, 4, rows) if rows else mov)
                if U.dim == 0:
                    continue
                pos, neg, zero = L.inertia(U)
                if neg == 0 and zero == 0:
                    assert interval_subspace_test(f, U)

    def test_elliptic_accepts_all_subspaces(self, rng):
        L = lorentz_space(3)
        f = elliptic_example(L)
        mov = moved_space(f)
        desc = parabolic_interval_description(f)
        assert desc.kind == HyperbolicClass.ELLIPTIC
        for _ in range(20):
            coeffs = [[rng.randint(-3, 3) for _ in range(mov.dim)]
                      for _ in range(rng.randint(0, mov.dim))]
            rows = []
            for cs in coeffs:
                vec = [QQ.zero] * 4
                for c, b in zip(cs, mov.basis):
                    vec = [x + QQ(c) * y for x, y in zip(vec, b)]
                rows.append(tuple(vec))
            U = Subspace(QQ, 4, rows)
            assert interval_subspace_test(f, U)
            assert desc.admits(U)

    def test_membership_iff_positive_order(self, rng):
        L = lorentz_space(3)
        for _ in range(12):
            k = rng.choice([2, 3, 4])
            f = random_positive_lorentz_isometry(L, rng, k)
            fact = hyperbolic_positive_factorization(f)
            # positive cases: prefix products of a minimal factorization
            g = L.identity_isometry()
            for v in fact.vectors[:len(fact) // 2]:
                g = g @ L.reflection(v)
            assert interval_membership(g, f) == positive_less_equal(g, f)
            # generic cases: unrelated random positive isometries
            h = random_positive_lorentz_isometry(L, rng, 2)
            assert interval_membership(h, f) == positive_less_equal(h, f)

    def test_membership_demands_restricted_wall_form(self, rng):
        L = lorentz_space(2)
        f = hyperbolic_example(L, ch="5/3", sh="4/3")
        g = hyperbolic_example(L, ch="13/5", sh="12/5")
        # same moved space, different Wall forms: not a member
        assert moved_space(g) == moved_space(f) and g != f
        assert wall_form(g).chi != wall_form(f).chi
        assert not interval_membership(g, f)
        assert not positive_less_equal(g, f)
        # the reflection through e1, by contrast, genuinely starts a minimal
        # positive factorization of the boost
        r = L.reflection((1, 0, 0))
        assert interval_membership(r, f) and positive_less_equal(r, f)


class TestParabolicDescription:
    def _all_small_subspaces(self, L, mov, rng, count=20):
        # low-dimensional subspaces of Mov(f) with small integer coefficients
        out = [Subspace.zero(QQ, L.dim), mov]
        coeff_range = [-1, 0, 1, 2]
        singles = []
        for cs in itertools.product(coeff_range, repeat=mov.dim):
            if not any(cs):
                continue
            vec = [QQ.zero] * L.dim
            for c, b in zip(cs, mov.basis):
                vec = [x + QQ(c) * y for x, y in zip(vec, b)]
            singles.append(Subspace(QQ, L.dim, [tuple(vec)]))
        seen = set()
        for U in singles:
            if U not in seen:
                seen.add(U)
                out.append(U)
        for _ in range(count):
            a, b = rng.sample(range(len(singles)), 2)
            from wallfact import subspace_sum
            out.append(subspace_sum(singles[a], singles[b]))
        return out

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
    def test_sandwich_exclusion_matches_det_test(self, n, t, rng):
        L = lorentz_space(n)
        f = parabolic_example(L, t=t)
        desc = parabolic_interval_description(f)
        assert desc.kind == HyperbolicClass.PARABOLIC
        assert L.is_totally_singular(Subspace(QQ, L.dim, [desc.fixed_line]))
        assert desc.fixed_line[-1] == 1
        mov = moved_space(f)
        for U in self._all_small_subspaces(L, mov, rng):
            assert desc.admits(U) == interval_subspace_test(f, U)

    def test_more_parabolic_instances(self, rng):
        # wall forms [[0, t], [-t, 1]] for many t, and shifted null planes
        count = 0
        for t in (1, 2, 3, Fraction(1, 2), Fraction(5, 3), -1, -2,
                  Fraction(-3, 4), 5, Fraction(7, 2), 4, Fraction(2, 5),
                  -5, Fraction(9, 4), 6):
            L = lorentz_space(2 + count % 3)
            f = parabolic_example(L, t=t)
            desc = parabolic_interval_description(f)
            assert desc.kind == HyperbolicClass.PARABOLIC
            line = Subspace(QQ, L.dim, [desc.fixed_line])
            # the fixed singular line is sandwiched, hence excluded
            assert not desc.admits(line)
            assert not interval_subspace_test(f, line)
            # the hyperplane itself contains the line, also excluded
            assert not desc.admits(desc.hyperplane)
            count += 1
        assert count >= 15

    def test_hyperbolic_gets_no_simplification(self):
        L = lorentz_space(2)
        f = hyperbolic_example(L)
        desc = parabolic_interval_description(f)
        assert desc.kind == HyperbolicClass.HYPERBOLIC
        assert desc.fixed_line is None
        mov = moved_space(f)
        assert desc.admits(mov) == interval_subspace_test(f, mov)
