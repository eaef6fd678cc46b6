import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wallfact import (EmptyInterval, PrimeField, QQ, UnorderedField, ZeroElement,
                      rational_square_in_interval)
import wallfact.field as field_mod
from wallfact.field import (FactoringBudgetExceeded, Fp, factorize, is_prime,
                            squarefree_part)


class TestSquareClass:
    def test_rational_strips_square_part(self):
        assert QQ.square_class(18).rep == 2          # 18 = 2 * 3^2
        assert QQ.square_class(Fraction(-1, 4)).rep == -1

    def test_prime_field_examples(self):
        F5 = PrimeField(5)
        assert F5.square_class(4).rep == 1           # 4 = 2^2

        # independent check over F_5: squares by brute force
        squares = {(x * x) % 5 for x in range(1, 5)}
        assert squares == {1, 4}
        nonresidues = [a for a in range(2, 5) if a not in squares]
        assert min(nonresidues) == 2
        assert F5.square_class(3).rep == 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            QQ.square_class(0)
        with pytest.raises(ZeroElement):
            PrimeField(7).square_class(0)

    def test_invariant_under_square_scaling(self):
        rng = random.Random(1)
        for _ in range(200):
            a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert QQ.square_class(a * c * c) == QQ.square_class(a)

    def test_multiplicative(self):
        rng = random.Random(2)
        for _ in range(100):
            a = Fraction(rng.randint(-40, 40) or 3, rng.randint(1, 40))
            b = Fraction(rng.randint(-40, 40) or 5, rng.randint(1, 40))
            assert QQ.square_class(a) * QQ.square_class(b) == QQ.square_class(a * b)
        F7 = PrimeField(7)
        for a in range(1, 7):
            for b in range(1, 7):
                assert (F7.square_class(a) * F7.square_class(b)
                        == F7.square_class(a * b))

    def test_representative_is_squarefree(self):
        rng = random.Random(3)
        for _ in range(50):
            a = Fraction(rng.randint(-400, 400) or 7, rng.randint(1, 200))
            rep = QQ.square_class(a).rep
            assert all(e == 1 for e in factorize(abs(rep)).values())

    def test_homomorphism_exhaustive_f5(self):
        F5 = PrimeField(5)
        for a in range(1, 5):
            for c in range(1, 5):
                assert F5.square_class(a * c * c) == F5.square_class(a)

    def test_positivity(self):
        assert QQ.square_class(8).is_positive()
        assert not QQ.square_class(-2).is_positive()
        with pytest.raises(UnorderedField):
            PrimeField(5).square_class(2).is_positive()


class TestOrdering:
    def test_is_positive_examples(self):
        assert QQ.is_positive(Fraction(3, 7))
        assert not QQ.is_positive(0)
        assert not QQ.is_positive(-2)

    def test_prime_field_is_unordered(self):
        with pytest.raises(UnorderedField):
            PrimeField(5).is_positive(1)


class TestSquareInInterval:
    def test_simple_intervals(self):
        q = rational_square_in_interval(2, 3)
        assert 2 < q * q < 3 and q > 0
        q = rational_square_in_interval(Fraction(1, 4), Fraction(1, 2))
        assert Fraction(1, 4) < q * q < Fraction(1, 2)

    def test_tight_interval(self):
        a = Fraction(10 ** 6)
        b = a + Fraction(1, 10 ** 6)
        q = rational_square_in_interval(a, b)
        assert a < q * q < b

    def test_nonpositive_lower_end(self):
        for a in (0, -5, Fraction(-1, 3)):
            q = rational_square_in_interval(a, Fraction(1, 10))
            assert a < q * q < Fraction(1, 10) and q > 0

    def test_empty_interval(self):
        with pytest.raises(EmptyInterval):
            rational_square_in_interval(3, 2)
        with pytest.raises(EmptyInterval):
            rational_square_in_interval(2, 2)
        with pytest.raises(EmptyInterval):
            rational_square_in_interval(-3, -1)

    def test_randomized_postcondition(self):
        rng = random.Random(4)
        for _ in range(60):
            a = Fraction(rng.randint(1, 500), rng.randint(1, 100))
            b = a + Fraction(1, rng.randint(1, 1000))
            q = rational_square_in_interval(a, b)
            assert a < q * q < b


class TestFieldAxioms:
    @pytest.mark.parametrize("p", [3, 5])
    def test_exhaustive_prime_field(self, p):
        F = PrimeField(p)
        elems = list(F.elements())
        for a in elems:
            assert a + F.zero == a and a * F.one == a
            assert a + (-a) == F.zero
            if a:
                assert a * (F.one / a) == F.one
        for a in elems:
            for b in elems:
                assert a + b == b + a and a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_rational_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0


class TestFpMechanics:
    def test_arithmetic(self):
        F = PrimeField(7)
        a, b = F(3), F(5)
        assert (a + b).value == 1
        assert (a - b).value == 5
        assert (a * b).value == 1
        assert (a / b).value == (3 * pow(5, 5, 7)) % 7
        assert (a ** 3).value == 6
        assert (-a).value == 4
        assert a == 3 and a == 10

    def test_division_by_zero(self):
        F = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            F(1) / F(0)

    def test_mixed_characteristics_rejected(self):
        with pytest.raises(ValueError):
            Fp(1, 3) + Fp(1, 5)

    @pytest.mark.parametrize("p", [1, 2, 4, 9, -3, 15])
    def test_bad_characteristic_rejected(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)

    def test_rational_coercion_into_fp(self):
        F = PrimeField(5)
        assert F(Fraction(1, 2)) == 3      # 1/2 = 3 mod 5
        with pytest.raises(ZeroDivisionError):
            F(Fraction(1, 5))


class TestIntegerHelpers:
    def test_squarefree_part(self):
        assert squarefree_part(18) == 2
        assert squarefree_part(-12) == -3
        assert squarefree_part(1) == 1
        assert squarefree_part(49) == 1
        assert squarefree_part(2 * 3 ** 3 * 25) == 6

    def test_factorize_reconstructs(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 10 ** 9)
            factors = factorize(n)
            prod = 1
            for p, e in factors.items():
                assert is_prime(p)
                prod *= p ** e
            assert prod == n

    def test_factorize_beyond_trial_bound(self):
        # two primes above the trial-division bound force the rho path
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}
        assert squarefree_part(p * p * q) == q

    def test_factorize_squares_of_large_primes(self):
        # the shape of Wall-form determinants over Q: squares of primes
        # above 10^6 times a square-free part
        p, q, r = 1000003, 1000033, 7919
        n = p * p * q * q * r
        assert factorize(n) == {p: 2, q: 2, r: 1}
        assert squarefree_part(n) == r
        assert squarefree_part(-n) == -r
        assert factorize(1009 ** 3 * 1013 ** 5) == {1009: 3, 1013: 5}

    def test_factorize_budget(self, monkeypatch):
        # rho needs about sqrt(10^6) iterations to split this product
        p, q = 1000003, 1000033
        monkeypatch.setattr(field_mod, "RHO_ITERATION_BUDGET", 10)
        with pytest.raises(FactoringBudgetExceeded):
            factorize(p * q)
        assert factorize(991 ** 2 * 997) == {991: 2, 997: 1}     # no rho needed

    def test_least_nonresidue(self):
        assert PrimeField(5).least_nonresidue == 2
        assert PrimeField(7).least_nonresidue == 3
        assert PrimeField(23).least_nonresidue == 5


def _random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _no_rho(n):
    raise AssertionError("Pollard rho called on a %d-bit number" % n.bit_length())


class TestSquarefreePart:
    """squarefree_part keeps the primes of odd exponent and splits no square."""

    @staticmethod
    def _seeded_values(rng, count):
        """(n, factors) pairs: primes below 10^3 and between 10^3 and 10^6 with
        exponents 1-5 (cubes and fifth powers among them), and at most one
        square of a prime up to 2^60, so that factorize stays fast."""
        small = [p for p in range(2, 1000) if is_prime(p)]
        values = [(1, {})]
        while len(values) < count:
            factors = {}
            for _ in range(rng.randint(0, 4)):
                p = rng.choice(small) if rng.random() < 0.7 else _random_prime(rng, 1000, 10 ** 6)
                factors[p] = factors.get(p, 0) + rng.choice((1, 1, 2, 3, 5))
            if rng.random() < 0.4:
                p = _random_prime(rng, 10 ** 6, 2 ** 60)
                factors[p] = factors.get(p, 0) + 2
            n = 1
            for p, e in factors.items():
                n *= p ** e
            values.append((n, factors))
        return values

    def test_matches_factorize_odd_exponents(self):
        rng = random.Random(26)
        for n, factors in self._seeded_values(rng, 2000):
            assert factorize(n) == factors
            sign = rng.choice((1, -1))
            odd = sign
            for p, e in factors.items():
                if e % 2:
                    odd *= p
            assert squarefree_part(sign * n) == odd

    def test_square_cofactor_is_not_split(self, monkeypatch):
        rng = random.Random(50)
        p, q = _random_prime(rng, 2 ** 50, 2 ** 51), _random_prime(rng, 2 ** 50, 2 ** 51)
        n = 7 * 991 * (p * q) ** 2
        monkeypatch.setattr(field_mod, "RHO_ITERATION_BUDGET", 10)
        with pytest.raises(FactoringBudgetExceeded):
            factorize(n)        # it splits the root p q
        monkeypatch.setattr(field_mod, "_pollard_rho", _no_rho)
        assert squarefree_part(n) == 6937
        assert squarefree_part(-n) == -6937
        assert QQ.square_class(Fraction(n, 4)).rep == 6937

    def test_against_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(27)
        for n, _ in self._seeded_values(rng, 60)[1:]:
            n *= rng.choice((1, -1)) * rng.randint(1, 10 ** 6)
            odd = -1 if n < 0 else 1
            for p, e in sympy.factorint(abs(n)).items():
                if e % 2:
                    odd *= int(p)
            assert squarefree_part(n) == odd


class TestSquareClassProducts:
    def test_rational_product_needs_no_factoring(self, monkeypatch):
        rng = random.Random(28)
        big = [_random_prime(rng, 10 ** 4, 10 ** 7) for _ in range(6)]
        cases = []
        for _ in range(200):
            a, b = (Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 4) * rng.choice(big)
                             ** rng.randint(0, 1), rng.randint(1, 10 ** 4))
                    for _ in range(2))
            cases.append((QQ.square_class(a), QQ.square_class(b), QQ.square_class(a * b)))
        monkeypatch.setattr(field_mod, "_pollard_rho", _no_rho)
        for ca, cb, cab in cases:
            assert ca * cb == cab
            assert (ca * cb).rep == cab.rep
