import json
import random
import sys
from fractions import Fraction

import pytest

from wallfact import (Matrix, PrimeField, QQ, Subspace, diagonal_space,
                      minimal_factorization, wall_form)
from wallfact.jsonio import (InputError, decode_factorization, decode_field,
                             decode_isometry, decode_matrix, decode_scalar,
                             decode_space, decode_subspace, decode_vector,
                             encode_factorization, encode_field,
                             encode_isometry, encode_scalar,
                             encode_space, encode_vector, encode_walldata,
                             projective_normalize, _decode_rational)
from wallfact.linalg import _int_matrix


class TestScalars:
    def test_rational_forms(self):
        assert encode_scalar(Fraction(3, 4)) == "3/4"
        assert encode_scalar(Fraction(5)) == "5"
        assert decode_scalar("3/4", QQ) == Fraction(3, 4)
        assert decode_scalar("7", QQ) == 7
        assert decode_scalar(7, QQ) == 7

    def test_prime_field_ints(self):
        F5 = PrimeField(5)
        assert encode_scalar(F5(7)) == 2
        assert decode_scalar(3, F5) == F5(3)

    def test_bad_scalars(self):
        with pytest.raises(InputError):
            decode_scalar(True, QQ)
        with pytest.raises(InputError):
            decode_scalar([1], QQ)
        with pytest.raises(InputError):
            decode_scalar("x", QQ)


class TestRationalMatrices:
    """Over Q a matrix's entries decode as decode_scalar reads them, and its
    integer form is built from those entries."""

    SPELLINGS = ["3/4", "-3/4", "+3/4", "6/8", "-0/5", "007", "12", 12, -5, "0",
                 "1.5", "-2.25", "1e3", " 1/2 ", "1_000", "3/12", "10/1"]

    def test_entries_equal_the_scalar_decoding(self):
        M = decode_matrix([self.SPELLINGS], QQ)
        assert M.entries == (tuple(decode_scalar(x, QQ) for x in self.SPELLINGS),)
        assert M._int_form() == (
            [[Fraction(x) * 4 if isinstance(x, int) else Fraction(x.strip()) * 4
              for x in self.SPELLINGS]], 4)

    @pytest.mark.parametrize("bad", ["1/0", "1/-2", "1 / 2", "x", "", "/2", "1/", "2//3",
                                     True, None, 1.5, [1]])
    def test_malformed_entries_rejected(self, bad):
        with pytest.raises(InputError):
            decode_matrix([[1, bad]], QQ)

    def test_malformed_entry_exits_2(self, tmp_path, capsys):
        from wallfact.cli import main
        form = tmp_path / "space.json"
        form.write_text(json.dumps({"field": "rational", "form": [["1", "0"], ["0", "1/-1"]]}))
        iso = tmp_path / "id.json"
        iso.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
        assert main(["length", "--form", str(form), "--isometry", str(iso)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "malformed_input"

    @pytest.fixture
    def digit_limit(self):
        """Python's limit on the digits of an integer read from a string."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python reads integers of any length")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("half", ["numerator", "denominator"])
    def test_overlong_entries_are_malformed(self, digit_limit, half, tmp_path, capsys):
        from wallfact.cli import main
        digits = "1" * (digit_limit + 1)
        bad = digits if half == "numerator" else "1/" + digits
        with pytest.raises(InputError):
            decode_matrix([[1, bad]], QQ)
        with pytest.raises(InputError):
            decode_vector([1, bad], QQ)
        form = tmp_path / "space.json"
        form.write_text(json.dumps({"field": "rational", "form": [["1", "0"], ["0", bad]]}))
        iso = tmp_path / "id.json"
        iso.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
        assert main(["length", "--form", str(form), "--isometry", str(iso)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "malformed_input"


class TestFieldSpecs:
    def test_round_trip(self):
        assert decode_field(encode_field(QQ)) == QQ
        assert decode_field(encode_field(PrimeField(7))) == PrimeField(7)

    def test_bare_kind_string(self):
        assert decode_field("rational") == QQ

    def test_bad_specs(self):
        with pytest.raises(InputError):
            decode_field({"field": "complex"})
        with pytest.raises(InputError):
            decode_field({"field": "prime", "p": 4})
        with pytest.raises(InputError):
            decode_field({"field": "prime"})


class TestSpaces:
    def test_round_trip(self):
        space = diagonal_space(QQ, [1, 1, -1])
        assert decode_space(encode_space(space)) == space

    def test_flat_prime_spelling(self):
        space = decode_space({"field": "prime", "p": 3, "form": [[1, 0], [0, 1]]})
        assert space.field == PrimeField(3)

    def test_symmetrization_documented_behavior(self):
        space = decode_space({"field": "rational", "form": [[1, 2], [0, 3]]})
        # Q(x, y) = x^2 + 2xy + 3y^2 regardless of where the cross term sat
        assert space.q_value((1, 1)) == 6
        assert space == decode_space({"field": "rational", "form": [[1, 0], [2, 3]]})
        # both equal the symmetrized twin, which is taken as it is
        twin = decode_space({"field": "rational", "form": [[1, 1], [1, 3]]})
        assert space == twin and space.gram == twin.gram
        assert space.gram.is_symmetric() and space.polar_matrix == twin.polar_matrix
        half = decode_space({"field": "rational", "form": [["1/2", "1/3"], [0, -1]]})
        assert half.gram == decode_space(
            {"field": "rational", "form": [["1/2", "1/6"], ["1/6", -1]]}).gram
        F5 = PrimeField(5)
        asym = decode_space({"field": "prime", "p": 5, "form": [[1, 3], [0, 2]]})
        # over F_5, 3/2 = 4
        assert asym == decode_space({"field": "prime", "p": 5, "form": [[1, 4], [4, 2]]})
        assert asym.q_value((1, 1)) == F5(6)

    def test_missing_form(self):
        with pytest.raises(InputError):
            decode_space({"field": "rational"})


class TestIsometriesAndVectors:
    def test_isometry_round_trip(self):
        space = diagonal_space(QQ, [1, -1])
        f = space.reflection((1, 0))
        assert decode_isometry(encode_isometry(f), space) == f

    @pytest.mark.parametrize("matrix", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0]], [],
                                        [[1, 0, 0], [0, 1, 0]]])
    def test_isometry_shape_must_match_the_space(self, matrix):
        space = diagonal_space(QQ, [1, -1])
        with pytest.raises(InputError, match="in dimension 2"):
            decode_isometry({"matrix": matrix}, space)

    def test_vector_round_trip(self):
        v = (Fraction(1, 2), Fraction(-3))
        assert decode_vector(encode_vector(v), QQ) == v

    def test_matrix_shape_error(self):
        with pytest.raises(InputError):
            decode_matrix([[1, 2], [3]], QQ)

    def test_matrix_shapes_and_entries(self):
        F5 = PrimeField(5)
        empty, row = decode_matrix([], QQ), decode_matrix([[]], QQ)
        assert (empty.rows, empty.cols, row.rows, row.cols) == (0, 0, 1, 0)
        M = decode_matrix([["1/2", 3], ["-4", "0"]], QQ)
        assert M == Matrix(QQ, [[Fraction(1, 2), 3], [-4, 0]]) and (M.rows, M.cols) == (2, 2)
        assert all(type(x) is Fraction for row in M.entries for x in row)
        assert decode_matrix([[7, -1]], F5).entries == ((F5(2), F5(4)),)
        with pytest.raises(InputError, match="ragged"):
            decode_matrix([[1], [2, 3]], F5)
        with pytest.raises(InputError):
            decode_matrix([[1, "x"]], QQ)


class TestFactorizations:
    def test_round_trip_with_certificate(self):
        space = diagonal_space(QQ, [1, 1, -1])
        f = space.reflection((1, 2, 0)) @ space.reflection((0, 1, 2))
        fact = minimal_factorization(f)
        payload = encode_factorization(fact, positive=False)
        assert payload["length"] == 2 and payload["positive"] is False
        back = decode_factorization(payload, space, target=f)
        assert back.product() == f

    def test_projective_normalization(self):
        space = diagonal_space(QQ, [1, 1])
        assert projective_normalize(space, (Fraction(0), Fraction(3))) == (0, 1)
        assert projective_normalize(space, (Fraction(2), Fraction(4))) == (1, 2)

    @pytest.mark.parametrize("vector", [["1", "0", "0"], ["1"], []])
    def test_vector_length_must_match_the_space(self, vector):
        space = diagonal_space(QQ, [1, 1])
        with pytest.raises(InputError, match="in dimension 2"):
            decode_factorization({"reflections": [["1", "1"], vector]}, space)

    def test_length_mismatch_rejected(self):
        space = diagonal_space(QQ, [1, 1])
        with pytest.raises(InputError):
            decode_factorization({"length": 2, "reflections": [["1", "0"]]}, space)


class TestDebugFormats:
    def test_walldata_serializes(self):
        space = diagonal_space(QQ, [1, 2])
        wd = wall_form(space.reflection((1, 1)))
        payload = encode_walldata(wd)
        assert payload["chi"] == [["3"]]
        assert len(payload["basis"]) == 1
        json.dumps(payload)   # JSON-clean

    def test_subspace_round_trip(self):
        space = diagonal_space(QQ, [1, 1, -1])
        U = Subspace(QQ, 3, [(1, 0, 1), (0, 1, 0)])
        from wallfact.jsonio import encode_subspace
        assert decode_subspace(encode_subspace(U), space) == U

    @pytest.mark.parametrize("basis", [5, "1 0 1", {"0": ["1", "0", "1"]}, None])
    def test_subspace_basis_must_be_a_list(self, basis):
        # no subcommand reads a subspace, so the decoder itself is checked
        with pytest.raises(InputError):
            decode_subspace({"ambient_dim": 3, "basis": basis}, diagonal_space(QQ, [1, 1, -1]))


class TestDecodeRational:
    """The one parser of rational scalars agrees with Fraction on every
    spelling, and a Q matrix decodes straight into its integer form."""

    @staticmethod
    def _fraction_halves(s):
        x = Fraction(s)
        return x.numerator, x.denominator

    @staticmethod
    def _spelling(rng):
        """A random spelling: an optional sign, leading zeros, halves of 1-300
        digits, fractions that are often not in lowest terms."""
        def digits():
            head = "0" * rng.choice((0, 0, 0, 1, 3))
            return head + str(rng.randint(1, 10 ** rng.randint(1, 300)))
        sign = rng.choice(("", "", "-", "+"))
        num = digits()
        if rng.random() < 0.5:
            k = rng.randint(1, 10 ** rng.randint(1, 40))
            num = str(int(num) * k)
            den = str(rng.randint(1, 10 ** rng.randint(1, 260)) * k)
            return "%s%s/%s" % (sign, num, den)
        if rng.random() < 0.3:
            return sign + num
        return "%s%s/%s" % (sign, num, digits())

    def test_spellings_match_fraction(self):
        # non-ASCII digits ("١٢/٤") take the Fraction route
        for s in TestRationalMatrices.SPELLINGS + ["-0", "-0/7", "000/0005", "١٢/٤"]:
            assert _decode_rational(s) == self._fraction_halves(s)

    def test_seeded_spellings_match_fraction(self):
        rng = random.Random(26)
        spellings = [self._spelling(rng) for _ in range(1200)]
        assert any(len(s) > 250 for s in spellings)
        for s in spellings:
            assert _decode_rational(s) == self._fraction_halves(s), s

    @pytest.mark.parametrize("bad", ["1/0", "-007/000", "1/-2", "1 / 2", "x", "", "/2", "1/",
                                     "2//3", "-", "--1", "1/2/3"])
    def test_bad_spellings_keep_fractions_message(self, bad):
        with pytest.raises((ValueError, ZeroDivisionError)) as expected:
            Fraction(bad)
        with pytest.raises(InputError) as got:
            _decode_rational(bad)
        assert str(got.value) == "bad scalar %r: %s" % (bad, expected.value)

    def test_matrix_decodes_into_the_integer_form(self):
        rng = random.Random(27)
        for _ in range(50):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            obj = [[rng.choice((self._spelling(rng), rng.randint(-9, 9), "0"))
                    for _ in range(cols)] for _ in range(rows)]
            M = decode_matrix(obj, QQ)
            assert M._entries is None
            entries = [[decode_scalar(x, QQ) for x in row] for row in obj]
            assert M._int_form() == _int_matrix(entries)
            assert M.entries == tuple(map(tuple, entries))
