import json

import pytest

from wallfact import factor as factor_mod
from wallfact.cli import build_parser, main
from wallfact.factor import Factorization
from wallfact.linalg import Matrix


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def lorentz_files(tmp_path):
    form = write(tmp_path, "space.json",
                 {"field": {"field": "rational"}, "form": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})
    boost = write(tmp_path, "boost.json",
                  {"matrix": [["5/3", "0", "4/3"], ["0", "1", "0"], ["4/3", "0", "5/3"]]})
    return form, boost


@pytest.fixture
def f3_files(tmp_path):
    form = write(tmp_path, "f3.json", {"field": "prime", "p": 3, "form": [[1, 0], [0, 1]]})
    rot = write(tmp_path, "rot.json", {"matrix": [[0, 2], [1, 0]]})
    refl = write(tmp_path, "refl.json", {"matrix": [[2, 0], [0, 1]]})
    return form, rot, refl


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestLengthAndFactor:
    def test_length_identity(self, tmp_path, capsys):
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, 1]]})
        iso = write(tmp_path, "id.json", {"matrix": [[1, 0], [0, 1]]})
        code, out = run(capsys, ["length", "--form", form, "--isometry", iso])
        assert code == 0 and out == {"length": 0}

    def test_factor_and_verify_roundtrip(self, tmp_path, capsys, lorentz_files):
        form, boost = lorentz_files
        code, fact = run(capsys, ["factor", "--form", form, "--isometry", boost])
        assert code == 0 and fact["length"] == 2
        fact_file = write(tmp_path, "fact.json", fact)
        code, out = run(capsys, ["verify", "--form", form, "--isometry", boost,
                                 "--factorization", fact_file])
        assert code == 0 and out["ok"] is True

    def test_factor_positive_negdef_involution(self, tmp_path, capsys):
        form = write(tmp_path, "s22.json",
                     {"field": "rational",
                      "form": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]})
        iso = write(tmp_path, "inv.json",
                    {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]})
        code, out = run(capsys, ["length", "--form", form, "--isometry", iso])
        assert out == {"length": 2}
        code, out = run(capsys, ["factor", "--positive", "--form", form, "--isometry", iso])
        assert code == 0
        assert out["length"] == 4 and out["positive"] is True

    def test_verify_rejects_wrong_certificate(self, tmp_path, capsys, lorentz_files):
        form, boost = lorentz_files
        bogus = write(tmp_path, "bogus.json",
                      {"length": 1, "reflections": [["1", "0", "0"]]})
        code, out = run(capsys, ["verify", "--form", form, "--isometry", boost,
                                 "--factorization", bogus])
        assert code == 0 and out["ok"] is False

    def test_failed_own_certificate_is_internal(self, capsys, lorentz_files, monkeypatch):
        # a factorization that fails its own certificate is a fault, not a domain error
        form, boost = lorentz_files
        monkeypatch.setattr(factor_mod, "reflection_product",
                            lambda B, vectors: Matrix.identity(B.field, B.rows))
        code, out = run(capsys, ["factor", "--form", form, "--isometry", boost])
        assert code == 3 and out["error"] == "internal"

    def test_verify_reports_only_a_mismatch_as_not_ok(self, tmp_path, capsys, lorentz_files,
                                                      monkeypatch):
        form, boost = lorentz_files
        fact = write(tmp_path, "fact.json", {"length": 1, "reflections": [["1", "0", "0"]]})

        def broken(B, vectors):
            raise ValueError("mixed characteristics: F_3 vs F_5")

        monkeypatch.setattr(factor_mod, "reflection_product", broken)
        code, out = run(capsys, ["verify", "--form", form, "--isometry", boost,
                                 "--factorization", fact])
        assert code == 1 and out["error"] == "ValueError"


class TestSpinorClassifyLeq:
    def test_spinor_rational(self, tmp_path, capsys, lorentz_files):
        form, boost = lorentz_files
        code, out = run(capsys, ["spinor", "--form", form, "--isometry", boost])
        assert code == 0 and out["positive"] is True

    def test_spinor_prime(self, capsys, f3_files):
        form, rot, _ = f3_files
        code, out = run(capsys, ["spinor", "--form", form, "--isometry", rot])
        assert code == 0 and out["spinor"] in (1, 2) and "positive" not in out

    def test_classify(self, capsys, lorentz_files):
        form, boost = lorentz_files
        code, out = run(capsys, ["classify", "--form", form, "--isometry", boost])
        assert code == 0
        assert out == {"type": "hyperbolic", "mov_dim": 2, "positive_length": 2}

    def test_leq(self, capsys, f3_files):
        form, rot, refl = f3_files
        code, out = run(capsys, ["leq", "--form", form,
                                 "--isometry", refl, "--isometry", rot])
        assert code == 0 and out == {"leq": True}
        code, out = run(capsys, ["leq", "--form", form,
                                 "--isometry", rot, "--isometry", refl])
        assert out == {"leq": False}


class TestInterval:
    def test_finite_field_poset(self, capsys, f3_files, tmp_path):
        form, rot, _ = f3_files
        dot_file = tmp_path / "hasse.dot"
        code, out = run(capsys, ["interval", "--form", form, "--isometry", rot,
                                 "--dot", str(dot_file)])
        assert code == 0
        assert len(out["elements"]) == 6
        assert dot_file.read_text().startswith("digraph")

    def test_describe_parabolic(self, tmp_path, capsys):
        form = write(tmp_path, "lor.json",
                     {"field": "rational", "form": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})
        # the standard parabolic example as an explicit matrix
        from wallfact import lorentz_space
        from wallfact.hyperbolic import parabolic_example
        from wallfact.jsonio import encode_isometry
        f = parabolic_example(lorentz_space(2))
        iso = write(tmp_path, "para.json", encode_isometry(f))
        code, out = run(capsys, ["interval", "--describe", "--form", form,
                                 "--isometry", iso])
        assert code == 0
        assert out["type"] == "parabolic"
        assert out["admissible"] == "not_sandwiched"
        assert out["fixed_line"][-1] == "1"


class TestOracleCommand:
    def test_standard_form(self, capsys):
        code, out = run(capsys, ["oracle", "--field", "3", "--dim", "2"])
        assert code == 0
        assert out["violations"] == 0 and out["group_order"] == 8

    def test_form_file(self, capsys, f3_files):
        form, _, _ = f3_files
        code, out = run(capsys, ["oracle", "--form", form])
        assert code == 0 and out["violations"] == 0

    def test_single_check(self, capsys):
        code, out = run(capsys, ["oracle", "--field", "3", "--dim", "2",
                                 "--check", "length"])
        assert code == 0
        assert [r["name"] for r in out["reports"]] == ["length_formula"]

    def test_intervals_check_matches_all(self, capsys):
        argv = ["oracle", "--field", "3", "--dim", "3"]
        code, alone = run(capsys, argv + ["--check", "intervals"])
        assert code == 0
        code, everything = run(capsys, argv + ["--check", "all"])
        assert code == 0
        intervals = [r for r in everything["reports"] if r["name"] == "intervals"]
        assert alone["reports"] == intervals
        assert intervals[0]["checked"] > 0 and alone["violations"] == 0

    def test_census_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "census.json")
        code, first = run(capsys, ["oracle", "--field", "3", "--dim", "2",
                                   "--cache", cache])
        assert code == 0 and (tmp_path / "census.json").exists()
        code, second = run(capsys, ["oracle", "--field", "3", "--dim", "2",
                                    "--cache", cache])
        assert code == 0 and second == first

    def test_cache_key_mismatch_recomputes(self, tmp_path, capsys):
        cache = str(tmp_path / "census.json")
        run(capsys, ["oracle", "--field", "3", "--dim", "2", "--cache", cache])
        # a different form must not reuse the cached group
        code, out = run(capsys, ["oracle", "--field", "3", "--dim", "3",
                                 "--cache", cache])
        assert code == 0 and out["group_order"] == 48


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run(capsys, ["length", "--form", str(bad), "--isometry", str(bad)])
        assert code == 2 and out["error"] == "malformed_input"

    def test_missing_file(self, capsys):
        code, out = run(capsys, ["length", "--form", "/nonexistent.json",
                                 "--isometry", "/nonexistent.json"])
        assert code == 2

    def test_degenerate_form_is_domain_error(self, tmp_path, capsys):
        form = write(tmp_path, "deg.json", {"field": "rational", "form": [[1, 0], [0, 0]]})
        iso = write(tmp_path, "id.json", {"matrix": [[1, 0], [0, 1]]})
        code, out = run(capsys, ["length", "--form", form, "--isometry", iso])
        assert code == 1 and out["error"] == "DegenerateForm"

    def test_singular_reflection_vector_is_domain_error(self, tmp_path, capsys):
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, -1]]})
        iso = write(tmp_path, "id.json", {"matrix": [[1, 0], [0, 1]]})
        fact = write(tmp_path, "f.json", {"length": 1, "reflections": [["1", "1"]]})
        code, out = run(capsys, ["verify", "--form", form, "--isometry", iso,
                                 "--factorization", fact])
        assert code == 1 and out["error"] == "SingularVector"

    def test_negative_spinor_under_positive_flag(self, tmp_path, capsys):
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, -1]]})
        iso = write(tmp_path, "r.json", {"matrix": [[1, 0], [0, -1]]})  # Q = -1 reflection
        code, out = run(capsys, ["factor", "--positive", "--form", form, "--isometry", iso])
        assert code == 1 and out["error"] == "NegativeSpinor"

    def test_non_isometry_matrix(self, tmp_path, capsys):
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, 1]]})
        iso = write(tmp_path, "m.json", {"matrix": [[1, 1], [0, 1]]})
        code, out = run(capsys, ["length", "--form", form, "--isometry", iso])
        assert code == 1 and out["error"] == "NotIsometry"

    @pytest.mark.parametrize("command", ["length", "leq"])
    def test_isometry_of_the_wrong_size_is_malformed_input(self, tmp_path, capsys, command):
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, 1]]})
        big = write(tmp_path, "big.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        iso = write(tmp_path, "id.json", {"matrix": [[1, 0], [0, 1]]})
        isometries = ["--isometry", big] + (["--isometry", iso] if command == "leq" else [])
        code, out = run(capsys, [command, "--form", form] + isometries)
        assert code == 2 and out["error"] == "malformed_input"
        assert "3x3 in dimension 2" in out["detail"]

    def test_reflection_of_the_wrong_length_is_malformed_input(self, tmp_path, capsys):
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, 1]]})
        iso = write(tmp_path, "r.json", {"matrix": [[-1, 0], [0, 1]]})
        fact = write(tmp_path, "f.json", {"length": 1, "reflections": [["1", "0", "0"]]})
        code, out = run(capsys, ["verify", "--form", form, "--isometry", iso,
                                 "--factorization", fact])
        assert code == 2 and out["error"] == "malformed_input"
        assert "length 3 in dimension 2" in out["detail"]

    def test_bad_cap_environment_value_is_malformed_input(self, capsys, monkeypatch):
        monkeypatch.setenv("WALLFACT_CAP", "abc")
        code, out = run(capsys, ["oracle", "--field", "3", "--dim", "2"])
        assert code == 2 and out["error"] == "malformed_input"
        assert "WALLFACT_CAP" in out["detail"]

    def test_cap_environment_value_is_applied(self, capsys, monkeypatch):
        # O(2, F_3) has 8 elements, so a cap of 4 stops the enumeration
        monkeypatch.setenv("WALLFACT_CAP", "4")
        code, out = run(capsys, ["oracle", "--field", "3", "--dim", "2"])
        assert code == 1 and out["error"] == "TooLarge"

    @pytest.mark.parametrize("reflections", [5, "1 0 0", {"0": ["1", "0", "0"]}, None])
    def test_reflections_must_be_a_list(self, tmp_path, capsys, lorentz_files, reflections):
        form, boost = lorentz_files
        fact = write(tmp_path, "f.json", {"reflections": reflections})
        code, out = run(capsys, ["verify", "--form", form, "--isometry", boost,
                                 "--factorization", fact])
        assert code == 2 and out["error"] == "malformed_input"

    @pytest.mark.parametrize("argv, env", [(["--cap", "0"], None), (["--cap", "-3"], None),
                                           ([], "0"), ([], "-1")])
    def test_cap_below_one_is_malformed_input(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("WALLFACT_CAP", raising=False)
        else:
            monkeypatch.setenv("WALLFACT_CAP", env)
        code, out = run(capsys, ["oracle", "--field", "3", "--dim", "2"] + argv)
        assert code == 2 and out["error"] == "malformed_input"
        assert "at least 1" in out["detail"]

    @pytest.mark.parametrize("command", ["oracle", "interval"])
    def test_cap_of_one_is_applied(self, capsys, monkeypatch, f3_files, command):
        # O(2, F_3) has 8 elements, and Mov of the rotation, all of F_3^2, 6 subspaces
        monkeypatch.delenv("WALLFACT_CAP", raising=False)
        form, rot, _ = f3_files
        argv = (["oracle", "--field", "3", "--dim", "2"] if command == "oracle"
                else ["interval", "--form", form, "--isometry", rot])
        code, out = run(capsys, argv + ["--cap", "1"])
        assert code == 1 and out["error"] == "TooLarge"
        monkeypatch.setenv("WALLFACT_CAP", "1")
        code, out = run(capsys, argv)
        assert code == 1 and out["error"] == "TooLarge"

    def test_failed_certificate_is_internal_fault(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(Factorization, "is_positive", lambda self: False)
        form = write(tmp_path, "s.json", {"field": "rational", "form": [[1, 0], [0, 1]]})
        iso = write(tmp_path, "r.json", {"matrix": [[-1, 0], [0, 1]]})
        code, out = run(capsys, ["factor", "--positive", "--form", form, "--isometry", iso])
        assert code == 3 and out["error"] == "internal"
        assert "Q(v) <= 0" in out["detail"]


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys, f3_files):
        form, rot, _ = f3_files
        outputs = []
        for _ in range(2):
            code = main(["interval", "--form", form, "--isometry", rot])
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1]

    def test_out_flag_writes_file(self, tmp_path, capsys, f3_files):
        form, rot, _ = f3_files
        target = tmp_path / "out.json"
        code = main(["length", "--form", form, "--isometry", rot, "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text()) == {"length": 2}


def invoke(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_in_process(capsys, argv):
    """What ``invoke`` gives when the call is the first one to build the parser."""
    build_parser.cache_clear()
    return invoke(capsys, argv)


class TestParserBuiltOnce:
    """``main`` reuses one parser per process, and no call sees another's
    options or prints other bytes than a first call would."""

    def test_no_option_leaks_between_calls(self, tmp_path, capsys, lorentz_files, f3_files):
        form, boost = lorentz_files
        f3_form, rot, _ = f3_files
        identity = write(tmp_path, "id3.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        out = tmp_path / "leq.json"
        dot = tmp_path / "describe.dot"
        calls = [
            ["leq", "--form", form, "--isometry", identity, "--isometry", boost,
             "--out", str(out)],
            ["length", "--form", form, "--isometry", boost],
            ["factor", "--positive", "--form", form, "--isometry", boost],
            ["factor", "--form", form, "--isometry", boost],
            ["interval", "--describe", "--form", form, "--isometry", boost,
             "--cap", "1", "--dot", str(dot)],
            ["interval", "--form", f3_form, "--isometry", rot],
        ]
        fresh = [first_in_process(capsys, argv) for argv in calls]
        assert json.loads(out.read_text()) == {"leq": True}
        out.unlink()
        build_parser.cache_clear()
        in_turn = [invoke(capsys, argv) for argv in calls]
        assert in_turn == fresh
        assert [code for code, _, _ in in_turn] == [0] * len(calls)
        assert in_turn[0][1] == "" and json.loads(out.read_text()) == {"leq": True}
        assert json.loads(in_turn[1][1]) == {"length": 2}
        assert json.loads(in_turn[2][1])["positive"] is True
        assert "positive" not in json.loads(in_turn[3][1])
        assert json.loads(in_turn[4][1])["type"] == "hyperbolic"
        assert "covers" in json.loads(in_turn[5][1])        # no --describe, no --cap 1
        assert not dot.exists()
        assert build_parser.cache_info().misses == 1

    def test_parsed_options_do_not_persist(self):
        parser = build_parser()
        two = parser.parse_args(["leq", "--isometry", "a", "--isometry", "b", "--out", "o"])
        one = parser.parse_args(["length", "--isometry", "c"])
        assert two.isometry == ["a", "b"] and one.isometry == ["c"] and one.out is None
        on = parser.parse_args(["interval", "--describe", "--dot", "d", "--cap", "3"])
        off = parser.parse_args(["interval"])
        assert (off.describe, off.dot, off.cap) == (False, None, None)
        assert parser.parse_args(["factor", "--positive"]).positive
        assert not parser.parse_args(["factor"]).positive
        assert on.isometry is None and off.isometry is None

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [command, "--help"] for command in
        ["length", "factor", "spinor", "classify", "leq", "interval", "oracle", "verify"]] + [
        [], ["bogus"], ["oracle", "--cap", "x"]])
    def test_help_and_usage_after_an_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        first = first_in_process(capsys, argv)
        assert invoke(capsys, ["oracle", "--check", "bad"])[0] == 2
        assert invoke(capsys, argv) == first
        code, out, err = first
        if "--help" in argv:
            assert code == 0 and out.startswith("usage: wallfact") and not err
        else:
            assert code == 2 and not out and err.startswith("usage: wallfact")

    def test_help_follows_the_terminal_width(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        wide = first_in_process(capsys, ["oracle", "--help"])
        monkeypatch.setenv("COLUMNS", "60")
        narrow = invoke(capsys, ["oracle", "--help"])
        assert narrow == first_in_process(capsys, ["oracle", "--help"])
        assert len(narrow[1].splitlines()) > len(wide[1].splitlines())

    def test_parser_is_built_once(self, capsys, f3_files):
        form, rot, refl = f3_files
        build_parser.cache_clear()
        for _ in range(20):
            assert main(["length", "--form", form, "--isometry", rot]) == 0
            assert main(["leq", "--form", form, "--isometry", refl, "--isometry", rot]) == 0
            invoke(capsys, ["--help"])
        capsys.readouterr()
        assert build_parser.cache_info().misses == 1
        assert build_parser.cache_info().hits == 59
