import json
from collections import deque

import pytest

from wallfact import (Fp, GroupCensus, Isometry, NotIsometry, PrimeField,
                      QuadraticSpace, TooLarge, diagonal_space, enumerate_group,
                      exhaustive_isometries, moved_space, reflection_length,
                      verify_intervals, verify_length_formula,
                      verify_spinor_homomorphism, verify_wall_bijection)
import wallfact.oracle as oracle_mod
from wallfact.cli import main
from wallfact.oracle import (census_cache_key, group_order, load_census, reflection_generators,
                             save_census, verify_order_against_lengths)
from wallfact import is_minimal


def reference_bfs(space):
    """BFS by boxed ``Isometry`` products keyed by ``key()``: the
    enumeration the column-code search must reproduce element for element."""
    gens = reflection_generators(space)
    gens.sort(key=lambda pair: tuple(str(x) for x in pair[0]))
    identity = space.identity_isometry()
    lengths = {identity.key(): 0}
    elements = [identity]
    queue = deque([identity])
    while queue:
        g = queue.popleft()
        d = lengths[g.key()]
        for _, r in gens:
            h = r @ g
            if h.key() not in lengths:
                lengths[h.key()] = d + 1
                elements.append(h)
                queue.append(h)
    return elements, lengths


def orthogonal_group_order(space):
    """|O(n, q)| from the closed formula; for even n the Witt type is + when
    (-1)^(n/2) det S is a square in F_q."""
    q, n = space.field.p, space.dim
    m = n // 2
    order = 2 * q ** (m * m if n % 2 else m * (m - 1))
    for i in range(1, m + (n % 2)):
        order *= q ** (2 * i) - 1
    if n % 2 == 0:
        disc = (-1) ** m * space.gram.det()
        order *= q ** m - (1 if space.field.is_square(disc) else -1)
    return order


EQUIVALENCE_CASES = [
    (3, [1]), (3, [1, 1]), (3, [1, 2]), (3, [1, 1, 1]), (3, [1, 1, 2]),
    (5, [1, 1]), (5, [1, 2]), (5, [1, 1, 1]),
    (3, [1, 1, -1, -1]), (3, [1, 1, 1, -1]), (7, [1, 1, 1]),
]


class TestGroupOrders:
    def test_one_dimensional(self, f3):
        census = enumerate_group(diagonal_space(f3, [1]))
        assert len(census) == 2          # {1, -1}

    def test_f3_plane_is_dihedral_of_order_eight(self, census_f3_d2):
        assert len(census_f3_d2) == 8

    def test_f5_plane(self, census_f5_d2):
        assert len(census_f5_d2) == 8

    def test_exhaustive_agreement(self, f3, f5):
        cases = [
            (f3, [1]), (f3, [1, 1]), (f3, [1, 2]), (f3, [1, 1, 1]), (f3, [1, 1, 2]),
            (f5, [1, 1]), (f5, [1, 2]), (f5, [1, 1, 1]),
        ]
        for field, form in cases:
            space = diagonal_space(field, form)
            census = enumerate_group(space)
            brute = exhaustive_isometries(space)
            assert len(brute) == len(census)
            assert {f.key() for f in brute} == {f.key() for f in census.elements}

    def test_cap(self, f3):
        with pytest.raises(TooLarge):
            enumerate_group(diagonal_space(f3, [1, 1, 1]), cap=10)


class TestClosedFormOrder:
    """``oracle.group_order`` is the size of the census, and refuses a group
    past the cap before any point is listed."""

    @pytest.mark.parametrize("p,form,order", [
        (3, [], 1), (3, [1], 2),
        (3, [1, 1], 8), (3, [1, 2], 4),                # O-(2, F_3), O+(2, F_3)
        (5, [1, 1], 8), (5, [1, 2], 12),               # O+(2, F_5), O-(2, F_5)
        (3, [1, 1, 1], 48), (5, [1, 1, 1], 240),
        (3, [1, 1, -1, -1], 1152), (3, [1, 1, 1, -1], 1440),
    ])
    def test_formula_is_the_census_size(self, p, form, order):
        space = diagonal_space(PrimeField(p), form)
        assert group_order(space) == order == len(enumerate_group(space))

    @pytest.fixture
    def no_points(self, monkeypatch):
        def refuse(space):
            raise AssertionError("a point was listed past the cap")
        monkeypatch.setattr(oracle_mod, "_generator_points", refuse)

    @pytest.mark.parametrize("p,n", [(10007, 3), (2 ** 61 - 1, 2)])
    def test_large_p_is_refused_before_listing(self, no_points, p, n):
        with pytest.raises(TooLarge, match="cap of 1 elements"):
            enumerate_group(diagonal_space(PrimeField(p), [1] * n), cap=1)
        with pytest.raises(TooLarge, match="cap of 100000 elements"):
            enumerate_group(diagonal_space(PrimeField(p), [1] * n))

    def test_cli_exits_one_at_once(self, no_points, capsys):
        import time
        start = time.perf_counter()
        code = main(["oracle", "--field", "10007", "--dim", "3", "--cap", "1"])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["error"] == "TooLarge"
        assert elapsed < 1.0


class TestColumnCodeSearch:
    @pytest.mark.parametrize("p,form", EQUIVALENCE_CASES)
    def test_same_elements_and_lengths_as_matrix_products(self, p, form):
        space = diagonal_space(PrimeField(p), form)
        census = enumerate_group(space)
        elements, lengths = reference_bfs(space)
        assert len(elements) == orthogonal_group_order(space)
        assert list(census.elements) == elements
        assert {f.key(): census.length_of(f) for f in census.elements} == lengths
        assert len(census.lengths) == len(lengths)
        assert [census.length_of(f) for f in census.elements] == \
            [lengths[f.key()] for f in elements]

    @pytest.mark.parametrize("p,form", [(3, [1, 1, 1]), (3, [1, 1, 1, -1]), (7, [1, 1, 1])])
    def test_cap_is_exact(self, p, form):
        space = diagonal_space(PrimeField(p), form)
        order = orthogonal_group_order(space)
        with pytest.raises(TooLarge):
            enumerate_group(space, cap=order - 1)
        assert len(enumerate_group(space, cap=order)) == order


class TestCensusCache:
    @pytest.mark.parametrize("version", [None, 1, 2])
    def test_other_format_version_is_recomputed(self, census_f3_d2, tmp_path, version):
        path = tmp_path / "census.json"
        save_census(census_f3_d2, str(path))
        data = json.loads(path.read_text())
        assert data["form_hash"] == census_cache_key(census_f3_d2.space)["form_hash"]
        if version is None:
            del data["version"]
        else:
            data["version"] = version
        path.write_text(json.dumps(data))
        assert load_census(census_f3_d2.space, str(path)) is None


    @pytest.fixture(scope="class")
    def o4_f3(self):
        return enumerate_group(diagonal_space(PrimeField(3), [1, 1, 1, -1]))

    def test_round_trip(self, o4_f3, tmp_path):
        path = str(tmp_path / "census.json")
        save_census(o4_f3, path)
        loaded = load_census(o4_f3.space, path)
        assert loaded.codes == o4_f3.codes
        assert loaded.lengths == o4_f3.lengths
        assert loaded.elements == o4_f3.elements
        assert loaded.reflections == o4_f3.reflections

    def tampered(self, census, tmp_path, edit):
        path = tmp_path / "census.json"
        save_census(census, str(path))
        data = json.loads(path.read_text())
        edit(data["codes"])
        path.write_text(json.dumps(data))
        return path

    def non_isometry_column(self, codes):
        # columns 0 and 1 equal to u = g e_1 give u^T S u = 1 at (0, 1), where
        # the form needs S[0][1] = 0
        codes[5][0] = codes[5][1]

    def code_too_large(self, codes):
        codes[5][1] = 81

    def codes_missing(self, codes):
        del codes[5][-1]

    @pytest.mark.parametrize("edit", ["non_isometry_column", "code_too_large",
                                      "codes_missing"])
    def test_tampered_file_raises(self, o4_f3, tmp_path, edit):
        path = self.tampered(o4_f3, tmp_path, getattr(self, edit))
        with pytest.raises(NotIsometry):
            load_census(o4_f3.space, str(path))

    def test_symmetry_is_decided_once_per_load(self, o4_f3, tmp_path, monkeypatch):
        from wallfact import oracle
        calls = []
        real = oracle._is_symmetric
        monkeypatch.setattr(oracle, "_is_symmetric", lambda rows: calls.append(1) or real(rows))
        path = str(tmp_path / "census.json")
        save_census(o4_f3, path)
        loaded = load_census(o4_f3.space, path)
        assert loaded.codes == o4_f3.codes and len(loaded.codes) > 1
        assert calls == [1]

    def test_cli_exits_1_on_tampered_file(self, o4_f3, tmp_path, capsys):
        path = self.tampered(o4_f3, tmp_path, self.non_isometry_column)
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"field": "prime", "p": 3,
                                    "form": [[1, 0, 0, 0], [0, 1, 0, 0],
                                             [0, 0, 1, 0], [0, 0, 0, -1]]}))
        code = main(["oracle", "--form", str(form), "--check", "length",
                     "--cache", str(path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"] == "NotIsometry"


class TestCensusStaysOnCodes:
    """Enumeration, the length check and the cache box no isometry and hash
    no Fp entry, so per-element boxing cannot slide back in unnoticed."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"init": 0, "hash": 0}
        init, fp_hash = Isometry.__init__, Fp.__hash__

        def counting_init(self, *args, **kwargs):
            counts["init"] += 1
            init(self, *args, **kwargs)

        def counting_hash(self):
            counts["hash"] += 1
            return fp_hash(self)

        monkeypatch.setattr(Isometry, "__init__", counting_init)
        monkeypatch.setattr(Fp, "__hash__", counting_hash)
        return counts

    def test_census_on_codes(self, counts, tmp_path):
        space = diagonal_space(PrimeField(3), [1, 1, 1, 1])
        path = str(tmp_path / "census.json")
        census = enumerate_group(space)
        assert verify_length_formula(census).ok
        save_census(census, path)
        loaded = load_census(space, path)
        assert counts == {"init": 0, "hash": 0}
        for c in (census, loaded):
            c.elements
            assert counts["init"] == len(c)
            c.elements
            assert counts["init"] == len(c)
            counts["init"] = 0
        assert counts["hash"] == 0
        assert all(loaded.contains(f) for f in census.elements)
        assert [loaded.length_of(f) for f in census.elements] == \
            [census.lengths[g] for g in census.codes]
        assert counts == {"init": 0, "hash": 0}


class TestCensusBasics:
    def test_identity_and_reflection_lengths(self, census_f3_d3):
        census = census_f3_d3
        assert census.length_of(census.identity()) == 0
        for _, r in census.reflections:
            assert census.length_of(r) == 1

    def test_closed_under_product_and_inverse(self, census_f3_d2, rng):
        census = census_f3_d2
        for _ in range(30):
            f = rng.choice(census.elements)
            g = rng.choice(census.elements)
            assert census.contains(f @ g)
            assert census.contains(f.inverse())

    def test_contains_all_reflections(self, census_f3_d3):
        census = census_f3_d3
        gens = reflection_generators(census.space)
        assert gens
        for _, r in gens:
            assert census.contains(r)


class TestVerifications:
    def test_length_formula_everywhere(self, census_f3_d2, census_f3_d3,
                                       census_f5_d2):
        o3_f7 = enumerate_group(diagonal_space(PrimeField(7), [1, 1, 1]))
        assert len(o3_f7) == 672
        for census in (census_f3_d2, census_f3_d3, census_f5_d2, o3_f7):
            report = verify_length_formula(census)
            assert report.ok, report.violations[:3]

    def test_bfs_equals_structural_length(self, census_f3_d3, census_f5_d2):
        for census in (census_f3_d3, census_f5_d2):
            for f in census.elements:
                assert census.length_of(f) == reflection_length(f)

    def test_spinor_homomorphism(self, census_f3_d2):
        report = verify_spinor_homomorphism(census_f3_d2)
        assert report.ok and report.checked == 64

    def test_wall_bijection_with_surjectivity(self, census_f3_d2, census_f3_d2_split):
        for census in (census_f3_d2, census_f3_d2_split):
            report = verify_wall_bijection(census, surjectivity=True)
            assert report.ok, report.violations[:3]

    def test_intervals_for_sampled_minimal(self, census_f3_d3, rng):
        census = census_f3_d3
        sampled = [f for f in rng.sample(list(census.elements), 10) if is_minimal(f)]
        assert sampled
        for f in sampled:
            report = verify_intervals(census, f)
            assert report.ok, report.violations[:3]

    def test_order_predicate_against_lengths(self, census_f3_d2, rng):
        census = census_f3_d2
        for f in census.elements:
            report = verify_order_against_lengths(census, f)
            assert report.ok

    def test_report_serialization(self, census_f3_d2):
        report = verify_length_formula(census_f3_d2)
        data = report.to_json_dict()
        assert data["violations"] == 0 and data["checked"] == 8


class TestVerifyIntervalsRestrictsOnce:
    """``verify_intervals`` restricts the Wall form once per admissible U and
    builds the image element from that same restriction."""

    def test_restriction_count(self, census_f3_d4, monkeypatch):
        import wallfact.wall as wall_mod
        census = census_f3_d4
        space = census.space
        f = space.reflection([1, 0, 0, 0]) @ space.reflection([0, 1, 0, 0]) @ \
            space.reflection([0, 0, 1, 0])
        assert is_minimal(f)
        calls = []
        real = wall_mod.WallData.restrict

        def restrict(self, U):
            calls.append(U)
            return real(self, U)

        monkeypatch.setattr(wall_mod.WallData, "restrict", restrict)
        report = verify_intervals(census, f)
        assert len(calls) == 20          # one per admissible U, that is per element
        assert report.ok and report.checked == 40

    def test_non_minimal_refused(self, census_f3_d4):
        f = next(g for g in census_f3_d4.elements if not is_minimal(g))
        with pytest.raises(ValueError, match="defined for minimal isometries"):
            verify_intervals(census_f3_d4, f)


def reference_expected_length(f):
    """The per-element rule the residue check replaced: dim Mov(f), plus 2
    when Mov(f) is totally singular, from the boxed moved space."""
    mov = moved_space(f)
    if f.is_identity():
        return 0
    if f.space.is_totally_singular(mov):
        return mov.dim + 2
    return mov.dim


def expected_lengths(census):
    """The length verify_length_formula expects for each element, read off
    the witnesses of a census whose every recorded length is -1."""
    blank = GroupCensus(census.space, census.codes, dict.fromkeys(census.codes, -1))
    report = verify_length_formula(blank)
    assert report.checked == len(census)
    return {key: expected for key, _, expected in report.violations}


def hyperbolic_plus(field, diagonal):
    """The hyperbolic plane [[0, 1], [1, 0]] plus a diagonal part."""
    n = 2 + len(diagonal)
    form = [[0] * n for _ in range(n)]
    form[0][1] = form[1][0] = 1
    for i, d in enumerate(diagonal):
        form[2 + i][2 + i] = d
    return QuadraticSpace(field, form)


LENGTH_CHECK_SPACES = {
    "O+(4,F_3)": lambda: diagonal_space(PrimeField(3), [1, 1, 1, 1]),
    "O-(4,F_3)": lambda: diagonal_space(PrimeField(3), [1, 1, 1, -1]),
    "O(3,F_5)": lambda: diagonal_space(PrimeField(5), [1, 1, 1]),
    "O(3,F_7)": lambda: diagonal_space(PrimeField(7), [1, 1, 1]),
    "H+(1)+(1) over F_3": lambda: hyperbolic_plus(PrimeField(3), [1, 1]),
    "H+(1)+(-1) over F_3": lambda: hyperbolic_plus(PrimeField(3), [1, -1]),
    "H+(1) over F_3": lambda: hyperbolic_plus(PrimeField(3), [1]),
    "H+(2) over F_5": lambda: hyperbolic_plus(PrimeField(5), [2]),
    "dense over F_3": lambda: QuadraticSpace(PrimeField(3), [[1, 1, 1], [1, 2, 0], [1, 0, 1]]),
    "dense over F_5": lambda: QuadraticSpace(PrimeField(5), [[2, 1, 1], [1, 3, 2], [1, 2, 1]]),
}


class TestLengthCheckOnResidues:
    """verify_length_formula against the boxed moved-space rule it replaced."""

    @pytest.fixture(scope="class", params=sorted(LENGTH_CHECK_SPACES))
    def census(self, request):
        return enumerate_group(LENGTH_CHECK_SPACES[request.param]())

    def test_same_expected_length_as_moved_space_rule(self, census):
        expected = expected_lengths(census)
        assert expected == {f.key(): reference_expected_length(f)
                            for f in census.elements}
        assert verify_length_formula(census).ok

    def test_one_changed_length_gives_one_violation(self, census):
        k = len(census) // 2
        g, f = census.codes[k], census.elements[k]
        lengths = dict(census.lengths)
        lengths[g] += 1
        report = verify_length_formula(GroupCensus(census.space, census.codes, lengths))
        assert report.checked == len(census)
        assert report.violations == [(f.key(), census.lengths[g] + 1,
                                       reference_expected_length(f))]


@pytest.mark.slow
class TestLargeCensus:
    """Census past O(4, F_3); deselected by default, run with ``-m slow``."""

    def test_length_formula_on_o4_f5(self):
        space = diagonal_space(PrimeField(5), [1, 1, 1, -1])
        census = enumerate_group(space)
        assert len(census) == orthogonal_group_order(space) == 28800
        report = verify_length_formula(census)
        assert report.ok, report.violations[:3]

    def test_length_formula_on_o5_f3(self):
        space = diagonal_space(PrimeField(3), [1, 1, 1, 1, 1])
        census = enumerate_group(space, cap=2 * 10 ** 5)
        assert len(census) == orthogonal_group_order(space) == 103680
        report = verify_length_formula(census)
        assert report.ok, report.violations[:3]


class TestCensusPairTable:
    """load_census compares a value per column pair and position, read from
    a table of values per distinct pair of column codes."""

    @pytest.fixture(scope="class")
    def o4_f3(self):
        return enumerate_group(diagonal_space(PrimeField(3), [1, 1, 1, -1]))

    def test_swapped_columns_whose_pairs_were_all_seen(self, o4_f3, tmp_path):
        # columns 0 and 3 have Q = 1 and Q = -1 in every element; find the
        # first element whose every ordered pair of columns, after the swap,
        # already occurred in an earlier (valid) element
        n, a, b = 4, 0, 3
        seen = {}                   # ordered pair of codes -> positions seen
        for k, g in enumerate(o4_f3.codes):
            h = list(g)
            h[a], h[b] = h[b], h[a]
            if all((h[i], h[j]) in seen for i in range(n) for j in range(n)):
                break
            for i in range(n):
                for j in range(n):
                    seen.setdefault((g[i], g[j]), set()).add((i, j))
        else:
            pytest.fail("no element whose swapped pairs all occur earlier")
        assert (a, a) not in seen[(h[a], h[a])]     # valid only at another position
        path = tmp_path / "census.json"
        save_census(o4_f3, str(path))
        data = json.loads(path.read_text())
        assert data["codes"][k] == list(g)
        data["codes"][k] = h
        path.write_text(json.dumps(data))
        with pytest.raises(NotIsometry, match="does not preserve"):
            load_census(o4_f3.space, str(path))
        # the same file with the element put back loads, as saved
        data["codes"][k] = list(g)
        path.write_text(json.dumps(data))
        loaded = load_census(o4_f3.space, str(path))
        assert loaded.codes == o4_f3.codes and loaded.lengths == o4_f3.lengths
