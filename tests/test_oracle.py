import json
from collections import deque

import pytest

from wallfact import (Fp, GroupCensus, Isometry, Matrix, NotIsometry, PrimeField,
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
    "O(2,F_3)": lambda: diagonal_space(PrimeField(3), [1, 1]),
    "O(3,F_3)": lambda: diagonal_space(PrimeField(3), [1, 1, 1]),
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


def reference_code_bfs(space):
    """The element-by-element column-code search that the level-wise one
    replaced: one ``tuple(map(table.__getitem__, g))`` and one dict probe
    per (element, reflection) pair, in queue order.  Returns the codes,
    the lengths and the reflection tables it filled."""
    p, n = space.field.p, space.dim
    polar = space.polar_matrix._int_form()[0]
    tables = [oracle_mod._ColumnImages(
        oracle_mod._reflection_product_mod(p, polar, [[x.value for x in v]]), p)
        for v in oracle_mod._generator_points(space)]
    identity = tuple(p ** (n - 1 - j) for j in range(n))
    lengths = {identity: 0}
    order = [identity]
    for g in order:
        d = lengths[g] + 1
        for table in tables:
            h = tuple(map(table.__getitem__, g))
            if h not in lengths:
                lengths[h] = d
                order.append(h)
    return tuple(order), lengths, tables


def reference_save_bytes(space, codes, lengths, path):
    """The cache file as ``json.dump`` streamed it before ``save_census``
    built the text in one ``json.dumps``."""
    data = census_cache_key(space)
    data["codes"] = codes
    data["lengths"] = [lengths[g] for g in codes]
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path.read_bytes()


def reference_length_rule(f):
    """dim Mov(f) = rank(f - I) by a boxed elimination, plus 2 when the
    boxed moved space is totally singular."""
    space = f.space
    rank = (f.matrix - Matrix.identity(space.field, space.dim)).rank()
    if rank and space.is_totally_singular(moved_space(f)):
        return rank + 2
    return rank


PINNED_GROUPS = {
    "O(2,F_3)": (3, [1, 1]),
    "O(3,F_3)": (3, [1, 1, 1]),
    "O(3,F_5)": (5, [1, 1, 1]),
    "O+(4,F_3)": (3, [1, 1, 1, 1]),
    "O-(4,F_3)": (3, [1, 1, 1, -1]),
}


def check_census_against_references(p, form, tmp_path, monkeypatch):
    space = diagonal_space(PrimeField(p), form)
    made = []

    class RecordedImages(oracle_mod._ColumnImages):
        __slots__ = ()

        def __init__(self, rows, p):
            super().__init__(rows, p)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(oracle_mod, "_ColumnImages", RecordedImages)
        census = enumerate_group(space)
    codes, lengths, tables = reference_code_bfs(space)
    assert len(census) == group_order(space)
    assert census.codes == codes
    assert list(census.lengths.items()) == list(lengths.items())
    assert [list(t.items()) for t in made] == [list(t.items()) for t in tables]
    path = tmp_path / "census.json"
    save_census(census, str(path))
    assert path.read_bytes() == reference_save_bytes(space, codes, lengths,
                                                     tmp_path / "reference.json")
    assert expected_lengths(census) == {f.key(): reference_length_rule(f)
                                        for f in census.elements}
    assert verify_length_formula(census).ok


class TestCensusAgainstReferences:
    """The level-wise search, the prefix-shared length check and the
    one-shot cache write against the code they replaced, kept here: the
    same codes and lengths in the same order, the same reflection tables
    filled in the same order, the same file bytes, and on every element the
    length of a boxed rank(g - I) and moved space.  The negative control,
    one changed length reported as one violation, is
    ``TestLengthCheckOnResidues``, which runs on the same groups."""

    @pytest.mark.parametrize("group", sorted(PINNED_GROUPS))
    def test_search_lengths_and_bytes(self, group, tmp_path, monkeypatch):
        check_census_against_references(*PINNED_GROUPS[group], tmp_path, monkeypatch)

    @pytest.mark.slow
    def test_o4_plus_f5(self, tmp_path, monkeypatch):
        check_census_against_references(5, [1, 1, 1, 1], tmp_path, monkeypatch)


def _drop(name):
    def edit(data):
        del data[name]
        return data
    return edit


def _set(name, value):
    def edit(data):
        data[name] = value
        return data
    return edit


def _length(k, value):
    def edit(data):
        data["lengths"][k] = value
        return data
    return edit


def _cut_lengths(data):
    data["lengths"].pop()
    return data


def _append_twice(data):
    data["codes"].append(data["codes"][7])
    data["lengths"].append(data["lengths"][7])
    return data


def _drop_one(data):
    del data["codes"][7]
    del data["lengths"][7]
    return data


def _repeat(data):
    data["codes"][8] = data["codes"][7]
    data["lengths"][8] = data["lengths"][7]
    return data


class TestCensusFileIntegrity:
    """A cache file of O(3, F_3) (48 elements) that does not hold the group
    once, with one non-negative int length per element, is refused through
    ``cli.main``: exit 1 with a NotIsometry JSON error, never a count of 47
    or 49 elements and never an uncaught exception."""

    CASES = {
        "top level a list": lambda data: [data],
        "codes missing": _drop("codes"),
        "lengths missing": _drop("lengths"),
        "codes not a list": _set("codes", 5),
        "lengths not a list": _set("lengths", 0),
        "lengths cut short": _cut_lengths,
        "negative length": _length(3, -1),
        "float length": _length(3, 1.0),
        "boolean length": _length(3, True),
        "element stored twice": _repeat,
        "element appended twice": _append_twice,
        "element dropped": _drop_one,
    }

    def run(self, tmp_path, capsys, edit=None):
        """Write the cache with one ``oracle --check length --cache`` call,
        apply ``edit`` to its JSON, and return the exit code and the output
        of a second call that reads it."""
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"field": "prime", "p": 3,
                                    "form": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        path = tmp_path / "census.json"
        argv = ["oracle", "--form", str(form), "--check", "length", "--cache", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        if edit is not None:
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_intact_file_is_read(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys)
        assert code == 0
        assert out["group_order"] == 48 and out["violations"] == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused(self, case, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, self.CASES[case])
        assert code == 1
        assert out["error"] == "NotIsometry"
