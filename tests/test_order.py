import itertools
import json
import random
from bisect import bisect_left

import pytest

import wallfact.factor as factor_mod
import wallfact.order as order_mod
from wallfact import (Isometry, Matrix, PrimeField, QQ, Subspace, TooLarge,
                      admissible_subspaces, diagonal_space, interval,
                      interval_is_graded_check, is_minimal, isometry_from_wall,
                      less_equal, moved_space, reflection_length, subspace_sum, wall_form)
from wallfact.cli import main
from wallfact.oracle import brute_force_interval
from wallfact.factor import reflection_distance
from wallfact.linalg import enumerate_subspaces
from wallfact.order import IntervalPoset, _sort_key, codimension_one_overspaces
from wallfact.wall import enumerate_isometries_with_moved_space
from tests.conftest import random_isometry


@pytest.fixture(scope="module")
def example_3x3():
    """f with Wall matrix [[1,0,0],[0,0,1],[0,-1,0]] over F_3, plus its split-off
    reflection f1 through the first basis vector."""
    F3 = PrimeField(3)
    space = diagonal_space(F3, [1, 1, 1, -1, -1])
    basis = [(1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]
    f = isometry_from_wall(space, Matrix(F3, basis),
                           [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    f1 = isometry_from_wall(space, Matrix(F3, basis[:1]), [[1]])
    return space, basis, f, f1


@pytest.fixture(scope="module")
def example_4x4():
    """f with Wall matrix [[1,0,0,0],[0,0,1,0],[0,-1,0,0],[0,0,0,1]] over F_3."""
    F3 = PrimeField(3)
    space = diagonal_space(F3, [1, 1, 1, 1, -1, -1])
    basis = [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0),
             (0, 0, 0, 1, 0, 1), (0, 1, 0, 0, 0, 0)]
    chi = [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]]
    f = isometry_from_wall(space, Matrix(F3, basis), chi)
    g = isometry_from_wall(space, Matrix(F3, basis[:1]), [[1]])
    gp = isometry_from_wall(space, Matrix(F3, basis[:3]),
                            [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    return space, f, g, gp


@pytest.fixture(scope="module")
def nonminimal_f3(census_f3_d4):
    space = census_f3_d4.space
    U = Subspace(space.field, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    f = isometry_from_wall(space, U, [[0, 1], [-1, 0]])
    return space, f


class TestLessEqual:
    def test_identity_below_everything(self, census_f3_d3, rng):
        identity = census_f3_d3.identity()
        for f in rng.sample(list(census_f3_d3.elements), 15):
            assert less_equal(identity, f)
            assert less_equal(f, f)

    def test_example_f1_not_below_f(self, example_3x3):
        space, basis, f, f1 = example_3x3
        assert moved_space(f1).is_contained_in(moved_space(f))
        assert not less_equal(f1, f)

    def test_reflections_below_nonminimal(self, nonminimal_f3):
        from wallfact.oracle import reflection_generators
        space, f = nonminimal_f3
        for _, r in reflection_generators(space):
            assert less_equal(r, f)
            rf = r @ f
            assert less_equal(rf, f)
            assert reflection_length(rf) == reflection_length(f) - 1

    def test_agrees_with_census_lengths(self, census_f3_d3, rng):
        census = census_f3_d3
        for _ in range(30):
            g = rng.choice(census.elements)
            f = rng.choice(census.elements)
            by_bfs = (census.length_of(g)
                      + census.length_of(g.inverse() @ f) == census.length_of(f))
            assert less_equal(g, f) == by_bfs


class TestAdmissibleSubspaces:
    def test_reflection_has_two(self, f3):
        space = diagonal_space(f3, [1, 1])
        r = space.reflection((1, 0))
        subs = admissible_subspaces(r)
        assert sorted(U.dim for U in subs) == [0, 1]

    def test_example_excludes_unit_line_by_complement_condition(self, example_3x3):
        space, basis, f, f1 = example_3x3
        line = Subspace(space.field, 5, [basis[0]])
        subs = admissible_subspaces(f)
        assert line not in subs
        # conditions (i) and (iii) hold for the line; only (ii) fails
        wd = wall_form(f)
        assert not space.is_totally_singular(line)
        assert wd.restrict(line).det()
        assert space.is_totally_singular(wd.right_complement(line))

    def test_anisotropic_space_admits_everything(self, f3):
        # diag(1,1) over F_3 has no singular vectors
        space = diagonal_space(f3, [1, 1])
        from wallfact import Isometry
        f = Isometry(space, [[-1, 0], [0, -1]])
        subs = admissible_subspaces(f)
        from wallfact.linalg import count_subspaces
        assert len(subs) == count_subspaces(2, 3)

    def test_bijection_against_census(self, census_f3_d3, rng):
        census = census_f3_d3
        space = census.space
        for f in rng.sample(list(census.elements), 10):
            if not is_minimal(f):
                continue
            wd = wall_form(f)
            image_keys = {isometry_from_wall(space, U, wd.restrict(U)).key()
                          for U in admissible_subspaces(f)}
            defn_keys = {g.key() for g in brute_force_interval(census, f)}
            assert image_keys == defn_keys


class TestMovMonotonicity:
    def test_order_implies_inclusion(self, census_f3_d3, rng):
        census = census_f3_d3
        for _ in range(40):
            g = rng.choice(census.elements)
            f = rng.choice(census.elements)
            if less_equal(g, f):
                assert moved_space(g).is_contained_in(moved_space(f))

    def test_inclusion_does_not_imply_order(self, example_4x4):
        space, f, g, gp = example_4x4
        assert less_equal(g, f) and less_equal(gp, f)
        assert moved_space(g).is_contained_in(moved_space(gp))
        assert not less_equal(g, gp)

    def test_anisotropic_inclusion_is_order(self, census_f3_d2, rng):
        census = census_f3_d2
        # no singular vectors: within any interval [id, f], inclusion of
        # moved spaces is exactly the order, so the interval map is a poset
        # isomorphism onto all subspaces of Mov(f)
        for f in census.elements:
            members = brute_force_interval(census, f)
            for g in members:
                for h in members:
                    incl = moved_space(g).is_contained_in(moved_space(h))
                    assert less_equal(g, h) == incl

    def test_chi_restricts_below_minimal(self, census_f3_d3, rng):
        census = census_f3_d3
        for _ in range(25):
            f = rng.choice(census.elements)
            g = rng.choice(census.elements)
            if not is_minimal(f) or not less_equal(g, f):
                continue
            wf, wg = wall_form(f), wall_form(g)
            assert wg.chi == wf.restrict(moved_space(g))


class TestNonMinimalStructure:
    def test_every_proper_predecessor_is_minimal(self, nonminimal_f3, census_f3_d4, rng):
        space, f = nonminimal_f3
        census = census_f3_d4
        below = [g for g in brute_force_interval(census, f) if g != f]
        assert below, "the open interval is non-empty"
        for g in below:
            assert is_minimal(g)

    def test_nonminimal_is_maximal(self, nonminimal_f3, census_f3_d4):
        space, f = nonminimal_f3
        for h in census_f3_d4.elements:
            if h != f and less_equal(f, h):
                pytest.fail("non-minimal isometry below %r" % (h,))

    def test_overspace_family(self, nonminimal_f3):
        space, f = nonminimal_f3
        mov = moved_space(f)
        family = codimension_one_overspaces(f)
        assert family
        for W in family:
            assert mov.is_contained_in(W)
            assert W.dim == mov.dim + 1
            assert not space.is_totally_singular(W)


class TestInterval:
    def test_identity_interval(self, f3):
        space = diagonal_space(f3, [1, 1])
        poset = interval(space.identity_isometry())
        assert len(poset) == 1

    def test_reflection_interval_is_chain(self, f3):
        space = diagonal_space(f3, [1, 1])
        poset = interval(space.reflection((1, 0)))
        assert len(poset) == 2
        assert poset.covers == ((0, 1),)

    def test_rotation_interval_is_diamond(self, census_f3_d2):
        space = census_f3_d2.space
        from wallfact import Isometry
        f = Isometry(space, [[0, -1], [1, 0]])
        poset = interval(f)
        assert len(poset) == 6           # id, four reflections, f
        assert [poset.rank.count(k) for k in range(3)] == [1, 4, 1]
        report = interval_is_graded_check(poset)
        assert report.ok, report.failing()

    def test_minimal_interval_matches_census(self, census_f3_d3, rng):
        census = census_f3_d3
        for f in rng.sample(list(census.elements), 6):
            if not is_minimal(f):
                continue
            poset = interval(f)
            expected = {g.key() for g in brute_force_interval(census, f)}
            assert {g.key() for g in poset.elements} == expected

    def test_nonminimal_interval_matches_census(self, nonminimal_f3, census_f3_d4):
        space, f = nonminimal_f3
        poset = interval(f)
        expected = {g.key() for g in brute_force_interval(census_f3_d4, f)}
        assert {g.key() for g in poset.elements} == expected
        assert poset.blocks
        report = interval_is_graded_check(poset)
        assert report.ok, report.failing()

    def test_nonminimal_blocks_partition_open_interval(self, nonminimal_f3):
        space, f = nonminimal_f3
        poset = interval(f)
        covered = set()
        for _, members in poset.blocks:
            for i in members:
                assert i not in covered
                covered.add(i)
        boundary = {0, len(poset) - 1}
        assert covered | boundary == set(range(len(poset)))

    def test_rationals_rejected(self):
        space = diagonal_space(QQ, [1, 1])
        with pytest.raises(TypeError):
            interval(space.identity_isometry())


def shortest_word_counts(census):
    """Number of shortest reflection words of each element, by BFS levels.

    The census lists its elements in BFS order, so an element's count is
    complete before any word is extended past it.
    """
    counts = {census.identity().key(): 1}
    for g in census.elements:
        d = census.length_of(g)
        for _, r in census.reflections:
            h = g @ r
            if census.length_of(h) == d + 1:
                counts[h.key()] = counts.get(h.key(), 0) + counts[g.key()]
    return counts


def assert_order_is_pairwise_definition(poset):
    elements = poset.elements
    n = len(elements)
    for i in range(n):
        for j in range(n):
            assert poset.leq[i][j] == less_equal(elements[i], elements[j]), (i, j)
    expected_covers = tuple((i, j) for i in range(n) for j in range(n)
                            if poset.leq[i][j] and poset.rank[j] == poset.rank[i] + 1)
    assert poset.covers == expected_covers


@pytest.fixture(scope="module")
def nonminimal_poset(nonminimal_f3):
    return interval(nonminimal_f3[1])


class TestOrderFromCovers:
    """The closure of the covers against the pairwise definition of <=."""

    def test_every_interval_of_o3_f3(self, census_f3_d3):
        for f in census_f3_d3.elements:
            assert_order_is_pairwise_definition(interval(f))

    def test_nonminimal_interval(self, nonminimal_poset):
        assert len(nonminimal_poset) == 94
        assert_order_is_pairwise_definition(nonminimal_poset)


class TestMaximalChainCount:
    """Maximal chains of [id, f] are the minimal reflection factorizations of f."""

    def test_every_element_of_o3_f3(self, census_f3_d3):
        words = shortest_word_counts(census_f3_d3)
        for f in census_f3_d3.elements:
            assert interval(f).maximal_chain_count() == words[f.key()]

    def test_nonminimal_interval(self, nonminimal_poset, census_f3_d4):
        f = nonminimal_poset.isometry
        count = nonminimal_poset.maximal_chain_count()
        assert count == shortest_word_counts(census_f3_d4)[f.key()]
        assert count == 216

    def test_small_cases(self, f3, census_f3_d2):
        space = diagonal_space(f3, [1, 1])
        assert interval(space.identity_isometry()).maximal_chain_count() == 1
        assert interval(space.reflection((1, 0))).maximal_chain_count() == 1
        from wallfact import Isometry
        rotation = Isometry(census_f3_d2.space, [[0, -1], [1, 0]])
        assert interval(rotation).maximal_chain_count() == 4


class TestExports:
    def test_dot_and_json(self, f3):
        space = diagonal_space(f3, [1, 1])
        poset = interval(space.reflection((1, 0)))
        dot = poset.to_dot()
        assert dot.startswith("digraph") and "->" in dot
        data = poset.to_json_dict()
        assert data["covers"] == [[0, 1]]
        assert len(data["elements"]) == 2


def reference_ranks_and_covers(f):
    """Elements, ranks and covers of [id, f] by the recipe that ranks came
    from the construction to replace: one length per element, and one length
    of g^-1 h per pair one rank apart."""
    ranked = sorted(((reflection_length(g), _sort_key(g), g) for g in interval(f).elements),
                    key=lambda t: t[:2])
    ranks = tuple(r for r, _, _ in ranked)
    elements = tuple(g for _, _, g in ranked)
    covers = tuple((i, j) for i, g in enumerate(elements) for j, h in enumerate(elements)
                   if ranks[j] == ranks[i] + 1 and reflection_length(g.inverse() @ h) == 1)
    return elements, ranks, covers


def assert_interval_matches_reference(f):
    poset = interval(f)
    assert (poset.elements, poset.rank, poset.covers) == reference_ranks_and_covers(f)


class TestIntervalAgainstReference:
    """Ranks from the construction and rank-one covers against lengths."""

    def test_every_minimal_element_of_o3_f3(self, census_f3_d3):
        minimal = [f for f in census_f3_d3.elements if is_minimal(f)]
        assert len(minimal) == 48
        for f in minimal:
            assert_interval_matches_reference(f)

    def test_seeded_minimal_elements_of_o3_f5(self, census_f5_d3):
        for f in random.Random(1703).sample(list(census_f5_d3.elements), 40):
            assert is_minimal(f)
            assert_interval_matches_reference(f)

    @pytest.mark.slow
    def test_every_minimal_element_of_o3_f5(self, census_f5_d3):
        assert len(census_f5_d3.elements) == 240
        for f in census_f5_d3.elements:
            assert is_minimal(f)
            assert_interval_matches_reference(f)

    def test_nonminimal_interval(self, nonminimal_f3):
        assert_interval_matches_reference(nonminimal_f3[1])


def overspaces_by_scan(f):
    """The overspaces found by scanning all p^n ambient vectors."""
    space = f.space
    mov = moved_space(f)
    found = set()
    for vec in itertools.product(list(space.field.elements()), repeat=space.dim):
        if any(vec) and not mov.contains(vec):
            W = subspace_sum(mov, Subspace(space.field, space.dim, [vec]))
            if not space.is_totally_singular(W):
                found.add(W)
    return found


class TestOverspacesFromComplement:
    def test_every_nonminimal_element_of_o4_f3(self, census_f3_d4):
        nonminimal = [f for f in census_f3_d4.elements if not is_minimal(f)]
        assert len(nonminimal) == 16
        for f in nonminimal:
            family = codimension_one_overspaces(f)
            assert len(family) == len(set(family))
            assert set(family) == overspaces_by_scan(f)


class TestSubspaceCap:
    """dim Mov(f) = 7 over F_3: 2,052,656 subspaces, over the default cap."""

    @pytest.fixture
    def minus_identity_7(self, f3):
        space = diagonal_space(f3, [1] * 7)
        return Isometry(space, Matrix.identity(f3, 7).scale(-1))

    def test_admissible_subspaces_too_large(self, minus_identity_7):
        assert is_minimal(minus_identity_7)
        with pytest.raises(TooLarge):
            admissible_subspaces(minus_identity_7)

    def test_cli_interval_exits_one(self, minus_identity_7, tmp_path, capsys):
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"field": "prime", "p": 3, "form": [
            [int(i == j) for j in range(7)] for i in range(7)]}))
        iso = tmp_path / "f.json"
        iso.write_text(json.dumps({"matrix": [[2 * (i == j) for j in range(7)]
                                              for i in range(7)]}))
        code = main(["interval", "--form", str(form), "--isometry", str(iso)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["error"] == "TooLarge"


class TestNoInversesInOrder:
    """less_equal and _build_poset invert nothing, and _build_poset
    computes no length, so neither can slide back to g^-1 h products."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"inverse": 0, "reflection_length": 0}
        real_inverse = Matrix.inverse
        real_length = factor_mod.reflection_length

        def inverse(self):
            calls["inverse"] += 1
            return real_inverse(self)

        def length(f):
            calls["reflection_length"] += 1
            return real_length(f)

        monkeypatch.setattr(Matrix, "inverse", inverse)
        monkeypatch.setattr(factor_mod, "reflection_length", length)
        monkeypatch.setattr(order_mod, "reflection_length", length)
        return calls

    @pytest.mark.parametrize("field,n", [(QQ, 8), (PrimeField(5), 4)])
    def test_less_equal(self, field, n, counts):
        rng = random.Random(1704)
        space = diagonal_space(field, [1] * (n // 2) + [-1] * (n - n // 2))
        for _ in range(5):
            f = random_isometry(space, rng, n)
            g = random_isometry(space, rng, 2)
            less_equal(g, f)
            less_equal(f, f)
        assert counts["inverse"] == 0

    def test_build_poset(self, nonminimal_poset, counts):
        poset = nonminimal_poset
        ranked = list(zip(poset.rank, poset.elements))
        blocks = [(W, [poset.elements[i] for i in members]) for W, members in poset.blocks]
        rebuilt = order_mod._build_poset(poset.isometry, ranked[::-1], blocks)
        assert counts == {"inverse": 0, "reflection_length": 0}
        assert rebuilt == poset


def reference_build_poset(f, ranked, blocks=None):
    """_build_poset with the cover test it replaced: the rank of the matrix
    h - g, one Matrix per pair one rank apart."""
    ranked = sorted(((r, _sort_key(g), g) for r, g in ranked), key=lambda t: t[:2])
    ranks = tuple(r for r, _, _ in ranked)
    elements = tuple(g for _, _, g in ranked)
    covers, below = [], []
    for j, h in enumerate(elements):
        bits = 1 << j
        for i in range(bisect_left(ranks, ranks[j] - 1), bisect_left(ranks, ranks[j])):
            if (h.matrix - elements[i].matrix).rank() == 1:
                covers.append((i, j))
                bits |= below[i]
        below.append(bits)
    leq = tuple(tuple(bool(below[j] >> i & 1) for j in range(len(elements)))
                for i in range(len(elements)))
    if blocks is not None:
        index = {g.key(): i for i, g in enumerate(elements)}
        blocks = [(W, sorted(index[g.key()] for g in members)) for W, members in blocks]
    return IntervalPoset(f, elements, leq, ranks, tuple(sorted(covers)), blocks)


def pairwise_reference_interval(f):
    """interval(f) by the rules it replaced: each element built by the
    public ``isometry_from_wall``, each non-minimal candidate ranked by its
    own ``reflection_length``, and covers by ``reference_build_poset``."""
    space = f.space
    if f.is_identity():
        return reference_build_poset(f, [(0, f)])
    wd = wall_form(f)
    if is_minimal(f):
        return reference_build_poset(f, [(U.dim, isometry_from_wall(space, U, wd.restrict(U)))
                                      for U in admissible_subspaces(f)])
    identity = space.identity_isometry()
    mov = moved_space(f)
    length = reflection_length(f)
    blocks = []
    ranked = {identity.key(): (0, identity), f.key(): (length, f)}
    for W in codimension_one_overspaces(f):
        members = []
        for U in enumerate_subspaces(W):
            if U.is_contained_in(mov):
                continue
            for g in enumerate_isometries_with_moved_space(space, U):
                rank = reflection_length(g)
                if rank + reflection_distance(g, f) == length:
                    members.append(g)
                    ranked[g.key()] = (rank, g)
        if members:
            blocks.append((W, members))
    return reference_build_poset(f, list(ranked.values()), blocks)


class TestIntervalOnResidues:
    """Covers by rank-one tests on residue rows, and candidate ranks from
    their moved space, against the rules they replaced: identical elements,
    ranks, covers, leq and blocks."""

    def test_every_element_of_o3_f3(self, census_f3_d3):
        for f in census_f3_d3.elements:
            assert interval(f) == pairwise_reference_interval(f)

    def test_every_element_of_o3_f5(self, census_f5_d3):
        for f in census_f5_d3.elements:
            assert interval(f) == pairwise_reference_interval(f)

    def test_nonminimal_elements_of_o4_f3(self, census_f3_d4):
        nonminimal = [f for f in census_f3_d4.elements if not is_minimal(f)]
        assert len(nonminimal) == 16
        for f in nonminimal:
            poset = interval(f)
            assert poset.blocks
            assert poset == pairwise_reference_interval(f)


class TestNonMinimalGramOncePerSubspace:
    """A non-minimal interval builds the polar Gram matrix of each candidate
    U once and reads both the rank and the candidates off it: the only
    total-singularity tests left are those of ``is_minimal(f)`` and of the
    overspaces."""

    def test_gram_counts(self, census_f3_d4, monkeypatch):
        from wallfact.quadspace import QuadraticSpace
        nonminimal = [f for f in census_f3_d4.elements if not is_minimal(f)]
        expected = {f.key(): sum(1 for W in codimension_one_overspaces(f)
                                 for U in enumerate_subspaces(W)
                                 if not U.is_contained_in(moved_space(f)))
                    for f in nonminimal}
        references = {f.key(): pairwise_reference_interval(f) for f in nonminimal}
        calls = {"polar": 0, "singular": 0}
        polar_gram, singular = order_mod._polar_gram, QuadraticSpace.is_totally_singular

        def counting_polar_gram(space, basis):
            calls["polar"] += 1
            return polar_gram(space, basis)

        def counting_singular(self, W):
            calls["singular"] += 1
            return singular(self, W)

        monkeypatch.setattr(order_mod, "_polar_gram", counting_polar_gram)
        monkeypatch.setattr(QuadraticSpace, "is_totally_singular", counting_singular)
        for f in nonminimal:
            calls["singular"] = 0
            is_minimal(f)
            codimension_one_overspaces(f)
            outside, calls["singular"], calls["polar"] = calls["singular"], 0, 0
            poset = interval(f)
            assert calls["polar"] == expected[f.key()] > 0
            assert calls["singular"] == outside
            assert poset == references[f.key()]
            assert poset.to_json_dict() == references[f.key()].to_json_dict()


@pytest.mark.slow
class TestIntervalAgainstO4F5Census:
    """interval(f) against the BFS lengths of O(4, F_5), diag(1, 1, 1, -1),
    past the O(4, F_3) census; deselected by default, run with -m slow."""

    def test_seeded_minimal_and_nonminimal_elements(self):
        from wallfact import enumerate_group
        space = diagonal_space(PrimeField(5), [1, 1, 1, -1])
        census = enumerate_group(space)
        assert len(census) == 28800
        rng = random.Random(5504)
        minimal = [f for f in census.elements if is_minimal(f)]
        nonminimal = [f for f in census.elements if not is_minimal(f)]
        for f in rng.sample(minimal, 5) + rng.sample(nonminimal, 5):
            poset = interval(f)
            assert ({g.key() for g in poset.elements}
                    == {g.key() for g in brute_force_interval(census, f)})
            n = len(poset)
            pairs = [(i, j) for i in range(n) for j in range(n)]
            if n > 60:
                related = [(i, j) for i, j in pairs if poset.leq[i][j]]
                pairs = rng.sample(related, min(len(related), 1500)) + rng.sample(pairs, 1500)
            for i, j in pairs:
                assert poset.leq[i][j] == less_equal(poset.elements[i], poset.elements[j])


def singular_wall_element(h):
    """f = isometry_from_wall(U, J) in diag(1^h, (-1)^h) over F_3, with
    U = span(e_i + e_{i+h}) totally singular and J the standard alternating
    form on it, [[0, I], [-I, 0]]: a non-minimal element of length h + 2."""
    F3 = PrimeField(3)
    space = diagonal_space(F3, [1] * h + [-1] * h)
    basis = [[int(j in (i, i + h)) for j in range(2 * h)] for i in range(h)]
    half = h // 2
    J = [[(j == i + half) - (i == j + half) for j in range(h)] for i in range(h)]
    return isometry_from_wall(space, Matrix(F3, basis), J)


class TestCandidateBudget:
    """Non-minimal intervals count their candidate Wall data before
    enumerating any: past the cap they raise TooLarge at once."""

    @pytest.fixture
    def no_candidates(self, monkeypatch):
        """Fail at once, rather than run for hours, if a candidate is built."""
        def refuse(*args):
            raise AssertionError("a candidate was enumerated past the cap")
        monkeypatch.setattr(order_mod, "_wall_candidates", refuse)

    @pytest.mark.parametrize("k,p", [(1, 3), (2, 3), (3, 3), (2, 5), (3, 5)])
    def test_count_is_the_enumeration(self, k, p):
        field = PrimeField(p)
        counted = sum(p ** (U.dim * (U.dim - 1) // 2)
                      for U in enumerate_subspaces(Subspace.full(field, k)))
        assert order_mod.wall_candidate_count(k, p) == counted

    def test_n8_case_is_too_large(self, no_candidates):
        f = singular_wall_element(4)
        assert not is_minimal(f) and reflection_length(f) == 6
        assert len(codimension_one_overspaces(f)) == 40
        assert 40 * order_mod.wall_candidate_count(5, 3) == 7347200
        with pytest.raises(TooLarge, match="7347200 candidate"):
            interval(f)

    def test_cli_interval_exits_one_at_once(self, no_candidates, tmp_path, capsys):
        import time
        f = singular_wall_element(4)
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"field": "prime", "p": 3, "form": [
            [(1 if i < 4 else -1) * (i == j) for j in range(8)] for i in range(8)]}))
        iso = tmp_path / "f.json"
        iso.write_text(json.dumps({"matrix": [[x.value for x in row]
                                              for row in f.matrix.entries]}))
        start = time.perf_counter()
        code = main(["interval", "--form", str(form), "--isometry", str(iso)])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["error"] == "TooLarge"
        assert elapsed < 1.0

    def test_94_element_interval_is_under_the_cap(self, nonminimal_f3, no_candidates):
        f = nonminimal_f3[1]
        assert len(codimension_one_overspaces(f)) * order_mod.wall_candidate_count(3, 3) < 10 ** 6
        with pytest.raises(TooLarge):
            interval(f, cap=100)


class TestOneRestrictionPerSubspace:
    """The minimal branch of ``interval`` restricts the Wall form once per
    admissible U, and builds the element from that same restriction."""

    def test_restriction_count(self, monkeypatch):
        import wallfact.wall as wall_mod
        space = diagonal_space(PrimeField(3), [1, 1, -1, -1])
        f = space.reflection([1, 0, 0, 0]) @ space.reflection([0, 1, 0, 0]) @ \
            space.reflection([0, 0, 1, 0])
        assert is_minimal(f)
        calls = []
        real = wall_mod.WallData.restrict

        def restrict(self, U):
            calls.append(U)
            return real(self, U)

        monkeypatch.setattr(wall_mod.WallData, "restrict", restrict)
        poset = interval(f)
        assert len(poset) == 20
        assert len(calls) == 20          # one per admissible U, that is per element
        assert sorted(map(_sort_key, poset.elements)) == sorted(
            _sort_key(isometry_from_wall(space, U, real(wall_form(f), U)))
            for U in admissible_subspaces(f))
