"""The reflection-length partial order on the orthogonal group.

g <= f means the lengths add up: l(f) = l(g) + l(g^-1 f), with each length
from ``factor.reflection_distance``, so no comparison inverts or multiplies.
For a minimal f the interval [id, f] is in order-preserving bijection with
the admissible subspaces of Mov(f); for a non-minimal f the open interval
splits into disjoint blocks indexed by the not-totally-singular overspaces
of Mov(f) of one dimension more.  Those overspaces are Mov(f) + L for the
lines L of the complement spanned by the standard basis vectors off the
pivot columns of Mov(f), one per line of V/Mov(f).  Intervals are
materialized over finite fields only; over the rationals the module exposes
just the comparison predicate.

A materialized interval is built from its covers, not from pairwise
comparisons.  h covers g when l(h) = l(g) + 1 and rank(h - g) = 1, and the
order is the reflexive-transitive closure of the covers (see
``_build_poset``).  The rank test runs on the residue rows of the two
elements, read once per element, with no matrix built per pair
(``linalg._rank_one_mod``): take the first nonzero row l of h - g and its
lead column c; the rank is one exactly when every other row r satisfies
l_c r_k - r_c l_k = 0 mod p for all k, that is r = (r_c / l_c) l.
``less_equal`` keeps the pairwise definition; the tests use it as the
oracle for the whole order.  Minimal factorizations of f are the maximal
chains of [id, f], so ``IntervalPoset.maximal_chain_count`` counts them.

Each element is ranked by its construction, never by a length
computation.  For a minimal f the image of an admissible U has rank
dim U.  For a non-minimal f every candidate below f comes from
``wall.enumerate_isometries_with_moved_space(space, U)`` for a subspace U
of an overspace W not inside Mov(f), so U != 0, and every candidate g has
Mov(g) = U.  By the length formula l(g) = dim Mov(g), plus 2 when Mov(g)
is totally singular (``factor``), every candidate for U has length
dim U + 2 when U is totally singular and dim U otherwise.  That is decided
once per U, off the polar Gram matrix (U B) U^T that the enumeration
builds anyway (``wall._polar_gram``): in char != 2, Q vanishes on U
exactly when beta does.  The filter l(g) + l(g^-1 f) = l(f) then needs
only ``reflection_distance(g, f)`` per candidate.

Subspaces stay on kernel rows throughout.  ``enumerate_subspaces`` maps
each echelon pattern into Mov(f), or into an overspace W, by one product
with its basis matrix.  The restriction chi_f|_U, the chi-complement of U
and the test that a candidate U lies inside Mov(f) all take the
coordinates of U's whole basis matrix at once, read off the pivot columns
of the larger basis and checked by one product (``Subspace._coordinates``).

The candidates are counted before any is built.  A subspace U of W of
dimension k carries p^(k(k-1)/2) candidate Wall forms (the strictly upper
entries of chi are free), so the overspaces give
(number of overspaces) * sum_k [dim W, k]_p p^(k(k-1)/2) candidates
(``wall_candidate_count``), and past the cap ``interval`` raises TooLarge
before it enumerates.  In diag(1^4, (-1)^4) over F_3 the element with the
totally singular Mov(f) = span(e_i + e_(i+4)) and the standard alternating
chi has 40 overspaces of dimension 5 and 7,347,200 candidates, past the
default cap of 10^6.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .factor import is_minimal, reflection_distance, reflection_length
from .field import PrimeField
from .linalg import (DEFAULT_SUBSPACE_CAP, Subspace, TooLarge, _rank_one_mod,
                     enumerate_subspaces, gaussian_binomial, projective_points, subspace_sum)
from .quadspace import Isometry
from .wall import (CheckReport, _from_admissible, _polar_gram, _wall_candidates, moved_space,
                   wall_form)


def less_equal(g, f) -> bool:
    """Whether g precedes f: l(g) + l(g^-1 f) = l(f)."""
    return reflection_length(g) + reflection_distance(g, f) == reflection_length(f)


def admissible_subspaces(f, cap=DEFAULT_SUBSPACE_CAP):
    """Subspaces U of Mov(f) corresponding to the interval below a minimal f.

    U qualifies when (i) U is zero or not totally singular, (ii) the right
    chi-complement of U is zero or not totally singular, and (iii) the Wall
    form of f restricts non-degenerately to U.
    """
    if not isinstance(f.space.field, PrimeField):
        raise TypeError("admissible subspaces are enumerated over finite fields only")
    if not is_minimal(f):
        raise ValueError("admissible subspaces are defined for minimal isometries")
    return [U for U, _ in _admissible_restrictions(wall_form(f), cap)]


def _admissible_restrictions(wd, cap):
    """(U, wd.restrict(U)) for the admissible subspaces U of a minimal
    isometry over F_p with Wall form wd: one restriction per U, shared by
    the non-degeneracy test (iii) and the caller."""
    space = wd.space
    for U in enumerate_subspaces(wd.subspace, cap):
        if U.dim and space.is_totally_singular(U):
            continue
        comp = wd.right_complement(U)
        if comp.dim and space.is_totally_singular(comp):
            continue
        chi = wd.restrict(U)
        if U.dim and not chi.det():
            continue
        yield U, chi


@dataclass
class IntervalPoset:
    """A materialized interval [id, f] with its order relation.

    elements[0] is the identity and elements[-1] is f; elements are sorted
    by rank, then by entries.  rank is the reflection length.  covers lists
    the pairs (i, j), in increasing order, with elements[i] <= elements[j]
    and rank[j] == rank[i] + 1.  blocks is the non-minimal partition of the
    open interval (None when f is minimal): a list of (overspace, element
    index list) pairs with no order relations across blocks.
    """

    isometry: Isometry
    elements: tuple
    leq: tuple          # leq[i][j] is True when elements[i] <= elements[j]
    rank: tuple
    covers: tuple
    blocks: list | None = None

    def __len__(self):
        return len(self.elements)

    def maximal_chain_count(self) -> int:
        """Number of maximal chains id = g_0 < g_1 < ... < g_k = f.

        Each chain gives the minimal reflection factorization
        f = (g_0^-1 g_1)(g_1^-1 g_2)...(g_{k-1}^-1 g_k), and each minimal
        factorization r_1...r_k gives the chain of its prefixes, so this is
        the number of minimal reflection factorizations of f.  Covers are
        sorted by their lower end, which precedes their upper end, so every
        count is complete before it is passed on.
        """
        chains = [0] * len(self.elements)
        chains[0] = 1
        for i, j in self.covers:
            chains[j] += chains[i]
        return chains[-1]

    def to_json_dict(self):
        return {
            "elements": [[[str(x) for x in row] for row in g.matrix.entries]
                         for g in self.elements],
            "ranks": list(self.rank),
            "covers": [list(c) for c in self.covers],
        }

    def to_dot(self):
        lines = ["digraph interval {", "  rankdir=BT;"]
        for i, g in enumerate(self.elements):
            label = "id" if g.is_identity() else "g%d (rank %d)" % (i, self.rank[i])
            lines.append('  n%d [label="%s"];' % (i, label))
        for i, j in self.covers:
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)


def _sort_key(g):
    return tuple(tuple(str(x) for x in row) for row in g.matrix.entries)


def _build_poset(f, ranked, blocks=None):
    """The poset on the elements of [id, f], from covers and their closure.

    ranked holds (rank, element) pairs.  Only pairs one rank apart are
    tested: (i, j) is a cover when rank(elements[j] - elements[i]) = 1,
    decided on the residue rows of the two elements, read once per element,
    by ``linalg._rank_one_mod`` with no matrix built per pair.  The
    order is the reflexive-transitive closure of the covers, kept as one
    bitset per element of the elements below it, filled in rank order from
    the bitsets of its lower covers.

    The cover test is exact: g^-1 h is a reflection iff dim Mov(g^-1 h) = 1,
    because a totally singular moved space carries a non-degenerate
    alternating chi (chi(u, u) = Q(u) = 0) and so has even dimension; and
    dim Mov(g^-1 h) = rank(id - g^-1 h) = rank(g - h), g being invertible.
    The closure is exact too.  A chain of covers gives a relation, since <=
    is transitive: l(c) <= l(a) + l(a^-1 c) <= l(a) + l(a^-1 b) + l(b^-1 c)
    = l(c) when a <= b <= c.  Conversely take g <= h in [id, f], and write
    g^-1 h = r_1...r_k with k = l(g^-1 h) = l(h) - l(g).  Then
    g_i = g r_1...r_i has l(g_i) <= l(g) + i and l(g_i^-1 h) <= k - i, and
    both are equalities since l(h) <= l(g_i) + l(g_i^-1 h).  So
    g <= g_i <= h, each g_i lies in [g, h], which lies in [id, f], and
    g_{i-1}^-1 g_i = r_i: the materialized interval holds the chain of
    covers g = g_0, g_1, ..., g_k = h.
    """
    ranked = sorted(((r, _sort_key(g), g) for r, g in ranked), key=lambda t: t[:2])
    ranks = tuple(r for r, _, _ in ranked)
    elements = tuple(g for _, _, g in ranked)
    p = f.space.field.p
    residues = [g.matrix._int_form()[0] for g in elements]
    covers = []
    below = []              # below[j] has bit i set when elements[i] <= elements[j]
    for j, h in enumerate(residues):
        bits = 1 << j
        for i in range(bisect_left(ranks, ranks[j] - 1), bisect_left(ranks, ranks[j])):
            if _rank_one_mod(p, h, residues[i]):
                covers.append((i, j))
                bits |= below[i]
        below.append(bits)
    leq_rows = tuple(tuple(bool(below[j] >> i & 1) for j in range(len(elements)))
                     for i in range(len(elements)))
    if blocks is not None:
        index = {g.key(): i for i, g in enumerate(elements)}
        blocks = [(W, sorted(index[g.key()] for g in members)) for W, members in blocks]
    return IntervalPoset(f, elements, leq_rows, ranks, tuple(sorted(covers)), blocks)


def codimension_one_overspaces(f):
    """Not-totally-singular W with Mov(f) inside W of codimension one,
    one per line of the complement off the pivot columns of Mov(f)."""
    space = f.space
    field, n = space.field, space.dim
    mov = moved_space(f)
    free = [c for c in range(n) if c not in mov._pivots]
    out = []
    for point in projective_points(field, len(free)):
        line = dict(zip(free, point))
        vec = [line.get(c, field.zero) for c in range(n)]
        W = subspace_sum(mov, Subspace(field, n, [vec]))
        if not space.is_totally_singular(W):
            out.append(W)
    return out


def wall_candidate_count(k, p):
    """Number of Wall data (U, chi) that ``enumerate_isometries_with_moved_space``
    tries over all subspaces U of a k-dimensional space over F_p: the
    Gaussian binomial [k, j]_p subspaces of each dimension j, times the
    p^(j(j-1)/2) choices of the strictly-upper entries of chi."""
    return sum(gaussian_binomial(k, j, p) * p ** (j * (j - 1) // 2) for j in range(k + 1))


def interval(f, cap=DEFAULT_SUBSPACE_CAP) -> IntervalPoset:
    """The interval [id, f], materialized over a finite field.

    Minimal f: the elements are the images of the admissible subspaces under
    the Wall parametrization.  Non-minimal f: {id, f} plus, for each
    codimension-one overspace W of Mov(f) that is not totally singular, the
    isometries with moved space inside W that sit strictly between id and f.
    """
    space = f.space
    if not isinstance(space.field, PrimeField):
        raise TypeError("intervals are materialized over finite fields only")
    if f.is_identity():
        return _build_poset(f, [(0, f)])
    wd = wall_form(f)
    if is_minimal(f):
        B = space.polar_matrix
        ranked = []
        for U, chi in _admissible_restrictions(wd, cap):
            basis = U.basis_matrix()
            ranked.append((U.dim, _from_admissible(space, basis, basis @ B, chi)))
        return _build_poset(f, ranked)
    identity = Isometry.identity(space)
    mov = moved_space(f)
    length = reflection_length(f)
    overspaces = codimension_one_overspaces(f)
    total = len(overspaces) * wall_candidate_count(mov.dim + 1, space.field.p)
    if total > cap:
        raise TooLarge("%d candidate isometries exceeds the cap of %d" % (total, cap))
    blocks = []
    ranked = {identity.key(): (0, identity), f.key(): (length, f)}
    for W in overspaces:
        members = []
        for U in enumerate_subspaces(W, cap):
            if U.is_contained_in(mov):
                # strict predecessors of a non-minimal f never keep their
                # moved space inside Mov(f), and neither id nor f is outside
                continue
            # every candidate has moved space U != 0, hence this length; in
            # char != 2, Q vanishes on U exactly when its polar Gram matrix does
            basis = U.basis_matrix()
            UB, bgram = _polar_gram(space, basis)
            rank = U.dim if any(map(any, bgram)) else U.dim + 2
            for g in _wall_candidates(space, basis, UB, bgram):
                if rank + reflection_distance(g, f) == length:
                    members.append(g)
                    ranked[g.key()] = (rank, g)
        if members:
            blocks.append((W, members))
    return _build_poset(f, list(ranked.values()), blocks)


def interval_is_graded_check(poset) -> CheckReport:
    """Rank and duality checks.

    Minimal intervals: rank equals dim Mov on every element.  Non-minimal
    intervals: additionally g -> g^-1 f is an order-reversing bijection of
    each block onto itself, and no order relations cross blocks.
    """
    f = poset.isometry
    checks = {}
    n = len(poset.elements)

    checks["identity_rank_zero"] = poset.rank[0] == 0 and poset.elements[0].is_identity()
    checks["covers_increase_rank"] = all(poset.rank[j] == poset.rank[i] + 1
                                         for i, j in poset.covers)
    if poset.blocks is None:
        checks["rank_is_moved_dimension"] = all(
            poset.rank[i] == moved_space(g).dim for i, g in enumerate(poset.elements))
    else:
        index = {g.key(): i for i, g in enumerate(poset.elements)}
        block_of = {}
        for b, (_, members) in enumerate(poset.blocks):
            for i in members:
                block_of[i] = b
        ok = True
        for i in range(n):
            for j in range(n):
                if i == j or not poset.leq[i][j]:
                    continue
                bi, bj = block_of.get(i), block_of.get(j)
                if bi is not None and bj is not None and bi != bj:
                    ok = False
        checks["no_cross_block_relations"] = ok

        dual_ok = True
        for _, members in poset.blocks:
            member_set = set(members)
            image = {}
            for i in members:
                h = poset.elements[i].inverse() @ f
                k = index.get(h.key())
                if k is None or k not in member_set:
                    dual_ok = False
                    break
                image[i] = k
            else:
                if set(image.values()) != member_set:
                    dual_ok = False
                for i in members:
                    for j in members:
                        if poset.leq[i][j] != poset.leq[image[j]][image[i]]:
                            dual_ok = False
        checks["blocks_self_dual"] = dual_ok
    return CheckReport.of_checks("interval_graded", checks)
