"""Brute-force ground truth over small finite fields.

The whole orthogonal group is generated from the identity by BFS under the
reflection generators, recording the word length of every element.  This is
the independent yardstick the structural formulas are tested against:
lengths, the spinor homomorphism, the Wall bijection, and interval
membership.  A second, even dumber oracle enumerates all matrices column by
column with form-preservation constraints.

The BFS never multiplies matrices.  Left multiplication by a reflection r
acts on each column separately, (r g)[:, j] = r (g[:, j]), and v -> r v is a
bijection of F_p^n.  So while the search runs an element is the tuple of its
n column codes (a column as a base-p integer), and r g is n lookups in a
table of r's action on codes, filled as columns are met.  Boxed
``Isometry`` objects are built once per element when the search ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import PrimeField
from .linalg import Matrix, TooLarge
from .order import admissible_subspaces, less_equal
from .quadspace import Isometry
from .wall import isometry_from_wall, moved_space, spinor_norm, wall_form

DEFAULT_GROUP_CAP = 10 ** 5


def projective_vectors(space):
    """One representative per line of the coordinate space: leading entry 1."""
    import itertools

    field = space.field
    scalars = list(field.elements())
    n = space.dim
    for lead in range(n):
        prefix = [field.zero] * lead + [field.one]
        for tail in itertools.product(scalars, repeat=n - lead - 1):
            yield tuple(prefix) + tail


def reflection_generators(space):
    """All reflections of the space, keyed by normalized reflecting vector."""
    out = []
    for v in projective_vectors(space):
        if space.q_value(v):
            out.append((v, space.reflection(v)))
    return out


@dataclass
class GroupCensus:
    """The full orthogonal group of a small finite quadratic space."""

    space: object
    elements: tuple
    reflections: tuple            # (vector, Isometry) pairs
    bfs_length: dict              # matrix entries -> word length

    def __len__(self):
        return len(self.elements)

    def length_of(self, f) -> int:
        return self.bfs_length[f.key()]

    def contains(self, f) -> bool:
        return f.key() in self.bfs_length

    def identity(self) -> Isometry:
        return Isometry.identity(self.space)


def enumerate_group(space, cap=DEFAULT_GROUP_CAP) -> GroupCensus:
    """BFS closure of the reflections; records word lengths from the identity.

    Column permutation is exact.  Column j of r g is r times column j of g,
    and v -> r v permutes F_p^n, so left multiplication by r applies one
    permutation to each column code; the base-p code is a bijection of F_p^n
    onto [0, p^n), so two elements have equal code tuples exactly when they
    are equal matrices.  Elements and generators are visited in the order of
    the search by products ``r @ g`` keyed by ``key()``, so ``elements`` and
    ``bfs_length`` are the ones that search finds.

    Each reflection's table is filled on first lookup, so it holds only the
    distinct columns of the elements it multiplied: at most n |G| codes, and
    at most the vectors v with Q(v) among the Q(e_j), since an isometry
    keeps Q(g e_j) = Q(e_j).  There is never an eager p^n table.  Raises
    TooLarge once more than ``cap`` elements are found.
    """
    field = space.field
    if not isinstance(field, PrimeField):
        raise TypeError("group enumeration needs a finite field")
    gens = reflection_generators(space)
    gens.sort(key=lambda pair: tuple(str(x) for x in pair[0]))
    p, n = field.p, space.dim
    tables = [_ColumnImages(r, p) for _, r in gens]
    identity = tuple(p ** (n - 1 - j) for j in range(n))    # codes of e_0 .. e_{n-1}
    lengths = {identity: 0}
    order = [identity]
    for g in order:                 # the list grows behind the cursor: it is the queue
        d = lengths[g] + 1
        for table in tables:
            h = tuple(map(table.__getitem__, g))
            if h not in lengths:
                lengths[h] = d
                order.append(h)
                if len(order) > cap:
                    raise TooLarge("group exceeds the cap of %d elements" % cap)
    columns = {}                    # code -> the column as a tuple of Fp
    box = field.residues
    elements = []
    bfs_length = {}
    for g in order:
        cols = []
        for code in g:
            col = columns.get(code)
            if col is None:
                col = columns[code] = tuple(box[x] for x in _digits(code, p, n))
            cols.append(col)
        f = Isometry(space, Matrix._of(field, tuple(zip(*cols)), n), _checked=True)
        elements.append(f)
        bfs_length[f.key()] = lengths[g]
    return GroupCensus(space, tuple(elements), tuple(gens), bfs_length)


def _digits(code, p, n):
    """The residue vector of length n whose base-p code is ``code``."""
    v = [0] * n
    for i in range(n - 1, -1, -1):
        code, v[i] = divmod(code, p)
    return v


class _ColumnImages(dict):
    """Code of r v for the code of a column v, for one reflection r.

    Filled on first lookup of each code (``__missing__``), so its size is
    the number of distinct columns the search multiplied by r.
    """

    __slots__ = ("rows", "p")

    def __init__(self, r, p):
        super().__init__()
        self.rows = [[x.value for x in row] for row in r.matrix.entries]
        self.p = p

    def __missing__(self, code):
        p = self.p
        v = _digits(code, p, len(self.rows))
        image = 0
        for row in self.rows:
            image = image * p + sum(a * b for a, b in zip(row, v)) % p
        self[code] = image
        return image


def exhaustive_isometries(space):
    """Every matrix preserving the form, found column by column.

    Independent of the reflection machinery: column j must satisfy
    c_i^T S c_j = S[i][j] against all previous columns and itself.  Only
    meant for very small spaces.
    """
    import itertools

    field = space.field
    n = space.dim
    S = space.gram
    scalars = list(field.elements())
    vectors = [v for v in itertools.product(scalars, repeat=n)]
    svecs = [S.apply(v) for v in vectors]

    def inner(i, j):
        acc = field.zero
        for a, b in zip(vectors[i], svecs[j]):
            acc = acc + a * b
        return acc

    results = []

    def extend(cols):
        j = len(cols)
        if j == n:
            results.append(Matrix(field, list(zip(*[vectors[c] for c in cols])), cols=n))
            return
        for idx in range(len(vectors)):
            if inner(idx, idx) != S[j, j]:
                continue
            if any(inner(c, idx) != S[i, j] for i, c in enumerate(cols)):
                continue
            extend(cols + [idx])

    extend([])
    out = []
    for M in results:
        if M.rank() == n:
            out.append(Isometry(space, M, _checked=True))
    return out


# ---------------------------------------------------------------------------
# verification reports

@dataclass
class VerificationReport:
    name: str
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations

    def to_json_dict(self):
        return {"name": self.name, "checked": self.checked,
                "violations": len(self.violations),
                "witnesses": [str(w) for w in self.violations[:5]]}


def verify_length_formula(census) -> VerificationReport:
    """BFS distance against dim Mov(f) (+2 when Mov(f) is totally singular)."""
    space = census.space
    violations = []
    for f in census.elements:
        mov = moved_space(f)
        if f.is_identity():
            expected = 0
        elif space.is_totally_singular(mov):
            expected = mov.dim + 2
        else:
            expected = mov.dim
        if census.length_of(f) != expected:
            violations.append((f.key(), census.length_of(f), expected))
    return VerificationReport("length_formula", len(census.elements), violations)


def verify_spinor_homomorphism(census) -> VerificationReport:
    """theta(fg) = theta(f) theta(g) over all pairs of the census."""
    norms = {}
    for f in census.elements:
        norms[f.key()] = spinor_norm(f)
    violations = []
    checked = 0
    for f in census.elements:
        for g in census.elements:
            checked += 1
            fg = f @ g
            if norms[fg.key()] != norms[f.key()] * norms[g.key()]:
                violations.append((f.key(), g.key()))
    return VerificationReport("spinor_homomorphism", checked, violations)


def verify_wall_bijection(census, surjectivity=True) -> VerificationReport:
    """Round-trip f -> (Mov, chi) -> f on every element.

    With surjectivity=True additionally enumerates every admissible pair
    (W, chi) over the whole space and checks the pairs biject onto the
    group.
    """
    from .linalg import Subspace, enumerate_subspaces
    from .wall import enumerate_isometries_with_moved_space

    space = census.space
    violations = []
    checked = 0
    for f in census.elements:
        checked += 1
        wd = wall_form(f)
        g = isometry_from_wall(space, wd.subspace, wd.chi)
        if g != f:
            violations.append(("round_trip", f.key()))
    if surjectivity:
        seen = set()
        full = Subspace.full(space.field, space.dim)
        for W in enumerate_subspaces(full):
            for g in enumerate_isometries_with_moved_space(space, W):
                checked += 1
                k = g.key()
                if k in seen:
                    violations.append(("pair_collision", k))
                seen.add(k)
                if not census.contains(g):
                    violations.append(("outside_group", k))
                if moved_space(g) != W:
                    violations.append(("moved_space_mismatch", k))
        if len(seen) != len(census):
            violations.append(("pair_count", len(seen), len(census)))
    return VerificationReport("wall_bijection", checked, violations)


def brute_force_interval(census, f):
    """{g : l(g) + l(g^-1 f) = l(f)} straight from the BFS lengths."""
    lf = census.length_of(f)
    out = []
    for g in census.elements:
        if census.length_of(g) + census.length_of(g.inverse() @ f) == lf:
            out.append(g)
    return out


def verify_intervals(census, f) -> VerificationReport:
    """Definition-based interval against the admissible-subspace image (minimal f)."""
    space = census.space
    wd = wall_form(f)
    image_keys = set()
    for U in admissible_subspaces(f):
        g = isometry_from_wall(space, U, wd.restrict(U))
        image_keys.add(g.key())
    defn_keys = {g.key() for g in brute_force_interval(census, f)}
    violations = []
    for k in defn_keys - image_keys:
        violations.append(("missing_from_image", k))
    for k in image_keys - defn_keys:
        violations.append(("extra_in_image", k))
    return VerificationReport("intervals", len(defn_keys) + len(image_keys), violations)


def verify_all(census, intervals_for_minimal=True) -> list:
    """Run every verification; interval checks cover each minimal element."""
    from .factor import is_minimal

    reports = [
        verify_length_formula(census),
        verify_spinor_homomorphism(census),
        verify_wall_bijection(census, surjectivity=len(census) <= 64),
    ]
    if intervals_for_minimal:
        merged = VerificationReport("intervals", 0, [])
        for f in census.elements:
            if is_minimal(f):
                r = verify_intervals(census, f)
                merged.checked += r.checked
                merged.violations.extend(r.violations)
        reports.append(merged)
    return reports


def verify_order_against_lengths(census, f) -> VerificationReport:
    """less_equal agrees with the BFS-length comparison for all g."""
    violations = []
    for g in census.elements:
        by_bfs = (census.length_of(g) +
                  census.length_of(g.inverse() @ f) == census.length_of(f))
        if by_bfs != less_equal(g, f):
            violations.append((g.key(), f.key()))
    return VerificationReport("order_against_lengths", len(census.elements), violations)


# ---------------------------------------------------------------------------
# census cache

CENSUS_FORMAT_VERSION = 2      # files without a version predate it and are recomputed


def census_cache_key(space):
    """Stable key for a census file: format version, characteristic and a
    form digest.  A file whose key differs in any field is recomputed."""
    import hashlib

    payload = repr((space.field.p, tuple(tuple(x.value for x in row)
                                         for row in space.gram.entries)))
    return {"version": CENSUS_FORMAT_VERSION, "p": space.field.p,
            "form_hash": hashlib.sha256(payload.encode()).hexdigest()}


def save_census(census, path):
    import json

    data = census_cache_key(census.space)
    data["elements"] = [[[x.value for x in row] for row in f.matrix.entries]
                        for f in census.elements]
    data["lengths"] = [census.length_of(f) for f in census.elements]
    with open(path, "w") as handle:
        json.dump(data, handle)


def load_census(space, path):
    """Rebuild a census from a cache file; None when the key does not match,
    including a file of another format version or of none."""
    import json
    import os

    if not os.path.exists(path):
        return None
    with open(path) as handle:
        data = json.load(handle)
    key = census_cache_key(space)
    if any(data.get(name) != value for name, value in key.items()):
        return None
    elements = tuple(Isometry(space, rows) for rows in data["elements"])
    lengths = {f.key(): d for f, d in zip(elements, data["lengths"])}
    gens = reflection_generators(space)
    gens.sort(key=lambda pair: tuple(str(x) for x in pair[0]))
    return GroupCensus(space, elements, tuple(gens), lengths)
