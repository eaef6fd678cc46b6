"""Brute-force ground truth over small finite fields.

The whole orthogonal group is generated from the identity by BFS under the
reflection generators, recording the word length of every element.  This is
the independent yardstick the structural formulas are tested against:
lengths, the spinor homomorphism, the Wall bijection, and interval
membership.  A second, even dumber oracle enumerates all matrices column by
column with form-preservation constraints.

The census lives on column codes.  Left multiplication by a reflection r
acts on each column separately, (r g)[:, j] = r (g[:, j]), and v -> r v is a
bijection of F_p^n.  So an element is the tuple of its n column codes (a
column as a base-p integer), r g is n lookups in a table of r's action on
codes, filled as columns are met, and word lengths are keyed by code
tuples.  The search runs one BFS level at a time: each level is split into
its n columns once, every column goes through each reflection's table in
one ``map``, and the images are zipped back into code tuples, so the
per-product work runs in C and the order of the search is that of the
element-by-element queue.  The length formula is checked on the int
residues of the columns, with dim Mov(g) read off an elimination mod p
whose state after the first j rows is shared by every element with the
same first j column codes (``linalg._echelon_step_mod``).  The census cache
(format 3) stores the codes.  Boxed ``Isometry`` objects are built once per
element, only when a caller asks for ``GroupCensus.elements``, and the
reflections on first use of ``GroupCensus.reflections``.

Loading a cache file checks every element against the form on a pair
table: G v mod p is kept per column code and v_i^T G v_j mod p per
distinct pair of codes, and each element compares the values of its pairs
with G[i][j] at their positions (i <= j for a symmetric G).  A group has
few distinct columns, so few distinct pairs: O(4, F_3) has about 600,
against n^3 products per element for a direct check.  The file must also
hold each element of the group once, as many as the closed-form
``group_order``, with one non-negative int length each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse
from operator import mul

from .factor import is_minimal
from .field import PrimeField
from .linalg import (DEFAULT_SUBSPACE_CAP, Matrix, TooLarge, _echelon_step_mod, _is_symmetric,
                     _reflection_product_mod, projective_points)
from .order import _admissible_restrictions, less_equal
from .quadspace import Isometry, NotIsometry
from .wall import CheckReport, isometry_from_wall, moved_space, spinor_norm, wall_form

DEFAULT_GROUP_CAP = 10 ** 5


def reflection_generators(space):
    """All reflections of the space as (vector, Isometry) pairs, one per
    line, in the order the BFS applies them."""
    return [(v, space.reflection(v)) for v in _generator_points(space)]


def _generator_points(space):
    """One vector per line with Q(v) != 0, in the order the BFS applies their
    reflections."""
    points = [v for v in projective_points(space.field, space.dim) if space.q_value(v)]
    points.sort(key=lambda v: tuple(str(x) for x in v))
    return points


@dataclass
class GroupCensus:
    """The full orthogonal group of a small finite quadratic space, as the
    column codes of its elements and their word lengths."""

    space: object
    codes: tuple                  # code tuples, in the order the BFS found them
    lengths: dict                 # code tuple -> word length

    def __len__(self):
        return len(self.codes)

    @cached_property
    def elements(self) -> tuple:
        """The boxed isometries, in the order of ``codes``; built on first use."""
        columns = {}
        return tuple(_boxed(self.space, g, columns) for g in self.codes)

    @cached_property
    def reflections(self) -> tuple:
        """The (vector, Isometry) generators; built on first use."""
        return tuple(reflection_generators(self.space))

    def _codes_of(self, f):
        """The column codes of f, read off its residue rows (an isometry of
        another dimension gets a tuple of another length, which no key has)."""
        p = self.space.field.p
        rows = f.matrix._int_form()[0]
        codes = [0] * len(rows)
        for row in rows:
            codes = [c * p + x for c, x in zip(codes, row)]
        return tuple(codes)

    def length_of(self, f) -> int:
        return self.lengths[self._codes_of(f)]

    def contains(self, f) -> bool:
        return self._codes_of(f) in self.lengths

    def identity(self) -> Isometry:
        return Isometry.identity(self.space)


def group_order(space) -> int:
    """|O(n, F_p)| of the space, from its closed form (p odd):

        n = 2m + 1:  2 p^(m^2) prod_{i=1..m} (p^(2i) - 1)
        n = 2m > 0:  2 p^(m(m-1)) (p^m - e) prod_{i=1..m-1} (p^(2i) - 1)

    with e the Legendre symbol of (-1)^m det G mod p (e = +1 for the split
    form).  The reflections generate O(n, F_p) (Cartan-Dieudonne), so this
    is the size of the census ``enumerate_group`` finds.
    """
    p, n = space.field.p, space.dim
    if not n:
        return 1
    m = n // 2
    if n % 2:
        order = 2 * p ** (m * m)
    else:
        e = 1 if space.field.is_square((-1) ** m * space.gram.det()) else -1
        order = 2 * p ** (m * (m - 1)) * (p ** m - e)
        m -= 1
    for i in range(1, m + 1):
        order *= p ** (2 * i) - 1
    return order


def check_group_cap(space, cap):
    """Raise TypeError off a finite field and TooLarge when
    ``group_order(space)`` exceeds ``cap``."""
    if not isinstance(space.field, PrimeField):
        raise TypeError("group enumeration needs a finite field")
    if group_order(space) > cap:
        raise TooLarge("group exceeds the cap of %d elements" % cap)


def enumerate_group(space, cap=DEFAULT_GROUP_CAP) -> GroupCensus:
    """BFS closure of the reflections; records word lengths from the identity.

    Column permutation is exact.  Column j of r g is r times column j of g,
    and v -> r v permutes F_p^n, so left multiplication by r applies one
    permutation to each column code; the base-p code is a bijection of F_p^n
    onto [0, p^n), so two elements have equal code tuples exactly when they
    are equal matrices.  Elements and generators are visited in the order of
    the search by products ``r @ g`` keyed by ``key()``, so ``codes`` and
    ``lengths`` are the ones that search finds.

    The queue is worked one level (one word length d) at a time.  The level
    is transposed into its n columns once; for each reflection the columns
    are mapped through its table and zipped back into code tuples, and the
    images are interleaved element-major (element by element, reflections
    in order within each), the (g, r) order of a FIFO queue.  They are
    deduplicated in that order by ``dict.fromkeys``, and the codes already
    in ``lengths`` dropped; what is left is level d + 1 in the order the
    queue would append it.  Everything is consumed lazily, so the tables
    see their lookups, and fill, in the queue's order too, and the
    candidates held at once are distinct elements of the group.

    Each reflection's table is filled on first lookup, so it holds only the
    distinct columns of the elements it multiplied: at most n |G| codes, and
    at most the vectors v with Q(v) among the Q(e_j), since an isometry
    keeps Q(g e_j) = Q(e_j).  There is never an eager p^n table, and no
    matrix is boxed.  Raises TooLarge when ``group_order(space)`` exceeds
    ``cap``, before any point is listed: listing the lines alone takes
    (p^n - 1)/(p - 1) steps.
    """
    check_group_cap(space, cap)
    p, n = space.field.p, space.dim
    polar = space.polar_matrix._int_form()[0]
    tables = [_ColumnImages(_reflection_product_mod(p, polar, [[x.value for x in v]]), p)
              for v in _generator_points(space)]
    identity = tuple(p ** (n - 1 - j) for j in range(n))    # codes of e_0 .. e_{n-1}
    lengths = {identity: 0}
    order = [identity]
    level, d = [identity], 0
    while level:
        d += 1
        columns = tuple(zip(*level))
        images = [zip(*[map(table.__getitem__, col) for col in columns]) for table in tables]
        candidates = dict.fromkeys(chain.from_iterable(zip(*images)))
        level = list(filterfalse(lengths.__contains__, candidates))
        lengths.update(dict.fromkeys(level, d))
        order += level
    return GroupCensus(space, tuple(order), lengths)


def _digits(code, p, n):
    """The residue vector of length n whose base-p code is ``code``."""
    v = [0] * n
    for i in range(n - 1, -1, -1):
        code, v[i] = divmod(code, p)
    return v


def _boxed(space, g, columns):
    """The Isometry whose column codes are g; ``columns`` caches each code's
    column of Fp entries across calls."""
    field, n = space.field, space.dim
    box = field.residues
    cols = []
    for code in g:
        col = columns.get(code)
        if col is None:
            col = columns[code] = tuple(box[x] for x in _digits(code, field.p, n))
        cols.append(col)
    return Isometry(space, Matrix._of(field, tuple(zip(*cols)), n), _checked=True)


class _ColumnImages(dict):
    """Code of r v for the code of a column v, for one reflection r given by
    its residue rows.

    Filled on first lookup of each code (``__missing__``), so its size is
    the number of distinct columns the search multiplied by r.
    """

    __slots__ = ("rows", "p")

    def __init__(self, rows, p):
        super().__init__()
        self.rows = rows
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

def verify_length_formula(census) -> CheckReport:
    """BFS distance against dim Mov(g) (+2 when Mov(g) is totally singular),
    for every element g, on the int residues of its columns.

    Mov(g) = im(g - I), so dim Mov(g) = rank(g - I), the rank of the n rows
    g e_j - e_j, reduced mod p one row at a time
    (``linalg._echelon_step_mod``).  Row j depends only on the j-th column
    code of g, so the echelon state after rows 0 .. j depends only on the
    prefix g[:j + 1]; the states of the prefixes of length < n are kept in
    a dict and shared by every element that starts with them, and only the
    last row is reduced once per element.  The elimination is exact and
    independent of the BFS: it reads nothing but the codes.

    Mov(g) is totally singular when Q vanishes on it, that is (char != 2)
    when the polar form does: (g - I)^T S (g - I) = 0.  As g^T S g = S,
    (g - I)^T S (g - I) = S - g^T S - S g + S = 2S - g^T S - S g, and since
    S is symmetric, (g^T S)[i][j] = (S g)[j][i].  So Mov(g) is totally
    singular exactly when (S g)[i][j] + (S g)[j][i] = 2 S[i][j] for all
    i <= j (the matrix is symmetric, so these entries decide it).  Column j
    of S g is S v for the column v = g e_j, so each distinct column code
    has its S v (and its n rows v - e_j) computed once, and the test is
    n(n + 1)/2 lookups.

    A violation is boxed into its witness (f.key(), bfs, expected).
    """
    space = census.space
    p, n = space.field.p, space.dim
    S = space.gram._int_form()[0]
    twice_s = [[2 * x % p for x in row] for row in S]
    upper = [(i, j) for j in range(n) for i in range(j + 1)]
    columns = {}                    # code -> (S v, [v - e_j for each j]) on residues
    states = {(): ()}               # code prefix g[:j] -> echelon of rows 0 .. j-1

    def column(code):
        v = _digits(code, p, n)
        col = columns[code] = ([sum(map(mul, row, v)) % p for row in S],
                               [[(x - (i == j)) % p for i, x in enumerate(v)]
                                for j in range(n)])
        return col

    violations = []
    for g in census.codes:
        cols = [columns.get(code) or column(code) for code in g]
        echelon = states.get(g[:-1])
        if echelon is None:         # first element with this prefix: fill the missing states
            echelon = ()
            for j in range(n - 1):
                prefix = g[:j + 1]
                if prefix not in states:
                    states[prefix] = _echelon_step_mod(p, echelon, cols[j][1][j])
                echelon = states[prefix]
        dim = len(_echelon_step_mod(p, echelon, cols[-1][1][-1])) if n else 0
        if not dim:
            expected = 0
        elif all((cols[j][0][i] + cols[i][0][j] - twice_s[i][j]) % p == 0 for i, j in upper):
            expected = dim + 2
        else:
            expected = dim
        bfs = census.lengths[g]
        if bfs != expected:
            violations.append((_boxed(space, g, {}).key(), bfs, expected))
    return CheckReport("length_formula", len(census.codes), violations)


def verify_spinor_homomorphism(census) -> CheckReport:
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
    return CheckReport("spinor_homomorphism", checked, violations)


def verify_wall_bijection(census, surjectivity=None) -> CheckReport:
    """Round-trip f -> (Mov, chi) -> f on every element.

    With surjectivity, by default on a census of at most 64 elements, it
    additionally enumerates every admissible pair (W, chi) over the whole
    space and checks the pairs biject onto the group.
    """
    from .linalg import Subspace, enumerate_subspaces
    from .wall import enumerate_isometries_with_moved_space

    if surjectivity is None:
        surjectivity = len(census) <= 64
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
    return CheckReport("wall_bijection", checked, violations)


def brute_force_interval(census, f):
    """{g : l(g) + l(g^-1 f) = l(f)} straight from the BFS lengths."""
    lf = census.length_of(f)
    out = []
    for g in census.elements:
        if census.length_of(g) + census.length_of(g.inverse() @ f) == lf:
            out.append(g)
    return out


def verify_intervals(census, f) -> CheckReport:
    """Definition-based interval against the admissible-subspace image (minimal f)."""
    space = census.space
    if not is_minimal(f):
        raise ValueError("admissible subspaces are defined for minimal isometries")
    image_keys = set()
    for U, chi in _admissible_restrictions(wall_form(f), DEFAULT_SUBSPACE_CAP):
        image_keys.add(isometry_from_wall(space, U, chi).key())
    defn_keys = {g.key() for g in brute_force_interval(census, f)}
    violations = []
    for k in defn_keys - image_keys:
        violations.append(("missing_from_image", k))
    for k in image_keys - defn_keys:
        violations.append(("extra_in_image", k))
    return CheckReport("intervals", len(defn_keys) + len(image_keys), violations)


def verify_minimal_intervals(census) -> CheckReport:
    """verify_intervals on every minimal element, merged into one report."""
    merged = CheckReport("intervals", 0, [])
    for f in census.elements:
        if is_minimal(f):
            r = verify_intervals(census, f)
            merged.checked += r.checked
            merged.violations.extend(r.violations)
    return merged


def verify_order_against_lengths(census, f) -> CheckReport:
    """less_equal agrees with the BFS-length comparison for all g."""
    violations = []
    for g in census.elements:
        by_bfs = (census.length_of(g) +
                  census.length_of(g.inverse() @ f) == census.length_of(f))
        if by_bfs != less_equal(g, f):
            violations.append((g.key(), f.key()))
    return CheckReport("order_against_lengths", len(census.elements), violations)


# ---------------------------------------------------------------------------
# census cache

CENSUS_FORMAT_VERSION = 3      # files of another version, or of none, are recomputed


def census_cache_key(space):
    """Stable key for a census file: format version, characteristic and a
    form digest.  A file whose key differs in any field is recomputed."""
    import hashlib

    payload = repr((space.field.p, tuple(map(tuple, space.gram._int_form()[0]))))
    return {"version": CENSUS_FORMAT_VERSION, "p": space.field.p,
            "form_hash": hashlib.sha256(payload.encode()).hexdigest()}


def save_census(census, path):
    """Write the census's key, its code tuples in BFS order and their lengths.

    The text is built by one ``json.dumps``, which runs the C encoder
    (``json.dump`` streams through the pure-Python one) and gives the same
    bytes.  The text is smaller than the census's own ``codes`` and
    ``lengths``, which are in memory anyway; while it is built, the text
    and its pieces take at most about twice what those do.
    """
    import json

    data = census_cache_key(census.space)
    data["codes"] = census.codes
    data["lengths"] = [census.lengths[g] for g in census.codes]
    text = json.dumps(data)
    with open(path, "w") as handle:
        handle.write(text)


def load_census(space, path):
    """Rebuild a census from a cache file; None when the key does not match,
    including a file of another format version or of none.

    Each element must be n codes, each an int in [0, p^n), whose columns
    preserve the form: v_i^T G v_j = G[i][j] mod p for the columns v_i,
    what ``Isometry(space, rows)`` would check.  The pairs compared are
    i <= j when G is symmetric (both sides are then symmetric), else all
    pairs, and each value is read from a pair table: G v mod p is kept per
    column code and v_i^T G v_j mod p per distinct pair of codes, so an
    element costs n(n + 1)/2 lookups.  The table keeps values, not
    verdicts, because a pair of columns can be valid at one position and
    not at another.  Raises NotIsometry on the first element that fails.

    Raises NotIsometry too when the file is not a JSON object, when
    ``codes`` or ``lengths`` is missing or not a list, when the number of
    elements differs from the closed-form ``group_order(space)``, when the
    lengths are not one non-negative int per element, or when an element
    is stored twice.  Whether the lengths are the word lengths is left to
    ``verify_length_formula``.
    """
    import json
    import os

    if not os.path.exists(path):
        return None
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise NotIsometry("a census file holds a JSON object, not %s" % type(data).__name__)
    key = census_cache_key(space)
    if any(data.get(name) != value for name, value in key.items()):
        return None
    stored, depths = data.get("codes"), data.get("lengths")
    if not isinstance(stored, list) or not isinstance(depths, list):
        raise NotIsometry("a census file needs a list of codes and a list of lengths")
    order = group_order(space)
    if len(stored) != order:
        raise NotIsometry("%d elements stored for a group of order %d" % (len(stored), order))
    if len(depths) != order or not all(type(d) is int and d >= 0 for d in depths):
        raise NotIsometry("the lengths are not one non-negative int per element")
    p, n = space.field.p, space.dim
    size = p ** n
    G = space.gram._int_form()[0]
    symmetric = _is_symmetric(G)    # decided once per load, not per element
    positions = [(i, j, G[i][j]) for j in range(n) for i in range(j + 1 if symmetric else n)]
    columns = {}                    # code -> (its column v, G v mod p)
    values = {}                     # code_i * p^n + code_j -> v_i^T G v_j mod p

    def column(code):
        col = columns.get(code)
        if col is None:
            v = _digits(code, p, n)
            col = columns[code] = (v, [sum(map(mul, row, v)) % p for row in G])
        return col

    codes = []
    for g in stored:
        if not isinstance(g, list) or len(g) != n:
            raise NotIsometry("%r is not %d column codes" % (g, n))
        for code in g:
            if type(code) is not int or not 0 <= code < size:
                raise NotIsometry("column code %r outside [0, %d)" % (code, size))
        for i, j, target in positions:
            pair = g[i] * size + g[j]
            value = values.get(pair)
            if value is None:
                value = values[pair] = sum(map(mul, column(g[i])[0], column(g[j])[1])) % p
            if value != target:
                raise NotIsometry("matrix does not preserve the quadratic form")
        codes.append(tuple(g))
    lengths = dict(zip(codes, depths))
    if len(lengths) != order:
        raise NotIsometry("an element is stored twice")
    return GroupCensus(space, tuple(codes), lengths)
