"""Seeded input generation for the three workloads.

Every input is built with the benchmark's own exact code from
``random.Random(seed)``, so the same seed gives the same inputs.  Each
input carries its properties (field, dimension, signature, dim Mov(f),
input coefficient bits, and the positive route or hyperbolic class), and
each workload is a fixed list of ops over its inputs: one round.

The seed varies the reflecting vectors and conjugators; dimensions, shapes
and routes are fixed per workload, so that the cost of a round depends on
the seed as little as possible.
"""

from __future__ import annotations

import random

import check
import exact

QQ = exact.Field()

# per-op time budgets in seconds; an op over its budget counts as failed
BUDGET_S = {"qq-minimal": 30.0, "qq-positive": 4.0, "fp-oracle": 60.0}

# qq-minimal: per signature, the dims of each (moved space, height) cell;
# full means dim Mov = n, half dim Mov = n/2.  Taller entries get smaller
# dims so that every cell costs about the same.
MINIMAL_SIGNATURES = ("definite", "split", "lorentz")
MINIMAL_CELLS = {("full", "small"): (8, 12), ("full", "tall"): (8, 10),
                 ("half", "small"): (10, 16), ("half", "tall"): (12, 14)}
HEIGHTS = {"small": 2, "tall": 256}
TOTALLY_SINGULAR_DIMS = (10, 14)

# qq-positive: dimensions, and the largest moved space of a random word.
# Output sizes of positive_factorization have a heavy tail once dim Mov
# exceeds 4 (a seeded dim-6 draw reached 8k bits, another ran past the
# budget), which would make every metric hinge on the seed.  Growth is
# measured on the fixed GROWTH_INPUTS and the ROADMAP seed instead.
POSITIVE_DIMS = range(4, 11)
POSITIVE_MOV_CAP = 4
LORENTZ_BUILDERS = ("elliptic", "parabolic", "hyperbolic")
CONJUGATOR_LENGTH = 3
# Fixed draws whose positive factorizations reach 3k-5k bits in under a
# second at the commit that defined the benchmark: seed-independent, so
# max_coeff_bits does not depend on where the heavy tail of a random draw
# falls.  (label, dim, signature, seed of growth_input)
GROWTH_INPUTS = (("growth-d7-lorentz", 7, "lorentz", 0), ("growth-d7", 7, "2neg", 14),
                 ("growth-d8", 8, "2neg", 2), ("growth-d9-lorentz", 9, "lorentz", 13))

# fp-oracle: O(4,F_3) elements whose intervals are materialized, with the
# (size, cover count) recorded from the commit that defined the benchmark.
# The interval below a dim-4 minimal element (140 elements, 13-15 s) is left
# out so that a round stays near 20 s.
INTERVAL_INPUTS = (("interval-mov2", "mov2", (6, 8)),
                   ("interval-mov3", "mov3", (20, 42)),
                   ("interval-ts94", "ts", (94, 240)))
FP_SPACES = {"o4p_f3": (3, [1, 1, -1, -1]), "o4m_f3": (3, [1, 1, 1, -1]),
             "o3_f5": (5, [1, 1, 1])}
LIGHT_ELEMENTS_PER_GROUP = 8


# ---------------------------------------------------------------------------
# matrices and words

def diag(F, values):
    n = len(values)
    return [[F(values[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


def signature_values(kind, n):
    if kind == "definite":
        return [1] * n
    if kind == "split":
        return [1] * (n - n // 2) + [-1] * (n // 2)
    if kind == "lorentz":
        return [1] * (n - 1) + [-1]
    if kind == "2neg":
        return [1] * (n - 2) + [-1, -1]
    raise ValueError(kind)


def random_vector(rng, F, gram, bound, support=None):
    """Nonzero, non-singular, entries in [-bound, bound] on the given support."""
    n = len(gram)
    support = range(n) if support is None else support
    while True:
        v = [F(0)] * n
        for i in support:
            v[i] = F(rng.randint(-bound, bound))
        if any(v) and exact.form_value(F, gram, v, v):
            return v


def random_word(rng, F, gram, k, bound, support=None):
    return [random_vector(rng, F, gram, bound, support) for _ in range(k)]


def conjugate(F, gram, c, f):
    return exact.matmul(F, exact.matmul(F, c, f), exact.isometry_inverse(F, gram, c))


def bits_of(M):
    return max(exact.entry_bits(x) for row in M for x in row)


def positive_spinor(F, gram, f):
    return check.wall_det(F, gram, f) > 0


# ---------------------------------------------------------------------------
# input records

def make_input(name, F, gram_values, f, g=None, **extra):
    gram = diag(F, gram_values)
    inp = {"name": name, "p": F.p, "gram": gram, "f": f, "g": g}
    props = {"field": "Q" if F.p is None else "F%d" % F.p, "dim": len(gram_values),
             "mov_dim": len(check.moved_basis(F, f)), "in_bits": bits_of(f)}
    if F.p is None:
        props["signature"] = "(%d,%d)" % (sum(v > 0 for v in gram_values),
                                         sum(v < 0 for v in gram_values))
    props.update(extra.pop("props", {}))
    inp["props"] = props
    inp.update(extra)
    return inp


def minimal_inputs(rng):
    out = []
    for sig in MINIMAL_SIGNATURES:
        for (mov, height), dims in MINIMAL_CELLS.items():
            bound = HEIGHTS[height]
            for n in dims:
                values = signature_values(sig, n)
                gram = diag(QQ, values)
                k = n if mov == "full" else n // 2
                word = random_word(rng, QQ, gram, k, bound)
                f = exact.reflection_product(QQ, gram, word)
                if len(out) % 2 == 0:
                    # a prefix of a minimal word lies below f
                    g = exact.reflection_product(QQ, gram, word[:(k + 1) // 2])
                else:
                    g = exact.reflection_product(QQ, gram, random_word(rng, QQ, gram, 2, 2))
                out.append(make_input("min-%s-%s-%s-d%d" % (sig, mov, height, n),
                                      QQ, values, f, g, props={"height": height}))
    for n in TOTALLY_SINGULAR_DIMS:
        out.append(totally_singular_input(rng, n))
    return out


def totally_singular_input(rng, n):
    """Wall's construction on a totally singular plane of the split form, conjugated."""
    from wallfact import QQ as LIB_QQ, diagonal_space, isometry_from_wall

    values = signature_values("split", n)
    gram = diag(QQ, values)
    half = n // 2
    # the (1,1,...,-1,-1) form is split with n even: e_i + e_{half+i} are null and orthogonal
    u1 = [1 if j in (0, half) else 0 for j in range(n)]
    u2 = [1 if j in (1, half + 1) else 0 for j in range(n)]
    t = rng.choice([1, 2, 3])
    base = isometry_from_wall(diagonal_space(LIB_QQ, values), [u1, u2], [[0, t], [-t, 0]])
    c = exact.reflection_product(QQ, gram, random_word(rng, QQ, gram, 3, 2))
    f = conjugate(QQ, gram, c, [list(row) for row in base.matrix.entries])
    g = exact.reflection_product(QQ, gram, random_word(rng, QQ, gram, 2, 2))
    return make_input("min-split-ts-d%d" % n, QQ, values, f, g,
                      props={"height": "small", "totally_singular": True})


def random_conjugate(rng, gram, f):
    """c f c^-1 for a random word c of CONJUGATOR_LENGTH reflections.

    Route and hyperbolic class are invariant under conjugation.  The larger,
    more uniform entries keep the median output size from hinging on the
    seed (relative quartile spread over ten seeds: 0.21 without, 0.11 with).
    """
    c = exact.reflection_product(QQ, gram, random_word(rng, QQ, gram, CONJUGATOR_LENGTH, 2))
    return conjugate(QQ, gram, c, f)


def positive_word_input(rng, name, n, sig, route, cap):
    """A positive isometry of the requested route, drawn from random words."""
    values = signature_values(sig, n)
    gram = diag(QQ, values)
    npos = n - (1 if sig == "lorentz" else 2)
    for _ in range(200):
        if route == "definite":
            word = random_word(rng, QQ, gram, min(npos, 3), 2, range(npos))
        elif route == "positive_basis":
            word = random_word(rng, QQ, gram, min(n, cap), 2)
        elif route == "prepend":
            # two negative reflections inside the negative plane
            word = random_word(rng, QQ, gram, 2, 2, range(npos, n))
        else:
            # reflections through orthogonal axes: one or two positive, both negative
            axes = list(range(rng.randint(1, 2))) + [n - 2, n - 1]
            word = [[QQ(1) if j == i else QQ(0) for j in range(n)] for i in axes]
        f = random_conjugate(rng, gram, exact.reflection_product(QQ, gram, word))
        if (f != exact.identity(QQ, n) and positive_spinor(QQ, gram, f)
                and check.positive_route(QQ, gram, f) == route):
            return positive_input(name, values, f)
    raise RuntimeError("no %s input drawn for %s" % (route, name))


def positive_input(name, values, f, **props):
    gram = diag(QQ, values)
    props["route"] = check.positive_route(QQ, gram, f)
    lorentz = values.count(-1) == 1
    if lorentz:
        props["hyperbolic_class"] = check.hyperbolic_class(QQ, gram, f)
    return make_input(name, QQ, values, f, lorentz=lorentz, props=props)


def lorentz_builder_input(rng, kind, n):
    from wallfact import hyperbolic as hyp

    space = hyp.lorentz_space(n - 1)
    values = signature_values("lorentz", n)
    gram = diag(QQ, values)
    if kind == "elliptic":
        base = hyp.elliptic_example(space)
    elif kind == "hyperbolic":
        base = hyp.hyperbolic_example(space)
    else:
        base = hyp.parabolic_example(space, t=rng.choice([1, 2, 3]))
    f = random_conjugate(rng, gram, [list(row) for row in base.matrix.entries])
    inp = positive_input("pos-lorentz-%s-d%d" % (kind, n), values, f)
    assert inp["props"]["hyperbolic_class"] == kind
    return inp


def library_style_positive_isometry(rng, n_space, reflections):
    """random_positive_isometry of the test suite, redone with exact.py.

    Draws reflecting vectors with entries in [-2, 2] until the product is a
    non-identity isometry of positive spinor norm, consuming the generator
    exactly as the test helper does.
    """
    values = signature_values("lorentz", n_space + 1)
    gram = diag(QQ, values)
    while True:
        f = exact.reflection_product(QQ, gram, random_word(rng, QQ, gram, reflections, 2))
        if f != exact.identity(QQ, len(values)) and positive_spinor(QQ, gram, f):
            return values, f


def roadmap_seed_input():
    """The 2nd draw of random.Random(1), 10 reflections in lorentz_space(9).

    At the commit that defined the benchmark, positive_factorization does
    not finish on it within a minute: it shows up as a timeout.
    """
    rng = random.Random(1)
    library_style_positive_isometry(rng, 9, 10)
    values, f = library_style_positive_isometry(rng, 9, 10)
    return positive_input("pos-roadmap-seed-d10", values, f, named="roadmap_seed")


def growth_input(label, n, sig, seed):
    rng = random.Random(seed)
    values = signature_values(sig, n)
    gram = diag(QQ, values)
    while True:
        f = exact.reflection_product(QQ, gram, random_word(rng, QQ, gram, n, 2))
        if positive_spinor(QQ, gram, f):
            return positive_input("pos-" + label, values, f, named=label)


def positive_inputs(rng):
    out = []
    for n in POSITIVE_DIMS:
        # Lorentz spaces only reach the first two routes; the (n-2,2) ones
        # take all four, two per dimension
        lorentz_route = ("definite", "positive_basis")[n % 2]
        out.append(positive_word_input(rng, "pos-lorentz-%s-d%d" % (lorentz_route, n),
                                       n, "lorentz", lorentz_route, POSITIVE_MOV_CAP))
        out.append(lorentz_builder_input(rng, LORENTZ_BUILDERS[n % 3], n))
        for route in (("positive_basis", "prepend"), ("definite", "peel"))[n % 2]:
            out.append(positive_word_input(rng, "pos-2neg-%s-d%d" % (route, n),
                                           n, "2neg", route, POSITIVE_MOV_CAP))
    out.extend(growth_input(*spec) for spec in GROWTH_INPUTS)
    out.append(roadmap_seed_input())
    return out


# ---------------------------------------------------------------------------
# fp-oracle

def fp_fixed_element(kind):
    """The O(4,F_3) elements below which intervals are materialized."""
    p, values = FP_SPACES["o4p_f3"]
    F = exact.Field(p)
    gram = diag(F, values)
    e = [[F(1) if j == i else F(0) for j in range(4)] for i in range(4)]
    if kind == "mov2":
        return exact.reflection_product(F, gram, e[:2])
    if kind == "mov3":
        return exact.reflection_product(F, gram, e[:3])
    # Wall's construction on the totally singular plane <e1+e3, e2+e4> with
    # chi = [[0, 1], [-1, 0]]: the element whose interval has 94 elements
    from wallfact import PrimeField, diagonal_space, isometry_from_wall

    base = isometry_from_wall(diagonal_space(PrimeField(p), values),
                              [(1, 0, 1, 0), (0, 1, 0, 1)], [[0, 1], [-1, 0]])
    return [[x.value for x in row] for row in base.matrix.entries]


def fp_inputs(rng):
    out = []
    for group, (p, values) in FP_SPACES.items():
        F = exact.Field(p)
        out.append({"name": "oracle-" + group, "p": p, "gram": diag(F, values), "f": None,
                    "g": None, "group": group, "props": {"field": "F%d" % p, "dim": len(values)}})
    for name, kind, expect in INTERVAL_INPUTS:
        p, values = FP_SPACES["o4p_f3"]
        F = exact.Field(p)
        out.append(make_input(name, F, values, fp_fixed_element(kind),
                              expect={"interval": list(expect)}))
    for group, (p, values) in FP_SPACES.items():
        F = exact.Field(p)
        gram = diag(F, values)
        for i in range(LIGHT_ELEMENTS_PER_GROUP):
            word = random_word(rng, F, gram, rng.randint(1, len(values)), p // 2)
            f = exact.reflection_product(F, gram, word)
            if i % 2 == 0:
                g = exact.reflection_product(F, gram, word[:(len(word) + 1) // 2])
            else:
                g = exact.reflection_product(F, gram, random_word(rng, F, gram, 1, p // 2))
            out.append(make_input("light-%s-%d" % (group, i), F, values, f, g, word=word))
    return out
