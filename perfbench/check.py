"""Independent correctness checks of wallfact's outputs.

Every expected answer is recomputed with the benchmark's own exact code
(``exact.py``): reflection lists are multiplied back out, lengths come from
ranks, spinor norms from a Wall form built here, group orders from closed
forms and interval sizes from values recorded at the commit that defined
the benchmark.  Each check returns None when the output is right and a short
reason otherwise.  Nothing here runs inside the timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact

# |O+(4,3)| = 2 q^2 (q^2-1)^2, |O-(4,3)| = 2 q^2 (q^4-1), |O(3,5)| = 2 q (q^2-1)
GROUP_ORDERS = {"o4p_f3": 1152, "o4m_f3": 1440, "o3_f5": 240}
ORACLE_REPORTS = {"length": ["length_formula"], "wall": ["wall_bijection"]}


def moved_basis(F, f):
    """Columns spanning Mov(f) = image(1 - f), as integer vectors over Q.

    Rescaling a basis vector changes none of what is computed from it here:
    total singularity, inertia, and det(chi) up to a square factor."""
    U = exact.column_basis(F, exact.sub(F, exact.identity(F, len(f)), f))
    return U if F.p is not None else [exact.primitive(u) for u in U]


def gram_on(F, gram, U):
    """The matrix u_i^T G u_j of the form on the vectors U."""
    GU = [exact.matvec(F, gram, u) for u in U]
    return [[F.norm(sum(a * b for a, b in zip(u, gw))) for gw in GU] for u in U]


def reflection_length(F, gram, f):
    """dim Mov(f), plus 2 when Mov(f) is nonzero and totally singular."""
    U = moved_basis(F, f)
    if U and not any(any(row) for row in gram_on(F, gram, U)):
        return len(U) + 2
    return len(U)


def wall_det(F, gram, f):
    """det of the Wall form on a basis u_i of Mov(f): chi_ij = beta(w_i, u_j)
    with w_i - f(w_i) = u_i, all w_i from one elimination of [1 - f | U]."""
    n = len(f)
    D = exact.sub(F, exact.identity(F, n), f)
    U = moved_basis(F, f)
    if not U:
        return F(1)
    rows, pivots = exact.echelon(F, [row + [u[i] for u in U] for i, row in enumerate(D)])
    W = [[F(0)] * n for _ in U]
    for row, c in zip(rows, pivots):
        for k, w in enumerate(W):
            w[c] = row[n + k]
    GU = [exact.matvec(F, gram, u) for u in U]
    chi = [[F.norm(2 * sum(a * b for a, b in zip(w, gu))) for gu in GU] for w in W]
    return exact.det(F, chi)


def mov_inertia(F, gram, f):
    return exact.inertia(gram_on(F, gram, moved_basis(F, f)))


def is_involution(F, f):
    return exact.matmul(F, f, f) == exact.identity(F, len(f))


def positive_route(F, gram, f):
    """Which of the four branches of positive_factorization applies to f."""
    pos, neg, zero = mov_inertia(F, gram, f)
    if neg == 0 and zero == 0:
        return "definite"
    if pos > 0 and not is_involution(F, f):
        return "positive_basis"
    if pos == 0:
        return "prepend"
    return "peel"


def positive_length(F, gram, f):
    pos, neg, zero = mov_inertia(F, gram, f)
    m = pos + neg + zero
    if m == 0 or (neg == 0 and zero == 0):
        return m
    if pos > 0 and not is_involution(F, f):
        return m
    return m + 2


def hyperbolic_class(F, gram, f):
    pos, neg, zero = mov_inertia(F, gram, f)
    if neg == 0 and zero == 0:
        return "elliptic"
    return "parabolic" if neg == 0 else "hyperbolic"


def leq(F, gram, g, f):
    """g <= f iff l(g) + l(g^-1 f) = l(f)."""
    h = exact.matmul(F, exact.isometry_inverse(F, gram, g), f)
    return (reflection_length(F, gram, g) + reflection_length(F, gram, h)
            == reflection_length(F, gram, f))


def output_bits(payload):
    """Largest numerator or denominator bit size in a decoded output."""
    best = 0
    stack = [payload]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, bool):
            continue
        elif isinstance(x, int):
            best = max(best, abs(x).bit_length())
        elif isinstance(x, str) and x.lstrip("-").replace("/", "", 1).isdigit():
            best = max(best, exact.entry_bits(Fraction(x)))
    return best


class Checker:
    """Recomputes expected answers for one input; memoizes the costly ones."""

    def __init__(self, inp):
        self.inp = inp
        self.F = exact.Field(inp["p"])
        self.gram = [[self.F(x) for x in row] for row in inp["gram"]]
        self.f = [[self.F(x) for x in row] for row in inp["f"]] if inp.get("f") else None
        self.g = [[self.F(x) for x in row] for row in inp["g"]] if inp.get("g") else None
        self._memo = {}

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def length(self):
        return self._once("length", lambda: reflection_length(self.F, self.gram, self.f))

    def factorization(self, payload, positive=False):
        F = self.F
        vectors = [[F(x) for x in v] for v in payload.get("reflections", [])]
        if payload.get("length") != len(vectors):
            return "declared length differs from the reflection count"
        if positive:
            if payload.get("positive") is not True:
                return "output not flagged positive"
            if any(exact.form_value(F, self.gram, v, v) <= 0 for v in vectors):
                return "a reflecting vector has Q(v) <= 0"
            want = self._once("plength", lambda: positive_length(F, self.gram, self.f))
        else:
            want = self.length()
        if len(vectors) != want:
            return "length %d, expected %d" % (len(vectors), want)
        try:
            product = exact.reflection_product(F, self.gram, vectors)
        except ZeroDivisionError:
            return "a reflecting vector is singular"
        if product != self.f:
            return "reflection product differs from the input isometry"
        return None

    def check(self, label, text, expect=None):
        """Check the JSON text one call printed; label names the call and
        ``expect`` the oracle check it ran."""
        try:
            out = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if not isinstance(out, dict) or "error" in out:
            return "error payload"
        F = self.F
        if label in ("factor", "hyperbolic"):
            return self.factorization(out, positive=(label == "hyperbolic"))
        if label == "factor --positive":
            return self.factorization(out, positive=True)
        if label == "verify":
            return None if out.get("ok") is True else "certificate rejected"
        if label == "length":
            return None if out.get("length") == self.length() else "wrong length"
        if label == "spinor":
            rep = F(out.get("spinor", 0))
            if not rep:
                return "zero spinor representative"
            d = self._once("wall_det", lambda: wall_det(F, self.gram, self.f))
            if not F.is_square(F.norm(d * F.inv(rep))):
                return "spinor class differs from det(chi)"
            if F.p is None and out.get("positive") is not (rep > 0):
                return "wrong positivity flag"
            return None
        if label == "leq":
            want = self._once("leq", lambda: leq(F, self.gram, self.g, self.f))
            return None if out.get("leq") is want else "wrong order answer"
        if label in ("classify", "interval --describe"):
            want = self._once("class", lambda: hyperbolic_class(F, self.gram, self.f))
            if out.get("type") != want:
                return "class %r, expected %r" % (out.get("type"), want)
            if out.get("mov_dim") != len(moved_basis(F, self.f)):
                return "wrong moved-space dimension"
            return None
        if label == "interval":
            size, covers = self.inp["expect"]["interval"]
            if len(out.get("elements", ())) != size or len(out.get("covers", ())) != covers:
                return "interval has %d elements and %d covers, expected %d and %d" % (
                    len(out.get("elements", ())), len(out.get("covers", ())), size, covers)
            ranks = out.get("ranks", [])
            if not ranks or ranks[0] != 0 or ranks[-1] != self.length():
                return "interval ranks do not run from 0 to l(f)"
            return None
        if label == "oracle":
            order = GROUP_ORDERS[self.inp["group"]]
            if out.get("group_order") != order:
                return "group order %r, expected %d" % (out.get("group_order"), order)
            if out.get("violations") != 0:
                return "oracle reports violations"
            names = [r.get("name") for r in out.get("reports", [])]
            if names != ORACLE_REPORTS[expect]:
                return "reports %r, expected %r" % (names, ORACLE_REPORTS[expect])
            return None
        return "no check for %r" % label
