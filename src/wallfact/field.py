"""Exact scalar arithmetic over the rationals and over odd prime fields.

Rational scalars are plain :class:`fractions.Fraction` values (arbitrary
precision, always in lowest terms).  Scalars in F_p are :class:`Fp`
instances.  Both kinds support the usual arithmetic operators, so code
above the linear-algebra layer is written once, generically.  The matrix
kernels are not: each field has its own, and neither computes with these
objects.  The rational ones work on integer rows scaled by a common
denominator and the F_p ones on plain int residues.  Both turn their
results back into Fraction or Fp, the boundary types that every matrix
entry and returned scalar has.  A PrimeField hands out one shared Fp
object per residue (``PrimeField.residues``).

Square classes (the multiplicative group of the field modulo squares) get a
canonical representative: a square-free signed integer over the rationals,
and 1 or the least positive quadratic non-residue over F_p.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


class FieldError(Exception):
    """Base class for scalar-domain errors."""


class ZeroElement(FieldError):
    """An operation that needs a nonzero scalar received zero."""


class UnorderedField(FieldError):
    """An order-dependent operation was attempted over a finite field."""


class EmptyInterval(FieldError):
    """No positive square can exist in the requested interval."""


class FactoringBudgetExceeded(FieldError):
    """Pollard rho spent its iteration budget without splitting a cofactor."""


# ---------------------------------------------------------------------------
# integer helpers: primality and square-free parts

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# trial division handles everything below this bound squared; Pollard rho
# finds the larger factors faster than a longer division loop would
TRIAL_DIVISION_BOUND = 10 ** 3

# Pollard rho iterations one split of a cofactor may spend; past it
# factorize raises FactoringBudgetExceeded.  At about 5 us per iteration on
# a 294-bit cofactor this is about 10 s, and it is over 30 times the longest
# rho run of the benchmark inputs (60,634 iterations).
RHO_ITERATION_BUDGET = 2 ** 21


def is_prime(n):
    """Miller-Rabin primality test (deterministic for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    """A proper factor of n by Pollard rho with Floyd cycle detection; n must
    be odd, composite, not a prime power of 2.  Raises
    FactoringBudgetExceeded after RHO_ITERATION_BUDGET iterations."""
    budget = RHO_ITERATION_BUDGET
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(n)
        y, d = x, 1
        while d == 1:
            if not budget:
                raise FactoringBudgetExceeded(
                    "no factor of a %d-bit cofactor within %d Pollard rho iterations"
                    % (n.bit_length(), RHO_ITERATION_BUDGET))
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n):
    """Prime factorization of n >= 1 as a dict {prime: exponent}.

    Trial division up to TRIAL_DIVISION_BOUND, then Pollard rho for any
    remaining cofactor, at most RHO_ITERATION_BUDGET iterations per split.
    Intended for desk-scale inputs; raises FactoringBudgetExceeded past that
    budget.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return factors


def squarefree_part(n):
    """Square-free part of a nonzero integer, carrying the sign."""
    if n == 0:
        raise ZeroElement("0 has no square-free part")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(abs(n)).items():
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# elements of F_p

class Fp:
    """Element of F_p, stored as the canonical residue in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _other(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise ValueError("mixed characteristics: F_%d vs F_%d" % (self.p, x.p))
            return x.value
        if isinstance(x, int):
            return x
        return None

    def __add__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return Fp(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return Fp(self.value - v, self.p)

    def __rsub__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return Fp(v - self.value, self.p)

    def __mul__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return Fp(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(v * pow(self.value, self.p - 2, self.p), self.p)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            if self.value == 0:
                raise ZeroDivisionError("division by zero in F_%d" % self.p)
            return Fp(pow(pow(self.value, self.p - 2, self.p), -e, self.p), self.p)
        return Fp(pow(self.value, e, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __eq__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return self.value == v % self.p

    def __hash__(self):
        # residues hash like the small ints they equal
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.value, self.p)

    def __str__(self):
        return str(self.value)


# ---------------------------------------------------------------------------
# square classes

class SquareClass:
    """Canonical representative of the class of a nonzero scalar modulo squares."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def __mul__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("square classes over different fields")
        return self.field.square_class(self.field(self.rep) * self.field(other.rep))

    def is_one(self):
        return self.rep == 1

    def is_positive(self):
        if not self.field.is_ordered:
            raise UnorderedField("square classes of %r carry no sign" % self.field)
        return self.rep > 0

    def __eq__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        return "SquareClass(%s over %r)" % (self.rep, self.field)


# ---------------------------------------------------------------------------
# the two supported fields

class RationalField:
    """The field of rational numbers; elements are fractions.Fraction."""

    kind = "rational"
    characteristic = 0
    is_ordered = True

    def __init__(self):
        self.identities = {}    # n -> the n x n identity Matrix, kept by Matrix.identity

    def __call__(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, Fp):
            raise TypeError("cannot coerce an F_p residue into the rationals")
        raise TypeError("cannot coerce %r into the rationals" % (x,))

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def square_class(self, a):
        a = self(a)
        if a == 0:
            raise ZeroElement("square class of 0 is undefined")
        return SquareClass(self, squarefree_part(a.numerator * a.denominator))

    def is_positive(self, a):
        return self(a) > 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class _Residues(dict):
    """The Fp object of each residue in [0, p), created on first use."""

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, r):
        if not 0 <= r < self.p:
            raise ValueError("%r is not a reduced residue mod %d" % (r, self.p))
        x = self[r] = Fp(r, self.p)
        return x


class PrimeField:
    """The field F_p for an odd prime p; elements are Fp residues.

    ``residues[r]`` is the one Fp object this field hands out for the
    residue r in [0, p): coercion, zero, one and the linear-algebra kernels
    box through it, so equal entries of their results are the same object.
    It holds at most one object per residue used with this field.
    """

    kind = "prime"
    is_ordered = False

    def __init__(self, p):
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError("the characteristic must be an odd prime, got %r" % (p,))
        self.p = p
        self.residues = _Residues(p)
        self.identities = {}    # n -> the n x n identity Matrix, kept by Matrix.identity

    @property
    def characteristic(self):
        return self.p

    def __call__(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise ValueError("residue mod %d used in F_%d" % (x.p, self.p))
            return x
        if isinstance(x, int):
            return self.residues[x % self.p]
        if isinstance(x, str):
            return self.residues[int(x) % self.p]
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return self.residues[x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p]
        raise TypeError("cannot coerce %r into F_%d" % (x, self.p))

    @property
    def zero(self):
        return self.residues[0]

    @property
    def one(self):
        return self.residues[1]

    def elements(self):
        return (self.residues[i] for i in range(self.p))

    def nonzero_elements(self):
        return (self.residues[i] for i in range(1, self.p))

    def is_square(self, a):
        a = self(a)
        if a.value == 0:
            raise ZeroElement("0 is neither a residue nor a non-residue")
        return pow(a.value, (self.p - 1) // 2, self.p) == 1

    @property
    def least_nonresidue(self):
        # linear scan with Euler's criterion; p is odd so one exists below p
        for a in range(2, self.p):
            if pow(a, (self.p - 1) // 2, self.p) == self.p - 1:
                return a
        raise AssertionError("no quadratic non-residue found mod %d" % self.p)

    def square_class(self, a):
        a = self(a)
        if a.value == 0:
            raise ZeroElement("square class of 0 is undefined")
        return SquareClass(self, 1 if self.is_square(a) else self.least_nonresidue)

    def is_positive(self, a):
        raise UnorderedField("F_%d is not an ordered field" % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


def square_class(field, a):
    """Canonical square class of a nonzero scalar."""
    return field.square_class(a)


def is_positive(field, a):
    """Whether a > 0; only meaningful over an ordered field."""
    if not field.is_ordered:
        raise UnorderedField("%r is not an ordered field" % field)
    return field.is_positive(a)


def rational_square_in_interval(a, b):
    """A positive rational q with a < q*q < b, found by a doubling search.

    For denominators N = 1, 2, 4, ... take k = isqrt(floor(a*N^2)) + 1 and
    accept q = k/N once k^2 < b*N^2.  Termination: N*(sqrt(b) - sqrt(a))
    grows without bound, so eventually an integer k fits strictly between
    sqrt(a)*N and sqrt(b)*N.  Entirely integer arithmetic, no floating point.

    The interval must satisfy a < b and b > 0.  When a <= 0 the search is
    replaced by halving q = 1, 1/2, 1/4, ... until q^2 < b.
    """
    a = QQ(a)
    b = QQ(b)
    if a >= b or b <= 0:
        raise EmptyInterval("no positive square in (%s, %s)" % (a, b))
    if a <= 0:
        q = Fraction(1)
        while q * q >= b:
            q /= 2
        return q
    N = 1
    while True:
        k = math.isqrt((a.numerator * N * N) // a.denominator) + 1
        q = Fraction(k, N)
        if q * q < b:
            # k was chosen just above floor(a*N^2), so q*q > a automatically
            if q * q <= a:
                raise AssertionError("square search returned %s, not above %s" % (q, a))
            return q
        N *= 2
