"""JSON encodings shared by the command-line interface and file formats.

Scalars: rationals are strings "p/q" (plain "n" for integers); prime-field
elements are integers.  Field specs: {"field": "rational"} or
{"field": "prime", "p": 5}.  A space file is {"field": ..., "form": [[...]]}
where "field" holds either the spec object or its bare kind string, and the
form matrix is symmetrized at load (which preserves Q).  Matrices and
vectors are nested arrays, row-major.

Every rational scalar is read by one parser, ``_decode_rational``, into its
numerator and denominator.  Scalars and vectors box those as Fractions.  A
matrix over either field is built straight in its kernel form (linalg's
(A, d), matrix = A / d: integer rows over Q, residues with d = 1 over F_p),
so its entries are made only if they are read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .field import Fp, PrimeField, QQ
from .linalg import Matrix, Subspace
from .quadspace import Isometry, QuadraticSpace
from .factor import Factorization


class InputError(Exception):
    """Malformed JSON input (shape, types, unknown keys)."""


def encode_scalar(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, Fp):
        return x.value
    if isinstance(x, int):
        return x
    raise InputError("cannot encode scalar %r" % (x,))


def _decode_rational(obj):
    """A rational scalar as (n, d) in lowest terms with d > 0.

    An int is taken as it is.  Text of the form "n" or "p/q" in ASCII digits,
    with an optional leading minus, is split at the slash and read by two
    int() calls; every other spelling that Fraction accepts ("+3/4", "1.5",
    "1e3", " 1/2 ", "1_000") is read by Fraction, and so is a zero
    denominator, for Fraction's error.  Errors, among them int()'s refusal of
    an over-long half, are InputError with the message Fraction would give.
    """
    try:
        if isinstance(obj, bool):
            raise TypeError
        if isinstance(obj, int):
            return obj, 1
        if isinstance(obj, str):
            num, slash, den = obj.partition("/")
            if (obj.isascii() and (num[1:] if num[:1] == "-" else num).isdigit()
                    and (den.isdigit() or not slash)):
                n, d = int(num), (int(den) if slash else 1)
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
            x = Fraction(obj)
            return x.numerator, x.denominator
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError("bad scalar %r: %s" % (obj, exc)) from None
    raise InputError("bad scalar %r" % (obj,))


def decode_scalar(obj, field):
    if field.kind == "rational":
        n, d = _decode_rational(obj)
        return Fraction(n, d)
    try:
        if isinstance(obj, bool):
            raise TypeError
        if isinstance(obj, (int, str)):
            return field(obj)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError("bad scalar %r: %s" % (obj, exc)) from None
    raise InputError("bad scalar %r" % (obj,))


def encode_field(field):
    if field == QQ:
        return {"field": "rational"}
    if isinstance(field, PrimeField):
        return {"field": "prime", "p": field.p}
    raise InputError("cannot encode field %r" % (field,))


def decode_field(obj):
    """Accepts {"field": "prime", "p": 5}, {"field": "rational"}, or the bare kind."""
    if isinstance(obj, str):
        obj = {"field": obj}
    if not isinstance(obj, dict):
        raise InputError("field spec must be an object or kind string")
    kind = obj.get("field")
    if kind == "rational":
        return QQ
    if kind == "prime":
        p = obj.get("p")
        if not isinstance(p, int):
            raise InputError("prime field spec needs an integer p")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError("unknown field kind %r" % (kind,))


def encode_matrix(M):
    return [[encode_scalar(x) for x in row] for row in M.entries]


def decode_matrix(obj, field):
    """A matrix over field, built in its kernel form (A, d): over Q d is the
    lcm of the entries' reduced denominators, over F_p A holds residues and
    d = 1.  Its entries are boxed only when first read."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError("matrix must be an array of arrays")
    if field.kind == "rational":
        rows = [[_decode_rational(x) for x in row] for row in obj]
    else:
        rows = [[(decode_scalar(x, field).value, 1) for x in row] for row in obj]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise InputError("bad matrix: ragged rows")
    d = lcm(*[q for row in rows for _, q in row])
    return Matrix._of_int(field, [[n * (d // q) for n, q in row] for row in rows], d, ncols)


def encode_vector(v):
    return [encode_scalar(x) for x in v]


def decode_vector(obj, field):
    if not isinstance(obj, list):
        raise InputError("vector must be an array")
    return tuple(decode_scalar(x, field) for x in obj)


def decode_space(obj):
    """{"field": ..., "form": [[...]]}; the field spec may be an object or string.

    A {"p": ...} sibling next to a bare "prime" string is also accepted.
    """
    if not isinstance(obj, dict):
        raise InputError("space must be an object")
    if "form" not in obj:
        raise InputError("space needs a 'form' matrix")
    spec = obj.get("field", "rational")
    if isinstance(spec, str) and spec == "prime":
        spec = {"field": "prime", "p": obj.get("p")}
    field = decode_field(spec)
    form = decode_matrix(obj["form"], field)
    return QuadraticSpace(field, form)


def encode_space(space):
    out = encode_field(space.field)
    out["form"] = encode_matrix(space.gram)
    return out


def decode_isometry(obj, space):
    """An isometry file; a matrix that is not dim x dim for the space is
    malformed input, like a ragged one."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise InputError("isometry file needs a 'matrix' key")
    M = decode_matrix(obj["matrix"], space.field)
    if M.rows != space.dim or M.cols != space.dim:
        raise InputError("isometry matrix of shape %dx%d in dimension %d"
                         % (M.rows, M.cols, space.dim))
    return Isometry(space, M)


def encode_isometry(f):
    return {"matrix": encode_matrix(f.matrix)}


def projective_normalize(space, v):
    """Scale so the first nonzero coordinate is 1 (reflections are scale-free)."""
    lead = next((x for x in v if x), None)
    if lead is None:
        return v
    inv = space.field.one / lead
    return tuple(inv * x for x in v)


def encode_factorization(fact, positive=None):
    out = {
        "length": len(fact),
        "reflections": [encode_vector(projective_normalize(fact.space, v))
                        for v in fact.vectors],
    }
    if positive is not None:
        out["positive"] = bool(positive)
    return out


def decode_factorization(obj, space, target=None):
    if not isinstance(obj, dict) or "reflections" not in obj:
        raise InputError("factorization file needs a 'reflections' key")
    if not isinstance(obj["reflections"], list):
        raise InputError("'reflections' must be a list of vectors")
    vectors = [decode_vector(v, space.field) for v in obj["reflections"]]
    for v in vectors:
        if len(v) != space.dim:
            raise InputError("reflection vector of length %d in dimension %d" % (len(v), space.dim))
    if "length" in obj and obj["length"] != len(vectors):
        raise InputError("declared length does not match the reflection count")
    return Factorization(space, vectors, target=target)


def encode_walldata(wd):
    return {"basis": [encode_vector(v) for v in wd.basis.entries],
            "chi": encode_matrix(wd.chi)}


def encode_subspace(U):
    return {"ambient_dim": U.ambient_dim, "basis": [encode_vector(v) for v in U.basis]}


def decode_subspace(obj, space):
    if not isinstance(obj, dict) or "basis" not in obj:
        raise InputError("subspace needs a 'basis' key")
    if not isinstance(obj["basis"], list):
        raise InputError("'basis' must be a list of vectors")
    rows = [decode_vector(v, space.field) for v in obj["basis"]]
    return Subspace(space.field, space.dim, rows)
