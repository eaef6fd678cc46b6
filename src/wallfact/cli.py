"""Batch command-line front end.

Subcommands: length, factor [--positive], spinor, classify, leq,
interval [--describe], oracle, verify.  All input and output is JSON.
Exit codes: 0 success, 1 domain error (singular vector, degenerate form,
negative spinor, ...), 2 malformed input, 3 internal fault (a certificate
or an internal invariant failed).  Domain errors are reported as
{"error": code, "detail": message} on stdout, internal faults as
{"error": "internal", "detail": message}.

``main(argv)`` may be called repeatedly in one process.  It builds its
parser once (``build_parser`` is cached) and reuses it; each call parses
into a new namespace, and help and usage are formatted when printed, so a
call's output and exit code are those of the same call in a fresh process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import factor as factor_mod
from . import field as field_mod
from . import hyperbolic as hyperbolic_mod
from . import jsonio
from . import linalg as linalg_mod
from . import oracle as oracle_mod
from . import order as order_mod
from . import positive as positive_mod
from . import quadspace as quadspace_mod
from . import wall as wall_mod

DOMAIN_ERRORS = (
    field_mod.FieldError,
    linalg_mod.DimensionMismatch,
    linalg_mod.NonSquare,
    linalg_mod.TooLarge,
    quadspace_mod.DegenerateForm,
    quadspace_mod.SingularVector,
    quadspace_mod.NotIsometry,
    wall_mod.DegenerateChi,
    wall_mod.ChiQMismatch,
    factor_mod.AlternatingForm,
    factor_mod.DegenerateRestriction,
    positive_mod.NegativeSpinor,
    positive_mod.NoPositiveVector,
    positive_mod.SymmetricChi,
    positive_mod.NegativeDeterminant,
    hyperbolic_mod.NotPositive,
    ValueError,
    TypeError,
)


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise jsonio.InputError("cannot read %s: %s" % (path, exc)) from None


def _load_space(args):
    if not args.form:
        raise jsonio.InputError("--form is required")
    return jsonio.decode_space(_read_json(args.form))


def _load_isometries(args, space, count=1):
    paths = args.isometry or []
    if len(paths) != count:
        raise jsonio.InputError("expected %d --isometry file(s), got %d" % (count, len(paths)))
    return [jsonio.decode_isometry(_read_json(p), space) for p in paths]


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cap(args):
    """The enumeration cap of --cap, else of WALLFACT_CAP, else None (the
    defaults); a cap below 1 is malformed input."""
    cap = args.cap
    if cap is None:
        env = os.environ.get("WALLFACT_CAP")
        if not env:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise jsonio.InputError("WALLFACT_CAP must be an integer, got %r" % env) from None
    if cap < 1:
        raise jsonio.InputError("the enumeration cap must be at least 1, got %d" % cap)
    return cap


def cmd_length(args):
    space = _load_space(args)
    (f,) = _load_isometries(args, space)
    _emit(args, {"length": factor_mod.reflection_length(f)})


def cmd_factor(args):
    space = _load_space(args)
    (f,) = _load_isometries(args, space)
    if args.positive:
        fact = positive_mod.positive_factorization(f)
        _emit(args, jsonio.encode_factorization(fact, positive=True))
    else:
        fact = factor_mod.minimal_factorization(f)
        _emit(args, jsonio.encode_factorization(fact))


def cmd_spinor(args):
    space = _load_space(args)
    (f,) = _load_isometries(args, space)
    cls = wall_mod.spinor_norm(f)
    out = {"spinor": jsonio.encode_scalar(cls.rep) if not isinstance(cls.rep, int) else cls.rep}
    if space.field.is_ordered:
        out["positive"] = cls.is_positive()
    _emit(args, out)


def cmd_classify(args):
    space = _load_space(args)
    (f,) = _load_isometries(args, space)
    kind = hyperbolic_mod.classify(f)
    m = wall_mod.moved_space(f).dim
    _emit(args, {"type": kind.value, "mov_dim": m, "positive_length": m})


def cmd_leq(args):
    space = _load_space(args)
    g, f = _load_isometries(args, space, count=2)
    _emit(args, {"leq": order_mod.less_equal(g, f)})


def cmd_interval(args):
    space = _load_space(args)
    (f,) = _load_isometries(args, space)
    if args.describe:
        if args.cap is not None or args.dot:
            raise jsonio.InputError("--describe enumerates nothing and draws no diagram: "
                                    "it takes neither --cap nor --dot")
        desc = hyperbolic_mod.parabolic_interval_description(f)
        out = {"type": desc.kind.value, "mov_dim": desc.mov_dim}
        if desc.kind == hyperbolic_mod.HyperbolicClass.ELLIPTIC:
            out["admissible"] = "all_subspaces"
        elif desc.kind == hyperbolic_mod.HyperbolicClass.PARABOLIC:
            out["admissible"] = "not_sandwiched"
            out["fixed_line"] = jsonio.encode_vector(desc.fixed_line)
            out["hyperplane"] = jsonio.encode_subspace(desc.hyperplane)
        else:
            out["admissible"] = "positive_determinant"
        _emit(args, out)
        return
    cap = _cap(args)
    poset = order_mod.interval(f) if cap is None else order_mod.interval(f, cap=cap)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(poset.to_dot() + "\n")
    _emit(args, poset.to_json_dict())


def cmd_oracle(args):
    if args.form:
        space = _load_space(args)
    else:
        if not args.field or not args.dim:
            raise jsonio.InputError("oracle needs --form, or --field and --dim")
        field = field_mod.PrimeField(args.field)
        space = quadspace_mod.diagonal_space(field, [1] * args.dim)
    cap = _cap(args) or oracle_mod.DEFAULT_GROUP_CAP
    # a loaded census obeys the cap as an enumerated one does, since a file
    # whose stored lengths fail is enumerated afresh for the interval check
    oracle_mod.check_group_cap(space, cap)
    census = oracle_mod.load_census(space, args.cache) if args.cache else None
    loaded = census is not None
    if not loaded:
        census = oracle_mod.enumerate_group(space, cap=cap)
        if args.cache:
            oracle_mod.save_census(census, args.cache)
    check = args.check
    reports = []
    # the interval check reads the lengths, so stored ones are checked first
    if check in ("all", "length") or loaded and check == "intervals":
        reports.append(oracle_mod.verify_length_formula(census))
    if check in ("all", "spinor"):
        reports.append(oracle_mod.verify_spinor_homomorphism(census))
    if check in ("all", "wall"):
        reports.append(oracle_mod.verify_wall_bijection(census))
    if check in ("all", "intervals"):
        # wrong stored lengths would echo into the intervals, which then run
        # on the group enumerated afresh; the cache file is left as it is
        if loaded and not reports[0].ok:
            census = oracle_mod.enumerate_group(space, cap=cap)
        reports.append(oracle_mod.verify_minimal_intervals(census))
    _emit(args, {
        "group_order": len(census),
        "violations": sum(len(r.violations) for r in reports),
        "reports": [r.to_json_dict() for r in reports],
    })


def cmd_verify(args):
    space = _load_space(args)
    (f,) = _load_isometries(args, space)
    payload = _read_json(args.factorization)
    try:
        fact = jsonio.decode_factorization(payload, space, target=f)
    except factor_mod.ProductMismatch:
        _emit(args, {"ok": False})
        return
    out = {"ok": True, "length": len(fact)}
    if payload.get("positive"):
        out["positive"] = fact.is_positive()
    _emit(args, out)


@functools.cache
def build_parser():
    """The argparse tree, built once per process and shared by every
    ``main`` call; callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="wallfact",
        description="Exact reflection factorizations in orthogonal groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, isometries=1, cap=None):
        p.add_argument("--form", help="space JSON file: {field, form}")
        if isometries:
            p.add_argument("--isometry", action="append",
                           help="isometry JSON file: {matrix}; repeatable")
        if cap:
            p.add_argument("--cap", type=int,
                           help="the most %s the enumeration may visit, at least 1 "
                                "(default: WALLFACT_CAP, else the library's default); "
                                "past it the command exits 1 with TooLarge" % cap)
        p.add_argument("--out", help="write the JSON output to a file")

    common(sub.add_parser("length", help="reflection length of an isometry"))
    p = sub.add_parser("factor", help="minimal reflection factorization")
    common(p)
    p.add_argument("--positive", action="store_true",
                   help="factor into positive reflections (ordered fields)")
    common(sub.add_parser("spinor", help="spinor norm as a square class"))
    common(sub.add_parser("classify", help="elliptic/parabolic/hyperbolic type"))
    common(sub.add_parser("leq", help="order comparison: first isometry below second"))
    p = sub.add_parser("interval", help="interval poset below an isometry")
    common(p, cap="subspaces or candidate Wall forms")
    p.add_argument("--describe", action="store_true",
                   help="emit the hyperbolic interval description instead")
    p.add_argument("--dot", help="also write a DOT Hasse diagram to this file")
    p = sub.add_parser("oracle", help="enumerate the group and verify the theorems")
    common(p, isometries=0, cap="group elements")
    p.add_argument("--field", type=int, help="odd prime p for a standard diagonal form")
    p.add_argument("--dim", type=int, help="dimension for the standard diagonal form")
    p.add_argument("--check", default="all",
                   choices=["all", "length", "spinor", "wall", "intervals"],
                   help="which verification to run")
    p.add_argument("--cache", help="census cache file keyed by (p, form hash)")
    p = sub.add_parser("verify", help="check a factorization certificate")
    common(p)
    p.add_argument("--factorization", required=True,
                   help="factorization JSON file (or - for stdin)")
    return parser


COMMANDS = {
    "length": cmd_length,
    "factor": cmd_factor,
    "spinor": cmd_spinor,
    "classify": cmd_classify,
    "leq": cmd_leq,
    "interval": cmd_interval,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except jsonio.InputError as exc:
        print(json.dumps({"error": "malformed_input", "detail": str(exc)}))
        return 2
    except (wall_mod.CertificateError, AssertionError) as exc:
        # before DOMAIN_ERRORS: factor.ProductMismatch is also a ValueError
        print(json.dumps({"error": "internal", "detail": str(exc)}))
        return 3
    except DOMAIN_ERRORS as exc:
        code = type(exc).__name__
        print(json.dumps({"error": code, "detail": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
