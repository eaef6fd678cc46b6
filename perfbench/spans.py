"""Span tracing of wallfact's layers, installed from outside the library.

A traced run replaces the public entry points of each layer with wrappers
that record one span per call: name, start, end, parent span and op id.
A function is replaced in every wallfact module namespace bound to it,
because callers such as ``factor.wall_form`` look the name up in their own
module globals.  Class methods are replaced on the class.  Constructors that
run hundreds of thousands of times (``Fp``, ``Matrix``) are counted, not
spanned.  Spans stay in memory until the run ends; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import array
import importlib
import sys
import time
from collections import Counter

# (span name, module, attribute): module-level functions
FUNCTIONS = (
    ("linalg.rref", "wallfact.linalg", "_rref"),
    ("wall.wall_form", "wallfact.wall", "wall_form"),
    ("wall.isometry_from_wall", "wallfact.wall", "isometry_from_wall"),
    ("wall.moved_space", "wallfact.wall", "moved_space"),
    ("wall.spinor_norm", "wallfact.wall", "spinor_norm"),
    ("factor.minimal_factorization", "wallfact.factor", "minimal_factorization"),
    ("factor.triangular_basis", "wallfact.factor", "triangular_basis"),
    ("factor.reflection_length", "wallfact.factor", "reflection_length"),
    ("factor.split", "wallfact.factor", "split"),
    ("positive.positive_factorization", "wallfact.positive", "positive_factorization"),
    ("positive.positive_basis", "wallfact.positive", "positive_basis"),
    ("positive.is_positive_isometry", "wallfact.positive", "is_positive_isometry"),
    ("positive.orthogonal_positive_pair_3d", "wallfact.positive", "orthogonal_positive_pair_3d"),
    ("hyperbolic.factorization", "wallfact.hyperbolic", "hyperbolic_positive_factorization"),
    ("hyperbolic.classify", "wallfact.hyperbolic", "classify"),
    ("hyperbolic.describe", "wallfact.hyperbolic", "parabolic_interval_description"),
    ("order.interval", "wallfact.order", "interval"),
    ("order.less_equal", "wallfact.order", "less_equal"),
    ("order.admissible_subspaces", "wallfact.order", "admissible_subspaces"),
    ("oracle.enumerate_group", "wallfact.oracle", "enumerate_group"),
    ("oracle.verify.length", "wallfact.oracle", "verify_length_formula"),
    ("oracle.verify.spinor", "wallfact.oracle", "verify_spinor_homomorphism"),
    ("oracle.verify.wall", "wallfact.oracle", "verify_wall_bijection"),
    ("oracle.verify.intervals", "wallfact.oracle", "verify_intervals"),
    ("oracle.load_census", "wallfact.oracle", "load_census"),
    ("oracle.save_census", "wallfact.oracle", "save_census"),
    ("jsonio.decode", "wallfact.jsonio", "decode_space"),
    ("jsonio.decode", "wallfact.jsonio", "decode_isometry"),
    ("jsonio.decode", "wallfact.jsonio", "decode_factorization"),
    ("jsonio.encode", "wallfact.jsonio", "encode_factorization"),
    ("jsonio.encode", "wallfact.jsonio", "encode_scalar"),
    ("jsonio.encode", "wallfact.jsonio", "encode_vector"),
    ("jsonio.encode", "wallfact.jsonio", "encode_subspace"),
)

# (span name, module, class, method)
METHODS = (
    ("linalg.matmul", "wallfact.linalg", "Matrix", "__matmul__"),
    ("linalg.det", "wallfact.linalg", "Matrix", "det"),
    ("linalg.inverse", "wallfact.linalg", "Matrix", "inverse"),
    ("quadspace.reflection", "wallfact.quadspace", "QuadraticSpace", "reflection"),
    ("quadspace.inertia", "wallfact.quadspace", "QuadraticSpace", "inertia"),
    ("factor.certificate", "wallfact.factor", "Factorization", "product"),
    ("field.square_class", "wallfact.field", "RationalField", "square_class"),
    ("field.square_class", "wallfact.field", "PrimeField", "square_class"),
)

LINALG_KERNELS = ("linalg.rref", "linalg.matmul", "linalg.det", "linalg.inverse")


def _entry_bits(x):
    value = getattr(x, "value", None)
    if value is not None:
        return value.bit_length()
    num = getattr(x, "numerator", 0)
    return max(abs(num).bit_length(), getattr(x, "denominator", 1).bit_length())


def _result_bits(name, result):
    """Largest entry produced by a linear-algebra kernel."""
    if name == "linalg.det":
        return _entry_bits(result)
    rows = result[0] if name == "linalg.rref" else getattr(result, "entries", ())
    return max((_entry_bits(x) for row in rows for x in row), default=0)


class Tracer:
    """Wrappers, in-memory spans and per-op counters for one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = []
        self.op = -1
        self.counts = Counter()       # kept for completed ops only
        self._op_counts = Counter()
        self._cells = {"field.fp_new.calls": [0], "linalg.matrix_new.calls": [0]}
        self._op_peak_bits = 0
        self.peak_entry_bits = 0
        self._mark = 0
        self._restore = []

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.clear()
        self._mark = len(self.span_start)
        self._op_counts.clear()
        self._op_peak_bits = 0
        for cell in self._cells.values():
            cell[0] = 0

    def end_op(self, keep):
        """Keep the op's spans and counts, or drop them for a failed op (one
        over budget stops at a point that depends on timing, so its counts
        would not repeat)."""
        if keep:
            self.counts.update(self._op_counts)
            for name, cell in self._cells.items():
                self.counts[name] += cell[0]
            self.peak_entry_bits = max(self.peak_entry_bits, self._op_peak_bits)
        else:
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                del arr[self._mark:]
        self.stack.clear()
        self.op = -1

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack
        starts, ends = self.span_start, self.span_end
        parents, ops, names = self.span_parent, self.span_op, self.span_name
        after = self._after_hook(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_hook(self, name):
        counts = self._op_counts
        if name in LINALG_KERNELS:
            def peak(result):
                bits = _result_bits(name, result)
                if bits > self._op_peak_bits:
                    self._op_peak_bits = bits
            return peak
        if name == "order.less_equal":
            def leq(result):
                counts["order.less_equal.true"] += bool(result)
            return leq
        if name == "positive.orthogonal_positive_pair_3d":
            def case(result):
                counts["positive.pair_case." + result.case] += 1
            return case
        if name == "oracle.enumerate_group":
            def bfs(census):
                counts["oracle.bfs_new"] += len(census) - 1
                counts["oracle.bfs_products"] += len(census) * len(census.reflections)
            return bfs
        if name == "oracle.load_census":
            def cache(census):
                counts["oracle.cache_lookups"] += 1
                counts["oracle.cache_hits"] += census is not None
            return cache
        return None

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "wallfact" and not modname.startswith("wallfact."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _replace_on_class(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            self._replace_everywhere(original, self._wrap(name, original))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._replace_on_class(cls, attr, self._wrap(name, cls.__dict__[attr]))
        self._install_constructors()

    def _install_constructors(self):
        from wallfact.field import Fp
        from wallfact.linalg import Matrix
        from wallfact.quadspace import Isometry

        fp_cell = self._cells["field.fp_new.calls"]
        fp_init = Fp.__init__

        def counted_fp(obj, value, p):
            fp_cell[0] += 1
            fp_init(obj, value, p)

        matrix_cell = self._cells["linalg.matrix_new.calls"]
        matrix_init = Matrix.__init__

        def counted_matrix(obj, field, entries, cols=None):
            matrix_cell[0] += 1
            matrix_init(obj, field, entries, cols)

        iso_init = Isometry.__init__
        checked_init = self._wrap("quadspace.isometry_check", iso_init)

        def isometry(obj, space, matrix, _checked=False):
            # only a construction that runs the form-preservation check is a span
            if _checked:
                iso_init(obj, space, matrix, True)
            else:
                checked_init(obj, space, matrix)

        self._replace_on_class(Fp, "__init__", counted_fp)
        self._replace_on_class(Matrix, "__init__", counted_matrix)
        self._replace_on_class(Isometry, "__init__", isometry)

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """(calls, self seconds) per span name; self time excludes child spans."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        return calls, self_s

    def write(self, path):
        """Spans as five raw arrays after a JSON header line naming them."""
        import json

        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": [["name", "H"], ["parent", "i"], ["op", "i"],
                                 ["start", "d"], ["end", "d"]]}
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(handle)
