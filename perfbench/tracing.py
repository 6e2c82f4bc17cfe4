"""Spans and counters the benchmark records around calls into cliffbundle.

Nothing here edits the program.  ``SpanRecorder.install`` replaces the
named public functions and methods by timing wrappers, in every module of
the package that holds a reference to them (``from .poly import det`` binds
a second name), and ``uninstall`` puts the originals back.  Spans are kept
in flat arrays: name, start, end, parent span and job id, in nanoseconds.

Scalar operations are counted by ``OpCounter`` in a pass of their own: a
scan makes millions of ``FpElement`` calls, and timing each of them would
distort every other self time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

PACKAGE = "cliffbundle"


def _terms(result) -> int:
    return len(getattr(result, "terms", ()))


# (span name, module, attribute path, measure of the result or None).
# Several targets may share one span name.
SPAN_TARGETS = (
    ("cli.main", "cli", "main", None),
    ("cli.load", "cli", "load_document", None),
    ("cli.load", "cli", "form_from_document", None),
    ("cli.load", "cli", "net_from_document", None),
    ("catalog.make_type", "catalog", "make_type", None),
    ("catalog.make_net", "catalog", "make_net", None),
    ("catalog.fiber_form", "catalog", "F25PlusProvider.fiber_form", None),
    ("qform.rank_at", "qform", "rank_at", None),
    ("qform.discriminant", "qform", "discriminant", None),
    ("qform.new_qform", "qform", "new_qform", None),
    ("clifford.reduce_word", "clifford", "reduce_word", len),
    ("clifford.fiber_algebra", "clifford", "fiber_algebra", None),
    ("clifford.validate", "clifford", "validate_fiber_algebra", None),
    ("clifford.classify", "clifford", "classify", None),
    ("clifford.azumaya", "clifford", "azumaya_at", None),
    ("clifford.trace_pairing", "clifford", "trace_pairing_global", None),
    ("clifford.recover", "clifford", "recover_form", None),
    ("clifford.gamma_bruteforce", "clifford", "gamma_dimension_bruteforce", None),
    ("brauer_severi.bipoly_mul", "brauer_severi", "BiPoly.__mul__", _terms),
    ("brauer_severi.divide", "brauer_severi", "divide_exact_bipoly", None),
    ("brauer_severi.minor", "brauer_severi", "bipoly_minor", None),
    ("brauer_severi.bs_matrix", "brauer_severi", "bs_matrix", None),
    ("poly.evaluate", "poly", "HomogPoly.evaluate", None),
    ("poly.mul", "poly", "HomogPoly.__mul__", _terms),
    ("poly.det", "poly", "det", None),
    ("poly.divide_exact", "poly", "divide_exact", None),
    ("poly.sqrt", "poly", "poly_sqrt", None),
    ("poly.parse", "poly", "parse_poly", None),
    ("linalg.rref", "linalg", "rref", None),
    ("scalars.fp_sqrt", "scalars", "PrimeField.sqrt", None),
    ("series.expand", "series", "series_expand", None),
)

# (counter name, module, attribute path, arity): calls counted in the
# counting pass.  Fixed-arity wrappers halve the cost of counting.
COUNT_TARGETS = (
    ("scalars.fp_new", "scalars", "FpElement.__init__", 3),
    ("scalars.fp_mul", "scalars", "FpElement.__mul__", 2),
    ("scalars.fp_add", "scalars", "FpElement.__add__", 2),
    ("scalars.fp_pow", "scalars", "FpElement.__pow__", 2),
    ("scalars.fp_div", "scalars", "FpElement.__truediv__", 2),
    ("scalars.fp_div", "scalars", "FpElement.__rtruediv__", 2),
    ("scalars.qq_coerce", "scalars", "Rationals.__call__", 2),
)


class _Patches:
    """Replace every reference to a program function, and undo it."""

    def __init__(self):
        self._undo = []

    def replace(self, module: str, path: str, make_wrapper) -> None:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if outer:
            # A class may bind one function under two names (__rmul__ = __mul__).
            holders = [(owner, k) for k, v in list(vars(owner).items())
                       if v is original]
        else:
            holders = [(mod, k)
                       for mod_name, mod in list(sys.modules.items())
                       if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                       for k, v in list(vars(mod).items()) if v is original]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self._undo.append((holder, key, original))

    def restore(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


class SpanRecorder:
    """Timed spans around the SPAN_TARGETS, plus result-size counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.job_id = -1
        self.counts = {}
        self._stack = [-1]
        self._patches = _Patches()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, measure):
        nid = self._name_id(name)
        count_name = f"{name}_terms_out"
        stack = self._stack
        rec = self
        clock = time.perf_counter_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(rec.start)
                rec.name.append(nid)
                rec.parent.append(stack[-1])
                rec.job.append(rec.job_id)
                rec.start.append(0)
                rec.end.append(0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    rec.start[idx] = t0
                    rec.end[idx] = t1
                if measure is not None:
                    rec.counts[count_name] = (rec.counts.get(count_name, 0)
                                              + measure(result))
                return result
            return wrapper
        return make

    def _counted_generator(self, name: str):
        rec = self

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    rec.counts[name] = rec.counts.get(name, 0) + 1
                    yield item
            return wrapper
        return make

    def install(self) -> None:
        for name, module, path, measure in SPAN_TARGETS:
            self._patches.replace(module, path, self._span(name, measure))
        self._patches.replace("qform", "projective_points",
                              self._counted_generator("qform.points"))

    def uninstall(self) -> None:
        self._patches.restore()

    def aggregate(self, first: int = 0, last: int | None = None):
        """Per span name over spans [first, last): calls, self and total ns.

        Self time is a span's duration minus that of its direct children;
        spans nest because the program runs on one thread while traced.
        Also returns, per (parent name, child name), the number of calls.
        """
        last = len(self.start) if last is None else last
        child = array("q", bytes(8 * (last - first)))
        edges = {}
        for i in range(first, last):
            par = self.parent[i]
            if par >= first:
                child[par - first] += self.end[i] - self.start[i]
                key = (self.names[self.name[par]], self.names[self.name[i]])
                edges[key] = edges.get(key, 0) + 1
        totals = {}
        for i in range(first, last):
            entry = totals.setdefault(self.names[self.name[i]], [0, 0, 0])
            duration = self.end[i] - self.start[i]
            entry[0] += 1
            entry[1] += duration - child[i - first]
            entry[2] += duration
        return totals, edges

    def write(self, path, jobs) -> None:
        """Write every span, column by column, as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "jobs": jobs,
                       "name": self.name.tolist(),
                       "start_ns": self.start.tolist(),
                       "end_ns": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "job": self.job.tolist()}, fh)


class OpCounter:
    """Call counts of the COUNT_TARGETS, for the separate counting pass."""

    def __init__(self):
        self._cells = {name: [0] for name, _, _, _ in COUNT_TARGETS}
        self._patches = _Patches()

    @property
    def counts(self) -> dict:
        return {name: cell[0] for name, cell in self._cells.items()}

    @staticmethod
    def _counting(cell, arity):
        def make(fn):
            if arity == 2:
                def wrapper(a, b):
                    cell[0] += 1
                    return fn(a, b)
            else:
                def wrapper(a, b, c):
                    cell[0] += 1
                    return fn(a, b, c)
            return wrapper
        return make

    def install(self) -> None:
        for name, module, path, arity in COUNT_TARGETS:
            self._patches.replace(module, path, self._counting(self._cells[name], arity))

    def uninstall(self) -> None:
        self._patches.restore()
