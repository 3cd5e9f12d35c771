"""Spans and counts recorded from outside the program, at the boundaries of
the ``weylpi`` modules.

Each boundary function is wrapped in place: every binding of the function
object in the ``weylpi.*`` modules is replaced (``from .x import y`` makes
copies), and methods are replaced on their class.  A span records name,
start, end, parent span and operation id; spans stay in memory until the
run writes them out.  A boundary missing at some commit is listed in
``absent`` and reported, not treated as an error.
"""

import functools
import gzip
import json
import sys
from time import perf_counter

# (span name, module, attribute); the layer is the part of the name before
# the first dot, which is the module's name.
BOUNDARIES = (
    ("bracket.enumerate", "weylpi.bracket", "enumerate_completely_reduced"),
    ("bracket.expand", "weylpi.bracket", "BracketMonomial.expand"),
    ("evaluation.generic", "weylpi.evaluation", "generic_substitution"),
    ("evaluation.tuple", "weylpi.evaluation", "substitute_tuple"),
    ("evaluation.weak", "weylpi.evaluation", "is_weak_identity"),
    ("weyl.mul", "weylpi.weyl", "WeylElement.__mul__"),
    ("linalg.sparse", "weylpi.linalg", "row_reduce_sparse"),
    ("linalg.dense", "weylpi.linalg", "rref_vectors"),
    ("identities.verify", "weylpi.identities", "verify_conjecture"),
    ("identities.basis", "weylpi.identities", "identity_basis"),
    ("identities.span", "weylpi.identities", "ideal_span_dimension"),
    ("free_algebra.mul", "weylpi.free_algebra", "NCPoly.__mul__"),
    ("rewriter.normal_form", "weylpi.rewriter", "normal_form"),
    ("parser.parse", "weylpi.parser", "parse_poly"),
    ("parser.format", "weylpi.parser", "format_poly"),
)
LAYERS = ("bracket", "evaluation", "weyl", "linalg", "identities", "free_algebra",
          "rewriter", "parser")
OP = "bench.op"  # root span of one operation; its self time is benchmark glue


class Tracer:
    """Patches the boundaries while active (``with tracer:``).

    With ``counting`` set, it also collects exact work counts from the
    arguments and results of the calls, and runs ``normal_form`` with a
    trace list to count rewrite steps.  Counting changes the work done, so
    a counting pass is never timed.
    """

    def __init__(self, counting=False):
        self.counting = counting
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = {}
        self.absent = []
        self.rows_seen = {}  # op id -> rows fed to the eliminator in that op
        self._stack = [-1]
        self._op = -1
        self._undo = []

    # -- patching -------------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "weylpi" or n.startswith("weylpi."))]
        for name, modname, attr in BOUNDARIES:
            owner_name, _, fname = attr.rpartition(".")
            mod = sys.modules.get(modname)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(fname) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if owner_name:
                self._patch(owner, fname, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _patch(self, owner, key, wrapper):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.counting and name == "rewriter.normal_form" and kwargs.get("trace") is None:
                kwargs["trace"] = steps = []
                result = tracer._call(name, fn, args, kwargs)
                tracer.add("rewriter.steps", len(steps))
            else:
                result = tracer._call(name, fn, args, kwargs)
            if tracer.counting and count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1]
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)
            self.add(name + ".calls", 1)

    def op(self, op_id, fn, *args):
        """Run one operation under a root span."""
        self._op = op_id
        return self._call(OP, fn, args, {})

    def parent_name(self):
        parent = self._stack[-1]
        return self.spans[parent][0] if parent >= 0 else None

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self):
        """Self seconds per span name: duration minus the direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def inclusive_seconds(self, layer):
        """Seconds inside the layer's outermost spans, children included."""
        inside = [False] * len(self.spans)  # a span of the layer is an ancestor
        total = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                inside[idx] = inside[parent] or self.spans[parent][0].split(".")[0] == layer
            if name.split(".")[0] == layer and not inside[idx]:
                total += end - start
        return total

    def op_seconds(self):
        return sum(end - start for name, start, end, _, _ in self.spans if name == OP)

    def write(self, path):
        """Spans as gzipped JSON lines: name, start and end in microseconds
        from the first span, parent index, operation id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), parent, op]) + "\n")


# -- exact counts, collected only on the counting pass ------------------------


def _count_enumerate(tracer, args, result):
    tracer.add("bracket.monomials", len(result))


def _count_generic(tracer, args, result):
    tracer.add("evaluation.terms_out", sum(len(c.terms) for c in result.terms.values()))


def _count_sparse(tracer, args, result):
    rows = args[0]
    seen = tracer.rows_seen.setdefault(tracer._op, {})
    tracer.add("linalg.rows_refed", sum(id(r) in seen for r in rows))
    seen.update((id(r), r) for r in rows)  # holding the rows keeps their ids unique
    tracer.add("linalg.rows_in", len(rows))
    tracer.add("linalg.nnz_in", sum(len(r) for r in rows))
    tracer.add("linalg.rank", result[0])
    if tracer.parent_name() == "identities.span":
        tracer.add("identities.span_rows", len(rows))


def _count_dense(tracer, args, result):
    vectors, length = args[0], args[1]
    tracer.add("linalg.dense_cells", len(vectors) * length)


def _count_verify(tracer, args, result):
    tracer.add("identities.reports", 1)
    tracer.add("identities.shortcuts", int(result.eval_rank == result.n_reduced))


def _count_normal_form(tracer, args, result):
    tracer.add("rewriter.terms_out", sum(len(nf.terms) for nf in result.values()))


_COUNTERS = {
    "bracket.enumerate": _count_enumerate,
    "evaluation.generic": _count_generic,
    "linalg.sparse": _count_sparse,
    "linalg.dense": _count_dense,
    "identities.verify": _count_verify,
    "rewriter.normal_form": _count_normal_form,
}
