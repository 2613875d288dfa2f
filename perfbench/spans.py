"""Spans around the public functions of each cellspan module.

The tracer replaces each target function by a wrapper in every cellspan
module that binds it (``chain`` and ``trees`` import ``char_poly`` and
``rank_exact`` by name; ``cli`` and ``verify`` share the ``SUITES``
dict), records one span per call in memory, and writes all spans out
when asked.  The arithmetic operators of ``IntMatrix``, ``IntPoly`` and
``LaurentPoly`` are never wrapped: the weighted cube:4 job alone makes
about 1.1 million ``LaurentPoly`` products.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute path).  Methods are named by their
# method name alone, e.g. chain.laplacian for ChainComplex.laplacian.
TARGETS = (
    ("exact.char_poly", "cellspan.exact", "char_poly"),
    ("exact.integer_spectrum", "cellspan.exact", "integer_spectrum"),
    ("exact.rank_exact", "cellspan.exact", "rank_exact"),
    ("exact.smith_normal_form", "cellspan.exact", "smith_normal_form"),
    ("exact.det_exact", "cellspan.exact", "det_exact"),
    ("exact.det_ring", "cellspan.exact", "det_ring"),
    ("chain.from_json_dict", "cellspan.chain", "ChainComplex.from_json_dict"),
    ("chain.laplacian", "cellspan.chain", "ChainComplex.laplacian"),
    ("chain.spectrum", "cellspan.chain", "ChainComplex.spectrum"),
    ("chain.homology", "cellspan.chain", "ChainComplex.homology"),
    ("chain.char_polynomial", "cellspan.chain", "ChainComplex.char_polynomial"),
    ("trees.enumerate_trees", "cellspan.trees", "enumerate_trees"),
    ("trees.tau_matrix_tree", "cellspan.trees", "tau_matrix_tree"),
    ("trees.weighted_tau_matrix_tree", "cellspan.trees", "weighted_tau_matrix_tree"),
    ("trees.tau_alternating", "cellspan.trees", "tau_alternating"),
    ("cubical.to_chain", "cellspan.cubical", "CubicalComplex.to_chain"),
    ("cubical.weighted_diag_laplacian", "cellspan.cubical", "weighted_diag_laplacian"),
    ("cubical.mirror", "cellspan.cubical", "mirror"),
    ("colorful.colorful_complex", "cellspan.colorful", "colorful_complex"),
    ("colorful.colorful_etot", "cellspan.colorful", "colorful_etot"),
    ("colorful.cross_polytope_cube_duality", "cellspan.colorful",
     "cross_polytope_cube_duality"),
    ("corpus.identity_corpus", "cellspan.corpus", "identity_corpus"),
    ("corpus.mirror_corpus", "cellspan.corpus", "mirror_corpus"),
    ("corpus.colorful_corpus", "cellspan.corpus", "colorful_corpus"),
    ("verify.identities", "cellspan.verify", "suite_identities"),
    ("verify.duality", "cellspan.verify", "suite_duality"),
    ("verify.conjectures", "cellspan.verify", "suite_conjectures"),
)

# Layers whose functions are reported with calls, s and self_s; the
# others get s alone.
FULL_LAYERS = ("exact", "chain", "trees")


class Tracer:
    """In-memory spans: [name, id of the parent span or -1, start, end,
    outermost], where outermost is false for a call nested in another
    call of the same name (ChainComplex.laplacian recurses for tot)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.depth: dict = defaultdict(int)
        self.enabled = False
        self.counters: dict = defaultdict(int)
        self.char_poly_inputs: list = []
        self._undo: list = []

    # -- recording

    def _enter(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0,
                self.depth[name] == 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.depth[name] += 1
        return span

    def _exit(self, span: list) -> None:
        self.stack.pop()
        self.depth[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens (one CLI call)."""
        span = self._enter(name)
        span[2] = perf_counter()
        try:
            yield
        finally:
            span[3] = perf_counter()
            self._exit(span)

    def wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not tracer.enabled:
                return fn(*args, **kw)
            span = tracer._enter(name)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                span[3] = perf_counter()
                tracer._exit(span)
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    # -- installing

    def install(self) -> None:
        """Wrap every target wherever a cellspan module binds it."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "cellspan" or n.startswith("cellspan.")]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._set(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self.wrap(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, new)
                    elif isinstance(val, dict):
                        for key, v in list(val.items()):
                            if v is orig:
                                self._undo.append((val, key, orig, True))
                                val[key] = new

    def _set(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, vars(obj)[attr], False))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        for obj, attr, old, is_dict in reversed(self._undo):
            if is_dict:
                obj[attr] = old
            else:
                setattr(obj, attr, old)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.depth.clear()
        self.counters.clear()
        self.char_poly_inputs.clear()

    # -- results

    def metrics(self) -> dict:
        """Per-function calls, inclusive seconds (outermost calls only)
        and self seconds (duration less that of direct child spans),
        plus the counters the after-hooks collected."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict = defaultdict(int)
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for idx, (name, _parent, t0, t1, outer) in enumerate(self.spans):
            calls[name] += 1
            if outer:
                incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[idx]
        out = {}
        for name, _mod, _path in TARGETS:
            layer = name.split(".")[0]
            if layer in FULL_LAYERS:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.s"] = incl[name]
                out[f"{name}.self_s"] = self_s[name]
            else:
                out[f"{name}.s"] = incl[name]
        for name in list(calls):
            if name.startswith("cli."):
                out[f"{name}.s"] = incl[name]
        inputs = self.char_poly_inputs
        out["exact.char_poly.distinct"] = len(set(inputs))
        out["exact.char_poly.side_max"] = max((m.nrows for m in inputs), default=0)
        out["exact.char_poly.side_cubed_sum"] = sum(m.nrows ** 3 for m in inputs)
        for key in ("trees.enumerate_trees.subsets", "trees.enumerate_trees.trees",
                    "trees.tau_matrix_tree.rank_calls"):
            out[key] = self.counters[key]
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: id, parent id, name, start, end."""
        with open(path, "w") as fh:
            for idx, (name, parent, t0, t1, _) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, round(t0, 7), round(t1, 7)]))
                fh.write("\n")


# Counters read from a call's input and output, after its span closed.

def _after_char_poly(tracer, args, out):
    tracer.char_poly_inputs.append(args[0])


def _after_rank_exact(tracer, args, out):
    if tracer.depth["trees.tau_matrix_tree"]:
        tracer.counters["trees.tau_matrix_tree.rank_calls"] += 1


def _after_enumerate_trees(tracer, args, out):
    q = args[0]
    if out.per_tree:
        # every tree has the forced size, so the first one gives it
        size = len(out.per_tree[0][0])
    else:
        from cellspan.trees import cst_target_size
        enabled, tracer.enabled = tracer.enabled, False
        try:
            size = cst_target_size(q.chain.skeleton(q.k), q.k)
        finally:
            tracer.enabled = enabled
    tracer.counters["trees.enumerate_trees.subsets"] += math.comb(
        q.chain.n_cells(q.k), size)
    tracer.counters["trees.enumerate_trees.trees"] += out.trees


_AFTER = {
    "exact.char_poly": _after_char_poly,
    "exact.rank_exact": _after_rank_exact,
    "trees.enumerate_trees": _after_enumerate_trees,
}
