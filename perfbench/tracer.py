"""Call wrappers that measure the nfsasym layers from outside the package.

Every wrapper records call count, total time (outermost call only, so a
recursive call is not counted twice) and self time (total minus the time
spent in nested wrapped calls).  Span wrappers also keep one
(name, start, end, parent) record per call; counter wrappers keep only the
aggregates, because the exact-arithmetic layer makes more than 500k calls
per proof and a record per call would swamp the measurement.  Counters
wrap binary operators only, so their wrapper takes exactly two arguments
and skips the cost of packing them.

A function imported by name into another module (``from .asym import p_of``)
is a separate binding, so ``install`` patches every ``nfsasym`` module
attribute and every class attribute that holds the original object, not
just the defining module's.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute, kind).  An attribute "Class.method"
# names a method patched on the class.
TARGETS = (
    ("nfsopt.compute_proven_expansion", "nfsasym.nfsopt", "compute_proven_expansion", "span"),
    ("nfsopt.guess_terms", "nfsasym.nfsopt", "guess_terms", "span"),
    ("nfsopt.prove_existence", "nfsasym.nfsopt", "prove_existence", "span"),
    ("nfsopt.prove_minimality", "nfsasym.nfsopt", "prove_minimality", "span"),
    ("nfsopt.build_constraint", "nfsasym.nfsopt", "build_constraint", "span"),
    ("nfsopt.unknownpoly_mul", "nfsasym.nfsopt", "UnknownPoly.__mul__", "counter"),
    ("asym.p_of", "nfsasym.asym", "p_of", "span"),
    ("asym.asym_div", "nfsasym.asym", "asym_div", "span"),
    ("asym.asym_mul", "nfsasym.asym", "asym_mul", "span"),
    ("pseries.mul", "nfsasym.pseries", "TruncatedBiSeries.__mul__", "span"),
    ("pseries.inverse", "nfsasym.pseries", "TruncatedBiSeries.inverse", "span"),
    ("pseries.log", "nfsasym.pseries", "TruncatedBiSeries.log", "span"),
    ("pseries.compose", "nfsasym.pseries", "TruncatedBiSeries.compose", "span"),
    ("exact.logconst_mul", "nfsasym.exact", "LogConstant.__mul__", "counter"),
    ("exact.logconst_add", "nfsasym.exact", "LogConstant.__add__", "counter"),
    ("dickman.q_series", "nfsasym.dickman", "q_series", "span"),
    ("dickman.rho_numeric", "nfsasym.dickman", "rho_numeric", "span"),
    ("dickman.log_rho_debruijn", "nfsasym.dickman", "log_rho_debruijn", "span"),
    ("dickman.radius_constant", "nfsasym.dickman", "radius_constant", "span"),
    ("evalkit.figure_data", "nfsasym.evalkit", "figure_data", "span"),
    ("evalkit.xi_eval", "nfsasym.evalkit", "xi_eval", "span"),
    ("evalkit.xi_eval_loglog", "nfsasym.evalkit", "xi_eval_loglog", "span"),
    ("evalkit.complexity_log", "nfsasym.evalkit", "complexity_log", "span"),
    ("cache.save_expansion", "nfsasym.cache", "save_expansion", "span"),
    ("cache.load_expansion", "nfsasym.cache", "load_expansion", "span"),
    ("cache.verify_expansion", "nfsasym.cache", "verify_expansion", "span"),
)


class Recorder:
    """Aggregates and spans of one traced pass, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, depth]
        self.spans: list[tuple] = []      # (name, start, end, parent index)
        self._child = [0.0]               # nested wrapped time of each open call
        self._open_spans = [-1]
        self.missing: list[str] = []

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def counter(self, name, fn):
        st = self._stat(name)
        child = self._child
        perf = time.perf_counter

        def wrapper(a, b):
            child.append(0.0)
            st[3] += 1
            t0 = perf()
            try:
                return fn(a, b)
            finally:
                dt = perf() - t0
                nested = child.pop()
                child[-1] += dt
                st[0] += 1
                st[2] += dt - nested
                st[3] -= 1
                if not st[3]:
                    st[1] += dt

        return wrapper

    def span(self, name, fn):
        st = self._stat(name)
        child = self._child
        spans = self.spans
        open_spans = self._open_spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(index)
            child.append(0.0)
            st[3] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                nested = child.pop()
                child[-1] += dt
                open_spans.pop()
                spans[index] = (name, t0, t1, parent)
                st[0] += 1
                st[2] += dt - nested
                st[3] -= 1
                if not st[3]:
                    st[1] += dt

        return wrapper

    def install(self) -> None:
        """Patch every binding of each target inside the loaded nfsasym modules."""
        for name, module_name, attr, kind in TARGETS:
            module = sys.modules.get(module_name)
            owner = module
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None) if owner is not None else None
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = (self.span if kind == "span" else self.counter)(name, original)
            if owner is module:
                bindings = [m for key, m in sys.modules.items()
                            if key == "nfsasym" or key.startswith("nfsasym.")]
            else:
                bindings = [owner]
            for holder in bindings:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def summary(self) -> dict:
        return {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                for name, st in self.stats.items()}
