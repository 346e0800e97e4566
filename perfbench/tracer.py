"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces the public functions and methods at each module
boundary of an imported floercas with thin wrappers: a timed wrapper records
a span (id, parent id, name, start, end), a counting wrapper only counts.
Module-level functions are replaced wherever another floercas module holds
a reference to them, so calls through `from .x import f` are seen too.
Nothing under src/floercas is edited, and the program's stdout is untouched.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end]; id 0 is the job
        self._stack = [0]
        self.counts = defaultdict(int)

    # -- wrappers -----------------------------------------------------------
    def _timed(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    @staticmethod
    def _replace_function(orig, new):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("floercas"):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)

    def install(self):
        from floercas import checks, donaldson, exactalg, floer, groebner, linalg

        counts = self.counts

        def note_basis(args, gb):
            counts["groebner.basis_polys"] += len(gb.generators)

        def note_dim(args, cp):
            counts["linalg.charpoly_max_dim"] = max(counts["linalg.charpoly_max_dim"], args[0].nrows)

        functions = [
            (groebner.buchberger, "groebner.buchberger", note_basis),
            (groebner.normal_form, "groebner.normal_form", None),
            (linalg.factor_over_candidates, "linalg.factor", None),
            (floer.primitive_dim_exact, "floer.wedge_kernel", None),
            (donaldson.evaluate, "donaldson.evaluate", None),
            (donaldson.fiber_sum, "donaldson.fiber_sum", None),
        ]
        functions += [(fn, f"checks.{claim}", None) for claim, fn in checks.CRITERIA]
        for fn, name, note in functions:
            self._replace_function(fn, self._timed(name, fn, note))

        methods = [
            (groebner.QuotientRing, "mult_matrix", "groebner.mult_matrix", None),
            (linalg.Matrix, "charpoly", "linalg.charpoly", note_dim),
            (linalg.Matrix, "rref", "linalg.rref", None),
            (linalg.Matrix, "__matmul__", "linalg.matmul", None),
            (exactalg.TruncatedSeries, "__mul__", "exactalg.series_mul", None),
            (exactalg.TruncatedSeries, "__rmul__", "exactalg.series_mul", None),
            (exactalg.TruncatedSeries, "exp", "exactalg.series_exp", None),
        ]
        for cls, attr, name, note in methods:
            setattr(cls, attr, self._timed(name, getattr(cls, attr), note))
        build = floer.SubquotientModule.__dict__["build"].__func__
        floer.SubquotientModule.build = staticmethod(self._timed("floer.subquotient", build))

        gq = exactalg.GaussianRational
        for attr, key in (
            ("__mul__", "exactalg.gq_mul_calls"),
            ("__rmul__", "exactalg.gq_mul_calls"),
            ("__add__", "exactalg.gq_add_calls"),
            ("__radd__", "exactalg.gq_add_calls"),
            ("inv", "exactalg.gq_inv_calls"),
        ):
            setattr(gq, attr, self._counted(key, getattr(gq, attr)))
        self._level_rings = (floer.invariant_ring, floer.gamma_quotient_ring, floer.classical_ring)

    # -- results --------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        duration = {rec[0]: rec[4] - rec[3] for rec in self.spans}
        in_children = defaultdict(float)
        for rec in self.spans:
            in_children[rec[1]] += duration[rec[0]]
        out = defaultdict(float)
        for rec in self.spans:
            out[f"{rec[2]}_s"] += duration[rec[0]] - in_children[rec[0]]
            out[f"{rec[2]}_calls"] += 1
        out.update(self.counts)
        infos = [fn.cache_info() for fn in self._level_rings]
        out["floer.level_ring_hits"] = sum(i.hits for i in infos)
        out["floer.level_ring_misses"] = sum(i.misses for i in infos)
        return dict(out)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": self.layer_metrics(), "spans": self.spans}, fh)
