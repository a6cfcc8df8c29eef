"""Outside-in tracing of dgkoszul's public functions.

The benchmark changes no source file: it replaces each traced function
with a timing wrapper at every place the name is bound, that is the
attribute of the defining module, every ``from ... import`` binding in a
``dgkoszul`` module, and the class attribute for methods.  Each call is a
span (id, parent id, job index, name, start, end) kept in memory.  A
function's self time is its spans' durations minus the part covered by
their child spans.

Modules that are not traced (fields, poly, rings, dgring, cli) are too
fine-grained: ``leading_term`` alone runs millions of times per pass, and a
wrapper would distort the timings.  Their time lands in the self time of
the nearest traced caller, mostly ``groebner.normal_form``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TRACED = {
    "parse": ("parse_poly",),
    "groebner": (
        "buchberger",
        "normal_form",
        "interreduce",
        "TaggedBasis.__init__",
        "TaggedBasis.lift",
    ),
    "hilbert": ("lead_module_series", "monomial_quotient_series"),
    "modules": (
        "ModuleMap.kernel",
        "FPModule.minimize",
        "min_gens",
        "FPModule.hilbert_series",
        "FPModule.annihilator",
    ),
    "complexes": (
        "Complex.homology",
        "tensor_complexes",
        "truncation_oracle",
        "homology_hilbert_functions",
    ),
    "linalg": ("_ModP.rref", "_ModP.rank", "_Rational.rref", "_Rational.rank"),
    "invariants": ("compute_invariants", "greedy_regular_sequence"),
    "duality": (
        "free_resolution",
        "dualizing_complex",
        "dualizing_of_koszul",
        "is_gorenstein_ring",
    ),
    "checks": ("run_check",),
    "jobs": ("run_job", "canonical_json"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
RREF_NAMES = ("linalg._ModP.rref", "linalg._Rational.rref")
UNTRACED_NOTE = (
    "fields, poly, rings, dgring and cli are not traced; their time lands in "
    "the self time of the nearest traced caller, mostly groebner.normal_form"
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []
        self._numerator = None
        self._numerator_before = None

    def _wrap(self, name, fn, before=None, after=None, on_error=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            if before is not None:
                before(args)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (span_id, parent, self.job, name, start, end)
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, name, gb):
        counts = self.counts
        if name == "groebner.normal_form":
            def after(result):
                remainder = result[0] if isinstance(result, tuple) else result
                counts["groebner.normal_form.zeros"] += not remainder
            return {"after": after}
        if name == "groebner.buchberger":
            def after(result):
                counts["groebner.buchberger.basis_out"] += len(result)

            def on_error(exc):
                counts["groebner.buchberger.cap_hits"] += isinstance(exc, gb.DegreeCapExceeded)
            return {"after": after, "on_error": on_error}
        if name in RREF_NAMES:
            def before(args):
                rows = args[1]
                counts[f"{name}.entries"] += len(rows) * (len(rows[0]) if len(rows) else 0)
            return {"before": before}
        return {}

    def install(self) -> tuple[int, list[str]]:
        """Wrap every traced function.  Returns the number of bindings
        replaced and the traced names that the program no longer defines
        (those report zero calls)."""
        gb = sys.modules["dgkoszul.groebner"]
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "dgkoszul" or key.startswith("dgkoszul.")
        ]
        replaced, missing = 0, []
        for modname, functions in TRACED.items():
            module = sys.modules.get(f"dgkoszul.{modname}")
            for qualname in functions:
                name = f"{modname}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    missing.append(name)
                    continue
                wrapped = self._wrap(name, original, **self._hooks(name, gb))
                if owner_name:
                    setattr(owner, attr, wrapped)
                    replaced += 1
                    continue
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            replaced += 1
        self._numerator = getattr(sys.modules["dgkoszul.hilbert"], "_numerator", None)
        if self._numerator is not None:
            self._numerator_before = self._numerator.cache_info()
        return replaced, missing

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        nf_calls = self.calls["groebner.normal_form"]
        out["groebner.normal_form.zero_ratio"] = (
            self.counts["groebner.normal_form.zeros"] / nf_calls if nf_calls else 0.0
        )
        out["groebner.buchberger.basis_out"] = self.counts["groebner.buchberger.basis_out"]
        out["groebner.buchberger.cap_hits"] = self.counts["groebner.buchberger.cap_hits"]
        hits = lookups = 0
        if self._numerator is not None:
            info, before = self._numerator.cache_info(), self._numerator_before
            hits = info.hits - before.hits
            lookups = hits + info.misses - before.misses
        out["hilbert.numerator.lookups"] = lookups
        out["hilbert.numerator.hit_ratio"] = hits / lookups if lookups else 0.0
        for name in RREF_NAMES:
            out[f"{name}.entries"] = self.counts[f"{name}.entries"]
        return out
