"""Spans around each layer's entry functions, installed from outside.

``install`` replaces every module attribute of the package that is bound to
a layer entry function (``pmv.empirical_pmv`` and ``hyptest.empirical_pmv``
alike) with a wrapper that records a span, and ``uninstall`` puts the
originals back.  Spans stay in memory as
``(op_id, span_id, parent_id, name, start, end)`` tuples until the run
writes them out.
"""

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter


def _obs(counts, fn, args, kwargs, result):
    counts["pmv.empirical_pmv.obs"] += result.n


def _dim(counts, fn, args, kwargs, result):
    counts["symlin.eigh.dim"] += len(args[0])


def _rows(counts, fn, args, kwargs, result):
    if isinstance(result, tuple):  # read_paired_file: (table, names)
        counts["cli.read.rows"] += result[0].shape[0]
    else:
        counts["cli.read.rows"] += sum(v.size for v in result.variables)


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _test_report(counts, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counts["hyptest.tests"] += 1
    counts["hyptest.fallbacks"] += result.fallback_used
    counts["hyptest.degraded"] += (
        bound.arguments["rank_policy"] == "analytic"
        and result.rank_policy != "analytic")
    counts["hyptest.gcd_positive"] += result.diagnostics.get("gcd_degree", 0) >= 1


def _sim_result(counts, fn, args, kwargs, result):
    stats = list(result.entries.values())
    counts["simlab.replicates"] += result.L
    counts["simlab.fallbacks"] += max(e.fallback_count for e in stats)


# (span name, module, attribute, hook run on the result)
LAYER_ENTRIES = (
    ("pmv.empirical_pmv", "convstat.pmv", "empirical_pmv", _obs),
    ("pmv.convolve_all", "convstat.pmv", "convolve_all", None),
    ("symlin.eigh", "convstat.symlin", "eigh", _dim),
    ("symlin.chi2_sf", "convstat.symlin", "chi2_sf", None),
    ("polyrank.gcd", "convstat.polyrank", "gcd_degree", None),
    ("polyrank.gcd", "convstat.polyrank", "gcd_many", None),
    ("polyrank.leave_one_out", "convstat.polyrank", "leave_one_out", None),
    ("polyrank.covariance_rank", "convstat.polyrank", "covariance_rank", None),
    ("covest.assembly", "convstat.covest", "_weighted_cov", None),
    ("hyptest.canonicalize", "convstat.hyptest", "canonicalize", None),
    ("hyptest.test", "convstat.hyptest", "gof_test", _test_report),
    ("hyptest.test", "convstat.hyptest", "ed_test", _test_report),
    ("hyptest.test", "convstat.hyptest", "subind_test", _test_report),
    ("simlab.sample_scenario", "convstat.simlab", "sample_scenario", None),
    ("simlab.run_scenario", "convstat.simlab", "run_scenario", _sim_result),
    ("cli.read", "convstat.cli", "read_data_file", _rows),
    ("cli.read", "convstat.cli", "read_paired_file", _rows),
    ("cli.main", "convstat.cli", "main", None),
)
SPAN_NAMES = tuple(dict.fromkeys(entry[0] for entry in LAYER_ENTRIES))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []

    def wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (self.op_id, span_id, parent, name, start, end)
            if hook is not None:
                hook(counts, fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every layer entry; returns an undo list."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "convstat" or name.startswith("convstat.")]
        patched = []
        for name, module, attr, hook in LAYER_ENTRIES:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        patched.append((mod, key, original))
        return patched

    @staticmethod
    def uninstall(patched):
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write('["op_id","span_id","parent_id","name","start","end"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_op(self, units, op_seconds):
        """Per-layer metrics per op unit from the recorded spans.

        ``op_seconds`` is the summed duration of the traced ops; the part of
        it that no top-level span covers is ``unattributed_ms``.
        """
        calls = Counter()
        self_s = Counter()
        top_s = 0.0
        for op_id, _, parent, name, start, end in self.spans:
            if op_id < 0:
                continue
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][3]] -= end - start
            else:
                top_s += end - start
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / units, "count/op")
            out[f"{name}.self_ms"] = (1e3 * self_s[name] / units, "ms/op")
        out["pmv.empirical_pmv.obs"] = (c["pmv.empirical_pmv.obs"] / units,
                                        "count/op")
        out["symlin.eigh.dim_mean"] = (
            c["symlin.eigh.dim"] / calls["symlin.eigh"]
            if calls["symlin.eigh"] else 0.0, "rows")
        out["cli.read.rows"] = (c["cli.read.rows"] / units, "count/op")
        out["hyptest.fallback_ratio"] = (
            ratio("hyptest.fallbacks", "hyptest.tests"), "ratio")
        out["hyptest.degraded_ratio"] = (
            ratio("hyptest.degraded", "hyptest.tests"), "ratio")
        out["hyptest.gcd_positive_ratio"] = (
            ratio("hyptest.gcd_positive", "hyptest.tests"), "ratio")
        out["simlab.fallback_ratio"] = (
            ratio("simlab.fallbacks", "simlab.replicates"), "ratio")
        out["unattributed_ms"] = (1e3 * (op_seconds - top_s) / units, "ms/op")
        return out
