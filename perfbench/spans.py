"""Layer spans recorded from outside the program.

The tracer replaces each public function a workload reaches, in every
module namespace that binds it, with a wrapper that records a span: layer
name, start, end, parent span and op id.  Intra-module calls and
``module.attr`` calls resolve through the module dict, so they are caught
too; ``cli`` binds ``load_graph``, ``sample_planted`` and ``save_graph`` by
from-import and is patched as well.  Per-point and per-step helpers
(``log_binomial``, ``binary_entropy_inv``, ``edge_count``,
``count_in_mask``) are never wrapped.

Work units come from arguments and return values only.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc

MODULES = ("model", "numerics", "landscape", "flatness", "mcmc", "ogp", "cli")


def _flat_layer(b):
    return "flatness.exhaustive" if b.arguments["mode"] == "exhaustive" else "flatness.sampled"


def _enum_subsets(b, res):
    g, kbar, z = b.arguments["g"], b.arguments["kbar"], b.arguments["z"]
    return math.comb(g.k, z) * math.comb(g.n - g.k, kbar - z)


# (module, function, layer or layer-of-arguments, work units or None)
WRAPPED = [
    ("model", "sample_planted", "model.sample", None),
    ("model", "save_graph", "model.save", None),
    ("model", "load_graph", "model.load", lambda b, g: math.comb(g.n, 2)),
    ("numerics", "curve_grid", "numerics.curve", lambda b, c: len(c.points)),
    ("numerics", "classify_curve", "numerics.classify", None),
    ("numerics", "classify_params", "numerics.classify", None),
    ("numerics", "phase_diagram", "numerics.phase", None),
    ("landscape", "densest_with_overlap", "landscape.enum", _enum_subsets),
    ("landscape", "densest_subgraph", "landscape.bnb", None),
    ("landscape", "local_search_densest", "landscape.local", None),
    ("landscape", "densest_prediction", "landscape.predict", None),
    ("flatness", "is_flat", _flat_layer,
     lambda b, r: 2 ** b.arguments["g"].n if r.checked == "Exhaustive" else 0),
    ("flatness", "sample_conditioned", "flatness.sample", None),
    ("mcmc", "run_chain", "mcmc.chain", lambda b, t: t.t_max if t.hit_time is None else t.hit_time),
    ("mcmc", "hitting_time", "mcmc.hit", None),
    ("mcmc", "conditional_init", "mcmc.init", None),
    ("mcmc", "exact_gibbs", "mcmc.exact", lambda b, eg: math.comb(b.arguments["g"].n, b.arguments["kbar"])),
    ("mcmc", "transition_matrix", "mcmc.tmatrix", None),
    ("mcmc", "free_energy_well_ratio", "mcmc.few", None),
    ("ogp", "overlap_curve", "ogp.curve", None),
    ("ogp", "dip_witness", "ogp.dip", None),
    ("ogp", "certify_ogp", "ogp.certify", None),
    ("ogp", "auto_certify", "ogp.auto", None),
    ("cli", "main", "cli.main", None),
]

# span fields
ID, PARENT, OP, LAYER, T0, T1, FAILED, WORK, NESTED = range(9)


class Tracer:
    """Installs wrappers into the plandscape namespaces and records spans."""

    def __init__(self, package):
        self.namespaces = [package] + [getattr(package, m) for m in MODULES]
        self.spans = []
        self.stack = []
        self.op = None
        self.peak_alloc = {}  # span id -> tracemalloc peak bytes (model.sample)
        self.wrappers = {}
        for mod, fname, layer, work in WRAPPED:
            fn = getattr(getattr(package, mod), fname)
            self.wrappers[id(fn)] = (fn, self._wrap(fn, layer, work))
        self.installed = []

    def _wrap(self, fn, layer, work):
        sig = inspect.signature(fn)
        needs_args = callable(layer) or work is not None
        measure_alloc = layer == "model.sample"
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            name = layer(bound) if callable(layer) else layer
            nested = any(spans[s][LAYER] == name for s in stack)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            rec = [len(spans), stack[-1] if stack else None, self.op, name,
                   time.perf_counter(), 0.0, False, 0, nested]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[T1] = time.perf_counter()
                stack.pop()
                if alloc:
                    self.peak_alloc[rec[ID]] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if work is not None:
                rec[WORK] = work(bound, result)
            return result

        return wrapper

    def install(self):
        for ns in self.namespaces:
            for attr, val in list(vars(ns).items()):
                hit = self.wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self.installed.append((ns, attr, val))

    def uninstall(self):
        for ns, attr, val in self.installed:
            setattr(ns, attr, val)
        self.installed = []

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[T1] - s[T0]
        return [s[T1] - s[T0] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, passes):
        """Per-layer figures per traced pass (sums divided by `passes`)."""
        busy, self_s, calls, work, failed = {}, {}, {}, {}, dict.fromkeys(MODULES, 0)
        for s, st in zip(self.spans, self.self_times()):
            name = s[LAYER]
            self_s[name] = self_s.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + s[WORK]
            if not s[NESTED]:
                busy[name] = busy.get(name, 0.0) + s[T1] - s[T0]
            if s[FAILED]:
                failed[name.split(".")[0]] += 1

        def per_pass(table, name):
            return table.get(name, 0) / passes

        def rate(name):
            b = busy.get(name, 0.0)
            return work.get(name, 0) / b if b > 0 else 0.0

        ogp_self = sum(v for k, v in self_s.items() if k.startswith("ogp."))
        points = work.get("numerics.curve", 0)
        m = {
            "model.sample.busy_s": (per_pass(busy, "model.sample"), "s"),
            "model.sample.peak_alloc_mb": (max(self.peak_alloc.values(), default=0) / 2**20, "MB"),
            "model.save.busy_s": (per_pass(busy, "model.save"), "s"),
            "model.load.busy_s": (per_pass(busy, "model.load"), "s"),
            "model.load.pairs_per_s": (rate("model.load"), "1/s"),
            "numerics.curve.busy_s": (per_pass(busy, "numerics.curve"), "s"),
            "numerics.curve.points": (points / passes, "count"),
            "numerics.curve.us_per_point": (busy.get("numerics.curve", 0.0) / points * 1e6 if points else 0.0, "us"),
            "numerics.classify.busy_s": (per_pass(busy, "numerics.classify"), "s"),
            "numerics.phase.busy_s": (per_pass(busy, "numerics.phase"), "s"),
            "landscape.enum.busy_s": (per_pass(busy, "landscape.enum"), "s"),
            "landscape.enum.subsets_per_s": (rate("landscape.enum"), "1/s"),
            "landscape.bnb.self_s": (per_pass(self_s, "landscape.bnb"), "s"),
            "landscape.local.busy_s": (per_pass(busy, "landscape.local"), "s"),
            "landscape.local.calls": (per_pass(calls, "landscape.local"), "count"),
            "ogp.self_s": (ogp_self / passes, "s"),
            "flatness.exhaustive.busy_s": (per_pass(busy, "flatness.exhaustive"), "s"),
            "flatness.exhaustive.masks_per_s": (rate("flatness.exhaustive"), "1/s"),
            "flatness.sampled.self_s": (per_pass(self_s, "flatness.sampled"), "s"),
            "flatness.sample.busy_s": (per_pass(busy, "flatness.sample"), "s"),
            "mcmc.chain.busy_s": (per_pass(busy, "mcmc.chain"), "s"),
            "mcmc.chain.steps_per_s": (rate("mcmc.chain"), "1/s"),
            "mcmc.hit.busy_s": (per_pass(busy, "mcmc.hit"), "s"),
            "mcmc.init.busy_s": (per_pass(busy, "mcmc.init"), "s"),
            "mcmc.exact.busy_s": (per_pass(busy, "mcmc.exact"), "s"),
            "mcmc.exact.states_per_s": (rate("mcmc.exact"), "1/s"),
            "mcmc.tmatrix.busy_s": (per_pass(busy, "mcmc.tmatrix"), "s"),
            "cli.self_s": (per_pass(self_s, "cli.main"), "s"),
        }
        for mod in MODULES:
            m[f"{mod}.failed"] = (failed[mod], "count")
        return m

    def dump(self):
        """Spans as plain records, with self time, for writing out."""
        return [{"id": s[ID], "parent": s[PARENT], "op": s[OP], "layer": s[LAYER],
                 "start": s[T0], "end": s[T1], "self": st, "failed": s[FAILED], "work": s[WORK]}
                for s, st in zip(self.spans, self.self_times())]
