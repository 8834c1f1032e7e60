"""Outside-in instrumentation of the kgo layers, installed by the worker.

The public functions of each layer module are wrapped from here; the kgo
source is not touched.  Modules import names with ``from .x import y``, so
every kgo module attribute bound to a wrapped function object is rebound to
its wrapper.

In a traced pass every wrapper records a span (layer, function, start, end,
parent span, job id) in memory and updates the per-layer counters.  In an
untraced pass only the rule builders are wrapped, and only to keep the
nodes of each distinct rule for the node check after the timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("special", "quadrature", "oscillator1d", "oscillator3d", "greens", "cli")
# The CLI never reaches gauss_legendre, so only these rules are checked.
RULE_BUILDERS = frozenset({"gauss_hermite", "gauss_laguerre"})
# Special functions the CLI reaches that sweep orders 0..args[0] at the
# points in args[-1].
SWEEPS = frozenset({
    "hermite_function_table", "laguerre_function_table", "hermite_function", "laguerre_function",
})
GRAMS = {"gram_matrix_1d": 1, "radial_gram": 2}  # name -> index of n_max
PROJECTIONS = {"project_1d": 2, "project_radial": 3}  # name -> index of f
COEFF_DEVIATIONS = frozenset({"coefficient_deviation_1d", "coefficient_deviation_radial"})


def rule_key(rule) -> str:
    """Identity of a Gauss rule: family, node count and alpha."""
    return f"{rule.family}:{rule.count}:{rule.alpha}"


class Tracer:
    def __init__(self, record_spans: bool):
        self.record_spans = record_spans
        self.job = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.rules: dict[str, list[float]] = {}
        self.job_rules: dict[int, list[str]] = defaultdict(list)
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap the layer functions and rebind every kgo name bound to them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kgo.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                if self.record_spans or name in RULE_BUILDERS:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kgo" and not mod_name.startswith("kgo."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        record = self.record_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record and name in PROJECTIONS:
                args = self._count_integrand(layer, PROJECTIONS[name], args)
            if not record:
                result = fn(*args, **kwargs)
                self._observe(layer, name, args, result)
                return result
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [layer, name, start, end, parent, self.job]
            self._observe(layer, name, args, result)
            return result

        return wrapper

    def _count_integrand(self, layer, index, args):
        f = args[index]
        counts = self.counts
        key = f"{layer}.integrand_calls"

        def counted(x):
            counts[key] += 1
            return f(x)

        return args[:index] + (counted,) + args[index + 1:]

    def _observe(self, layer, name, args, result):
        """Per-layer counters read from arguments and results, outside any span."""
        if name in RULE_BUILDERS:
            key = rule_key(result)
            self.job_rules[self.job].append(key)
            if key not in self.rules:
                self.rules[key] = result.nodes.tolist()
        if not self.record_spans:
            return
        counts = self.counts
        if name in SWEEPS:
            points = np.size(args[-1])
            counts["special.table_cells"] += (int(args[0]) + 1) * points
            counts["special.small_calls"] += points <= 2
        elif name in GRAMS:
            n = int(args[GRAMS[name]]) + 1
            rule = args[GRAMS[name] + 1]
            counts[f"{layer}.gram_madds"] += n * (n + 1) // 2 * rule.count
            self._maximum(f"{layer}.gram_dev_max", float(np.max(np.abs(result - np.eye(n)))))
        elif name in COEFF_DEVIATIONS:
            self._maximum("greens.coeff_dev_max", float(result))

    def _maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)


def self_times(spans) -> tuple[dict, dict, float]:
    """Self time per layer and per (layer, function), and the root span total.

    A span's self time is its duration minus that of its direct children;
    spans nest strictly because the program is single-threaded.
    """
    child = [0.0] * len(spans)
    for layer, name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    per_layer: dict[str, float] = defaultdict(float)
    per_fn: dict[tuple[str, str], float] = defaultdict(float)
    roots = 0.0
    for i, (layer, name, start, end, parent, job) in enumerate(spans):
        own = end - start - child[i]
        per_layer[layer] += own
        per_fn[layer, name] += own
        if parent < 0:
            roots += end - start
    return per_layer, per_fn, roots


def layer_metrics(report: dict, node_dev_max: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    spans, counts, maxima = report["spans"], Counter(report["counts"]), report["maxima"]
    per_layer, per_fn, roots = self_times(spans)
    calls = Counter((layer, name) for layer, name, *_ in spans)
    builds = [key for keys in report["job_rules"].values() for key in keys]
    energy = sum(1 for layer, name, start, end, parent, job in spans
                 if name in ("energy_1d", "energy_3d") and parent >= 0 and spans[parent][0] == "greens")
    m = {f"{layer}.self_s": per_layer.get(layer, 0.0) for layer in LAYERS}
    m["special.calls"] = sum(n for (layer, _), n in calls.items() if layer == "special")
    m["special.table_cells"] = counts["special.table_cells"]
    m["special.cells_per_s"] = _rate(counts["special.table_cells"], m["special.self_s"])
    m["special.small_calls"] = counts["special.small_calls"]
    m["quadrature.rule_builds"] = len(builds)
    m["quadrature.distinct_rules"] = len(set(builds))
    m["quadrature.reuse_frac"] = 1.0 - len(set(builds)) / len(builds) if builds else 0.0
    m["quadrature.nodes_built"] = sum(int(key.split(":")[1]) for key in builds)
    m["quadrature.node_dev_max"] = node_dev_max
    for layer, gram in (("oscillator1d", "gram_matrix_1d"), ("oscillator3d", "radial_gram")):
        madds = counts[f"{layer}.gram_madds"]
        m[f"{layer}.gram_madds"] = madds
        m[f"{layer}.gram_madds_per_s"] = _rate(madds, per_fn.get((layer, gram), 0.0))
        m[f"{layer}.integrand_calls"] = counts[f"{layer}.integrand_calls"]
        m[f"{layer}.gram_dev_max"] = maxima.get(f"{layer}.gram_dev_max", 0.0)
    m["greens.scalar_calls"] = calls["greens", "greens_1d"] + calls["greens", "greens_3d_partial_wave"]
    m["greens.energy_evals"] = energy
    m["greens.coeff_dev_max"] = maxima.get("greens.coeff_dev_max", 0.0)
    m["cli.jobs"] = calls["cli", "main"]
    m["trace.job_s"] = report["job_s"]
    m["trace.bench_overhead_s"] = report["job_s"] - roots
    return m


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0
