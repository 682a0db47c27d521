"""Span tracing of reachbench's layers, installed from outside the package.

The tracer replaces the public functions that each module exposes to its
callers with timing wrappers, in every ``reachbench`` namespace that binds
them (a function imported with ``from .x import f`` is called through the
importing module's binding, so the defining module alone is not enough).
Spans are kept in memory as ``[name, start, end, parent]``; the runner
writes them out once, when the run ends.  Counts (parser steps, resampled
rows, EM iterations, ...) are recorded at the same boundaries from the
calls' arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# The prefix of the spans the runner opens around its timed entry calls;
# their self time is what the cli layer spends outside every traced layer.
ROOT_PREFIX = "op:"

# span name -> (defining module, function).  The span name's prefix is the
# layer that the per-layer metrics are grouped by.
TARGETS = {
    "grammargen.generate": ("reachbench.grammargen", "generate_grammar"),
    "codegen.compile": ("reachbench.codegen", "compile_to_parser"),
    "codegen.export": ("reachbench.codegen", "export_c_source"),
    "codegen.exec": ("reachbench.codegen", "execute_parser"),
    "fuzzer.seed_corpus": ("reachbench.fuzzer", "generate_seed_corpus"),
    "fuzzer.campaign": ("reachbench.fuzzer", "run_campaign"),
    "fuzzer.parse_units": ("reachbench.fuzzer", "parse_units"),
    "incidence.build": ("reachbench.incidence", "build_incidence_matrix"),
    "incidence.rebin": ("reachbench.incidence", "rebin"),
    "estimators.estimate": ("reachbench.estimators", "estimate"),
    "estimators.bootstrap": ("reachbench.estimators", "bootstrap_ci"),
    "estimators.fit": ("reachbench.estimators", "point_estimates"),
    "evaluation.sensitivity": ("reachbench.evaluation", "sensitivity_analysis"),
    "stattests.welch": ("reachbench.stattests", "welch_t_test"),
    "stattests.shapiro": ("reachbench.stattests", "shapiro_wilk"),
    "stattests.mann_whitney": ("reachbench.stattests", "mann_whitney_u"),
}


def _count_exec(counts, args, kwargs, result):
    counts["codegen.steps"] += result.steps


def _count_fit(counts, args, kwargs, result):
    counts["estimators.fit_rows"] += len(args[0])
    counts["estimators.em_iterations"] += sum(
        d.get("iterations", 0) for _, _, d in result)


def _count_bootstrap(counts, args, kwargs, result):
    b = kwargs["b"] if "b" in kwargs else (args[4] if len(args) > 4 else 500)
    counts["estimators.resamples"] += b
    counts["estimators.boot_kept"] += result[2]


def _count_estimate(counts, args, kwargs, result):
    if result.status == "failed":
        counts["estimators.status_failed"] += 1
    elif result.ci_low < len(args[0].element_ids):
        counts["estimators.ci_below_sobs"] += 1


COUNTERS = {
    "codegen.exec": _count_exec,
    "estimators.fit": _count_fit,
    "estimators.bootstrap": _count_bootstrap,
    "estimators.estimate": _count_estimate,
}


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns its result."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every reachbench binding of each target function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "reachbench" or n.startswith("reachbench.")) and m is not None]
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def aggregate(spans):
    """Per span name: calls, total duration and self time.

    A span's self time is its duration minus the time its child spans
    cover; calls run on one thread, so children never overlap and that
    cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for (name, start, end, _), covered in zip(spans, child):
        entry = out[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - covered
    return out


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced round."""
    agg = aggregate(spans)

    def total(name):
        return agg[name]["total"] if name in agg else 0.0

    def self_time(name):
        return agg[name]["self"] if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    campaign_s = total("fuzzer.campaign")
    resamples = counts.get("estimators.resamples", 0)
    kept = counts.get("estimators.boot_kept", 0)
    stat_names = ("stattests.welch", "stattests.shapiro", "stattests.mann_whitney")
    return {
        "codegen.exec_calls": (calls("codegen.exec"), "count"),
        "codegen.exec_s": (total("codegen.exec"), "s"),
        "codegen.steps": (counts.get("codegen.steps", 0), "count"),
        "codegen.compile_s": (total("codegen.compile"), "s"),
        "codegen.export_s": (total("codegen.export"), "s"),
        "grammargen.generate_s": (total("grammargen.generate"), "s"),
        "fuzzer.campaign_s": (campaign_s, "s"),
        "fuzzer.self_s": (self_time("fuzzer.campaign"), "s"),
        "fuzzer.execs_per_s": (calls("codegen.exec") / campaign_s if campaign_s else 0.0, "1/s"),
        "fuzzer.seed_corpus_s": (total("fuzzer.seed_corpus"), "s"),
        "fuzzer.parse_units_s": (total("fuzzer.parse_units"), "s"),
        "incidence.build_s": (total("incidence.build"), "s"),
        "incidence.build_calls": (calls("incidence.build"), "count"),
        "incidence.rebin_s": (total("incidence.rebin"), "s"),
        "incidence.rebin_calls": (calls("incidence.rebin"), "count"),
        "estimators.estimate_s": (total("estimators.estimate"), "s"),
        "estimators.estimate_calls": (calls("estimators.estimate"), "count"),
        "estimators.bootstrap_s": (total("estimators.bootstrap"), "s"),
        "estimators.bootstrap_calls": (calls("estimators.bootstrap"), "count"),
        "estimators.resample_s": (self_time("estimators.bootstrap"), "s"),
        "estimators.fit_s": (total("estimators.fit"), "s"),
        "estimators.fit_rows": (counts.get("estimators.fit_rows", 0), "count"),
        "estimators.resamples": (resamples, "count"),
        "estimators.em_iterations": (counts.get("estimators.em_iterations", 0), "count"),
        "estimators.boot_dropped": (resamples - kept, "count"),
        "estimators.boot_kept_ratio": (kept / resamples if resamples else 0.0, "ratio"),
        "estimators.status_failed": (counts.get("estimators.status_failed", 0), "count"),
        "estimators.ci_below_sobs": (counts.get("estimators.ci_below_sobs", 0), "count"),
        "evaluation.sensitivity_s": (total("evaluation.sensitivity"), "s"),
        "evaluation.self_s": (self_time("evaluation.sensitivity"), "s"),
        "stattests.calls": (sum(calls(n) for n in stat_names), "count"),
        "stattests.s": (sum(total(n) for n in stat_names), "s"),
        "cli.self_s": (sum(e["self"] for n, e in agg.items() if n.startswith(ROOT_PREFIX)), "s"),
    }
