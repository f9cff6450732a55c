"""Spans recorded from outside the program.

A traced operation rebinds, for its duration, the module-level names
through which one carfima layer calls another (and those the benchmark
itself calls), so every call through them opens a span: name, start, end,
parent span and operation id.  Spans stay in memory; per-layer metrics are
derived from them when the run ends.  Nothing under src/ is changed.

The layer of a span is the part of its name before the dot.  Its self time
is its duration minus the time covered by its nearest descendants in other
layers; same-layer children (the Whittle objective inside a fit, vstar
inside autocovariance) count as the parent's own work.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _lags(args, kwargs, result):
    return len(np.atleast_1d(kwargs["lags"] if "lags" in kwargs else args[1]))


def _table(args, kwargs, result):
    return (result.kind, len(result.values))


def _n(args, kwargs, result):
    return int(kwargs["n"] if "n" in kwargs else args[1])


# (module, attribute, span name, what to record from the call)
TARGETS = [
    ("carfima.acf", "u_kernel", "specfun.u_kernel", None),
    ("carfima.acf", "prepare", "model.prepare", None),
    ("carfima.acf", "vstar", "acf.vstar", None),
    ("carfima.acf", "acf_integral_form", "acf.integral_form", None),
    ("carfima.simulate", "prepare", "model.prepare", None),
    ("carfima.simulate", "autocovariance", "acf.autocovariance", _lags),
    ("carfima.simulate", "simulate_fgn", "fgn.simulate_fgn", None),
    ("carfima.simulate", "exact_gaussian_paths", "simulate.exact_gaussian_paths", _n),
    ("carfima.simulate", "simulate_state_euler", "simulate.state_euler", None),
    ("carfima.spectrum", "prepare", "model.prepare", None),
    ("carfima.spectrum", "acf_closed_form", "acf.closed_form", None),
    ("carfima.spectrum", "acf_carma", "acf.carma", None),
    ("carfima.estimate", "prepare", "model.prepare", None),
    ("carfima.estimate", "periodogram", "estimate.periodogram", None),
    ("carfima.estimate", "fit", "estimate.fit", None),
    ("carfima.cli", "main", "cli.main", None),
    ("carfima.cli", "prepare", "model.prepare", None),
    ("carfima.cli", "autocovariance", "acf.autocovariance", _lags),
    ("carfima.cli", "acf_closed_form", "acf.closed_form", None),
    ("carfima.cli", "acf_carma", "acf.carma", None),
    ("carfima.cli", "acf_integral_form", "acf.integral_form", None),
    ("carfima.cli", "vstar", "acf.vstar", None),
    ("carfima.cli", "spectrum_table", "spectrum.table", _table),
    ("carfima.cli", "fourier_consistency_check", "spectrum.fourier_check", None),
    ("carfima.cli", "exact_gaussian_paths", "simulate.exact_gaussian_paths", _n),
    ("carfima.cli", "empirical_acf", "simulate.empirical_acf", None),
    ("carfima.cli", "fit", "estimate.fit", None),
]

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("model.prepare_calls", "count"),
    ("model.prepare_s", "s"),
    ("specfun.u_kernel_calls", "count"),
    ("specfun.u_kernel_s", "s"),
    ("acf.autocovariance_self_s", "s"),
    ("acf.lags_per_s", "1/s"),
    ("acf.integral_form_s", "s"),
    ("acf.vstar_calls", "count"),
    ("spectrum.table_s", "s"),
    ("spectrum.aliased_values_per_s", "1/s"),
    ("spectrum.fourier_check_s", "s"),
    ("fgn.simulate_fgn_s", "s"),
    ("simulate.exact_self_s", "s"),
    ("simulate.factor_gflops", "GFLOP/s"),
    ("simulate.factor_bytes", "bytes"),
    ("simulate.euler_self_s", "s"),
    ("estimate.fit_self_s", "s"),
    ("estimate.objective_evals", "count"),
    ("estimate.ms_per_objective_eval", "ms"),
    ("estimate.nm_iterations", "count"),
    ("estimate.periodogram_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, operation id, info]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def _wrap_minimize(self, minimize):
        def traced_minimize(fun, x0, *args, **kwargs):
            res = minimize(self.wrap("estimate.objective", fun), x0, *args, **kwargs)
            self.counts["estimate.nm_iterations"] += int(res.nit)
            return res

        return traced_minimize

    @contextmanager
    def operation(self, op_id: int, label: str):
        """Trace one benchmark operation: rebind the names, then restore them."""
        saved = []
        for mod_name, attr, name, info in TARGETS:
            module = importlib.import_module(mod_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(name, getattr(module, attr), info))
        estimate = importlib.import_module("carfima.estimate")
        saved.append((estimate, "minimize", estimate.minimize))
        estimate.minimize = self._wrap_minimize(estimate.minimize)
        self._op = op_id
        start = perf_counter()
        self.spans.append([f"op.{label}", start, None, -1, op_id, None])
        i = len(self.spans) - 1
        self._stack.append(i)
        try:
            yield
        finally:
            self.spans[i][2] = perf_counter()
            self._stack.pop()
            self._op = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, cycles: int, overhead_s: float) -> dict:
        """Per-layer metrics per cycle of operations (see PER_LAYER)."""
        n = len(self.spans)
        names = [s[0] for s in self.spans]
        layers = [name.split(".", 1)[0] for name in names]
        dur = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * n
        for i in range(n - 1, -1, -1):
            parent = self.spans[i][3]
            if parent >= 0:
                covered[parent] += dur[i] if layers[i] != layers[parent] else covered[i]

        def pick(name):
            return [i for i in range(n) if names[i] == name]

        def total(name):
            return sum(dur[i] for i in pick(name))

        def self_total(name):
            return sum(dur[i] - covered[i] for i in pick(name))

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        acf_spans = pick("acf.autocovariance")
        aliased = [i for i in pick("spectrum.table") if self.spans[i][5][0] == "aliased"]
        exact = pick("simulate.exact_gaussian_paths")
        evals = len(pick("estimate.objective"))
        c = cycles
        return {
            "model.prepare_calls": len(pick("model.prepare")) / c,
            "model.prepare_s": total("model.prepare") / c,
            "specfun.u_kernel_calls": len(pick("specfun.u_kernel")) / c,
            "specfun.u_kernel_s": total("specfun.u_kernel") / c,
            "acf.autocovariance_self_s": self_total("acf.autocovariance") / c,
            "acf.lags_per_s": ratio(sum(self.spans[i][5] for i in acf_spans),
                                    sum(dur[i] for i in acf_spans)),
            "acf.integral_form_s": total("acf.integral_form") / c,
            "acf.vstar_calls": len(pick("acf.vstar")) / c,
            "spectrum.table_s": total("spectrum.table") / c,
            "spectrum.aliased_values_per_s": ratio(sum(self.spans[i][5][1] for i in aliased),
                                                   sum(dur[i] for i in aliased)),
            "spectrum.fourier_check_s": total("spectrum.fourier_check") / c,
            "fgn.simulate_fgn_s": total("fgn.simulate_fgn") / c,
            "simulate.exact_self_s": self_total("simulate.exact_gaussian_paths") / c,
            # a dense Cholesky factor of order n costs n^3 / 3 flops and 8 n^2 bytes
            "simulate.factor_gflops": ratio(sum(self.spans[i][5] ** 3 / 3 for i in exact) / 1e9,
                                            self_total("simulate.exact_gaussian_paths")),
            "simulate.factor_bytes": max((8 * self.spans[i][5] ** 2 for i in exact), default=0),
            "simulate.euler_self_s": self_total("simulate.state_euler") / c,
            "estimate.fit_self_s": self_total("estimate.fit") / c,
            "estimate.objective_evals": evals / c,
            "estimate.ms_per_objective_eval": ratio(1e3 * total("estimate.objective"), evals),
            "estimate.nm_iterations": self.counts["estimate.nm_iterations"] / c,
            "estimate.periodogram_s": total("estimate.periodogram") / c,
            "cli.self_s": self_total("cli.main") / c,
            "trace.overhead_s": overhead_s,
        }
