"""Span tracing for the traced benchmark run.

The benchmark wraps public functions of the rvqr modules from its own
process; nothing inside the package changes. Each call records a span
(name, start, end, parent, run id) in memory. Per-layer numbers are derived
from the spans afterwards: a span's self time is its duration minus the time
covered by its child spans.

A hook whose target no longer exists (a later change may rename or delete
it) is reported as missing instead of failing the run.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, attribute, span name). A hook patches every rvqr module
# that holds the same function object, so `from .x import f` re-exports are
# traced too.
HOOKS = [
    ("rvqr.measures", "load_csv", "measures.load_csv"),
    ("rvqr.measures", "center_covariates", "measures.center_covariates"),
    ("rvqr.measures", "make_rank_grid", "measures.make_rank_grid"),
    ("rvqr.kernels", "dual_terms", "kernels.dual_terms"),
    ("rvqr.kernels", "coupling", "kernels.coupling"),
    ("rvqr.kernels", "logsumexp_all", "kernels.logsumexp_all"),
    ("rvqr.solver", "solve", "solver.solve"),
    ("rvqr.solver", "normalize", "solver.normalize"),
    ("rvqr.solver", "extract_coupling", "solver.extract_coupling"),
    ("rvqr.solver", "dual_value_centered", "solver.dual_value_centered"),
    ("rvqr.solver", "primal_value", "solver.primal_value"),
    ("rvqr.solver", "save_model", "solver.save_model"),
    ("rvqr.solver", "load_model", "solver.load_model"),
    ("rvqr.quantiles", "default_eta", "quantiles.default_eta"),
    ("rvqr.quantiles", "quantile_table", "quantiles.table"),
    ("rvqr.quantiles", "ball_conditional_quantile", "quantiles.ball_query"),
    ("rvqr.quantiles", "table_to_csv", "quantiles.table_to_csv"),
    ("rvqr.classical_qr", "fit_qr_curve", "classical_qr.fit_qr_curve"),
    ("rvqr.classical_qr", "fit_qr_t", "classical_qr.fit_qr_t"),
]
# Patched only where the solver looks it up, so the pinball baseline's own
# descent runs stay out of the descent counters.
SOLVER_DESCENT = ("rvqr.solver", "accelerated_minimize")
BACKTRACK = ("rvqr.descent", "_backtrack")

KERNELS = ("dual_terms", "coupling", "logsumexp_all")
# epsilon values whose iteration counts are reported one by one: the
# eps-sweep grid, which includes the fit workloads' 0.1 and 0.05
ITERATION_EPS = ("1", "0.5", "0.1", "0.05")
BYTES_PER_ENTRY = 8  # float64


class Tracer:
    """Records spans and counters for the ops run between install() and
    uninstall(); one run id per op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.counts = defaultdict(float)  # (run id, key) -> value
        self.missing = []
        self._stack = []
        self._patched = []
        self._run = None
        self._solver_depth = 0
        self._in_backtrack = False

    # --- recording -----------------------------------------------------------

    def _count(self, key, value=1.0):
        self.counts[(self._run, key)] += value

    def _maximum(self, key, value):
        k = (self._run, key)
        self.counts[k] = max(self.counts[k], float(value))

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, self._run]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _after(self, name):
        """Counter hook run on a traced call's arguments and result."""
        if name.startswith("kernels."):
            def entries(args, kwargs, result):
                self._count(name + ".entries", getattr(args[0], "size", 0))
            return entries
        if name == "measures.load_csv":
            return lambda a, k, r: self._count("measures.load_csv.rows", r.n_obs)
        if name == "solver.save_model":
            def model_bytes(args, kwargs, result):
                self._count("solver.model_bytes", os.path.getsize(args[0]))
            return model_bytes
        if name == "solver.solve":
            return self._after_solve
        if name == "classical_qr.fit_qr_t":
            return lambda a, k, r: self._count("classical_qr.iterations", r.iterations)
        return None

    def _after_solve(self, args, kwargs, result):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        _, coupling, report = result
        self._count(f"solver.iterations_by_eps.{cfg.epsilon:g}", report.iterations)
        self._maximum("solver.gap", report.duality_gap)
        for block in ("row_residual", "col_residual", "mi_residual"):
            arr = getattr(coupling, block)
            self._maximum("solver." + block, np.abs(arr).max() if arr.size else 0.0)

    def _wrap_descent(self, fn):
        traced = self._wrap("descent.accelerated_minimize", fn)

        def wrapper(fun, grad, x0, *args, **kwargs):
            self._solver_depth += 1
            try:
                res = traced(self._wrap("solver.fun", fun, self._after_fun),
                             self._wrap("solver.grad", grad), x0, *args, **kwargs)
            finally:
                self._solver_depth -= 1
            self._count("descent.iterations", res.iterations)
            self._count("descent.restarts", res.n_restarts)
            return res
        return wrapper

    def _after_fun(self, args, kwargs, result):
        if self._in_backtrack:
            self._count("descent.backtrack_trials")

    def _wrap_backtrack(self, fn):
        def wrapper(*args, **kwargs):
            if not self._solver_depth:
                return fn(*args, **kwargs)
            self._in_backtrack = True
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_backtrack = False
            if out[3]:  # resolved: one trial was accepted, the rest halved
                self._count("descent.backtrack_accepts")
            return out
        return wrapper

    # --- patching ------------------------------------------------------------

    def _patch(self, module_name, attr, make, everywhere=True):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        holders = [module]
        if everywhere:
            holders = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "rvqr" or n.startswith("rvqr."))
                       and getattr(m, attr, None) is original]
        for m in holders:
            setattr(m, attr, wrapped)
            self._patched.append((m, attr, original))

    def install(self, run_id):
        """Wrap every hook target; spans recorded until uninstall() carry run_id."""
        self._run = run_id
        self.missing = []
        for module_name, attr, name in HOOKS:
            self._patch(module_name, attr,
                        lambda fn, name=name: self._wrap(name, fn, self._after(name)))
        self._patch(*SOLVER_DESCENT, self._wrap_descent, everywhere=False)
        self._patch(*BACKTRACK, self._wrap_backtrack, everywhere=False)

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []
        self._run = None

    # --- derived numbers -----------------------------------------------------

    def layer_metrics(self, run_id):
        """Per-layer numbers of one traced op, keyed by metric name."""
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time = defaultdict(float)
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[i]

        def count(key):
            return self.counts.get((run_id, key), 0.0)

        m = {}
        for k in KERNELS:
            name = "kernels." + k
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
        # computed from array sizes (one float64 I x J score matrix per call),
        # not measured memory traffic
        for name in ("kernels.dual_terms", "kernels.coupling"):
            m[name + ".bytes_computed"] = BYTES_PER_ENTRY * count(name + ".entries")
        n = calls["kernels.dual_terms"]
        m["kernels.dual_terms.ms_per_call"] = 1e3 * total["kernels.dual_terms"] / n if n else 0.0

        m["solver.closure_self_s"] = self_s["solver.fun"] + self_s["solver.grad"]
        m["solver.post_s"] = total["solver.solve"] - total["descent.accelerated_minimize"]
        m["solver.save_model.s"] = total["solver.save_model"]
        m["solver.load_model.s"] = total["solver.load_model"]
        m["solver.model_bytes"] = count("solver.model_bytes")
        m["solver.solves"] = calls["solver.solve"]
        for eps in ITERATION_EPS:
            m[f"solver.iterations_by_eps.{eps}"] = count(f"solver.iterations_by_eps.{eps}")
        for key in ("gap", "row_residual", "col_residual", "mi_residual"):
            m["solver." + key] = count("solver." + key)

        iters = count("descent.iterations")
        oracle = calls["solver.fun"] + calls["solver.grad"]
        m["descent.iterations"] = iters
        m["descent.fun_calls"] = calls["solver.fun"]
        m["descent.grad_calls"] = calls["solver.grad"]
        m["descent.oracle_calls_per_iter"] = oracle / iters if iters else 0.0
        m["descent.backtracks"] = (count("descent.backtrack_trials")
                                   - count("descent.backtrack_accepts"))
        m["descent.restarts"] = count("descent.restarts")
        m["descent.self_s"] = self_s["descent.accelerated_minimize"]

        m["quantiles.default_eta.s"] = total["quantiles.default_eta"]
        m["quantiles.table.s"] = total["quantiles.table"]
        m["quantiles.ball_queries"] = calls["quantiles.ball_query"]
        m["quantiles.table_to_csv.s"] = total["quantiles.table_to_csv"]

        m["classical_qr.fit_qr_curve.s"] = total["classical_qr.fit_qr_curve"]
        m["classical_qr.fit_qr_t.calls"] = calls["classical_qr.fit_qr_t"]
        m["classical_qr.iterations"] = count("classical_qr.iterations")

        m["measures.load_csv.s"] = total["measures.load_csv"]
        m["measures.load_csv.rows"] = count("measures.load_csv.rows")
        m["trace.spans"] = len(spans)
        return m

    def write(self, path, run_id=None):
        """Write the spans (of one run, or all) as JSON, times in seconds
        from the first of them."""
        spans = [s for s in self.spans if run_id is None or s[4] == run_id]
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s - origin, "end": e - origin,
                        "parent": p, "run": r} for n, s, e, p, r in spans], fh)
