"""Outside-in tracing of the wlift package and per-layer aggregation.

`Tracer.install` replaces every public function of the traced wlift
modules, in every wlift module namespace that holds a reference to it, by
a wrapper that records one span per call. A span is the list
``[name, start, end, parent, trial, info]``: `name` is "<module>.<function>",
`parent` is the index of the enclosing span in the same process (None for
a top-level call), `trial` identifies the top-level call the span belongs
to, and `info` holds the few result fields the per-layer metrics need.
Spans stay in memory until the caller reads `tracer.spans` or `dump`s them.

Nothing in `src/` knows about this module; uninstalling restores the
original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("signal", "lifting", "scores", "weights", "solver", "experiments")
# Cheap constructors called once per tuning step; a span each would cost
# more than the work and split the tuner's own time across three names.
UNTRACED = {"identity_weights", "diagonal_weights"}


def _complete_info(call, out):
    w = call["weights"]
    if not w.diagonal_flag:
        kind = "dense"
    elif len(set(w.left_diag)) == 1 and len(set(w.right_diag)) == 1:
        kind = "identity"  # a scaled identity solves the identity program
    else:
        kind = "tuned"
    return {"iters": int(out.iterations), "converged": bool(out.converged),
            "weights": kind}


def _tune_info(call, out):
    return {"sweeps": int(out.sweeps), "fell_back": bool(out.fell_back),
            "tuned": bool(out.objective < out.baseline)}


def _cell_info(call, out):
    return {"m": int(call["m"]), "k": int(call["k"])}


DESCRIBE = {
    "solver.complete": _complete_info,
    "weights.tune_diagonal_weights": _tune_info,
    "experiments.run_trial": _cell_info,
    "experiments.noise_sweep": _cell_info,
}


class Tracer:
    """Records spans around the public functions of the wlift modules."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._roots = 0
        self._patches = []

    def wrap(self, name, fn):
        sig = inspect.signature(fn) if name in DESCRIBE else None
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            if stack:
                parent = stack[-1]
                trial = spans[parent][4]
            else:
                parent = None
                self._roots += 1
                trial = f"{os.getpid()}:{self._roots}"
            rec = [name, 0.0, 0.0, parent, trial, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                stack.pop()
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = describe(bound.arguments, out)
            return out

        return traced

    def install(self):
        import wlift
        modules = {layer: importlib.import_module(f"wlift.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if (isinstance(fn, types.FunctionType) and fname not in UNTRACED
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self.wrap(f"{layer}.{fname}", fn)
        namespaces = [wlift, importlib.import_module("wlift.cli"),
                      *modules.values()]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def reset(self):
        """Forget recorded spans (a forked worker starts from the parent's)."""
        self.spans = []
        self._stack = []
        self._roots = 0

    def dump(self, directory):
        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))


def load_dumps(directory):
    """Span lists written by `Tracer.dump`, one per process."""
    return [json.loads(p.read_text())
            for p in sorted(Path(directory).glob("spans-*.json"))]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[rec[3]].append((rec[1], rec[2]))
    return [rec[2] - rec[1] - _covered(children[i])
            for i, rec in enumerate(spans)]


def flatten(span_lists):
    """One record per span across processes: name, dur, self, cell, info.

    A span's cell is the (M, K) of the top-level call it belongs to.
    """
    out = []
    for spans in span_lists:
        cells = []
        for rec, self_s in zip(spans, self_times(spans)):
            name, start, end, parent, _, info = rec
            if parent is None:
                cell = (info["m"], info["k"]) if info and "m" in info else None
            else:
                cell = cells[parent]
            cells.append(cell)
            out.append({"name": name, "dur": end - start, "self": self_s,
                        "cell": cell, "info": info or {},
                        "root": parent is None})
    return out


def layer_metrics(records, cells):
    """Per-layer metrics of one traced pass; `cells` lists the (M, K) to report."""
    by_name = defaultdict(list)
    for r in records:
        by_name[r["name"]].append(r)

    def calls(name):
        return len(by_name[name])

    def dur(*names):
        return sum(r["dur"] for n in names for r in by_name[n])

    def self_s(name):
        return sum(r["self"] for r in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    complete = by_name["solver.complete"]
    iters = sum(r["info"]["iters"] for r in complete)
    capped = [r for r in complete if not r["info"]["converged"]]
    kinds = defaultdict(int)
    for r in complete:
        kinds[r["info"]["weights"]] += 1
    tunes = by_name["weights.tune_diagonal_weights"]
    signal = [r for r in records if r["name"].startswith("signal.")]

    m = {
        "solver.complete_calls_identity": (kinds["identity"], "count"),
        "solver.complete_calls_tuned": (kinds["tuned"], "count"),
        "solver.dense_calls": (kinds["dense"], "count"),
        "solver.svt_calls": (calls("solver.svt"), "count"),
        "solver.svt_s": (dur("solver.svt"), "s"),
        "solver.complete_self_s": (self_s("solver.complete"), "s"),
        "solver.us_per_iter": (1e6 * ratio(dur("solver.complete"), iters), "us"),
        "solver.iterations": (iters, "count"),
        "solver.max_iters_frac": (ratio(len(capped), len(complete)), "frac"),
        "solver.wasted_iter_frac": (
            ratio(sum(r["info"]["iters"] for r in capped), iters), "frac"),
        "weights.tune_calls": (len(tunes), "count"),
        "weights.tune_self_s": (self_s("weights.tune_diagonal_weights"), "s"),
        "weights.tune_sweeps": (sum(r["info"]["sweeps"] for r in tunes), "count"),
        "weights.tuned_frac": (
            ratio(sum(r["info"]["tuned"] for r in tunes), len(tunes)), "frac"),
        "weights.fell_back": (sum(r["info"]["fell_back"] for r in tunes), "count"),
        "weights.pipeline_self_s": (self_s("weights.two_stage_pipeline"), "s"),
        "scores.wls_calls": (calls("scores.weighted_leverage_scores"), "count"),
        "scores.wls_s": (dur("scores.weighted_leverage_scores"), "s"),
        "scores.subspace_calls": (calls("scores.subspace_of"), "count"),
        "scores.subspace_s": (dur("scores.subspace_of"), "s"),
        "lifting.build_basis_calls": (
            calls("lifting.hankel_basis") + calls("lifting.double_hankel_basis"),
            "count"),
        "lifting.build_basis_s": (
            dur("lifting.hankel_basis", "lifting.double_hankel_basis"), "s"),
        "lifting.lift_calls": (calls("lifting.lift"), "count"),
        "lifting.lift_s": (dur("lifting.lift"), "s"),
        "signal.calls": (len(signal), "count"),
        "signal.s": (sum(r["dur"] for r in signal), "s"),
        "experiments.run_trial_self_s": (self_s("experiments.run_trial"), "s"),
        "experiments.emit_dat_s": (dur("experiments.emit_dat"), "s"),
    }

    cell_time = defaultdict(float)
    cell_complete = defaultdict(int)
    cell_capped = defaultdict(int)
    for r in records:
        if r["root"] and r["cell"] is not None:
            cell_time[r["cell"]] += r["dur"]
    for r in complete:
        cell_complete[r["cell"]] += 1
        cell_capped[r["cell"]] += not r["info"]["converged"]
    total = sum(cell_time.values())
    m["experiments.cell_imbalance"] = (
        ratio(max(cell_time.values(), default=0.0) * len(cell_time), total),
        "ratio")
    for cell in cells:
        key = "cell.M{}_K{}".format(*cell)
        m[f"{key}.max_iters_frac"] = (
            ratio(cell_capped[cell], cell_complete[cell]), "frac")
        m[f"{key}.time_s"] = (cell_time[cell], "s")
    return m, dict(cell_time)
