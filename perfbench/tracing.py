"""Solve records and per-layer spans, taken from outside the package.

Both work by replacing offo's public functions and methods with wrappers for
the length of a pass and putting the originals back afterwards; nothing under
``src/`` is changed.  A module-level function is rebound in every loaded
``offo`` module that holds it, so calls made through ``from .x import y``
bindings are seen too.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: layer name -> public targets, written ``module:attribute``; ``Class.method``
#: names a method and ``DICT[key]`` an entry of a module-level dict.
LAYERS = {
    "problems.noise": tuple(f"offo.problems:NoisyOracle.{m}" for m in ("value", "grad", "hess")),
    "problems.grad": ("offo.problems:ProblemInstance.grad",),
    "problems.value": ("offo.problems:ProblemInstance.value",),
    "problems.hess": ("offo.problems:ProblemInstance.hess",),
    "problems.make_problem": ("offo.problems:make_problem",),
    "scaling.update": ("offo.scaling:update",),
    "scaling.weights": ("offo.scaling:weights",),
    "hessian.update": tuple(
        f"offo.hessian:{c}.update" for c in ("ZeroModel", "BBDiagModel", "LbfgsModel", "ExactModel")
    ) + ("offo.hessian:ExactModel.with_matrix",),
    "hessian.matvec": tuple(
        f"offo.hessian:{c}.matvec" for c in ("ZeroModel", "BBDiagModel", "LbfgsModel", "ExactModel")
    ),
    "hessian.power_norm": ("offo.hessian:power_norm",),
    "solver.cauchy_step": ("offo.solver:cauchy_step",),
    "solver.subproblem": ("offo.solver:solve_subproblem",),
    "solver.loop": ("offo.solver:astr1_run", "offo.solver:sdba_run"),
    "bench.run_one": ("offo.bench:run_one",),
    "bench.perf_profile": ("offo.bench:perf_profile",),
    "bench.emit": ("offo.bench:emit",),
    "sharpness.evaluate": ("offo.sharpness:HermiteInterpolant.evaluate",),
    "sharpness.replay": ("offo.sharpness:replay",),
    "sharpness.build": ("offo.sharpness:build_sequence", "offo.sharpness:hermite_build"),
    **{
        f"theory.verify.{suite}": (f"offo.theory:VERIFY_SUITES[{suite}]",)
        for suite in ("series", "lambert", "envelope", "decrease", "ming")
    },
}

#: layers whose calls are oracle evaluations, where non-finite results surface
ORACLE_LAYERS = ("problems.noise", "problems.grad", "problems.value", "problems.hess")

#: thresholds of the trust-region contract checks (as in acceptance criterion 1)
SBOUND_TOL = 1e-14
GCP_TOL = 1e-12


def _resolve(target):
    """(owner, key, current object) for a target, or None when it is gone."""
    modname, path = target.split(":")
    try:
        owner = sys.modules.get(modname) or importlib.import_module(modname)
        if path.endswith("]"):
            attr, key = path[:-1].split("[")
            owner = getattr(owner, attr)
            return owner, key, owner[key]
        *outer, key = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, key, getattr(owner, key)
    except (ImportError, AttributeError, KeyError):
        return None


class Patcher:
    """Replaces public targets with wrappers and restores them on ``restore``."""

    def __init__(self):
        self._undo = []

    def replace(self, target, make_wrapper) -> bool:
        found = _resolve(target)
        if found is None:
            return False
        owner, key, original = found
        if isinstance(owner, (dict, type)):
            sites = [(owner, key)]
        else:
            sites = [(mod, attr) for name, mod in list(sys.modules.items())
                     if mod is not None and (name == "offo" or name.startswith("offo."))
                     for attr, value in vars(mod).items() if value is original]
        wrapper = make_wrapper(original)
        for owner, key in sites:
            _put(owner, key, wrapper)
            self._undo.append((owner, key, original))
        return True

    def restore(self):
        while self._undo:
            _put(*self._undo.pop())


def _put(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def check_trace(kind, cfg, trace) -> list:
    """Names of the output checks a finished solve fails (empty when it passes)."""
    failed = []
    if not np.isfinite(trace.final_normg):
        failed.append("nonfinite_final_normg")
    if trace.status == "converged" and not trace.final_normg <= trace.eps:
        failed.append("converged_above_eps")
    if kind == "astr1":
        if trace.f_evals != 0 and not cfg.instrument_f:
            failed.append("objective_called")
        if trace.steps:
            if not np.max(trace.sbound_resid) <= SBOUND_TOL:
                failed.append("step_outside_region")
            if not np.all(trace.gcp_resid <= GCP_TOL * (1.0 + np.abs(trace.q_cauchy))):
                failed.append("cauchy_decrease_missed")
    return failed


class SolveRecorder:
    """One record per ``astr1_run`` / ``sdba_run`` call, with its output checks.

    ``context`` (the unit and method being run) is copied into each record.
    """

    def __init__(self):
        self.records = []
        self.context = {}

    def install(self, patcher: Patcher):
        for kind in ("astr1", "sdba"):
            if not patcher.replace(f"offo.solver:{kind}_run", lambda fn, kind=kind: self._wrap(fn, kind)):
                raise RuntimeError(f"offo.solver.{kind}_run is missing")

    def _wrap(self, fn, kind):
        def recorded(problem, *args, **kwargs):
            t0 = time.perf_counter()
            trace = fn(problem, *args, **kwargs)
            t1 = time.perf_counter()
            cfg = (args[0] if args else kwargs["cfg"]) if kind == "astr1" else None
            self.records.append(self._record(kind, problem, cfg, trace, t0, t1))
            return trace

        return recorded

    def _record(self, kind, problem, cfg, trace, t0, t1):
        base = getattr(problem, "inner", problem)
        capped = kind == "astr1" and cfg.model not in ("none", "zero")
        return {
            **self.context,
            "kind": kind,
            "problem": base.name,
            "n": base.n,
            "noise": float(getattr(problem, "level", 0.0)),
            "noise_seed": getattr(problem, "seed", None),
            "status": trace.status,
            "g_evals": trace.g_evals,
            "f_evals": trace.f_evals,
            "h_evals": trace.h_evals,
            "instrumented": bool(cfg is not None and cfg.instrument_f),
            "final_normg": float(trace.final_normg),
            "eps": trace.eps,
            "t0": t0,
            "t1": t1,
            "ms": 1e3 * (t1 - t0),
            "ref_ms": 1e3 * (t1 - t0),
            "model_steps": trace.steps if capped else 0,
            "cap_steps": int(np.count_nonzero(trace.norm_B >= cfg.kappa_B * (1 - 1e-12))) if capped else 0,
            "checks_failed": check_trace(kind, cfg, trace),
        }


class Tracer:
    """In-memory spans: name, parent span, start and end, in compact arrays.

    Self time (a span's duration minus the time its child spans cover) and
    call counts are summed per name as spans close.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.calls = []
        self.self_ns = []
        self.counts = Counter()
        self.absent = []
        self._stack = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _enter(self, lid):
        idx = len(self.start)
        self.name.append(lid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0)
        t0 = time.perf_counter_ns()
        self.start.append(t0)
        self._stack.append([idx, lid, t0, 0])

    def _exit(self):
        t1 = time.perf_counter_ns()
        idx, lid, t0, child = self._stack.pop()
        self.end[idx] = t1
        dur = t1 - t0
        self.calls[lid] += 1
        self.self_ns[lid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def span(self, name):
        self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit()

    def _wrapper(self, layer, after=None, nonfinite=None):
        lid = self._id(layer)

        def make(fn):
            def traced(*args, **kwargs):
                self._enter(lid)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if nonfinite is not None and isinstance(exc, nonfinite) and not hasattr(exc, "_counted"):
                        exc._counted = True
                        self.counts["problems.nonfinite"] += 1
                    raise
                finally:
                    self._exit()
                if after is not None:
                    after(args, result)
                return result

            return traced

        return make

    def install(self, patcher: Patcher):
        """Wrap every target of ``LAYERS``; a layer none of whose targets exist is absent."""
        problems = sys.modules.get("offo.problems")
        nonfinite = getattr(problems, "NonFiniteError", FloatingPointError)
        for layer, targets in LAYERS.items():
            found = False
            for target in targets:
                after = None
                if target.endswith(("BBDiagModel.update", "LbfgsModel.update")):
                    after = self._count_secant
                elif target.endswith(":solve_subproblem"):
                    after = self._count_fallback
                wrap = self._wrapper(layer, after, nonfinite if layer in ORACLE_LAYERS else None)
                found = patcher.replace(target, wrap) or found
            if not found:
                self.absent.append(layer)

    def _count_secant(self, args, model):
        self.counts["secant_attempted"] += 1
        if getattr(model, "rejected", 0) == getattr(args[0], "rejected", 0):
            self.counts["secant_accepted"] += 1

    def _count_fallback(self, args, result):
        model, cauchy = args[1], args[4]  # solve_subproblem(g, model, radii, geometry, cauchy, ...)
        if getattr(model, "is_zero", False):
            return
        self.counts["cg_steps"] += 1
        if result[1] == cauchy.q_Q and np.array_equal(result[0], cauchy.s_Q):
            self.counts["cg_fallbacks"] += 1

    def matvecs_under(self, parent_layer) -> int:
        """Number of ``hessian.matvec`` spans whose direct parent is ``parent_layer``."""
        if "hessian.matvec" not in self._ids or parent_layer not in self._ids:
            return 0
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mv = parent[name == self._ids["hessian.matvec"]]
        mv = mv[mv >= 0]
        return int(np.count_nonzero(name[mv] == self._ids[parent_layer]))

    def layer_times(self) -> dict:
        """name -> (calls, self ns) for every span name seen."""
        return {n: (self.calls[i], self.self_ns[i]) for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, solves: list, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``."""
    times = tracer.layer_times()
    wall_ns = traced_s * 1e9
    out = {}
    for layer in LAYERS:
        calls, self_ns = times.get(layer, (0, 0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_pct"] = (100.0 * self_ns / wall_ns, "%")
    c = tracer.counts
    model_steps = sum(s["model_steps"] for s in solves)
    out["problems.nonfinite"] = (c["problems.nonfinite"], "count")
    out["hessian.secant_accept_ratio"] = (_ratio(c["secant_accepted"], c["secant_attempted"]), "ratio")
    out["hessian.cap_active_ratio"] = (_ratio(sum(s["cap_steps"] for s in solves), model_steps), "ratio")
    out["solver.matvecs_per_step"] = (_ratio(tracer.matvecs_under("solver.subproblem"), c["cg_steps"]), "count")
    out["solver.cauchy_fallback_ratio"] = (_ratio(c["cg_fallbacks"], c["cg_steps"]), "ratio")
    out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return out


def ratio_bases(tracer: Tracer, solves: list) -> dict:
    """The denominators of the ratio metrics, reported beside them."""
    c = tracer.counts
    return {
        "hessian.secant_accept_ratio": {"base": "secant updates attempted", "value": c["secant_attempted"]},
        "hessian.cap_active_ratio": {
            "base": "steps taken with a curvature model",
            "value": sum(s["model_steps"] for s in solves),
        },
        "solver.matvecs_per_step": {"base": "subproblem calls with a curvature model", "value": c["cg_steps"]},
        "solver.cauchy_fallback_ratio": {"base": "subproblem calls with a curvature model", "value": c["cg_steps"]},
    }


def _ratio(num, den):
    return num / den if den else 0.0
