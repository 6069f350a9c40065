"""The run set that ``trace_compare.py`` compares.

:func:`runs` yields ``(key, trace or None)`` for:

* every method on every desk problem, noise-free and at 15% noise (seed 0),
  eps 1e-3, at most 500 iterations, through ``bench.solve``, and adagnorm's
  rule with each curvature model of ``BALL_MODELS`` in the ball, which no
  method of the table runs, on the same problems and settings;
* the large-n configurations of the benchmark at seed 0, and its
  curvature-model runs (``LARGE_MODEL_METHODS``) at seeds 1 to 9;
* both worst-case replays at K = 300;
* two instrumented runs that record their iterate, gradient and weight vectors;
* runs that stop on a non-finite gradient, objective value or Hessian;

and then ``(key, fields)`` for the direct evaluations of
:func:`direct_evaluations`.

This module imports ``offo`` and ``perfbench`` from ``sys.path`` as it finds
it: the importer puts the checkout under test first.  It uses only APIs that
predate it, so that it runs against older checkouts too.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from offo import bench, hessian, problems, sharpness, solver
from perfbench import workloads

DESK_NOISE = (0.0, 0.15)
DESK_EPS = 1e-3
DESK_MAX_ITER = 500
#: the curvature models run in the ball under adagnorm's rule
BALL_MODELS = ("bb", "lbfgs3", "exact")
REPLAY_K = 300
#: the large-n methods that solve a box subproblem, run at every seed: each
#: seed gives 28 subproblems and 8 to 12 rounds of releasing frozen
#: coordinates, so ten seeds reach ten times the CG paths of seed 0 alone
LARGE_MODEL_METHODS = ("adagbb", "adagbfgs3", "adagH")
LARGE_SEEDS = 10
#: seed of the jitter of the second direct-evaluation point
DIRECT_JITTER_SEED = 5


def _ramp(derivative: str, at: float) -> problems.ProblemInstance:
    """f = -sum(x), whose ``derivative`` turns infinite once max(x) >= at."""

    def gate(kind, value, x):
        return value if kind != derivative or x.max() < at else np.full_like(value, np.inf)

    return problems.ProblemInstance(
        f"ramp-{derivative}", 2, np.zeros(2), -np.inf,
        lambda x: gate("value", -x.sum(), x),
        lambda x: gate("grad", -np.ones(2), x),
        lambda x: gate("hess", np.zeros((2, 2)), x),
    )


def _evaluate(target, method, x):
    """What ``target.method(x)`` returns, a Bands as its list of bands, or the
    error it raises: ``unsupported`` for a missing capability, else
    ``Type: message``."""
    try:
        value = getattr(target, method)(x)
    except problems.CapabilityError:
        return "unsupported"
    except Exception as exc:  # recorded, so that two checkouts compare
        return f"{type(exc).__name__}: {exc}"
    return list(value) if isinstance(value, hessian.Bands) else value


def direct_evaluations():
    """``(key, fields)`` per desk problem, noise-free and at 15% noise (seed
    0): ``value``, ``grad`` and ``hess`` at x0 (``@0``) and at a jittered
    point (``@1``), called in that order on one oracle, and the stream
    ``position`` they leave (None when noise-free)."""
    for name, n in problems.default_suite():
        problem = problems.make_problem(name, n)
        jitter = np.random.default_rng(DIRECT_JITTER_SEED).uniform(-0.5, 0.5, n)
        for noise in DESK_NOISE:
            target = problem if noise == 0.0 else problems.NoisyOracle(problem, noise, 0)
            fields = {f"{method}@{i}": _evaluate(target, method, x)
                      for i, x in enumerate((problem.x0, problem.x0 + jitter))
                      for method in ("value", "grad", "hess")}
            fields["position"] = getattr(target, "_position", None)
            yield f"direct {name}:{n} noise={noise:g}", fields


def runs():
    """``(key, trace or None)`` for every run of the set, None meaning
    unsupported, then ``(key, fields)`` for every direct evaluation."""
    for name, n in problems.default_suite():
        problem = problems.make_problem(name, n)
        for noise in DESK_NOISE:
            target = problem if noise == 0.0 else problems.NoisyOracle(problem, noise, 0)
            for method in sorted(bench.METHODS):
                key = f"desk {method} {name}:{n} noise={noise:g}"
                try:
                    yield key, bench.solve(method, target, DESK_EPS, DESK_MAX_ITER)
                except problems.CapabilityError:
                    yield key, None
            ball = bench.method_config("adagnorm", DESK_EPS, DESK_MAX_ITER)
            for model in BALL_MODELS:
                key = f"desk adagnorm+{model} {name}:{n} noise={noise:g}"
                try:
                    yield key, solver.astr1_run(target, dataclasses.replace(ball, model=model))
                except problems.CapabilityError:
                    yield key, None
    for seed in range(LARGE_SEEDS):
        large = workloads.large_setup(seed)
        tag = "large-n" if seed == 0 else f"large-n seed={seed}"
        for problem in large.problems:
            for method, cfg in large.configs.items():
                if seed == 0 or method in LARGE_MODEL_METHODS:
                    yield f"{tag} {method} {problem.name}:{problem.n}", solver.astr1_run(problem, cfg)
    for kind in sharpness.KINDS:
        seq = sharpness.build_sequence(kind, REPLAY_K)
        rep = sharpness.replay(seq, sharpness.hermite_build(seq))
        yield f"replay {kind} K={REPLAY_K} matched={rep.matched}", rep.trace
    for method, name, n, noise in (("adagrad", "tridia", 10, 0.0), ("adagbfgs3", "rosenbr", 2, 0.05)):
        problem = problems.make_problem(name, n)
        target = problem if noise == 0.0 else problems.NoisyOracle(problem, noise, 0)
        cfg = dataclasses.replace(bench.method_config(method, 1e-6, 2000, instrument_f=True),
                                  record_vectors=True)
        yield f"vectors {method} {name}:{n} noise={noise:g}", solver.astr1_run(target, cfg)
    for derivative, method in (("grad", "adagrad"), ("value", "adagrad"), ("hess", "adagH"),
                               ("grad", "sdba")):
        target = _ramp(derivative, 3.0)
        key = f"overflow {method} ramp-{derivative}"
        yield key, bench.solve(method, target, 1e-6, 1000, instrument_f=derivative == "value")
    yield from direct_evaluations()
