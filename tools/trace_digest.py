"""Print one digest line per run of a fixed run set, to compare two checkouts.

Run from the root of a checkout, with no options:

    python3 tools/trace_digest.py > digest.txt

Each line is a run's key and a sha256 over every ``IterationTrace`` field's
name, Python type and bytes (dtype and shape too, for arrays).  Two checkouts
whose outputs ``diff`` equal produce bit-identical traces on:

* every method on every desk problem, noise-free and at 15% noise (seed 0),
  eps 1e-3, at most 500 iterations, through ``bench.solve``;
* the large-n configurations of the benchmark at seed 0;
* both worst-case replays at K = 300;
* two instrumented runs that record their iterate, gradient and weight vectors;
* runs that stop on a non-finite gradient, objective value or Hessian.

The script imports offo from ``src/`` and the benchmark's workloads from
``perfbench/`` of the checkout it lives in, and uses only APIs that predate it.
BLAS is pinned to one thread.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from offo import bench, problems, sharpness, solver  # noqa: E402
from perfbench import workloads  # noqa: E402

DESK_NOISE = (0.0, 0.15)
DESK_EPS = 1e-3
DESK_MAX_ITER = 500
REPLAY_K = 300


def _feed(h, value):
    h.update(type(value).__name__.encode())
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, list):
        h.update(str(len(value)).encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(struct.pack("<d", value))
    else:
        h.update(repr(value).encode())


def digest(trace) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(trace):
        h.update(f.name.encode())
        _feed(h, getattr(trace, f.name))
    return h.hexdigest()


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


def runs():
    """``(key, trace or None)`` for every run of the set; None means unsupported."""
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
    large = workloads.large_setup(0)
    for problem in large.problems:
        for method, cfg in large.configs.items():
            yield f"large-n {method} {problem.name}:{problem.n}", solver.astr1_run(problem, cfg)
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


def main():
    for key, trace in runs():
        print(f"{key} {'unsupported' if trace is None else trace.status + ' ' + digest(trace)}")


if __name__ == "__main__":
    main()
