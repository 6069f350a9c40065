"""Print one digest line per run of a fixed run set, to compare two checkouts.

Run from the root of a checkout, with no options:

    python3 tools/trace_digest.py > digest.txt

Each run line is the key of a run of ``runset.runs()`` and a sha256 over
every ``IterationTrace`` field's name, Python type and bytes (dtype and shape
too, for arrays).  Two checkouts whose outputs ``diff`` equal produce
bit-identical traces on that run set (see ``tools/runset.py``);
``tools/trace_compare.py`` says by how much two checkouts' traces differ.

The last lines digest direct evaluations, one line per desk problem,
noise-free and at 15% noise (seed 0): a sha256 over the Python type and bytes
of what ``value``, ``grad`` and ``hess`` return at x0 and at one fixed
jittered point, called in that order on one oracle (``unsupported`` for a
missing Hessian, the exception's type and message for any other error), and
over the stream position the calls leave.

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

from offo import hessian, problems  # noqa: E402
from runset import DESK_NOISE, runs  # noqa: E402

#: seed of the jitter of the second direct-evaluation point
DIRECT_JITTER_SEED = 5


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


def direct_digest(target) -> str:
    """sha256 over direct value, grad and hess calls on ``target`` at x0 and
    a jittered point, and the stream position they leave."""
    problem = problems.base_problem(target)
    jitter = np.random.default_rng(DIRECT_JITTER_SEED).uniform(-0.5, 0.5, problem.n)
    h = hashlib.sha256()
    for x in (problem.x0, problem.x0 + jitter):
        for method in ("value", "grad", "hess"):
            h.update(method.encode())
            try:
                value = getattr(target, method)(x)
            except problems.CapabilityError:
                h.update(b"unsupported")
                continue
            except Exception as exc:  # recorded, so that two checkouts compare
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            if isinstance(value, hessian.Bands):
                h.update(b"Bands")
                value = list(value)
            _feed(h, value)
    _feed(h, getattr(target, "_position", None))
    return h.hexdigest()


def direct_evaluations():
    """``(key, digest)`` of direct evaluations on every desk problem."""
    for name, n in problems.default_suite():
        problem = problems.make_problem(name, n)
        for noise in DESK_NOISE:
            target = problem if noise == 0.0 else problems.NoisyOracle(problem, noise, 0)
            yield f"direct {name}:{n} noise={noise:g}", direct_digest(target)


def main():
    for key, trace in runs():
        print(f"{key} {'unsupported' if trace is None else trace.status + ' ' + digest(trace)}")
    for key, sha in direct_evaluations():
        print(f"{key} {sha}")


if __name__ == "__main__":
    main()
