"""The benchmark's workloads: inputs made from a seed, and the units of one pass.

A unit is one solve, replay or verification suite.  Every call into offo goes
through a module attribute (``solver.astr1_run``, not a name imported from
it) at the moment the unit runs, so that the wrappers in ``tracing`` see it.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from offo import bench, problems, scaling, sharpness, solver, theory

DESK_METHODS = ("adagrad", "sdba")
DESK_NOISE = 0.15
DESK_EPS = 1e-3
DESK_MAX_ITER = 20_000

LARGE_N = 1000
LARGE_PROBLEMS = ("broyden3d", "tridia")
LARGE_METHODS = ("adagrad", "adagnorm", "adagbb", "adagbfgs3", "adagH")
LARGE_EPS = 1e-3
#: iteration budget per curvature model, chosen so that each model gets a
#: comparable share of a pass (per-iteration costs differ by 1000x at n=1000)
LARGE_BUDGET = {"none": 200, "bb": 8, "lbfgs3": 4, "exact": 2}
#: relative size of the seeded perturbation of x0
LARGE_X0_JITTER = 1e-3

REPLAY_KINDS = ("thm31", "thm41")
REPLAY_K = 10_000
SUITES = ("series", "lambert", "envelope", "decrease", "ming")


@dataclass
class Unit:
    """One unit of work; ``judge(result, solves)`` gives ``(solved, failed checks)``.

    ``solved`` is None for a unit that is not a solve (the profile step).
    """

    label: str
    method: str
    run: Callable[[], object]
    judge: Callable[[object, list], tuple]


@dataclass
class Workload:
    name: str
    setup: Callable[[int], object]
    units: Callable[[object, str], list]


def _solve_checks(solves):
    return [f"{s['problem']}:{c}" for s in solves for c in s["checks_failed"]]


# -- desk-noisy --------------------------------------------------------------


@dataclass
class DeskInputs:
    suite: list
    noise_seed: int


def desk_setup(seed: int, suite: Optional[list] = None) -> DeskInputs:
    suite = list(problems.default_suite() if suite is None else suite)
    for name, n in suite:
        problems.make_problem(name, n)
    return DeskInputs(suite=suite, noise_seed=seed)


def desk_units(inputs: DeskInputs, out_dir: str) -> list:
    records = []

    def solve(method, name, n):
        def run():
            got = bench.run_matrix([method], [(name, n)], [DESK_NOISE], [inputs.noise_seed],
                                   eps=DESK_EPS, max_iter=DESK_MAX_ITER, jobs=1)
            records.extend(got)
            return got

        return Unit(f"{method}/{name}", method, run, _judge_desk)

    # methods alternate so that short solves of both are spread over the pass
    units = [solve(m, name, n) for name, n in inputs.suite for m in DESK_METHODS]
    units.append(Unit("profile", "-", lambda: _profile_and_emit(records, out_dir), _judge_profile))
    return units


def _judge_desk(records, solves):
    failed = _solve_checks(solves)
    if len(records) != 1 or len(solves) != 1:
        failed.append(f"expected one record and one solve, got {len(records)} and {len(solves)}")
    elif records[0].g_evals != solves[0]["g_evals"]:
        failed.append("run record disagrees with the solver trace")
    return bool(records) and records[0].converged, failed


def _profile_and_emit(records, out_dir):
    report = bench.perf_profile(records)
    bench.emit(report, records, out_dir, fmt="json")
    with open(os.path.join(out_dir, "aggregate.json")) as fh:
        written = json.load(fh)
    return records, report, written


def _judge_profile(result, solves):
    records, report, written = result
    failed = []
    for method in report.methods:
        mine = [r for r in records if r.method == method]
        rho = 100.0 * sum(r.converged for r in mine) / len(mine)
        if written["rho"][method] != rho:
            failed.append(f"{method}: emitted rho {written['rho'][method]} != {rho}")
        if not report.pi[method] <= rho / 100.0 + 1e-12:
            failed.append(f"{method}: pi above rho")
    return None, failed


# -- large-n -----------------------------------------------------------------


@dataclass
class LargeInputs:
    problems: list
    configs: dict


def large_setup(seed: int) -> LargeInputs:
    rng = np.random.default_rng(seed)
    built = []
    for name in LARGE_PROBLEMS:
        p = problems.make_problem(name, LARGE_N)
        jitter = LARGE_X0_JITTER * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n)
        built.append(dataclasses.replace(p, x0=p.x0 + jitter))
    configs = {}
    for method in LARGE_METHODS:
        spec = bench.METHODS[method]
        configs[method] = solver.Astr1Config(
            scaling=scaling.rule_from_name(spec.scaling),
            model=spec.model,
            geometry=spec.geometry,
            eps=LARGE_EPS,
            max_iter=LARGE_BUDGET[spec.model],
        )
    return LargeInputs(problems=built, configs=configs)


def large_units(inputs: LargeInputs, out_dir: str) -> list:
    def solve(method, problem):
        cfg = inputs.configs[method]
        return Unit(f"{method}/{problem.name}", method, lambda: solver.astr1_run(problem, cfg),
                    lambda trace, solves: _judge_budget(trace, solves, cfg))

    return [solve(m, p) for p in inputs.problems for m in inputs.configs]


def _judge_budget(trace, solves, cfg):
    done = trace.status == "converged" or trace.g_evals == cfg.max_iter
    return done, _solve_checks(solves)


# -- certify -----------------------------------------------------------------


@dataclass
class CertifyInputs:
    replays: dict
    series_seed: int


def certify_setup(seed: int) -> CertifyInputs:
    replays = {}
    for kind in REPLAY_KINDS:
        seq = sharpness.build_sequence(kind, REPLAY_K)
        replays[kind] = (seq, sharpness.hermite_build(seq))
    return CertifyInputs(replays=replays, series_seed=seed)


def certify_units(inputs: CertifyInputs, out_dir: str) -> list:
    def replay(kind):
        seq, interp = inputs.replays[kind]
        return Unit(f"replay/{kind}", kind, lambda: sharpness.replay(seq, interp), _judge_replay)

    def suite(name):
        kwargs = {"seed": inputs.series_seed} if name == "series" else {}
        return Unit(f"verify/{name}", name, lambda: theory.VERIFY_SUITES[name](**kwargs), _judge_suite)

    return [replay(k) for k in REPLAY_KINDS] + [suite(s) for s in SUITES]


def _judge_replay(report, solves):
    failed = _solve_checks(solves)
    if not report.matched:
        failed.append(f"replay diverged at step {report.first_divergence}")
    return report.matched, failed


def _judge_suite(result, solves):
    failed = _solve_checks(solves)
    if not result["passed"]:
        failed.append(f"suite {result['suite']} did not pass")
    return bool(result["passed"]), failed


#: the reason for each workload is recorded beside its name in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-noisy", desk_setup, desk_units),
        Workload("large-n", large_setup, large_units),
        Workload("certify", certify_setup, certify_units),
    )
}
