"""Batch harness: method x problem x noise matrix, profiles and aggregates.

Efficiency is measured in oracle effort: gradient evaluations for the
objective-free methods, gradient plus objective evaluations for the
backtracking baseline.  Reliability (rho) is the percentage of runs reaching
the gradient tolerance; pi condenses a method's performance-profile curve on
ratio abscissas [1, 50] into a single number.
"""
from __future__ import annotations

import csv
import json
import os
from bisect import bisect_right
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .problems import CapabilityError, NoisyOracle, make_problem
from .scaling import RULES
from .solver import Astr1Config, IterationTrace, astr1_run, check_stopping, sdba_run


PROFILE_T_MAX = 50.0


@dataclass(frozen=True)
class MethodSpec:
    name: str
    scaling: Optional[str]
    model: str
    geometry: str

    @property
    def is_sdba(self) -> bool:
        return self.scaling is None


def _table_methods() -> dict:
    out = {
        name: MethodSpec(name, name, "none", "ball" if rule.aggregated else "box")
        for name, rule in RULES.items()
    }
    for suffix, model in (("bb", "bb"), ("bfgs3", "lbfgs3"), ("H", "exact")):
        out[f"adag{suffix}"] = MethodSpec(f"adag{suffix}", "adagrad", model, "box")
        out[f"adag{suffix}s"] = MethodSpec(f"adag{suffix}s", "adagrads", model, "box")
    out["sdba"] = MethodSpec("sdba", None, "none", "box")
    return out


METHODS = _table_methods()


@dataclass(frozen=True)
class RunRecord:
    method: str
    problem: str
    n: int
    noise: float
    seed: int
    eps: float
    status: str
    iterations: int
    final_normg: float
    f_evals: int
    g_evals: int
    h_evals: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def method_config(method: str, eps: float, max_iter: int,
                  instrument_f: bool = False) -> Optional[Astr1Config]:
    """The named method's settings (None for ``sdba``); ValueError for a bad name or setting."""
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'; known: {', '.join(sorted(METHODS))}")
    spec = METHODS[method]
    if spec.is_sdba:
        if instrument_f:
            raise ValueError("method 'sdba' takes no instrument_f")
        check_stopping(eps, max_iter)
        return None
    return Astr1Config(scaling=RULES[spec.scaling], model=spec.model,
                       geometry=spec.geometry, eps=eps, max_iter=max_iter,
                       instrument_f=instrument_f)


def solve(method: str, target, eps: float, max_iter: int,
          instrument_f: bool = False) -> IterationTrace:
    """Run the named method, set up by :func:`method_config`, on a problem or
    noisy oracle and return its trace.

    A problem lacking what the method needs (an analytic Hessian for the
    ``adagH`` family) raises :class:`CapabilityError`.
    """
    cfg = method_config(method, eps, max_iter, instrument_f)
    if cfg is None:
        return sdba_run(target, eps=eps, max_iter=max_iter)
    return astr1_run(target, cfg)


def run_one(
    method: str,
    problem_name: str,
    n: Optional[int],
    noise: float,
    seed: int,
    eps: float,
    max_iter: int = 100_000,
) -> RunRecord:
    """One benchmark run; failures land in the status field.

    A problem lacking what the method needs (an analytic Hessian for the
    ``adagH`` family) gives status ``unsupported`` and zero counts.
    """
    problem = make_problem(problem_name, n)
    target = problem if noise == 0.0 else NoisyOracle(problem, noise, seed)
    record = dict(method=method, problem=problem.name, n=problem.n, noise=noise, seed=seed, eps=eps)
    try:
        trace = solve(method, target, eps, max_iter)
    except CapabilityError:
        return RunRecord(**record, status="unsupported", iterations=0, final_normg=np.nan,
                         f_evals=0, g_evals=0, h_evals=0)
    return RunRecord(
        **record,
        status=trace.status,
        # objective-free runs make no objective calls: their effort is g_evals
        iterations=trace.g_evals + trace.f_evals,
        final_normg=float(trace.final_normg),
        f_evals=trace.f_evals,
        g_evals=trace.g_evals,
        h_evals=trace.h_evals,
    )


def _run_spec(args):
    return run_one(*args)


def check_matrix(methods: Sequence[str], problems: Sequence[tuple],
                 noise_levels: Sequence[float], seeds: Sequence[int], eps: float,
                 max_iter: int, jobs: int) -> list:
    """The seeds a matrix runs: ``seeds``, or seed 0 alone for noise-free runs.

    Every method, problem and dimension, noise level and seed is checked
    first, as its run would check it, and so is the worker count ``jobs``:
    the first bad one raises ValueError or CatalogError.
    """
    if not jobs >= 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for m in methods:
        method_config(m, eps, max_iter)
    built = [make_problem(name, n) for name, n in problems]
    if any(lv > 0 for lv in noise_levels) and not seeds:
        raise ValueError("noisy runs need at least one seed")
    seeds = list(seeds) or [0]
    if built:
        # the oracle checks a level and a seed the same way whatever its problem
        for level in noise_levels:
            for seed in seeds:
                NoisyOracle(built[0], level, seed)
    return seeds


def run_matrix(
    methods: Sequence[str],
    problems: Sequence[tuple],
    noise_levels: Sequence[float],
    seeds: Sequence[int],
    eps: float = 1e-6,
    max_iter: int = 100_000,
    jobs: int = 1,
) -> list[RunRecord]:
    """One record per (method, problem, noise, seed), order-independent.

    :func:`check_matrix` checks every input before the first run.  A
    noise-free run does not depend on its seed, so it runs once, for the
    first seed, and its record is copied to the others.
    """
    seeds = check_matrix(methods, problems, noise_levels, seeds, eps, max_iter, jobs)
    specs = [
        (m, name, n, noise, seed, eps, max_iter)
        for m in methods
        for (name, n) in problems
        for noise in noise_levels
        for seed in (seeds[:1] if noise == 0.0 else seeds)
    ]
    if jobs > 1:
        # imported here: the pool module loads multiprocessing, which `import offo` spares
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            ran = list(pool.map(_run_spec, specs, chunksize=1))
    else:
        ran = [_run_spec(sp) for sp in specs]
    records = []
    for r in ran:
        records += [replace(r, seed=s) for s in seeds] if r.noise == 0.0 else [r]
    records.sort(key=lambda r: (r.method, r.problem, r.n, r.noise, r.seed))
    return records


@dataclass
class ProfileReport:
    """Performance profile curves plus the pi / rho aggregates."""

    methods: list
    curves: dict  # method -> (ts, rhos) as lists, right-continuous steps
    pi: dict
    rho: dict


def _step_area(ts, rhos, t_max):
    """Area below a right-continuous step curve on [0, t_max], flat before t=1."""
    area = rhos[0] * ts[0]  # constant at the t=1 level down to t=0
    for i in range(len(ts)):
        t_next = ts[i + 1] if i + 1 < len(ts) else t_max
        area += rhos[i] * (min(t_next, t_max) - ts[i])
    return area


def perf_profile(records: Sequence[RunRecord]) -> ProfileReport:
    """Classic ratio-to-best profile over (problem, seed) rows.

    rho_m(t) = fraction of rows solved within t times the best effort; rows
    no method solves keep inflating the denominator, so pi <= rho / 100.
    pi is the normalized area of the curve: (1/t_max) * (rho_m(1) +
    integral of rho_m over [1, t_max]), with t_max = ``PROFILE_T_MAX``.
    """
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    noises = {r.noise for r in records}
    if len(noises) > 1:
        raise ValueError("profile requires records at a single noise level")
    methods = sorted({r.method for r in records})
    rows = sorted({(r.problem, r.n, r.seed) for r in records})
    effort = {}
    for r in records:
        effort[(r.method, r.problem, r.n, r.seed)] = (
            r.iterations if r.converged else np.inf
        )
    best = {
        row: min(effort.get((m,) + row, np.inf) for m in methods) for row in rows
    }
    n_rows = len(rows)
    curves, pis, rhos_pct = {}, {}, {}
    for m in methods:
        ratios = []
        solved = 0
        for row in rows:
            e = effort.get((m,) + row, np.inf)
            if np.isfinite(e):
                solved += 1
                if np.isfinite(best[row]) and best[row] > 0:
                    ratios.append(e / best[row])
        ratios = sorted(t for t in ratios if t <= PROFILE_T_MAX)
        ts = [1.0] + ratios[bisect_right(ratios, 1.0):]
        vals = [bisect_right(ratios, t) / n_rows for t in ts]
        curves[m] = (ts, vals)
        pis[m] = _step_area(ts, vals, PROFILE_T_MAX) / PROFILE_T_MAX
        rhos_pct[m] = 100.0 * solved / n_rows
    return ProfileReport(methods=methods, curves=curves, pi=pis, rho=rhos_pct)


def success_rate(records: Sequence[RunRecord], method: str) -> float:
    """Percentage of converged runs of one method in a record set."""
    sel = [r for r in records if r.method == method]
    if not sel:
        raise ValueError(f"no records for method '{method}'")
    return 100.0 * sum(r.converged for r in sel) / len(sel)


def emit(report: ProfileReport, records: Sequence[RunRecord], outdir, fmt: str = "csv"):
    """Write records.csv, profile.csv and aggregate.{csv,json} under outdir."""
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    os.makedirs(outdir, exist_ok=True)
    rec_path = os.path.join(outdir, "records.csv")
    with open(rec_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f.name for f in fields(RunRecord)])
        for r in records:
            wr.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in astuple(r)])
    prof_path = os.path.join(outdir, "profile.csv")
    with open(prof_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "t", "rho"])
        for m in report.methods:
            ts, vals = report.curves[m]
            for t, v in zip(ts, vals):
                wr.writerow([m, f"{t:.6g}", f"{v:.6g}"])
    order = sorted(report.methods, key=lambda m: -report.pi[m])
    agg_csv = os.path.join(outdir, "aggregate.csv")
    with open(agg_csv, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "pi", "rho"])
        for m in order:
            wr.writerow([m, f"{report.pi[m]:.6g}", f"{report.rho[m]:.6g}"])
    paths = [rec_path, prof_path, agg_csv]
    if fmt == "json":
        agg_json = os.path.join(outdir, "aggregate.json")
        with open(agg_json, "w") as fh:
            json.dump(asdict(report), fh, indent=2)
        paths.append(agg_json)
    return paths
