"""Command-line interface: run, verify, sharpness, bench, problem."""
from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import click

from . import bench as bench_mod
from . import sharpness as sharp_mod
from . import theory as theory_mod
from .problems import CapabilityError, CatalogError, NoisyOracle, default_suite, make_problem


@click.group()
def main():
    """Objective-function-free trust-region methods and their test bench."""


@contextmanager
def _usage_errors():
    """Report a bad problem name, dimension or setting as a usage error (exit 2)."""
    try:
        yield
    except (CatalogError, ValueError) as exc:
        raise click.UsageError(exc.args[0]) from None


@main.command("run")
@click.option("--problem", "problem_name", required=True, help="catalog problem name")
@click.option("--n", type=int, default=None, help="dimension (family default if omitted)")
@click.option("--method", default="adagrad", show_default=True,
              help=f"one of: {', '.join(sorted(bench_mod.METHODS))}")
@click.option("--eps", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=100_000, show_default=True)
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--instrument-f", is_flag=True, help="record objective values (verification only)")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="write a per-iteration CSV trace")
def run_cmd(problem_name, n, method, eps, max_iter, noise, seed, instrument_f, trace_path):
    """Run one method on one problem and print the outcome."""
    with _usage_errors():
        bench_mod.method_config(method, eps, max_iter, instrument_f)
        problem = make_problem(problem_name, n)
        target = problem if noise == 0.0 else NoisyOracle(problem, noise, seed)
    head = f"{method} on {problem.name}(n={problem.n}):"
    try:
        trace = bench_mod.solve(method, target, eps, max_iter, instrument_f)
    except CapabilityError as exc:
        click.echo(f"{head} status=unsupported ({exc})")
        sys.exit(1)
    if trace_path:
        trace.to_csv(trace_path)
    click.echo(f"{head} status={trace.status} iterations={trace.iterations} "
               f"final_normg={trace.final_normg:.6g} f_evals={trace.f_evals}")
    if trace.status not in ("converged",):
        sys.exit(1)


@main.command("verify")
@click.option("--suite", type=click.Choice(sorted(theory_mod.VERIFY_SUITES)), required=True)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="write the JSON report here")
def verify_cmd(suite, report_path):
    """Run one numerical verification suite of the convergence guarantees."""
    result = theory_mod.VERIFY_SUITES[suite]()
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(result, fh, indent=2, default=float)
    click.echo(json.dumps(result, indent=2, default=float))
    if not result["passed"]:
        sys.exit(1)


@main.command("sharpness")
@click.option("--kind", type=click.Choice(list(sharp_mod.KINDS)), default="thm31",
              show_default=True)
@click.option("--mu", type=float, default=0.5, show_default=True)
@click.option("--eta", type=float, default=0.01, show_default=True)
@click.option("--sigma", type=float, default=0.01, show_default=True)
@click.option("--nu", type=float, default=1.0 / 9.0, show_default=True)
@click.option("--omega", type=float, default=4.0 / 9.0 + 0.01, show_default=True)
@click.option("--iters", type=int, default=10_000, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="write (k, x_k, f_k, g_k) CSV here")
@click.option("--replay/--no-replay", default=True, show_default=True,
              help="also rerun the solver on the interpolant and compare")
def sharpness_cmd(kind, mu, eta, sigma, nu, omega, iters, out_path, replay):
    """Build a worst-case sequence, optionally replay it, and report deviations."""
    with _usage_errors():
        seq = sharp_mod.build_sequence(kind, iters, mu=mu, eta=eta, sigma=sigma,
                                       nu=nu, omega=omega)
    if out_path:
        sharp_mod.sequence_to_csv(seq, out_path)
    m1, m2 = sharp_mod.admissibility_margins(seq)
    click.echo(f"kind={kind} K={iters} admissibility margins: {m1:.3e}, {m2:.3e}")
    if replay:
        interp = sharp_mod.hermite_build(seq)
        rep = sharp_mod.replay(seq, interp)
        click.echo(
            f"replay: max iterate dev={rep.max_iterate_dev:.3e} "
            f"max gradient dev={rep.max_gradient_dev:.3e} matched={rep.matched}"
        )
        if not rep.matched:
            sys.exit(1)


def _parse_problems(spec: str):
    if spec == "all":
        return default_suite()
    out = []
    for token in filter(None, (t.strip() for t in spec.split(","))):
        name, colon, n = token.partition(":")
        out.append((name, int(n) if colon else None))
    return out


@main.command("bench")
@click.option("--methods", default="adagrad,adagnorm,maxg,sdba", show_default=True,
              help="comma list of method names, or 'all'")
@click.option("--problems", default="all", show_default=True,
              help="comma list of name[:n], or 'all' for the desk suite")
@click.option("--noise", default="0", show_default=True, help="comma list of levels")
@click.option("--seeds", type=int, default=1, show_default=True, help="number of seeds")
@click.option("--eps", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=100_000, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", "outdir", type=click.Path(), required=True)
def bench_cmd(methods, problems, noise, seeds, eps, max_iter, jobs, outdir):
    """Run the benchmark matrix and emit records, profiles and aggregates.

    Every input is checked before the first run, so a bad one runs nothing.
    """
    with _usage_errors():
        method_list = (
            sorted(bench_mod.METHODS) if methods == "all" else
            [m.strip() for m in methods.split(",") if m.strip()]
        )
        problem_list = _parse_problems(problems)
        noise_levels = [float(tok) for tok in noise.split(",") if tok.strip()]
        for option, values in (("--methods", method_list), ("--problems", problem_list),
                               ("--noise", noise_levels)):
            if not values:
                raise ValueError(f"{option} lists nothing")
        seed_list = bench_mod.check_matrix(method_list, problem_list, noise_levels,
                                           range(seeds), eps, max_iter)
    records = bench_mod.run_matrix(
        method_list, problem_list, noise_levels, seed_list,
        eps=eps, max_iter=max_iter, jobs=jobs,
    )
    # profiles are per noise level; emit one directory per level
    paths = []
    for level in noise_levels:
        sel = [r for r in records if r.noise == level]
        report = bench_mod.perf_profile(sel)
        sub = outdir if len(noise_levels) == 1 else os.path.join(outdir, f"noise{level:g}")
        paths += bench_mod.emit(report, sel, sub, fmt="json")
    for p in paths:
        click.echo(p)


@main.command("problem")
@click.argument("name")
@click.option("--n", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def problem_cmd(name, n, out_path):
    """Dump a problem definition (name, n, x0, f_low) as JSON."""
    with _usage_errors():
        problem = make_problem(name, n)
    payload = problem.to_json()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    click.echo(payload)


if __name__ == "__main__":
    main()
