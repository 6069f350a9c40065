"""End-to-end benchmark of offo, with an optional traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload desk-noisy --seed 0 --seconds 30 --trace 0

The workloads are defined in ``perfbench/workloads.py`` and listed in
``BENCHMARK.json``.  A run imports offo from ``src/`` of the checkout it lives
in and makes its inputs from ``--seed``; ``setup_s`` is the median time to
import offo in a fresh interpreter (numpy already loaded) plus the median
time to make the inputs, over several repetitions.  It then repeats passes
over the workload while the next pass would still end within ``--seconds``
(the first pass always runs); counts must agree between passes.
``--trace 1`` adds one traced set-up and pass, and reports the per-layer
metrics instead of the end-to-end ones.

Times in the final JSON line are rescaled to a fixed reference speed of the
machine, sampled while they are taken (see ``speed.py``); the ``raw.*``
metrics in the printed table and the result file are the clock readings.

Every solve is checked (see ``tracing.check_trace``), replays must match and
suites must pass; a unit that raises or fails a check counts in ``failed`` and
makes the command exit 1.  The last line of standard output is one JSON
object; the full result (environment, every metric, one record per solve) is
written to ``perfbench/out/``.  BLAS is pinned to one thread and there is no
process pool, so the figures measure one core.
"""
from __future__ import annotations

import os

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: set-up repetitions; setup_s is the median import plus the median input build
SETUP_REPS = 7
#: speed-sample interval while setting up, short enough for a 50 ms import
SETUP_INTERVAL_S = 0.005

#: times ``import offo`` in a fresh interpreter; numpy, which the speed
#: samples need, is loaded before the clock starts
IMPORT_PROBE = f"""
import time
from perfbench import speed
with speed.Speedometer({SETUP_INTERVAL_S}) as meter:
    t0 = time.perf_counter()
    import offo
    t1 = time.perf_counter()
print(*meter.rescale(t0, t1))
"""


def import_offo():
    """Import offo from this checkout's ``src/``, never from anywhere else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import offo

    if Path(offo.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"offo was imported from {offo.__file__}, not from {SRC}")


def import_times(reps: int) -> list:
    """``(raw, rescaled)`` times to ``import offo`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        raw, rescaled = map(float, out.stdout.split()[-2:])
        times.append((raw, rescaled))
    return times


def build_times(wl, seed, reps: int):
    """``(raw, rescaled)`` times to make the workload's inputs, and the inputs."""
    from perfbench import speed

    spans = []
    with speed.Speedometer(SETUP_INTERVAL_S) as meter:
        for _ in range(reps):
            t0 = time.perf_counter()
            inputs = wl.setup(seed)
            spans.append((t0, time.perf_counter()))
    return [meter.rescale(*span) for span in spans], inputs


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(PINNED_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


@dataclass
class Pass:
    """Outcome of one pass: wall time, one outcome per unit, one record per solve.

    ``ref_wall_s`` is ``wall_s`` rescaled to the reference speed (see ``speed``).
    """

    t0: float
    t1: float
    wall_s: float
    ref_wall_s: float
    outcomes: list
    solves: list

    def counts(self):
        return (
            sum(s["g_evals"] for s in self.solves),
            sum(s["f_evals"] for s in self.solves if not s["instrumented"]),
            [o["solved"] for o in self.outcomes],
        )


def run_pass(units, recorder, tracer=None) -> Pass:
    first = len(recorder.records)
    outcomes = []
    t0 = time.perf_counter()
    for unit in units:
        start = len(recorder.records)
        recorder.context = {"unit": unit.label, "method": unit.method}
        outcome = {"unit": unit.label, "solved": False, "failed": True, "why": None}
        try:
            if tracer is None:
                result = unit.run()
            else:
                with tracer.span(unit.label):
                    result = unit.run()
        except Exception as exc:  # a unit that raises is counted as failed; the pass goes on
            outcome["why"] = "".join(traceback.format_exception_only(exc)).strip()
        else:
            solved, failed = unit.judge(result, recorder.records[start:])
            outcome.update(solved=solved, failed=bool(failed), why="; ".join(failed) or None)
        outcomes.append(outcome)
    t1 = time.perf_counter()
    return Pass(t0, t1, t1 - t0, t1 - t0, outcomes, recorder.records[first:])


def end_to_end(passes, setup) -> dict:
    """Every end-to-end metric, as ``name -> (value, unit)``.

    ``setup`` is ``(raw, rescaled)`` seconds.  Times are at the reference
    speed; the ``raw.*`` entries are the same times as the clock read them.
    """
    grad, obj, solved = passes[0].counts()
    judged = [s for s in solved if s is not None]
    units = [o for p in passes for o in p.outcomes]
    out = {}
    for prefix, wall_key, ms_key, setup_s in (("", "ref_wall_s", "ref_ms", setup[1]),
                                               ("raw.", "wall_s", "ms", setup[0])):
        wall = statistics.median(getattr(p, wall_key) for p in passes)
        out[prefix + "setup_s"] = (setup_s, "s")
        out[prefix + "wall_s"] = (wall, "s")
        out[prefix + "iters_per_s"] = (grad / wall, "1/s")
        out[prefix + "solve_ms_p50"] = (statistics.median(s[ms_key] for p in passes for s in p.solves), "ms")
    out.update({
        "solved_pct": (100.0 * sum(judged) / len(judged), "%"),
        "grad_evals": (grad, "count"),
        "obj_evals": (obj, "count"),
        "failed_pct": (100.0 * sum(o["failed"] for o in units) / len(units), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })
    return out


def timed_passes(tracing, wl, inputs, out_dir, seconds) -> list:
    """Untraced passes while the next one would still end within ``seconds``.

    Wall and solve times exclude the speed samples taken meanwhile, and are
    also given rescaled to the reference speed.
    """
    from perfbench import speed

    recorder = tracing.SolveRecorder()
    patcher = tracing.Patcher()
    recorder.install(patcher)
    passes = []
    t_start = time.perf_counter()
    try:
        with speed.Speedometer() as meter:
            while not passes or (time.perf_counter() - t_start) + passes[-1].wall_s <= seconds:
                passes.append(run_pass(wl.units(inputs, out_dir), recorder))
    finally:
        patcher.restore()
    for p in passes:
        p.wall_s, p.ref_wall_s = meter.rescale(p.t0, p.t1)
        for s in p.solves:
            s["ms"], s["ref_ms"] = (1e3 * v for v in meter.rescale(s["t0"], s["t1"]))
    return passes


def traced_pass(tracing, wl, seed, out_dir):
    """One traced set-up and pass: ``(tracer, pass, traced wall seconds)``."""
    tracer = tracing.Tracer()
    recorder = tracing.SolveRecorder()
    patcher = tracing.Patcher()
    tracer.install(patcher)
    recorder.install(patcher)  # outermost, so its checks stay out of the spans
    try:
        t0 = time.perf_counter()
        with tracer.span("setup"):
            inputs = wl.setup(seed)
        traced = run_pass(wl.units(inputs, out_dir), recorder, tracer)
        return tracer, traced, time.perf_counter() - t0
    finally:
        patcher.restore()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_offo()
    except ImportError as exc:
        print(f"perfbench: cannot import offo from {SRC}: {exc}", file=sys.stderr)
        return 2
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    env = environment(args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    imports = import_times(SETUP_REPS)
    builds, inputs = build_times(wl, args.seed, SETUP_REPS)
    setup = tuple(statistics.median(t[i] for t in imports) + statistics.median(t[i] for t in builds)
                  for i in (0, 1))

    passes = timed_passes(tracing, wl, inputs, str(out_dir), args.seconds)
    metrics = end_to_end(passes, setup)
    problems = [f"pass {i} counts differ from pass 0"
                for i, p in enumerate(passes[1:], 1) if p.counts() != passes[0].counts()]
    runs = list(passes)

    extra = {}
    reported = metrics
    if args.trace:
        tracer, traced, traced_s = traced_pass(tracing, wl, args.seed, str(out_dir))
        runs.append(traced)
        if traced.counts() != passes[0].counts():
            problems.append("traced pass counts differ from the untraced passes")
        reported = {**metrics,
                    **tracing.layer_metrics(tracer, traced.solves, traced_s,
                                          statistics.median(t[0] for t in builds) + metrics["raw.wall_s"][0])}
        spans_path = out_dir / f"spans-seed{args.seed}.npz"
        tracer.save(spans_path)
        extra = {
            "traced_wall_s": traced_s,
            "absent_layers": tracer.absent,
            "layer_self_us": {n: ns / 1e3 for n, (_, ns) in tracer.layer_times().items()},
            "ratio_bases": tracing.ratio_bases(tracer, traced.solves),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }

    outcomes = [o for p in runs for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o["failed"] for o in outcomes)
    correct = failed == 0 and not problems
    missing = [m for m in wanted if m not in reported]
    if missing:
        problems.append(f"metrics not produced: {', '.join(missing)}")
        correct = False

    result = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "args": vars(args),
        "environment": env,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup": {"import_s": imports, "build_s": builds, "as": "(raw, rescaled) seconds"},
        "solve_samples": sum(len(p.solves) for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "outcomes": outcomes,
        "solves": [dict(s, pass_index=i) for i, p in enumerate(runs) for s in p.solves],
        **extra,
    }
    suffix = "-traced" if args.trace else ""
    result_path = out_dir / f"result-seed{args.seed}{suffix}.json"
    result_path.write_text(json.dumps(result, indent=1, default=str))

    for key in ("python", "numpy", "blas", "blas_threads_pinned", "nproc", "git_commit", "seed"):
        print(f"env {key}: {env[key]}")
    print(f"workload {wl.name}: {len(passes)} pass(es), {attempted} units attempted, {failed} failed, "
          f"{result['solve_samples']} solves timed")
    for name, (value, unit) in reported.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for o in outcomes:
        if o["failed"]:
            print(f"FAILED {o['unit']}: {o['why']}")
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"result written to {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": reported[m][0], "unit": reported[m][1]} for m in wanted if m in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
