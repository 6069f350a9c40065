"""Compare two commits on the benchmark in alternating pairs and write a BENCH file.

Run from the root of a checkout, with both commits committed:

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json

For each workload of ``BENCHMARK.json`` and each of the 10 pairs i, both
commits run ``perfbench/run.py --workload W --seed i --seconds S``, with S
the benchmark's ``run_seconds``, from a fresh ``git archive`` copy each, the
parent first in even pairs and the change first in odd ones.  The output
records every run's verdict (``failed``, ``correct`` and the exit code, per
side and workload) and end-to-end metrics, and per metric the medians, the
parent's quartiles and the number of pairs the change wins (ties count for
neither side), with the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: the pairs per workload that a claimed gain is judged on
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(rev: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``rev`` in a fresh copy; its final JSON line."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "src.tar"
        subprocess.run(["git", "archive", "-o", str(archive), rev], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "tree", filter="data")
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
        res = subprocess.run(cmd, cwd=Path(tmp) / "tree", capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{rev} {workload} seed {seed} printed nothing:\n{res.stderr}")
    out = json.loads(lines[-1])
    out["exit_code"] = res.returncode
    return out


def _summary(parent: list, change: list, better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_wins": wins,
        "parent_wins": losses,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    spec = json.loads(_git("show", f"{revs['change']}:BENCHMARK.json"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {
        "commits": revs,
        "protocol": (f"{PAIRS} alternating pairs per workload of perfbench/run.py "
                     f"--seconds {seconds:g} --seed <pair index>, each run from a fresh "
                     "git archive copy; times rescaled to perfbench's reference speed"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for w in spec["workloads"]:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(revs[side], w["name"], i, seconds))
                print(w["name"], i, side, json.dumps(runs[side][-1]["metrics"]), flush=True)
        result["workloads"][w["name"]] = {
            **{field: {side: [r[field] for r in rs] for side, rs in runs.items()}
               for field in ("failed", "correct", "exit_code")},
            "metrics": {
                name: _summary([r["metrics"][name]["value"] for r in runs["parent"]],
                               [r["metrics"][name]["value"] for r in runs["change"]], better)
                for name, better in metrics.items()
            },
        }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
