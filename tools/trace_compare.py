"""Say which runs of the digest's run set differ between two checkouts, and by how much.

Run from the root of a checkout, with the root of another as the only argument:

    python3 tools/trace_compare.py OTHER_CHECKOUT

Each checkout runs ``runset.runs()`` (this checkout's run set, the one
``trace_digest.py`` digests) against its own ``src/`` and ``perfbench/``, in
a subprocess of its own with BLAS pinned to one thread, and hands back every
trace's fields.  For each run whose traces differ the script prints the
status, ``g_evals`` and ``final_normg`` of the other checkout, then of this
one, and per field that differs the number of entries that differ and the
largest difference in ulps (counted over the common length when the lengths
differ; ``nan`` when a NaN meets a number).  Entries compare bit for bit.  It
ends with the number of runs that differ, and of those whose status or
``g_evals`` changed.  Direct evaluations are the digest's alone.
"""
from __future__ import annotations

import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent

#: run in each checkout: its src/ and perfbench/ first on the path, then this
#: checkout's run set; writes ``[(key, {field: value} or None)]``
_WORKER = """
import dataclasses, os, pickle, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
root, tools, out = sys.argv[1:]
sys.path[:0] = [os.path.join(root, "src"), root, tools]
import runset
runs = [(key, None if tr is None else {f.name: getattr(tr, f.name) for f in dataclasses.fields(tr)})
        for key, tr in runset.runs()]
with open(out, "wb") as fh:
    pickle.dump(runs, fh)
"""


def collect(root: Path) -> dict:
    """``{key: fields or None}`` of the run set, run in the checkout at ``root``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs.pickle"
        subprocess.run([sys.executable, "-c", _WORKER, str(root), str(TOOLS), str(out)],
                       cwd=root, check=True)
        with open(out, "rb") as fh:
            return dict(pickle.load(fh))


def _ordered(x: np.ndarray) -> list:
    """float64 bits as integers in the order of the values they encode."""
    bits = x.view(np.int64).tolist()
    return [b if b >= 0 else -(1 << 63) - b for b in bits]


def _as_array(value) -> np.ndarray:
    if isinstance(value, list):
        return np.concatenate([np.ravel(v) for v in value]) if value else np.empty(0)
    return np.atleast_1d(np.asarray(value))


def field_difference(a, b):
    """``None`` if two field values are equal bit for bit, else
    ``(entries that differ, largest difference in ulps or None, lengths)``;
    the ulps are a float64 field's (``nan`` where a NaN meets a number), an
    integer's absolute difference, and None for any other type."""
    if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
        return None if a == b else (1, None, (1, 1))
    x, y = _as_array(a), _as_array(b)
    lengths = (x.size, y.size)
    if x.dtype.kind != y.dtype.kind:
        return (max(lengths), None, lengths)
    m = min(lengths)
    x, y = x[:m], y[:m]
    if x.dtype.kind == "f":
        x, y = x.astype(np.float64), y.astype(np.float64)
        differ = x.view(np.int64) != y.view(np.int64)
    else:
        differ = x != y
    count = int(differ.sum()) + abs(lengths[0] - lengths[1])
    if not count:
        return None
    if not differ.any():
        return (count, None, lengths)
    x, y = x[differ], y[differ]
    if x.dtype.kind == "f":
        if np.isnan(x).any() or np.isnan(y).any():
            return (count, float("nan"), lengths)
        ulps = max(abs(p - q) for p, q in zip(_ordered(x), _ordered(y)))
    elif x.dtype.kind in "iub":
        ulps = int(np.abs(x.astype(object) - y.astype(object)).max())
    else:
        ulps = None
    return (count, ulps, lengths)


def _summary(fields) -> str:
    if not isinstance(fields, dict):
        return fields or "unsupported"
    return f"{fields['status']} g_evals {fields['g_evals']} final_normg {fields['final_normg']!r}"


def compare(other: dict, this: dict) -> tuple:
    """Print each run that differs; returns ``(runs that differ, runs whose
    status or g_evals changed)``."""
    differ = changed = 0
    for key in dict.fromkeys([*other, *this]):
        a, b = other.get(key, "absent"), this.get(key, "absent")
        if isinstance(a, dict) and isinstance(b, dict):
            lines = [(name, d) for name in dict.fromkeys([*a, *b])
                     if (d := field_difference(a.get(name), b.get(name))) is not None]
            if not lines:
                continue
            moved = (a["status"], a["g_evals"]) != (b["status"], b["g_evals"])
        elif a == b:
            continue
        else:
            lines, moved = [], True
        differ += 1
        changed += moved
        print(f"{key}: {_summary(a)} -> {_summary(b)}")
        for name, (count, ulps, (la, lb)) in lines:
            size = f"of {la}" if la == lb else f"(lengths {la} -> {lb})"
            print(f"    {name}: {count} {size} differ" + ("" if ulps is None else f", max {ulps} ulps"))
    return differ, changed


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OTHER_CHECKOUT")
    other_root = Path(sys.argv[1]).resolve()
    this_root = TOOLS.parent
    other, this = collect(other_root), collect(this_root)
    differ, changed = compare(other, this)
    print(f"{differ} runs differ, {changed} with a changed status or g_evals")


if __name__ == "__main__":
    main()
