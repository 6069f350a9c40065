"""Say which entries of a fixed run set differ between two checkouts, and by how much.

Run from the root of a checkout, with the root of another as the only argument:

    python3 tools/trace_compare.py OTHER_CHECKOUT

Each checkout runs ``runset.runs()`` (this checkout's run set) against its
own ``src/`` and ``perfbench/``, in a subprocess of its own with BLAS pinned
to one thread, and hands back every entry's fields: a trace's, or a direct
evaluation's.  For each entry that differs the script prints the status,
``g_evals`` and ``final_normg`` (the stream position, for a direct
evaluation) of the other checkout, then of this one, and per field that
differs its change of form (Python type, and dtype and shape for an array,
element by element inside a list) or else the number of entries that differ
and the largest difference in ulps (``nan`` when a NaN meets a number).
Entries compare bit for bit.  The last line counts the runs that differ, of
those the ones whose status or ``g_evals`` changed, that differ in
``norm_B`` alone and whose ``x_final`` changed, and the direct evaluations
that differ.  The script exits 1 when any entry differs, else 0.
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
runs = [(key, {f.name: getattr(tr, f.name) for f in dataclasses.fields(tr)}
         if dataclasses.is_dataclass(tr) else tr) for key, tr in runset.runs()]
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


def _form(value) -> str:
    """Python type, and dtype and shape for an array or length for a list."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype} array {value.shape}"
    return f"list of {len(value)}" if isinstance(value, list) else type(value).__name__


def _form_change(a, b):
    """``"form -> form"`` where two values first differ in form, element by
    element inside lists (prefixed ``[i]``); None if they never do."""
    if _form(a) != _form(b):
        return f"{_form(a)} -> {_form(b)}"
    if isinstance(a, list):
        return next((f"[{i}] {c}" for i, (p, q) in enumerate(zip(a, b))
                     if (c := _form_change(p, q))), None)
    return None


def field_difference(a, b):
    """``None`` if two field values are equal in form and bit for bit, else
    what differs: their change of form, or the entries that differ and the
    largest difference in ulps, a float field's (``nan`` where a NaN meets a
    number) or an integer's absolute difference."""
    if form := _form_change(a, b):
        return form
    x, y = _as_array(a), _as_array(b)
    if x.dtype.kind == "f":
        x, y = x.astype(np.float64), y.astype(np.float64)
        differ = x.view(np.int64) != y.view(np.int64)
    else:
        differ = x != y
    if not differ.any():
        return None
    count = f"{int(differ.sum())} of {x.size} differ"
    x, y = x[differ], y[differ]
    if x.dtype.kind not in "fiub":
        return count
    if x.dtype.kind != "f":
        ulps = int(np.abs(x.astype(object) - y.astype(object)).max())
    elif np.isnan(x).any() or np.isnan(y).any():
        ulps = float("nan")
    else:
        ulps = max(abs(p - q) for p, q in zip(_ordered(x), _ordered(y)))
    return f"{count}, max {ulps} ulps"


def _summary(fields) -> str:
    if not isinstance(fields, dict):
        return fields or "unsupported"
    if "status" not in fields:
        return f"position {fields['position']!r}"
    return f"{fields['status']} g_evals {fields['g_evals']} final_normg {fields['final_normg']!r}"


def compare(other: dict, this: dict) -> tuple:
    """Print each entry that differs; returns ``(runs that differ, runs whose
    status or g_evals changed, runs that differ in norm_B alone, runs whose
    x_final changed, direct evaluations that differ)``.  A run present or
    supported on one side only counts as changed and as moving its x_final.
    A direct evaluation is an entry whose fields hold no ``status``."""
    differ = changed = norm_only = moved_x = direct = 0
    for key in dict.fromkeys([*other, *this]):
        a, b = other.get(key, "absent"), this.get(key, "absent")
        if isinstance(a, dict) and isinstance(b, dict):
            lines = [(name, d) for name in dict.fromkeys([*a, *b])
                     if (d := field_difference(a.get(name), b.get(name))) is not None]
            if not lines:
                continue
        elif a == b:
            continue
        else:
            lines = []
        print(f"{key}: {_summary(a)} -> {_summary(b)}")
        for name, d in lines:
            print(f"    {name}: {d}")
        if any(isinstance(v, dict) and "status" not in v for v in (a, b)):
            direct += 1
            continue
        names = [name for name, _ in lines]
        differ += 1
        changed += not lines or (a["status"], a["g_evals"]) != (b["status"], b["g_evals"])
        norm_only += names == ["norm_B"]
        moved_x += not lines or "x_final" in names
    return differ, changed, norm_only, moved_x, direct


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OTHER_CHECKOUT")
    other, this = collect(Path(sys.argv[1]).resolve()), collect(TOOLS.parent)
    differ, changed, norm_only, moved_x, direct = compare(other, this)
    print(f"{differ} runs differ, {changed} with a changed status or g_evals, "
          f"{norm_only} in norm_B alone, {moved_x} with a changed x_final; "
          f"{direct} direct evaluations differ, of {len({*other, *this})} entries")
    sys.exit(1 if differ or direct else 0)


if __name__ == "__main__":
    main()
