import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "trace_compare", Path(__file__).resolve().parent.parent / "tools" / "trace_compare.py")
trace_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_compare)


def test_field_difference_counts_entries_and_ulps():
    diff = trace_compare.field_difference
    a = np.array([1.0, -2.0, 0.0, np.nan])
    assert diff(a, a.copy()) is None
    b = a.copy()
    b[1] = np.nextafter(b[1], -np.inf)
    b[2] = -5e-324
    assert diff(a, b) == (2, 1, (4, 4))
    # across zero, ulps add up from both sides
    assert diff(np.array([5e-324]), np.array([-5e-324])) == (1, 2, (1, 1))
    # -0.0 differs from 0.0 in its bits, by no ulp
    assert diff(np.array([0.0]), np.array([-0.0])) == (1, 0, (1, 1))
    # a NaN met by a number, and lengths that differ
    assert np.isnan(diff(a, np.array([1.0, -2.0, 0.0, 1.0]))[1])
    assert diff(a[:3], np.append(a[:3], 7.0)) == (1, None, (3, 4))
    # scalars, integers, strings, None and lists of arrays
    assert diff(1.5, np.nextafter(1.5, 2.0)) == (1, 1, (1, 1))
    assert diff(139, 140) == (1, 1, (1, 1))
    assert diff("converged", "max_iter") == (1, None, (1, 1))
    assert diff(None, None) is None and diff(None, [a]) == (1, None, (1, 1))
    assert diff([a[:2], a[2:3]], [a[:2], b[2:3]]) == (1, 1, (3, 3))


def test_compare_reports_each_run_that_differs(capsys):
    run = {"status": "converged", "g_evals": 3, "final_normg": 1e-4,
           "norm_B": np.array([1.0, 2.0])}
    nudged = dict(run, norm_B=np.array([1.0, np.nextafter(2.0, 3.0)]))
    other = {"a": run, "b": run, "c": None}
    assert trace_compare.compare(other, {"a": run, "b": nudged, "c": None}) == (1, 0)
    out = capsys.readouterr().out.splitlines()
    assert out == ["b: converged g_evals 3 final_normg 0.0001 -> converged g_evals 3 "
                   "final_normg 0.0001", "    norm_B: 1 of 2 differ, max 1 ulps"]
    assert trace_compare.compare(other, {"a": dict(run, g_evals=4), "c": None}) == (2, 2)
