import importlib.util
from pathlib import Path

import numpy as np
import pytest

from offo import hessian

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location("trace_compare", TOOLS / "trace_compare.py")
trace_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_compare)


def test_field_difference_counts_entries_and_ulps():
    diff = trace_compare.field_difference
    a = np.array([1.0, -2.0, 0.0, np.nan])
    assert diff(a, a.copy()) is None
    b = a.copy()
    b[1] = np.nextafter(b[1], -np.inf)
    b[2] = -5e-324
    assert diff(a, b) == "2 of 4 differ, max 1 ulps"
    # across zero, ulps add up from both sides
    assert diff(np.array([5e-324]), np.array([-5e-324])) == "1 of 1 differ, max 2 ulps"
    # -0.0 differs from 0.0 in its bits, by no ulp
    assert diff(np.array([0.0]), np.array([-0.0])) == "1 of 1 differ, max 0 ulps"
    # a NaN met by a number, and lengths that differ, which is a change of shape
    assert diff(a, np.array([1.0, -2.0, 0.0, 1.0])) == "1 of 4 differ, max nan ulps"
    assert diff(a[:3], np.append(a[:3], 7.0)) == "float64 array (3,) -> float64 array (4,)"
    # scalars, integers, strings, None and lists of arrays
    assert diff(1.5, float(np.nextafter(1.5, 2.0))) == "1 of 1 differ, max 1 ulps"
    assert diff(139, 140) == "1 of 1 differ, max 1 ulps"
    assert diff("converged", "max_iter") == "1 of 1 differ"
    assert diff(None, None) is None and diff(None, [a]) == "NoneType -> list of 1"
    assert diff([a[:2], a[2:3]], [a[:2], b[2:3]]) == "1 of 3 differ, max 1 ulps"


def test_compare_reports_each_run_that_differs(capsys):
    run = {"status": "converged", "g_evals": 3, "final_normg": 1e-4,
           "norm_B": np.array([1.0, 2.0])}
    nudged = dict(run, norm_B=np.array([1.0, np.nextafter(2.0, 3.0)]))
    other = {"a": run, "b": run, "c": None}
    assert trace_compare.compare(other, {"a": run, "b": nudged, "c": None}) == (1, 0, 1, 0, 0)
    out = capsys.readouterr().out.splitlines()
    assert out == ["b: converged g_evals 3 final_normg 0.0001 -> converged g_evals 3 "
                   "final_normg 0.0001", "    norm_B: 1 of 2 differ, max 1 ulps"]
    assert trace_compare.compare(other, {"a": dict(run, g_evals=4), "c": None}) == (2, 2, 0, 1, 0)


def test_compare_counts_norm_only_and_moved_runs(capsys):
    run = {"status": "converged", "g_evals": 3, "final_normg": 1e-4,
           "norm_B": np.array([1.0, 2.0]), "x_final": np.array([0.5, -0.5])}
    other = {k: run for k in "abcd"}
    this = {"a": run,
            "b": dict(run, norm_B=np.array([1.0, 2.5])),
            "c": dict(run, norm_B=np.array([1.0, 2.5]), q_step=np.array([1.0])),
            "d": dict(run, x_final=np.array([0.5, -0.25]))}
    # b differs in norm_B alone; c in norm_B and a field the other lacks; d moves
    assert trace_compare.compare(other, this) == (3, 0, 1, 1, 0)
    this["e"] = None
    assert trace_compare.compare(other, this) == (4, 1, 1, 2, 0)


_BANDS = hessian.Bands([np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0])])


@pytest.mark.parametrize("a, b, change", [
    (1e-4, np.float64(1e-4), "float -> float64"),
    (139, np.int64(139), "int -> int64"),
    (np.ones(3, np.float32), np.ones(3), "float32 array (3,) -> float64 array (3,)"),
    (np.ones((1, 3)), np.ones(3), "float64 array (1, 3) -> float64 array (3,)"),
    (list(_BANDS), np.asarray(_BANDS), "list of 2 -> float64 array (3, 3)"),
    ([np.ones(2), np.ones(3, np.float32)], [np.ones(2), np.ones(3)],
     "[1] float32 array (3,) -> float64 array (3,)"),
])
def test_a_change_of_form_is_a_difference(a, b, change, capsys):
    assert trace_compare.field_difference(a, b) == change
    run = {"status": "converged", "g_evals": 3, "final_normg": a}
    assert trace_compare.compare({"r": run}, {"r": dict(run, final_normg=b)}) == (1, 0, 0, 0, 0)
    assert capsys.readouterr().out.splitlines()[-1] == f"    final_normg: {change}"


def test_compare_counts_direct_evaluations_apart(capsys):
    entry = {"value@0": 1.0, "hess@0": "unsupported", "position": 6}
    other = {"direct p": entry, "run": None}
    this = {"direct p": dict(entry, position=7), "run": None}
    assert trace_compare.compare(other, this) == (0, 0, 0, 0, 1)
    assert capsys.readouterr().out.splitlines() == [
        "direct p: position 6 -> position 7", "    position: 1 of 1 differ, max 1 ulps"]
    assert trace_compare.compare(other, {"run": None}) == (0, 0, 0, 0, 1)


_OTHER = {"run": None, "direct p": {"position": 6}}


@pytest.mark.parametrize("this, code, last", [
    (_OTHER, 0, "0 runs differ, 0 with a changed status or g_evals, 0 in norm_B alone, "
                "0 with a changed x_final; 0 direct evaluations differ, of 2 entries"),
    (dict(_OTHER, **{"direct p": {"position": 7}}), 1, "0 runs differ, 0 with a changed "
     "status or g_evals, 0 in norm_B alone, 0 with a changed x_final; 1 direct evaluations "
     "differ, of 2 entries"),
    ({"direct p": {"position": 6}}, 1, "1 runs differ, 1 with a changed status or g_evals, "
     "0 in norm_B alone, 1 with a changed x_final; 0 direct evaluations differ, of 2 entries"),
])
def test_main_exits_1_when_any_entry_differs(this, code, last, monkeypatch, capsys):
    monkeypatch.setattr(trace_compare, "collect",
                        lambda root: this if root == TOOLS.parent else _OTHER)
    monkeypatch.setattr("sys.argv", ["trace_compare.py", "other"])
    with pytest.raises(SystemExit) as exit_:
        trace_compare.main()
    assert exit_.value.code == code
    assert capsys.readouterr().out.splitlines()[-1] == last


def test_direct_evaluations_cover_the_desk_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS.parent))
    monkeypatch.syspath_prepend(str(TOOLS))
    import runset

    direct = dict(runset.direct_evaluations())
    assert len(direct) == 38
    assert all(key.startswith("direct ") for key in direct)
    assert isinstance(direct["direct tridia:10 noise=0"]["hess@0"], list)
    assert direct["direct nlminsurf:16 noise=0"]["hess@0"] == "unsupported"
    assert direct["direct rosenbr:10 noise=0.15"]["position"] == 6
