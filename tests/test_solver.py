import dataclasses

import numpy as np
import pytest

from offo import problems, solver
from offo.hessian import BBDiagModel, make_model
from offo.problems import NoisyOracle, ProblemInstance, base_problem, fresh_stream, make_problem
from offo.scaling import ScalingRule, rule_from_name
from offo.solver import (
    Astr1Config,
    astr1_run,
    cauchy_step,
    sdba_run,
    solve_subproblem,
    trust_radius,
)


def quad1d(x0=1.0):
    return ProblemInstance(
        "quad1d", 1, np.array([x0]), 0.0,
        lambda x: 0.5 * float(x[0]) ** 2,
        lambda x: x.copy(),
        lambda x: np.eye(1),
        lower_bound_certified=True, lipschitz_exact=True, _lipschitz=1.0,
    )


def matrix_model(B, kappa_B=1e5):
    return make_model("exact", kappa_B=kappa_B).with_matrix(np.atleast_2d(B))


class CountingModel:
    """A curvature model whose matvec calls are counted."""

    is_zero = False

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        return self.model.matvec(v)


def model_value(g, B, s):
    return float(g @ s + 0.5 * (s @ B @ s))


def test_trust_radius_box():
    assert np.allclose(trust_radius(np.array([2.0]), np.array([4.0]), "box"), [0.5])


def test_trust_radius_zero_gradient():
    assert np.allclose(trust_radius(np.zeros(3), np.ones(3), "box"), 0.0)


def test_trust_radius_ball():
    r = trust_radius(np.array([3.0, -4.0]), np.array([5.0, 5.0]), "ball")
    assert r == pytest.approx(1.0)


def test_cauchy_step_zero_model():
    g = np.array([1.0, -2.0])
    radii = trust_radius(g, np.ones(2), "box")
    cs = cauchy_step(g, make_model("none").matvec, radii, "box")
    assert cs.gamma == 1.0
    assert np.array_equal(cs.s_Q, cs.s_L)
    assert np.allclose(np.abs(cs.s_L), radii)


def test_cauchy_step_positive_curvature_hand_values():
    # n=1, g=1, B=4, Delta=1: gamma = 1/4, q_Q = -1/8
    cs = cauchy_step(np.array([1.0]), matrix_model([[4.0]]).matvec, np.array([1.0]), "box")
    assert cs.s_L[0] == pytest.approx(-1.0)
    assert cs.gamma == pytest.approx(0.25)
    assert cs.s_Q[0] == pytest.approx(-0.25)
    assert cs.q_Q == pytest.approx(-0.125)


def test_cauchy_step_negative_curvature_hand_values():
    cs = cauchy_step(np.array([1.0]), matrix_model([[-1.0]]).matvec, np.array([1.0]), "box")
    assert cs.gamma == 1.0
    assert cs.s_Q[0] == pytest.approx(-1.0)
    assert cs.q_Q == pytest.approx(-1.5)


def test_subproblem_zero_model_returns_full_cauchy():
    g = np.array([1.0, -0.5, 0.0])
    radii = trust_radius(g, np.full(3, 2.0), "box")
    model = make_model("none")
    cs = cauchy_step(g, model.matvec, radii, "box")
    s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1, tol=1e-10)
    assert np.array_equal(s, cs.s_L)
    assert q == pytest.approx(g @ cs.s_L)


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("geometry", ["box", "ball"])
def test_zero_model_closed_form_cauchy_matches_matvec_path_bitwise(geometry):
    rng = np.random.default_rng(11)
    zero = make_model("none")
    cases = [np.zeros(3), np.array([1e-300, -1e-300]), np.array([-0.0, 2.0])]
    for _ in range(200):
        n = int(rng.integers(1, 20))
        g = rng.normal(size=n) * 10.0 ** rng.integers(-100, 100, size=n)
        g[rng.random(n) < 0.2] = 0.0
        cases.append(g)
    for g in cases:
        w = 10.0 ** rng.uniform(-3, 3, size=g.size)
        if geometry == "ball":
            w[:] = w[0]
        radii = trust_radius(g, w, geometry)
        closed = cauchy_step(g, None, radii, geometry)
        product = cauchy_step(g, zero.matvec, radii, geometry)
        assert closed.s_L.tobytes() == product.s_L.tobytes()
        assert closed.s_Q.tobytes() == product.s_Q.tobytes()
        assert _same_float(closed.gamma, product.gamma)
        assert _same_float(closed.q_Q, product.q_Q)
        s_a, q_a = solve_subproblem(g, zero, radii, geometry, closed, tau=0.1, tol=1e-10)
        s_b, q_b = solve_subproblem(g, zero, radii, geometry, product, tau=0.1, tol=1e-10)
        assert s_a.tobytes() == s_b.tobytes() == product.s_L.tobytes()
        assert _same_float(q_a, q_b)


def test_subproblem_interior_solution_1d():
    g = np.array([1.0])
    radii = np.array([1.0])
    model = matrix_model([[4.0]])
    cs = cauchy_step(g, model.matvec, radii, "box")
    s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1, tol=1e-10)
    assert s[0] == pytest.approx(-0.25, abs=1e-12)
    assert q == pytest.approx(-0.125, abs=1e-12)
    assert q <= 0.1 * cs.q_Q + 1e-15


def test_subproblem_matches_dense_solve_inside_large_region():
    rng = np.random.default_rng(8)
    n = 5
    A = rng.normal(size=(n, n))
    B = A @ A.T + n * np.eye(n)
    g = rng.normal(size=n)
    model = matrix_model(B)
    radii = np.full(n, 1e3)
    cs = cauchy_step(g, model.matvec, radii, "box")
    s, _ = solve_subproblem(g, model, radii, "box", cs, tau=0.1,
                            tol=max(1e-12, 1e-5 * np.linalg.norm(g)))
    s_star = np.linalg.solve(B, -g)
    resid = np.linalg.norm(g + B @ s)
    assert resid <= max(1e-12, 1e-5 * np.linalg.norm(g)) * 1.001
    assert np.linalg.norm(s - s_star) <= 1e-4 * (1 + np.linalg.norm(s_star))


def test_subproblem_ball_matches_dense_solve():
    rng = np.random.default_rng(9)
    n = 4
    A = rng.normal(size=(n, n))
    B = A @ A.T + n * np.eye(n)
    g = rng.normal(size=n)
    model = matrix_model(B)
    cs = cauchy_step(g, model.matvec, 1e3, "ball")
    s, _ = solve_subproblem(g, model, 1e3, "ball", cs, tau=0.1,
                            tol=max(1e-12, 1e-5 * np.linalg.norm(g)))
    s_star = np.linalg.solve(B, -g)
    assert np.linalg.norm(s - s_star) <= 1e-4 * (1 + np.linalg.norm(s_star))


def test_subproblem_ball_exits_on_boundary_under_negative_curvature():
    # the first CG direction has positive curvature, the second negative
    g = np.array([0.1, 1.0])
    B = np.diag([-3.0, 1.0])
    delta = 10.0
    model = matrix_model(B)
    cs = cauchy_step(g, model.matvec, delta, "ball")
    s, q = solve_subproblem(g, model, delta, "ball", cs, tau=0.1, tol=1e-10)
    assert delta * (1 - 1e-12) <= np.linalg.norm(s) <= delta * (1 + 1e-12)
    assert q == pytest.approx(model_value(g, B, s), rel=1e-12)
    assert q < cs.q_Q  # beats the Cauchy point, so it is no fallback


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_subproblem_falls_back_to_a_copy_of_the_cauchy_point(monkeypatch, fill):
    monkeypatch.setattr(solver, "_cg_box", lambda g, matvec, delta, tol: np.full(g.size, fill))
    g = np.array([1.0, -2.0, 0.5])
    model = matrix_model(np.diag([2.0, 1.0, 3.0]))
    radii = trust_radius(g, np.full(3, 2.0), "box")
    cs = cauchy_step(g, model.matvec, radii, "box")
    s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1, tol=1e-10)
    assert s is not cs.s_Q
    assert s.tobytes() == cs.s_Q.tobytes()
    assert _same_float(q, cs.q_Q)


def test_subproblem_respects_box_and_gcp_under_negative_curvature():
    rng = np.random.default_rng(10)
    n = 6
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    B = Q @ np.diag(rng.uniform(-3, 3, n)) @ Q.T
    g = rng.normal(size=n)
    model = matrix_model(B)
    radii = np.abs(g) / rng.uniform(0.5, 2.0, n)
    cs = cauchy_step(g, model.matvec, radii, "box")
    s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1, tol=1e-8)
    assert np.all(np.abs(s) <= radii * (1 + 1e-14) + 1e-300)
    assert q <= 0.1 * cs.q_Q + 1e-12
    assert cs.q_Q <= 0.0


def test_box_corner_of_diagonal_model_in_a_few_matvecs():
    # B = c I with every coordinate's minimizer -g_i / c outside its bound:
    # the box minimizer is the corner, reached by one projected search
    rng = np.random.default_rng(11)
    n, c = 1000, 2.5
    g = rng.normal(size=n)
    radii = np.abs(g) / (c * rng.uniform(1.5, 3.0, n))
    model = CountingModel(BBDiagModel(scale=c))
    cs = cauchy_step(g, model.model.matvec, radii, "box")
    s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1,
                            tol=1e-5 * np.linalg.norm(g))
    assert np.array_equal(s, np.clip(-g / c, -radii, radii))
    assert model.calls <= 8


def test_box_subproblem_matches_bvls_on_diagonal_models():
    optimize = pytest.importorskip("scipy.optimize")
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        b = rng.uniform(0.1, 10.0, n)
        g = rng.normal(size=n)
        radii = np.abs(g) / rng.uniform(0.05, 20.0, n)
        model = matrix_model(np.diag(b))
        cs = cauchy_step(g, model.matvec, radii, "box")
        s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1,
                                tol=1e-14 * np.linalg.norm(g))
        ref = optimize.lsq_linear(np.diag(np.sqrt(b)), -g / np.sqrt(b),
                                  bounds=(-radii, radii), method="bvls", tol=1e-15).x
        q_ref = model_value(g, np.diag(b), ref)
        assert abs(q - q_ref) <= 1e-12 * (1.0 + abs(q_ref)), seed


@pytest.mark.parametrize("kind", ["spd", "lowrank", "indefinite"])
def test_box_cg_step_is_inside_and_beats_cauchy(kind):
    n = 40
    for seed in range(10):
        rng = np.random.default_rng(seed)
        if kind == "spd":
            A = rng.normal(size=(n, n))
            B = A @ A.T / n + 0.1 * np.eye(n)
        elif kind == "lowrank":
            U = rng.normal(size=(n, 3))
            B = np.diag(rng.uniform(0.5, 2.0, n)) + U @ U.T
        else:
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            B = Q @ np.diag(rng.uniform(-3.0, 3.0, n)) @ Q.T
        g = rng.normal(size=n)
        radii = np.abs(g) / rng.uniform(0.2, 5.0, n)
        model = matrix_model(B)
        cs = cauchy_step(g, model.matvec, radii, "box")
        # the CG step itself, before the Cauchy fallback could mask a miss
        s = solver._cg_box(g, model.matvec, radii, 1e-10)
        assert np.all(np.abs(s) <= radii), (kind, seed)
        assert model_value(g, B, s) <= 0.1 * cs.q_Q, (kind, seed)


def test_box_subproblem_matvec_budget_at_large_n(monkeypatch):
    # four adagbfgs3 steps on broyden3d at n=1000 from a perturbed x0; one
    # CG restart per bound hit took about 7900 matvecs here
    p = make_problem("broyden3d", 1000)
    p = dataclasses.replace(p, x0=p.x0 + 1e-3 * np.random.default_rng(0).standard_normal(p.n))
    counted = []
    original = solver.solve_subproblem

    def counting(g, model, *args):
        model = CountingModel(model)
        out = original(g, model, *args)
        counted.append(model.calls)
        return out

    monkeypatch.setattr(solver, "solve_subproblem", counting)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), model="lbfgs3", max_iter=4)
    tr = astr1_run(p, cfg)
    assert tr.steps == len(counted) == 4
    assert sum(counted) <= 1000


def test_noisy_runs_own_their_stream():
    p = make_problem("rosenbr", 4)
    oracle = NoisyOracle(p, 0.15, seed=7)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-3, max_iter=300)
    for run in (lambda: astr1_run(oracle, cfg), lambda: sdba_run(oracle, eps=1e-3, max_iter=300)):
        t1, t2 = run(), run()
        assert np.array_equal(t1.normg, t2.normg)
        assert np.array_equal(t1.x_final, t2.x_final)
        assert np.array_equal(t1.step_norm, t2.step_norm)
    assert oracle._position == 0


def test_first_iterate_hand_value_on_quadratic():
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), max_iter=2, record_vectors=True)
    tr = astr1_run(quad1d(), cfg)
    assert tr.x_hist[1][0] == pytest.approx(1.0 - 1.0 / np.sqrt(1.01), abs=1e-12)


def test_zero_gradient_start_converges_immediately():
    cfg = Astr1Config(scaling=rule_from_name("adagrad"))
    tr = astr1_run(quad1d(x0=0.0), cfg)
    assert tr.status == "converged"
    assert tr.steps == 0
    assert tr.g_evals == 1


def test_run_converges_and_invariants_hold_on_rosenbrock():
    p = make_problem("rosenbr", 10)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-3, max_iter=100_000)
    tr = astr1_run(p, cfg)
    assert tr.status == "converged"
    assert tr.final_normg <= 1e-3
    assert np.all(tr.sbound_resid <= 1e-14)
    assert np.all(tr.gcp_resid <= 1e-12 * (1.0 + np.abs(tr.q_cauchy)))
    assert np.all(tr.q_cauchy <= 1e-15)
    assert tr.f_evals == 0


def test_objective_oracle_untouched_without_instrumentation():
    p = make_problem("tridia", 8)
    for model in ("none", "bb", "lbfgs3", "exact"):
        cfg = Astr1Config(scaling=rule_from_name("adagrad"), model=model,
                          eps=1e-4, max_iter=500)
        tr = astr1_run(p, cfg)
        assert tr.f_evals == 0, model


def test_instrumented_run_records_f_without_affecting_steps():
    p = make_problem("tridia", 6)
    cfg_a = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-5, max_iter=300)
    cfg_b = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-5, max_iter=300,
                        instrument_f=True)
    ta = astr1_run(p, cfg_a)
    tb = astr1_run(p, cfg_b)
    assert np.array_equal(ta.normg, tb.normg)
    assert tb.f_evals == len(tb.normg)
    assert not np.any(np.isnan(tb.f))


def test_determinism_bitwise():
    p = make_problem("broyden3d", 8)
    cfg = Astr1Config(scaling=rule_from_name("adam"), eps=1e-4, max_iter=2000)
    t1 = astr1_run(p, cfg)
    t2 = astr1_run(p, cfg)
    assert np.array_equal(t1.normg, t2.normg)
    assert np.array_equal(t1.x_final, t2.x_final)
    # noisy runs replay bit-identically under the same seed
    t3 = astr1_run(NoisyOracle(p, 0.15, seed=3), cfg)
    t4 = astr1_run(NoisyOracle(p, 0.15, seed=3), cfg)
    assert np.array_equal(t3.normg, t4.normg)


def test_overflow_status_on_divergent_problem():
    p = make_problem("box3", 3)
    # exp(-t x1) overflows for x1 below about -709/t
    big = ProblemInstance("boxed", 3, np.array([-800.0, 1.0, 1.0]), 0.0,
                          p.fn, p.grad_fn, None)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-8, max_iter=50)
    tr = astr1_run(big, cfg)
    assert tr.status == "overflow"


def ramp(derivative, at=3.0):
    """f = -x1 - x2 from 0, whose ``derivative`` turns infinite once max(x) >= at."""

    def gate(kind, value, x):
        return value if kind != derivative or x.max() < at else np.full_like(value, np.inf)

    return ProblemInstance(f"ramp-{derivative}", 2, np.zeros(2), -np.inf,
                           lambda x: gate("value", -x.sum(), x),
                           lambda x: gate("grad", -np.ones(2), x),
                           lambda x: gate("hess", np.zeros((2, 2)), x))


@pytest.mark.parametrize("derivative, model", [("value", "none"), ("hess", "exact")])
def test_overflow_keeps_the_completed_evaluations(derivative, model):
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), model=model, max_iter=1000,
                      instrument_f=derivative == "value")
    tr = astr1_run(ramp(derivative), cfg)
    assert tr.status == "overflow"
    if derivative == "value":
        # the last gradient's objective value overflowed, so it was not recorded
        assert tr.f_evals == tr.g_evals and len(tr.normg) == tr.f_evals - 1
        assert np.isfinite(tr.f).all()
    else:
        # every gradient was recorded; the last one's Hessian overflowed
        assert tr.h_evals == tr.g_evals and len(tr.normg) == tr.g_evals
    assert len(tr.normg) >= 2 and tr.steps == tr.g_evals - 1
    for c in ("normg", "f") + solver._STEP_COLS:
        col = getattr(tr, c)
        assert type(col) is np.ndarray and col.dtype == np.float64, c
    assert type(tr.final_normg) is float and tr.final_normg == tr.normg[-1]
    assert type(tr.x_final) is np.ndarray and tr.x_final.max() >= 3.0


def test_ball_geometry_requires_aggregated_rule():
    with pytest.raises(ValueError):
        Astr1Config(scaling=rule_from_name("adagrad"), geometry="ball")
    cfg = Astr1Config(scaling=rule_from_name("adagnorm"), geometry="ball",
                      eps=1e-4, max_iter=500)
    tr = astr1_run(make_problem("tridia", 6), cfg)
    assert tr.status == "converged"


def test_trace_csv_columns(tmp_path):
    p = make_problem("tridia", 4)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-4, max_iter=200)
    tr = astr1_run(p, cfg)
    out = tmp_path / "trace.csv"
    tr.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "k,normg,f,delta_min,delta_max,gamma,status"
    assert out.read_text().strip().endswith("converged")


def test_sdba_monotone_on_quadratic():
    tr = sdba_run(quad1d(), eps=1e-8)
    assert tr.status == "converged"
    fs = tr.f[~np.isnan(tr.f)]
    assert np.all(np.diff(fs) <= 0)


def test_sdba_zero_gradient_start():
    tr = sdba_run(quad1d(x0=0.0))
    assert tr.status == "converged"
    assert tr.steps == 0


def test_sdba_counts_function_evaluations():
    tr = sdba_run(make_problem("tridia", 6), eps=1e-4, max_iter=2000)
    assert tr.status == "converged"
    assert tr.f_evals >= tr.g_evals - 1


def test_sdba_noise_hurts_more_than_adagrad():
    p = make_problem("rosenbr", 2)
    wins = {"adagrad": 0, "sdba": 0}
    for seed in range(10):
        noisy = NoisyOracle(p, 0.15, seed=seed)
        cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-3, max_iter=20_000)
        if astr1_run(noisy, cfg).status == "converged":
            wins["adagrad"] += 1
        noisy2 = NoisyOracle(p, 0.15, seed=seed)
        if sdba_run(noisy2, eps=1e-3, max_iter=20_000).status == "converged":
            wins["sdba"] += 1
    assert wins["adagrad"] >= wins["sdba"] + 3


_STEP_COLUMNS = ("w_min", "w_max", "delta_min", "delta_max", "gamma", "q_step",
                 "q_cauchy", "norm_B", "sbound_resid", "gcp_resid", "step_norm")


def _reference_weights(rule, acc, k, n, theta):
    sig = rule.sigma_vector(acc.size)
    if rule.variant == "adagrad-like":
        w = theta * np.sqrt(rule.vartheta) * (sig + acc) ** rule.mu
    elif rule.variant == "adam-like":
        w = theta * np.sqrt(sig + acc)
    else:
        v = acc if rule.variant == "diminishing-max" else acc / (k + 1)
        w = theta * np.maximum(sig, v) * (k + 1) ** rule.nu
    return np.full(n, w[0]) if rule.aggregated else w


def reference_run(problem, cfg):
    """The ASTR1 loop written plainly, as a yardstick for the optimized one.

    Out-of-place scaling recurrence, the Cauchy step through the model's
    matvec, ``np.linalg.norm`` and a copy of every step.
    """
    oracle = fresh_stream(problem)
    x = np.array(base_problem(problem).x0, dtype=float)
    n = x.size
    rule = cfg.scaling
    theta = float(np.sqrt(n)) if rule.theta_auto else rule.theta
    acc, k = np.zeros(1 if rule.aggregated else n), -1
    model = make_model(cfg.model, kappa_B=cfg.kappa_B)
    normgs, cols = [], {c: [] for c in _STEP_COLUMNS}
    prev_g = prev_s = None
    status = "max_iter"
    for _ in range(cfg.max_iter):
        g = oracle.grad(x)
        normg = float(np.linalg.norm(g))
        normgs.append(normg)
        if normg <= cfg.eps:
            status = "converged"
            break
        if prev_g is not None:
            model = model.update(prev_s, g - prev_g)
        mag = np.array([np.linalg.norm(g)]) if rule.aggregated else np.abs(g)
        if rule.variant == "adagrad-like":
            acc = acc + mag**2
        elif rule.variant == "adam-like":
            acc = rule.beta2 * acc + mag**2
        elif rule.variant == "diminishing-max":
            acc = np.maximum(acc, mag)
        else:
            acc = acc + mag
        k += 1
        w = _reference_weights(rule, acc, k, n, theta)
        radii = trust_radius(g, w, cfg.geometry)
        cs = cauchy_step(g, model.matvec, radii, cfg.geometry)
        tol = max(solver._CG_ABS, solver._CG_REL * normg)
        s, q_s = solve_subproblem(g, model, radii, cfg.geometry, cs, cfg.tau, tol)
        s = s.copy()
        if cfg.geometry == "box":
            sbound = float(np.max((np.abs(s) - radii) / (1.0 + radii)))
        else:
            sbound = float((np.linalg.norm(s) - radii) / (1.0 + radii))
        row = (float(w.min()), float(w.max()), float(np.min(radii)), float(np.max(radii)),
               cs.gamma, q_s, cs.q_Q, model.norm_estimate(), sbound,
               q_s - cfg.tau * cs.q_Q, float(np.linalg.norm(s)))
        for c, v in zip(_STEP_COLUMNS, row):
            cols[c].append(v)
        x = x + s
        prev_g, prev_s = g, s
    return status, normgs, cols, x


@pytest.mark.parametrize("model", ["none", "bb"])
@pytest.mark.parametrize("rule_name,geometry", [
    ("adagrad", "box"), ("adagnorm", "box"), ("adagnorm", "ball"), ("adam", "box"), ("maxg", "box"),
])
def test_loop_matches_reference_loop_bitwise(rule_name, geometry, model):
    for name, n in (("rosenbr", 10), ("woods", 12), ("beale", 2)):
        noisy = NoisyOracle(make_problem(name, n), 0.15, seed=0)
        cfg = Astr1Config(scaling=rule_from_name(rule_name), model=model, geometry=geometry,
                          eps=1e-4, max_iter=300)
        tr = astr1_run(noisy, cfg)
        status, normgs, cols, x = reference_run(noisy, cfg)
        tag = (name, rule_name, geometry, model)
        assert tr.status == status, tag
        assert tr.g_evals == len(normgs), tag
        assert tr.normg.tobytes() == np.asarray(normgs, dtype=float).tobytes(), tag
        assert tr.f.tobytes() == np.full(len(normgs), np.nan).tobytes(), tag
        for c in _STEP_COLUMNS:
            assert getattr(tr, c).tobytes() == np.asarray(cols[c], dtype=float).tobytes(), tag + (c,)
        assert tr.x_final.tobytes() == x.tobytes(), tag
        assert _same_float(tr.final_normg, normgs[-1]), tag


def _reference_apply_noise(oracle, value, stream_position):
    if oracle.level == 0.0:
        return value
    z = np.random.default_rng([oracle.seed, stream_position]).standard_normal(np.shape(value))
    noisy = value * (1.0 + oracle.level * z)
    return float(noisy) if np.ndim(value) == 0 else noisy


def _trace_fields(tr):
    out = {}
    for f in dataclasses.fields(tr):
        v = getattr(tr, f.name)
        if isinstance(v, np.ndarray):
            v = v.tobytes()
        elif isinstance(v, float):
            v = np.float64(v).tobytes()
        out[f.name] = v
    return out


def test_block_seeded_noise_gives_the_reference_traces(monkeypatch):
    methods = {
        "adagrad": lambda t: astr1_run(t, Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-3,
                                                      max_iter=1500)),
        "adagnorm": lambda t: astr1_run(t, Astr1Config(scaling=rule_from_name("adagnorm"), eps=1e-3,
                                                       max_iter=1500)),
        "sdba": lambda t: sdba_run(t, eps=1e-3, max_iter=1500),
    }
    runs = [(m, name, n, seed) for m in methods for name, n in (("rosenbr", 10), ("woods", 12), ("beale", 2))
            for seed in (0, 1)]
    fast = {r: methods[r[0]](NoisyOracle(make_problem(r[1], r[2]), 0.15, seed=r[3])) for r in runs}
    monkeypatch.setattr(problems, "apply_noise", _reference_apply_noise)
    longest = 0
    for r in runs:
        ref = methods[r[0]](NoisyOracle(make_problem(r[1], r[2]), 0.15, seed=r[3]))
        assert _trace_fields(fast[r]) == _trace_fields(ref), r
        longest = max(longest, ref.f_evals + ref.g_evals)
    assert longest > 1024  # one stream crosses a block boundary
