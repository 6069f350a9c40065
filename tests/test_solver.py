import dataclasses
import math
import re

import numpy as np
import pytest

from offo import bench, problems, sharpness, solver
from offo.hessian import Bands, LbfgsModel, make_model
from offo.problems import NoisyOracle, ProblemInstance, base_problem, fresh_stream, make_problem
from offo.scaling import BETA2, ScalingRule, rule_from_name
from offo.solver import (
    TAU,
    Astr1Config,
    astr1_run,
    cauchy_step,
    sdba_run,
    solve_subproblem,
    zero_model_step,
)
from offo.theory import TheoryParams, series_bound


def quad1d(x0=1.0):
    return ProblemInstance(
        "quad1d", 1, np.array([x0]), 0.0,
        lambda x: 0.5 * float(x[0]) ** 2,
        lambda x: x.copy(),
        lambda x: np.eye(1),
        lipschitz_exact=True, _lipschitz=1.0,
    )


def matrix_model(B, kappa_B=1e5):
    return make_model("exact", kappa_B=kappa_B).with_matrix(np.atleast_2d(B))


class CountingModel:
    """A curvature model whose matvec calls are counted; it passes on the
    model's ``jacobi_diagonal``, so that the exact model's box subproblem is
    preconditioned."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        return self.model.matvec(v)

    def jacobi_diagonal(self):
        return self.model.jacobi_diagonal()


def model_value(g, B, s):
    return float(g @ s + 0.5 * (s @ B @ s))


def test_cauchy_step_zero_model():
    g = np.array([1.0, -2.0])
    radii = np.abs(g) / np.ones(2)
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
        # the run loop holds the norm sqrt(g.g) and passes it on
        normg = math.sqrt(float(g.dot(g)))
        radii = np.abs(g) / w if geometry == "box" else float(normg / w[0])
        s, q = zero_model_step(g, radii, geometry)
        s_n, q_n = zero_model_step(g, radii, geometry, normg)
        assert s_n.tobytes() == s.tobytes() and _same_float(q_n, q)
        product = cauchy_step(g, zero.matvec, radii, geometry)
        # the loop records the step as its own Cauchy point: gamma 1, q_Q = q + 0.0
        assert s.tobytes() == product.s_L.tobytes() == product.s_Q.tobytes()
        assert _same_float(1.0, product.gamma)
        assert _same_float(q + 0.0, product.q_Q)


def _assert_zero_model_box_steps(tr):
    """Each step of a box zero-model run is copysign(radii, -g), its model
    value g.s and its bound residual 0, as read from the recorded vectors."""
    assert tr.steps > 0
    xs = tr.x_hist[1:] + [tr.x_final]
    for k in range(tr.steps):
        g = tr.g_hist[k]
        s = np.copysign(np.abs(g) / tr.w_hist[k], -g)
        assert (tr.x_hist[k] + s).tobytes() == xs[k].tobytes(), k
        assert _same_float(tr.q_step[k], g @ s), k
        assert _same_float(tr.sbound_resid[k], 0.0), k
        assert _same_float(tr.step_norm[k], np.sqrt(s @ s)), k


def test_zero_model_box_step_is_the_scaled_corner_on_rosenbrock():
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-3, max_iter=3000,
                      record_vectors=True)
    for target in (make_problem("rosenbr", 10), NoisyOracle(make_problem("rosenbr", 10), 0.15, 2)):
        _assert_zero_model_box_steps(astr1_run(target, cfg))


@pytest.mark.parametrize("kind", sharpness.KINDS)
def test_zero_model_box_step_is_the_scaled_corner_in_a_replay(kind):
    seq = sharpness.build_sequence(kind, 300)
    _assert_zero_model_box_steps(sharpness.replay(seq, sharpness.hermite_build(seq)).trace)


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


def test_ball_steps_have_a_computed_norm_at_most_the_radius():
    # -(Delta / ||g||) g and CG's step rescaled onto the sphere can round to
    # a norm above Delta; each is shrunk by ulps until sqrt(s.s) <= Delta
    rng = np.random.default_rng(23)
    for trial in range(1000):
        n = int(rng.integers(1, 30))
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        delta = float(10.0 ** rng.uniform(-5, 5))
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        model = matrix_model(Q @ np.diag(rng.uniform(-3.0, 1.0, n)) @ Q.T)
        s = zero_model_step(g, delta, "ball")[0]
        # on the sphere, a few ulps inside at most
        assert delta * (1.0 - 8 * np.finfo(float).eps) <= math.sqrt(float(s.dot(s))) <= delta, trial
        s = solver._cg_ball(g, model.matvec, delta, 1e-10 * np.linalg.norm(g))
        assert math.sqrt(float(s.dot(s))) <= delta, trial


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_subproblem_falls_back_to_a_copy_of_the_cauchy_point(monkeypatch, fill):
    monkeypatch.setattr(solver, "_cg_box",
                        lambda g, matvec, delta, tol, d: (np.full(g.size, fill), None, None))
    g = np.array([1.0, -2.0, 0.5])
    model = matrix_model(np.diag([2.0, 1.0, 3.0]))
    radii = np.abs(g) / np.full(3, 2.0)
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
    model = CountingModel(LbfgsModel(memory=0, scale=c))
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
        s = solver._cg_box(g, model.matvec, radii, 1e-10)[0]
        assert np.all(np.abs(s) <= radii), (kind, seed)
        assert model_value(g, B, s) <= 0.1 * cs.q_Q, (kind, seed)


def _count_subproblem_products(monkeypatch):
    """The list to which each ``solve_subproblem`` call appends its matvec count."""
    counted = []
    original = solver.solve_subproblem

    def counting(g, model, *args):
        model = CountingModel(model)
        out = original(g, model, *args)
        counted.append(model.calls)
        return out

    monkeypatch.setattr(solver, "solve_subproblem", counting)
    return counted


def _four_bfgs_steps_on_broyden3d():
    """Four adagbfgs3 steps on broyden3d at n=1000 from a perturbed x0."""
    p = make_problem("broyden3d", 1000)
    p = dataclasses.replace(p, x0=p.x0 + 1e-3 * np.random.default_rng(0).standard_normal(p.n))
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), model="lbfgs3", max_iter=4)
    return astr1_run(p, cfg)


def test_box_subproblem_matvec_budget_at_large_n(monkeypatch):
    # one CG restart per bound hit took about 7900 matvecs here
    counted = _count_subproblem_products(monkeypatch)
    tr = _four_bfgs_steps_on_broyden3d()
    assert tr.steps == len(counted) == 4
    assert sum(counted) <= 1000


def _reference_max_feasible(s, p, delta, free):
    """The box breakpoints filled in by fancy indexing: ``(a_bd, a_last, binding, bound)``."""
    n = s.size
    alphas = np.full(n, np.inf)
    moving = free & (p != 0.0)
    bound = np.where(p > 0.0, delta, -delta)
    alphas[moving] = (bound[moving] - s[moving]) / p[moving]
    alphas = np.maximum(alphas, 0.0)
    if not moving.any():
        return np.inf, np.inf, moving, bound
    a_bd = float(alphas.min())
    binding = moving & (alphas <= a_bd * (1.0 + 1e-12))
    return a_bd, float(alphas[moving].max()), binding, bound


@pytest.mark.parametrize("frozen", ["some", "all", "none"])
def test_max_feasible_equals_the_fancy_index_reference_bitwise(frozen):
    # ``solver._breakpoints`` and the expressions ``_cg_box`` applies to its
    # result when CG leaves the interior, against the fancy-index reference
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = int(rng.integers(1, 12))
        delta = rng.uniform(0.0, 2.0, n)
        s = rng.uniform(-1.0, 1.0, n) * delta
        # some coordinates start on a bound
        at_bound = rng.random(n) < 0.2
        s[at_bound] = np.copysign(delta, rng.normal(size=n))[at_bound]
        p = rng.normal(size=n)
        # exact zeros, and subnormals whose quotients overflow to inf; every
        # tenth trial moves only along subnormals
        kind = rng.integers(0, 4, n) if trial % 10 else np.full(n, 2)
        p[kind == 1] = 0.0
        tiny = np.copysign(5e-324 * rng.integers(1, 1 << 20, n), rng.normal(size=n))
        p[kind == 2] = tiny[kind == 2]
        free = {"some": rng.random(n) < 0.7, "all": np.zeros(n, bool),
                "none": np.ones(n, bool)}[frozen]
        with np.errstate(all="ignore"):
            a_bd, alphas, moving, bound = solver._breakpoints(s, p, delta, -delta, free)
            a_last = float(np.where(moving, alphas, 0.0).max()) if np.isfinite(a_bd) else a_bd
            got = (a_bd, a_last, moving & (alphas <= a_bd * (1.0 + 1e-12)), bound)
            want = _reference_max_feasible(s, p, delta, free)
        tag = (trial, s, p, delta, free)
        assert _same_float(got[0], want[0]) and _same_float(got[1], want[1]), tag
        assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes(), tag
        assert got[3].tobytes() == want[3].tobytes(), tag


# The box subproblem as it was before it reused products and computed its
# breakpoints on demand, kept statement for statement as the bitwise
# reference of ``_cg_box``.

def _masked_max_feasible(s, p, delta, free):
    moving = free & (p != 0.0)
    bound = np.where(p > 0.0, delta, -delta)
    alphas = np.divide(bound - s, p, out=np.full(s.size, np.inf), where=moving)
    np.maximum(alphas, 0.0, out=alphas)
    a_bd = float(alphas.min())
    if a_bd == np.inf:
        return a_bd, a_bd, moving, bound
    binding = moving & (alphas <= a_bd * (1.0 + 1e-12))
    return a_bd, float(alphas.max(where=moving, initial=0.0)), binding, bound


def _reference_projected_search(g, matvec, s, p, delta, t, a_bd, q_bd, free):
    for _ in range(solver._MAX_HALVINGS + 1):
        if not t > a_bd:
            break
        y = np.clip(s + t * p, -delta, delta)
        By = matvec(y)
        if float(g @ y + 0.5 * (y @ By)) <= q_bd:
            return y, free & (np.abs(y) == delta) & (y * (g + By) <= 0.0)
        t *= 0.5
    return None


def _reference_cg_box(g, matvec, delta, tol, d=None):
    n = g.size
    s = np.zeros(n)
    fixed = delta <= 0.0
    releases = solver._MAX_RELEASES
    settled = False
    for _ in range((solver._MAX_RELEASES + 1) * (n + 1)):
        done = settled or fixed.all()
        if done and not (releases and np.any(fixed & (s != 0.0))):
            break
        Bs = matvec(s)
        grad = g + Bs
        if done:
            back = fixed & (s * grad > 0.0)
            if not back.any():
                break
            fixed = fixed & ~back
            releases -= 1
        free = ~fixed
        q = float(g @ s + 0.5 * (s @ Bs))
        r = -grad
        r[fixed] = 0.0
        z = r if d is None else r / d
        rz = float(r @ z)
        settled = True
        if np.sqrt(rz) <= tol:
            continue
        p = z.copy()
        for _ in range(2 * n + 5):
            Bp = matvec(p)
            Bp[fixed] = 0.0
            pBp = float(p @ Bp)
            a_bd, a_last, binding, bound = _masked_max_feasible(s, p, delta, free)
            if pBp <= 0.0:
                if not np.isfinite(a_bd):
                    break
                t = a_last
            else:
                alpha = rz / pBp
                if alpha < a_bd:
                    s = s + alpha * p
                    q -= alpha * rz - 0.5 * alpha * alpha * pBp
                    r = r - alpha * Bp
                    z = r if d is None else r / d
                    rz_new = float(r @ z)
                    if np.sqrt(rz_new) <= tol:
                        break
                    p = z + (rz_new / rz) * p
                    rz = rz_new
                    continue
                t = alpha
            q_bd = q - a_bd * rz + 0.5 * a_bd * a_bd * pBp
            found = _reference_projected_search(g, matvec, s, p, delta, t, a_bd, q_bd, free)
            if found is None:
                s = s + a_bd * p
                s[binding] = bound[binding]
            else:
                s, active = found
                if active.any():
                    binding = active
            fixed = fixed | binding
            settled = False
            break
    np.clip(s, -delta, delta, out=s)
    return s


def _assert_cg_box_keeps_its_bits(g, matvec, delta, tol, tag, d=None):
    with np.errstate(all="ignore"):
        want = _reference_cg_box(g, matvec, delta, tol, d)
    got, Bs, q = solver._cg_box(g, matvec, delta, tol, d)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), tag
    # a held product and model value are those of the returned step, bit for bit
    if Bs is not None:
        with np.errstate(all="ignore"):
            assert Bs.tobytes() == matvec(got).tobytes(), tag
            assert _same_float(q, float(g @ got + 0.5 * (got @ Bs))), tag


def _large_n_model_runs():
    """``(problem, config)`` of the large-n benchmark's curvature-model runs at
    seed 0: adagbb, adagbfgs3 and adagH on broyden3d and tridia at n = 1000,
    from x0 + 1e-3 (1 + |x0|) N(0, 1), one draw per problem in this order."""
    rng = np.random.default_rng(0)
    for name in ("broyden3d", "tridia"):
        p = make_problem(name, 1000)
        p = dataclasses.replace(p, x0=p.x0 + 1e-3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n))
        for method, max_iter in (("adagbb", 8), ("adagbfgs3", 4), ("adagH", 2)):
            yield p, bench.method_config(method, 1e-3, max_iter)


def test_box_cg_equals_the_reference_on_the_large_n_subproblems(monkeypatch):
    seen = []
    cg_box = solver._cg_box

    def recording(g, matvec, delta, tol, d):
        seen.append((g.copy(), matvec, delta.copy(), tol, d))
        return cg_box(g, matvec, delta, tol, d)

    monkeypatch.setattr(solver, "_cg_box", recording)
    for problem, cfg in _large_n_model_runs():
        astr1_run(problem, cfg)
    monkeypatch.undo()
    assert [args[0].size for args in seen] == [1000] * 28
    # adagH's four subproblems are preconditioned, the others not
    assert sum(args[4] is not None for args in seen) == 4
    for k, (*args, d) in enumerate(seen):
        _assert_cg_box_keeps_its_bits(*args, k, d=None if d is None else d.copy())


def test_box_subproblem_reuses_the_products_it_has(monkeypatch):
    # with a fresh B s at every CG restart, these took 478 and 2219 products;
    # with a second B s for q(s) and the exact model's box subproblems
    # unpreconditioned, 333 and 1749, of which adagH/tridia took 710 + 292;
    # with B 0 formed at CG's start, 329 and 761
    counted = _count_subproblem_products(monkeypatch)
    _four_bfgs_steps_on_broyden3d()
    assert len(counted) == 4 and sum(counted) <= 325
    counted.clear()
    for problem, cfg in _large_n_model_runs():
        astr1_run(problem, cfg)
    assert len(counted) == 28 and sum(counted) <= 731


def test_exact_model_box_solve_forms_no_product_beyond_its_cg(monkeypatch):
    # q(s) comes from the product CG holds, preconditioned or not; a step
    # with none (CG ended inside the box with nothing frozen, or the clip
    # moved it) costs one more
    seen = []
    original = solver.solve_subproblem

    def recording(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "solve_subproblem", recording)
    for target, cfg in _exact_model_runs():
        astr1_run(target, cfg)
    monkeypatch.undo()
    held = 0
    for k, (g, model, radii, geometry, cauchy, tau, tol) in enumerate(seen):
        cg_model = CountingModel(model)
        _, Bs, _ = solver._cg_box(g, cg_model.matvec, radii, tol, model.jacobi_diagonal())
        solve_model = CountingModel(model)
        solve_subproblem(g, solve_model, radii, geometry, cauchy, tau, tol)
        held += Bs is not None
        assert solve_model.calls == cg_model.calls + (Bs is None), k
    # both cases occur
    assert len(seen) > held > 0


@pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
def test_box_cg_equals_the_reference_on_dense_models(n):
    rng = np.random.default_rng(n)
    for trial in range(120):
        kind = trial % 3
        if kind == 0:
            A = rng.normal(size=(n, n))
            B = A @ A.T / n + 0.1 * np.eye(n)
        elif kind == 1:
            U = rng.normal(size=(n, min(3, n)))
            B = np.diag(rng.uniform(0.5, 2.0, n)) + U @ U.T
        else:
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            B = Q @ np.diag(rng.uniform(-3.0, 3.0, n)) @ Q.T
        g = rng.normal(size=n)
        radii = np.abs(g) / rng.uniform(0.2, 5.0, n)
        variant = trial // 3 % 4
        if variant == 1:
            # zero radii: those coordinates are fixed from the start
            radii[rng.random(n) < 0.3] = 0.0
        elif variant == 2:
            # subnormal gradient entries: their breakpoint quotients overflow
            tiny = rng.random(n) < 0.5
            g[tiny] = np.copysign(5e-324 * rng.integers(1, 1 << 20, n), g)[tiny]
        elif variant == 3:
            radii[rng.random(n) < 0.3] = np.inf
        model = matrix_model(B)
        _assert_cg_box_keeps_its_bits(g, model.matvec, radii, 1e-10, (n, trial))


def test_box_cg_equals_the_reference_without_a_breakpoint():
    # no moving coordinate ever reaches its bound: an infinite radius, and a
    # subnormal gradient whose quotient overflows; every direction has
    # negative curvature, or a positive one so small that the CG step length
    # overflows too (next to a coordinate fixed by a zero radius)
    for g, radii, c in ((np.array([1.0, -2.0]), np.array([np.inf, np.inf]), -1.0),
                        (np.array([5e-324, -1.0]), np.array([1.0, np.inf]), -1.0),
                        (np.array([1.0, -2.0, 0.5]), np.array([np.inf, np.inf, 0.0]), 1e-320)):
        model = matrix_model(c * np.eye(g.size))
        _assert_cg_box_keeps_its_bits(g, model.matvec, radii, 1e-10, (g, radii))


def test_box_cg_holds_no_product_for_a_step_the_clip_moved():
    # coordinate 0 is frozen on its bound; CG's last interior step rounds
    # coordinate 1 one ulp past its radius, and the release check then forms
    # B s of that s: the clip moves s, so that product is not s's
    for b, g, radii in (([1.844019927742757, 0.5088081340635726],
                         [-18.44019927742757, 2.8630173784887933], [1.0, 5.626909608585534]),
                        ([2.7155280409910114, 1.0245830570299328],
                         [-27.155280409910112, 1.7685323371338821], [1.0, 1.7260995338538134])):
        model, g, radii = matrix_model(np.diag(b)), np.array(g), np.array(radii)
        _assert_cg_box_keeps_its_bits(g, model.matvec, radii, 1e-15, b)
        s, Bs, q = solver._cg_box(g, model.matvec, radii, 1e-15)
        assert np.abs(s).tobytes() == radii.tobytes() and Bs is None and q is None


def _recorded_exact_subproblems(monkeypatch, runs):
    """Run each ``(target, config)`` of ``runs`` and return its trace with
    ``(g, B, radii, q_Q, tau, s, q)`` of each box subproblem, B the capped
    Hessian, dense."""
    original = solver.solve_subproblem

    def recording(g, model, radii, geometry, cauchy, tau, tol):
        s, q = original(g, model, radii, geometry, cauchy, tau, tol)
        calls.append((g, model.factor * np.asarray(model.H), radii, cauchy.q_Q, tau, s, q))
        return s, q

    monkeypatch.setattr(solver, "solve_subproblem", recording)
    out = []
    for target, cfg in runs:
        calls = []
        tr = astr1_run(target, cfg)
        assert tr.steps == len(calls) > 0
        out.append((tr, calls))
    monkeypatch.undo()
    return out


def _exact_model_runs():
    """adagH and adagHs on criterion 1's problems, and adagH on the large-n
    benchmark's seed-0 problems."""
    from test_acceptance import GCP_PROBLEMS

    for name, n in GCP_PROBLEMS:
        for method in ("adagH", "adagHs"):
            yield make_problem(name, n), bench.method_config(method, 1e-3, 250)
    for p, cfg in _large_n_model_runs():
        if cfg.model == "exact":
            yield p, cfg


def test_scaled_box_subproblem_keeps_the_step_inside_and_the_decrease(monkeypatch):
    # the exact model's box subproblem is solved by Jacobi-preconditioned CG;
    # its step stays inside the box exactly, and q(s) is checked against the
    # dense Hessian
    for tr, calls in _recorded_exact_subproblems(monkeypatch, _exact_model_runs()):
        assert np.all(tr.sbound_resid <= 0.0)
        assert np.all(tr.gcp_resid <= 0.0) and np.all(tr.q_cauchy < 0.0)
        for g, B, radii, q_Q, tau, s, q in calls:
            assert np.all(np.abs(s) <= radii)
            # an independent q(s), from the dense Hessian
            q_ref = model_value(g, B, s)
            assert abs(q - q_ref) <= 1e-12 * (abs(q_ref) + abs(g) @ np.abs(s))
            assert q <= tau * q_Q


def _degenerate_subproblem(H, g, radii, kappa_B=1e5):
    """The box subproblem of the exact model on H, with every floating-point
    warning raised."""
    model = matrix_model(H, kappa_B=kappa_B)
    with np.errstate(all="raise"):
        cs = cauchy_step(g, model.matvec, radii, "box")
        s, q = solve_subproblem(g, model, radii, "box", cs, tau=0.1,
                                tol=1e-5 * np.linalg.norm(g))
    assert np.isfinite(s).all() and np.all(np.abs(s) <= radii)
    assert math.isfinite(q) and q <= 0.1 * cs.q_Q
    return model, s


def test_scaled_box_subproblem_on_degenerate_diagonals():
    # rosenbr iterates whose Hessian has a nonpositive diagonal entry: |d| is
    # floored at eps max|d|
    p = make_problem("rosenbr", 10)
    cfg = dataclasses.replace(bench.method_config("adagH", 1e-3, 300), record_vectors=True)
    tr = astr1_run(p, cfg)
    seen = 0
    for x, g, w in zip(tr.x_hist, tr.g_hist, tr.w_hist):
        H = p.hess(x)
        if np.diagonal(H).min() > 0.0:
            continue
        seen += 1
        model, _ = _degenerate_subproblem(H, g, np.abs(g) / w)
        d = np.abs(np.diagonal(H))
        floored = np.maximum(d, np.finfo(float).eps * d.max())
        assert model.jacobi_diagonal().tobytes() == floored.tobytes()
    assert seen >= 5
    # a zero diagonal entry, and a diagonal that is all zero (unpreconditioned)
    g = np.array([1.0, -2.0, 0.5])
    radii = np.array([0.5, 1.0, 2.0])
    _degenerate_subproblem(np.array([[0.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]]), g, radii)
    model, s = _degenerate_subproblem(np.zeros((3, 3)), g, radii)
    assert model.jacobi_diagonal() is None
    assert np.array_equal(s, np.copysign(radii, -g))
    # a capped model: the cap's factor scales the operator, not d
    H = np.diag([1e6, -4e6, 2.0]) + 1e5
    model, _ = _degenerate_subproblem(H, g, radii, kappa_B=10.0)
    assert model.factor != 1.0
    assert np.array_equal(model.jacobi_diagonal(), np.abs(np.diagonal(model.H)))


def test_jacobi_scale_only_for_the_exact_model():
    H = np.array([[4.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, -9.0]])
    d = matrix_model(H).jacobi_diagonal()
    assert d.tobytes() == np.array([4.0, 9.0 * np.finfo(float).eps, 9.0]).tobytes()
    # a band Hessian gives the d of its dense form
    n = 600
    bands = Bands([np.linspace(-2.0, 5.0, n), np.full(n - 1, 0.5)])
    band_model = make_model("exact").with_matrix(bands)
    assert isinstance(band_model.H, Bands)
    assert (band_model.jacobi_diagonal().tobytes()
            == matrix_model(np.asarray(bands)).jacobi_diagonal().tobytes())
    for bad in (np.nan, np.inf):
        assert matrix_model(np.diag([1.0, bad])).jacobi_diagonal() is None
    for kind in ("none", "bb", "lbfgs3"):
        assert make_model(kind).jacobi_diagonal() is None


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
    # a noisy run's objective values use up none of its noise draws
    for target in (p, NoisyOracle(p, 0.15, seed=0)):
        ta = astr1_run(target, cfg_a)
        tb = astr1_run(target, cfg_b)
        assert ta.normg.tobytes() == tb.normg.tobytes()
        assert ta.x_final.tobytes() == tb.x_final.tobytes()
        assert ta.g_evals == tb.g_evals
        assert tb.f_evals == len(tb.normg)
        assert not np.any(np.isnan(tb.f))
        # the recorded values are the noise-free ones
        assert tb.f[0] == p.value(p.x0)


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


def _gradient_turning(bad, at=3.0):
    """f = -x1 - x2 from 0, whose gradient's second entry turns ``bad`` once max(x) >= at."""
    return ProblemInstance(f"turning-{bad}", 2, np.zeros(2), -np.inf, lambda x: -x.sum(),
                           lambda x: -np.ones(2) if x.max() < at else np.array([-1.0, bad]))


@pytest.mark.parametrize("noise", [0.0, 0.15])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_gradient_ends_the_run_as_overflow(bad, noise):
    target = NoisyOracle(_gradient_turning(bad), noise, seed=1) if noise else _gradient_turning(bad)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), max_iter=1000)
    for tr in (astr1_run(target, cfg), sdba_run(target, max_iter=1000)):
        assert tr.status == "overflow"
        # the failing evaluation was counted but not recorded
        assert tr.g_evals == len(tr.normg) + 1 and tr.steps == len(tr.normg) >= 2
        assert np.isfinite(tr.normg).all() and tr.x_final.max() >= 3.0


def test_a_finite_gradient_whose_squares_overflow_is_no_overflow():
    # g.g = inf here, yet g is finite; warnings are errors in this suite
    p = ProblemInstance("linear", 2, np.zeros(2), -np.inf, lambda x: 1e200 * x.sum(),
                        lambda x: np.full(2, 1e200))
    runs = {rule: astr1_run(p, Astr1Config(scaling=rule_from_name(rule), max_iter=5))
            for rule in ("adagrad", "maxg")}
    for rule, tr in runs.items():
        assert tr.status == "max_iter" and tr.g_evals == tr.steps == 5, rule
        assert (tr.normg == np.inf).all(), rule
    # adagrad's weights are infinite, so its steps are zero; maxg's are not
    assert (runs["adagrad"].step_norm == 0.0).all() and (runs["maxg"].step_norm > 0.0).all()
    tr = sdba_run(p, max_iter=5)
    assert tr.status == "linesearch_failure" and tr.g_evals == 1 and tr.f_evals == 52


def test_the_run_oracle_keeps_the_noisy_draw_rule():
    p = make_problem("box3", 3)
    bad = np.array([-800.0, 1.0, 1.0])  # exp(-t x1) overflows
    oracle = problems.Oracle(NoisyOracle(p, 0.15, seed=3))
    huge = dataclasses.replace(p, fn=lambda x: 1.7e308)
    pos = next(k for k in range(100) if np.random.default_rng([3, k]).standard_normal() > 1.0)
    pushed = problems.Oracle(NoisyOracle(huge, 0.5, seed=3, _position=pos))
    # a run calls its oracle inside one errstate of its own
    with np.errstate(all="ignore"):
        with pytest.raises(problems.NonFiniteError, match="non-finite noisy value"):
            oracle.value(bad)
        with pytest.raises(problems.NonFiniteError, match="non-finite noisy gradient"):
            oracle.grad(bad)
        # a finite value that the noise pushes past the largest float uses up its draw
        with pytest.raises(problems.NonFiniteError):
            pushed.value(p.x0)
    assert oracle.target._position == 0 and oracle.f_evals == oracle.g_evals == 1
    assert pushed.target._position == pos + 1


def test_band_hessian_with_an_infinite_entry_ends_the_run_as_overflow(monkeypatch):
    p = make_problem("tridia", 1000)

    def hess(x):
        d, e = p.hess_fn(x)
        e[-1] = np.inf
        return Bands((d, e))

    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a band matrix was made dense")

    # the finiteness check reads the bands one by one
    monkeypatch.setattr(Bands, "__array__", refuse)
    tr = bench.solve("adagH", dataclasses.replace(p, hess_fn=hess), 1e-12, 10)
    assert tr.status == "overflow" and tr.h_evals == 1 and tr.steps == 0


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


@pytest.mark.parametrize("eps, max_iter, message", [
    (-1.0, 50, "eps must be positive"),
    (float("nan"), 50, "eps must be positive"),
    (1e-3, 0, "max_iter must be positive"),
])
def test_stopping_settings_are_checked_by_both_solvers(eps, max_iter, message):
    with pytest.raises(ValueError, match=message):
        sdba_run(quad1d(), eps=eps, max_iter=max_iter)
    with pytest.raises(ValueError, match=message):
        Astr1Config(scaling=rule_from_name("adagrad"), eps=eps, max_iter=max_iter)


def test_sdba_zero_gradient_start():
    tr = sdba_run(quad1d(x0=0.0))
    assert tr.status == "converged"
    assert tr.steps == 0


def test_sdba_counts_function_evaluations():
    tr = sdba_run(make_problem("tridia", 6), eps=1e-4, max_iter=2000)
    assert tr.status == "converged"
    assert tr.f_evals >= tr.g_evals - 1


@pytest.mark.parametrize("max_iter", [1, 2, 50])
def test_a_run_ending_at_max_iter_evaluates_no_gradient_past_it(max_iter):
    # every gradient evaluated is recorded and tested for convergence
    p = make_problem("rosenbr", 10)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-12, max_iter=max_iter)
    for tr in (astr1_run(p, cfg), sdba_run(p, eps=1e-12, max_iter=max_iter)):
        assert tr.status == "max_iter"
        assert tr.g_evals == len(tr.normg) == tr.steps == max_iter


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
    sig = np.full(acc.size, rule.sigma)
    if rule.variant == "adagrad-like":
        w = theta * (sig + acc) ** rule.mu
    elif rule.variant == "adam-like":
        w = theta * np.sqrt(sig + acc)
    else:
        w = theta * np.maximum(sig, acc) * (k + 1) ** rule.nu
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
    theta = float(np.sqrt(n)) if rule.theta_auto else 1.0
    acc, k = np.zeros(1 if rule.aggregated else n), -1
    model = make_model(cfg.model, kappa_B=cfg.kappa_B)
    normgs, cols = [], {c: [] for c in _STEP_COLUMNS + ("w",)}
    prev_g = prev_s = None
    status = "max_iter"
    for _ in range(cfg.max_iter):
        try:
            g = oracle.grad(x)
        except problems.NonFiniteError:
            status = "overflow"
            break
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
            acc = BETA2 * acc + mag**2
        else:
            acc = np.maximum(acc, mag)
        k += 1
        w = _reference_weights(rule, acc, k, n, theta)
        radii = np.abs(g) / w if cfg.geometry == "box" else float(np.linalg.norm(g) / w[0])
        cs = cauchy_step(g, model.matvec, radii, cfg.geometry)
        if model.is_zero:
            s, q_s = zero_model_step(g, radii, cfg.geometry)
        else:
            tol = max(solver._CG_ABS, solver._CG_REL * normg)
            s, q_s = solve_subproblem(g, model, radii, cfg.geometry, cs, TAU, tol)
        s = s.copy()
        if cfg.geometry == "box":
            sbound = float(np.max((np.abs(s) - radii) / (1.0 + radii)))
        else:
            sbound = float((np.linalg.norm(s) - radii) / (1.0 + radii))
        row = (float(w.min()), float(w.max()), float(np.min(radii)), float(np.max(radii)),
               cs.gamma, q_s, cs.q_Q, model.norm_estimate(), sbound,
               q_s - TAU * cs.q_Q, float(np.linalg.norm(s)))
        for c, v in zip(_STEP_COLUMNS, row):
            cols[c].append(v)
        cols["w"].append(w)
        x = x + s
        prev_g, prev_s = g, s
    return status, normgs, cols, x


def _assert_matches_reference(tr, reference, tag):
    status, normgs, cols, x = reference
    assert tr.status == status, tag
    # the gradient that overflowed was counted but not recorded
    assert tr.g_evals == len(normgs) + (status == "overflow"), tag
    assert tr.normg.tobytes() == np.asarray(normgs, dtype=float).tobytes(), tag
    assert tr.f.tobytes() == np.full(len(normgs), np.nan).tobytes(), tag
    for c in _STEP_COLUMNS:
        assert getattr(tr, c).tobytes() == np.asarray(cols[c], dtype=float).tobytes(), tag + (c,)
    assert tr.x_final.tobytes() == x.tobytes(), tag
    assert _same_float(tr.final_normg, normgs[-1]), tag


@pytest.mark.parametrize("model", ["none", "bb"])
@pytest.mark.parametrize("rule_name,geometry", [
    ("adagrad", "box"), ("adagnorm", "box"), ("adagnorm", "ball"), ("adam", "box"), ("maxg", "box"),
])
def test_loop_matches_reference_loop_bitwise(rule_name, geometry, model, monkeypatch):
    default_block = solver._BLOCK
    for name, n in (("rosenbr", 10), ("woods", 12), ("beale", 2)):
        noisy = NoisyOracle(make_problem(name, n), 0.15, seed=0)
        cfg = Astr1Config(scaling=rule_from_name(rule_name), model=model, geometry=geometry,
                          eps=1e-4, max_iter=300)
        reference = reference_run(noisy, cfg)
        # trace blocks of one step, of seven steps and of the default size
        for block in (1, 7 * n, default_block):
            monkeypatch.setattr(solver, "_BLOCK", block)
            tr = astr1_run(noisy, cfg)
            _assert_matches_reference(tr, reference, (name, rule_name, geometry, model, block))


@pytest.mark.parametrize("case", ["converged", "overflow", "vectors"])
def test_trace_block_left_partly_filled_is_reduced_at_the_end(case, monkeypatch):
    target = ramp("grad") if case == "overflow" else make_problem("tridia", 4)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-4, max_iter=200,
                      record_vectors=case == "vectors")
    rows = 4
    monkeypatch.setattr(solver, "_BLOCK", rows * target.n)
    tr = astr1_run(target, cfg)
    assert tr.status == ("overflow" if case == "overflow" else "converged")
    # the run filled at least one block and stopped inside the next
    assert tr.steps > rows and tr.steps % rows
    reference = reference_run(target, cfg)
    _assert_matches_reference(tr, reference, (case,))
    if case == "vectors":
        assert [w.tobytes() for w in tr.w_hist] == [w.tobytes() for w in reference[2]["w"]]


def test_sdba_trace_is_the_same_across_block_edges(monkeypatch):
    p = make_problem("tridia", 6)
    whole = sdba_run(p, eps=1e-4, max_iter=2000)
    monkeypatch.setattr(solver, "_BLOCK", 4)
    tr = sdba_run(p, eps=1e-4, max_iter=2000)
    assert tr.status == whole.status == "converged" and tr.steps > 4 and tr.steps % 4
    for c in _STEP_COLUMNS:
        assert getattr(tr, c).tobytes() == getattr(whole, c).tobytes(), c
    assert np.isnan(tr.sbound_resid).all() and np.isfinite(tr.step_norm).all()


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


@pytest.mark.parametrize("build, message", [
    (lambda: ScalingRule("adagrad-like", sigma=np.nan), "sigma must lie in (0, 1]"),
    (lambda: ScalingRule("adagrad-like", sigma=np.array([])), "sigma must lie in (0, 1]"),
    (lambda: Astr1Config(scaling=rule_from_name("adagrad"), kappa_B=np.nan),
     "kappa_B must be >= 1"),
    (lambda: TheoryParams(L=np.nan, gamma0=1.0, n=1), "L and gamma0 must be non-negative"),
    (lambda: TheoryParams(L=1.0, gamma0=np.nan, n=1), "L and gamma0 must be non-negative"),
    (lambda: TheoryParams(L=1.0, gamma0=1.0, n=1, kappa_B=np.nan), "kappa_B must be >= 1"),
    (lambda: series_bound([1.0], xi=np.nan, alpha=0.5), "xi and alpha must be positive"),
    (lambda: series_bound([1.0], xi=1.0, alpha=np.nan), "xi and alpha must be positive"),
    (lambda: make_model("exact", kappa_B=0.5), "kappa_B must be >= 1"),
    (lambda: make_model("none", kappa_B=np.nan), "kappa_B must be >= 1"),
    (lambda: make_model("lbfgsx"), "unknown model kind 'lbfgsx'"),
    (lambda: make_problem("rosenbr", 10.7), "problem 'rosenbr' requires n >= 2, got n=10.7"),
    (lambda: ScalingRule("adagrad-like", sigma=np.array([0.01, 0.04])), "sigma must lie in (0, 1]"),
    (lambda: Astr1Config(scaling=rule_from_name("adagrad"), model="sr1"),
     "unknown model kind 'sr1'"),
    (lambda: Astr1Config(scaling=rule_from_name("adagrad"), max_iter=2.5), "max_iter must be positive"),
    (lambda: Astr1Config(scaling=rule_from_name("adagrad"), max_iter=3.0), "max_iter must be positive"),
    (lambda: sdba_run(make_problem("rosenbr", 4), max_iter=2.5), "max_iter must be positive"),
    (lambda: NoisyOracle(make_problem("rosenbr", 4), 0.1, seed=1.5),
     "seed must be a non-negative integer"),
    (lambda: bench.run_matrix(["adagrad"], [("rosenbr", 4)], [0.1], [1.5], eps=1e-3, max_iter=10),
     "seed must be a non-negative integer"),
])
def test_nan_empty_and_non_integral_settings_are_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_numpy_integer_budget_and_seed_run_as_python_integers():
    p = make_problem("rosenbr", 4)
    rule = rule_from_name("adagrad")
    runs = [astr1_run(NoisyOracle(p, 0.1, seed=seed), Astr1Config(scaling=rule, max_iter=budget))
            for seed, budget in ((2, 30), (np.int64(2), np.int64(30)))]
    assert _trace_fields(runs[0]) == _trace_fields(runs[1])
