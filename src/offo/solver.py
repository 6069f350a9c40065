"""Adaptively scaled trust-region iteration and the steepest-descent baseline.

The main loop never evaluates the objective: each iteration scales the
current gradient into per-coordinate radii Delta_i = |g_i| / w_i, minimizes
the quadratic model over the box (or ball) with a truncated conjugate-gradient
solve, and accepts any step achieving at least a tau-fraction of the scaled
Cauchy point's model decrease.  Objective values are evaluated only by the
backtracking baseline (:func:`sdba_run`) and, purely for verification, when
``instrument_f`` is set.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hessian import make_model
from .problems import NonFiniteError, base_problem, fresh_stream
from .scaling import ScalingRule, new_state, update, weights

Array = np.ndarray

GEOMETRIES = ("box", "ball")
#: truncated CG stops once its residual is below max(_CG_ABS, _CG_REL * ||g||)
_CG_REL = 1e-5
_CG_ABS = 1e-12


@dataclass(frozen=True)
class Astr1Config:
    scaling: ScalingRule
    model: str = "none"
    geometry: str = "box"
    tau: float = 0.1
    kappa_B: float = 1e5
    eps: float = 1e-6
    max_iter: int = 100_000
    instrument_f: bool = False
    record_vectors: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.kappa_B < 1.0:
            raise ValueError("kappa_B must be >= 1")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if self.geometry == "ball" and not self.scaling.aggregated:
            raise ValueError("ball geometry requires an aggregated scaling rule")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class CauchyStep:
    s_L: Array
    gamma: float
    s_Q: Array
    q_Q: float


class _CountingOracle:
    """Counts every oracle call; the zero-objective-call guarantee reads f_evals."""

    def __init__(self, target):
        self.target = target
        self.f_evals = 0
        self.g_evals = 0
        self.h_evals = 0

    def value(self, x):
        self.f_evals += 1
        return self.target.value(x)

    def grad(self, x):
        self.g_evals += 1
        return self.target.grad(x)

    def hess(self, x):
        self.h_evals += 1
        return self.target.hess(x)


#: the step-indexed columns of a trace, in field order
_STEP_COLS = (
    "w_min", "w_max", "delta_min", "delta_max", "gamma", "q_step",
    "q_cauchy", "norm_B", "sbound_resid", "gcp_resid", "step_norm",
)


@dataclass
class IterationTrace:
    """Per-iteration diagnostics of one run.

    ``normg``/``f`` have one entry per gradient evaluation; the step-indexed
    arrays (weights, radii, model values, residuals) have one entry per step
    taken.  ``sbound_resid`` is max_i (|s_i| - Delta_i) / (1 + Delta_i) (the
    ball analogue uses norms); ``gcp_resid`` is q(s) - tau * q(s_Q).

    A run builds its trace with :meth:`open`, appends to the columns while
    they are ``array("d")`` buffers (8 bytes per value and no float object),
    and :meth:`close` turns each buffer into a numpy column without a copy.
    """

    status: str
    eps: float
    normg: Array
    f: Array
    w_min: Array
    w_max: Array
    delta_min: Array
    delta_max: Array
    gamma: Array
    q_step: Array
    q_cauchy: Array
    norm_B: Array
    sbound_resid: Array
    gcp_resid: Array
    step_norm: Array
    x_final: Array
    final_normg: float
    f_evals: int
    g_evals: int
    h_evals: int
    x_hist: Optional[list] = None
    g_hist: Optional[list] = None
    w_hist: Optional[list] = None

    @classmethod
    def open(cls, eps: float, record_vectors: bool = False) -> "IterationTrace":
        """An empty trace of a run in progress; ``record_vectors`` keeps x, g and w."""
        hist = [[] for _ in range(3)] if record_vectors else [None] * 3
        return cls("running", eps, array("d"), array("d"), *(array("d") for _ in _STEP_COLS),
                   None, np.nan, 0, 0, 0, *hist)

    def add_eval(self, normg, f_val, x=None, g=None):
        self.normg.append(normg)
        self.f.append(np.nan if f_val is None else f_val)
        if self.x_hist is not None:
            self.x_hist.append(np.array(x, copy=True))
            self.g_hist.append(np.array(g, copy=True))

    def close(self, status, x_final, oracle) -> "IterationTrace":
        self.status = status
        # read from the buffer, so that it is a Python float
        self.final_normg = self.normg[-1] if self.normg else np.nan
        for c in ("normg", "f") + _STEP_COLS:
            setattr(self, c, np.asarray(getattr(self, c), dtype=float))
        self.x_final = np.array(x_final, copy=True)
        self.f_evals, self.g_evals, self.h_evals = oracle.f_evals, oracle.g_evals, oracle.h_evals
        return self

    @property
    def steps(self) -> int:
        return len(self.gamma)

    @property
    def iterations(self) -> int:
        return self.g_evals

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["k", "normg", "f", "delta_min", "delta_max", "gamma", "status"])
            last = len(self.normg) - 1
            for k in range(len(self.normg)):
                f_k = "" if np.isnan(self.f[k]) else f"{self.f[k]:.12g}"
                stepped = [f"{c[k]:.12g}" if k < len(self.gamma) else ""
                           for c in (self.delta_min, self.delta_max, self.gamma)]
                wr.writerow([k, f"{self.normg[k]:.12g}", f_k, *stepped, self.status if k == last else ""])


def trust_radius(g: Array, w: Array, geometry: str):
    """Radii from the scaled gradient: per-coordinate (box) or scalar (ball)."""
    if geometry == "box":
        return np.abs(g) / w
    return float(np.linalg.norm(g) / w[0])


def cauchy_step(g: Array, matvec, radii, geometry: str) -> CauchyStep:
    """Scaled steepest-descent step and its model minimizer along that ray.

    ``matvec=None`` stands for the zero model, whose step has the closed form
    gamma = 1, s_Q = s_L and q_Q = g.s_L.
    """
    if geometry == "box":
        s_L = -np.sign(g) * radii
    else:
        normg = np.linalg.norm(g)
        s_L = -(radii / normg) * g if normg > 0 else np.zeros_like(g)
    gs = float(g @ s_L)
    if matvec is None:
        # gs plus the curvature term s_L.(0 s_L) = +0.0, as the matvec path adds it
        return CauchyStep(s_L=s_L, gamma=1.0, s_Q=s_L, q_Q=gs + 0.0)
    Bs = matvec(s_L)
    curv = float(s_L @ Bs)
    if curv > 0.0:
        gamma = min(1.0, abs(gs) / curv)
    else:
        gamma = 1.0
    s_Q = gamma * s_L
    q_Q = gamma * gs + 0.5 * gamma * gamma * curv
    return CauchyStep(s_L=s_L, gamma=gamma, s_Q=s_Q, q_Q=q_Q)


def _max_feasible(s, p, delta, free):
    """Breakpoints of the ray s + t p against the box |s_i| <= delta_i.

    Returns ``(a_bd, a_last, binding, bound)``: the first and the last step
    length at which a free coordinate reaches its bound (inf when none
    moves), the mask of coordinates reaching it first, and each
    coordinate's bound in the direction of p.
    """
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


#: halvings of the projected search before it settles for the truncated point
_MAX_HALVINGS = 30
#: rounds of releasing frozen coordinates after CG has converged on the free ones
_MAX_RELEASES = 3


def _projected_search(g, matvec, s, p, delta, t, a_bd, q_bd, free):
    """Projected backtracking along P(s + t p), P = clip(., -delta, delta).

    Halves t while t > a_bd, at most ``_MAX_HALVINGS`` times.  Returns
    ``(y, active)`` for the first projected point y whose model value is at
    most ``q_bd``, the value at the truncated point s + a_bd p; ``active``
    marks the free coordinates y leaves on their bounds with the model
    gradient pointing outward.  None if no trial does.
    """
    for _ in range(_MAX_HALVINGS + 1):
        if not t > a_bd:
            break
        y = np.clip(s + t * p, -delta, delta)
        By = matvec(y)
        if float(g @ y + 0.5 * (y @ By)) <= q_bd:
            return y, free & (np.abs(y) == delta) & (y * (g + By) <= 0.0)
        t *= 0.5
    return None


def _cg_box(g, matvec, delta, tol):
    """Truncated conjugate gradients on the quadratic model inside the box.

    CG runs on the free coordinates.  A CG step that would leave the box
    starts a projected search from its step length (from the last breakpoint
    under nonpositive curvature).  An accepted search point freezes at once
    every coordinate it leaves on its bound with an outward gradient (the
    first-binding ones when there is none); otherwise the step is truncated
    at the first breakpoint, freezing the binding coordinates.  CG then
    restarts on the rest.  Once it converges, frozen coordinates whose
    gradient points back inside are released, at most ``_MAX_RELEASES`` times.
    """
    n = g.size
    s = np.zeros(n)
    fixed = delta <= 0.0
    releases = _MAX_RELEASES
    settled = False
    for _ in range((_MAX_RELEASES + 1) * (n + 1)):
        done = settled or fixed.all()
        # the frozen coordinates are the fixed ones with s_i != 0 (delta_i > 0)
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
        rr = float(r @ r)
        settled = True
        if np.sqrt(rr) <= tol:
            continue
        p = r.copy()
        for _ in range(2 * n + 5):
            Bp = matvec(p)
            Bp[fixed] = 0.0
            pBp = float(p @ Bp)
            a_bd, a_last, binding, bound = _max_feasible(s, p, delta, free)
            if pBp <= 0.0:
                # negative curvature: search back from the last breakpoint
                if not np.isfinite(a_bd):
                    break
                t = a_last
            else:
                alpha = rr / pBp
                if alpha < a_bd:
                    s = s + alpha * p
                    q -= alpha * rr - 0.5 * alpha * alpha * pBp
                    r = r - alpha * Bp
                    rr_new = float(r @ r)
                    if np.sqrt(rr_new) <= tol:
                        break
                    p = r + (rr_new / rr) * p
                    rr = rr_new
                    continue
                t = alpha
            q_bd = q - a_bd * rr + 0.5 * a_bd * a_bd * pBp
            found = _projected_search(g, matvec, s, p, delta, t, a_bd, q_bd, free)
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


def _ball_boundary(s, p, delta):
    ss = float(s @ s)
    sp = float(s @ p)
    pp = float(p @ p)
    disc = max(sp * sp + pp * (delta * delta - ss), 0.0)
    return (-sp + np.sqrt(disc)) / pp


def _cg_ball(g, matvec, delta, tol):
    """Truncated conjugate gradients with boundary exit in the Euclidean ball."""
    n = g.size
    s = np.zeros(n)
    r = -g.copy()
    rr = float(r @ r)
    if np.sqrt(rr) <= tol:
        return s
    p = r.copy()
    for _ in range(2 * n + 5):
        Bp = matvec(p)
        pBp = float(p @ Bp)
        if pBp <= 0.0:
            s = s + _ball_boundary(s, p, delta) * p
            break
        alpha = rr / pBp
        s_try = s + alpha * p
        if np.linalg.norm(s_try) >= delta:
            s = s + _ball_boundary(s, p, delta) * p
            break
        s = s_try
        r = r - alpha * Bp
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= tol:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    nrm = np.linalg.norm(s)
    if nrm > delta and nrm > 0:
        s *= delta / nrm
    return s


def solve_subproblem(g, model, radii, geometry, cauchy: CauchyStep, tau: float, tol: float):
    """Step inside the trust region achieving the required model decrease.

    Returns ``(s, q(s))``; falls back to the scaled Cauchy point whenever the
    iterative solve misses the tau-fraction decrease, which makes the
    decrease contract unconditional.
    """
    if model.is_zero:
        return cauchy.s_L, float(g @ cauchy.s_L)
    if geometry == "box":
        s = _cg_box(g, model.matvec, radii, tol)
    else:
        s = _cg_ball(g, model.matvec, radii, tol)
    q_s = float(g @ s + 0.5 * (s @ model.matvec(s)))
    if not np.isfinite(q_s) or q_s > tau * cauchy.q_Q:
        return cauchy.s_Q.copy(), cauchy.q_Q
    return s, q_s


def _sbound_residual(s, radii, geometry, step_norm):
    if geometry == "box":
        return float(((np.abs(s) - radii) / (1.0 + radii)).max())
    return (step_norm - radii) / (1.0 + radii)


def astr1_run(problem, cfg: Astr1Config) -> IterationTrace:
    """Run the adaptively scaled trust-region iteration on a problem or oracle."""
    base = base_problem(problem)
    oracle = _CountingOracle(fresh_stream(problem))
    x = np.array(base.x0, dtype=float)
    n = base.n
    rule = cfg.scaling
    geometry = cfg.geometry
    state = new_state(rule, n)
    model = make_model(cfg.model, kappa_B=cfg.kappa_B)
    tr = IterationTrace.open(cfg.eps, cfg.record_vectors)
    prev_g = None
    prev_s = None
    status = "max_iter"
    for _ in range(cfg.max_iter):
        try:
            g = oracle.grad(x)
            normg = math.sqrt(float(g @ g))
            tr.add_eval(normg, oracle.value(x) if cfg.instrument_f else None, x=x, g=g)
            if normg <= cfg.eps:
                status = "converged"
                break
            if prev_g is not None and not model.is_zero:
                model = model.update(prev_s, g - prev_g)
            if model.needs_hessian:
                model = model.with_matrix(oracle.hess(x))
        except NonFiniteError:
            status = "overflow"
            break
        update(state, rule, g)
        w = weights(state, rule)
        radii = trust_radius(g, w, geometry)
        cs = cauchy_step(g, None if model.is_zero else model.matvec, radii, geometry)
        tol = max(_CG_ABS, _CG_REL * normg)
        s, q_s = solve_subproblem(g, model, radii, geometry, cs, cfg.tau, tol)
        if not np.isfinite(s).all():
            status = "overflow"
            break
        if tr.w_hist is not None:
            tr.w_hist.append(np.array(w, copy=True))
        step_norm = math.sqrt(float(s @ s))
        # one append per column of _STEP_COLS; a ball radius is a float
        tr.w_min.append(w.min())
        tr.w_max.append(w.max())
        tr.delta_min.append(radii.min() if geometry == "box" else radii)
        tr.delta_max.append(radii.max() if geometry == "box" else radii)
        tr.gamma.append(cs.gamma)
        tr.q_step.append(q_s)
        tr.q_cauchy.append(cs.q_Q)
        tr.norm_B.append(model.norm_estimate())
        tr.sbound_resid.append(_sbound_residual(s, radii, geometry, step_norm))
        tr.gcp_resid.append(q_s - cfg.tau * cs.q_Q)
        tr.step_norm.append(step_norm)
        x = x + s
        prev_g, prev_s = g, s
    return tr.close(status, x, oracle)


#: Armijo sufficient-decrease constant of the steepest-descent baseline
_ARMIJO_C1 = 1e-4
#: halvings of the baseline's trial step before it reports a line-search failure
_MAX_BACKTRACKS = 50


def sdba_run(problem, eps: float = 1e-6, max_iter: int = 100_000) -> IterationTrace:
    """Steepest descent with Armijo backtracking (the objective-using baseline).

    Trial steps halve from an initial stepsize of 1 / ||g(x0)||; exhausting
    the backtracks yields a ``linesearch_failure`` status.
    """
    base = base_problem(problem)
    oracle = _CountingOracle(fresh_stream(problem))
    x = np.array(base.x0, dtype=float)
    tr = IterationTrace.open(eps)
    status = "max_iter"
    try:
        g = oracle.grad(x)
        f = oracle.value(x)
    except NonFiniteError:
        return tr.close("overflow", x, oracle)
    normg0 = float(np.linalg.norm(g))
    alpha0 = 1.0 / normg0 if normg0 > 0 else 1.0
    for _ in range(max_iter):
        normg = float(np.linalg.norm(g))
        tr.add_eval(normg, f)
        if normg <= eps:
            status = "converged"
            break
        alpha = alpha0
        accepted = False
        for _ in range(_MAX_BACKTRACKS + 1):
            x_try = x - alpha * g
            try:
                f_try = oracle.value(x_try)
            except NonFiniteError:
                f_try = np.inf
            if f_try <= f - _ARMIJO_C1 * alpha * normg * normg:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = "linesearch_failure"
            break
        for c in _STEP_COLS:
            getattr(tr, c).append(float(alpha * normg) if c == "step_norm" else np.nan)
        x = x_try
        f = f_try
        try:
            g = oracle.grad(x)
        except NonFiniteError:
            status = "overflow"
            break
    return tr.close(status, x, oracle)
