"""Adaptively scaled trust-region iteration and the steepest-descent baseline.

The main loop never evaluates the objective: each iteration scales the
current gradient into per-coordinate radii Delta_i = |g_i| / w_i, minimizes
the quadratic model over the box (or ball) with a truncated conjugate-gradient
solve, and accepts any step achieving at least a tau-fraction of the scaled
Cauchy point's model decrease.  Objective values are evaluated only by the
backtracking baseline (:func:`sdba_run`) and, purely for verification and
without noise, when ``instrument_f`` is set.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hessian import check_kappa_B, check_model, make_model
from .problems import NonFiniteError, Oracle, base_problem, fresh_stream
from .scaling import ScalingRule, accumulate, new_state, weights

Array = np.ndarray

GEOMETRIES = ("box", "ball")
#: truncated CG stops once its residual is below max(_CG_ABS, _CG_REL * ||g||)
_CG_REL = 1e-5
_CG_ABS = 1e-12


def check_stopping(eps: float, max_iter: int) -> None:
    """ValueError unless the stopping tolerance and iteration budget are positive."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")


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
        check_kappa_B(self.kappa_B)
        check_model(self.model)
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if self.geometry == "ball" and not self.scaling.aggregated:
            raise ValueError("ball geometry requires an aggregated scaling rule")
        check_stopping(self.eps, self.max_iter)


@dataclass
class CauchyStep:
    s_L: Array
    gamma: float
    s_Q: Array
    q_Q: float


#: the step-indexed columns of a trace, in field order
_STEP_COLS = (
    "w_min", "w_max", "delta_min", "delta_max", "gamma", "q_step",
    "q_cauchy", "norm_B", "sbound_resid", "gcp_resid", "step_norm",
)
#: elements of each of a trace's three step blocks: a block holds
#: max(1, _BLOCK // n) steps, n the wider of the weight and step widths
#: (32 KB up to n = _BLOCK, one step above it).  A block reduction costs
#: about twice a per-step one, so n = 1000 needs several steps to gain
_BLOCK = 4096


@dataclass
class IterationTrace:
    """Per-iteration diagnostics of one run.

    ``normg``/``f`` have one entry per gradient evaluation; the step-indexed
    arrays (weights, radii, model values, residuals) have one entry per step
    taken.  ``sbound_resid`` is max_i (|s_i| - Delta_i) / (1 + Delta_i) (the
    ball analogue uses norms); ``gcp_resid`` is q(s) - tau * q(s_Q).

    A run builds its trace with :meth:`open`, records each step with
    :meth:`add_step` and ends it with :meth:`close`.  The columns are
    ``array("d")`` buffers (8 bytes per value, no float object) until
    ``close`` turns each into a numpy column without a copy.  ``add_step``
    appends the scalar columns and copies w, the radii and s into rows of
    three blocks of ``max(1, _BLOCK // n)`` rows, 96 KB in all up to
    n = ``_BLOCK``; a full block, and the partial one at ``close``, is
    reduced once per column into the buffers.  min and max are exact and the
    elementwise operations are those of one step, so every value is the
    per-step one bit for bit.  An aggregated rule's weight block is one
    column wide, and so are a ball's radius and step blocks, holding the
    radius and the step norm.
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
    def open(cls, eps: float, n_w: int, width: int, record_vectors: bool = False) -> "IterationTrace":
        """An empty trace of a run whose steps have ``n_w`` weights (1 for an
        aggregated rule) and ``width`` radii and step entries (1 for a ball);
        ``record_vectors`` keeps x, g and w."""
        hist = [[] for _ in range(3)] if record_vectors else [None] * 3
        tr = cls("running", eps, array("d"), array("d"), *(array("d") for _ in _STEP_COLS),
                 None, np.nan, 0, 0, 0, *hist)
        # not dataclass fields: a closed trace is its fields alone
        rows = max(1, _BLOCK // max(n_w, width))
        tr._w = np.empty((rows, n_w))
        tr._radii, tr._s = np.empty((2, rows, width))
        tr._row = 0
        return tr

    def add_eval(self, normg, f_val, x=None, g=None):
        self.normg.append(normg)
        self.f.append(np.nan if f_val is None else f_val)
        if self.x_hist is not None:
            self.x_hist.append(x.copy())
            self.g_hist.append(g.copy())

    def add_step(self, w, radii, s, gamma, q_step, q_cauchy, norm_B, gcp_resid, step_norm):
        """Record one step: ``radii`` and ``s`` are the box radii and step, or
        for a ball the radius and the step norm."""
        i = self._row
        self._w[i] = w
        self._radii[i] = radii
        self._s[i] = s
        self._row = i = i + 1
        if i == len(self._w):
            self._flush()
        self.gamma.append(gamma)
        self.q_step.append(q_step)
        self.q_cauchy.append(q_cauchy)
        self.norm_B.append(norm_B)
        self.gcp_resid.append(gcp_resid)
        self.step_norm.append(step_norm)
        if self.w_hist is not None:
            self.w_hist.append(w.copy())

    def _flush(self):
        """Reduce the block's filled rows into the buffers and empty it."""
        k, self._row = self._row, 0
        w, radii, s = self._w[:k], self._radii[:k], self._s[:k]
        self.w_min.frombytes(w.min(axis=1).tobytes())
        self.w_max.frombytes(w.max(axis=1).tobytes())
        self.delta_min.frombytes(radii.min(axis=1).tobytes())
        self.delta_max.frombytes(radii.max(axis=1).tobytes())
        np.abs(s, out=s)
        s -= radii
        radii += 1.0
        s /= radii
        self.sbound_resid.frombytes(s.max(axis=1).tobytes())

    def close(self, status, x_final, oracle) -> "IterationTrace":
        self._flush()
        del self._w, self._radii, self._s, self._row
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


def trust_radius(g: Array, w: Array, geometry: str, normg: Optional[float] = None):
    """Radii from the scaled gradient: per-coordinate (box) or scalar (ball; ``normg``: ||g|| if known)."""
    if geometry == "box":
        return np.abs(g) / w
    return float((np.linalg.norm(g) if normg is None else normg) / w[0])


def _into_ball(s: Array, delta: float) -> Array:
    """s, shrunk in place by one ulp per entry while its norm, computed as the
    run computes it (``sqrt(s.dot(s))``), rounds above delta.  A norm that
    overflows is left to the run's finiteness check."""
    while delta < math.sqrt(float(s.dot(s))) < math.inf:
        s *= np.nextafter(1.0, 0.0)
    return s


def zero_model_step(g: Array, radii, geometry: str, normg: Optional[float] = None):
    """The zero model's step and its model value ``(s, g.s)``.

    s is the scaled steepest-descent step s_L of every model's Cauchy step:
    -sign(g_i) Delta_i per coordinate in a box, -Delta g / ||g|| in a ball,
    shrunk by ulps until its computed norm is at most Delta.  Under the zero
    model it is also the Cauchy point (gamma = 1) and the subproblem's
    solution.  ``normg`` is as in :func:`trust_radius`.
    """
    if geometry == "box":
        # -sign(g) * radii, up to the sign of the zero step of a g_i = -0.0
        s = np.copysign(radii, -g)
    else:
        normg = np.linalg.norm(g) if normg is None else normg
        s = _into_ball(-(radii / normg) * g, radii) if normg > 0 else np.zeros_like(g)
    return s, float(g @ s)


def cauchy_step(g: Array, matvec, radii, geometry: str) -> CauchyStep:
    """Scaled steepest-descent step and its model minimizer along that ray."""
    s_L, gs = zero_model_step(g, radii, geometry)
    Bs = matvec(s_L)
    curv = float(s_L @ Bs)
    if curv > 0.0:
        gamma = min(1.0, abs(gs) / curv)
    else:
        gamma = 1.0
    s_Q = gamma * s_L
    q_Q = gamma * gs + 0.5 * gamma * gamma * curv
    return CauchyStep(s_L=s_L, gamma=gamma, s_Q=s_Q, q_Q=q_Q)


def _breakpoints(s, p, delta, neg, free):
    """Breakpoints of the ray s + t p against the box -delta <= s <= delta.

    ``neg`` is -delta.  Returns ``(a_bd, alphas, moving, bound)``: the first
    step length at which a free coordinate reaches its bound (inf when none
    moves), each coordinate's step length to its bound (inf for those that
    do not move), the mask of the free coordinates that move, and each
    coordinate's bound in the direction of p.  The divide runs on every
    coordinate, so the caller holds ``np.errstate``.
    """
    moving = free & (p != 0.0)
    bound = np.where(p > 0.0, delta, neg)
    alphas = np.where(moving, (bound - s) / p, np.inf)
    np.maximum(alphas, 0.0, out=alphas)
    return float(alphas.min()), alphas, moving, bound


#: halvings of the projected search before it settles for the truncated point
_MAX_HALVINGS = 30
#: rounds of releasing frozen coordinates after CG has converged on the free ones
_MAX_RELEASES = 3


def _projected_search(g, matvec, s, p, delta, neg, t, a_bd, q_bd, free):
    """Projected backtracking along P(s + t p), P = clip(., -delta, delta).

    Halves t while t > a_bd, at most ``_MAX_HALVINGS`` times.  Returns
    ``(y, By, g + By, q(y), active)`` for the first projected point y whose
    model value q(y) is at most ``q_bd``, the value at the truncated point
    s + a_bd p; ``active`` marks the free coordinates y leaves on their bounds
    with the model gradient pointing outward.  None if no trial does.
    """
    for _ in range(_MAX_HALVINGS + 1):
        if not t > a_bd:
            break
        y = s + t * p
        np.maximum(y, neg, out=y)
        np.minimum(y, delta, out=y)
        By = matvec(y)
        q = float(g @ y + 0.5 * (y @ By))
        if q <= q_bd:
            grad = g + By
            return y, By, grad, q, free & (np.abs(y) == delta) & (y * grad <= 0.0)
        t *= 0.5
    return None


@np.errstate(all="ignore")  # breakpoint quotients of every coordinate, even p_i = 0
def _cg_box(g, matvec, delta, tol, d=None):
    """Truncated conjugate gradients on the quadratic model inside the box.

    CG runs on the free coordinates, preconditioned by the positive diagonal
    ``d`` when one is given: z = r / d, and r.z stands for r.r (Steihaug's
    1983 truncated CG in the original variables, as TRON, Lin & More 1999,
    uses it).  A CG step that would leave the box starts a projected search
    from its step length (from the last breakpoint under nonpositive
    curvature).  An accepted search point freezes at once every coordinate
    it leaves on its bound with an outward gradient (the first-binding ones
    when there is none); otherwise the step is truncated at the first
    breakpoint, freezing the binding coordinates.  CG then restarts on the
    rest.  Once it converges, frozen coordinates whose gradient points back
    inside are released, at most ``_MAX_RELEASES`` times.  None of this
    depends on d, as a positive diagonal change of variables keeps step
    lengths and gradient signs.

    Returns ``(s, B s, q(s))`` when it holds the product of the s it returns,
    with q(s) = g.s + 0.5 s.(B s) as that expression, and ``(s, None, None)``
    otherwise.
    """
    n = g.size
    s = np.zeros(n)
    neg = -delta
    fixed = delta <= 0.0
    releases = _MAX_RELEASES
    settled = False
    # B s, g + B s and q(s) of the current s, for the next restart (from s = 0,
    # the accepted search point, or the last restart); None once s moves on
    Bs, grad, q = np.zeros(n), g + 0.0, 0.0
    for _ in range((_MAX_RELEASES + 1) * (n + 1)):
        done = settled or fixed.all()
        # the frozen coordinates are the fixed ones with s_i != 0 (delta_i > 0)
        if done and not (releases and np.any(fixed & (s != 0.0))):
            break
        if Bs is None:
            Bs = matvec(s)
            grad = g + Bs
            q = float(g @ s + 0.5 * (s @ Bs))
        if done:
            back = fixed & (s * grad > 0.0)
            if not back.any():
                break
            fixed = fixed & ~back
            releases -= 1
        free = ~fixed
        r = -grad
        r[fixed] = 0.0
        z = r if d is None else r / d
        rz = float(r @ z)
        settled = True
        if math.sqrt(rz) <= tol:
            continue
        p = z.copy()
        for _ in range(2 * n + 5):
            Bp = matvec(p)
            Bp[fixed] = 0.0
            pBp = float(p @ Bp)
            a_bd, alphas, moving, bound = _breakpoints(s, p, delta, neg, free)
            if pBp <= 0.0:
                # negative curvature: search back from the last breakpoint
                if not math.isfinite(a_bd):
                    break
                t = float(np.where(moving, alphas, 0.0).max())
            else:
                alpha = rz / pBp
                if alpha < a_bd:
                    s = s + alpha * p
                    Bs = None
                    q -= alpha * rz - 0.5 * alpha * alpha * pBp
                    r = r - alpha * Bp
                    z = r if d is None else r / d
                    rz_new = float(r @ z)
                    if math.sqrt(rz_new) <= tol:
                        break
                    p = z + (rz_new / rz) * p
                    rz = rz_new
                    continue
                t = alpha
            binding = moving & (alphas <= a_bd * (1.0 + 1e-12))
            q_bd = q - a_bd * rz + 0.5 * a_bd * a_bd * pBp
            found = _projected_search(g, matvec, s, p, delta, neg, t, a_bd, q_bd, free)
            if found is None:
                s = s + a_bd * p
                s[binding] = bound[binding]
                Bs = None
            else:
                s, Bs, grad, q, active = found
                if active.any():
                    binding = active
            fixed = fixed | binding
            settled = False
            break
    # the clip changes exactly the entries outside the box
    if Bs is not None and ((s < neg).any() or (s > delta).any()):
        Bs = None
    np.maximum(s, neg, out=s)
    np.minimum(s, delta, out=s)
    return (s, None, None) if Bs is None else (s, Bs, q)


def _ball_boundary(s, p, delta):
    ss = float(s @ s)
    sp = float(s @ p)
    pp = float(p @ p)
    disc = max(sp * sp + pp * (delta * delta - ss), 0.0)
    return (-sp + np.sqrt(disc)) / pp


def _cg_ball(g, matvec, delta, tol):
    """Truncated conjugate gradients with boundary exit in the Euclidean ball;
    the step's computed norm is at most delta."""
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
    return _into_ball(s, delta)


def solve_subproblem(g, model, radii, geometry, cauchy: CauchyStep, tau: float, tol: float):
    """Step inside the trust region achieving the required model decrease.

    Returns ``(s, q(s))``; falls back to the scaled Cauchy point whenever the
    iterative solve misses the tau-fraction decrease, which makes the
    decrease contract unconditional.  The zero model's step is
    :func:`zero_model_step`.

    The box subproblem's CG is preconditioned by the model's
    ``jacobi_diagonal`` (the exact model's; None for the others), and q(s)
    reuses the product ``_cg_box`` holds, when it holds one.
    """
    if model.is_zero:
        return zero_model_step(g, radii, geometry)
    if geometry == "ball":
        s, Bs = _cg_ball(g, model.matvec, radii, tol), None
    else:
        s, Bs, q_s = _cg_box(g, model.matvec, radii, tol, model.jacobi_diagonal())
    if Bs is None:
        q_s = float(g @ s + 0.5 * (s @ model.matvec(s)))
    if not np.isfinite(q_s) or q_s > tau * cauchy.q_Q:
        return cauchy.s_Q.copy(), cauchy.q_Q
    return s, q_s


def astr1_run(problem, cfg: Astr1Config) -> IterationTrace:
    """Run the adaptively scaled trust-region iteration on a problem or oracle.

    The run enters one ``np.errstate(all="ignore")`` for its whole length, and
    each gradient is checked once, by its squared norm.  ``instrument_f``
    records the noise-free f(x_k) through an oracle of its own, so that it
    uses up none of a noisy run's draws; ``f_evals`` counts those evaluations.
    """
    base = base_problem(problem)
    oracle, f_oracle = Oracle(fresh_stream(problem)), Oracle(base)
    x = np.array(base.x0, dtype=float)
    n = base.n
    rule = cfg.scaling
    aggregated = rule.aggregated
    geometry = cfg.geometry
    box = geometry == "box"
    eps, tau, instrument_f = cfg.eps, cfg.tau, cfg.instrument_f
    state = new_state(rule, n)
    model = make_model(cfg.model, kappa_B=cfg.kappa_B)
    tr = IterationTrace.open(eps, state.acc.size, n if box else 1, cfg.record_vectors)
    prev_g = None
    prev_s = None
    status = "max_iter"
    with np.errstate(all="ignore"):
        for _ in range(cfg.max_iter):
            try:
                g, gg = oracle.grad(x)
                normg = math.sqrt(gg)
                tr.add_eval(normg, f_oracle.value(x) if instrument_f else None, x=x, g=g)
                if normg <= eps:
                    status = "converged"
                    break
                if prev_g is not None and not model.is_zero:
                    model = model.update(prev_s, g - prev_g)
                if model.needs_hessian:
                    model = model.with_matrix(oracle.hess(x))
            except NonFiniteError:
                status = "overflow"
                break
            absg = np.abs(g)
            accumulate(state, rule, normg if aggregated else absg)
            w = weights(state, rule)
            radii = absg / w if box else trust_radius(g, w, geometry, normg)
            if model.is_zero:
                s, q_s = zero_model_step(g, radii, geometry, normg)
                # the step is its own Cauchy point; q_Q adds the curvature
                # term s.(0 s) = +0.0, as a product with the zero model does
                gamma, q_Q = 1.0, q_s + 0.0
            else:
                cs = cauchy_step(g, model.matvec, radii, geometry)
                tol = max(_CG_ABS, _CG_REL * normg)
                s, q_s = solve_subproblem(g, model, radii, geometry, cs, tau, tol)
                gamma, q_Q = cs.gamma, cs.q_Q
            step_norm = math.sqrt(float(s.dot(s)))  # as g.dot(g) in Oracle.grad
            # a finite norm means a finite step; an infinite one may still come
            # from a finite step whose squares overflow
            if not math.isfinite(step_norm) and not np.isfinite(s).all():
                status = "overflow"
                break
            tr.add_step(w, radii, s if box else step_norm, gamma, q_s, q_Q,
                        model.norm_estimate(), q_s - tau * q_Q, step_norm)
            x = x + s
            prev_g, prev_s = g, s
    tr.close(status, x, oracle)
    tr.f_evals += f_oracle.f_evals
    return tr


#: Armijo sufficient-decrease constant of the steepest-descent baseline
_ARMIJO_C1 = 1e-4
#: halvings of the baseline's trial step before it reports a line-search failure
_MAX_BACKTRACKS = 50


def sdba_run(problem, eps: float = 1e-6, max_iter: int = 100_000) -> IterationTrace:
    """Steepest descent with Armijo backtracking (the objective-using baseline).

    Trial steps halve from an initial stepsize of 1 / ||g(x0)||; exhausting
    the backtracks yields a ``linesearch_failure`` status.
    """
    check_stopping(eps, max_iter)
    base = base_problem(problem)
    oracle = Oracle(fresh_stream(problem))
    x = np.array(base.x0, dtype=float)
    tr = IterationTrace.open(eps, 1, 1)
    status = "max_iter"
    with np.errstate(all="ignore"):
        try:
            g, gg = oracle.grad(x)
            f = oracle.value(x)
        except NonFiniteError:
            return tr.close("overflow", x, oracle)
        normg = math.sqrt(gg)
        alpha0 = 1.0 / normg if normg > 0 else 1.0
        for _ in range(max_iter):
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
            # no model and no radius: every column but the step norm is NaN
            tr.add_step(np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan,
                        float(alpha * normg))
            x = x_try
            f = f_try
            try:
                g, gg = oracle.grad(x)
            except NonFiniteError:
                status = "overflow"
                break
            normg = math.sqrt(gg)
    return tr.close(status, x, oracle)
