"""Numerical verification of the convergence theory behind the solver.

Provides the prefix-sum series bound, the lower real branch of the Lambert W
function, the closed-form constants bounding the accumulated squared gradient
norms of accumulated-squares runs, and checkers that replay recorded traces
against those guarantees.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hessian import check_kappa_B
from .problems import ProblemInstance, make_problem
from .scaling import ScalingRule, as4_floor, rule_from_name
from .solver import TAU, Astr1Config, IterationTrace, astr1_run

Array = np.ndarray

#: problems whose Lipschitz constant is known exactly (quadratics), and the
#: gradient tolerance of the envelope and decrease suites' runs on them
EXACT_L_PROBLEMS = (("tridia", 10), ("hilbert", 10), ("arglina", 10), ("arglinb", 10))
EXACT_L_EPS = 1e-6
#: random instances of the series suite
SERIES_CASES = 1000
#: log-spaced arguments of the Lambert suite on (-1/e, -1e-12]
LAMBERT_GRID = 1000


@dataclass(frozen=True)
class TheoryParams:
    """Problem and algorithm constants entering the complexity bounds."""

    L: float
    gamma0: float
    n: int
    tau: float = TAU
    kappa_B: float = 1.0
    theta: float = 1.0
    vartheta: float = 1.0
    sigma: float = 0.01

    def __post_init__(self):
        if not (self.L >= 0 and self.gamma0 >= 0):
            raise ValueError("L and gamma0 must be non-negative")
        check_kappa_B(self.kappa_B)

    @property
    def kappa_BBL(self) -> float:
        return self.kappa_B * (self.kappa_B + self.L)


def params_for_run(
    problem: ProblemInstance,
    rule: ScalingRule,
    trace: Optional[IterationTrace] = None,
) -> TheoryParams:
    """Assemble bound constants for a finished run.

    ``kappa_B`` is a cap the trace certifies: 1 for zero-curvature runs, else
    the largest recorded certified bound on the model norm, at least 1.
    Requires an exact Lipschitz hint
    (:class:`CapabilityError` otherwise).
    """
    kappa_B = 1.0
    if trace is not None and len(trace.norm_B):
        finite = trace.norm_B[np.isfinite(trace.norm_B)]
        if finite.size:
            kappa_B = max(1.0, float(finite.max()))
    return TheoryParams(
        L=problem.lipschitz_hint,
        gamma0=problem.value(problem.x0) - problem.f_low,
        n=problem.n,
        kappa_B=kappa_B,
        theta=rule.theta_at(problem.n),
        sigma=rule.sigma,
    )


# ---------------------------------------------------------------------------
# series bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesBound:
    lhs: float
    rhs: float
    majorant: Optional[float]


def series_bound(a, xi: float, alpha: float) -> SeriesBound:
    """Bound sum_j a_j / (xi + b_j)^alpha with b_j the inclusive prefix sums.

    For alpha != 1 the bound is ((xi + b_k)^(1-alpha) - xi^(1-alpha)) / (1-alpha),
    for alpha = 1 it is log((xi + b_k) / xi); the simplified majorant
    (xi + b_k)^(1-alpha) / (1-alpha) applies for alpha < 1 and
    xi^(1-alpha) / (alpha-1) for alpha > 1.
    """
    a = np.asarray(a, dtype=float)
    # min is NaN, and fails the test, when some a_j is
    if a.size and not (a.min() >= 0.0 and a.max() < np.inf):
        raise ValueError("sequence must be non-negative and finite")
    if not (xi > 0 and alpha > 0):
        raise ValueError("xi and alpha must be positive")
    # the terms are non-negative, so the sums grow and overflow at the last if at all
    with np.errstate(over="ignore"):
        b = a.cumsum()
    bk = b.item(-1) if b.size else 0.0
    if not bk < np.inf:
        raise ValueError("the prefix sums of the sequence must stay finite")
    lhs = float((a / (xi + b) ** alpha).sum())
    if alpha == 1.0:
        rhs = float(np.log((xi + bk) / xi))
        majorant = None
    else:
        rhs = float(((xi + bk) ** (1.0 - alpha) - xi ** (1.0 - alpha)) / (1.0 - alpha))
        if alpha < 1.0:
            majorant = float((xi + bk) ** (1.0 - alpha) / (1.0 - alpha))
        else:
            majorant = float(xi ** (1.0 - alpha) / (alpha - 1.0))
    return SeriesBound(lhs=lhs, rhs=rhs, majorant=majorant)


# ---------------------------------------------------------------------------
# Lambert W, lower real branch
# ---------------------------------------------------------------------------

_INV_E = np.exp(-1.0)


def lambert_w_m1(x: float) -> float:
    """Solve w * exp(w) = x for the branch w <= -1, x in [-1/e, 0).

    Evaluated as ``lambert_w_m1_at_exp(-log(-x) - 1)``: working with log(-x)
    keeps it accurate down to subnormal x.
    """
    x = float(x)
    if not -_INV_E - 4e-16 <= x < 0.0:
        raise ValueError("lambert_w_m1 requires x in [-1/e, 0)")
    return lambert_w_m1_at_exp(max(-np.log(-x) - 1.0, 0.0))


def lambert_w_m1_at_exp(t: float) -> float:
    """W_-1(-exp(-t-1)) for t >= 0, stable even where exp(-t-1) underflows.

    Writing w = -u reduces w e^w = -e^(-t-1) to u - log(u) = t + 1, solved by
    Newton from a branch-point (small t) or asymptotic (large t) seed.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return -1.0
    if t < 0.5:
        u = 1.0 + np.sqrt(2.0 * t)
    else:
        u = (t + 1.0) + np.log(t + 1.0)
    for _ in range(100):
        step = (u - np.log(u) - (t + 1.0)) * u / (u - 1.0)
        u_new = u - step
        if u_new <= 1.0:
            u_new = 0.5 * (u + 1.0)
        if abs(u_new - u) <= 1e-15 * u:
            u = u_new
            break
        u = u_new
    return -float(u)


def lambert_tail_bound(x: float) -> tuple[float, float]:
    """Both sides of |W_-1(-e^(-x-1))| <= 1 + sqrt(2 x) + x for x > 0."""
    if x <= 0:
        raise ValueError("x must be positive")
    lhs = abs(lambert_w_m1_at_exp(x))
    rhs = 1.0 + np.sqrt(2.0 * x) + x
    return lhs, rhs


# ---------------------------------------------------------------------------
# complexity constants for accumulated-squares scalings
# ---------------------------------------------------------------------------


def envelope_constant(p: TheoryParams, mu: float) -> float:
    """Constant kappa with sum_{j<=k} ||g_j||^2 <= kappa for every k; inf
    when kappa leaves the float range.

    Dispatches on the accumulator exponent: mu below, at, or above 1/2.  The
    exact mu = 1/2 case goes through the lower Lambert branch; other values
    are guarded to [0.01, 0.99] to avoid overflow in the 1/(1-2 mu) powers.
    """
    if not 0.01 <= mu <= 0.99:
        raise ValueError("mu must lie in [0.01, 0.99]")
    # numpy overflows to inf quietly here; a Python float power raises instead
    with np.errstate(over="ignore"):
        try:
            return _envelope_constant(p, mu)
        except OverflowError:
            return np.inf


def _envelope_constant(p: TheoryParams, mu: float) -> float:
    s, th, vth = p.sigma, p.theta, p.vartheta
    kBL = p.kappa_B + p.L
    if abs(mu - 0.5) < 1e-12:
        big = 8.0 * p.n * p.kappa_B * kBL / (p.tau * vth**1.5 * th)
        arg = -p.tau * s * th * vth**1.5 / (8.0 * p.n * p.kappa_B * kBL)
        if arg == 0.0:
            # arg = -s / big underflowed, so the last term, at least
            # (0.5 / s) big**2 = 0.5 s / arg**2, is far above the float range
            return np.inf
        w = lambert_w_m1(arg)
        return max(
            s,
            0.5 * np.exp(2.0 * p.gamma0 * vth * th**2 / (p.n * kBL)),
            (0.5 / s) * big**2 * w**2,
        )
    if mu < 0.5:
        t2 = (2.0 ** (2 * mu) * vth * (1.0 - 2.0 * mu) * th**2 * p.gamma0 / (p.n * kBL)) ** (
            1.0 / (1.0 - 2.0 * mu)
        )
        t3 = (4.0 * p.n * p.kappa_BBL / ((1.0 - 2.0 * mu) * p.tau * th * s**mu * vth**1.5)) ** (
            1.0 / mu
        )
        return max(s, t2, t3)
    inner = p.gamma0 * th + p.n * kBL * s ** (1.0 - 2.0 * mu) / (
        2.0 * vth * th * (2.0 * mu - 1.0)
    )
    t2 = (2.0 ** (1.0 + mu) * p.kappa_B / (p.tau * s**mu * np.sqrt(vth)) * inner) ** (
        1.0 / (1.0 - mu)
    )
    return max(s, t2)


@dataclass(frozen=True)
class EnvelopeReport:
    max_ratio: float
    argmax_k: int
    kappa: float
    passed: bool


def check_envelope(trace: IterationTrace, kappa: float) -> EnvelopeReport:
    """Check sum_{j<=k} ||g_j||^2 <= kappa at every recorded iteration;
    vacuous, with ``max_ratio`` 0, when no gradient was recorded."""
    ratios = np.cumsum(trace.normg**2) / kappa
    if not ratios.size:
        return EnvelopeReport(max_ratio=0.0, argmax_k=0, kappa=kappa, passed=True)
    k = int(np.argmax(ratios))
    mr = float(ratios[k])
    return EnvelopeReport(max_ratio=mr, argmax_k=k, kappa=kappa, passed=mr <= 1.0)


# ---------------------------------------------------------------------------
# decrease inequality
# ---------------------------------------------------------------------------


def check_decrease(trace: IterationTrace, p: TheoryParams, sigma_floor: float) -> float:
    """Largest violation of the per-iteration objective decrease bound.

    Evaluates, for every recorded step j,
        f_{j+1} <= f_j - sum_i tau * s_min * g_ij^2 / (2 kB w_ij)
                       + (kB + L) / 2 * sum_i g_ij^2 / w_ij^2
    and returns max(lhs - rhs, 0) over the trace, NaN margins left out.
    Requires an instrumented run with recorded vectors; takes O(steps * n)
    memory.
    """
    margins = _decrease_margins(trace, p, sigma_floor)
    # fmax skips NaN; max with 0.0 returns +0.0 whenever no margin is positive
    return max(0.0, float(np.fmax.reduce(margins, initial=-np.inf)))


def _decrease_margins(trace: IterationTrace, p: TheoryParams, sigma_floor: float) -> Array:
    """Per-step margins f_{j+1} - rhs_j of :func:`check_decrease`'s bound.

    The steps' g and w are stacked into (steps, n) rows: every elementwise
    operation is a step's own and each row sum is that step's sum.  The
    stack and its temporaries take O(steps * n) memory, a few times the
    size of ``g_hist``.
    """
    if trace.g_hist is None or trace.w_hist is None:
        raise ValueError("decrease check requires record_vectors=True")
    f = trace.f
    # a trace with no gradient has no f to check, and no step
    if f.size and np.isnan(f).all():
        raise ValueError("decrease check requires instrument_f=True")
    s_min = min(sigma_floor, 1.0)
    steps = min(len(trace.w_hist), len(f) - 1)
    if steps <= 0:
        return np.empty(0)
    g2 = np.square(trace.g_hist[:steps])
    w = np.array(trace.w_hist[:steps])
    drop = (p.tau * s_min * g2 / (2.0 * p.kappa_B * w)).sum(axis=1)
    rise = 0.5 * (p.kappa_B + p.L) * (g2 / w**2).sum(axis=1)
    return f[1:steps + 1] - (f[:steps] - drop + rise)


# ---------------------------------------------------------------------------
# growth-scheduled scalings: bracket positivity threshold
# ---------------------------------------------------------------------------


def bracket_threshold(p: TheoryParams, eta: float, nu: float) -> float:
    """Iteration index beyond which the decrease bracket must exceed eta.

    j_eta = (kappa_B (kappa_B + L) / (theta s_min (tau s_min - eta)))^(1/nu);
    valid for 0 < eta < tau * s_min, and inf when it leaves the float range.
    """
    s_min = min(p.sigma, 1.0)
    if not 0.0 < eta < p.tau * s_min:
        raise ValueError("eta must lie in (0, tau * s_min)")
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    try:
        return float((p.kappa_BBL / (p.theta * s_min * (p.tau * s_min - eta))) ** (1.0 / nu))
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class BracketReport:
    j_eta: float
    checked: int
    min_bracket: float
    vacuous: bool
    passed: bool


def check_bracket(trace: IterationTrace, p: TheoryParams, eta: float, nu: float) -> BracketReport:
    """Verify tau*s_min - kappa_BBL / w_min_j > eta for all recorded j > j_eta;
    vacuous when no recorded j is past j_eta (an infinite j_eta included)."""
    j_eta = bracket_threshold(p, eta, nu)
    s_min = min(p.sigma, 1.0)
    w_min = trace.w_min
    # j_eta >= 0, so the first j past it is int(j_eta) + 1
    if j_eta >= len(w_min) - 1:
        return BracketReport(j_eta=j_eta, checked=0, min_bracket=np.inf, vacuous=True, passed=True)
    start = int(j_eta) + 1
    brackets = p.tau * s_min - p.kappa_BBL / w_min[start:]
    mn = float(brackets.min())
    return BracketReport(
        j_eta=j_eta,
        checked=len(brackets),
        min_bracket=mn,
        vacuous=False,
        passed=mn > eta,
    )


# ---------------------------------------------------------------------------
# canned verification suites (shared by the CLI and the test suite)
# ---------------------------------------------------------------------------


def run_series_suite(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(SERIES_CASES):
        a = rng.uniform(0.0, 2.0, rng.integers(1, 21))
        xi = float(rng.uniform(0.05, 3.0))
        for alpha in (0.3, 0.7, 1.0, 1.3, 2.0):
            sb = series_bound(a, xi, alpha)
            worst = max(worst, sb.lhs - sb.rhs)
    # continuity of the bound across the logarithmic case
    a = rng.uniform(0.0, 2.0, 20)
    mid = series_bound(a, 1.0, 1.0).rhs
    lo = series_bound(a, 1.0, 1.0 - 1e-6).rhs
    hi = series_bound(a, 1.0, 1.0 + 1e-6).rhs
    cont = max(abs(lo - mid), abs(hi - mid)) / mid
    return {
        "suite": "series",
        "cases": SERIES_CASES,
        "max_violation": worst,
        "continuity_gap": cont,
        "passed": bool(worst <= 0.0 and cont <= 1e-4),
    }


def run_lambert_suite() -> dict:
    xs = -np.exp(np.linspace(np.log(_INV_E - 1e-9), np.log(1e-12), LAMBERT_GRID))
    worst = 0.0
    for x in xs:
        w = lambert_w_m1(x)
        worst = max(worst, abs(w * np.exp(w) - x) / abs(x))
    branch_err = abs(lambert_w_m1(-_INV_E) + 1.0)
    tail_ok = True
    for t in np.exp(np.linspace(np.log(1e-3), np.log(1e3), 60)):
        lhs, rhs = lambert_tail_bound(t)
        tail_ok = tail_ok and lhs <= rhs
    return {
        "suite": "lambert",
        "grid": LAMBERT_GRID,
        "max_rel_residual": worst,
        "branch_point_error": branch_err,
        "tail_bound_ok": bool(tail_ok),
        "passed": bool(worst <= 1e-12 and branch_err <= 1e-8 and tail_ok),
    }


def _exact_l_traces(max_iter=20000, instrument=False):
    out = []
    for name, n in EXACT_L_PROBLEMS:
        prob = make_problem(name, n)
        rule = rule_from_name("adagrad")
        cfg = Astr1Config(
            scaling=rule,
            eps=EXACT_L_EPS,
            max_iter=max_iter,
            instrument_f=instrument,
            record_vectors=instrument,
        )
        out.append((prob, rule, cfg, astr1_run(prob, cfg)))
    return out


def run_envelope_suite() -> dict:
    results = {}
    ok = True
    for prob, rule, cfg, trace in _exact_l_traces():
        p = params_for_run(prob, rule, trace)
        kappa = envelope_constant(p, rule.mu)
        rep = check_envelope(trace, kappa)
        results[prob.name] = rep.max_ratio
        ok = ok and rep.passed
    return {"suite": "envelope", "max_ratio_by_problem": results, "passed": bool(ok)}


def run_decrease_suite() -> dict:
    results = {}
    ok = True
    for prob, rule, cfg, trace in _exact_l_traces(max_iter=5000, instrument=True):
        p = params_for_run(prob, rule, trace)
        viol = check_decrease(trace, p, as4_floor(rule, prob.n))
        results[prob.name] = viol
        ok = ok and viol <= 1e-8
    return {"suite": "decrease", "max_violation_by_problem": results, "passed": bool(ok)}


def run_bracket_suite() -> dict:
    prob = make_problem("tridia", 10)
    rule = rule_from_name("maxg")
    cfg = Astr1Config(scaling=rule, eps=1e-6, max_iter=5000)
    trace = astr1_run(prob, cfg)
    p = params_for_run(prob, rule, trace)
    eta = 0.5 * p.tau * min(p.sigma, 1.0)
    rep = check_bracket(trace, p, eta, rule.nu)
    return {
        "suite": "ming",
        "j_eta": rep.j_eta,
        "checked": rep.checked,
        "vacuous": rep.vacuous,
        "min_bracket": None if rep.vacuous else rep.min_bracket,
        "passed": bool(rep.passed),
    }


VERIFY_SUITES = {
    "series": run_series_suite,
    "lambert": run_lambert_suite,
    "envelope": run_envelope_suite,
    "decrease": run_decrease_suite,
    "ming": run_bracket_suite,
}
