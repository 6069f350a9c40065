import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.problems import CapabilityError, make_problem
from offo.scaling import as4_floor, rule_from_name
from offo.solver import Astr1Config, astr1_run
from offo.theory import (
    TheoryParams,
    bracket_threshold,
    check_bracket,
    check_decrease,
    check_envelope,
    envelope_constant,
    lambert_tail_bound,
    lambert_w_m1,
    lambert_w_m1_at_exp,
    params_for_run,
    series_bound,
)


def bisect_lambert(x, lo=-700.0, hi=-1.0):
    """Independent oracle: bisection on w e^w = x over [lo, -1]."""
    f = lambda w: w * math.exp(w) - x
    assert f(hi) <= 0 <= f(lo) or f(lo) <= 0 <= f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# series bound
# ---------------------------------------------------------------------------


def test_series_bound_log_case_hand_values():
    sb = series_bound([1.0, 1.0, 1.0], xi=1.0, alpha=1.0)
    assert sb.lhs == pytest.approx(1 / 2 + 1 / 3 + 1 / 4)
    assert sb.rhs == pytest.approx(math.log(4.0))
    assert sb.lhs <= sb.rhs


def test_series_bound_zero_sequence():
    sb = series_bound(np.zeros(5), xi=2.0, alpha=0.5)
    assert sb.lhs == 0.0
    assert sb.rhs == 0.0


def test_series_bound_majorants():
    a = np.array([1.0, 2.0, 0.5])
    low = series_bound(a, xi=1.0, alpha=0.4)
    assert low.majorant >= low.rhs
    high = series_bound(a, xi=1.0, alpha=1.7)
    assert high.majorant >= high.rhs
    assert high.majorant == pytest.approx(1.0 ** (1 - 1.7) / 0.7)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 5.0), min_size=1, max_size=20),
    st.floats(0.05, 4.0),
    st.sampled_from([0.3, 0.7, 1.0, 1.3, 2.0]),
)
def test_series_bound_dominates(a, xi, alpha):
    sb = series_bound(a, xi, alpha)
    assert sb.lhs <= sb.rhs + 1e-12


def test_series_bound_continuity_at_log_case():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 3, 25)
    mid = series_bound(a, 1.3, 1.0).rhs
    for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
        assert abs(series_bound(a, 1.3, alpha).rhs - mid) <= 1e-4 * mid


def test_series_bound_input_validation():
    with pytest.raises(ValueError):
        series_bound([-1.0], 1.0, 0.5)
    with pytest.raises(ValueError):
        series_bound([1.0], 0.0, 0.5)


# ---------------------------------------------------------------------------
# Lambert W, lower branch
# ---------------------------------------------------------------------------


def test_lambert_branch_point():
    assert lambert_w_m1(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-8)


def test_lambert_against_bisection_oracle():
    x = -0.05
    w_oracle = bisect_lambert(x, lo=-50.0)
    w = lambert_w_m1(x)
    assert w == pytest.approx(w_oracle, abs=1e-10)
    assert w == pytest.approx(-4.4997552885, abs=1e-9)


def test_lambert_residual_grid():
    xs = -np.exp(np.linspace(np.log(np.exp(-1) - 1e-9), np.log(1e-12), 1000))
    for x in xs:
        w = lambert_w_m1(float(x))
        assert w <= -1.0
        assert abs(w * np.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w_m1(-0.5)
    with pytest.raises(ValueError):
        lambert_w_m1(0.0)
    with pytest.raises(ValueError):
        lambert_w_m1(0.1)


def test_lambert_tail_bound_on_log_grid():
    for x in np.exp(np.linspace(np.log(1e-3), np.log(1e3), 200)):
        lhs, rhs = lambert_tail_bound(float(x))
        assert lhs <= rhs


def test_lambert_subnormal_arguments_match_log_domain_bisection():
    def oracle(x):
        # w + log(-w) = log(-x) on w <= -1; the left side increases in w
        target = math.log(-x)
        lo, hi = -2000.0, -1.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            if mid + math.log(-mid) < target:
                lo = mid
            else:
                hi = mid

    for x in (-1e-310, -1e-315, -1e-320, -5e-324):
        assert lambert_w_m1(x) == pytest.approx(oracle(x), rel=1e-12)


def test_lambert_log_domain_agrees_with_direct():
    for t in (1e-3, 0.5, 5.0, 50.0):
        direct = lambert_w_m1(-math.exp(-t - 1.0))
        stable = lambert_w_m1_at_exp(t)
        assert stable == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# complexity constants
# ---------------------------------------------------------------------------


def base_params(**kw):
    defaults = dict(L=1.0, gamma0=0.5, n=1, tau=0.1, kappa_B=1.0,
                    theta=1.0, vartheta=1.0, sigma=0.01)
    defaults.update(kw)
    return TheoryParams(**defaults)


def test_envelope_constant_half_matches_formula_with_oracle_lambert():
    # theta = vartheta = 1: prefactor 8 n kB (kB+L) / tau, branch argument
    # -tau sigma / (8 n kB (kB+L))
    p = base_params()
    big = 8.0 * p.n * p.kappa_B * (p.kappa_B + p.L) / p.tau
    arg = -p.tau * p.sigma / (8.0 * p.n * p.kappa_B * (p.kappa_B + p.L))
    w_oracle = bisect_lambert(arg, lo=-60.0)
    third = (1.0 / (2.0 * p.sigma)) * big**2 * w_oracle**2
    expected = max(p.sigma, 0.5 * math.exp(2 * p.gamma0 / (p.n * (p.kappa_B + p.L))), third)
    assert envelope_constant(p, 0.5) == pytest.approx(expected, rel=1e-9)
    # frozen regression constant for this parameter set
    assert envelope_constant(p, 0.5) == pytest.approx(189895802.777, rel=1e-9)


def test_envelope_constant_at_least_sigma():
    p = base_params(gamma0=0.0, L=0.0)
    for mu in (0.2, 0.5, 0.8):
        assert envelope_constant(p, mu) >= p.sigma


def test_envelope_constant_finite_near_half():
    p = base_params()
    for mu in (0.49, 0.51):
        assert np.isfinite(envelope_constant(p, mu))


def test_envelope_constant_guards_mu_range():
    p = base_params()
    with pytest.raises(ValueError):
        envelope_constant(p, 0.005)


def test_envelope_check_on_tridia_run():
    prob = make_problem("tridia", 10)
    rule = rule_from_name("adagrad")
    cfg = Astr1Config(scaling=rule, eps=1e-6, max_iter=20_000)
    trace = astr1_run(prob, cfg)
    p = params_for_run(prob, rule, cfg.tau, trace)
    kappa = envelope_constant(p, rule.mu)
    rep = check_envelope(trace, kappa)
    assert rep.passed
    assert rep.max_ratio <= 1.0


def test_envelope_check_single_eval_trace():
    prob = make_problem("tridia", 10)
    rule = rule_from_name("adagrad")
    cfg = Astr1Config(scaling=rule, eps=1e6, max_iter=10)  # converges at k=0
    trace = astr1_run(prob, cfg)
    assert len(trace.normg) == 1
    p = params_for_run(prob, rule, cfg.tau, trace)
    rep = check_envelope(trace, envelope_constant(p, rule.mu))
    assert rep.passed


def test_params_require_exact_lipschitz():
    prob = make_problem("rosenbr", 4)
    with pytest.raises(CapabilityError):
        params_for_run(prob, rule_from_name("adagrad"), 0.1)


# ---------------------------------------------------------------------------
# decrease inequality
# ---------------------------------------------------------------------------


def run_instrumented(name, rule_name, model="none", max_iter=3000):
    prob = make_problem(name, 10)
    rule = rule_from_name(rule_name)
    cfg = Astr1Config(scaling=rule, model=model, eps=1e-6, max_iter=max_iter,
                      instrument_f=True, record_vectors=True)
    return prob, rule, cfg, astr1_run(prob, cfg)


@pytest.mark.parametrize("rule_name", ["adagrad", "adam", "maxg", "adagnorm"])
def test_decrease_inequality_on_quadratic(rule_name):
    prob, rule, cfg, trace = run_instrumented("tridia", rule_name)
    p = params_for_run(prob, rule, cfg.tau, trace)
    viol = check_decrease(trace, p, as4_floor(rule, prob.n))
    assert viol <= 1e-8


def test_decrease_inequality_with_curvature_model():
    prob, rule, cfg, trace = run_instrumented("hilbert", "adagrad", model="bb")
    p = params_for_run(prob, rule, cfg.tau, trace)
    assert p.kappa_B >= 1.0
    viol = check_decrease(trace, p, as4_floor(rule, prob.n))
    assert viol <= 1e-8


def test_decrease_requires_vectors_and_f():
    prob = make_problem("tridia", 5)
    rule = rule_from_name("adagrad")
    cfg = Astr1Config(scaling=rule, eps=1e-4, max_iter=50)
    trace = astr1_run(prob, cfg)
    p = params_for_run(prob, rule, cfg.tau, trace)
    with pytest.raises(ValueError):
        check_decrease(trace, p, 0.1)


# ---------------------------------------------------------------------------
# growth-schedule threshold
# ---------------------------------------------------------------------------


def test_bracket_threshold_hand_values():
    p = TheoryParams(L=0.0, gamma0=1.0, n=1, tau=1.0, kappa_B=1.0, theta=1.0, sigma=1.0)
    assert bracket_threshold(p, eta=0.5, nu=0.5) == pytest.approx(4.0)
    p2 = TheoryParams(L=1.0, gamma0=1.0, n=1, tau=0.1, kappa_B=1.0, theta=1.0, sigma=0.01)
    j = bracket_threshold(p2, eta=0.0005, nu=0.1)
    assert j == pytest.approx((2.0 / (0.01 * 0.0005)) ** 10, rel=1e-12)
    assert j > 1e50  # astronomically large: any finite trace check is vacuous


def test_bracket_threshold_domain_error():
    p = TheoryParams(L=1.0, gamma0=1.0, n=1, tau=0.1, sigma=0.01)
    with pytest.raises(ValueError):
        bracket_threshold(p, eta=0.1 * 0.01, nu=0.1)


def test_bracket_check_vacuous_on_short_trace():
    prob = make_problem("tridia", 10)
    rule = rule_from_name("maxg")
    cfg = Astr1Config(scaling=rule, eps=1e-6, max_iter=2000)
    trace = astr1_run(prob, cfg)
    p = params_for_run(prob, rule, cfg.tau, trace)
    rep = check_bracket(trace, p, eta=0.5 * p.tau * p.sigma, nu=rule.nu)
    assert rep.vacuous and rep.passed


def test_bracket_check_nonvacuous_engineered():
    # constants chosen so the threshold index is tiny and the bracket
    # positivity is actually exercised on the recorded trace
    prob = make_problem("tridia", 10)
    rule = rule_from_name("maxg")
    cfg = Astr1Config(scaling=rule, eps=1e-6, max_iter=3000)
    trace = astr1_run(prob, cfg)
    p = TheoryParams(L=0.0, gamma0=1.0, n=10, tau=1.0,
                     kappa_B=1.0, theta=1.0, sigma=1.0)
    rep = check_bracket(trace, p, eta=1e-4, nu=0.9)
    assert not rep.vacuous
    assert rep.checked > 0
    assert rep.j_eta == pytest.approx((1.0 / (1.0 - 1e-4)) ** (1 / 0.9))
