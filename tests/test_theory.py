import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.problems import CapabilityError, ProblemInstance, make_problem
from offo.scaling import as4_floor, rule_from_name
from offo.solver import Astr1Config, astr1_run
from offo.theory import (
    VERIFY_SUITES,
    TheoryParams,
    _decrease_margins,
    _exact_l_traces,
    bracket_threshold,
    check_bracket,
    check_decrease,
    check_envelope,
    envelope_constant,
    lambert_tail_bound,
    lambert_w_m1,
    lambert_w_m1_at_exp,
    params_for_run,
    run_series_suite,
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


@pytest.mark.parametrize("a", [
    [], [0.0], [-0.0], [-1e-320], [1.0, -1.0], [np.nan], [2.0, np.nan, 1.0], [np.inf],
    [-np.inf], [1e300, 1e300], [5e-324, 0.0], 3.0, -3.0, [[1.0, 2.0], [0.5, -0.5]],
])
def test_series_bound_rejects_the_inputs_the_wrapper_checks_rejected(a):
    arr = np.asarray(a, dtype=float)
    rejected = bool(np.any(arr < 0) or not np.all(np.isfinite(arr)))
    if rejected:
        with pytest.raises(ValueError, match="non-negative and finite"):
            series_bound(a, 1.0, 0.5)
    else:
        series_bound(a, 1.0, 0.5)


@pytest.mark.parametrize("a", [[1e308, 1e308], [1.7e308, 0.0, 1e308, 1.0]])
def test_series_bound_rejects_prefix_sums_that_overflow(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="prefix sums"):
            series_bound(a, 1.0, 0.5)


def test_series_suite_values_are_pinned():
    out = run_series_suite(0)
    assert out["max_violation"] == float.fromhex("-0x1.5932ca61d6d40p-9")
    assert out["continuity_gap"] == float.fromhex("0x1.b4e6cbe6959efp-20")


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
    p = params_for_run(prob, rule, trace)
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
    p = params_for_run(prob, rule, trace)
    rep = check_envelope(trace, envelope_constant(p, rule.mu))
    assert rep.passed


def test_envelope_and_bracket_checks_pass_on_a_trace_with_no_gradient():
    # the gradient is inf at x0, so the run stops before recording one
    prob = ProblemInstance("inf-grad", 2, np.zeros(2), 0.0, lambda x: float(x @ x),
                           lambda x: np.full(2, np.inf), None)
    trace = astr1_run(prob, Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-6,
                                        max_iter=10))
    assert trace.status == "overflow" and trace.normg.size == 0
    rep = check_envelope(trace, 1.0)
    assert rep.passed and rep.max_ratio == 0.0
    rep = check_bracket(trace, base_params(), eta=1e-4, nu=0.5)
    assert rep.vacuous and rep.passed


def test_params_require_exact_lipschitz():
    prob = make_problem("rosenbr", 4)
    with pytest.raises(CapabilityError):
        params_for_run(prob, rule_from_name("adagrad"))


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
    p = params_for_run(prob, rule, trace)
    viol = check_decrease(trace, p, as4_floor(rule, prob.n))
    assert viol <= 1e-8


def test_decrease_inequality_with_curvature_model():
    prob, rule, cfg, trace = run_instrumented("hilbert", "adagrad", model="bb")
    p = params_for_run(prob, rule, trace)
    assert p.kappa_B >= 1.0
    viol = check_decrease(trace, p, as4_floor(rule, prob.n))
    assert viol <= 1e-8


def reference_decrease(trace, p, sigma_floor):
    """The per-step loop of the decrease check: its margins and its result."""
    s_min = min(sigma_floor, 1.0)
    worst = 0.0
    margins = []
    for j in range(min(len(trace.w_hist), len(trace.f) - 1)):
        g = trace.g_hist[j]
        w = trace.w_hist[j]
        drop = np.sum(p.tau * s_min * g**2 / (2.0 * p.kappa_B * w))
        rise = 0.5 * (p.kappa_B + p.L) * np.sum(g**2 / w**2)
        rhs = trace.f[j] - drop + rise
        margins.append(trace.f[j + 1] - rhs)
        worst = max(worst, trace.f[j + 1] - rhs)
    return np.array(margins), worst


def test_decrease_margins_equal_the_per_step_loop_bitwise():
    for prob, rule, cfg, trace in _exact_l_traces(max_iter=5000, instrument=True):
        p = params_for_run(prob, rule, trace)
        floor = as4_floor(rule, prob.n)
        ref, worst = reference_decrease(trace, p, floor)
        got = _decrease_margins(trace, p, floor)
        assert got.shape == (trace.steps,), prob.name
        assert got.tobytes() == ref.tobytes(), prob.name
        assert float(check_decrease(trace, p, floor)).hex() == float(worst).hex(), prob.name


@pytest.mark.parametrize("rule_name", ["adagrad", "adagnorm"])
def test_decrease_check_keeps_the_loops_maximum_over_positive_and_nan_margins(rule_name):
    prob, rule, cfg, trace = run_instrumented("tridia", rule_name, max_iter=40)
    p = params_for_run(prob, rule, trace)
    f = trace.f.copy()
    for edit in ({}, {5: np.nan}, {3: f[3] + 1e4, 9: f[9] + 1e3}, {3: f[3] + 1e4, 4: np.nan}):
        trace.f = f.copy()
        for j, v in edit.items():
            trace.f[j] = v
        ref, worst = reference_decrease(trace, p, 0.1)
        assert (worst > 0.0) == (3 in edit), edit
        assert _decrease_margins(trace, p, 0.1).tobytes() == ref.tobytes(), edit
        assert float(check_decrease(trace, p, 0.1)).hex() == float(worst).hex(), edit


def test_decrease_requires_vectors_and_f():
    prob = make_problem("tridia", 5)
    rule = rule_from_name("adagrad")
    cfg = Astr1Config(scaling=rule, eps=1e-4, max_iter=50)
    trace = astr1_run(prob, cfg)
    p = params_for_run(prob, rule, trace)
    with pytest.raises(ValueError):
        check_decrease(trace, p, 0.1)


def test_decrease_check_passes_on_a_trace_with_no_gradient():
    # the gradient is inf at x0, so the instrumented run records no f
    prob = ProblemInstance("inf-grad", 2, np.zeros(2), 0.0, lambda x: float(x @ x),
                           lambda x: np.full(2, np.inf), None)
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-6, max_iter=10,
                      instrument_f=True, record_vectors=True)
    trace = astr1_run(prob, cfg)
    assert trace.status == "overflow" and trace.f.size == 0
    assert check_decrease(trace, base_params(), 0.1) == 0.0
    # a trace that has gradients but no f is still refused
    cfg = Astr1Config(scaling=rule_from_name("adagrad"), eps=1e-4, max_iter=50,
                      record_vectors=True)
    trace = astr1_run(make_problem("tridia", 5), cfg)
    with pytest.raises(ValueError, match="requires instrument_f=True"):
        check_decrease(trace, base_params(), 0.1)


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
    p = params_for_run(prob, rule, trace)
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


def test_bracket_threshold_that_overflows_is_inf_and_its_check_vacuous():
    p = TheoryParams(L=1e3, gamma0=1.0, n=10)
    assert bracket_threshold(p, eta=5e-4, nu=0.05) == pytest.approx(1.07e166, rel=1e-2)
    assert bracket_threshold(p, eta=5e-4, nu=0.02) == math.inf
    trace = astr1_run(make_problem("tridia", 10),
                      Astr1Config(scaling=rule_from_name("maxg"), eps=1e-6, max_iter=50))
    rep = check_bracket(trace, p, eta=5e-4, nu=0.02)
    assert rep.j_eta == math.inf and rep.vacuous and rep.passed and rep.checked == 0


@pytest.mark.parametrize("steps, checked", [(5, 0), (6, 1)])
def test_bracket_check_starts_past_an_integral_threshold(steps, checked):
    # j_eta = (1 / 0.5)^2 = 4 exactly: only a recorded j = 5 is past it
    p = TheoryParams(L=0.0, gamma0=1.0, n=10, tau=1.0, kappa_B=1.0, theta=1.0, sigma=1.0)
    trace = astr1_run(make_problem("tridia", 10),
                      Astr1Config(scaling=rule_from_name("maxg"), eps=1e-6, max_iter=steps))
    assert len(trace.w_min) == steps
    rep = check_bracket(trace, p, eta=0.5, nu=0.5)
    assert rep.j_eta == 4.0 and rep.checked == checked and rep.vacuous == (checked == 0)


@pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
def test_verify_suite_passes(suite):
    report = VERIFY_SUITES[suite]()
    assert report["passed"] is True
    if suite == "ming":
        # nu = 0.1 raises the threshold to the 10th power: j_eta ~ 4.4e74 on
        # tridia:10, so at the package's settings the suite checks no iterate
        assert report["vacuous"] is True and report["checked"] == 0


@pytest.mark.parametrize("mu, gamma0", [(0.5, 1e6), (0.45, 1e40), (0.55, 1e300)])
def test_envelope_constant_that_overflows_is_inf(mu, gamma0):
    # warnings are errors in this suite, so an overflow warning fails here too
    assert envelope_constant(TheoryParams(L=1.0, gamma0=gamma0, n=10), mu) == math.inf


@pytest.mark.parametrize("L", [1e306, 1e308])
def test_envelope_constant_whose_lambert_argument_underflows_is_inf(L):
    # at L = 1e308 the argument -s / big underflows to -0.0, outside the branch
    assert envelope_constant(TheoryParams(L=L, gamma0=1.0, n=10), 0.5) == math.inf


@pytest.mark.parametrize("name, expected", [
    ("tridia", "0x1.c8e7b508a587bp+47"),
    ("hilbert", "0x1.96d6be99370f9p+35"),
    ("arglina", "0x1.e978846db857bp+35"),
])
def test_criterion_4_envelope_constants_keep_their_bits(name, expected):
    # criterion 4's zero-model runs have kappa_B = 1, so the trace is not needed
    p = params_for_run(make_problem(name, 10), rule_from_name("adagrad"))
    assert envelope_constant(p, 0.5).hex() == expected


@pytest.mark.parametrize("mu, expected", [(0.45, "0x1.5077f7605ab1ap+38"), (0.55, "0x1.270e185eb4320p+38")])
def test_envelope_constant_off_one_half_keeps_its_bits(mu, expected):
    assert envelope_constant(TheoryParams(L=4.0, gamma0=10.0, n=10), mu).hex() == expected
