import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.scaling import (
    BETA2,
    RULES,
    ScalingRule,
    as4_floor,
    new_state,
    rule_from_name,
    update,
    weights,
)


def feed(rule, grads):
    state = new_state(rule, len(grads[0]))
    history = []
    for g in grads:
        state = update(state, rule, np.asarray(g, dtype=float))
        history.append(weights(state, rule))
    return state, history


def test_adagrad_accumulator_includes_current_gradient():
    rule = rule_from_name("adagrad")
    state, _ = feed(rule, [[1.0]])
    assert state.acc[0] == pytest.approx(1.0)
    w = weights(state, rule)
    assert w[0] == pytest.approx(math.sqrt(1.01), abs=1e-12)


def test_adam_decayed_accumulator():
    rule = rule_from_name("adam")
    state, _ = feed(rule, [[1.0], [0.0]])
    assert state.acc[0] == pytest.approx(0.9)


def test_diminishing_max_running_maximum():
    rule = rule_from_name("maxg")
    state, _ = feed(rule, [[0.2], [0.5], [0.3]])
    assert state.acc[0] == pytest.approx(0.5)


def test_diminishing_max_first_weight():
    rule = ScalingRule("diminishing-max", mu=0.1, nu=0.1)
    _, hist = feed(rule, [[0.5]])
    assert hist[0][0] == pytest.approx(0.5)


def test_adagrad_zero_history_floor():
    rule = rule_from_name("adagrad")
    _, hist = feed(rule, [[0.0]])
    assert hist[0][0] == pytest.approx(0.1)


def test_as4_floor_values():
    assert as4_floor(rule_from_name("adagrad")) == pytest.approx(0.1)
    assert as4_floor(rule_from_name("adam")) == pytest.approx(0.1)
    assert as4_floor(rule_from_name("maxg")) == pytest.approx(0.01)


def test_theta_auto_scales_weights_by_sqrt_n():
    plain = rule_from_name("adagrad")
    scaled = rule_from_name("adagrads")
    g = [np.array([1.0, -2.0, 0.5])]
    _, hw = feed(plain, g)
    _, hws = feed(scaled, g)
    assert np.allclose(hws[0], math.sqrt(3) * hw[0])
    assert as4_floor(scaled, n=3) == pytest.approx(math.sqrt(3) * 0.1)


def test_aggregated_weights_identical_across_coordinates():
    rule = rule_from_name("adagnorm")
    _, hist = feed(rule, [np.array([3.0, -4.0])])
    w = hist[0]
    assert w.shape == (1,)
    assert w[0] == pytest.approx(math.sqrt(0.01 + 25.0))


def test_aggregated_twin_matches_norm_rule():
    # each "norm" rule is its base rule accumulating ||g|| in place of |g_i|
    for base, norm in (("adagrad", "adagnorm"), ("adam", "adamnorm"), ("maxg", "maxgnorm")):
        assert replace(RULES[base], aggregated=True) == RULES[norm], base


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["adagrad", "adagnorm", "adam", "adamnorm", "maxg", "maxgnorm"]),
    st.lists(st.lists(st.floats(-50, 50), min_size=3, max_size=3), min_size=1, max_size=12),
)
def test_weights_respect_lower_floor(name, grads):
    rule = rule_from_name(name)
    _, hist = feed(rule, [np.asarray(g) for g in grads])
    floor = as4_floor(rule, n=3)
    for w in hist:
        assert np.all(w >= floor - 1e-15)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2), min_size=2, max_size=10))
def test_adagrad_weights_nondecreasing(grads):
    rule = rule_from_name("adagrad")
    _, hist = feed(rule, [np.asarray(g) for g in grads])
    for prev, cur in zip(hist, hist[1:]):
        assert np.all(cur >= prev - 1e-15)


def test_running_max_increases_only_to_new_gradient():
    # if v increases it equals the newest |g| component
    rng = np.random.default_rng(0)
    rule = rule_from_name("maxg")
    state = new_state(rule, 4)
    prev = np.zeros(4)
    for _ in range(30):
        g = rng.normal(size=4)
        state = update(state, rule, g)
        grew = state.acc > prev
        assert np.allclose(state.acc[grew], np.abs(g)[grew])
        prev = state.acc.copy()


def test_growth_band_of_diminishing_weights():
    # weights sit inside [theta max(sigma,v)(k+1)^nu, theta max(sigma,v)(k+1)^mu]
    rule = ScalingRule("diminishing-max", mu=0.3, nu=0.1)
    rng = np.random.default_rng(1)
    state = new_state(rule, 3)
    for k in range(20):
        g = rng.normal(size=3)
        state = update(state, rule, g)
        w = weights(state, rule)
        base = np.maximum(np.full(3, rule.sigma), state.acc)
        assert np.all(w >= base * (k + 1) ** rule.nu - 1e-12)
        assert np.all(w <= base * (k + 1) ** rule.mu + 1e-12)


def test_running_stats_dominate_current_gradient():
    # the running max v_k of |g| is at least |g_k|
    rng = np.random.default_rng(2)
    grads = [rng.normal(size=3) for _ in range(15)]
    rule = ScalingRule("diminishing-max", mu=0.1, nu=0.1)
    state = new_state(rule, 3)
    for g in grads:
        state = update(state, rule, g)
        assert np.all(state.acc >= np.abs(g) - 1e-15)


def test_update_rejects_nonfinite_gradient():
    rule = rule_from_name("adagrad")
    state = new_state(rule, 2)
    with pytest.raises(FloatingPointError):
        update(state, rule, np.array([np.nan, 0.0]))


def _functional_acc(rule, acc, g):
    """The accumulator recurrence written out of place, as a fresh array."""
    mag = np.array([np.linalg.norm(g)]) if rule.aggregated else np.abs(g)
    if rule.variant == "adagrad-like":
        return acc + mag**2
    if rule.variant == "adam-like":
        return BETA2 * acc + mag**2
    return np.maximum(acc, mag)


@pytest.mark.parametrize("rule", [
    rule_from_name("adagrad"),
    rule_from_name("adagnorm"),
    rule_from_name("adam"),
    rule_from_name("maxg"),
], ids=["adagrad", "adagnorm", "adam", "maxg"])
def test_update_in_place_matches_functional_recurrence_bitwise(rule):
    rng = np.random.default_rng(3)
    state = new_state(rule, 5)
    acc = state.acc.copy()
    for k in range(50):
        g = rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, size=5)
        held = state.acc
        assert update(state, rule, g) is state
        assert state.acc is held
        acc = _functional_acc(rule, acc, g)
        assert state.acc.tobytes() == acc.tobytes()
        assert state.k == k


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_leaves_state_unchanged(bad):
    for name in ("adagrad", "adagnorm", "adam", "maxg"):
        rule = rule_from_name(name)
        state = new_state(rule, 2)
        update(state, rule, np.array([1.0, -2.0]))
        acc = state.acc.copy()
        with pytest.raises(FloatingPointError):
            update(state, rule, np.array([bad, 0.5]))
        assert state.k == 0
        assert state.acc.tobytes() == acc.tobytes()


def test_weights_before_any_update_raise():
    rule = rule_from_name("adagrad")
    with pytest.raises(ValueError):
        weights(new_state(rule, 2), rule)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ScalingRule("adagrad-like", mu=1.0)
    with pytest.raises(ValueError):
        ScalingRule("diminishing-max", mu=0.1, nu=0.2)
    with pytest.raises(ValueError):
        ScalingRule("adagrad-like", sigma=1.5)
    with pytest.raises(ValueError):
        rule_from_name("bogus")


def test_named_rules():
    # (variant, mu, nu, aggregated, theta_auto)
    expected = {
        "adagrad": ("adagrad-like", 0.5, 0.1, False, False),
        "adagnorm": ("adagrad-like", 0.5, 0.1, True, False),
        "adam": ("adam-like", 0.5, 0.1, False, False),
        "adamnorm": ("adam-like", 0.5, 0.1, True, False),
        "maxg": ("diminishing-max", 0.1, 0.1, False, False),
        "maxgnorm": ("diminishing-max", 0.1, 0.1, True, False),
        "adagrads": ("adagrad-like", 0.5, 0.1, False, True),
        "adams": ("adam-like", 0.5, 0.1, False, True),
        "maxgs": ("diminishing-max", 0.1, 0.1, False, True),
    }
    assert list(RULES) == list(expected)
    for name, fields in expected.items():
        rule = rule_from_name(name)
        assert (rule.variant, rule.mu, rule.nu, rule.aggregated, rule.theta_auto) == fields
