"""Trust-region scaling factors.

A :class:`ScalingRule` fixes the recurrence turning the gradient history into
per-coordinate weights w_k; each iteration divides |g_k| by w_k to obtain the
trust radii.  Three families are provided:

* ``adagrad-like``  -- w = theta * (sigma + sum g^2)^mu, non-decreasing
  weights; mu=1/2, theta=1 is deterministic Adagrad.
* ``adam-like``     -- exponentially decayed squared-gradient sum,
  w = theta * sqrt(sigma + sum BETA2^(k-j) g_j^2).
* ``diminishing-max`` -- w = theta * max(sigma, v_k) * (k+1)^nu with v_k the
  running max of |g|, forcing (k+1)^nu growth.

theta is 1, or sqrt(n) for ``theta_auto`` rules.  The paper's class also
admits a factor sqrt(vartheta) on the adagrad-like weights; the solver fixes
vartheta = 1, and :class:`offo.theory.TheoryParams` keeps it general.

``aggregated`` rules accumulate the Euclidean norm of the whole gradient and
give every coordinate the same weight (the "norm" variants).

:data:`RULES` maps each named rule (adagrad, adagnorm, maxg, adams, ...) to
its :class:`ScalingRule`; it is the package's only list of them.

A :class:`ScalingState` is mutable: :func:`update` changes its accumulator in
place and returns the same object, so a run allocates its state once.  A run,
whose gradients are already checked, calls :func:`update`'s unchecked step
:func:`accumulate` directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

Array = np.ndarray

VARIANTS = ("adagrad-like", "adam-like", "diminishing-max")
#: the adam-like rules' decay factor
BETA2 = 0.9


@dataclass(frozen=True)
class ScalingRule:
    variant: str
    mu: float = 0.5
    nu: float = 0.1
    sigma: float = 0.01
    aggregated: bool = False
    theta_auto: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown scaling variant '{self.variant}'")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not (isinstance(self.sigma, Real) and 0.0 < self.sigma <= 1.0):
            raise ValueError("sigma must lie in (0, 1]")
        if self.variant == "diminishing-max" and not 0.0 < self.nu <= self.mu:
            raise ValueError("diminishing rules need 0 < nu <= mu")

    def theta_at(self, n: int) -> float:
        """The weight factor theta at dimension n (sqrt(n) for ``theta_auto`` rules)."""
        return float(np.sqrt(n)) if self.theta_auto else 1.0


@dataclass
class ScalingState:
    """Accumulator state; ``k`` is the index of the last absorbed gradient.

    ``sig`` is the rule's sigma repeated at the accumulator's width, fixed by
    :func:`new_state`: :func:`weights` adds two arrays, which numpy does
    faster than it adds a Python float to one.
    """

    k: int
    acc: Array
    n: int
    theta: float
    sig: Array


def new_state(rule: ScalingRule, n: int) -> ScalingState:
    width = 1 if rule.aggregated else n
    return ScalingState(k=-1, acc=np.zeros(width), n=n, theta=rule.theta_at(n),
                        sig=np.full(width, float(rule.sigma)))


def update(state: ScalingState, rule: ScalingRule, g_k: Array) -> ScalingState:
    """Absorb the current gradient in place (the accumulators include g_k itself).

    Returns ``state``.  A non-finite or misshapen gradient raises before the
    state changes.
    """
    g_k = np.asarray(g_k, dtype=float)
    if not np.isfinite(g_k).all():
        raise FloatingPointError("non-finite gradient passed to scaling update")
    if g_k.shape != (state.n,):
        raise ValueError(f"gradient has shape {g_k.shape}, expected ({state.n},)")
    return accumulate(state, rule, math.sqrt(float(g_k @ g_k)) if rule.aggregated else np.abs(g_k))


def accumulate(state: ScalingState, rule: ScalingRule, mag) -> ScalingState:
    """:func:`update`'s step with no checks, for a gradient known to be finite
    and of the right shape: ``mag`` is |g_k| per coordinate, or the float
    ||g_k|| for an aggregated rule."""
    acc = state.acc
    if rule.variant == "adagrad-like":
        acc += mag * mag
    elif rule.variant == "adam-like":
        acc *= BETA2
        acc += mag * mag
    else:  # diminishing-max
        np.maximum(acc, mag, out=acc)
    state.k += 1
    return state


def weights(state: ScalingState, rule: ScalingRule) -> Array:
    """Current weight vector w_k (length n; one entry when aggregated)."""
    if state.k < 0:
        raise ValueError("weights requested before any scaling update")
    sig = state.sig
    if rule.variant == "adagrad-like":
        w = state.theta * (sig + state.acc) ** rule.mu
    elif rule.variant == "adam-like":
        w = state.theta * np.sqrt(sig + state.acc)
    else:
        w = state.theta * np.maximum(sig, state.acc) * (state.k + 1) ** rule.nu
    return w


def as4_floor(rule: ScalingRule, n: int = 1) -> float:
    """Analytic positive lower bound on every weight the rule can produce."""
    theta, sigma = rule.theta_at(n), rule.sigma
    if rule.variant == "adagrad-like":
        return theta * sigma**rule.mu
    if rule.variant == "adam-like":
        return theta * np.sqrt(sigma)
    return theta * sigma


_BASE_RULES = {
    "adagrad": ScalingRule("adagrad-like"),
    "adagnorm": ScalingRule("adagrad-like", aggregated=True),
    "adam": ScalingRule("adam-like"),
    "adamnorm": ScalingRule("adam-like", aggregated=True),
    "maxg": ScalingRule("diminishing-max", mu=0.1, nu=0.1),
    "maxgnorm": ScalingRule("diminishing-max", mu=0.1, nu=0.1, aggregated=True),
}

#: the named rules selectable from the command line; a trailing "s" picks
#: theta = sqrt(n)
RULES = {
    **_BASE_RULES,
    **{f"{b}s": replace(_BASE_RULES[b], theta_auto=True) for b in ("adagrad", "adam", "maxg")},
}


def rule_from_name(name: str) -> ScalingRule:
    """The rule of that name in :data:`RULES`."""
    try:
        return RULES[name]
    except KeyError:
        raise ValueError(f"unknown scaling rule '{name}'; known: {', '.join(RULES)}") from None
