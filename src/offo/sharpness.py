"""Worst-case objective constructions realizing the slowest allowed decay.

A prescribed sequence of gradients, steps and objective values is assembled,
then a piecewise-cubic interpolant matching all values and slopes turns the
sequence into a genuine univariate objective.  Replaying the solver on the
interpolant must reproduce the prescribed iterates, confirming that the
theoretical decay rates are attained.

Two kinds are built, selected by the external tokens ``thm31`` and ``thm41``:
``thm31`` pairs with the accumulated-squares scaling (gradient norms
1 / k^(1/2 + eta)), ``thm41`` with the growth-scheduled max scaling (gradient
norms 1 / (k+1)^omega).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import ProblemInstance
from .scaling import ScalingRule
from .solver import Astr1Config, IterationTrace, astr1_run

Array = np.ndarray

KINDS = ("thm31", "thm41")

#: terms of zeta's direct sum before the Euler-Maclaurin tail takes over
_ZETA_CUTOFF = 50
#: relative deviation of an iterate or gradient norm at which a replay diverges
REPLAY_RTOL = 1e-8


def zeta(s: float) -> float:
    """Riemann zeta for s > 1: direct sum plus an Euler-Maclaurin tail."""
    if s <= 1.0:
        raise ValueError("zeta implemented for s > 1 only")
    k = np.arange(1, _ZETA_CUTOFF, dtype=float)
    head = float(np.sum(k**-s))
    N = float(_ZETA_CUTOFF)
    tail = N ** (1.0 - s) / (s - 1.0) + 0.5 * N**-s
    tail += s * N ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * N ** (-s - 3.0) / 720.0
    tail += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * N ** (-s - 5.0) / 30240.0
    return head + tail


@dataclass
class SharpSequence:
    """Prescribed (g, s, x, f) data of a lower-bound construction.

    Arrays hold K+1 knots (x, f, g) and K steps (s).  ``kappa_f`` is the
    admissibility constant under which value/slope interpolation is valid.
    """

    kind: str
    K: int
    g: Array
    s: Array
    x: Array
    f: Array
    kappa_f: float
    f0: float
    params: dict = field(default_factory=dict)


def build_sequence(
    kind: str,
    K: int,
    mu: float = 0.5,
    eta: float = 0.01,
    sigma: float = 0.01,
    nu: float = 1.0 / 9.0,
    omega: float = 4.0 / 9.0 + 0.01,
) -> SharpSequence:
    """Assemble the prescribed sequence for one of the two constructions."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if K < 1:
        raise ValueError("K must be positive")
    if kind == "thm31":
        if not 0.0 < mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 < sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        k = np.arange(K + 1, dtype=float)
        g = np.empty(K + 1)
        g[0] = -2.0
        g[1:] = -k[1:] ** -(0.5 + eta)
        acc = sigma + np.cumsum(g**2)
        s = np.empty(K)
        s[0] = 2.0 / (sigma + 4.0) ** mu
        if K > 1:
            s[1:] = 1.0 / (k[1:K] ** (0.5 + eta) * acc[1:K] ** mu)
        f0 = 4.0 / (sigma + 4.0) ** mu + zeta(1.0 + 2.0 * eta)
        kappa_f = max(1.5 * (sigma + 5.0) ** mu, f0, 2.0)
        params = {"mu": mu, "eta": eta, "sigma": sigma}
    else:
        if not 0.0 < nu < 1.0:
            raise ValueError("nu must lie in (0, 1)")
        if not 0.5 * (1.0 - nu) < omega <= 1.0:
            raise ValueError("omega must lie in ((1 - nu)/2, 1]")
        if not 0.0 < sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        k = np.arange(K + 1, dtype=float)
        g = -((k + 1.0) ** -omega)
        s = (k[:K] + 1.0) ** -(2.0 * omega - nu)
        f0 = zeta(2.0 * omega + nu)
        kappa_f = max(omega, f0, 1.0)
        params = {"nu": nu, "omega": omega, "sigma": sigma}
    x = np.concatenate(([0.0], np.cumsum(s)))
    f = np.empty(K + 1)
    f[0] = f0
    f[1:] = f0 + np.cumsum(g[:K] * s)
    return SharpSequence(kind=kind, K=K, g=g, s=s, x=x, f=f, kappa_f=kappa_f, f0=f0, params=params)


def admissibility_margins(seq: SharpSequence) -> tuple[float, float]:
    """Smallest slack in the two interpolation admissibility inequalities.

    Returns (min over k of kappa_f s_k^2 - |f_{k+1} - f_k - g_k s_k|,
             min over k of kappa_f s_k   - |g_{k+1} - g_k|); both must be
    non-negative for the interpolant to exist with the stated constant.
    """
    df = np.abs(seq.f[1:] - seq.f[:-1] - seq.g[:-1] * seq.s)
    dg = np.abs(seq.g[1:] - seq.g[:-1])
    m1 = float(np.min(seq.kappa_f * seq.s**2 - df))
    m2 = float(np.min(seq.kappa_f * seq.s - dg))
    return m1, m2


@dataclass
class HermiteInterpolant:
    """Piecewise cubic matching prescribed values and slopes at breakpoints.

    C1 across breakpoints by construction; outside [x_0, x_K] the function
    continues quadratically with matching value, slope and end curvature.
    """

    xs: Array
    fs: Array
    gs: Array
    c2: Array
    c3: Array

    def evaluate(self, t: float):
        """Value, slope and curvature at t, as (f, g, H).

        The coefficients are read with ``item``, so the arithmetic runs on
        Python floats, which cost less per operation than numpy scalars; the
        operations and their order are those on numpy scalars, so the bits
        are too.
        """
        xs, fs, gs, c2, c3 = self.xs, self.fs, self.gs, self.c2, self.c3
        K = len(xs) - 1
        if t < xs.item(0):
            d = t - xs.item(0)
            return self._quad(fs.item(0), gs.item(0), c2.item(0), d)
        if t >= xs.item(K):
            d = t - xs.item(K)
            h = xs.item(K) - xs.item(K - 1)
            c_end = c2.item(K - 1) + 3.0 * c3.item(K - 1) * h
            return self._quad(fs.item(K), gs.item(K), c_end, d)
        i = int(xs.searchsorted(t, side="right")) - 1
        d = t - xs.item(i)
        a2, a3, g_i = c2.item(i), c3.item(i), gs.item(i)
        f = fs.item(i) + d * (g_i + d * (a2 + d * a3))
        g = g_i + d * (2.0 * a2 + 3.0 * a3 * d)
        H = 2.0 * a2 + 6.0 * a3 * d
        return f, g, H

    @staticmethod
    def _quad(f0, g0, c, d):
        f = f0 + g0 * d + c * d * d
        g = g0 + 2.0 * c * d
        return f, g, 2.0 * c

    def second_derivative_bound(self) -> float:
        """Upper bound on |f''| over all cubic pieces (checked at the ends)."""
        h = np.diff(self.xs)
        ends = np.abs(2.0 * self.c2)
        ends2 = np.abs(2.0 * self.c2 + 6.0 * self.c3 * h)
        return float(max(ends.max(), ends2.max()))


def hermite_build(seq: SharpSequence) -> HermiteInterpolant:
    """Cubic interpolant of the sequence; asserts admissibility first."""
    m1, m2 = admissibility_margins(seq)
    if m1 < 0 or m2 < 0:
        raise ValueError(
            f"interpolation admissibility violated (margins {m1:.3e}, {m2:.3e})"
        )
    h = seq.s
    slope = (seq.f[1:] - seq.f[:-1]) / h
    c2 = (3.0 * slope - 2.0 * seq.g[:-1] - seq.g[1:]) / h
    c3 = (seq.g[:-1] + seq.g[1:] - 2.0 * slope) / h**2
    return HermiteInterpolant(
        xs=seq.x.copy(), fs=seq.f.copy(), gs=seq.g.copy(), c2=c2, c3=c3
    )


def as_problem(interp: HermiteInterpolant, name: str = "sharp") -> ProblemInstance:
    """Wrap a univariate interpolant as a solvable problem instance."""

    def fn(x):
        return interp.evaluate(x.item(0))[0]

    def grad(x):
        return np.array([interp.evaluate(x.item(0))[1]])

    def hess(x):
        return np.array([[interp.evaluate(x.item(0))[2]]])

    return ProblemInstance(name, 1, np.zeros(1), 0.0, fn, grad, hess)


@dataclass
class ReplayReport:
    trace: IterationTrace
    max_iterate_dev: float
    max_gradient_dev: float
    first_divergence: Optional[int]

    @property
    def matched(self) -> bool:
        return self.first_divergence is None


def _replay_rule(seq: SharpSequence) -> ScalingRule:
    if seq.kind == "thm31":
        return ScalingRule(
            "adagrad-like",
            mu=seq.params["mu"],
            sigma=seq.params["sigma"],
        )
    # The prescribed steps satisfy w_k * s_k = |g_k| with w_k = (k+1)^(omega - nu)
    # because |g_k| = (k+1)^-omega and s_k = (k+1)^-(2 omega - nu).  Running the
    # max rule with growth power omega - nu therefore reproduces them exactly,
    # and that power still sits inside the admitted band [nu, mu] of the class.
    power = seq.params["omega"] - seq.params["nu"]
    return ScalingRule(
        "diminishing-max",
        mu=power,
        nu=power,
        sigma=seq.params["sigma"],
    )


def replay(seq: SharpSequence, interp: HermiteInterpolant) -> ReplayReport:
    """Run the solver on the interpolant and compare against the prescription."""
    problem = as_problem(interp, name=f"sharp-{seq.kind}")
    cfg = Astr1Config(
        scaling=_replay_rule(seq),
        model="none",
        geometry="box",
        eps=1e-300,
        max_iter=seq.K + 1,
        record_vectors=True,
    )
    trace = astr1_run(problem, cfg)
    xs = np.array([xv[0] for xv in trace.x_hist])
    upto = min(len(xs), seq.K + 1)
    x_dev = np.abs(xs[:upto] - seq.x[:upto]) / (1.0 + np.abs(seq.x[:upto]))
    g_dev = np.abs(trace.normg[:upto] - np.abs(seq.g[:upto])) / np.abs(seq.g[:upto])
    bad = np.where((x_dev > REPLAY_RTOL) | (g_dev > REPLAY_RTOL))[0]
    return ReplayReport(
        trace=trace,
        max_iterate_dev=float(x_dev.max()),
        max_gradient_dev=float(g_dev.max()),
        first_divergence=int(bad[0]) if bad.size else None,
    )


def sequence_to_csv(seq: SharpSequence, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "x", "f", "g"])
        for k in range(seq.K + 1):
            wr.writerow([k, f"{seq.x[k]:.15g}", f"{seq.f[k]:.15g}", f"{seq.g[k]:.15g}"])
