import copy
import math
import pickle

import numpy as np
import pytest
import scipy.special

from offo.sharpness import (
    admissibility_margins,
    build_sequence,
    hermite_build,
    replay,
    sequence_to_csv,
    zeta,
)

OMEGA = 4.0 / 9.0 + 0.01
NU = 1.0 / 9.0


def test_zeta_against_scipy():
    for s in (1.02, 1.5, 2.0, 3.0, 10.0):
        assert zeta(s) == pytest.approx(float(scipy.special.zeta(s)), rel=1e-12)


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1.0)


def test_thm31_first_step_hand_value():
    seq = build_sequence("thm31", 5, mu=0.5, sigma=0.01)
    assert seq.s[0] == pytest.approx(2.0 / math.sqrt(4.01), abs=1e-12)
    assert seq.s[0] == pytest.approx(0.998752, abs=1e-6)


def test_thm31_gradients_and_f0():
    seq = build_sequence("thm31", 10, mu=0.5, eta=0.01, sigma=0.01)
    assert seq.g[0] == -2.0
    ks = np.arange(1, 11)
    assert np.allclose(seq.g[1:], -1.0 / ks**0.51)
    assert seq.f0 == pytest.approx(4.0 / 4.01**0.5 + zeta(1.02), rel=1e-12)


def test_thm31_exact_first_order_bookkeeping():
    # f_{k+1} - f_k - g_k s_k vanishes by construction (up to summation rounding)
    seq = build_sequence("thm31", 50)
    df = seq.f[1:] - seq.f[:-1] - seq.g[:-1] * seq.s
    assert np.max(np.abs(df)) <= 1e-13


def test_thm31_f_stays_in_band():
    seq = build_sequence("thm31", 2000)
    assert np.all(seq.f >= 0.0)
    assert np.all(seq.f <= seq.f0)
    assert np.all(np.diff(seq.f) < 0)


def test_thm31_kappa_f_value():
    seq = build_sequence("thm31", 5, mu=0.5, sigma=0.01)
    assert seq.kappa_f == pytest.approx(max(1.5 * 5.01**0.5, seq.f0, 2.0), rel=1e-12)


def test_thm41_gradient_difference_ratio_bounded_by_omega():
    seq = build_sequence("thm41", 200, nu=NU, omega=OMEGA)
    ratios = np.abs(np.diff(seq.g)) / seq.s
    assert np.all(ratios <= OMEGA + 1e-15)


def test_thm41_f_band():
    seq = build_sequence("thm41", 2000, nu=NU, omega=OMEGA)
    assert np.all(seq.f > 0.0)
    assert np.all(seq.f <= zeta(2 * OMEGA + NU) + 1e-12)


def test_thm41_steps_below_one():
    seq = build_sequence("thm41", 100, nu=NU, omega=OMEGA)
    assert np.all(seq.s < 1.0 + 1e-15)


def test_parameter_domains():
    with pytest.raises(ValueError):
        build_sequence("thm31", 10, mu=1.5)
    with pytest.raises(ValueError):
        build_sequence("thm31", 10, eta=0.0)
    with pytest.raises(ValueError):
        build_sequence("thm41", 10, nu=NU, omega=0.5 * (1 - NU))  # boundary excluded
    with pytest.raises(ValueError):
        build_sequence("nope", 10)


def test_admissibility_margins_positive():
    for kind, kw in (("thm31", {}), ("thm41", {"nu": NU, "omega": OMEGA})):
        seq = build_sequence(kind, 500, **kw)
        m1, m2 = admissibility_margins(seq)
        assert m1 >= 0.0 and m2 >= 0.0, kind


def test_hermite_reproduces_breakpoints_exactly():
    seq = build_sequence("thm31", 40)
    interp = hermite_build(seq)
    for k in range(seq.K + 1):
        f, g, _ = interp.evaluate(seq.x[k])
        assert f == seq.f[k]
        assert g == seq.g[k]


def test_hermite_c1_across_breakpoints():
    seq = build_sequence("thm41", 40, nu=NU, omega=OMEGA)
    interp = hermite_build(seq)
    for k in range(1, seq.K):
        x = seq.x[k]
        _, g_left, _ = interp.evaluate(x - 1e-13)
        _, g_right, _ = interp.evaluate(x)
        assert abs(g_left - g_right) <= 1e-10 * (1 + abs(g_right))


def test_hermite_second_derivative_bounded():
    seq = build_sequence("thm31", 300)
    interp = hermite_build(seq)
    bound = interp.second_derivative_bound()
    assert np.isfinite(bound)
    # curvature of cubic value/slope interpolation stays within a small
    # multiple of the admissibility constant
    assert bound <= 6.0 * seq.kappa_f
    mids = 0.5 * (seq.x[:-1] + seq.x[1:])
    for x in mids[::13]:
        _, _, H = interp.evaluate(float(x))
        assert abs(H) <= bound + 1e-12


def reference_evaluate(interp, t):
    """The interpolant evaluated on numpy scalars, as before the Python-float lookup."""
    xs, fs, gs = interp.xs, interp.fs, interp.gs
    K = len(xs) - 1
    if t < xs[0]:
        d = t - xs[0]
        c = interp.c2[0]
        return interp._quad(fs[0], gs[0], c, d)
    if t >= xs[K]:
        d = t - xs[K]
        h = xs[K] - xs[K - 1]
        c_end = interp.c2[K - 1] + 3.0 * interp.c3[K - 1] * h
        return interp._quad(fs[K], gs[K], c_end, d)
    i = int(np.searchsorted(xs, t, side="right")) - 1
    d = t - xs[i]
    f = fs[i] + d * (gs[i] + d * (interp.c2[i] + d * interp.c3[i]))
    g = gs[i] + d * (2.0 * interp.c2[i] + 3.0 * interp.c3[i] * d)
    H = 2.0 * interp.c2[i] + 6.0 * interp.c3[i] * d
    return f, g, H


@pytest.mark.parametrize("kind", ["thm31", "thm41"])
def test_hermite_evaluate_equals_the_numpy_scalar_reference_bitwise(kind):
    seq = build_sequence(kind, 300)
    interp = hermite_build(seq)
    x = seq.x
    points = np.concatenate((
        x,
        np.nextafter(x, -np.inf),
        np.nextafter(x, np.inf),
        0.5 * (x[:-1] + x[1:]),
        x[0] - np.array([1e-300, 1e-9, 0.5, 7.0]),
        x[-1] + np.array([1e-300, 1e-9, 0.5, 7.0]),
    ))
    for t in points.tolist():
        got = interp.evaluate(t)
        ref = reference_evaluate(interp, t)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in ref], t


def test_hermite_interpolant_pickles_and_copies():
    interp = hermite_build(build_sequence("thm31", 20))
    t = float(interp.xs[7] + 0.25 * (interp.xs[8] - interp.xs[7]))
    for other in (pickle.loads(pickle.dumps(interp)), copy.deepcopy(interp), copy.copy(interp)):
        assert other.xs.tobytes() == interp.xs.tobytes()
        assert other.evaluate(t) == interp.evaluate(t)


def test_hermite_extension_is_c1():
    seq = build_sequence("thm31", 10)
    interp = hermite_build(seq)
    f_end, g_end, _ = interp.evaluate(seq.x[-1])
    f_out, g_out, _ = interp.evaluate(seq.x[-1] + 1e-9)
    assert f_out == pytest.approx(f_end, abs=1e-8)
    assert g_out == pytest.approx(g_end, abs=1e-8)
    f_lo, g_lo, _ = interp.evaluate(seq.x[0] - 1e-9)
    assert f_lo == pytest.approx(seq.f[0], abs=1e-8)


def test_interval_lipschitz_within_pieces():
    seq = build_sequence("thm31", 100)
    interp = hermite_build(seq)
    rng = np.random.default_rng(0)
    bound = interp.second_derivative_bound()
    for k in rng.integers(0, seq.K, 20):
        a, b = seq.x[k], seq.x[k + 1]
        u, v = rng.uniform(a, b, 2)
        _, gu, _ = interp.evaluate(float(u))
        _, gv, _ = interp.evaluate(float(v))
        assert abs(gu - gv) <= bound * abs(u - v) + 1e-12


def test_replay_single_step():
    seq = build_sequence("thm31", 1)
    rep = replay(seq, hermite_build(seq))
    assert rep.matched
    assert rep.trace.x_hist[1][0] == pytest.approx(seq.s[0], rel=1e-12)


def test_replay_thm31_matches_prescription():
    seq = build_sequence("thm31", 100, mu=0.5, eta=0.01, sigma=0.01)
    rep = replay(seq, hermite_build(seq))
    assert rep.matched
    assert rep.max_iterate_dev <= 1e-8
    ks = np.arange(1, 101)
    decay = rep.trace.normg[1:101] * ks**0.51
    assert np.max(np.abs(decay - 1.0)) <= 1e-8


def test_replay_thm41_matches_prescription():
    seq = build_sequence("thm41", 100, nu=NU, omega=OMEGA)
    rep = replay(seq, hermite_build(seq))
    assert rep.matched
    ks = np.arange(0, 101)
    decay = rep.trace.normg[:101] * (ks + 1.0) ** OMEGA
    assert np.max(np.abs(decay - 1.0)) <= 1e-8


def test_replay_reports_divergence_index():
    seq = build_sequence("thm31", 30)
    interp = hermite_build(seq)
    seq.x[17] += 1e-3  # corrupt the prescription
    rep = replay(seq, interp)
    assert not rep.matched
    assert rep.first_divergence == 17


def test_sequence_csv(tmp_path):
    seq = build_sequence("thm41", 5, nu=NU, omega=OMEGA)
    out = tmp_path / "seq.csv"
    sequence_to_csv(seq, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,x,f,g"
    assert len(lines) == seq.K + 2
