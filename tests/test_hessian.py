import dataclasses
import math
import warnings

import numpy as np
import pytest

from offo import bench, hessian
from offo.hessian import (Bands, ExactModel, LbfgsModel, ZeroModel, _band_norm, _band_pivots,
                          _band_slope, make_model)
from offo.problems import make_problem
from offo.scaling import rule_from_name
from offo.solver import Astr1Config, astr1_run
from offo.theory import params_for_run


def dense_bfgs(scale, pairs, n):
    """Independent dense oracle for the direct BFGS recursion."""
    B = scale * np.eye(n)
    for s, y in pairs:
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (y @ s)
    return B


def test_zero_model_maps_everything_to_zero():
    m = make_model("none")
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(m.matvec(v), np.zeros(3))
    assert m.norm_estimate() == 0.0
    assert m.is_zero
    # the product goes through the shared cap, for a vector and an n x k block
    assert "matvec" not in vars(ZeroModel)
    for v in (v, np.arange(12.0).reshape(4, 3)):
        got = m.matvec(v)
        assert got.shape == v.shape and got.tobytes() == np.zeros_like(v).tobytes()


def test_bb_scale_from_secant_pair():
    m = make_model("bb").update(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert m.scale == pytest.approx(0.5)
    assert np.allclose(m.matvec(np.array([2.0, 4.0])), [1.0, 2.0])
    assert m.norm_estimate() == pytest.approx(0.5)


def test_bb_rejects_nonpositive_curvature_pair():
    m0 = make_model("bb")
    m = m0.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert m.scale == m0.scale
    assert m.rejected == 1


def test_bb_norm_capped_at_kappa():
    m = make_model("bb", kappa_B=10.0).update(np.array([1.0]), np.array([1e-14]))
    assert m.scale > 10.0
    assert m.norm_estimate() <= 10.0
    assert m.matvec(np.array([1.0]))[0] == pytest.approx(10.0)


def test_lbfgs_secant_equation_for_latest_pair():
    rng = np.random.default_rng(0)
    m = make_model("lbfgs3")
    s = rng.normal(size=5)
    y = s + 0.3 * rng.normal(size=5)
    if y @ s <= 0:
        y = s
    m = m.update(s, y)
    assert np.allclose(m.matvec(s), y, atol=1e-8 * (1 + np.linalg.norm(y)))


def test_lbfgs_matches_dense_oracle():
    rng = np.random.default_rng(1)
    n = 6
    for memory in range(5):
        m = LbfgsModel(memory=memory)
        pairs = []
        for _ in range(4):
            s = rng.normal(size=n)
            y = s + 0.2 * rng.normal(size=n)
            if y @ s <= 0:
                y = s.copy()
            m = m.update(s, y)
            pairs.append((s, y))
        B = dense_bfgs(m.scale, pairs[len(pairs) - memory:] if memory else [], n)
        V = rng.normal(size=(n, 5))
        for v in V.T:
            assert np.allclose(m.matvec(v), B @ v, atol=1e-9 * (1 + np.linalg.norm(B @ v)))
        # a block product rounds as a matrix-matrix product, not column by column
        columns = np.column_stack([m.matvec(v) for v in V.T])
        assert np.allclose(m.matvec(V), columns, rtol=0.0,
                           atol=1e-13 * (1 + np.abs(columns).max()))


def test_lbfgs_skips_pair_with_nonpositive_intermediate_curvature():
    # s^T B s underflows to 0 for s = 1e-170 e, while y^T s = 1 > 0: the pair
    # is dropped and the operator is the BFGS one of the other two pairs
    rng = np.random.default_rng(12)
    n = 6
    first, last = _positive_pairs(rng, n, 2)
    e = np.eye(n)[2]
    tiny = (1e-170 * e, 1e170 * e)
    m = LbfgsModel(scale=float(last[0] @ last[0] / (last[1] @ last[0])),
                   pairs=(first, tiny, last))
    assert m.W.shape == (n, 4)
    B = dense_bfgs(m.scale, [first, last], n)
    for v in rng.normal(size=(5, n)):
        assert np.allclose(m.matvec(v), B @ v, atol=1e-9 * (1 + np.linalg.norm(B @ v)))


def test_memory_zero_keeps_no_pair_and_its_product_is_the_scalar():
    # memory 0 is the bb model: s^T s / y^T s times I
    rng = np.random.default_rng(13)
    m = LbfgsModel(memory=0)
    for _ in range(4):
        s = rng.normal(size=5)
        m = m.update(s, 2.0 * s + 0.1 * rng.normal(size=5))
    assert m.pairs == () and m.W.size == 0 and m.factor == 1.0
    for v in rng.normal(size=(3, 5)):
        assert np.array_equal(m.matvec(v), m.scale * v)
    assert m.norm_estimate() == abs(m.scale)


def test_bb_update_equals_the_model_built_from_its_fields():
    rng = np.random.default_rng(5)
    m = LbfgsModel(kappa_B=50.0, memory=0)
    for c in (2.0, 1e3, 0.25):  # y = s / c gives the scale c; 1e3 is past the cap
        s = rng.normal(size=6)
        m = m.update(s, s / c)
        built = LbfgsModel(kappa_B=50.0, memory=0, scale=m.scale, rejected=m.rejected)
        assert m.scale == pytest.approx(c, rel=1e-15)
        for f in ("scale", "raw_norm", "factor", "rejected", "pairs", "memory", "kappa_B"):
            assert getattr(m, f) == getattr(built, f), f
        assert m.W.shape == built.W.shape and m.D.shape == built.D.shape
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.scale = 1.0


def test_lbfgs_evicts_oldest_beyond_memory():
    rng = np.random.default_rng(2)
    m = make_model("lbfgs3")
    kept = []
    for _ in range(4):
        s = rng.normal(size=4)
        y = s.copy()
        m = m.update(s, y)
        kept.append(s)
    assert len(m.pairs) == 3
    assert np.array_equal(m.pairs[0][0], kept[1])


def test_lbfgs_rejected_pair_leaves_operator_unchanged():
    rng = np.random.default_rng(3)
    m = make_model("lbfgs3").update(np.ones(3), np.ones(3))
    v = rng.normal(size=3)
    before = m.matvec(v)
    m2 = m.update(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))
    assert m2.rejected == 1
    assert np.array_equal(m2.matvec(v), before)


def test_symmetry_of_model_operators():
    rng = np.random.default_rng(4)
    n = 5
    m = make_model("lbfgs3")
    for _ in range(3):
        s = rng.normal(size=n)
        y = s + 0.1 * rng.normal(size=n)
        if y @ s <= 0:
            y = s.copy()
        m = m.update(s, y)
    for _ in range(10):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        a = u @ m.matvec(v)
        b = v @ m.matvec(u)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)


def test_matvec_linearity():
    rng = np.random.default_rng(5)
    m = make_model("lbfgs3").update(rng.normal(size=4), np.abs(rng.normal(size=4)) + 0.5)
    u, v = rng.normal(size=4), rng.normal(size=4)
    assert np.allclose(m.matvec(2.0 * u + 3.0 * v), 2.0 * m.matvec(u) + 3.0 * m.matvec(v))


def test_exact_model_norm_matches_dense_eigensolve():
    p = make_problem("tridia", 10)
    H = p.hess(p.x0)
    m = make_model("exact").with_matrix(H)
    lam = np.linalg.eigvalsh(H)[-1]
    assert m.norm_estimate() == pytest.approx(lam, rel=1e-12)


def test_exact_model_enforcement():
    H = np.diag([1.0, 200.0])
    m = ExactModel(kappa_B=100.0).with_matrix(H)
    assert m.norm_estimate() <= 100.0 + 1e-9
    assert np.allclose(m.matvec(np.array([0.0, 1.0])), [0.0, 100.0])


def test_exact_model_symmetrizes_noisy_matrix():
    H = np.array([[1.0, 2.0], [2.5, 1.0]])
    m = make_model("exact").with_matrix(H)
    assert np.allclose(m.H, 0.5 * (H + H.T))


def test_exact_model_update_drops_stale_hessian():
    H = np.diag([1.0, 2.0])
    m = make_model("exact").with_matrix(H)
    assert m.H is H  # already symmetric: bound without a copy
    m = m.update(np.ones(2), np.ones(2))
    assert m.H is None and m.norm_estimate() == 0.0
    with pytest.raises(RuntimeError):
        m.matvec(np.ones(2))


def test_exact_model_norm_is_largest_absolute_eigenvalue():
    m = make_model("exact").with_matrix(np.diag([3.0, -7.0, 1.0]))
    assert m.norm_estimate() == 7.0


def test_exact_model_cap_certified_at_large_n():
    p = make_problem("tridia", 1000)
    m = ExactModel(kappa_B=1000.0).with_matrix(p.hess(p.x0))
    capped = m.matvec(np.eye(p.n))
    assert np.abs(np.linalg.eigvalsh(capped)).max() <= 1000.0 * (1 + 1e-12)
    assert m.norm_estimate() == 1000.0


def test_exact_model_cap_certified_at_large_n_pentadiagonal():
    p = make_problem("broyden3d", 1000)
    H = p.hess(p.x0)
    m = ExactModel(kappa_B=50.0).with_matrix(H)
    assert isinstance(m.H, Bands) and m.raw_norm > 50.0
    capped = m.matvec(np.eye(p.n))
    assert np.abs(np.linalg.eigvalsh(capped)).max() <= 50.0 * (1 + 1e-12)
    assert m.norm_estimate() == 50.0


def bands_of(H, b):
    """The diagonal and b upper bands of a symmetric matrix, read independently."""
    H = np.asarray(H)
    assert np.count_nonzero(H) == sum(np.count_nonzero(np.diagonal(H, k)) * (1 + (k > 0))
                                      for k in range(b + 1))
    return Bands(np.diagonal(H, k).copy() for k in range(b + 1))


@pytest.mark.parametrize("name, b", [("rosenbr", 1), ("broyden3d", 2), ("tridia", 1)])
@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_band_norm_matches_dense_eigensolve(name, b, n):
    p = make_problem(name, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        H = p.hess(p.x0 + 0.3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(n))
        truth = np.abs(np.linalg.eigvalsh(H)).max()
        assert _band_norm(bands_of(H, min(b, n - 1))) == pytest.approx(truth, rel=1e-12)


@pytest.mark.parametrize("bands", [
    # indefinite, |lambda_min| dominant
    (np.linspace(-9.0, 2.0, 300), np.full(299, 1.5)),
    (-np.linspace(1.0, 5.0, 40), np.full(39, 0.5), np.full(38, -2.0)),
    # a spectrum symmetric about 0, so both ends are bisected
    (np.zeros(200), np.ones(199)),
    # diagonal (b = 0), its extremes of either sign
    (np.random.default_rng(1).standard_normal(50),),
    (np.array([-3.0, 0.0, 2.0]),),
    # split by a zero off-diagonal entry, and the zero matrix
    (np.array([1.0, -4.0, 2.0, 0.5]), np.array([1.0, 0.0, -1.0])),
    (np.zeros(4), np.zeros(3)),
])
def test_band_norm_on_indefinite_diagonal_and_split_matrices(bands):
    H = sum(np.diag(band, k) + (np.diag(band, -k) if k else 0) for k, band in enumerate(bands))
    truth = np.abs(np.linalg.eigvalsh(H)).max()
    got = _band_norm(Bands(bands))
    assert got >= truth * (1 - 1e-15) and got == pytest.approx(truth, rel=1e-12, abs=0.0)


def _dense(bands):
    return sum(np.diag(band, k) + (np.diag(band, -k) if k else 0) for k, band in enumerate(bands))


@pytest.mark.parametrize("b", [0, 1, 2])
def test_band_slope_matches_the_eigenvalue_sum_above_the_spectrum(b):
    rng = np.random.default_rng(20 + b)
    n = 60
    bands = Bands([rng.standard_normal(n)] + [rng.standard_normal(n - k) for k in range(1, b + 1)])
    lam = np.linalg.eigvalsh(_dense(bands))
    scale = np.abs(lam).max()
    # from 1e-4 up, the oracle's own error (eps / gap) is below the tolerance
    for gap in (1e-4, 1e-2, 1.0, 100.0):
        s = lam[-1] + gap * scale
        truth = (1.0 / (s - lam)).sum()
        assert _band_slope(bands, s) == pytest.approx(truth, rel=1e-10, abs=0.0)


def _jittered_hessians(name):
    p = make_problem(name, 1000)
    rng = np.random.default_rng(0)
    yield p.hess(p.x0)
    for _ in range(3):
        yield p.hess(p.x0 + 1e-3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n))


def _counting_sweeps(monkeypatch):
    """The list to which every inertia sweep appends its 'above the spectrum' flags."""
    sweeps = []

    def counting(bands, shifts):
        neg, pos = _band_pivots(bands, shifts)
        sweeps.append(neg)
        return neg, pos

    monkeypatch.setattr(hessian, "_band_pivots", counting)
    return sweeps


@pytest.mark.parametrize("name", ["broyden3d", "tridia"])
def test_band_norm_takes_at_most_two_sweeps_at_large_n(name, monkeypatch):
    sweeps = _counting_sweeps(monkeypatch)
    for H in _jittered_hessians(name):
        sweeps.clear()
        got = _band_norm(H)
        assert len(sweeps) <= 2
        truth = np.abs(np.linalg.eigvalsh(np.asarray(H))).max()
        assert got == pytest.approx(truth, rel=1e-12, abs=0.0)


def test_large_n_exact_model_runs_take_at_most_62_sweeps(monkeypatch):
    # adagH with the large-n benchmark's budget on its start points at seeds
    # 0-9: 30 norms (broyden3d's two per run, tridia's constant one once),
    # 2 sweeps each
    sweeps = _counting_sweeps(monkeypatch)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for name in ("broyden3d", "tridia"):
            p = make_problem(name, 1000)
            x0 = p.x0 + 1e-3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n)
            astr1_run(dataclasses.replace(p, x0=x0), bench.method_config("adagH", 1e-3, 2))
    assert len(sweeps) <= 62


@pytest.mark.parametrize("ritz", [
    # no residual: the first sweep's shifts all sit on the Ritz value
    lambda tmin, tmax, rmin, rmax: (tmin, tmax, 0.0, 0.0),
    # a top Ritz value far below the top eigenvalue
    lambda tmin, tmax, rmin, rmax: (tmin, 0.5 * tmax, rmin, rmax),
], ids=["no-residual", "low-ritz"])
@pytest.mark.parametrize("name", ["broyden3d", "tridia"])
def test_band_norm_certifies_when_the_placed_sweep_misses(name, ritz, monkeypatch):
    ritz_range = hessian._ritz_range
    monkeypatch.setattr(hessian, "_ritz_range", lambda bands: ritz(*ritz_range(bands)))
    sweeps = _counting_sweeps(monkeypatch)
    for H in _jittered_hessians(name):
        sweeps.clear()
        got = _band_norm(H)
        # no shift of the first sweep lies above the spectrum, so bisection
        # finishes: 3 sweeps, 9 on broyden3d's jitters with the low Ritz value
        assert not sweeps[0][1:-1].any() and len(sweeps) >= 3
        truth = np.abs(np.linalg.eigvalsh(np.asarray(H))).max()
        assert got >= truth * (1 - 1e-15) and got == pytest.approx(truth, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b", [1, 2])
def test_ritz_pairs_lie_within_their_residual_of_an_eigenvalue(b, monkeypatch):
    # the residual bound against eigvalsh, with a rounding slack of 64 eps
    # ||A|| for Lanczos without reorthogonalization (17 at most seen on 40
    # random bands); and r against the residual norm of the Ritz pair, formed
    # from the Lanczos vectors and the tridiagonal that _ritz_range hands to
    # its products and to eigh, since A Q = Q T + beta_k q_{k+1} e_k^T holds
    # up to rounding whether or not Q stays orthogonal (Paige 1976)
    seen = []
    matmul, eigh = Bands.__matmul__, np.linalg.eigh
    monkeypatch.setattr(Bands, "__matmul__", lambda self, v: seen.append(v) or matmul(self, v))
    monkeypatch.setattr(np.linalg, "eigh", lambda T, UPLO: seen.append(T) or eigh(T, UPLO))
    rng = np.random.default_rng(40 + b)
    for _ in range(5):
        n = int(rng.integers(512, 1501))
        bands = Bands([rng.standard_normal(n)] + [rng.standard_normal(n - k) for k in range(1, b + 1)])
        A = _dense(bands)
        lam = np.linalg.eigvalsh(A)
        slack = 64 * np.finfo(float).eps * np.abs(lam).max()
        seen.clear()
        tmin, tmax, rmin, rmax = hessian._ritz_range(bands)
        theta, Y = eigh(seen.pop(), UPLO="U")
        U = np.array(seen).T @ Y[:, [0, -1]]
        assert [tmin, tmax] == [theta[0], theta[-1]]
        for t, r, u in ((tmin, rmin, U[:, 0]), (tmax, rmax, U[:, 1])):
            assert 0.0 <= r < math.inf
            assert np.abs(lam - t).min() <= r + slack
            assert abs(np.linalg.norm(A @ u - t * u) - r) <= slack


@pytest.mark.parametrize("estimate", [
    lambda lo, hi, tol: np.nan,
    lambda lo, hi, tol: hi + 1e6 * (hi - lo),
    lambda lo, hi, tol: lo - 1e6 * (hi - lo),
    lambda lo, hi, tol: hi,
])
def test_band_norm_bisects_past_a_useless_newton_estimate(estimate, monkeypatch):
    monkeypatch.setattr(hessian, "_newton_top", lambda bands, lo, hi, tol: estimate(lo, hi, tol))
    for n in (512, 600):
        p = make_problem("tridia", n)
        H = p.hess(p.x0)
        truth = np.linalg.eigvalsh(np.asarray(H))[-1]
        got = _band_norm(H)
        assert truth - 8 * np.spacing(truth) <= got <= truth + 8 * np.spacing(truth)
    for H in _jittered_hessians("broyden3d"):
        truth = np.abs(np.linalg.eigvalsh(np.asarray(H))).max()
        assert _band_norm(H) == pytest.approx(truth, rel=1e-12, abs=0.0)


#: float.hex of _band_norm at n = 1000, at x0 and at a seed-0 jitter of it, so
#: that a rounding change in the Newton slope that moves a certified norm shows.
#: broyden3d's jitter is the large-n benchmark's seed-0 start point (its
#: generator jitters broyden3d first) and tridia's Hessian is constant, so they
#: pin the large-n Hessians too.
_PINNED_NORMS = {
    "broyden3d": ("0x1.9fffb5334e963p+7", "0x1.a02e517b9cd6ep+7"),
    "tridia": ("0x1.158effbd26873p+14", "0x1.158effbd26873p+14"),
    "rosenbr": ("0x1.456d8aeff2006p+11", "0x1.45bb0ae1eb079p+11"),
    "engval1": ("0x1.7fffd69388811p+7", "0x1.805291c85dbe0p+7"),
    "woods": ("0x1.621cc6e2f0bb5p+13", "0x1.64c44ef77b92dp+13"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_NORMS))
def test_band_norm_keeps_its_bits(name):
    p = make_problem(name, 1000)
    at_x0, jittered = _PINNED_NORMS[name]
    assert _band_norm(p.hess(p.x0)).hex() == at_x0
    x = p.x0 + 1e-3 * (1.0 + np.abs(p.x0)) * np.random.default_rng(0).standard_normal(p.n)
    assert _band_norm(p.hess(x)).hex() == jittered


def test_band_slope_is_nan_on_a_zero_pivot_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # diagonal: s equal to an entry
        assert np.isnan(_band_slope(Bands((np.array([-3.0, 0.0, 2.0]),)), 2.0))
        # [[0, 1], [1, 0]]: a zero first pivot at s = 0, a zero last one at s = 1
        assert np.isnan(_band_slope(Bands((np.zeros(2), np.ones(1))), 0.0))
        assert np.isnan(_band_slope(Bands((np.zeros(2), np.ones(1))), 1.0))
        # pentadiagonal, split by zero first-band entries: a zero middle pivot at s = 1
        bands = Bands((np.array([2.0, 1.0, 3.0]), np.array([0.0, 0.0]), np.array([1.0])))
        assert np.isnan(_band_slope(bands, 1.0))
        # a split tridiagonal above its spectrum: zero off-diagonal entries are no zero pivots
        bands = Bands((np.array([1.0, -4.0, 2.0, 0.5]), np.array([1.0, 0.0, -1.0])))
        lam = np.linalg.eigvalsh(_dense(bands))
        assert _band_slope(bands, 5.0) == pytest.approx((1.0 / (5.0 - lam)).sum(), rel=1e-12)


def _trace_fields(tr):
    return {f.name: (v.tobytes() if isinstance(v, np.ndarray) else repr(v))
            for f in dataclasses.fields(tr) for v in [getattr(tr, f.name)]}


@pytest.mark.parametrize("name, norms", [("tridia", 1), ("broyden3d", 2)])
def test_an_equal_band_hessian_reuses_the_norm(name, norms, monkeypatch):
    calls = []

    def counting(bands):
        calls.append(bands)
        return _band_norm(bands)

    monkeypatch.setattr(hessian, "_band_norm", counting)
    p = make_problem(name, 1000)
    reused = bench.solve("adagH", p, 1e-12, 2)
    assert reused.steps == 2 and len(calls) == norms
    monkeypatch.setattr(hessian, "_same_matrix", lambda a, b: False)
    calls.clear()
    fresh = bench.solve("adagH", p, 1e-12, 2)
    assert len(calls) == 2
    assert _trace_fields(reused) == _trace_fields(fresh)


@pytest.mark.parametrize("name, n, norms", [("hilbert", 10, 1), ("arglina", 10, 1),
                                            ("arglinb", 10, 1), ("rosenbr", 10, 6)])
def test_an_equal_dense_hessian_reuses_the_norm(name, n, norms, monkeypatch):
    # a quadratic's constant Hessian takes one eigvalsh per run, not one per iterate
    calls = []
    spectral = hessian.spectral_norm

    def counting(H):
        calls.append(H)
        return spectral(H)

    monkeypatch.setattr(hessian, "spectral_norm", counting)
    p = make_problem(name, n)
    reused = bench.solve("adagH", p, 1e-12, 6)
    assert reused.steps == 6 and len(calls) == norms
    monkeypatch.setattr(hessian, "_same_matrix", lambda a, b: False)
    calls.clear()
    fresh = bench.solve("adagH", p, 1e-12, 6)
    assert len(calls) == 6
    assert _trace_fields(reused) == _trace_fields(fresh)


def test_a_dense_hessian_is_kept_across_update():
    H = np.diag([1.0, 2.0])
    m = make_model("exact").with_matrix(H).update(np.ones(2), np.ones(2))
    assert m.H is None and m._kept[0] is H and m._kept[1] == 2.0
    # the kept matrix is compared in its own form, bit for bit
    assert hessian._same_matrix(H, H.copy())
    assert not hessian._same_matrix(H, np.diag([1.0, -2.0]))
    assert not hessian._same_matrix(H, Bands([np.array([1.0, 2.0])]))
    assert not hessian._same_matrix(np.zeros((2, 2)), np.full((2, 2), -0.0))


def reference_pivots(bands, shifts):
    """Every pivot of the unpivoted LDL^T of A - s I, one column per shift: the
    whole-matrix loop that ``_band_pivots`` reduces block by block."""
    D = np.subtract.outer(bands[0], shifts)
    t = np.empty_like(shifts)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if len(bands) == 2:
            for e2, prev, row in zip((bands[1] * bands[1]).tolist(), D, D[1:]):
                np.divide(e2, prev, out=t)
                row -= t
        elif len(bands) == 3:
            a1, a2 = bands[1].tolist(), bands[2]
            u = np.empty_like(shifts)
            l = a1[0] / D[0]
            D[1] -= a1[0] * l
            for e2, m, c, prev2, prev, row in zip((a2 * a2).tolist(), (-a2).tolist(), a1[1:],
                                                  D, D[1:], D[2:]):
                np.divide(e2, prev2, out=t)
                row -= t
                np.multiply(l, m, out=u)
                u += c
                np.divide(u, prev, out=l)
                u *= l
                row -= u
    return D


def _assert_flags_match_reference(bands, shifts):
    piv = reference_pivots(bands, shifts)
    neg, pos = _band_pivots(bands, shifts)
    assert neg.tolist() == (piv < 0).all(axis=0).tolist()
    assert pos.tolist() == (piv > 0).all(axis=0).tolist()
    return piv, neg, pos


def test_band_pivots_on_exact_zero_pivots():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1; shift 0 makes the first pivot
    # zero, shift 1 the last one; neither shift is above the spectrum
    piv, neg, _ = _assert_flags_match_reference(Bands((np.zeros(2), np.ones(1))),
                                                np.array([0.0, 1.0, 1.5]))
    assert piv[0, 0] == 0.0 and piv[1, 1] == 0.0
    assert neg.tolist() == [False, False, True]
    # a zero pivot before a zero off-diagonal entry gives 0/0 = NaN, which
    # must not read as negative either
    bands = Bands((np.array([2.0, 1.0, 3.0]), np.array([0.0, 0.0]), np.array([1.0])))
    # eigenvalues 1, 1.38, 3.62
    piv, neg, _ = _assert_flags_match_reference(bands, np.array([2.0, 4.0]))
    assert np.isnan(piv[2, 0])
    assert neg.tolist() == [False, True]


@pytest.mark.parametrize("rows", [1, 2, 7, None])
@pytest.mark.parametrize("b", [1, 2])
def test_band_pivot_flags_match_the_full_pivot_loop_across_blocks(b, rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(hessian, "_PIVOT_ROWS", rows)
    n = 2 * hessian._PIVOT_ROWS + 3 if rows else hessian._PIVOT_ROWS + 37
    rng = np.random.default_rng(b)
    bands = Bands([rng.standard_normal(n)] + [rng.standard_normal(n - k) for k in range(1, b + 1)])
    bound = sum(np.abs(band).max() for band in bands) * 2.0
    # a NaN shift, and a shift equal to the first diagonal entry: a zero pivot at row 0
    shifts = np.concatenate((np.linspace(-bound, bound, 61), [np.nan, bands[0][0]]))
    piv, neg, pos = _assert_flags_match_reference(bands, shifts)
    assert piv[0, -1] == 0.0 and not neg[-1] and not pos[-1]
    assert not neg[-2] and not pos[-2]
    assert neg[-3] and pos[0]


@pytest.mark.parametrize("name", ["rosenbr", "broyden3d", "tridia", "woods"])
def test_band_form_at_large_n(name):
    p = make_problem(name, 1000)
    m = make_model("exact").with_matrix(p.hess(p.x0))
    assert isinstance(m.H, Bands) and len(m.H) == (3 if name in ("broyden3d", "woods") else 2)
    H = np.asarray(m.H)
    rng = np.random.default_rng(2)
    for v in (rng.standard_normal(1000), rng.standard_normal((1000, 7)), np.eye(1000)):
        dense = H @ v
        assert np.abs(m.matvec(v) - dense).max() <= 1e-13 * np.abs(dense).max()
    assert m.raw_norm >= np.abs(np.linalg.eigvalsh(H)).max() * (1 - 1e-15)
    m = m.update(np.ones(1000), np.ones(1000))
    assert m.H is None and m.norm_estimate() == 0.0


@pytest.mark.parametrize("name", ["tridia", "broyden3d", "woods"])
def test_large_banded_problem_runs_without_a_dense_matrix(name, monkeypatch):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a band matrix was made dense")

    monkeypatch.setattr(Bands, "__array__", refuse)
    p = make_problem(name, 1000)
    assert np.isfinite(p.grad(p.x0)).all()
    tr = bench.solve("adagH", p, 1e-12, 2)
    assert tr.status == "max_iter" and tr.steps == 2 and tr.h_evals == 2


def test_band_form_symmetrizes_and_dense_hessians_stay_dense():
    rng = np.random.default_rng(3)
    d, e = rng.standard_normal(600), rng.standard_normal(599)
    # a dense tridiagonal matrix is not read back into bands
    H = np.diag(d) + np.diag(e, 1) + np.diag(e + 1.0, -1)
    m = make_model("exact").with_matrix(H)
    assert isinstance(m.H, np.ndarray) and np.array_equal(m.H, 0.5 * (H + H.T))
    for name in ("arwhead", "hilbert"):
        p = make_problem(name, 600)
        m = make_model("exact").with_matrix(p.hess(p.x0))
        assert isinstance(m.H, np.ndarray)
    # below the crossover a banded Hessian is made dense, so its runs are unchanged
    p = make_problem("broyden3d", 500)
    m = make_model("exact").with_matrix(p.hess(p.x0))
    assert isinstance(m.H, np.ndarray) and m.H.tobytes() == np.asarray(p.hess(p.x0)).tobytes()
    # past the crossover, bands wider than pentadiagonal are made dense too
    p = make_problem("powellsg", 600)
    H = p.hess(p.x0)
    assert isinstance(H, Bands) and len(H) == 4
    m = make_model("exact").with_matrix(H)
    assert isinstance(m.H, np.ndarray) and m.H.tobytes() == np.asarray(H).tobytes()


@pytest.mark.parametrize("name", ["broyden3d", "tridia"])
def test_large_n_exact_model_runs_keep_the_step_contract(name):
    p = make_problem(name, 1000)
    spec = bench.METHODS["adagH"]
    cfg = Astr1Config(scaling=rule_from_name(spec.scaling), model=spec.model,
                      geometry=spec.geometry, eps=1e-3, max_iter=4)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x0 = p.x0 + 1e-3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n)
        tr = astr1_run(dataclasses.replace(p, x0=x0), cfg)
        assert tr.steps == 4
        assert np.max(tr.sbound_resid) <= 1e-14
        assert np.all(tr.gcp_resid <= 1e-12 * (1.0 + np.abs(tr.q_cauchy)))


def _positive_pairs(rng, n, count):
    pairs = []
    for _ in range(count):
        s = rng.normal(size=n)
        y = s + 0.2 * rng.normal(size=n)
        if y @ s <= 0:
            y = s.copy()
        pairs.append((s, y))
    return pairs


@pytest.mark.parametrize("n", [2, 6, 1000])
def test_lbfgs_norm_matches_dense_eigensolve(n):
    m = make_model("lbfgs3")
    pairs = _positive_pairs(np.random.default_rng(6), n, 3)
    for s, y in pairs:
        m = m.update(s, y)
    dense = np.abs(np.linalg.eigvalsh(dense_bfgs(m.scale, pairs, n))).max()
    assert m.norm_estimate() == pytest.approx(dense, rel=1e-12)


def test_lbfgs_cap_certified_against_dense_operator():
    n = 6
    m = LbfgsModel(kappa_B=1.0)
    for s, y in _positive_pairs(np.random.default_rng(7), n, 3):
        m = m.update(s, 3.0 * y)
    assert m.raw_norm > 1.0
    capped = np.column_stack([m.matvec(e) for e in np.eye(n)])
    assert np.abs(np.linalg.eigvalsh(capped)).max() <= 1.0 + 1e-12
    assert m.norm_estimate() == 1.0


@pytest.mark.parametrize("kappa_B", [1e5, 50.0])
def test_exact_model_trace_norms_are_exact(kappa_B):
    prob = make_problem("tridia", 10)
    rule = rule_from_name("adagrad")
    cfg = Astr1Config(scaling=rule, model="exact", kappa_B=kappa_B, eps=1e-3,
                      max_iter=50, record_vectors=True)
    trace = astr1_run(prob, cfg)
    assert trace.steps > 0
    truth = np.array([
        min(kappa_B, np.abs(np.linalg.eigvalsh(prob.hess(x))).max())
        for x in trace.x_hist[: trace.steps]
    ])
    assert np.allclose(trace.norm_B, truth, rtol=1e-12, atol=0.0)
    assert params_for_run(prob, rule, cfg.tau, trace).kappa_B >= truth.max()


def test_make_model_parsing():
    assert isinstance(make_model("none"), ZeroModel)
    assert isinstance(make_model("bb"), LbfgsModel)
    assert make_model("bb").memory == 0
    assert isinstance(make_model("lbfgs3"), LbfgsModel)
    assert make_model("lbfgs3").memory == 3
    for kind in ("sr1", "lbfgs", "lbfgs5", "lbfgs0"):
        with pytest.raises(ValueError, match=f"unknown model kind '{kind}'"):
            make_model(kind)
