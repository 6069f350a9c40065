import dataclasses
import math

import numpy as np
import pytest

from offo import bench, hessian
from offo.hessian import Bands, ExactModel, LbfgsModel, ZeroModel, _row_sum_bound, make_model
from offo.problems import CapabilityError, default_suite, make_problem
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
    # the norm is the certified row-sum bound: 168 against eigvalsh's 144.71
    p = make_problem("tridia", 10)
    m = make_model("exact").with_matrix(p.hess(p.x0))
    assert isinstance(m.H, np.ndarray)
    _assert_certified(m.H, m.norm_estimate())


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
    # the largest absolute row sum, 7, padded by (n + 1) eps
    m = make_model("exact").with_matrix(np.diag([3.0, -7.0, 1.0]))
    assert m.norm_estimate() == 7.0 * (1.0 + 4 * np.finfo(float).eps)


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


def _assert_certified(H, got):
    """got lies above max|eigenvalue| of H, and at most the row-sum bound's
    pad (terms per row + 1) eps, that is 2 (b + 1) eps for bands and (n + 1)
    eps for dense, plus the rounding that pad covers, above the largest
    absolute row sum, read from the dense form in long double."""
    terms = 2 * len(H) - 1 if isinstance(H, Bands) else H.shape[1]
    pad = (terms + 1) * np.finfo(float).eps
    assert got >= np.abs(np.linalg.eigvalsh(np.asarray(H))).max()
    ref = np.abs(np.asarray(H, dtype=np.longdouble)).sum(axis=1).max()
    assert ref <= got <= ref * (1 + 2 * pad)


@pytest.mark.parametrize("name, b", [("rosenbr", 1), ("broyden3d", 2), ("tridia", 1)])
@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_band_norm_matches_dense_eigensolve(name, b, n):
    p = make_problem(name, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        H = p.hess(p.x0 + 0.3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(n))
        assert isinstance(H, Bands) and len(H) == b + 1
        _assert_certified(H, _row_sum_bound(H))


@pytest.mark.parametrize("bands", [
    # indefinite, |lambda_min| dominant
    (np.linspace(-9.0, 2.0, 300), np.full(299, 1.5)),
    (-np.linspace(1.0, 5.0, 40), np.full(39, 0.5), np.full(38, -2.0)),
    # a spectrum symmetric about 0
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
    assert np.array_equal(np.asarray(Bands(bands)), H)
    _assert_certified(Bands(bands), _row_sum_bound(Bands(bands)))


def test_band_norm_of_zero_non_finite_and_wide_bands():
    assert _row_sum_bound(Bands((np.zeros(4), np.zeros(3), np.full(2, -0.0)))) == 0.0
    for bad in (np.nan, np.inf, -np.inf):
        band = np.ones(599)
        band[300] = bad
        assert math.isnan(_row_sum_bound(Bands((np.ones(600), band))))
    # powellsg's Hessian has three upper bands (b = 3)
    p = make_problem("powellsg", 600)
    rng = np.random.default_rng(4)
    for x in (p.x0, p.x0 + 0.3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n)):
        H = p.hess(x)
        assert len(H) == 4
        _assert_certified(H, hessian.spectral_norm(H))


@pytest.mark.parametrize("name, n, kappa_B", [
    # kappa_B between the norm 17763.7 and the bound 17988.0
    ("tridia", 1000, 17800.0), ("powellsg", 600, 100.0), ("woods", 1000, 5e3)])
def test_a_band_hessian_bound_past_kappa_is_capped(name, n, kappa_B):
    p = make_problem(name, n)
    H = p.hess(p.x0)
    m = ExactModel(kappa_B=kappa_B).with_matrix(H)
    assert isinstance(m.H, Bands) and m.raw_norm > kappa_B
    assert m.factor == kappa_B / m.raw_norm and m.norm_estimate() == kappa_B
    capped = m.matvec(np.eye(n))
    assert np.abs(np.linalg.eigvalsh(capped)).max() <= kappa_B


@pytest.mark.parametrize("name, n", sorted(default_suite()))
def test_dense_exact_bound_is_certified_on_the_desk_hessians(name, n):
    p = make_problem(name, n)
    rng = np.random.default_rng(n)
    for x in [p.x0] + [p.x0 + 0.3 * (1.0 + np.abs(p.x0)) * rng.standard_normal(n)
                       for _ in range(5)]:
        try:
            m = make_model("exact").with_matrix(p.hess(x))
        except CapabilityError:
            return
        assert isinstance(m.H, np.ndarray)
        _assert_certified(m.H, m.raw_norm)


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
    # past the crossover, bands of any width stay in band form
    p = make_problem("powellsg", 600)
    H = p.hess(p.x0)
    assert isinstance(H, Bands) and len(H) == 4
    m = make_model("exact").with_matrix(H)
    assert m.H is H
    v = np.random.default_rng(5).standard_normal(600)
    dense = np.asarray(H) @ v
    assert np.abs(m.matvec(v) - dense).max() <= 1e-13 * np.abs(dense).max()


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


def _assert_lbfgs_certified(m, B):
    """m's bound lies above max|eigenvalue| of its dense operator B, and at
    most its pad 2 (n + k + 2) eps above the same bound summed in long double
    from m's k compact-form columns."""
    assert m.raw_norm >= np.abs(np.linalg.eigvalsh(B)).max()
    W, D = m.W.astype(np.longdouble), m.D.astype(np.longdouble)
    t = D * (W * W).sum(axis=0)
    ref = max(m.scale + t[t > 0].sum(), -t[t < 0].sum() - m.scale, abs(m.scale))
    pad = 2 * (W.shape[0] + D.size + 2) * np.finfo(float).eps
    assert ref <= m.raw_norm <= ref * (1 + 2 * pad)


@pytest.mark.parametrize("n", [2, 6, 1000])
def test_lbfgs_norm_matches_dense_eigensolve(n):
    m = make_model("lbfgs3")
    pairs = _positive_pairs(np.random.default_rng(6), n, 3)
    for s, y in pairs:
        m = m.update(s, y)
    _assert_lbfgs_certified(m, dense_bfgs(m.scale, pairs, n))


@pytest.mark.parametrize("n", [2, 6, 1000])
def test_lbfgs_bound_is_certified_for_every_memory(n):
    rng = np.random.default_rng(n)
    pairs = _positive_pairs(rng, n, 4)
    for memory in range(5):
        m = LbfgsModel(memory=memory)
        for s, y in pairs:
            m = m.update(s, y)
        kept = pairs[len(pairs) - memory:] if memory else []
        _assert_lbfgs_certified(m, dense_bfgs(m.scale, kept, n))
        if not memory:
            assert m.raw_norm == abs(m.scale)
    # s^T B s underflows to 0 for s = 1e-170 e: that correction is skipped
    first, last = pairs[:2]
    e = np.eye(n)[-1]
    m = LbfgsModel(scale=float(last[0] @ last[0] / (last[1] @ last[0])),
                   pairs=(first, (1e-170 * e, 1e170 * e), last))
    assert m.W.shape == (n, 4)
    _assert_lbfgs_certified(m, dense_bfgs(m.scale, [first, last], n))


def test_lbfgs_bound_holds_for_an_indefinite_compact_form():
    # BFGS pairs keep B positive definite; set W and D by hand so that
    # B = I - 4 e_1 e_1^T, eigenvalues -3 and 1, and the negative side decides
    m = LbfgsModel()
    object.__setattr__(m, "W", np.array([[2.0], [0.0]]))
    object.__setattr__(m, "D", np.array([-1.0]))
    object.__setattr__(m, "raw_norm", m._raw_norm())
    _assert_lbfgs_certified(m, np.diag([-3.0, 1.0]))


@pytest.mark.parametrize("name", ["arglinb", "vardim"])
def test_capped_dense_hessian_is_within_kappa_without_slack(name):
    # the two desk Hessians whose norm at x0 exceeds the default kappa_B
    p = make_problem(name, 10)
    m = ExactModel().with_matrix(p.hess(p.x0))
    assert m.raw_norm > m.kappa_B and m.norm_estimate() == m.kappa_B
    assert np.abs(np.linalg.eigvalsh(m.matvec(np.eye(p.n)))).max() <= m.kappa_B


def test_curvature_runs_take_no_eigensolve_or_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve or QR on the run path")

    for name in ("eigvalsh", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ball = dataclasses.replace(bench.method_config("adagnorm", 1e-3, 100), model="exact")
    for name, n in default_suite():
        p = make_problem(name, n)
        for run in (lambda: bench.solve("adagH", p, 1e-3, 100),
                    lambda: bench.solve("adagbfgs3", p, 1e-3, 100),
                    lambda: astr1_run(p, ball)):
            try:
                assert run().steps > 0
            except CapabilityError:
                pass


def test_lbfgs_cap_certified_against_dense_operator():
    n = 6
    m = LbfgsModel(kappa_B=1.0)
    for s, y in _positive_pairs(np.random.default_rng(7), n, 3):
        m = m.update(s, 3.0 * y)
    assert m.raw_norm > 1.0
    capped = np.column_stack([m.matvec(e) for e in np.eye(n)])
    assert np.abs(np.linalg.eigvalsh(capped)).max() <= 1.0
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
    # each recorded norm is the certified bound, or kappa_B where it binds
    rows = np.array([np.abs(np.asarray(prob.hess(x), dtype=np.longdouble)).sum(axis=1).max()
                     for x in trace.x_hist[: trace.steps]])
    pad = (prob.n + 1) * np.finfo(float).eps
    assert np.all(truth <= trace.norm_B)
    assert np.all(trace.norm_B <= np.minimum(kappa_B, rows * (1 + 2 * pad)))
    assert params_for_run(prob, rule, trace).kappa_B >= truth.max()


def test_make_model_parsing():
    assert isinstance(make_model("none"), ZeroModel)
    assert isinstance(make_model("bb"), LbfgsModel)
    assert make_model("bb").memory == 0
    assert isinstance(make_model("lbfgs3"), LbfgsModel)
    assert make_model("lbfgs3").memory == 3
    for kind in ("sr1", "lbfgs", "lbfgs5", "lbfgs0"):
        with pytest.raises(ValueError, match=f"unknown model kind '{kind}'"):
            make_model(kind)
