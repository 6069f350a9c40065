import numpy as np
import pytest

from offo.hessian import BBDiagModel, ExactModel, LbfgsModel, ZeroModel, make_model
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
    m = BBDiagModel(kappa_B=10.0).update(np.array([1.0]), np.array([1e-14]))
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
    m = make_model("lbfgs3")
    pairs = []
    for _ in range(3):
        s = rng.normal(size=n)
        y = s + 0.2 * rng.normal(size=n)
        if y @ s <= 0:
            y = s.copy()
        m = m.update(s, y)
        pairs.append((s, y))
    B = dense_bfgs(m.scale, pairs, n)
    for _ in range(5):
        v = rng.normal(size=n)
        assert np.allclose(m.matvec(v), B @ v, atol=1e-9 * (1 + np.linalg.norm(B @ v)))


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
    assert m.norm_estimate() == pytest.approx(lam, rel=1e-6)


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
    assert isinstance(make_model("bb"), BBDiagModel)
    assert isinstance(make_model("lbfgs5"), LbfgsModel)
    assert make_model("lbfgs5").memory == 5
    assert make_model("lbfgs").memory == 3
    with pytest.raises(ValueError):
        make_model("sr1")
