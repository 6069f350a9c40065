import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from offo import hessian, problems, sharpness
from offo.problems import (
    CapabilityError,
    CatalogError,
    DimensionError,
    NoisyOracle,
    NonFiniteError,
    apply_noise,
    catalog,
    default_suite,
    make_problem,
)

FD_STEP = 1e-6


def fd_gradient(problem, x):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        g[i] = (problem.value(x + e) - problem.value(x - e)) / (2 * FD_STEP)
    return g


def fd_hessian(problem, x):
    H = np.zeros((len(x), len(x)))
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = FD_STEP
        H[:, j] = (problem.grad(x + e) - problem.grad(x - e)) / (2 * FD_STEP)
    return H


def test_catalog_contains_required_families():
    required = {
        "rosenbr", "broyden3d", "broydenbd", "arwhead", "tridia", "woods",
        "powellsg", "engval1", "beale", "box3", "cube", "vardim", "nondquar",
        "nlminsurf", "dixmaana", "helix",
    }
    assert required <= set(catalog())


def test_rosenbrock_value_at_start():
    p = make_problem("rosenbr", 2)
    assert p.value(p.x0) == pytest.approx(24.2, abs=1e-12)


def test_rosenbrock_gradient_at_minimizer():
    p = make_problem("rosenbr", 2)
    assert np.allclose(p.grad(np.array([1.0, 1.0])), 0.0)


def test_rosenbrock_hessian_positive_at_minimizer():
    p = make_problem("rosenbr", 2)
    eig = np.linalg.eigvalsh(p.hess(np.array([1.0, 1.0])))
    assert np.all(eig > 0)


def test_broyden3d_dimension():
    assert make_problem("broyden3d", 10).n == 10


def test_default_dimension_used_when_omitted():
    assert make_problem("woods").n == 12


def test_unknown_name_raises():
    with pytest.raises(CatalogError):
        make_problem("nosuchproblem", 4)


@pytest.mark.parametrize("name,n", [("beale", 3), ("woods", 10), ("nlminsurf", 12), ("dixmaana", 10)])
def test_invalid_dimension_raises(name, n):
    with pytest.raises(DimensionError):
        make_problem(name, n)


@pytest.mark.parametrize("name,n", default_suite())
def test_gradient_matches_finite_differences(name, n):
    p = make_problem(name, n)
    rng = np.random.default_rng(7)
    points = [p.x0] + [p.x0 + rng.uniform(-0.5, 0.5, n) for _ in range(10)]
    for x in points:
        g = p.grad(x)
        err = np.linalg.norm(g - fd_gradient(p, x))
        assert err <= 1e-5 * (1.0 + np.linalg.norm(g)), f"{name} at {x}"


@pytest.mark.parametrize("name,n", [(nm, d) for nm, d in default_suite()
                                    if make_problem(nm, d).hess_fn is not None])
def test_hessian_matches_finite_differences(name, n):
    p = make_problem(name, n)
    rng = np.random.default_rng(11)
    for x in (p.x0, p.x0 + rng.uniform(-0.5, 0.5, n)):
        H = np.asarray(p.hess(x))
        assert np.allclose(H, H.T)
        err = np.linalg.norm(H - fd_hessian(p, x))
        assert err <= 1e-4 * (1.0 + np.linalg.norm(H)), name


def test_tridia_gradient_vanishes_at_minimizer():
    p = make_problem("tridia", 10)
    H = p.hess(p.x0)
    x_star = p.x0 - np.linalg.solve(H, p.grad(p.x0))
    assert np.linalg.norm(p.grad(x_star)) <= 1e-8


def test_lower_bound_holds_at_random_points():
    rng = np.random.default_rng(3)
    for name, n in default_suite():
        p = make_problem(name, n)
        for _ in range(5):
            x = p.x0 + rng.uniform(-1.0, 1.0, n)
            assert p.value(x) >= p.f_low - 1e-12, name


def test_quadratics_have_exact_lipschitz():
    for name in ("tridia", "hilbert", "arglina", "arglinb"):
        p = make_problem(name, 10)
        assert p.lipschitz_exact
        H = p.hess(p.x0)
        assert p.lipschitz_hint == pytest.approx(np.linalg.eigvalsh(H)[-1], rel=1e-12)


def test_exact_lipschitz_is_the_spectral_norm():
    # an indefinite quadratic's gradient is Lipschitz with constant ||A||_2,
    # not with its largest eigenvalue
    A = np.diag([1.0, -3.0])
    p = problems.ProblemInstance("indefinite", 2, np.ones(2), -np.inf, lambda x: 0.5 * x @ A @ x,
                                 lambda x: A @ x, lambda x: A, lipschitz_exact=True)
    assert p.lipschitz_hint == 3.0


def test_lipschitz_hint_of_a_nonquadratic_is_a_capability_error():
    p = make_problem("rosenbr", 4)
    assert not p.lipschitz_exact
    with pytest.raises(CapabilityError, match="no exact Lipschitz constant"):
        p.lipschitz_hint


def test_overflow_raises_nonfinite():
    p = make_problem("box3", 3)
    with pytest.raises(NonFiniteError):
        p.value(np.array([-1e6, 0.0, 0.0]))


def test_problem_json_dump():
    p = make_problem("beale", 2)
    d = json.loads(p.to_json())
    assert d["name"] == "beale" and d["n"] == 2
    assert d["x0"] == [1.0, 1.0] and d["f_low"] == 0.0


@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_broyden3d_hessian_equals_dense_formula(n):
    p = make_problem("broyden3d", n)

    def dense(x):
        J = np.zeros((n, n))
        np.fill_diagonal(J, 3.0 - 4.0 * x)
        J[np.arange(1, n), np.arange(n - 1)] = -1.0
        J[np.arange(n - 1), np.arange(1, n)] = -2.0
        xm = np.concatenate(([0.0], x[:-1]))
        xp = np.concatenate((x[1:], [0.0]))
        r = (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0
        return 2.0 * J.T @ J - 8.0 * np.diag(r)

    rng = np.random.default_rng(n)
    x = p.x0 + 1e-3 * rng.standard_normal(n)
    assert np.array_equal(np.asarray(p.hess(x)), dense(x))
    # far from x0 the matrix product may round differently
    x = rng.standard_normal(n)
    H, D = np.asarray(p.hess(x)), dense(x)
    assert np.max(np.abs(H - D)) <= 1e-15 * np.max(np.abs(D))
    assert np.array_equal(H, H.T)


def test_broyden3d_residual_keeps_the_bits_of_the_padded_expression():
    # the residual that fn, grad and hess share, against its expression with
    # x padded by zeros at both ends: 1200 points, scales 1e-300 to 1e150, +-0 entries
    rng = np.random.default_rng(3)
    for n in (2, 3, 10, 1000):
        residual = inspect.getclosurevars(make_problem("broyden3d", n).fn).nonlocals["residual"]
        for _ in range(300):
            x = 10.0 ** rng.uniform(-300.0, 150.0) * rng.standard_normal(n)
            x[rng.random(n) < 0.2] = 0.0
            x[rng.random(n) < 0.2] = -0.0
            xm = np.concatenate(([0.0], x[:-1]))
            xp = np.concatenate((x[1:], [0.0]))
            want = (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0
            assert residual(x).tobytes() == want.tobytes()


# Entry-by-entry Hessians.  Powers come from whole arrays, as in the catalog,
# so that every entry is the same float operation and the bytes must agree.


def _rosenbr_dense(x):
    n, x2 = x.size, x**2
    H = np.zeros((n, n))
    for i in range(n - 1):
        H[i, i] += -400.0 * (x[i + 1] - x2[i]) + 800.0 * x2[i] + 2.0
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] = H[i + 1, i] = -400.0 * x[i]
    return H


def _engval1_dense(x):
    n, x2 = x.size, x**2
    H = np.zeros((n, n))
    for i in range(n - 1):
        t = x2[i] + x2[i + 1]
        H[i, i] += 4.0 * t + 8.0 * x2[i]
        H[i + 1, i + 1] += 4.0 * t + 8.0 * x2[i + 1]
        H[i, i + 1] = H[i + 1, i] = 8.0 * x[i] * x[i + 1]
    return H


def _dixmaana_dense(x):
    n = x.size
    m = n // 3
    x2, x3, x4 = x**2, x**3, x**4
    H = 2.0 * np.eye(n)
    for i in range(2 * m):
        H[i, i] += 0.25 * x4[i + m]
    for i in range(2 * m):
        j = i + m
        H[j, j] += 1.5 * x2[i] * x2[j]
        H[i, j] += x[i] * x3[j]
        H[j, i] += x[i] * x3[j]
    for i in range(m):
        H[i, i + 2 * m] += 0.125
        H[i + 2 * m, i] += 0.125
    return H


@pytest.mark.parametrize("n", [3, 12, 30])
@pytest.mark.parametrize("name, dense", [
    ("rosenbr", _rosenbr_dense), ("engval1", _engval1_dense), ("dixmaana", _dixmaana_dense),
])
def test_banded_hessian_equals_entrywise_formula(name, dense, n):
    p = make_problem(name, n)
    rng = np.random.default_rng(n)
    with_zeros = p.x0 + rng.standard_normal(n)
    with_zeros[::2] = 0.0
    points = [p.x0, p.x0 + 1e-3 * rng.standard_normal(n), rng.standard_normal(n), with_zeros,
              np.resize([-1.0, 0.0, -1.0], n)]  # dixmaana's x_i x_j^3 band reads +0.0 here
    for x in points:
        assert np.asarray(p.hess(x)).tobytes() == dense(x).tobytes(), x


@pytest.mark.parametrize("n", [2, 3, 1000])
def test_tridia_matrix_equals_its_loop_assembly(n):
    # f = (x_1 - 1)^2 + sum_{i=2..n} i (2 x_i - x_{i-1})^2
    A = np.zeros((n, n))
    A[0, 0] = 2.0
    for i in range(1, n):
        A[i, i] += 8.0 * (i + 1)
        A[i - 1, i - 1] += 2.0 * (i + 1)
        A[i, i - 1] = A[i - 1, i] = -4.0 * (i + 1)
    p = make_problem("tridia", n)
    assert np.asarray(p.hess(p.x0)).tobytes() == A.tobytes()
    b = np.zeros(n)
    b[0] = -2.0
    x = np.random.default_rng(n).standard_normal(n)
    # the gradient is the band product: diagonal, then upper, then lower term
    loop = np.empty(n)
    for i in range(n):
        t = A[i, i] * x[i]
        if i + 1 < n:
            t += A[i, i + 1] * x[i + 1]
        if i > 0:
            t += A[i, i - 1] * x[i - 1]
        loop[i] = t + b[i]
    g, dense = p.grad(x), A @ x + b
    assert g.tobytes() == loop.tobytes()
    assert np.abs(g - dense).max() <= 1e-15 * np.abs(dense).max()


# The gradients of woods, powellsg, box3 and broydenbd as fancy indices and
# loops over rows wrote them; the catalog's must give the same bytes.


def _woods_reference(x):
    ia = np.arange(0, x.size, 4)
    a, b, c, d = x[ia], x[ia + 1], x[ia + 2], x[ia + 3]
    f = (100.0 * ((b - a**2) ** 2).sum() + ((1.0 - a) ** 2).sum() + 90.0 * ((d - c**2) ** 2).sum()
         + ((1.0 - c) ** 2).sum() + 10.0 * ((b + d - 2.0) ** 2).sum() + 0.1 * ((b - d) ** 2).sum())
    g = np.zeros_like(x)
    g[ia] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    g[ia + 1] = 200.0 * (b - a**2) + 20.0 * (b + d - 2.0) + 0.2 * (b - d)
    g[ia + 2] = -360.0 * c * (d - c**2) - 2.0 * (1.0 - c)
    g[ia + 3] = 180.0 * (d - c**2) + 20.0 * (b + d - 2.0) - 0.2 * (b - d)
    return f, g, None


def _powellsg_reference(x):
    ia = np.arange(0, x.size, 4)
    a, b, c, d = x[ia], x[ia + 1], x[ia + 2], x[ia + 3]
    f = (((a + 10.0 * b) ** 2).sum() + 5.0 * ((c - d) ** 2).sum() + ((b - 2.0 * c) ** 4).sum()
         + 10.0 * ((a - d) ** 4).sum())
    g = np.zeros_like(x)
    g[ia] = 2.0 * (a + 10.0 * b) + 40.0 * (a - d) ** 3
    g[ia + 1] = 20.0 * (a + 10.0 * b) + 4.0 * (b - 2.0 * c) ** 3
    g[ia + 2] = 10.0 * (c - d) - 8.0 * (b - 2.0 * c) ** 3
    g[ia + 3] = -10.0 * (c - d) - 40.0 * (a - d) ** 3
    return f, g, None


def _box3_reference(x):
    t = 0.1 * np.arange(1, 11)
    w = np.exp(-t) - np.exp(-10.0 * t)
    r = np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * w
    J = np.zeros((10, 3))
    J[:, 0] = -t * np.exp(-t * x[0])
    J[:, 1] = t * np.exp(-t * x[1])
    J[:, 2] = -w
    H = 2.0 * J.T @ J
    H[0, 0] += 2.0 * (r * t**2 * np.exp(-t * x[0])).sum()
    H[1, 1] += 2.0 * (r * (-(t**2)) * np.exp(-t * x[1])).sum()
    return (r**2).sum(), 2.0 * J.T @ r, H


def _broydenbd_reference(x):
    n = x.size
    neighborhoods = [[j for j in range(max(0, i - 5), min(n - 1, i + 1) + 1) if j != i]
                     for i in range(n)]
    r = x * (2.0 + 5.0 * x**2) + 1.0
    for i, nb in enumerate(neighborhoods):
        xj = x[nb]
        r[i] -= (xj * (1.0 + xj)).sum()
    J = np.zeros((n, n))
    np.fill_diagonal(J, 2.0 + 15.0 * x**2)
    for i, nb in enumerate(neighborhoods):
        J[i, nb] = -(1.0 + 2.0 * x[nb])
    H = 2.0 * J.T @ J
    d = 60.0 * x * r
    for i, nb in enumerate(neighborhoods):
        d[nb] += -4.0 * r[i]
    H[np.arange(n), np.arange(n)] += d
    return (r**2).sum(), 2.0 * J.T @ r, H


@pytest.mark.parametrize("name, n, reference", [
    ("woods", 4, _woods_reference), ("woods", 12, _woods_reference),
    ("powellsg", 4, _powellsg_reference), ("powellsg", 12, _powellsg_reference),
    ("box3", 3, _box3_reference),
    ("broydenbd", 2, _broydenbd_reference), ("broydenbd", 10, _broydenbd_reference),
    ("broydenbd", 23, _broydenbd_reference),
])
def test_rewritten_derivatives_equal_their_reference_formulas(name, n, reference):
    p = make_problem(name, n)
    rng = np.random.default_rng(n)
    points = [p.x0] + [p.x0 + rng.uniform(-2.0, 2.0, n) for _ in range(50)]
    for x in points:
        f, g, H = reference(x)
        assert p.fn(x) == f, x
        assert np.array_equal(p.grad_fn(x), g), x
        if H is not None:
            assert np.array_equal(p.hess_fn(x), H), x


def _woods_hessian_loop(x):
    H = np.zeros((x.size, x.size))
    for base in range(0, x.size, 4):
        a, b, c, d = x[base], x[base + 1], x[base + 2], x[base + 3]
        blk = np.zeros((4, 4))
        blk[0, 0] = -400.0 * (b - a**2) + 800.0 * a**2 + 2.0
        blk[0, 1] = blk[1, 0] = -400.0 * a
        blk[1, 1] = 200.0 + 20.0 + 0.2
        blk[1, 3] = blk[3, 1] = 20.0 - 0.2
        blk[2, 2] = -360.0 * (d - c**2) + 720.0 * c**2 + 2.0
        blk[2, 3] = blk[3, 2] = -360.0 * c
        blk[3, 3] = 180.0 + 20.0 + 0.2
        H[base : base + 4, base : base + 4] = blk
    return H


def _powellsg_hessian_loop(x):
    H = np.zeros((x.size, x.size))
    for base in range(0, x.size, 4):
        a, b, c, d = x[base], x[base + 1], x[base + 2], x[base + 3]
        blk = np.zeros((4, 4))
        blk[0, 0] = 2.0 + 120.0 * (a - d) ** 2
        blk[0, 1] = blk[1, 0] = 20.0
        blk[0, 3] = blk[3, 0] = -120.0 * (a - d) ** 2
        blk[1, 1] = 200.0 + 12.0 * (b - 2.0 * c) ** 2
        blk[1, 2] = blk[2, 1] = -24.0 * (b - 2.0 * c) ** 2
        blk[2, 2] = 10.0 + 48.0 * (b - 2.0 * c) ** 2
        blk[2, 3] = blk[3, 2] = -10.0
        blk[3, 3] = 10.0 + 120.0 * (a - d) ** 2
        H[base : base + 4, base : base + 4] = blk
    return H


def _nondquar_hessian_loop(x):
    n = x.size
    u = x[:-2] + x[1:-1] + x[-1]
    H = np.zeros((n, n))
    H[:2, :2] += [[2.0, -2.0], [-2.0, 2.0]]
    H[-2:, -2:] += 2.0
    sq = 12.0 * u**2
    for i in range(n - 2):
        idx = (i, i + 1, n - 1)
        for a in idx:
            for b in idx:
                H[a, b] += sq[i]
    return H


@pytest.mark.parametrize("name, n, loop", [
    ("woods", 12, _woods_hessian_loop), ("woods", 40, _woods_hessian_loop),
    ("powellsg", 12, _powellsg_hessian_loop), ("powellsg", 40, _powellsg_hessian_loop),
    ("nondquar", 10, _nondquar_hessian_loop), ("nondquar", 37, _nondquar_hessian_loop),
])
def test_vectorized_hessians_equal_their_loop_assembly(name, n, loop):
    p = make_problem(name, n)
    rng = np.random.default_rng(n)
    for x in [p.x0] + [p.x0 + rng.uniform(-2.0, 2.0, n) for _ in range(50)]:
        got, ref = np.asarray(p.hess_fn(x)), loop(x)
        if name == "nondquar":
            assert np.array_equal(got, ref), x
        else:
            # the loops square numpy scalars, which can round differently by one
            # ulp from squaring a vector
            assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref))), x


def test_exact_lipschitz_is_computed_on_first_use(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve or a dense matrix while building the problem")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    p = make_problem("tridia", 1000)
    assert p._lipschitz is None
    # past the band crossover the first use bounds the bands' row sums, with
    # no eigensolve and no dense matrix
    monkeypatch.setattr(hessian.Bands, "__array__", refuse)
    got = p.lipschitz_hint
    monkeypatch.undo()
    assert p.lipschitz_exact and p._lipschitz == got
    assert got >= eigvalsh(np.asarray(p.hess(p.x0)))[-1]


@pytest.mark.parametrize("n", [512, 600])
def test_banded_quadratic_lipschitz_is_the_padded_row_sum(n):
    p = make_problem("tridia", n)
    H = p.hess(p.x0)
    got = p.lipschitz_hint
    assert got >= np.linalg.eigvalsh(np.asarray(H))[-1]
    # tridia's entries are integers, so its row sums are exact; a tridiagonal's
    # pad is 2 (b + 1) eps = 4 eps
    row_sum = float(np.abs(np.asarray(H, dtype=np.longdouble)).sum(axis=1).max())
    assert got == row_sum * (1 + 4 * np.finfo(float).eps)
    # below the crossover it stays eigvalsh's
    below = make_problem("tridia", 511)
    assert below.lipschitz_hint == np.linalg.eigvalsh(np.asarray(below.hess(below.x0)))[-1]


def test_noise_level_zero_is_identity():
    p = make_problem("cube", 2)
    oracle = NoisyOracle(p, 0.0, seed=42)
    x = p.x0 + 0.3
    assert oracle.value(x) == p.value(x)
    assert np.array_equal(oracle.grad(x), p.grad(x))


def test_apply_noise_scalar_identity_and_determinism():
    p = make_problem("cube", 2)
    o = NoisyOracle(p, 0.0, seed=1)
    assert apply_noise(o, 3.5, 0) == 3.5
    o2 = NoisyOracle(p, 0.15, seed=9)
    a = apply_noise(o2, 3.5, 17)
    b = apply_noise(o2, 3.5, 17)
    assert a == b and a != 3.5


def test_noise_streams_differ_between_positions_and_seeds():
    p = make_problem("cube", 2)
    o = NoisyOracle(p, 0.15, seed=9)
    o_other = NoisyOracle(p, 0.15, seed=10)
    assert apply_noise(o, 1.0, 0) != apply_noise(o, 1.0, 1)
    assert apply_noise(o, 1.0, 0) != apply_noise(o_other, 1.0, 0)


def test_noise_moments_match_level():
    # Monte-Carlo oracle: mean of v(1 + 0.5 z) is 1, std is 0.5
    p = make_problem("cube", 2)
    o = NoisyOracle(p, 0.5, seed=123)
    samples = np.array([apply_noise(o, 1.0, pos) for pos in range(100_000)])
    assert abs(samples.mean() - 1.0) <= 0.01
    assert abs(samples.std() - 0.5) <= 0.01


def test_noisy_oracle_positions_advance_per_call():
    p = make_problem("cube", 2)
    o1 = NoisyOracle(p, 0.15, seed=5)
    o2 = NoisyOracle(p, 0.15, seed=5)
    x = p.x0
    v1 = [o1.value(x), o1.value(x)]
    v2 = [o2.value(x), o2.value(x)]
    assert v1 == v2
    assert v1[0] != v1[1]


def test_noise_level_validation():
    p = make_problem("cube", 2)
    with pytest.raises(ValueError):
        NoisyOracle(p, 1.0)
    with pytest.raises(ValueError):
        NoisyOracle(p, 0.1, seed=-1)


def reference_noise(seed, level, value, pos):
    """The noise formula written out: one ``default_rng([seed, pos])`` per draw."""
    return value * (1.0 + level * np.random.default_rng([seed, pos]).standard_normal(np.shape(value)))


SEEDS = (0, 1, 9, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_hash_equals_seed_sequence(seed):
    rng = np.random.default_rng(2024)
    positions = list(range(2101)) + list(range(2**32 - 2, 2**32 + 3))
    positions += [int(p) for p in rng.integers(0, 2**40, size=50)]
    for pos in positions:
        block, row = divmod(pos, problems._BLOCK)
        ref = np.random.SeedSequence([seed, pos]).generate_state(4, np.uint64)
        got = problems._seed_block(seed, block)[row]
        assert got.dtype == np.uint64 and got.tobytes() == ref.tobytes(), (seed, pos)


@pytest.mark.parametrize("shape", [(), (3,), (4, 4)])
def test_apply_noise_bitwise_equals_default_rng_formula(shape):
    base = 1.0 + np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
    # signed magnitudes from 1e-300 to 1e300 as well
    rng = np.random.default_rng(11)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, (2, *shape))
    wide = np.where(rng.random((2, *shape)) < 0.5, -mags, mags)
    values = [base, *wide]
    if shape == ():
        values = [float(v) for v in values]
    positions = [1030, 5, 1023, 1024, 5, 2047, 2048, 0, 1024, 1023, 2**32 - 1, 2**32, 3]
    for seed in (0, 7, 2**33 + 1):
        oracle = NoisyOracle(make_problem("cube", 2), 0.15, seed=seed)
        for value in values:
            for pos in positions:
                got = apply_noise(oracle, value, pos)
                ref = reference_noise(seed, 0.15, value, pos)
                if shape == ():
                    assert isinstance(got, float)
                    ref = float(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (seed, pos, value)


def test_noisy_oracle_stream_across_two_to_the_32_matches_reference():
    p = make_problem("rosenbr", 4)
    x = p.x0 + 0.1
    for seed in (0, 5):
        oracle = NoisyOracle(p, 0.15, seed=seed, _position=2**32 - 1)
        pos = 2**32 - 1
        for _ in range(3):
            for method in ("value", "grad", "hess"):
                got = getattr(oracle, method)(x)
                ref = reference_noise(seed, 0.15, getattr(p, method)(x), pos)
                if method == "value":
                    ref = float(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (seed, pos, method)
                pos += 1
        assert oracle._position == pos


def test_nonfinite_noisy_evaluation_keeps_the_stream_of_a_nonfinite_raw_value():
    p = make_problem("box3", 3)
    bad = np.array([-800.0, 1.0, 1.0])  # exp(-t x1) overflows
    oracle = NoisyOracle(p, 0.15, seed=3)
    with pytest.raises(NonFiniteError):
        oracle.value(bad)
    with pytest.raises(NonFiniteError):
        oracle.grad(bad)
    assert oracle._position == 0
    # a finite value that the noise pushes past the largest float uses up its draw
    huge = dataclasses.replace(p, fn=lambda x: 1.7e308)
    pos = next(k for k in range(100) if np.random.default_rng([3, k]).standard_normal() > 1.0)
    oracle = NoisyOracle(huge, 0.5, seed=3, _position=pos)
    with pytest.raises(NonFiniteError):
        oracle.value(p.x0)
    assert oracle._position == pos + 1


def test_noisy_hessian_without_analytic_hessian_keeps_the_stream():
    oracle = NoisyOracle(make_problem("nlminsurf"), 0.15, seed=1)
    with pytest.raises(CapabilityError):
        oracle.hess(oracle.inner.x0)
    assert oracle._position == 0


def test_import_offo_leaves_numpy_random_unloaded():
    src = os.path.dirname(os.path.dirname(problems.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, offo; assert 'numpy.random' not in sys.modules, 'numpy.random loaded'; "
            "assert 'concurrent.futures.process' not in sys.modules, 'process pool loaded'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_a_banded_norm_leaves_numpy_random_unloaded():
    src = os.path.dirname(os.path.dirname(problems.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from offo.problems import make_problem; "
            "make_problem('tridia', 1000).lipschitz_hint; "
            "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_direct_nonfinite_evaluations_raise_without_a_warning():
    # warnings are errors in this suite: each evaluation overflows under its own errstate
    p = make_problem("rosenbr", 4)
    x = np.full(4, 1e200)
    for method, what in (("value", "objective value"), ("grad", "gradient"), ("hess", "Hessian")):
        with pytest.raises(NonFiniteError, match=f"^non-finite {what} evaluating problem 'rosenbr'$"):
            getattr(p, method)(x)
    oracle = NoisyOracle(p, 0.15, seed=2)
    for method, what in (("value", "value"), ("grad", "gradient"), ("hess", "Hessian")):
        with pytest.raises(NonFiniteError, match=f"^non-finite noisy {what} evaluating problem 'rosenbr'$"):
            getattr(oracle, method)(x)
    # none of the raw evaluations was finite, so no draw was used up
    assert oracle._position == 0


def test_noisy_gradient_pushed_past_the_largest_float_uses_up_its_draw():
    p = dataclasses.replace(make_problem("cube", 2), grad_fn=lambda x: np.full(2, 1.7e308))
    pos = next(k for k in range(100) if np.random.default_rng([3, k]).standard_normal(2).max() > 1.0)
    oracle = NoisyOracle(p, 0.5, seed=3, _position=pos)
    with pytest.raises(NonFiniteError, match="non-finite noisy gradient"):
        oracle.grad(p.x0)
    assert oracle._position == pos + 1


def _as_bytes(v):
    """An evaluation's type and bytes; a ``Bands`` band by band."""
    if isinstance(v, hessian.Bands):
        return "Bands", [_as_bytes(band) for band in v]
    if isinstance(v, np.ndarray):
        return "ndarray", v.dtype.str, v.shape, v.tobytes()
    return type(v).__name__, np.float64(v).tobytes()


def _evaluations(call, x_points):
    """``call(method, x)`` for value, grad and hess at each point, in order:
    each result's bytes, or the error's type and message."""
    out = []
    for x in x_points:
        for method in ("value", "grad", "hess"):
            try:
                out.append(_as_bytes(call(method, x)))
            except (NonFiniteError, CapabilityError) as exc:
                out.append((type(exc).__name__, str(exc)))
    return out


def _direct_and_run_oracle(target, x_points):
    """The evaluations of direct calls on ``target`` and of the same calls
    through a run's oracle, each with the stream position it leaves."""
    oracle = problems.Oracle(problems.fresh_stream(target))

    def through_oracle(method, x):
        with np.errstate(all="ignore"):
            v = getattr(oracle, method)(x)
        return v[0] if method == "grad" else v

    run = _evaluations(through_oracle, x_points), getattr(oracle.target, "_position", None)
    direct = _evaluations(lambda method, x: getattr(target, method)(x), x_points)
    return (direct, getattr(target, "_position", None)), run


@pytest.mark.parametrize("name,n", default_suite())
@pytest.mark.parametrize("noise", [0.0, 0.15])
def test_direct_calls_equal_the_run_oracle_bitwise(name, n, noise):
    p = make_problem(name, n)
    rng = np.random.default_rng(5)
    x_points = [p.x0, p.x0 + rng.uniform(-0.5, 0.5, n)]
    target = NoisyOracle(p, noise, seed=0) if noise else p
    direct, run = _direct_and_run_oracle(target, x_points)
    assert direct == run
    if noise:
        assert direct[1] == 6 - 2 * (p.hess_fn is None)


@pytest.mark.parametrize("noise", [0.0, 0.15])
@pytest.mark.parametrize("name,n,x", [("rosenbr", 10, np.full(10, 1e200)),
                                      ("box3", 3, np.array([-800.0, 1.0, 1.0]))])
def test_direct_and_run_oracle_nonfinite_evaluations_agree(name, n, x, noise):
    p = make_problem(name, n)
    target = NoisyOracle(p, noise, seed=0) if noise else p
    direct, run = _direct_and_run_oracle(target, [x, p.x0])
    assert direct == run
    # the three raw evaluations at x are non-finite: each raises, and only
    # the three at x0 use up draws
    assert [r[0] for r in direct[0][:3]] == ["NonFiniteError"] * 3
    assert direct[1] == (3 if noise else None)


@pytest.mark.parametrize("noise", [0.0, 0.15])
def test_direct_gradient_whose_squares_overflow_is_returned(noise):
    # g.g = inf here, yet g is finite; warnings are errors in this suite
    p = problems.ProblemInstance("linear", 2, np.zeros(2), -np.inf, lambda x: 1e200 * x.sum(),
                                 lambda x: np.full(2, 1e200))
    target = NoisyOracle(p, noise, seed=0) if noise else p
    g = target.grad(np.full(2, 1e200))
    expected = apply_noise(target, np.full(2, 1e200), 0) if noise else np.full(2, 1e200)
    assert g.tobytes() == expected.tobytes() and np.isfinite(g).all()


def _contract_points(p, seed=13):
    return [p.x0, p.x0 + np.random.default_rng(seed).uniform(-0.5, 0.5, p.n)]


def _check_evaluation_contract(p):
    for x in _contract_points(p):
        assert type(p.fn(x)) in (float, np.float64), p.name
        g = p.grad_fn(x)
        assert isinstance(g, np.ndarray) and g.dtype == np.float64 and g.shape == (p.n,), p.name
        if p.hess_fn is None:
            continue
        H = p.hess_fn(x)
        if isinstance(H, hessian.Bands):
            assert all(isinstance(b, np.ndarray) and b.dtype == np.float64 and b.shape == (p.n - k,)
                       for k, b in enumerate(H)), p.name
        else:
            assert isinstance(H, np.ndarray) and H.dtype == np.float64, p.name
            assert H.shape == (p.n, p.n), p.name


@pytest.mark.parametrize("name,n", default_suite())
def test_catalog_evaluations_keep_the_contract(name, n):
    # direct calls and runs both return the functions' results unconverted
    _check_evaluation_contract(make_problem(name, n))


@pytest.mark.parametrize("kind", sharpness.KINDS)
def test_sharpness_problem_keeps_the_evaluation_contract(kind):
    seq = sharpness.build_sequence(kind, 50)
    _check_evaluation_contract(sharpness.as_problem(sharpness.hermite_build(seq)))
