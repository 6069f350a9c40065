"""Smooth unconstrained test problems with analytic derivatives.

Every catalog entry builds a :class:`ProblemInstance`: objective, gradient,
optional Hessian, the standard starting point and a certified lower bound.
:class:`NoisyOracle` wraps any instance with multiplicative Gaussian noise
applied independently to each evaluated scalar; noise draws are a pure
function of ``(seed, stream position)`` so replays are deterministic. They are
exactly the draws of ``np.random.default_rng([seed, position])``, whose seed
words are hashed for a whole block of 1024 positions at once.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class CatalogError(KeyError):
    """Unknown problem name."""


class DimensionError(ValueError):
    """Dimension not valid for the requested problem family."""


class NonFiniteError(FloatingPointError):
    """An evaluation produced inf or nan (objective overflow)."""


class CapabilityError(RuntimeError):
    """A capability (Hessian, exact Lipschitz constant, ...) is missing."""


def _check_finite(value, what: str, name: str):
    if not np.isfinite(value).all():
        raise NonFiniteError(f"non-finite {what} evaluating problem '{name}'")
    return value


@dataclass
class ProblemInstance:
    """A differentiable test function with derivatives and metadata.

    ``f_low`` is a certified lower bound on f (attained or not); when
    ``lower_bound_certified`` is set, ``f(x) >= f_low`` holds everywhere by
    construction and is assertable during any run.  ``lipschitz_hint`` is the
    gradient Lipschitz constant: exact for quadratics (largest Hessian
    eigenvalue, computed on first use), sampled otherwise.
    """

    name: str
    n: int
    x0: Array
    f_low: float
    fn: Callable[[Array], float]
    grad_fn: Callable[[Array], Array]
    hess_fn: Optional[Callable[[Array], Array]] = None
    lower_bound_certified: bool = False
    lipschitz_exact: bool = False
    _lipschitz: Optional[float] = field(default=None, repr=False)

    @property
    def has_hessian(self) -> bool:
        return self.hess_fn is not None

    @property
    def lipschitz_hint(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = (float(np.linalg.eigvalsh(self.hess(self.x0))[-1])
                               if self.lipschitz_exact else _sampled_lipschitz(self))
        return self._lipschitz

    def _eval(self, fn, x: Array, what: str) -> Array:
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            v = np.asarray(fn(x), dtype=float)
        return _check_finite(v, what, self.name)

    def value(self, x: Array) -> float:
        return float(self._eval(self.fn, x, "objective value"))

    def grad(self, x: Array) -> Array:
        return self._eval(self.grad_fn, x, "gradient")

    def _required_hess_fn(self) -> Callable[[Array], Array]:
        """The analytic Hessian; CapabilityError when the problem has none."""
        if self.hess_fn is None:
            raise CapabilityError(f"problem '{self.name}' has no analytic Hessian")
        return self.hess_fn

    def hess(self, x: Array) -> Array:
        return self._eval(self._required_hess_fn(), x, "Hessian")

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "n": self.n,
                "x0": self.x0.tolist(),
                "f_low": self.f_low,
            }
        )


#: random point pairs, and the seed drawing them, of the sampled Lipschitz estimate
_LIPSCHITZ_PAIRS = 30
_LIPSCHITZ_SEED = 0


def _sampled_lipschitz(problem: ProblemInstance) -> float:
    """Crude gradient-difference estimate of L in a unit box around x0."""
    rng = np.random.default_rng(_LIPSCHITZ_SEED)
    best = 0.0
    for _ in range(_LIPSCHITZ_PAIRS):
        x = problem.x0 + rng.uniform(-0.5, 0.5, problem.n)
        y = problem.x0 + rng.uniform(-0.5, 0.5, problem.n)
        d = np.linalg.norm(x - y)
        if d == 0:
            continue
        try:
            ratio = np.linalg.norm(problem.grad(x) - problem.grad(y)) / d
        except NonFiniteError:
            continue
        best = max(best, ratio)
    return 1.5 * best if best > 0 else 1.0


# ---------------------------------------------------------------------------
# noise wrapper
# ---------------------------------------------------------------------------


# numpy's SeedSequence: 32-bit hash constants, a pool of 4 words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
#: stream positions sharing one seed hash (a power of two, so a block never
#: straddles a 2**32 boundary and the position's high words are constant)
_BLOCK = 1024


def _uint32_words(v: int) -> list:
    """v as little-endian 32-bit words, as SeedSequence splits an int (0 is [0])."""
    words = [v & _M32]
    v >>= 32
    while v:
        words.append(v & _M32)
        v >>= 32
    return words


def _seed_block(seed: int, block: int) -> Array:
    """Row r is ``SeedSequence([seed, block*_BLOCK + r]).generate_state(4, np.uint64)``.

    numpy's hash uses only wrapping uint32 arithmetic whose constants do not
    depend on the data, so it runs once over the block's position words as
    vectors: the low words vary and every other entropy word is a scalar.
    """
    if seed < 0 or block < 0:
        raise ValueError("seed and stream position must be non-negative")
    base = block * _BLOCK
    pos_words = _uint32_words(base)
    entropy = [np.full(_BLOCK, w, np.uint32) for w in _uint32_words(seed)]
    entropy.append((base & _M32) + np.arange(_BLOCK, dtype=np.uint32))
    entropy += [np.full(_BLOCK, w, np.uint32) for w in pos_words[1:]]
    entropy += [np.zeros(_BLOCK, np.uint32)] * (_POOL - len(entropy))
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _M32
        v = v * np.uint32(hash_const)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(e) for e in entropy[:_POOL]]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for e in entropy[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(e))
    state = np.empty((_BLOCK, 2 * _POOL), dtype="<u4")
    hash_const = _INIT_B
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        v = v * np.uint32(hash_const)
        state[:, i] = v ^ (v >> np.uint32(16))
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _words_seed_type():
    """The seed-sequence type serving one position's cached words to PCG64.

    Built on the first noisy draw: importing ``numpy.random`` is kept out of
    ``import offo``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or dtype is not np.uint64:
                raise ValueError("only PCG64's four uint64 seed words are cached")
            return self.words

    return WordsSeed


def apply_noise(oracle: "NoisyOracle", value, stream_position: int):
    """Contaminate each scalar with relative Gaussian noise.

    Every scalar v becomes ``v * (1 + level * z)`` with z ~ N(0, 1) drawn
    deterministically from ``(seed, stream_position)``: z is exactly
    ``np.random.default_rng([seed, stream_position]).standard_normal(shape)``,
    with the generator's seed words taken from a block-hashed cache.  Level 0
    returns the input unchanged (bit-identical).
    """
    if oracle.level == 0.0:
        return value
    seed = _words_seed_type()(oracle._seed_words(stream_position))
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(np.shape(value))
    noisy = value * (1.0 + oracle.level * z)
    if np.ndim(value) == 0:
        return float(noisy)
    return noisy


@dataclass
class NoisyOracle:
    """Evaluation oracle contaminating f, g and H with relative noise.

    Each evaluation runs the inner problem's raw function and the noise under
    one ``np.errstate`` and checks the noisy result for finiteness once.
    """

    inner: ProblemInstance
    level: float
    seed: int = 0
    _position: int = field(default=0, repr=False)
    #: ``((seed, block), words)`` of the block last drawn from; a copy starts empty
    _block: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ValueError("noise level must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def _seed_words(self, position: int) -> Array:
        """The four PCG64 seed words of ``default_rng([seed, position])``."""
        block, row = divmod(position, _BLOCK)
        key = (self.seed, block)
        if self._block[0] != key:
            self._block = (key, _seed_block(self.seed, block))
        return self._block[1][row]

    def _noisy(self, fn, x: Array, what: str):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            raw = np.asarray(fn(x), dtype=float)
            out = apply_noise(self, raw, self._position)
        if not np.isfinite(out).all():
            # only a finite raw evaluation uses up its draw, as it always has, so
            # a caller that catches the error (sdba's backtracking) keeps its stream
            if np.isfinite(raw).all():
                self._position += 1
            raise NonFiniteError(f"non-finite {what} evaluating problem '{self.inner.name}'")
        self._position += 1
        return out

    def value(self, x: Array) -> float:
        return float(self._noisy(self.inner.fn, x, "noisy value"))

    def grad(self, x: Array) -> Array:
        return self._noisy(self.inner.grad_fn, x, "noisy gradient")

    def hess(self, x: Array) -> Array:
        return self._noisy(self.inner._required_hess_fn(), x, "noisy Hessian")


def base_problem(target) -> ProblemInstance:
    """The underlying ProblemInstance of a possibly-noisy oracle."""
    return target.inner if isinstance(target, NoisyOracle) else target


def fresh_stream(target):
    """The target itself, or a copy of a noisy oracle whose stream starts at 0.

    A run draws its noise from such a copy, so it replays identically however
    often one oracle is reused, and the caller's oracle is left as it was.
    """
    return replace(target, _position=0) if isinstance(target, NoisyOracle) else target


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_REGISTRY: dict = {}


def _register(name, default_n, check=None, reason=""):
    def wrap(builder):
        _REGISTRY[name] = (builder, default_n, check, reason)
        return builder

    return wrap


def catalog() -> list[str]:
    """Names of all implemented problem families."""
    return sorted(_REGISTRY)


def default_suite() -> list[tuple[str, int]]:
    """The desk suite: every family at its standard small dimension."""
    return [(name, _REGISTRY[name][1]) for name in catalog()]


def make_problem(name: str, n: Optional[int] = None) -> ProblemInstance:
    """Build a catalog problem at dimension n (family default when omitted)."""
    if name not in _REGISTRY:
        raise CatalogError(f"unknown problem '{name}'; known: {', '.join(catalog())}")
    builder, default_n, check, reason = _REGISTRY[name]
    if n is None:
        n = default_n
    n = int(n)
    if check is not None and not check(n):
        raise DimensionError(f"problem '{name}' requires {reason}, got n={n}")
    return builder(n)


def evaluate(problem: ProblemInstance, x: Array, order: int = 0):
    """Evaluate f and the requested derivatives: returns (f, g or None, H or None)."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionError(f"x has shape {x.shape}, expected ({problem.n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    f = problem.value(x)
    g = problem.grad(x) if order >= 1 else None
    h = problem.hess(x) if order >= 2 else None
    return f, g, h


# -- shared parts -------------------------------------------------------------


def _banded(bands: dict) -> Array:
    """The dense symmetric matrix with ``bands[0]`` on its diagonal and
    ``bands[k]`` on its k-th upper and lower diagonals."""
    n = len(bands[0])
    i = np.arange(n)
    # every page written, so its resident size does not depend on huge pages
    H = np.full((n, n), 0.0)
    for k, band in bands.items():
        H[i[: n - k], i[k:]] = H[i[k:], i[: n - k]] = band
    return H


def _sum_of_squares(name, n, x0, residual, jac, curvature=None):
    """f = sum r_i^2 with gradient 2 J'r and Hessian 2 J'J + the residuals'
    second-derivative term, which ``curvature(x, r, H)`` adds in place; no
    Hessian without it."""

    def fn(x):
        return (residual(x) ** 2).sum()

    def grad(x):
        return 2.0 * jac(x).T @ residual(x)

    def hess(x):
        r = residual(x)
        J = jac(x)
        H = 2.0 * J.T @ J
        curvature(x, r, H)
        return H

    return ProblemInstance(name, n, x0, 0.0, fn, grad, hess if curvature else None,
                           lower_bound_certified=True)


# -- individual families ----------------------------------------------------


@_register("rosenbr", 10, lambda n: n >= 2, "n >= 2")
def _rosenbr(n):
    def fn(x):
        t = x[1:] - x[:-1] ** 2
        return 100.0 * (t**2).sum() + ((1.0 - x[:-1]) ** 2).sum()

    def grad(x):
        t = x[1:] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hess(x):
        d = np.zeros(n)
        d[:-1] += -400.0 * (x[1:] - x[:-1] ** 2) + 800.0 * x[:-1] ** 2 + 2.0
        d[1:] += 200.0
        return _banded({0: d, 1: -400.0 * x[:-1]})

    x0 = np.where(np.arange(n) % 2 == 0, -1.2, 1.0)
    return ProblemInstance("rosenbr", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("broyden3d", 10, lambda n: n >= 2, "n >= 2")
def _broyden3d(n):
    def residual(x):
        xm = np.concatenate(([0.0], x[:-1]))
        xp = np.concatenate((x[1:], [0.0]))
        return (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0

    def fn(x):
        return (residual(x) ** 2).sum()

    def grad(x):
        r = residual(x)
        g = 2.0 * (3.0 - 4.0 * x) * r
        g[:-1] += -2.0 * r[1:]
        g[1:] += -4.0 * r[:-1]
        return g

    def hess(x):
        # 2 J^T J - 8 diag(r) from its five bands; J has 3 - 4x on the
        # diagonal, -1 below it and -2 above it
        d = 3.0 - 4.0 * x
        diag = d * d
        diag[1:] += 4.0
        diag[:-1] += 1.0
        return _banded({0: 2.0 * diag - 8.0 * residual(x), 1: 2.0 * (-2.0 * d[:-1] - d[1:]), 2: 4.0})

    x0 = -np.ones(n)
    return ProblemInstance("broyden3d", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("broydenbd", 10, lambda n: n >= 2, "n >= 2")
def _broydenbd(n):
    neighborhoods = []
    for i in range(n):
        lo, hi = max(0, i - 5), min(n - 1, i + 1)
        neighborhoods.append([j for j in range(lo, hi + 1) if j != i])

    def residual(x):
        r = x * (2.0 + 5.0 * x**2) + 1.0
        for i, nb in enumerate(neighborhoods):
            xj = x[nb]
            r[i] -= (xj * (1.0 + xj)).sum()
        return r

    def jac(x):
        J = np.zeros((n, n))
        np.fill_diagonal(J, 2.0 + 15.0 * x**2)
        for i, nb in enumerate(neighborhoods):
            J[i, nb] = -(1.0 + 2.0 * x[nb])
        return J

    def curvature(x, r, H):
        d = 60.0 * x * r
        for i, nb in enumerate(neighborhoods):
            d[nb] += -4.0 * r[i]
        H[np.arange(n), np.arange(n)] += d

    return _sum_of_squares("broydenbd", n, -np.ones(n), residual, jac, curvature)


@_register("arwhead", 10, lambda n: n >= 2, "n >= 2")
def _arwhead(n):
    def fn(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        return (t**2).sum() - 4.0 * x[:-1].sum() + 3.0 * (n - 1)

    def grad(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        g = np.zeros_like(x)
        g[:-1] = 4.0 * x[:-1] * t - 4.0
        g[-1] += 4.0 * x[-1] * t.sum()
        return g

    def hess(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        H = np.zeros((n, n))
        H[np.arange(n - 1), np.arange(n - 1)] = 4.0 * t + 8.0 * x[:-1] ** 2
        H[: n - 1, -1] = 8.0 * x[:-1] * x[-1]
        H[-1, : n - 1] = H[: n - 1, -1]
        H[-1, -1] = 4.0 * t.sum() + 8.0 * x[-1] ** 2 * (n - 1)
        return H

    x0 = np.ones(n)
    return ProblemInstance("arwhead", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


def _quadratic_instance(name, n, A, b, c, x0, f_low):
    """f(x) = 0.5 x'Ax + b'x + c, whose Lipschitz constant is exact."""

    def fn(x):
        return 0.5 * x @ (A @ x) + b @ x + c

    def grad(x):
        return A @ x + b

    def hess(x):
        return A.copy()

    return ProblemInstance(name, n, x0, f_low, fn, grad, hess,
                           lower_bound_certified=True, lipschitz_exact=True)


@_register("tridia", 10, lambda n: n >= 2, "n >= 2")
def _tridia(n):
    # f = (x_1 - 1)^2 + sum_{i=2..n} i (2 x_i - x_{i-1})^2, assembled as a quadratic
    wgt = np.arange(2.0, n + 1)
    d = np.zeros(n)
    d[0] = 2.0
    d[1:] += 8.0 * wgt
    d[:-1] += 2.0 * wgt
    b = np.zeros(n)
    b[0] = -2.0
    return _quadratic_instance("tridia", n, _banded({0: d, 1: -4.0 * wgt}), b, 1.0, np.ones(n), 0.0)


@_register("hilbert", 10, lambda n: n >= 1, "n >= 1")
def _hilbert(n):
    i = np.arange(1, n + 1)
    A = 1.0 / (i[:, None] + i[None, :] - 1.0)
    return _quadratic_instance("hilbert", n, A, np.zeros(n), 0.0, np.ones(n), 0.0)


def _linear_least_squares(name, n, J, rhs):
    A = 2.0 * J.T @ J
    b = -2.0 * J.T @ rhs
    c = float(rhs @ rhs)
    x_star, *_ = np.linalg.lstsq(J, rhs, rcond=None)
    f_low = float(((J @ x_star - rhs) ** 2).sum())
    return _quadratic_instance(name, n, A, b, c, np.ones(n), f_low)


@_register("arglina", 10, lambda n: n >= 1, "n >= 1")
def _arglina(n):
    m = 2 * n
    J = np.full((m, n), -2.0 / m)
    J[np.arange(n), np.arange(n)] += 1.0
    return _linear_least_squares("arglina", n, J, np.ones(m))


@_register("arglinb", 10, lambda n: n >= 1, "n >= 1")
def _arglinb(n):
    m = 2 * n
    J = np.outer(np.arange(1, m + 1, dtype=float), np.arange(1, n + 1, dtype=float))
    return _linear_least_squares("arglinb", n, J, np.ones(m))


@_register("woods", 12, lambda n: n >= 4 and n % 4 == 0, "n a positive multiple of 4")
def _woods(n):
    ia = np.arange(0, n, 4)

    def fn(x):
        a, b, c, d = x[ia], x[ia + 1], x[ia + 2], x[ia + 3]
        return (
            100.0 * ((b - a**2) ** 2).sum()
            + ((1.0 - a) ** 2).sum()
            + 90.0 * ((d - c**2) ** 2).sum()
            + ((1.0 - c) ** 2).sum()
            + 10.0 * ((b + d - 2.0) ** 2).sum()
            + 0.1 * ((b - d) ** 2).sum()
        )

    def grad(x):
        a, b, c, d = x[ia], x[ia + 1], x[ia + 2], x[ia + 3]
        g = np.zeros_like(x)
        g[ia] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
        g[ia + 1] = 200.0 * (b - a**2) + 20.0 * (b + d - 2.0) + 0.2 * (b - d)
        g[ia + 2] = -360.0 * c * (d - c**2) - 2.0 * (1.0 - c)
        g[ia + 3] = 180.0 * (d - c**2) + 20.0 * (b + d - 2.0) - 0.2 * (b - d)
        return g

    def hess(x):
        H = np.zeros((n, n))
        for base in ia:
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

    x0 = np.tile([-3.0, -1.0, -3.0, -1.0], n // 4)
    return ProblemInstance("woods", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("powellsg", 12, lambda n: n >= 4 and n % 4 == 0, "n a positive multiple of 4")
def _powellsg(n):
    ia = np.arange(0, n, 4)

    def fn(x):
        a, b, c, d = x[ia], x[ia + 1], x[ia + 2], x[ia + 3]
        return (
            ((a + 10.0 * b) ** 2).sum()
            + 5.0 * ((c - d) ** 2).sum()
            + ((b - 2.0 * c) ** 4).sum()
            + 10.0 * ((a - d) ** 4).sum()
        )

    def grad(x):
        a, b, c, d = x[ia], x[ia + 1], x[ia + 2], x[ia + 3]
        g = np.zeros_like(x)
        g[ia] = 2.0 * (a + 10.0 * b) + 40.0 * (a - d) ** 3
        g[ia + 1] = 20.0 * (a + 10.0 * b) + 4.0 * (b - 2.0 * c) ** 3
        g[ia + 2] = 10.0 * (c - d) - 8.0 * (b - 2.0 * c) ** 3
        g[ia + 3] = -10.0 * (c - d) - 40.0 * (a - d) ** 3
        return g

    def hess(x):
        H = np.zeros((n, n))
        for base in ia:
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

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], n // 4)
    return ProblemInstance("powellsg", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("engval1", 10, lambda n: n >= 2, "n >= 2")
def _engval1(n):
    def fn(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        return (t**2).sum() - 4.0 * x[:-1].sum() + 3.0 * (n - 1)

    def grad(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * t - 4.0
        g[1:] += 4.0 * x[1:] * t
        return g

    def hess(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        d = np.zeros(n)
        d[:-1] += 4.0 * t + 8.0 * x[:-1] ** 2
        d[1:] += 4.0 * t + 8.0 * x[1:] ** 2
        return _banded({0: d, 1: 8.0 * x[:-1] * x[1:]})

    x0 = np.full(n, 2.0)
    return ProblemInstance("engval1", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("beale", 2, lambda n: n == 2, "n = 2")
def _beale(n):
    y = np.array([1.5, 2.25, 2.625])
    p = np.array([1.0, 2.0, 3.0])

    def residual(x):
        return y - x[0] * (1.0 - x[1] ** p)

    def jac(x):
        J = np.zeros((3, 2))
        J[:, 0] = -(1.0 - x[1] ** p)
        J[:, 1] = x[0] * p * x[1] ** (p - 1.0)
        return J

    def curvature(x, r, H):
        # second derivatives of residuals: d2r/dx1dx2 = p t^(p-1), d2r/dx2^2 = x1 p (p-1) t^(p-2)
        H[0, 1] += 2.0 * (r * p * x[1] ** (p - 1.0)).sum()
        H[1, 0] = H[0, 1]
        H[1, 1] += 2.0 * (r * x[0] * p * (p - 1.0) * x[1] ** (p - 2.0)).sum()

    return _sum_of_squares("beale", n, np.array([1.0, 1.0]), residual, jac, curvature)


@_register("box3", 3, lambda n: n == 3, "n = 3")
def _box3(n):
    t = 0.1 * np.arange(1, 11)
    w = np.exp(-t) - np.exp(-10.0 * t)

    def residual(x):
        return np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * w

    def jac(x):
        J = np.zeros((10, 3))
        J[:, 0] = -t * np.exp(-t * x[0])
        J[:, 1] = t * np.exp(-t * x[1])
        J[:, 2] = -w
        return J

    def curvature(x, r, H):
        H[0, 0] += 2.0 * (r * t**2 * np.exp(-t * x[0])).sum()
        H[1, 1] += 2.0 * (r * (-(t**2)) * np.exp(-t * x[1])).sum()

    return _sum_of_squares("box3", n, np.array([0.0, 10.0, 20.0]), residual, jac, curvature)


@_register("cube", 2, lambda n: n == 2, "n = 2")
def _cube(n):
    def fn(x):
        return (x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 3) ** 2

    def grad(x):
        t = x[1] - x[0] ** 3
        return np.array([2.0 * (x[0] - 1.0) - 600.0 * x[0] ** 2 * t, 200.0 * t])

    def hess(x):
        t = x[1] - x[0] ** 3
        return np.array(
            [
                [2.0 - 1200.0 * x[0] * t + 1800.0 * x[0] ** 4, -600.0 * x[0] ** 2],
                [-600.0 * x[0] ** 2, 200.0],
            ]
        )

    x0 = np.array([-1.2, 1.0])
    return ProblemInstance("cube", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("vardim", 10, lambda n: n >= 1, "n >= 1")
def _vardim(n):
    j = np.arange(1, n + 1, dtype=float)

    def fn(x):
        r = j @ (x - 1.0)
        return ((x - 1.0) ** 2).sum() + r**2 + r**4

    def grad(x):
        r = j @ (x - 1.0)
        return 2.0 * (x - 1.0) + (2.0 * r + 4.0 * r**3) * j

    def hess(x):
        r = j @ (x - 1.0)
        return 2.0 * np.eye(n) + (2.0 + 12.0 * r**2) * np.outer(j, j)

    x0 = 1.0 - j / n
    return ProblemInstance("vardim", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("nondquar", 10, lambda n: n >= 3, "n >= 3")
def _nondquar(n):
    def fn(x):
        u = x[:-2] + x[1:-1] + x[-1]
        return (x[0] - x[1]) ** 2 + (x[-2] + x[-1]) ** 2 + (u**4).sum()

    def grad(x):
        u = x[:-2] + x[1:-1] + x[-1]
        g = np.zeros_like(x)
        g[0] += 2.0 * (x[0] - x[1])
        g[1] += -2.0 * (x[0] - x[1])
        g[-2] += 2.0 * (x[-2] + x[-1])
        g[-1] += 2.0 * (x[-2] + x[-1])
        cub = 4.0 * u**3
        g[:-2] += cub
        g[1:-1] += cub
        g[-1] += cub.sum()
        return g

    def hess(x):
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

    x0 = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return ProblemInstance("nondquar", n, x0, 0.0, fn, grad, hess, lower_bound_certified=True)


@_register("nlminsurf", 16, lambda n: n >= 1 and math.isqrt(n) ** 2 == n, "n a perfect square")
def _nlminsurf(n):
    # discrete minimal surface on the unit square; boundary height u(1-u) + v(1-v)
    m = math.isqrt(n)
    h = 1.0 / (m + 1)
    coords = np.arange(m + 2) * h
    bnd = coords * (1.0 - coords)

    def full_grid(x):
        Z = np.zeros((m + 2, m + 2))
        Z[0, :] = bnd[0] + bnd
        Z[-1, :] = bnd[-1] + bnd
        Z[:, 0] = bnd + bnd[0]
        Z[:, -1] = bnd + bnd[-1]
        Z[1:-1, 1:-1] = x.reshape(m, m)
        return Z

    def _tri(Z):
        A = Z[:-1, :-1]
        B = Z[1:, :-1]
        C = Z[:-1, 1:]
        D = Z[1:, 1:]
        s1 = np.sqrt(1.0 + ((B - A) ** 2 + (C - A) ** 2) / h**2)
        s2 = np.sqrt(1.0 + ((B - D) ** 2 + (C - D) ** 2) / h**2)
        return A, B, C, D, s1, s2

    def fn(x):
        _, _, _, _, s1, s2 = _tri(full_grid(x))
        return 0.5 * h**2 * (s1.sum() + s2.sum())

    def grad(x):
        Z = full_grid(x)
        A, B, C, D, s1, s2 = _tri(Z)
        dZ = np.zeros_like(Z)
        c1 = 0.5 / s1
        dZ[:-1, :-1] += c1 * (-(B - A) - (C - A))
        dZ[1:, :-1] += c1 * (B - A)
        dZ[:-1, 1:] += c1 * (C - A)
        c2 = 0.5 / s2
        dZ[1:, 1:] += c2 * (-(B - D) - (C - D))
        dZ[1:, :-1] += c2 * (B - D)
        dZ[:-1, 1:] += c2 * (C - D)
        return dZ[1:-1, 1:-1].ravel()

    x0 = np.zeros(n)
    # surface area is at least the area of its planar projection
    return ProblemInstance("nlminsurf", n, x0, 1.0, fn, grad, None, lower_bound_certified=True)


@_register("dixmaana", 12, lambda n: n >= 3 and n % 3 == 0, "n a positive multiple of 3")
def _dixmaana(n):
    m = n // 3

    def fn(x):
        return (
            1.0
            + (x**2).sum()
            + 0.125 * (x[: 2 * m] ** 2 * x[m:] ** 4).sum()
            + 0.125 * (x[:m] * x[2 * m :]).sum()
        )

    def grad(x):
        g = 2.0 * x.copy()
        g[: 2 * m] += 0.25 * x[: 2 * m] * x[m:] ** 4
        g[m:] += 0.5 * x[: 2 * m] ** 2 * x[m:] ** 3
        g[:m] += 0.125 * x[2 * m :]
        g[2 * m :] += 0.125 * x[:m]
        return g

    def hess(x):
        d = np.full(n, 2.0)
        d[: 2 * m] += 0.25 * x[m:] ** 4
        d[m:] += 1.5 * x[: 2 * m] ** 2 * x[m:] ** 2
        # 0.0 + reads a -0.0 product as +0.0, as adding the band onto zeros does
        return _banded({0: d, m: 0.0 + x[: 2 * m] * x[m:] ** 3, 2 * m: 0.125})

    x0 = np.full(n, 2.0)
    return ProblemInstance("dixmaana", n, x0, 1.0, fn, grad, hess, lower_bound_certified=True)


@_register("helix", 3, lambda n: n == 3, "n = 3")
def _helix(n):
    two_pi = 2.0 * np.pi

    def theta(x):
        if x[0] > 0:
            return np.arctan(x[1] / x[0]) / two_pi
        if x[0] < 0:
            return np.arctan(x[1] / x[0]) / two_pi + 0.5
        return 0.25 * np.sign(x[1])

    def residual(x):
        rho = np.hypot(x[0], x[1])
        return np.array([10.0 * (x[2] - 10.0 * theta(x)), 10.0 * (rho - 1.0), x[2]])

    def jac(x):
        rho2 = x[0] ** 2 + x[1] ** 2
        rho = np.sqrt(rho2)
        J = np.zeros((3, 3))
        J[0, 0] = 100.0 * x[1] / (two_pi * rho2)
        J[0, 1] = -100.0 * x[0] / (two_pi * rho2)
        J[0, 2] = 10.0
        J[1, 0] = 10.0 * x[0] / rho
        J[1, 1] = 10.0 * x[1] / rho
        J[2, 2] = 1.0
        return J

    return _sum_of_squares("helix", n, np.array([-1.0, 0.0, 0.0]), residual, jac)
