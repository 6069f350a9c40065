"""Smooth unconstrained test problems with analytic derivatives.

Every catalog entry builds a :class:`ProblemInstance`: objective, gradient,
optional Hessian, the standard starting point and a certified lower bound.
:class:`NoisyOracle` wraps any instance with multiplicative Gaussian noise
applied independently to each evaluated scalar; noise draws are a pure
function of ``(seed, stream position)`` so replays are deterministic. They are
exactly the draws of ``np.random.default_rng([seed, position])``, whose seed
words are hashed for a whole block of 1024 positions at once.

Every evaluation of either, made by a run or called directly, goes through an
:class:`Oracle`, which counts it and checks it for finiteness.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .hessian import Bands, spectral_norm

Array = np.ndarray


class CatalogError(KeyError):
    """Unknown problem name."""


class DimensionError(ValueError):
    """Dimension not valid for the requested problem family."""


class NonFiniteError(FloatingPointError):
    """An evaluation produced inf or nan (objective overflow)."""


class CapabilityError(RuntimeError):
    """A capability (Hessian, exact Lipschitz constant, ...) is missing."""


class _DirectCalls:
    """``value``, ``grad`` and ``hess`` called directly: each makes one
    evaluation through a fresh :class:`Oracle`, under its own ``np.errstate``."""

    def value(self, x: Array) -> float:
        with np.errstate(all="ignore"):
            return Oracle(self).value(np.asarray(x, dtype=float))

    def grad(self, x: Array) -> Array:
        with np.errstate(all="ignore"):
            return Oracle(self).grad(np.asarray(x, dtype=float))[0]

    def hess(self, x: Array) -> Array | Bands:
        """The Hessian at x: a dense array, or the ``Bands`` of a banded family,
        whose ``np.asarray`` is the dense matrix."""
        with np.errstate(all="ignore"):
            return Oracle(self).hess(np.asarray(x, dtype=float))


@dataclass
class ProblemInstance(_DirectCalls):
    """A differentiable test function with derivatives and metadata.

    ``f_low`` is a certified lower bound on f (attained or not).
    ``lipschitz_hint`` is the gradient Lipschitz constant of a quadratic
    (``lipschitz_exact``), computed on first use by ``hessian.spectral_norm``:
    the Hessian's spectral norm (one ``eigvalsh``), or for a large banded one
    its padded row-sum bound, a certified upper bound.  Any other problem
    raises :class:`CapabilityError`.

    Evaluations are used as the functions return them, unconverted: at a
    float64 x of shape (n,), ``fn`` returns a Python float or ``np.float64``,
    ``grad_fn`` a float64 array of shape (n,), and ``hess_fn`` a float64
    array of shape (n, n) or a ``Bands`` of float64 bands.
    """

    name: str
    n: int
    x0: Array
    f_low: float
    fn: Callable[[Array], float]
    grad_fn: Callable[[Array], Array]
    hess_fn: Optional[Callable[[Array], Array]] = None
    lipschitz_exact: bool = False
    _lipschitz: Optional[float] = field(default=None, repr=False)

    @property
    def lipschitz_hint(self) -> float:
        if not self.lipschitz_exact:
            raise CapabilityError(f"problem '{self.name}' has no exact Lipschitz constant")
        if self._lipschitz is None:
            self._lipschitz = spectral_norm(self.hess(self.x0))
        return self._lipschitz

    def _hess(self, x: Array) -> Array | Bands:
        """The analytic Hessian at x, unchecked; CapabilityError when there is none."""
        if self.hess_fn is None:
            raise CapabilityError(f"problem '{self.name}' has no analytic Hessian")
        return self.hess_fn(x)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "n": self.n,
                "x0": self.x0.tolist(),
                "f_low": self.f_low,
            }
        )


def all_finite(v) -> bool:
    """Whether every entry of an evaluation is finite; a ``Bands`` is checked
    band by band and never made dense."""
    if isinstance(v, Bands):
        return all(np.isfinite(band).all() for band in v)
    return bool(np.isfinite(v).all())


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
def _normal_draw():
    """The function drawing standard normals from one position's cached words.

    It seeds PCG64 with the words through a seed-sequence type that serves
    them as they are.  Built on the first noisy draw: importing
    ``numpy.random`` is kept out of ``import offo``.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or dtype is not np.uint64:
                raise ValueError("only PCG64's four uint64 seed words are cached")
            return self.words

    def draw(words, shape):
        return Generator(PCG64(WordsSeed(words))).standard_normal(shape)

    return draw


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
    value = np.asarray(value, dtype=float)
    z = _normal_draw()(oracle._seed_words(stream_position), value.shape)
    noisy = value * (1.0 + oracle.level * z)
    return noisy if value.shape else float(noisy)


@dataclass
class NoisyOracle(_DirectCalls):
    """Evaluation oracle contaminating f, g and H with relative noise.

    Each evaluation, direct or in a run, goes through an :class:`Oracle`,
    which draws the noise with :meth:`_draw` and checks the noisy result for
    finiteness once.  A ``Bands`` Hessian is made dense first, so noise is
    drawn per n x n entry.
    """

    inner: ProblemInstance
    level: float
    seed: int = 0
    _position: int = field(default=0, repr=False)
    #: ``((seed, block), words)`` of the block last drawn from; a copy starts empty
    _block: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    #: the raw evaluation of the last draw, which ``Oracle`` reads on a non-finite result
    _raw: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ValueError("noise level must lie in [0, 1)")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")

    def _seed_words(self, position: int) -> Array:
        """The four PCG64 seed words of ``default_rng([seed, position])``."""
        block, row = divmod(position, _BLOCK)
        key = (self.seed, block)
        if self._block[0] != key:
            self._block = (key, _seed_block(self.seed, block))
        return self._block[1][row]

    def _draw(self, fn, x: Array):
        """fn(x) with the noise of the current position, which it uses up; unchecked."""
        self._raw = raw = fn(x)
        out = apply_noise(self, raw, self._position)
        self._position += 1
        return out

    def _dense_hess(self, x: Array) -> Array:
        return np.asarray(self.inner._hess(x), dtype=float)


class Oracle:
    """Counted, checked evaluations of a problem or a noisy oracle.

    It is the one place an evaluation is checked for finiteness and a
    :class:`NonFiniteError` raised.  A run makes every evaluation through one,
    inside one ``np.errstate`` of its own, and the zero-objective-call
    guarantee reads ``f_evals``; a direct ``value``, ``grad`` or ``hess`` call
    makes its one evaluation through a fresh one.
    """

    def __init__(self, target):
        self.target = target
        if isinstance(target, NoisyOracle):
            fns = (target.inner.fn, target.inner.grad_fn, target._dense_hess)
            self._value, self._grad, self._hess = (functools.partial(target._draw, fn) for fn in fns)
        else:
            self._value, self._grad, self._hess = target.fn, target.grad_fn, target._hess
        self.f_evals = self.g_evals = self.h_evals = 0

    def value(self, x: Array) -> float:
        self.f_evals += 1
        v = float(self._value(x))
        if not math.isfinite(v):
            self._reject("value")
        return v

    def grad(self, x: Array) -> tuple:
        """The gradient g and g.g, which is its one finiteness check: a finite
        g.g means a finite g, and only an infinite one, which may come from a
        finite g whose squares overflow, is checked entry by entry."""
        self.g_evals += 1
        g = self._grad(x)
        # ndarray.dot spares part of @'s overhead and differs from @ only in
        # the sign of a zero result, which is +0.0 for a sum of squares
        gg = float(g.dot(g))
        if not math.isfinite(gg) and not np.isfinite(g).all():
            self._reject("gradient")
        return g, gg

    def hess(self, x: Array) -> Array | Bands:
        self.h_evals += 1
        H = self._hess(x)
        if not all_finite(H):
            self._reject("Hessian")
        return H

    def _reject(self, kind: str):
        """Raise the NonFiniteError of a non-finite "value", "gradient" or "Hessian".

        Only a finite raw noisy evaluation uses up its draw, as it always has,
        so a caller that catches the error (sdba's backtracking) keeps its
        stream: the draw of a non-finite raw value is given back.
        """
        target = self.target
        if isinstance(target, NoisyOracle):
            if not all_finite(target._raw):
                target._position -= 1
            raise NonFiniteError(f"non-finite noisy {kind} evaluating problem '{target.inner.name}'")
        what = "objective value" if kind == "value" else kind
        raise NonFiniteError(f"non-finite {what} evaluating problem '{target.name}'")


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
    # a non-integral n fails its check too, where int() would round it down
    if n != int(n) or (check is not None and not check(int(n))):
        raise DimensionError(f"problem '{name}' requires {reason}, got n={n}")
    return builder(int(n))


# -- shared parts -------------------------------------------------------------


def _sum_of_squares(name, n, x0, residual, jac=None, curvature=None, both=None):
    """f = sum r_i^2 with gradient 2 J'r and Hessian 2 J'J + the residuals'
    second-derivative term, which ``curvature(x, r, H)`` adds in place; no
    Hessian without it.  ``both(x)``, given in place of ``jac``, returns
    ``(r, J)`` with the work the two share done once."""
    if both is None:
        def both(x):
            return residual(x), jac(x)

    def fn(x):
        return (residual(x) ** 2).sum()

    def grad(x):
        r, J = both(x)
        return 2.0 * J.T @ r

    def hess(x):
        r, J = both(x)
        H = 2.0 * J.T @ J
        curvature(x, r, H)
        return H

    return ProblemInstance(name, n, x0, 0.0, fn, grad, hess if curvature else None)


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
        return Bands((d, -400.0 * x[:-1]))

    x0 = np.where(np.arange(n) % 2 == 0, -1.2, 1.0)
    return ProblemInstance("rosenbr", n, x0, 0.0, fn, grad, hess)


@_register("broyden3d", 10, lambda n: n >= 2, "n >= 2")
def _broyden3d(n):
    def residual(x):
        # (3 - 2 x_i) x_i - x_{i-1} - 2 x_{i+1} + 1 with x_0 = x_{n+1} = 0, in
        # that order; the terms left out at the ends would subtract an exact 0
        r = (3.0 - 2.0 * x) * x
        r[1:] -= x[:-1]
        r[:-1] -= 2.0 * x[1:]
        r += 1.0
        return r

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
        return Bands((2.0 * diag - 8.0 * residual(x), 2.0 * (-2.0 * d[:-1] - d[1:]),
                      np.full(n - 2, 4.0)))

    x0 = -np.ones(n)
    return ProblemInstance("broyden3d", n, x0, 0.0, fn, grad, hess)


@_register("broydenbd", 10, lambda n: n >= 2, "n >= 2")
def _broydenbd(n):
    # row i couples to its neighbours j in [i - 5, i + 1], j != i: the pairs
    # (i, j) in row-major order, so each sum below accumulates in the order of
    # the per-row loop it replaces
    rows, cols = np.array([(i, j) for i in range(n) for j in range(max(0, i - 5), min(n, i + 2))
                           if j != i]).T
    diag = np.arange(n)

    def residual(x):
        xj = x[cols]
        return x * (2.0 + 5.0 * x**2) + 1.0 - np.bincount(rows, xj * (1.0 + xj), n)

    def jac(x):
        J = np.zeros((n, n))
        J[diag, diag] = 2.0 + 15.0 * x**2
        J[rows, cols] = -(1.0 + 2.0 * x[cols])
        return J

    def curvature(x, r, H):
        d = 60.0 * x * r
        np.add.at(d, cols, -4.0 * r[rows])
        H[diag, diag] += d

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
    return ProblemInstance("arwhead", n, x0, 0.0, fn, grad, hess)


def _quadratic_instance(name, n, A, b, c, x0, f_low):
    """f(x) = 0.5 x'Ax + b'x + c, A dense or ``Bands``, whose Lipschitz
    constant is exact."""

    def fn(x):
        return 0.5 * x @ (A @ x) + b @ x + c

    def grad(x):
        return A @ x + b

    def hess(x):
        return A.copy()

    return ProblemInstance(name, n, x0, f_low, fn, grad, hess, lipschitz_exact=True)


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
    return _quadratic_instance("tridia", n, Bands((d, -4.0 * wgt)), b, 1.0, np.ones(n), 0.0)


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
    def fn(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return (
            100.0 * ((b - a**2) ** 2).sum()
            + ((1.0 - a) ** 2).sum()
            + 90.0 * ((d - c**2) ** 2).sum()
            + ((1.0 - c) ** 2).sum()
            + 10.0 * ((b + d - 2.0) ** 2).sum()
            + 0.1 * ((b - d) ** 2).sum()
        )

    def grad(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        ab, cd, bd, diff = b - a**2, d - c**2, 20.0 * (b + d - 2.0), 0.2 * (b - d)
        g = np.empty_like(x)
        g[0::4] = -400.0 * a * ab - 2.0 * (1.0 - a)
        g[1::4] = 200.0 * ab + bd + diff
        g[2::4] = -360.0 * c * cd - 2.0 * (1.0 - c)
        g[3::4] = 180.0 * cd + bd - diff
        return g

    def hess(x):
        # the 4 x 4 blocks' entries on the diagonal and upper bands 1 and 2
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        diag, up1, up2 = np.zeros(n), np.zeros(n - 1), np.zeros(n - 2)
        diag[0::4] = -400.0 * (b - a**2) + 800.0 * a**2 + 2.0
        diag[1::4] = 200.0 + 20.0 + 0.2
        diag[2::4] = -360.0 * (d - c**2) + 720.0 * c**2 + 2.0
        diag[3::4] = 180.0 + 20.0 + 0.2
        up1[0::4], up1[2::4], up2[1::4] = -400.0 * a, -360.0 * c, 20.0 - 0.2
        return Bands((diag, up1, up2))

    x0 = np.tile([-3.0, -1.0, -3.0, -1.0], n // 4)
    return ProblemInstance("woods", n, x0, 0.0, fn, grad, hess)


@_register("powellsg", 12, lambda n: n >= 4 and n % 4 == 0, "n a positive multiple of 4")
def _powellsg(n):
    def fn(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return (
            ((a + 10.0 * b) ** 2).sum()
            + 5.0 * ((c - d) ** 2).sum()
            + ((b - 2.0 * c) ** 4).sum()
            + 10.0 * ((a - d) ** 4).sum()
        )

    def grad(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        ab, cd, bc3, ad3 = a + 10.0 * b, c - d, (b - 2.0 * c) ** 3, (a - d) ** 3
        g = np.empty_like(x)
        g[0::4] = 2.0 * ab + 40.0 * ad3
        g[1::4] = 20.0 * ab + 4.0 * bc3
        g[2::4] = 10.0 * cd - 8.0 * bc3
        g[3::4] = -10.0 * cd - 40.0 * ad3
        return g

    def hess(x):
        # the 4 x 4 blocks' entries on the diagonal and upper bands 1 to 3
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        ad2, bc2 = (a - d) ** 2, (b - 2.0 * c) ** 2
        diag, up1, up3 = np.zeros(n), np.zeros(n - 1), np.zeros(n - 3)
        diag[0::4], diag[1::4] = 2.0 + 120.0 * ad2, 200.0 + 12.0 * bc2
        diag[2::4], diag[3::4] = 10.0 + 48.0 * bc2, 10.0 + 120.0 * ad2
        up1[0::4], up1[1::4], up1[2::4], up3[0::4] = 20.0, -24.0 * bc2, -10.0, -120.0 * ad2
        return Bands((diag, up1, np.zeros(n - 2), up3))

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], n // 4)
    return ProblemInstance("powellsg", n, x0, 0.0, fn, grad, hess)


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
        return Bands((d, 8.0 * x[:-1] * x[1:]))

    x0 = np.full(n, 2.0)
    return ProblemInstance("engval1", n, x0, 0.0, fn, grad, hess)


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

    def both(x):
        # the residual and the Jacobian from one pair of exponentials
        e0, e1 = np.exp(-t * x[0]), np.exp(-t * x[1])
        J = np.empty((10, 3))
        J[:, 0] = -t * e0
        J[:, 1] = t * e1
        J[:, 2] = -w
        return e0 - e1 - x[2] * w, J

    def curvature(x, r, H):
        H[0, 0] += 2.0 * (r * t**2 * np.exp(-t * x[0])).sum()
        H[1, 1] += 2.0 * (r * (-(t**2)) * np.exp(-t * x[1])).sum()

    return _sum_of_squares("box3", n, np.array([0.0, 10.0, 20.0]), residual,
                           curvature=curvature, both=both)


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
    return ProblemInstance("cube", n, x0, 0.0, fn, grad, hess)


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
    return ProblemInstance("vardim", n, x0, 0.0, fn, grad, hess)


@_register("nondquar", 10, lambda n: n >= 3, "n >= 3")
def _nondquar(n):
    # term i adds 12 u_i^2 at every pair of (i, i + 1, n - 1), in the order
    # (term, row, column) that fixes how each entry accumulates
    idx = np.stack([np.arange(n - 2), np.arange(1, n - 1), np.full(n - 2, n - 1)], axis=1)
    rows, cols = np.repeat(idx, 3, axis=1).ravel(), np.tile(idx, 3).ravel()

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
        np.add.at(H, (rows, cols), np.repeat(12.0 * u**2, 9))
        return H

    x0 = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return ProblemInstance("nondquar", n, x0, 0.0, fn, grad, hess)


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
    return ProblemInstance("nlminsurf", n, x0, 1.0, fn, grad, None)


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
        u, c = x[: 2 * m] * x[m:] ** 3, np.full(m, 0.125)
        # the bands do not overlap, so each entry is exact; a -0.0 reads as +0.0
        return np.diag(d) + np.diag(u, m) + np.diag(u, -m) + np.diag(c, 2 * m) + np.diag(c, -2 * m)

    x0 = np.full(n, 2.0)
    return ProblemInstance("dixmaana", n, x0, 1.0, fn, grad, hess)


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
