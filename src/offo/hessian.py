"""Bounded symmetric curvature models for the quadratic step model.

Three classes: ``ZeroModel`` (``none``), ``LbfgsModel`` (``lbfgs3``, M=3 direct
BFGS updates on the spectral base scale * I, held in compact form so that a
product costs O(n M); ``bb`` is its memory 0) and ``ExactModel`` (``exact``,
the true Hessian, refreshed per iterate).  Each supplies a raw operator and
its spectral norm ||B||, computed once per operator: ``|scale|`` for bb,
``spectral_norm`` of a 2M x 2M matrix from the compact form (O(n M^2)) for
L-BFGS, and for exact ``spectral_norm``, which also gives a quadratic's
Lipschitz constant: a certified row-sum bound for band form (a Hessian that
arrives as ``Bands``, its diagonal and upper bands, the form banded problems
return, past the measured crossover), in O(n b) and never dense, and one
``eigvalsh`` for dense.  Every other raw norm is exact up to a backward error
of order eps ||B||, and the banded bound lies above ||B||; every product goes
through the shared cap, which rescales the operator by ``kappa_B / ||B||``
whenever ``||B|| > kappa_B``, ||B|| standing for the raw norm or bound.  Only
the exact model offers its diagonal as the box subproblem's Jacobi
preconditioner (``jacobi_diagonal``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

Array = np.ndarray

#: secant pairs are accepted only when y's + pair curvature clears this guard
SECANT_GUARD = 1e-15


@dataclass(frozen=True)
class CurvatureModel:
    """A raw symmetric operator under the spectral-norm cap ``kappa_B``.

    Subclasses supply ``_raw_matvec`` and ``_raw_norm`` (exact up to a
    backward error of order eps ||B||, or a certified bound above ||B|| for a
    band Hessian); ``raw_norm`` and the cap ``factor``
    are fixed whenever an instance is built, so every ``update`` or
    ``with_matrix`` computes them once.
    """

    is_zero = False
    #: whether the iteration must bind the true Hessian via ``with_matrix``
    needs_hessian = False
    kappa_B: float = 1e5
    rejected: int = 0
    raw_norm: float = field(init=False, repr=False)
    factor: float = field(init=False, repr=False)

    def __post_init__(self):
        raw = self._raw_norm()
        object.__setattr__(self, "raw_norm", raw)
        object.__setattr__(self, "factor", self.kappa_B / raw if raw > self.kappa_B else 1.0)

    def _raw_norm(self) -> float:
        return 0.0

    def update(self, s: Array, y: Array) -> "CurvatureModel":
        return self

    def matvec(self, v: Array) -> Array:
        w = self._raw_matvec(np.asarray(v, dtype=float))
        return w if self.factor == 1.0 else self.factor * w

    def norm_estimate(self) -> float:
        """Spectral norm of the capped operator (computed, not estimated)."""
        return min(self.raw_norm, self.kappa_B)

    def jacobi_diagonal(self) -> Optional[Array]:
        """The positive diagonal that preconditions the box subproblem's CG,
        or None for plain CG.  Only the exact model offers one: Jacobi
        preconditioning took L-BFGS's box subproblems more products, not
        fewer."""
        return None


@dataclass(frozen=True)
class ZeroModel(CurvatureModel):
    is_zero = True

    def _raw_matvec(self, v: Array) -> Array:
        return np.zeros_like(v)


@dataclass(frozen=True)
class LbfgsModel(CurvatureModel):
    """Direct (non-inverse) limited-memory BFGS operator on a spectral base.

    The base is scale * I with the spectral scalar (Barzilai & Borwein 1988)
    of the latest accepted pair; the ``memory`` latest pairs are applied as
    rank-two BFGS corrections, so the most recent one satisfies B s = y, and
    memory 0 is the ``bb`` model.  The compact form (Byrd, Nocedal & Schnabel
    1994) ``B = scale I + W diag(D) W^T``, W = [u_1, y_1, ...], is built once
    per operator and serves both the product and the norm.
    """

    memory: int = 3
    scale: float = 1.0
    pairs: tuple = ()
    W: Array = field(init=False, repr=False)
    D: Array = field(init=False, repr=False)

    def __post_init__(self):
        # pair j adds u = B_{j-1} s and y, weighted -1/(s^T u) and 1/(y^T s)
        n = self.pairs[0][0].size if self.pairs else 0
        W, D, k = np.empty((n, 2 * len(self.pairs))), np.empty(2 * len(self.pairs)), 0
        for s, y in self.pairs:
            u = self.scale * s + W[:, :k] @ (D[:k] * (s @ W[:, :k]))
            c = float(s @ u)
            d = float(y @ s)
            if c <= 0.0 or d <= 0.0:
                # degenerate intermediate curvature: skip this correction
                continue
            W[:, k], W[:, k + 1], D[k : k + 2] = u, y, (-1.0 / c, 1.0 / d)
            k += 2
        object.__setattr__(self, "W", W[:, :k])
        object.__setattr__(self, "D", D[:k])
        super().__post_init__()

    def update(self, s: Array, y: Array) -> "LbfgsModel":
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        sts = float(s @ s)
        yts = float(y @ s)
        if not (sts > 0.0 and yts >= SECANT_GUARD * sts):
            return replace(self, rejected=self.rejected + 1)
        # bb (memory 0) keeps no pair; [-0:] would keep them all
        pairs = (self.pairs + ((s.copy(), y.copy()),))[-self.memory :] if self.memory else ()
        return replace(self, scale=sts / yts, pairs=pairs)

    def _raw_matvec(self, v: Array) -> Array:
        w = self.scale * v
        if self.D.size:
            # (v^T W) D transposed back serves a vector and an n x k block alike
            w += self.W @ (self.D * (v.T @ self.W)).T
        return w

    def _raw_norm(self) -> float:
        # W = Q R: B acts as scale I + R D R^T on range(Q) and as scale I on
        # its complement
        if not self.D.size:
            return abs(self.scale)
        R = np.linalg.qr(self.W, mode="r")
        norm = spectral_norm(self.scale * np.eye(R.shape[0]) + (R * self.D) @ R.T)
        return norm if R.shape[0] == self.W.shape[0] else max(norm, abs(self.scale))


#: smallest n at which a banded Hessian is kept in band form
_BAND_MIN_N = 512
_EPS = np.finfo(float).eps


class Bands(tuple):
    """A symmetric band matrix as its diagonal and upper bands 1..b, band k
    holding the n - k entries (i, i + k).  ``bands @ v`` is the O(n b) band
    product and ``np.asarray(bands)`` the dense n x n matrix."""

    def __matmul__(self, v: Array) -> Array:
        """The matrix times v, a vector or an n x k block."""
        shape = (-1,) + (1,) * (v.ndim - 1)
        w = self[0].reshape(shape) * v
        for k, band in enumerate(self[1:], 1):
            band = band.reshape(shape)
            w[:-k] += band * v[k:]
            w[k:] += band * v[:-k]
        return w

    def __array__(self, dtype=None, copy=None) -> Array:
        # numpy casts the result to a requested dtype
        n = self[0].size
        i = np.arange(n)
        # every page written, so its resident size does not depend on huge pages
        H = np.full((n, n), 0.0)
        for k, band in enumerate(self):
            H[i[: n - k], i[k:]] = H[i[k:], i[: n - k]] = band
        return H

    def copy(self) -> "Bands":
        return Bands(band.copy() for band in self)


def _band_norm(bands: Bands) -> float:
    """A certified upper bound on max|eigenvalue| of a symmetric band matrix:
    its largest absolute row sum (Gershgorin 1931; Golub & Van Loan, Matrix
    Computations, 4th ed., 2.3 and 7.2.1), padded past rounding, in O(n b).
    NaN when that sum is not finite, as eigvalsh gives for such a matrix."""
    radius = Bands([np.abs(band) for band in bands]) @ np.ones_like(bands[0])
    top = float(radius.max())
    if not math.isfinite(top):
        return float("nan")
    # a row sum takes 2b additions of non-negative terms, each rounding by at
    # most eps / 2 relative, and the padded product rounds once more
    return top * (1.0 + 2 * len(bands) * _EPS)


def in_band_form(H: Array | Bands) -> bool:
    """Whether a Hessian is kept as its bands: a ``Bands`` with n at or above
    ``_BAND_MIN_N``."""
    return isinstance(H, Bands) and H[0].size >= _BAND_MIN_N


def spectral_norm(H: Array | Bands) -> float:
    """max|eigenvalue| of a symmetric H, or a bound on it: a certified
    row-sum bound (``_band_norm``) for band form, one dense ``eigvalsh`` for
    any other H."""
    if in_band_form(H):
        return _band_norm(H)
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def _same_matrix(a: Array | Bands, b: Array | Bands) -> bool:
    """Whether two Hessians of one run are equal bit for bit: band for band,
    or as dense arrays."""
    a, b = (tuple(h) if isinstance(h, Bands) else (h,) for h in (a, b))
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@dataclass(frozen=True)
class ExactModel(CurvatureModel):
    """The true Hessian at the current iterate, bound by ``with_matrix``.

    A ``Bands`` Hessian with n at or above ``_BAND_MIN_N`` is kept as it is:
    the matvec is the O(n b) band product and the norm a certified row-sum
    bound (``_band_norm``), which may exceed ||H||, so the cap it sets is
    certified too.  Any other Hessian is made dense and symmetric, with a
    dense ``H @ v`` and one ``eigvalsh``.
    ``update`` drops the matrix, which belongs to the previous iterate, but
    keeps it aside with its norm, so that the next iterate's Hessian, when
    equal to it bit for bit (a quadratic's, banded or dense), reuses the norm
    and skips the bound or the ``eigvalsh``.

    ``jacobi_diagonal`` gives the box subproblem's Jacobi preconditioner:
    d = |diag H| floored at eps max(d).  A diagonal that is all zero or not
    finite gives None, and the subproblem's CG runs unpreconditioned.
    """

    needs_hessian = True
    H: Optional[Array | Bands] = None
    #: the previous iterate's Hessian and its norm
    _kept: Optional[tuple] = field(default=None, repr=False)

    def update(self, s: Array, y: Array) -> "ExactModel":
        kept = None if self.H is None else (self.H, self.raw_norm)
        return replace(self, H=None, _kept=kept)

    def with_matrix(self, H: Array | Bands) -> "ExactModel":
        if in_band_form(H):
            return replace(self, H=H)
        H = np.asarray(H, dtype=float)
        # a symmetric H already equals 0.5 (H + H^T) bit for bit; keeping it
        # spares an n x n copy next to the one eigvalsh makes
        if not np.array_equal(H, H.T):
            H = 0.5 * (H + H.T)
        return replace(self, H=H)

    def _raw_matvec(self, v: Array) -> Array:
        if self.H is None:
            raise RuntimeError("exact model used before a Hessian was bound")
        return self.H @ v

    def _raw_norm(self) -> float:
        if self.H is None:
            return 0.0
        kept = self._kept
        if kept is not None and _same_matrix(kept[0], self.H):
            return kept[1]
        return spectral_norm(self.H)

    def jacobi_diagonal(self) -> Optional[Array]:
        if self.H is None:
            return None
        d = np.abs(self.H[0] if isinstance(self.H, Bands) else np.diagonal(self.H))
        top = float(d.max())
        if not 0.0 < top < math.inf:
            return None
        return np.maximum(d, _EPS * top, out=d)


def check_kappa_B(kappa_B: float) -> None:
    """ValueError unless the cap kappa_B is at least 1 (NaN is not)."""
    if not kappa_B >= 1.0:
        raise ValueError("kappa_B must be >= 1")


#: the curvature models by selection name, each built as ``MODELS[kind](kappa_B=...)``;
#: ``bb`` is L-BFGS with memory 0, and any other memory is ``LbfgsModel(memory=m)``
MODELS = {
    "none": ZeroModel,
    "bb": partial(LbfgsModel, memory=0),
    "lbfgs3": partial(LbfgsModel, memory=3),
    "exact": ExactModel,
}


def check_model(kind: str) -> None:
    """ValueError unless ``kind`` names a model of :data:`MODELS`."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind '{kind}'; known: {', '.join(MODELS)}")


def make_model(kind: str, kappa_B: float = 1e5) -> CurvatureModel:
    """The curvature model of that name in :data:`MODELS`, under the cap kappa_B."""
    check_kappa_B(kappa_B)
    check_model(kind)
    return MODELS[kind](kappa_B=kappa_B)
