"""Bounded symmetric curvature models for the quadratic step model.

Four kinds: ``none`` (zero operator), ``bb`` (spectral diagonal built from
the latest secant pair), ``lbfgsM`` (M direct BFGS updates stacked on the
spectral diagonal) and ``exact`` (the true Hessian, refreshed per iterate).
Each model supplies a raw operator and its exact spectral norm ||B||; the
shared cap rescales the whole operator by ``kappa_B / ||B||`` whenever
``||B|| > kappa_B``, so the capped norm is at most ``kappa_B`` up to rounding.
The norm is computed once per new operator: ``scale`` for bb, a 2M x 2M
eigenproblem from the compact form of L-BFGS (O(n M^2) per update) and one
dense ``eigvalsh`` for exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

Array = np.ndarray

#: secant pairs are accepted only when y's + pair curvature clears this guard
SECANT_GUARD = 1e-15


@dataclass(frozen=True)
class CurvatureModel:
    """A raw symmetric operator under the spectral-norm cap ``kappa_B``.

    Subclasses supply ``_raw_matvec`` and ``_raw_norm`` (exact); ``raw_norm``
    and the cap ``factor`` are fixed whenever an instance is built, so every
    ``update`` or ``with_matrix`` computes them once.
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
        """Spectral norm of the capped operator (exact, not estimated)."""
        return min(self.raw_norm, self.kappa_B)


@dataclass(frozen=True)
class ZeroModel(CurvatureModel):
    is_zero = True

    def matvec(self, v: Array) -> Array:
        return np.zeros_like(np.asarray(v, dtype=float))


def _bb_scale(s: Array, y: Array) -> Optional[float]:
    sts = float(s @ s)
    yts = float(y @ s)
    if sts > 0.0 and yts >= SECANT_GUARD * sts:
        return sts / yts
    return None


@dataclass(frozen=True)
class BBDiagModel(CurvatureModel):
    scale: float = 1.0

    def update(self, s: Array, y: Array) -> "BBDiagModel":
        scale = _bb_scale(np.asarray(s, float), np.asarray(y, float))
        if scale is None:
            return replace(self, rejected=self.rejected + 1)
        return replace(self, scale=scale)

    def _raw_matvec(self, v: Array) -> Array:
        return self.scale * v

    def _raw_norm(self) -> float:
        return abs(self.scale)


@dataclass(frozen=True)
class LbfgsModel(CurvatureModel):
    """Direct (non-inverse) limited-memory BFGS operator on a spectral base.

    The base is scale * I with the usual spectral scalar from the latest
    accepted pair; stored pairs are applied as rank-two BFGS corrections
    ``- u u^T / c + y y^T / d``, so the most recent accepted pair satisfies
    the secant equation B s = y.
    """

    memory: int = 3
    scale: float = 1.0
    pairs: tuple = ()
    terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        terms = []
        for s, y in self.pairs:
            u = self.scale * s
            for tu, tc, ty, td in terms:
                u = u - tu * (tu @ s) / tc + ty * (ty @ s) / td
            c = float(s @ u)
            d = float(y @ s)
            if c <= 0.0 or d <= 0.0:
                # degenerate intermediate curvature: skip this correction
                continue
            terms.append((u, c, y, d))
        object.__setattr__(self, "terms", tuple(terms))
        super().__post_init__()

    def update(self, s: Array, y: Array) -> "LbfgsModel":
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        scale = _bb_scale(s, y)
        if scale is None:
            return replace(self, rejected=self.rejected + 1)
        pairs = (self.pairs + ((s.copy(), y.copy()),))[-self.memory :]
        return replace(self, scale=scale, pairs=pairs)

    def _raw_matvec(self, v: Array) -> Array:
        w = self.scale * v
        for u, c, y, d in self.terms:
            w = w - u * (u @ v) / c + y * (y @ v) / d
        return w

    def _raw_norm(self) -> float:
        # B = scale I + W D W^T with W = [u..., y...] = Q R: B acts as
        # scale I + R D R^T on range(Q) and as scale I on its complement
        if not self.terms:
            return abs(self.scale)
        u, c, y, d = zip(*self.terms)
        R = np.linalg.qr(np.column_stack(u + y), mode="r")
        D = np.concatenate([-1.0 / np.array(c), 1.0 / np.array(d)])
        lam = np.linalg.eigvalsh(self.scale * np.eye(R.shape[0]) + (R * D) @ R.T)
        norm = float(np.abs(lam).max())
        return norm if R.shape[0] == u[0].size else max(norm, abs(self.scale))


@dataclass(frozen=True)
class ExactModel(CurvatureModel):
    """The true Hessian at the current iterate, bound by ``with_matrix``.

    ``update`` drops the matrix: it belongs to the previous iterate, and
    freeing it before the next Hessian is evaluated keeps one n x n array
    fewer alive.
    """

    needs_hessian = True
    H: Optional[Array] = None

    def update(self, s: Array, y: Array) -> "ExactModel":
        return replace(self, H=None)

    def with_matrix(self, H: Array) -> "ExactModel":
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
        return 0.0 if self.H is None else float(np.abs(np.linalg.eigvalsh(self.H)).max())


def make_model(kind: str, kappa_B: float = 1e5) -> CurvatureModel:
    """Build a curvature model from its selection string (none|bb|lbfgsM|exact).

    ``lbfgsM`` keeps the M latest secant pairs; bare ``lbfgs`` keeps 3.
    """
    if kind in ("none", "zero"):
        return ZeroModel(kappa_B=kappa_B)
    if kind == "bb":
        return BBDiagModel(kappa_B=kappa_B)
    if kind.startswith("lbfgs"):
        mem = int(kind[5:] or 3)
        if mem < 1:
            raise ValueError("lbfgs memory must be positive")
        return LbfgsModel(kappa_B=kappa_B, memory=mem)
    if kind == "exact":
        return ExactModel(kappa_B=kappa_B)
    raise ValueError(f"unknown model kind '{kind}'; known: none, bb, lbfgsM, exact")
