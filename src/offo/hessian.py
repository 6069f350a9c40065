"""Bounded symmetric curvature models for the quadratic step model.

Three classes: ``ZeroModel`` (``none``), ``LbfgsModel`` (``lbfgs3``, M=3 direct
BFGS updates on the spectral base scale * I, held in compact form so that a
product costs O(n M); ``bb`` is its memory 0) and ``ExactModel`` (``exact``,
the true Hessian, refreshed per iterate).  Each supplies a raw operator and
its spectral norm ||B||, computed once per operator: ``|scale|`` for bb,
``spectral_norm`` of a 2M x 2M matrix from the compact form (O(n M^2)) for
L-BFGS, and for exact ``spectral_norm``, which also gives a quadratic's
Lipschitz constant: one dense ``eigvalsh`` or, for a tri- or pentadiagonal
Hessian that arrives as ``Bands`` (its diagonal and upper bands, the form
banded problems return) past the measured crossover, a Newton estimate
certified by inertia tests of those bands (Wilkinson, The Algebraic
Eigenvalue Problem, 1965; Golub & Van Loan, Matrix Computations, 4th ed.,
8.4; Kahan 1966), the first test's shifts placed by a Lanczos residual bound
and the Newton slopes from one recurrence for every band width; a band
Hessian is never made dense.  Every raw norm is exact up to a
backward error of order eps ||B|| (the banded one errs upward); every
product goes through the shared cap, which rescales the operator by
``kappa_B / ||B||`` whenever ``||B|| > kappa_B``.  Only the exact model
offers its diagonal as the box subproblem's Jacobi preconditioner
(``jacobi_diagonal``).
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
    backward error of order eps ||B||); ``raw_norm`` and the cap ``factor``
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


#: the widest band kept in band form (tri- and pentadiagonal Hessians)
_MAX_BAND = 2
#: smallest n at which a banded Hessian is kept in band form
_BAND_MIN_N = 512
#: the 128 shifts of a bisection sweep (7 bits for about the per-row cost of
#: one shift) inside a bracket, its ends left out
_GRID = np.arange(1, 129) / 129.0
#: the closing sweep's 128 shifts around a Newton estimate, in units of tol
_CLOSE = (np.arange(128) - 63.5) / 4.0
#: Newton steps on the characteristic polynomial before the closing sweep
_NEWTON_STEPS = 8
#: Lanczos steps whose extreme Ritz pairs place the first sweep, each one O(n)
#: band product; on the large-n norms 60 measured faster than 20, 40, 80 and 100
_LANCZOS_STEPS = 60
#: rows of pivots an inertia sweep holds at once
_PIVOT_ROWS = 256
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


def _band_pivots(bands: Bands, shifts: Array) -> tuple:
    """Whether every pivot of the unpivoted LDL^T of A - s I is negative, and
    whether every one is positive: two flags per shift s.

    By Sylvester's law of inertia the pivots' signs are the eigenvalue
    signs of A - s I, so A - s I is negative definite exactly when every
    pivot in its column is negative: s lies above the spectrum.  A zero
    pivot (or the NaN or infinity it leads to) fails both tests, which is
    the side that keeps an upper bound safe.  The Sturm recurrence for
    b = 1, the banded one for b = 2; one row at a time for all shifts.  The
    pivots are made and reduced ``_PIVOT_ROWS`` rows at a time, the two rows
    before a block carried over, so a sweep holds O(_PIVOT_ROWS) rows at any n.
    """
    a = bands[0]
    n = a.size
    neg = np.ones(shifts.size, dtype=bool)
    pos = neg.copy()
    # rows lo - 2 and lo - 1, then the block's rows lo..hi-1: row i is D[i - lo + 2]
    D = np.empty((_PIVOT_ROWS + 2, shifts.size))
    t = np.empty_like(shifts)
    u = np.empty_like(shifts)
    b = len(bands) - 1
    # coefficients are Python floats and rows come from iterating D: both
    # spare per-row indexing in the loops of n steps
    if b == 1:
        e2 = (bands[1] * bands[1]).tolist()
    elif b == 2:
        a1, a2 = bands[1].tolist(), bands[2]
        e2, m = (a2 * a2).tolist(), (-a2).tolist()
    # a zero pivot divides by zero; the infinity or NaN it yields is handled
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, n, _PIVOT_ROWS):
            hi = min(lo + _PIVOT_ROWS, n)
            block = D[2 : hi - lo + 2]
            np.subtract.outer(a[lo:hi], shifts, out=block)
            # the first row that the general recurrence serves
            g = max(lo, b)
            if b == 1:
                for c, prev, row in zip(e2[g - 1 : hi - 1], D[g - lo + 1 :], block[g - lo :]):
                    np.divide(c, prev, out=t)
                    row -= t
            elif b == 2:
                if lo <= 1 < hi:
                    l = a1[0] / D[2 - lo]  # L[i-1, i-2], the previous row's multiplier
                    D[3 - lo] -= a1[0] * l
                for e, mi, c, prev2, prev, row in zip(e2[g - 2 : hi - 2], m[g - 2 : hi - 2],
                                                      a1[g - 1 : hi - 1], D[g - lo :],
                                                      D[g - lo + 1 :], block[g - lo :]):
                    np.divide(e, prev2, out=t)
                    row -= t
                    np.multiply(l, mi, out=u)
                    u += c  # L[i, i-1] D[i-1]
                    np.divide(u, prev, out=l)
                    u *= l
                    row -= u
            # a flag once cleared stays so: most sweeps clear one kind in the first block
            if neg.any():
                neg &= (block < 0).all(axis=0)
            if pos.any():
                pos &= (block > 0).all(axis=0)
            D[:2] = D[hi - lo : hi - lo + 2]
    return neg, pos


def _narrow(lo: float, hi: float, shifts: Array, above: Array) -> tuple:
    """The bracket [lo, hi] on the largest eigenvalue after one sweep."""
    hi = shifts[above].min(initial=hi)
    lo = shifts[~above & (shifts < hi)].max(initial=lo)
    return lo, hi


def _band_slope(bands: Bands, s: float) -> float:
    """S(s) = sum_i D_i'/D_i = sum_j 1/(s - lambda_j), from the pivots D_i of
    the unpivoted LDL^T of A - s I and their derivatives in s; NaN on a zero
    pivot.

    det(A - s I) is the product of the pivots, so S is the derivative of
    log|det(A - s I)| and s - 1/S a Newton step on the characteristic
    polynomial.  The derivatives follow ``_band_pivots``' b = 2 recurrence
    term by term, one row at a time on Python floats; it is the only one, and
    a diagonal or tridiagonal matrix runs it with zero upper bands.
    """
    # row i's entries (i - 1, i) and (i - 2, i): band k moved down k rows, zero where absent
    shifted = np.zeros((2, bands[0].size))
    for k, band in enumerate(bands[1:], 1):
        shifted[k - 1, k:] = band
    a1, a2 = shifted
    # pivots one and two rows back, L[i-1, i-2], derivatives: row 0 gets a_0 - s and -1
    d2 = d = 1.0
    dp2 = dp = l = lp = total = 0.0
    try:
        for ai, c, e, m in zip((bands[0] - s).tolist(), a1.tolist(), (a2 * a2).tolist(),
                               (-a2).tolist()):
            u, up = c + l * m, lp * m  # L[i, i-1] D[i-1] and its derivative
            l = u / d
            lp = (up - l * dp) / d
            r = e / d2
            d2, dp2, d, dp = d, dp, ai - r - u * l, r * dp2 / d2 - 2.0 * l * up + l * l * dp - 1.0
            total += dp / d
        return total
    except ZeroDivisionError:
        return float("nan")


def _newton_top(bands: Bands, lo: float, hi: float, tol: float) -> float:
    """Newton's estimate of the largest eigenvalue in [lo, hi], from hi.

    From above the spectrum a step s - 1/S(s) lands in [lambda_max, s), and
    the steps converge quadratically once s - lambda_max is below the top
    gap.  The steps stop on one below tol / 8, on a slope that is not finite
    and positive, and on an iterate outside (lo, hi); at most
    ``_NEWTON_STEPS`` are taken.  The estimate is not certified.
    """
    s = hi
    for _ in range(_NEWTON_STEPS):
        slope = _band_slope(bands, s)
        if not 0.0 < slope < math.inf:
            break
        step = 1.0 / slope
        if not lo < s - step < hi:
            break
        s -= step
        if step < tol / 8:
            break
    return s


def _close(bands: Bands, lo: float, hi: float, tol: float) -> tuple:
    """The bracket after Newton steps from hi estimate the largest eigenvalue
    in [lo, hi] and a sweep spaced tol / 4 around the estimate tests it."""
    shifts = _newton_top(bands, lo, hi, tol) + tol * _CLOSE
    return _narrow(lo, hi, shifts, _band_pivots(bands, shifts)[0])


def _band_top(bands: Bands, lo: float, hi: float, tol: float) -> float:
    """The certified upper end of a bracket at most tol wide on the largest
    eigenvalue in [lo, hi], hi certified above it.

    One uniform sweep narrows the bracket and ``_close`` closes it; while it
    is still wider than tol, uniform sweeps bisect it.  Only the inertia
    tests certify.
    """
    newton = True
    while hi - lo > tol:
        shifts = lo + (hi - lo) * _GRID
        lo, hi = _narrow(lo, hi, shifts, _band_pivots(bands, shifts)[0])
        if newton and hi - lo > tol:
            newton = False
            lo, hi = _close(bands, lo, hi, tol)
    return float(hi)


def _ritz_range(bands: Bands) -> tuple:
    """The extreme Ritz values of a few Lanczos steps, inside the spectrum up
    to rounding, and their residual norms: an eigenvalue lies within r = beta_k |y_k| of
    a Ritz value whose vector y ends in y_k (Kahan 1967; Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 11), and r is 0 on breakdown."""
    # a fixed chirp, whose frequency runs from 0 to 2 pi along the vector, so
    # it meets every eigenvector of a Toeplitz-like band; being no random
    # draw, it leaves numpy.random unimported
    n = bands[0].size
    q = np.cos(np.arange(n) ** 2 * (np.pi / n) + 1.0)
    q /= np.linalg.norm(q)
    q_prev, beta = np.zeros_like(q), 0.0
    alphas, betas = [], []
    for _ in range(min(_LANCZOS_STEPS, q.size)):
        w = bands @ q - beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta == 0.0:
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    k = len(alphas)
    T = np.diag(alphas) + np.diag(betas[: k - 1], 1)
    theta, Y = np.linalg.eigh(T, UPLO="U")
    r = np.abs(Y[-1, [0, -1]]) * (betas[-1] if len(betas) == k else 0.0)
    return theta[0], theta[-1], r[0], r[1]


def _band_norm(bands: Bands) -> float:
    """An upper bound on max|eigenvalue| of a symmetric band matrix, within a
    few ulps of it; each inertia test is exact for a matrix within the
    LDL^T's backward error (of order eps times the norm) of this one.

    Gershgorin bounds bracket the spectrum; Lanczos Ritz values pick the
    side that holds max|eigenvalue| (the matrix is negated when it is the
    bottom).  The first sweep spreads its shifts evenly over (t, t + 2 r],
    t that side's Ritz value and r its residual norm, capped at the
    Gershgorin bound.  When a shift lies above the spectrum, Newton steps
    from the lowest such and a closing sweep follow at once; ``_band_top``
    finishes the bracket, by bisection should Lanczos have missed the top
    or Newton stalled.  r only places shifts: the inertia tests certify.  A
    positive-definiteness test in the first sweep rules the other side out;
    should it fail, the other side goes through ``_band_top`` too.
    """
    a = bands[0]
    radius = Bands([np.zeros_like(a)] + [np.abs(band) for band in bands[1:]]) @ np.ones_like(a)
    glo, ghi = float((a - radius).min()), float((a + radius).max())
    scale = max(-glo, ghi)
    if not np.isfinite(scale):
        return float("nan")  # as eigvalsh gives for such a matrix
    if scale == 0.0:
        return 0.0
    # padded past the rounding of a +- radius
    glo, ghi = glo - 8 * _EPS * scale, ghi + 8 * _EPS * scale
    tol = 4 * _EPS * scale
    tmin, tmax, rmin, rmax = _ritz_range(bands)
    if tmax < -tmin:
        bands, glo, ghi, tmax, rmax = Bands(-band for band in bands), -ghi, -glo, -tmin, rmin
    x = tmax * (1.0 - 2.0**-30)  # just below the top, for the other side's test
    shifts = np.append(x, np.linspace(tmax, min(ghi, tmax + 2.0 * rmax), 129)[1:])
    neg, pos = _band_pivots(bands, np.append(shifts, -x))
    above, bottom_clear = neg[:-1], pos[-1]
    lo, hi = _narrow(glo, ghi, shifts, above)
    if above.any() and hi - lo > tol:
        lo, hi = _close(bands, lo, hi, tol)
    hi = _band_top(bands, lo, hi, tol)
    if x <= hi and bottom_clear:
        return hi
    return max(hi, _band_top(Bands(-band for band in bands), -ghi, -glo, tol))


def in_band_form(H: Array | Bands) -> bool:
    """Whether a Hessian is kept as its bands: a ``Bands`` of half-bandwidth
    at most ``_MAX_BAND`` with n at or above ``_BAND_MIN_N``."""
    return isinstance(H, Bands) and H[0].size >= _BAND_MIN_N and len(H) <= _MAX_BAND + 1


def spectral_norm(H: Array | Bands) -> float:
    """max|eigenvalue| of a symmetric H: ``_band_norm`` for H in band form,
    an upper bound up to the LDL^T's backward error, and one dense
    ``eigvalsh`` otherwise."""
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

    A ``Bands`` Hessian of half-bandwidth b <= 2 with n at or above
    ``_BAND_MIN_N`` is kept as it is: the matvec is the O(n b) band product
    and the norm a Newton estimate certified by inertia tests
    (``_band_norm``) whose upper end it returns, an upper bound up to the
    LDL^T's backward error of order eps ||H||.  Any other Hessian is made
    dense and symmetric, with a dense ``H @ v`` and one ``eigvalsh``.
    ``update`` drops the matrix, which belongs to the previous iterate, but
    keeps it aside with its norm, so that the next iterate's Hessian, when
    equal to it bit for bit (a quadratic's, banded or dense), reuses the norm
    and skips the search or the ``eigvalsh``.

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
