"""Truncated SVD factor splitting, with optional importance weighting.

Minimizing ||sqrt(F) . (A - L1 L2)||_F over rank-r factors is hard in
general, but when the weights separate as F_ij ~ (r_i c_j)^2 the problem
reduces to an SVD of the row/column rescaled matrix.  The weighted path
therefore scales A by the row and column means of sqrt(F), factorizes,
and unscales the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import _chunks

SVD_METHODS = ("exact", "randomized")

# Defaults of the sketching method: Gaussian test matrix with a fixed
# oversampling margin and two power iterations, each normalized by a
# Householder QR.  A warm call, given the previous factors' L2, tests
# with its rows plus OVERSAMPLE Gaussian columns and takes no power
# steps: in the alternating loop each outer iteration already acts as
# one.
OVERSAMPLE = 8
POWER_ITERS = 2
WARM_POWER_ITERS = 0

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class LowRankFactors:
    """A rank-r approximation split as L1 (d x r) times L2 (r x k)."""

    l1: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        l1 = np.asarray(self.l1)
        l2 = np.asarray(self.l2)
        if l1.ndim != 2 or l2.ndim != 2 or l1.shape[1] != l2.shape[0]:
            raise ValueError(f"inconsistent factor shapes {l1.shape} and {l2.shape}")
        if not (np.all(np.isfinite(l1)) and np.all(np.isfinite(l2))):
            raise ValueError("factors must be finite")

    @property
    def rank(self) -> int:
        return self.l1.shape[1]

    def product(self, out: np.ndarray = None) -> np.ndarray:
        """Dense reconstruction, accumulated in float64, into `out` when given."""
        return np.matmul(np.asarray(self.l1, dtype=np.float64),
                         np.asarray(self.l2, dtype=np.float64), out=out)


def _rayleigh_ritz(a, y, rank: int):
    """Best rank-`rank` factors of `a` projected onto the range of the sketch `y`.

    The basis is the shifted Cholesky-QR of y (Fukaya et al., SIAM J.
    Sci. Comput. 2020), Q = y C^-T with C C^T = y^T y + delta I, and the
    Ritz step (Halko, Martinsson & Tropp, arXiv:0909.4061 section 5)
    takes the top eigenpairs of B B^T for B = Q^T a.  Only small
    sketch-sized dense problems are solved; the shift keeps a
    rank-deficient or all-zero sketch factorizable and drops the
    directions it cannot resolve.
    """
    # scaled to unit size so that neither Gram matrix can overflow
    y = y / max(np.abs(y).max(), _TINY)
    g = y.T @ y
    c = np.linalg.cholesky(g + (1e-13 * np.trace(g) + _TINY) * np.eye(g.shape[0]))
    c_inv = np.linalg.inv(c)
    b = c_inv @ (y.T @ a)
    b_max = max(np.abs(b).max(), _TINY)
    unit = b / b_max
    lam, u = np.linalg.eigh(unit @ unit.T)
    u = u[:, ::-1][:, :rank]
    root = np.sqrt(np.sqrt(np.maximum(lam[::-1][:rank], 0.0)) * b_max)
    # a direction with a zero singular value gets zero factors
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    return y @ (c_inv.T @ (u * root)), (u * inv_root).T @ b


@dataclass(frozen=True)
class WeightScalers:
    """An importance matrix F, checked: sqrt(F) and its positive row/column scalers."""

    root: np.ndarray
    d_row: np.ndarray
    d_col: np.ndarray


def fisher_scalers(f) -> WeightScalers:
    """Check F once and derive sqrt(F) with its row and column means.

    Means below 1e-8 of the largest mean on the same axis are clamped to
    that floor; an all-zero F degrades to all-ones scalers so the
    weighted path coincides with the unweighted one.  A `WeightScalers`
    is returned as it is, so callers may pass either form on.
    """
    if isinstance(f, WeightScalers):
        return f
    f = np.asarray(f)
    if f.dtype.kind != "f" or f.itemsize > 8:  # a float F is checked and rooted as given
        f = f.astype(np.float64)
    if f.ndim != 2:
        raise ValueError("expected a 2-d importance matrix")
    if not np.all(np.isfinite(f)):
        raise ValueError("importance weights must be finite")
    if np.any(f < 0):
        raise ValueError("importance weights must be nonnegative")
    root = np.sqrt(f, dtype=np.float64)
    row = root.mean(axis=1)
    col = root.mean(axis=0)
    if row.max() == 0.0:
        return WeightScalers(root=root, d_row=np.ones_like(row), d_col=np.ones_like(col))
    row = np.maximum(row, 1e-8 * row.max())
    col = np.maximum(col, 1e-8 * col.max())
    return WeightScalers(root=root, d_row=row, d_col=col)


def factorize(a, f=None, rank: int = 1, method: str = "exact", seed: int = 0,
              start=None, *, _overwrite: bool = False) -> LowRankFactors:
    """Best (or sketched) rank-`rank` factors, importance-weighted when `f` is given.

    The singular spectrum is split evenly: L1 = U sqrt(S), L2 = sqrt(S) V^T,
    so both factors carry the same Frobenius norm.  `f` is an importance
    matrix or the `WeightScalers` of one; the weighted path factorizes
    the row/column scaled matrix and unscales the factors.  `start`, a
    rank x k L2 of a nearby matrix in the same (unscaled) coordinates as
    the result, warm-starts the randomized range finder; the exact method
    checks its shape but does not use it.  No argument is written to, but
    the alternating loop's `_overwrite` lets it scale its dead residual.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    d, k = a.shape
    if not 1 <= rank <= min(d, k):
        raise ValueError(f"rank must lie in [1, {min(d, k)}], got {rank}")
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (rank, k):
            raise ValueError(f"start shape {start.shape} does not match {(rank, k)}")
    scalers = None
    if f is not None:
        scalers = fisher_scalers(f)
        if scalers.root.shape != a.shape:
            raise ValueError(f"importance shape {scalers.root.shape} does not match "
                             f"matrix shape {a.shape}")
        a = np.multiply(scalers.d_row[:, None], a, out=a if _overwrite else None)
        a *= scalers.d_col
        if start is not None:
            start = start * scalers.d_col[None, :]
    if method == "exact":
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        root = np.sqrt(s[:rank])
        l1, l2 = u[:, :rank] * root, root[:, None] * vt[:rank]
    elif method == "randomized":
        rng = np.random.default_rng(seed)
        sketch = min(min(d, k), rank + OVERSAMPLE)
        if start is None:
            omega, power = rng.standard_normal((k, sketch)), POWER_ITERS
        else:
            omega = np.hstack([start.T, rng.standard_normal((k, sketch - rank))])
            power = WARM_POWER_ITERS
        # Unit test columns: a warm start's rows scale like sqrt(s) of a
        # nearby matrix, the Gaussian columns do not, and a column of y
        # that falls under the shift should be one a hardly acts on, not
        # one of small scale.
        omega = omega / max(np.abs(omega).max(), _TINY)
        norms = np.linalg.norm(omega, axis=0)
        y = a @ (omega / np.where(norms > 0, norms, 1.0))
        # Power steps keep Householder QR: unnormalized, they would leave
        # y with a condition number near (s_1 / s_sketch)^(2 power + 1),
        # which a Gram matrix cannot carry.  The last product a @ z, of an
        # orthonormal z, is conditioned like a itself on the sketched range.
        for _ in range(power):
            q, _ = np.linalg.qr(y)
            z, _ = np.linalg.qr(a.T @ q)
            y = a @ z
        l1, l2 = _rayleigh_ritz(a, y, rank)
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {SVD_METHODS}")
    if scalers is not None:
        l1 = l1 / scalers.d_row[:, None]
        l2 = l2 / scalers.d_col[None, :]
    return LowRankFactors(l1=l1, l2=l2)


def _residual_into(acc, w, q, chunks) -> None:
    """acc = (W - Q) - acc in place, W - Q formed in float64 one chunk of rows at a time.

    `chunks` is ``_chunks(acc.size, acc.shape[1])``; Q may be None.  W is
    widened, and Q subtracted, in one scratch chunk made once per call.
    """
    scratch = np.empty_like(acc[chunks[0][1]]) if chunks else None
    for _, part, _ in chunks:
        diff = scratch[:part.stop - part.start]
        np.copyto(diff, w[part])
        if q is not None:
            diff -= q[part]
        np.subtract(diff, acc[part], out=acc[part])


def weighted_error(w, q_dequant=None, factors=None, f=None) -> float:
    """Frobenius norm of sqrt(F) . (W - (Q + L1 L2)), in float64.

    Either residual term may be omitted; without `f` the plain Frobenius
    norm of the residual is returned.  `f` is an importance matrix or
    the `WeightScalers` of one.  The residual is formed in one float64
    buffer of its own, (W - Q) - L1 L2 in that order; no argument is
    written to.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    q = None
    if q_dequant is not None:
        q = np.asarray(q_dequant)
        if q.shape != w.shape:
            raise ValueError(f"quantized shape {q.shape} does not match {w.shape}")
    if factors is not None:
        acc = factors.product()
        if acc.shape != w.shape:
            raise ValueError(f"factor shape {acc.shape} does not match {w.shape}")
        _residual_into(acc, w, q, _chunks(acc.size, acc.shape[1]))
    else:
        acc = np.asarray(w, dtype=np.float64) if q is None else np.subtract(w, q, dtype=np.float64)
    if f is not None:
        root = fisher_scalers(f).root
        if root.shape != acc.shape:
            raise ValueError(f"importance shape {root.shape} does not match {acc.shape}")
        if acc is w:  # the caller's float64 W is read, not scaled in place
            acc = root * acc
        else:
            acc *= root
    return float(np.linalg.norm(acc))
