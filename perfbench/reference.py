"""Independent restatements of the results the benchmark checks.

Everything here is written from the model's definitions with plain numpy and
scipy, not from seqgp's code paths, so a fast route in seqgp is checked
against arithmetic it does not share:

* the connectedness kernel is built in the log domain from one-hot
  encodings, with the sign carried by a parity count, where seqgp multiplies
  one fancy-indexed block per position;
* the Gaussian-process algebra uses scipy's Cholesky routines;
* zero-sum gauge-weight rows and background-averaged rows use their closed
  forms, worked out below for the connectedness blocks
  ``B_p = (1 - z_p) I + z_p J``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

# Conformance tolerance, as max abs error / max |reference|.  The CLI prints
# 10 significant digits, a relative rounding of at most 5e-10 per value,
# which stays well inside it.
TOLERANCE = 1e-8


def rel_error(out, ref) -> float:
    """Max abs error divided by max |reference|; inf on a shape mismatch."""
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return math.inf
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    err = float(np.max(np.abs(out - ref))) if ref.size else 0.0
    return err / scale if scale > 0 else err


def one_hot(X, alpha: int) -> np.ndarray:
    """``(n, ell * alpha)`` indicator matrix of position-character pairs."""
    X = np.asarray(X, dtype=np.int64)
    n, ell = X.shape
    out = np.zeros((n, ell * alpha))
    out[np.arange(n)[:, None], np.arange(ell) * alpha + X] = 1.0
    return out


def connectedness_kernel(X, Y, z, alpha: int) -> np.ndarray:
    """``K[n, m] = prod of z_p over the positions where X[n] and Y[m] differ``.

    ``log|K| = sum_p log|z_p| - sum_p log|z_p| [x_p == y_p]`` is one matrix
    product of one-hot encodings; the sign is ``(-1)`` to the number of
    differing positions with negative ``z_p``, another matrix product.
    """
    z = np.asarray(z, dtype=float)
    hx, hy = one_hot(X, alpha), one_hot(Y, alpha)
    log_abs = np.repeat(np.log(np.abs(z)), alpha)
    K = np.exp(np.log(np.abs(z)).sum() - (hx * log_abs) @ hy.T)
    negative = z < 0
    if negative.any():
        same_neg = np.rint((hx * np.repeat(negative, alpha)) @ hy.T).astype(np.int64)
        odd = (int(negative.sum()) - same_neg) % 2 == 1
        K[odd] = -K[odd]
    return K


class ConnectednessGp:
    """Exact GP posterior under a connectedness kernel, factored once."""

    def __init__(self, X, y, z, alpha: int, noise_variance: float):
        self.X, self.z, self.alpha = np.asarray(X), np.asarray(z, dtype=float), alpha
        A = connectedness_kernel(self.X, self.X, self.z, alpha)
        A[np.diag_indices_from(A)] += noise_variance
        self._factor = cho_factor(A, lower=True)
        self._coef = cho_solve(self._factor, np.asarray(y, dtype=float))

    def _whiten(self, cross: np.ndarray) -> np.ndarray:
        """``L^{-1} cross^T`` for the lower Cholesky factor ``L``."""
        return solve_triangular(self._factor[0], cross.T, lower=True)

    def predict(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and sd at query sequences (the kernel diagonal is 1)."""
        K_qX = connectedness_kernel(Q, self.X, self.z, self.alpha)
        W = self._whiten(K_qX)
        var = 1.0 - np.einsum("ij,ij->j", W, W)
        return K_qX @ self._coef, np.sqrt(np.clip(var, 0.0, None))

    def transform(self, MK_X: np.ndarray, MKMT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and covariance of ``M f`` given ``M K_X`` and ``M K M^T``."""
        W = self._whiten(MK_X)
        return MK_X @ self._coef, MKMT - W.T @ W


def zero_sum_weight_rows(keys, X, z, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """``M K_X`` and ``M K M^T`` for zero-sum gauge weights, connectedness kernel.

    ``keys`` holds ``(positions, chars)`` pairs with 0-based positions.  The
    weight row of a key has factor ``e_c - 1/alpha`` at its positions and
    ``1/alpha`` elsewhere.  Against ``B_p`` those give ``a_p = (1 - z_p)/alpha
    + z_p`` off the key and ``(1 - z_p)([x_p == c] - 1/alpha)`` on it.  In
    ``M K M^T`` a position held by one key only contributes
    ``(1 - z_p)(e_c - 1/alpha) . 1/alpha = 0``, so keys on different position
    sets are uncorrelated a priori.
    """
    X = np.asarray(X, dtype=np.int64)
    z = np.asarray(z, dtype=float)
    a = (1.0 - z) / alpha + z
    MK_X = np.empty((len(keys), X.shape[0]))
    for i, (pos, chars) in enumerate(keys):
        row = np.full(X.shape[0], np.prod(np.delete(a, list(pos))))
        for p, c in zip(pos, chars):
            row *= (1.0 - z[p]) * ((X[:, p] == c) - 1.0 / alpha)
        MK_X[i] = row
    MKMT = np.zeros((len(keys), len(keys)))
    for i, (pos_i, chars_i) in enumerate(keys):
        for k, (pos_k, chars_k) in enumerate(keys):
            if pos_i != pos_k:
                continue
            value = np.prod(np.delete(a, list(pos_i)))
            for p, ci, ck in zip(pos_i, chars_i, chars_k):
                value *= (1.0 - z[p]) * ((ci == ck) - 1.0 / alpha)
            MKMT[i, k] = value
    return MK_X, MKMT


def background_averaged_rows(keys, reference, alpha: int, ell: int) -> np.ndarray:
    """Background-averaged rows over every sequence in canonical order.

    Row value at ``x``: ``prod over key positions of ([x_p == c_p] -
    [x_p == r_p])`` times ``alpha**-(ell - |key|)``.  Canonical order counts
    in base ``alpha`` with the first position most significant.
    """
    index = np.arange(alpha ** ell)
    seqs = (index[:, None] // alpha ** np.arange(ell - 1, -1, -1)) % alpha
    M = np.empty((len(keys), seqs.shape[0]))
    for i, (pos, chars) in enumerate(keys):
        row = np.full(seqs.shape[0], float(alpha) ** -(ell - len(pos)))
        for p, c in zip(pos, chars):
            row *= (seqs[:, p] == c).astype(float) - (seqs[:, p] == reference[p])
        M[i] = row
    return M
