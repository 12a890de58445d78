"""Symmetric positive-definite solves with a diagonal jitter ladder.

The factorization and the triangular solves all come from ``scipy.linalg``,
imported on first use so that importing seqgp stays cheap.  numpy and scipy
each bundle their own OpenBLAS with its own thread pool; a numpy Cholesky
followed by a scipy triangular solve made the two pools contend, which
measured up to 3x slower with two BLAS threads.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import NumericalError

log = logging.getLogger(__name__)

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


class SpdSolver:
    """Cached Cholesky factorization ``A = L L'`` of a symmetric positive-definite matrix.

    Tries each jitter in ``ladder`` (added to the diagonal of one working
    copy) until the factorization succeeds; the applied jitter is recorded
    on the instance and logged when nonzero.  ``matrix`` itself is never
    modified.
    """

    def __init__(self, matrix: np.ndarray, ladder=JITTER_LADDER):
        from scipy.linalg import cholesky

        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NumericalError(f"expected a square matrix, got shape {A.shape}")
        self.jitter = None
        diag = np.diag_indices(A.shape[0])
        work = None
        for jitter in ladder:
            if jitter:
                if work is None:
                    work = A.copy()
                work[diag] = A[diag] + jitter
            try:
                self._chol = cholesky(work if jitter else A, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                continue
            if not np.isfinite(np.diagonal(self._chol)).all():
                # any nonfinite entry of the lower triangle reaches the diagonal
                raise NumericalError("matrix to factorize has nonfinite entries")
            self.jitter = jitter
            if jitter:
                log.warning("factorization needed diagonal jitter %.1e", jitter)
            break
        else:
            cond = _condition_estimate(A)
            raise NumericalError(
                f"symmetric factorization failed for every jitter in {tuple(ladder)}; "
                f"condition estimate {cond:.3e}"
            )

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """``L^{-1} b``: one triangular solve, batched over the columns of ``b``."""
        from scipy.linalg import solve_triangular

        return solve_triangular(self._chol, np.atleast_1d(b), lower=True, check_finite=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^{-1} b`` from the cached factor."""
        from scipy.linalg import cho_solve

        return cho_solve((self._chol, True), np.atleast_1d(b), check_finite=False)

    @property
    def lower(self) -> np.ndarray:
        return self._chol


def solve_spd(A: np.ndarray, b: np.ndarray, ladder=JITTER_LADDER) -> np.ndarray:
    return SpdSolver(A, ladder).solve(b)


def inv_spd(A: np.ndarray, ladder=JITTER_LADDER) -> np.ndarray:
    return SpdSolver(A, ladder).solve(np.eye(np.asarray(A).shape[0]))


def _condition_estimate(A: np.ndarray) -> float:
    try:
        s = np.linalg.svd(A, compute_uv=False)
        return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    except np.linalg.LinAlgError:
        return float("nan")
