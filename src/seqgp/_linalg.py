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

    LAPACK's ``potrf`` factors the Fortran view ``A.T`` in place; for a
    symmetric C-ordered matrix that view is the matrix itself, so no
    transposing copy is made.  Only the lower triangle of the view is read
    and overwritten with ``L``; its strict upper triangle keeps the matrix.
    With ``overwrite=False`` the working copy is a plain copy of ``A.T`` and
    ``matrix`` is never modified; with ``overwrite=True`` a C-ordered float
    ``matrix`` is the working copy and holds the factor afterwards.

    Tries each jitter in ``ladder`` until the factorization succeeds.  Before
    each retry the strict lower triangle that the failed attempt overwrote is
    restored from the untouched strict upper one, and the diagonal is set to
    the original diagonal plus the jitter.  The applied jitter is recorded on
    the instance and logged when nonzero.
    """

    def __init__(self, matrix: np.ndarray, ladder=JITTER_LADDER, overwrite: bool = False):
        from scipy.linalg.lapack import dpotrf

        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NumericalError(f"expected a square matrix, got shape {A.shape}")
        in_place = overwrite and A.flags.c_contiguous and A.flags.writeable
        work = A.T if in_place else np.array(A.T, order="F")
        diag = np.diag_indices(work.shape[0])
        d0 = work[diag].copy()
        self.jitter = None
        for attempt, jitter in enumerate(ladder):
            if attempt:
                _restore_lower(work)
            work[diag] = d0 + jitter
            self._chol, info = dpotrf(work, lower=1, clean=0, overwrite_a=1)
            if info:
                continue
            if not np.isfinite(np.diagonal(self._chol)).all():
                # any nonfinite entry of the lower triangle reaches the diagonal
                raise NumericalError("matrix to factorize has nonfinite entries")
            self.jitter = jitter
            if jitter:
                log.warning("factorization needed diagonal jitter %.1e", jitter)
            break
        else:
            _restore_lower(work)
            work[diag] = d0
            cond = _condition_estimate(work)
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


def inv_spd(A: np.ndarray, ladder=JITTER_LADDER) -> np.ndarray:
    return SpdSolver(A, ladder).solve(np.eye(np.asarray(A).shape[0]))


def _restore_lower(work: np.ndarray) -> None:
    """Copy the strict upper triangle of ``work`` into its strict lower one.

    One row at a time, reading contiguous columns of the Fortran-ordered
    ``work``: no temporary as large as the matrix.
    """
    for i in range(1, work.shape[0]):
        work[i, :i] = work[:i, i]


def _condition_estimate(A: np.ndarray) -> float:
    try:
        s = np.linalg.svd(A, compute_uv=False)
        return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    except np.linalg.LinAlgError:
        return float("nan")
