"""Exact posteriors over linear transforms of the function: one engine.

Every coefficient system the package offers (gauge-fixed weights,
hierarchical, zero-sum, wild-type, background-averaged, Fourier and
Walsh-Hadamard coefficients) is a factorized transform ``M`` of the
function, and its posterior is one conditioning step plus the two
contractions ``M K_X`` and ``M K M'``.  :func:`transform_posterior` is the
only engine for it; the command line and
:meth:`seqgp.estimators.GaugeGPRegressor.coefficient_posterior` both build
the rows with :func:`seqgp.gauges.transform_rows` and call it, and the
route is chosen inside it from the kernel type alone:

- product kernels factorize over positions like the rows do, so both
  contractions collapse to per-position sums (:func:`mk_matrix`,
  :func:`mkmt_matrix`).  Only objects of size ``j`` (rows) and ``t``
  (training sequences) are built; nothing of size ``alpha**ell``.
- any other kernel (the isotropic ``vc`` family) is streamed: the rows are
  evaluated on every sequence under the size guard and the kernel is folded
  in square blocks, so the largest arrays are ``(j, alpha**ell)``, never
  ``(alpha**ell, alpha**ell)``.
"""

from __future__ import annotations

import numpy as np

from ._linalg import JITTER_LADDER
from .errors import ParameterError
from .gauges import FactorizedTransform, GaugeSpec, _evaluate_rows, transform_rows
from .kernels import ProductKernel
from .regress import GaussianPosterior, TrainingData, whitened_cross
from .seqspace import Subsequence


def mk_matrix(transform: FactorizedTransform, kernel: ProductKernel, X) -> np.ndarray:
    """All rows against all sequences in ``X``, shape ``(j, len(X))``."""
    V = np.einsum("jpa,pab->jpb", transform.factors, kernel.blocks)
    return _evaluate_rows(V, np.asarray(X, dtype=np.int64))


def mkmt_matrix(transform: FactorizedTransform, kernel: ProductKernel) -> np.ndarray:
    V = np.einsum("jpa,pab->jpb", transform.factors, kernel.blocks)
    return np.einsum("ipb,jpb->ijp", V, transform.factors).prod(axis=2)


def mkmt_diagonal(transform: FactorizedTransform, kernel: ProductKernel) -> np.ndarray:
    """Diagonal of :func:`mkmt_matrix`, without the ``(j, j)`` matrix."""
    V = np.einsum("jpa,pab->jpb", transform.factors, kernel.blocks)
    return np.einsum("jpb,jpb->jp", V, transform.factors).prod(axis=1)


# side of the square kernel blocks that the streamed route of
# transform_posterior builds and folds in; each block is _STREAM_BLOCK**2
# floats (2 MiB at 512)
_STREAM_BLOCK = 512


def _streamed_mk(M: np.ndarray, kernel, S: np.ndarray) -> np.ndarray:
    """``M K`` for the kernel on the sequences ``S``, one square block pair at a time.

    Each pair ``A <= B`` of ``_STREAM_BLOCK``-sized slices of ``S`` is built
    once as ``K_AB = kernel.matrix(S[A], S[B])`` and, by symmetry, folded in
    twice: ``MK[:, B] += M[:, A] K_AB`` and, off the diagonal,
    ``MK[:, A] += M[:, B] K_AB'``.  Both products accumulate in scipy's BLAS
    (see :func:`seqgp.kernels._matmul_nt`).  ``M`` should be Fortran-ordered,
    like the returned ``MK``: their column blocks are then contiguous, so no
    operand is copied.
    """
    from scipy.linalg.blas import dgemm

    n, side = S.shape[0], _STREAM_BLOCK
    MK = np.zeros(M.shape, order="F")
    for lo_a in range(0, n, side):
        A = slice(lo_a, lo_a + side)
        for lo_b in range(lo_a, n, side):
            B = slice(lo_b, lo_b + side)
            K_BA = kernel.matrix(S[A], S[B]).T  # Fortran-ordered view
            MK[:, B] = dgemm(1.0, M[:, A], K_BA, 1.0, MK[:, B], trans_b=True,
                             overwrite_c=True)
            if lo_b != lo_a:
                MK[:, A] = dgemm(1.0, M[:, B], K_BA, 1.0, MK[:, A], overwrite_c=True)
    return MK


def transform_posterior(transform: FactorizedTransform, kernel, data: TrainingData,
                        want_covariance: bool = True,
                        ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior of the transform coefficients ``M f`` under the kernel's prior.

    A :class:`~seqgp.kernels.ProductKernel` takes :func:`mk_matrix` for
    ``M K_X`` and :func:`mkmt_matrix` (or :func:`mkmt_diagonal` when only
    variances are wanted) for ``M K M'``.  Any other kernel with a ``matrix``
    method is streamed: ``M`` is evaluated on every sequence (size-guarded)
    and ``M K`` comes from :func:`_streamed_mk`; ``M K_X`` is its columns at
    the training sequences and ``M K M'`` is ``(M K) M'``, in
    ``O(j alpha**ell)`` memory plus one kernel block and
    ``O(j alpha**(2 ell))`` time.  Both routes condition on the data with
    :func:`seqgp.regress.whitened_cross`; with no training rows the prior
    over the coefficients is returned.  The dense construction in
    :func:`seqgp.oracle.dense_transform_posterior` arbitrates both.
    """
    if transform.n_rows < 1:
        raise ParameterError("transform needs at least one row")
    # the routes differ in order: the product route builds K_XX and M K_X
    # before M K M', so no (j, j, ell) einsum temporary is alive next to
    # K_XX; the streamed route needs M K for both terms, so builds it first
    if isinstance(kernel, ProductKernel):
        def cross():
            return mk_matrix(transform, kernel, data.X)

        def prior():
            if want_covariance:
                return mkmt_matrix(transform, kernel)
            return mkmt_diagonal(transform, kernel)
    else:
        from scipy.linalg.blas import dgemm

        space = kernel.space
        space.require_dense(space.n_sequences, "streamed transform posterior")
        M = np.asfortranarray(transform.dense_matrix(space))
        MK = _streamed_mk(M, kernel, space.sequences_array())

        def cross():
            return MK[:, space.sequence_indices(data.X)]

        def prior():
            if want_covariance:  # (M (MK)')', with the Fortran-ordered operands uncopied
                return dgemm(1.0, M, MK, trans_b=True).T
            return np.einsum("jn,jn->j", MK, M)

    labels = list(transform.labels)
    if data.t == 0:
        mean, W = np.zeros(transform.n_rows), np.zeros((0, transform.n_rows))
    else:
        mean, W = whitened_cross(kernel.matrix(data.X), data, cross(), ladder)
    if want_covariance:
        return GaussianPosterior(labels, mean, prior() - W.T @ W)
    return GaussianPosterior(labels, mean, None, prior() - np.einsum("tj,tj->j", W, W))


def gauge_weight_posterior(gauge: GaugeSpec, kernel, data: TrainingData,
                           subsequences: list[Subsequence], want_covariance: bool = True,
                           ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior over gauge-fixed weights for the requested subsequences.

    The gauge-weight rows of :func:`seqgp.gauges.transform_rows` through
    :func:`transform_posterior`.  The conformance suite checks the result
    against the dense construction and against the closed-form per-position
    reduction in :func:`seqgp.oracle.gauge_weight_posterior_closed_form`.
    """
    transform = transform_rows("gauge-weights", kernel.space, subsequences, gauge=gauge)
    return transform_posterior(transform, kernel, data, want_covariance, ladder)
