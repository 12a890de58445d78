"""Exact posteriors over factorized linear transforms of the function.

When the prior kernel factorizes over positions and every row of the
transform does too, the row-times-kernel and row-times-kernel-times-row
contractions collapse to per-position sums.  Posterior means and covariances
of transform coefficients then need only objects of size ``j`` (rows) and
``t`` (training sequences); nothing of size ``alpha**ell`` is ever built.

Kernels without that factorization (the isotropic ``vc`` family) take
:func:`streamed_transform_posterior`, which enumerates the space under the
size guard but streams the kernel in square blocks: its largest arrays are
``(j, alpha**ell)``, never ``(alpha**ell, alpha**ell)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import JITTER_LADDER
from .errors import ParameterError
from .gauges import FactorizedTransform, GaugeSpec, transform_rows
from .kernels import ProductKernel, _matmul_nt
from .regress import GaussianPosterior, TrainingData, whitened_cross
from .seqspace import Subsequence


@dataclass
class TransformPosteriorRequest:
    """Everything needed to compute the posterior of transform coefficients."""

    kernel: ProductKernel
    data: TrainingData
    transform: FactorizedTransform
    want_covariance: bool = True

    def __post_init__(self):
        if not isinstance(self.kernel, ProductKernel):
            raise ParameterError(
                "transform posteriors need a product kernel; route other kernels "
                "through the dense path"
            )
        if self.transform.n_rows < 1:
            raise ParameterError("transform needs at least one row")


def mk_row(row_factors, kernel: ProductKernel, y) -> float:
    """One entry of the transform applied to the kernel: row ``i`` against sequence ``y``."""
    ys = kernel.space.encode_sequence(y)
    factors = np.asarray(row_factors, dtype=float)
    value = 1.0
    for p in range(kernel.space.length):
        value *= factors[p] @ kernel.blocks[p][:, ys[p]]
    return float(value)


def mk_matrix(transform: FactorizedTransform, kernel: ProductKernel, X) -> np.ndarray:
    """All rows against all sequences in ``X``, shape ``(j, len(X))``."""
    X = np.asarray(X, dtype=np.int64)
    V = np.einsum("jpa,pab->jpb", transform.factors, kernel.blocks)
    out = np.ones((transform.n_rows, X.shape[0]))
    for p in range(kernel.space.length):
        out *= V[:, p, :][:, X[:, p]]
    return out


def mkmt_entry(row_i, row_j, kernel: ProductKernel) -> float:
    """One entry of the transform-kernel-transform contraction."""
    fi = np.asarray(row_i, dtype=float)
    fj = np.asarray(row_j, dtype=float)
    value = 1.0
    for p in range(kernel.space.length):
        value *= fi[p] @ kernel.blocks[p] @ fj[p]
    return float(value)


def mkmt_matrix(transform: FactorizedTransform, kernel: ProductKernel) -> np.ndarray:
    V = np.einsum("jpa,pab->jpb", transform.factors, kernel.blocks)
    return np.einsum("ipb,jpb->ijp", V, transform.factors).prod(axis=2)


def mkmt_diagonal(transform: FactorizedTransform, kernel: ProductKernel) -> np.ndarray:
    """Diagonal of :func:`mkmt_matrix`, without the ``(j, j)`` matrix."""
    V = np.einsum("jpa,pab->jpb", transform.factors, kernel.blocks)
    return np.einsum("jpb,jpb->jp", V, transform.factors).prod(axis=1)


def transform_posterior(request: TransformPosteriorRequest,
                        ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior of the transform coefficients under the product-kernel prior.

    Only ``(j, t)``, ``(t, t)``, and ``(j, j)`` arrays are materialized.  With
    no training rows the prior over coefficients is returned.
    """
    kernel, data, transform = request.kernel, request.data, request.transform
    labels = list(transform.labels)
    if data.t == 0:
        mean, W = np.zeros(transform.n_rows), np.zeros((0, transform.n_rows))
    else:
        mean, W = whitened_cross(kernel.matrix(data.X), data,
                                 mk_matrix(transform, kernel, data.X), ladder)
    if request.want_covariance:
        return GaussianPosterior(labels, mean, mkmt_matrix(transform, kernel) - W.T @ W)
    var = mkmt_diagonal(transform, kernel) - np.einsum("tj,tj->j", W, W)
    return GaussianPosterior(labels, mean, None, var)


# side of the square kernel blocks that streamed_transform_posterior builds
# and folds in; each block is _STREAM_BLOCK**2 floats (2 MiB at 512)
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


def streamed_transform_posterior(transform: FactorizedTransform, kernel, data: TrainingData,
                                 want_covariance: bool = True,
                                 ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior of the transform coefficients under any kernel with a ``matrix`` method.

    The route for kernels without a per-position factorization.  The rows are
    evaluated on every sequence (``M``, size-guarded) and ``M K`` comes from
    :func:`_streamed_mk`; ``M K_X`` is its columns at the training sequences
    and ``M K M'`` is ``(M K) M'``.  Memory is ``O(j alpha**ell)`` plus one
    kernel block; time is ``O(j alpha**(2 ell))``.  The dense construction in
    :func:`seqgp.oracle.dense_transform_posterior` arbitrates it.
    """
    space = kernel.space
    space.require_dense(space.n_sequences, "streamed transform posterior")
    S = space.sequences_array()
    M = np.asfortranarray(transform.dense_matrix(space))
    MK = _streamed_mk(M, kernel, S)
    labels = list(transform.labels)
    if data.t == 0:
        mean, W = np.zeros(transform.n_rows), np.zeros((0, transform.n_rows))
    else:
        mean, W = whitened_cross(kernel.matrix(data.X), data,
                                 MK[:, space.sequence_indices(data.X)], ladder)
    if want_covariance:
        return GaussianPosterior(labels, mean, _matmul_nt(MK, M) - W.T @ W)
    var = np.einsum("jn,jn->j", MK, M) - np.einsum("tj,tj->j", W, W)
    return GaussianPosterior(labels, mean, None, var)


def gauge_weight_posterior(gauge: GaugeSpec, kernel: ProductKernel, data: TrainingData,
                           subsequences: list[Subsequence], want_covariance: bool = True,
                           ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior over gauge-fixed weights for the requested subsequences.

    The gauge-weight rows of :func:`seqgp.gauges.transform_rows` through
    :func:`transform_posterior`.  The conformance suite checks the result
    against the dense construction and against the closed-form per-position
    reduction in :func:`seqgp.oracle.gauge_weight_posterior_closed_form`.
    """
    transform = transform_rows("gauge-weights", kernel.space, subsequences, gauge=gauge)
    return transform_posterior(
        TransformPosteriorRequest(kernel, data, transform, want_covariance), ladder)
