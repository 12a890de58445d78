"""Dense desk-scale estimators and closed forms for weight-space penalties.

Four equivalent routes to the same posterior mean are implemented: Gaussian
process regression in function space, penalized regression in function space,
penalized regression in overparameterized weight space, and Bayesian
regression in weight space.  The penalty that makes the weight-space routes
land in a chosen gauge while matching a chosen prior is assembled here from
its two pieces: the prior part (the indicator features contracted against the
kernel inverse, with per-family closed forms) and the gauge penalty from
:mod:`seqgp.gauges`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import JITTER_LADDER, SpdSolver, inv_spd
from .errors import DataError, DimensionError, ParameterError
from .gauges import GaugeSpec, penalty_dense
from .kernels import (
    ConnectednessKernelSpec,
    GeometricKernelSpec,
    JengaKernelSpec,
    ProductKernel,
    VcKernel,
    jenga_block_inverse,
)
from .seqspace import SequenceSpace, Subsequence, binomial


@dataclass
class TrainingData:
    """Observed sequences (duplicates allowed), values, and noise variance."""

    X: np.ndarray
    y: np.ndarray
    noise_variance: float

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise DimensionError(f"X must be 2-dimensional, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise DimensionError(
                f"{self.X.shape[0]} sequences but {self.y.shape} values"
            )
        if not np.isfinite(self.y).all():
            raise DataError("target values must be finite")
        if not self.noise_variance > 0:
            raise ParameterError(
                f"noise variance must be positive, got {self.noise_variance}; "
                "approach the noiseless case with a small value instead"
            )

    @classmethod
    def from_sequences(cls, space: SequenceSpace, seqs, y, noise_variance: float):
        return cls(space.encode_batch(seqs), np.asarray(y, dtype=float), noise_variance)

    @property
    def t(self) -> int:
        return self.X.shape[0]


@dataclass
class GaussianPosterior:
    """A Gaussian over a labeled finite index set.

    ``cov`` is None when only marginal variances were requested.  Gauge-fixed
    posteriors are singular by design, so the covariance is positive
    semidefinite rather than definite; tiny negative round-off variances are
    clipped to zero by :attr:`sd`.
    """

    labels: list[str]
    mean: np.ndarray
    cov: np.ndarray | None = None
    var: np.ndarray = field(default=None)

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if self.cov is not None:
            self.cov = np.asarray(self.cov, dtype=float)
            if self.cov.shape != (self.mean.size, self.mean.size):
                raise DimensionError(
                    f"covariance shape {self.cov.shape} does not match mean size {self.mean.size}"
                )
            if self.var is None:
                self.var = np.diag(self.cov).copy()
        if self.var is None:
            raise DimensionError("need a covariance matrix or a variance vector")
        self.var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if len(self.labels) != self.mean.size:
            raise DimensionError(f"{len(self.labels)} labels for {self.mean.size} entries")

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(np.clip(self.var, 0.0, None))


def phi_rows(space: SequenceSpace, X) -> np.ndarray:
    """Indicator feature rows for the given sequences, one column per subsequence."""
    space.require_dense(space.n_subsequences, "indicator feature rows")
    return space.indicator_columns(X)


# -- the four estimators -----------------------------------------------------


def whitened_cross(gram: np.ndarray, data: TrainingData, cross: np.ndarray,
                   ladder=JITTER_LADDER) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and whitened cross-covariance: the one exact conditioning step.

    ``gram`` is a freshly built symmetric ``K_XX`` and is consumed: the noise
    variance is added to its diagonal and it is factorized in place, so no
    second ``t x t`` array is made.  ``cross`` is ``(q, t)``: the prior
    covariance of ``q`` outputs with the training values.  With
    ``L L' = K_XX + noise I``, one batched triangular solve gives
    ``[w_y | W] = L^{-1} [y | cross']``.  The posterior mean is ``W' w_y`` and
    the posterior covariance is the prior minus ``W' W``, symmetric by
    construction.
    """
    gram[np.diag_indices_from(gram)] += data.noise_variance
    whitened = SpdSolver(gram, ladder, overwrite=True).whiten(
        np.column_stack([data.y, cross.T]))
    W = whitened[:, 1:]
    return W.T @ whitened[:, 0], W


def gp_posterior(kernel, data: TrainingData, query, space: SequenceSpace,
                 ladder=JITTER_LADDER) -> GaussianPosterior:
    """Exact Gaussian process posterior at the query sequences.

    With no training rows this is the prior: zero mean, covariance given by
    the kernel on the queries.
    """
    Q = space.encode_batch(query)
    labels = [space.format_sequence(q) for q in Q]
    K_qq = kernel.matrix(Q)
    if data.t == 0:
        return GaussianPosterior(labels, np.zeros(len(Q)), K_qq)
    mean, W = whitened_cross(kernel.matrix(data.X), data, kernel.matrix(Q, data.X), ladder)
    return GaussianPosterior(labels, mean, K_qq - W.T @ W)


def ridge_weights(penalty: np.ndarray, data: TrainingData, space: SequenceSpace,
                  beta: float, ladder=JITTER_LADDER) -> np.ndarray:
    """Minimizer of the squared error plus ``beta * w' penalty w`` over weights."""
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    penalty = np.asarray(penalty, dtype=float)
    phi_X = phi_rows(space, data.X)
    A = phi_X.T @ phi_X + beta * penalty
    return SpdSolver(A, ladder).solve(phi_X.T @ data.y)


def ridge_function(fn_penalty: np.ndarray, data: TrainingData, space: SequenceSpace,
                   beta: float, ladder=JITTER_LADDER) -> np.ndarray:
    """Minimizer of the squared error plus ``beta * f' fn_penalty f`` over functions.

    Duplicate training sequences each contribute their own residual term.
    """
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    fn_penalty = np.asarray(fn_penalty, dtype=float)
    n = space.n_sequences
    space.require_dense(n, "function-space penalized regression")
    idx = space.sequence_indices(data.X)
    counts = np.zeros(n)
    rhs = np.zeros(n)
    np.add.at(counts, idx, 1.0)
    np.add.at(rhs, idx, data.y)
    A = beta * fn_penalty + np.diag(counts)
    return SpdSolver(A, ladder).solve(rhs)


def bayes_weight_posterior(weight_cov: np.ndarray, data: TrainingData,
                           space: SequenceSpace, ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior over weights under a Gaussian weight prior with the given covariance."""
    W = np.asarray(weight_cov, dtype=float)
    phi_X = phi_rows(space, data.X)
    A = phi_X.T @ phi_X / data.noise_variance + inv_spd(W, ladder)
    cov = inv_spd(A, ladder)
    mean = cov @ phi_X.T @ data.y / data.noise_variance
    labels = [space.format_subsequence(s) for s in space.enumerate_subsequences()]
    return GaussianPosterior(labels, mean, cov)


# -- closed forms for the prior part of the penalty ---------------------------


def phit_kinv_phi_vc(kernel: VcKernel, sub_row: Subsequence, sub_col: Subsequence) -> float:
    """Entry of the indicator features contracted against an isotropic kernel inverse.

    Counts, for each Hamming distance ``d``, the sequence pairs consistent
    with the two subsequences, and weights the count by the inverse-kernel
    value at ``d``.
    """
    space = kernel.space
    space.validate_subsequence(sub_row)
    space.validate_subsequence(sub_col)
    ell, alpha = space.length, space.alpha
    common = set(sub_row.positions) & set(sub_col.positions)
    union = set(sub_row.positions) | set(sub_col.positions)
    j = sum(
        1 for p in common if sub_row.char_at(p) != sub_col.char_at(p)
    )
    i = len(common)
    total = 0.0
    for d in range(j, ell - (i - j) + 1):
        total += (
            binomial(ell - i, d - j)
            * (alpha - 1) ** (d - j)
            * kernel.inverse_entry(d)
        )
    return float(alpha ** (ell - len(union)) * total)


def _product_entry_from_block_inverses(binv, sub_row: Subsequence, sub_col: Subsequence,
                                       ell: int) -> float:
    row = dict(zip(sub_row.positions, sub_row.chars))
    col = dict(zip(sub_col.positions, sub_col.chars))
    value = 1.0
    for p in range(1, ell + 1):
        b = binv[p - 1]
        in_row, in_col = p in row, p in col
        if in_row and in_col:
            value *= b[row[p], col[p]]
        elif in_row:
            value *= b[row[p], :].sum()
        elif in_col:
            value *= b[col[p], :].sum()
        else:
            value *= b.sum()
    return float(value)


def phit_kinv_phi_product(kernel: ProductKernel, sub_row: Subsequence,
                          sub_col: Subsequence) -> float:
    """Same contraction for a product kernel, via per-position block inverses."""
    space = kernel.space
    space.validate_subsequence(sub_row)
    space.validate_subsequence(sub_col)
    return _product_entry_from_block_inverses(kernel.block_inverses(), sub_row, sub_col,
                                              space.length)


def phit_kinv_phi_jenga(spec: JengaKernelSpec, sub_row: Subsequence, sub_col: Subsequence,
                        space: SequenceSpace) -> float:
    """Jenga closed form: block inverses come from the rank-one update formula."""
    binv = [jenga_block_inverse(spec.signs[p], spec.factors[p]) for p in range(space.length)]
    return _product_entry_from_block_inverses(binv, sub_row, sub_col, space.length)


def phit_kinv_phi_connectedness(spec: ConnectednessKernelSpec, sub_row: Subsequence,
                                sub_col: Subsequence, space: SequenceSpace) -> float:
    spec.validate(space)
    alpha = space.alpha
    value = 1.0
    common = set(sub_row.positions) & set(sub_col.positions)
    union = set(sub_row.positions) | set(sub_col.positions)
    for p in range(1, space.length + 1):
        z = spec.z[p - 1]
        value /= 1.0 + (alpha - 1) * z
        if p in common:
            if sub_row.char_at(p) == sub_col.char_at(p):
                value *= (1.0 + (alpha - 2) * z) / (1.0 - z)
            else:
                value *= -z / (1.0 - z)
        elif p not in union:
            value *= alpha
    return float(value)


def phit_kinv_phi_geometric(spec: GeometricKernelSpec, sub_row: Subsequence,
                            sub_col: Subsequence, space: SequenceSpace) -> float:
    alpha, beta = space.alpha, spec.beta
    common = set(sub_row.positions) & set(sub_col.positions)
    union = set(sub_row.positions) | set(sub_col.positions)
    n_eq = sum(1 for p in common if sub_row.char_at(p) == sub_col.char_at(p))
    n_ne = len(common) - n_eq
    value = alpha ** (space.length - len(union)) / (1.0 + (alpha - 1) * beta) ** space.length
    value *= ((1.0 + (alpha - 2) * beta) / (1.0 - beta)) ** n_eq
    value *= (-beta / (1.0 - beta)) ** n_ne
    return float(value)


def prior_penalty_dense(kernel, space: SequenceSpace) -> np.ndarray:
    """Dense prior part of the weight penalty, from the per-family closed forms."""
    if isinstance(kernel, VcKernel):
        entry = lambda a, b: phit_kinv_phi_vc(kernel, a, b)
    elif isinstance(kernel, ProductKernel):
        entry = lambda a, b: phit_kinv_phi_product(kernel, a, b)
    else:
        raise ParameterError(f"the weight penalty needs a VcKernel or ProductKernel, "
                             f"got {type(kernel).__name__}")
    subs = space.subsequences()
    out = np.empty((len(subs), len(subs)))
    for a, sub_row in enumerate(subs):
        out[a, a] = entry(sub_row, sub_row)
        for b in range(a + 1, len(subs)):
            out[a, b] = out[b, a] = entry(sub_row, subs[b])
    return out


def build_theta_regularizer(kernel, gauge: GaugeSpec, space: SequenceSpace) -> np.ndarray:
    """Weight penalty that induces the kernel's prior with its optimum in the gauge.

    The sum of the prior part and the gauge penalty: penalized weight
    regression under the result reproduces the Gaussian process posterior
    mean through the indicator map, and its minimizer satisfies the gauge's
    marginalization property.  Requires ``eta > 0``.
    """
    if gauge.eta == 0:
        raise ParameterError("the trivial gauge (eta = 0) admits no finite penalty")
    return prior_penalty_dense(kernel, space) + penalty_dense(gauge, space)
