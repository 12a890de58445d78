"""Kernel families on sequence space and the priors induced by diagonal penalties.

Two base families are implemented: isotropic kernels built from Krawtchouk
polynomials, whose value depends only on Hamming distance and whose
coefficients weight the variance carried by each interaction order, and
product kernels given by one symmetric positive-definite block per position.
Geometric-decay, connectedness, and Jenga kernels are thin parameterizations
that convert to product form.  Diagonal weight-space penalties induce priors
on function space; the closed forms of those induced kernels live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, ParameterError
from .gauges import ProductDistribution
from .seqspace import SequenceSpace, binomial, krawtchouk


class VcKernel:
    """Isotropic kernel ``K(x, y) = sum_k lambdas[k] * Kraw_k(d(x, y))``.

    ``lambdas`` holds one strictly positive variance per interaction order,
    ``0..length``.  The Krawtchouk table is computed in exact integer
    arithmetic and converted to floats once.

    Zero entries are rejected here; oracle probes that need a degenerate
    kernel must pass ``allow_degenerate=True`` explicitly.
    """

    def __init__(self, lambdas, space: SequenceSpace, allow_degenerate: bool = False):
        lams = np.asarray(lambdas, dtype=float)
        if lams.shape != (space.length + 1,):
            raise DimensionError(
                f"need {space.length + 1} order variances, got shape {lams.shape}"
            )
        if not np.isfinite(lams).all():
            raise ParameterError(f"order variances must be finite, got {lams.tolist()}")
        if allow_degenerate:
            if np.any(lams < 0):
                raise ParameterError("order variances must be nonnegative")
        elif np.any(lams <= 0):
            raise ParameterError("order variances must be strictly positive")
        self.lambdas = lams
        self.space = space
        ell, alpha = space.length, space.alpha
        self._kraw = np.array(
            [[krawtchouk(k, d, ell, alpha) for d in range(ell + 1)] for k in range(ell + 1)],
            dtype=float,
        )

    def entry(self, d: int) -> float:
        """Kernel value between any two sequences at Hamming distance ``d``."""
        if not 0 <= d <= self.space.length:
            raise ParameterError(f"distance {d} outside [0, {self.space.length}]")
        return float(self.lambdas @ self._kraw[:, d])

    def inverse_entry(self, d: int) -> float:
        """Entry of the exact dense inverse at Hamming distance ``d``.

        The inverse of ``sum_k lambda_k Kraw_k(d)`` is
        ``alpha**(-2 ell) * sum_k Kraw_k(d) / lambda_k``; the leading scale is
        forced by the eigendecomposition (each Krawtchouk distance matrix is
        ``alpha**ell`` times a projector) and is verified against dense
        inversion by the conformance suite.
        """
        if not 0 <= d <= self.space.length:
            raise ParameterError(f"distance {d} outside [0, {self.space.length}]")
        if np.any(self.lambdas == 0):
            raise ParameterError("degenerate kernel has no inverse")
        scale = float(self.space.alpha) ** (-2 * self.space.length)
        return float(scale * ((1.0 / self.lambdas) @ self._kraw[:, d]))

    def matrix(self, X, Y=None) -> np.ndarray:
        table = np.array([self.entry(d) for d in range(self.space.length + 1)])
        return _lookup_by_distance(table, X, Y, self.space.alpha)

    def dense(self) -> np.ndarray:
        X = self.space.sequences_array()
        return self.matrix(X)

    def dense_inverse(self) -> np.ndarray:
        table = np.array([self.inverse_entry(d) for d in range(self.space.length + 1)])
        return _lookup_by_distance(table, self.space.sequences_array(), None, self.space.alpha)


class ProductKernel:
    """Kernel that factorizes over positions, one symmetric PD block each.

    ``blocks`` has shape ``(length, alpha, alpha)``; symmetry and positive
    definiteness of every block are verified at construction by a Cholesky
    factorization, so invalid kernels fail fast rather than downstream.
    """

    def __init__(self, blocks, space: SequenceSpace):
        arr = np.array(blocks, dtype=float)
        if arr.shape != (space.length, space.alpha, space.alpha):
            raise DimensionError(
                f"expected blocks of shape {(space.length, space.alpha, space.alpha)}, "
                f"got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ParameterError("kernel blocks must be finite")
        for p, block in enumerate(arr, start=1):
            if not np.allclose(block, block.T, rtol=0, atol=1e-12):
                raise ParameterError(f"block for position {p} is not symmetric")
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise ParameterError(
                    f"block for position {p} is not positive-definite"
                ) from None
        self.blocks = arr
        self.space = space
        self._block_inv = None

    def entry(self, x, y) -> float:
        xs = self.space.encode_sequence(x)
        ys = self.space.encode_sequence(y)
        value = 1.0
        for p in range(self.space.length):
            value *= self.blocks[p, xs[p], ys[p]]
        return float(value)

    def matrix(self, X, Y=None) -> np.ndarray:
        """``K[n, m] = prod_p blocks[p, X[n, p], Y[m, p]]`` as log-domain GEMMs.

        ``log|K|`` is the per-position log-magnitude rows of ``X`` against the
        one-hot encoding of ``Y``.  Positions whose block has a nonpositive
        entry add two integer counts, each one more GEMM over those positions
        only: negative factors, whose parity gives the sign, and zero
        factors, any of which zeroes the entry.

        With ``Y`` omitted the matrix is symmetric and is built in square row
        blocks: each row block computes only the columns from its own first
        row on and mirrors them below the diagonal, so the GEMMs, the ``exp``
        and the channels do about half the work and the result is exactly
        symmetric.
        """
        X = np.asarray(X, dtype=np.int64)
        symmetric = Y is None
        Y = X if symmetric else np.asarray(Y, dtype=np.int64)
        blocks, alpha = self.blocks, self.space.alpha
        oh_y = _one_hot(Y, alpha)
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(blocks))
        log_abs[blocks == 0] = 0.0  # zeroed below by the zero channel
        log_rows = _position_rows(log_abs, X)
        nonpos = np.flatnonzero((blocks <= 0).any(axis=(1, 2)))
        oh_nonpos = oh_y[:, (nonpos[:, None] * alpha + np.arange(alpha)).ravel()]
        neg = _position_rows((blocks[nonpos] < 0).astype(float), X[:, nonpos])
        zero = _position_rows((blocks[nonpos] == 0).astype(float), X[:, nonpos])
        has_neg, has_zero = neg.any(), zero.any()

        def finish(block, rows, cols):
            """Turn the log-magnitudes ``block = out[rows, cols]`` into entries, in place."""
            np.exp(block, out=block)
            if has_neg:
                # negative-factor counts are at most length <= 64, so int8 holds them
                sign = _matmul_nt(neg[rows], oh_nonpos[cols]).astype(np.int8)
                sign &= 1
                sign *= -2
                sign += 1
                block *= sign
            if has_zero:
                block[_matmul_nt(zero[rows], oh_nonpos[cols]) > 0] = 0.0

        if not symmetric:
            out = _matmul_nt(log_rows, oh_y)
            for rows in _row_blocks(X.shape[0], Y.shape[0]):
                finish(out[rows], rows, slice(None))
            return out
        n = X.shape[0]
        out = np.empty((n, n))
        below = np.tri(_SYMMETRIC_SIDE, k=-1, dtype=bool)
        for lo in range(0, n, _SYMMETRIC_SIDE):
            hi = min(lo + _SYMMETRIC_SIDE, n)
            rows, cols = slice(lo, hi), slice(lo, None)
            out[rows, cols] = _matmul_nt(log_rows[rows], oh_y[cols])
            finish(out[rows, cols], rows, cols)
            out[hi:, rows] = out[rows, hi:].T
            square = out[rows, rows]
            np.copyto(square, square.T, where=below[: hi - lo, : hi - lo])
        return out

    def dense(self) -> np.ndarray:
        return self.matrix(self.space.sequences_array())

    def block_inverses(self) -> np.ndarray:
        """Dense inverse of every per-position block, cached."""
        if self._block_inv is None:
            try:
                self._block_inv = np.linalg.inv(self.blocks)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular kernel block: {exc}") from None
        return self._block_inv


# side of the square row blocks of a symmetric product-kernel matrix; 256
# built the protein t=2000 K_XX faster than 512 or 1024
_SYMMETRIC_SIDE = 256

# entries per row block (8 MiB of floats) in the kernel steps that run block
# by block, so that their temporaries stay small next to the output
_BLOCK_ENTRIES = 1 << 20


def _matmul_nt(a, b) -> np.ndarray:
    """``a @ b.T`` as a C-ordered array, through scipy's BLAS.

    The factorization that consumes kernel matrices runs in scipy's
    OpenBLAS; numpy bundles a second one with its own thread pool.  A numpy
    product right before a scipy factorization made the two pools contend:
    with two BLAS threads a t=200 posterior ran 2-4x slower and its timing
    turned bimodal.
    """
    from scipy.linalg.blas import dgemm

    return dgemm(1.0, b, a, trans_b=True).T


def _one_hot(X, alpha: int) -> np.ndarray:
    """``(n, length * alpha)`` indicators of the position-character pairs of ``X``."""
    n, ell = X.shape
    out = np.zeros((n, ell * alpha))
    out[np.arange(n)[:, None], np.arange(ell) * alpha + X] = 1.0
    return out


def _position_rows(tables, X) -> np.ndarray:
    """``(n, length * alpha)`` rows ``tables[p, X[n, p], :]``, concatenated over ``p``."""
    n, ell = X.shape
    return tables[np.arange(ell), X].reshape(n, ell * tables.shape[-1])


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices covering ``n_rows``, each of at most ``_BLOCK_ENTRIES`` entries or one row."""
    step = max(1, _BLOCK_ENTRIES // max(n_cols, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _lookup_by_distance(table, X, Y, alpha: int) -> np.ndarray:
    """``table[d(X[n], Y[m])]`` with Hamming distances from one-hot GEMMs.

    The match count ``OH_x OH_y'`` is exact in floats; it is computed and
    looked up one row block at a time, so only the output is ``(n, m)``.
    """
    X = np.asarray(X, dtype=np.int64)
    Y = X if Y is None else np.asarray(Y, dtype=np.int64)
    by_matches = np.ascontiguousarray(np.asarray(table, dtype=float)[::-1])
    oh_x, oh_y = _one_hot(X, alpha), _one_hot(Y, alpha)
    out = np.empty((X.shape[0], Y.shape[0]))
    for rows in _row_blocks(X.shape[0], Y.shape[0]):
        matches = _matmul_nt(oh_x[rows], oh_y).astype(np.intp)
        np.take(by_matches, matches, out=out[rows], mode="clip")
    return out


# -- product-form parameterizations -----------------------------------------


@dataclass(frozen=True)
class GeometricKernelSpec:
    """Correlation decays geometrically with Hamming distance."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"decay factor must be in (0, 1), got {self.beta}")

    def to_product(self, space: SequenceSpace) -> ProductKernel:
        block = np.full((space.alpha, space.alpha), self.beta)
        np.fill_diagonal(block, 1.0)
        return ProductKernel(np.stack([block] * space.length), space)

    def entry(self, x, y, space: SequenceSpace) -> float:
        return float(self.beta ** space.hamming(x, y))


@dataclass(frozen=True)
class ConnectednessKernelSpec:
    """Per-position decay factors; a pair's covariance is the product over
    positions where it differs."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))

    def validate(self, space: SequenceSpace) -> "ConnectednessKernelSpec":
        if len(self.z) != space.length:
            raise DimensionError(f"need {space.length} factors, got {len(self.z)}")
        lower = -1.0 / (space.alpha - 1)
        for p, v in enumerate(self.z, start=1):
            if not lower < v < 1.0:
                raise ParameterError(
                    f"factor at position {p} must satisfy {lower} < z < 1, got {v}"
                )
        return self

    def to_product(self, space: SequenceSpace) -> ProductKernel:
        self.validate(space)
        blocks = np.empty((space.length, space.alpha, space.alpha))
        for p, v in enumerate(self.z):
            block = np.full((space.alpha, space.alpha), v)
            np.fill_diagonal(block, 1.0)
            blocks[p] = block
        return ProductKernel(blocks, space)


@dataclass(frozen=True)
class JengaKernelSpec:
    """Connectedness generalized to per-character factors.

    ``signs[p]`` is +1 or -1 and ``factors[p][c] >= 0``; when the sign is +1
    every factor must lie in (0, 1), and when it is -1 the factors must
    satisfy ``sum_c z_c^2 / (1 + z_c^2) <= 1``.  The boundary of the second
    condition gives a singular block, rejected at product conversion.
    """

    signs: tuple
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        object.__setattr__(self, "factors", tuple(tuple(float(v) for v in row)
                                                  for row in self.factors))
        if len(self.signs) != len(self.factors):
            raise DimensionError("one sign per position is required")
        for p, (s, row) in enumerate(zip(self.signs, self.factors), start=1):
            if s not in (-1, 1):
                raise ParameterError(f"sign at position {p} must be +1 or -1, got {s}")
            if any(v < 0 for v in row):
                raise ParameterError(f"factors at position {p} must be nonnegative")
            if s == 1 and any(not 0.0 < v < 1.0 for v in row):
                raise ParameterError(
                    f"factors at position {p} must lie in (0, 1) when the sign is +1"
                )
            if s == -1:
                load = sum(v * v / (1.0 + v * v) for v in row)
                if load > 1.0:
                    raise ParameterError(
                        f"factors at position {p} violate sum z^2/(1+z^2) <= 1 "
                        f"(got {load:.6f})"
                    )

    def block(self, p: int) -> np.ndarray:
        """Unit-diagonal block for a 0-based position index."""
        a = np.asarray(self.factors[p])
        block = self.signs[p] * np.outer(a, a)
        np.fill_diagonal(block, 1.0)
        return block

    def to_product(self, space: SequenceSpace) -> ProductKernel:
        if len(self.signs) != space.length:
            raise DimensionError(f"need {space.length} positions, got {len(self.signs)}")
        if any(len(row) != space.alpha for row in self.factors):
            raise DimensionError("each factor row needs one entry per character")
        return ProductKernel(np.stack([self.block(p) for p in range(space.length)]), space)


def jenga_block_inverse(sign: int, factors) -> np.ndarray:
    """Closed-form inverse of a unit-diagonal block with entries ``sign*a_c*a_c'``.

    Derived by rank-one update of the diagonal part; agrees with dense
    inversion to 1e-12 for valid blocks.
    """
    a = np.asarray(factors, dtype=float)
    if sign not in (-1, 1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    denom = 1.0 - sign * a * a
    if np.any(denom <= 0):
        raise NumericalError("block is singular: some 1 - s*a_c^2 <= 0")
    trace_term = 1.0 + sign * np.sum(a * a / denom)
    if trace_term <= 0:
        raise NumericalError("block is singular or indefinite")
    zeta = -1.0 / trace_term
    inv = sign * zeta * np.outer(a, a) / np.outer(denom, denom)
    inv[np.diag_indices_from(inv)] += 1.0 / denom
    return inv


# -- induced priors ----------------------------------------------------------


def induced_kernel_diag_lambda_pi(lam: float, pi: ProductDistribution) -> ProductKernel:
    """Prior induced by the diagonal penalty ``lam^|S| * prod_{p in S} pi^p_{s_p}``.

    The result is a product kernel whose blocks have ``1 + 1/(pi^p_c * lam)``
    on the diagonal and 1 elsewhere; with uniform ``pi`` it reduces to
    ``(1 + alpha/lam) ** (length - d(x, y))``.
    """
    if not (isinstance(lam, (int, float)) and 0 < lam < math.inf):
        raise ParameterError(f"lambda must be finite and positive, got {lam}")
    if not pi.full_support:
        raise ParameterError("pi must have full support for the induced prior")
    space = pi.space
    blocks = np.ones((space.length, space.alpha, space.alpha))
    for p in range(space.length):
        blocks[p][np.diag_indices(space.alpha)] += 1.0 / (pi.probs[p] * lam)
    return ProductKernel(blocks, space)


def induced_vc_from_order_diag(a, space: SequenceSpace) -> VcKernel:
    """Prior induced by a diagonal penalty depending only on subsequence length.

    A penalty ``a_{|S|}`` on every weight induces an isotropic prior with
    order variances ``lambda_k = sum_{j>=k} C(ell-k, j-k) / (alpha^j a_j)``.
    """
    a = np.asarray(a, dtype=float)
    ell, alpha = space.length, space.alpha
    if a.shape != (ell + 1,):
        raise DimensionError(f"need {ell + 1} penalties, got shape {a.shape}")
    if np.any(a <= 0):
        raise ParameterError("penalties must be strictly positive")
    lams = np.zeros(ell + 1)
    for k in range(ell + 1):
        lams[k] = sum(binomial(ell - k, j - k) / (alpha ** j * a[j]) for j in range(k, ell + 1))
    return VcKernel(lams, space)


@dataclass(frozen=True)
class NotRepresentable:
    """Marker result: no order-dependent diagonal penalty induces the kernel."""

    index: int
    value: float

    def __bool__(self):
        return False


def order_diag_from_vc(kernel: VcKernel) -> np.ndarray | NotRepresentable:
    """Invert :func:`induced_vc_from_order_diag`, when possible.

    Solves the triangular system ``lambda_k = sum_{j>=k} C(ell-k, j-k) x_j``
    for ``x_j = 1 / (alpha^j a_j)`` by back substitution.  Returns the penalty
    vector ``a`` when every ``x_j`` is strictly positive, otherwise a
    :class:`NotRepresentable` carrying the first offending order.
    """
    ell, alpha = kernel.space.length, kernel.space.alpha
    lams = kernel.lambdas
    x = np.zeros(ell + 1)
    for k in range(ell, -1, -1):
        x[k] = lams[k] - sum(binomial(ell - k, j - k) * x[j] for j in range(k + 1, ell + 1))
    for k in range(ell + 1):
        if x[k] <= 0:
            return NotRepresentable(index=k, value=float(x[k]))
    return 1.0 / (np.array([float(alpha) ** j for j in range(ell + 1)]) * x)


# -- bi-allelic bases --------------------------------------------------------


def _check_biallelic(rho, space: SequenceSpace) -> np.ndarray:
    if space.alpha != 2:
        raise ParameterError("this induced prior is defined only for two-character alphabets")
    r = np.asarray(rho, dtype=float)
    if r.shape != (space.length,):
        raise DimensionError(f"need {space.length} penalties, got shape {r.shape}")
    if np.any(r <= 0):
        raise ParameterError("penalties must be strictly positive")
    return r


def wh_induced_entry(rho, x, y, space: SequenceSpace) -> float:
    """Prior induced by a diagonal penalty in the sign (Walsh-Hadamard) basis."""
    r = 1.0 / _check_biallelic(rho, space)
    xs, ys = space.encode_sequence(x), space.encode_sequence(y)
    value = float(np.prod(1.0 + r))
    for p in range(space.length):
        if xs[p] != ys[p]:
            value *= (1.0 - r[p]) / (1.0 + r[p])
    return value


def wt_induced_entry(rho, x, y, space: SequenceSpace) -> float:
    """Prior induced by a diagonal penalty in the reference-anchored basis.

    Heteroskedastic: the variance grows with the number of positions at which
    a sequence carries the non-reference character.
    """
    r = 1.0 / _check_biallelic(rho, space)
    xs, ys = space.encode_sequence(x), space.encode_sequence(y)
    value = 1.0
    for p in range(space.length):
        if xs[p] == ys[p] == 1:
            value *= 1.0 + r[p]
    return value


def wh_induced_product(rho, space: SequenceSpace) -> ProductKernel:
    r = 1.0 / _check_biallelic(rho, space)
    blocks = np.empty((space.length, 2, 2))
    for p in range(space.length):
        blocks[p] = [[1.0 + r[p], 1.0 - r[p]], [1.0 - r[p], 1.0 + r[p]]]
    return ProductKernel(blocks, space)


def wt_induced_product(rho, space: SequenceSpace) -> ProductKernel:
    r = 1.0 / _check_biallelic(rho, space)
    blocks = np.empty((space.length, 2, 2))
    for p in range(space.length):
        blocks[p] = [[1.0, 1.0], [1.0, 1.0 + r[p]]]
    return ProductKernel(blocks, space)


# -- config ------------------------------------------------------------------

KERNEL_FAMILIES = ("vc", "product", "geometric", "connectedness", "jenga",
                   "diag-lambda-pi", "order-diag", "wh", "wt")

_FAMILY_KEYS = {
    "vc": {"lambdas"},
    "product": {"blocks"},
    "geometric": {"beta"},
    "connectedness": {"z"},
    "jenga": {"signs", "factors"},
    "diag-lambda-pi": {"lambda", "pi"},
    "order-diag": {"a"},
    "wh": {"rho"},
    "wt": {"rho"},
}


def kernel_from_config(cfg: dict, space: SequenceSpace):
    """Build a kernel from a config block ``{"family": ..., <params>}``.

    Product-form families are returned as :class:`ProductKernel`; ``vc`` and
    ``order-diag`` return a :class:`VcKernel`.  Unknown keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"kernel block must be a mapping, got {type(cfg).__name__}")
    family = cfg.get("family")
    if family not in KERNEL_FAMILIES:
        raise ConfigError(f"unknown kernel family {family!r}; expected one of {KERNEL_FAMILIES}")
    unknown = set(cfg) - {"family"} - _FAMILY_KEYS[family]
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} for kernel family {family!r}")
    missing = _FAMILY_KEYS[family] - set(cfg)
    if missing:
        raise ConfigError(f"kernel family {family!r} needs keys {sorted(missing)}")
    try:
        if family == "vc":
            return VcKernel(cfg["lambdas"], space)
        if family == "product":
            return ProductKernel(cfg["blocks"], space)
        if family == "geometric":
            return GeometricKernelSpec(cfg["beta"]).to_product(space)
        if family == "connectedness":
            return ConnectednessKernelSpec(tuple(cfg["z"])).to_product(space)
        if family == "jenga":
            return JengaKernelSpec(tuple(cfg["signs"]), tuple(map(tuple, cfg["factors"]))
                                   ).to_product(space)
        if family == "diag-lambda-pi":
            lam = cfg["lambda"]
            pi_cfg = cfg["pi"]
            if pi_cfg == "uniform":
                pi = ProductDistribution.uniform(space)
            elif isinstance(pi_cfg, list):
                pi = ProductDistribution(pi_cfg, space)
            else:
                raise ConfigError(f"unsupported pi specification {pi_cfg!r}")
            return induced_kernel_diag_lambda_pi(float(lam), pi)
        if family == "order-diag":
            return induced_vc_from_order_diag(cfg["a"], space)
        if family == "wh":
            return wh_induced_product(cfg["rho"], space)
        return wt_induced_product(cfg["rho"], space)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # ValueError covers ParameterError and DimensionError; both also
        # cover parameters of the wrong JSON type, and OverflowError an
        # integer too large for a float
        raise ConfigError(f"invalid kernel parameters: {exc}") from exc
